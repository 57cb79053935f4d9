"""Numerical laboratory for cohomogeneity-one gradient Ricci soliton trajectories."""

import collections
import contextlib
import json
import os
import pickle
import sys
from types import SimpleNamespace

__version__ = "0.1.0"


def _fmt(x: float) -> str:
    """17 significant digits: a float's one text form in CSVs and printed
    lines (JSON holds its ``repr``)."""
    return f"{x:.17g}"


class Report(SimpleNamespace):
    """A diagnostic record, written to JSON as the object ``vars(report)``.

    A subclass annotates its fields; each is an attribute of every instance,
    None unless given.  Creating such a class costs no generated methods:
    ``repr`` and ``==`` are the namespace's, over the fields.
    """

    def __init__(self, **fields):
        super().__init__(**dict.fromkeys(self.__annotations__) | fields)


class ConfigError(ValueError):
    """Malformed input: a run config, a decomposition file or a
    command-line value; the message names the offending field or flag."""


class ProbeRangeError(RuntimeError):
    """No sampled conservation constant reached the probe's slope target."""


class LaneLost(RuntimeError):
    """A lane's child (``_beside``) ended before it gave a result: it was
    killed, or it ran out of memory, say."""


def _read_json(source, what: str) -> dict:
    """The JSON object in ``source``, a path or a file object; a dict is
    taken as read.  A file that cannot be opened, bytes that are not UTF-8
    or not JSON, and a document that is not an object are a ConfigError."""
    if isinstance(source, dict):
        return source
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document must be a JSON object")
    return doc


def _field(value, where: str, kind=float, least=None, positive=False):
    """``value`` read as ``kind``, else a ConfigError naming the field at
    ``where``.  A list is a JSON array.  A number is one a float can hold:
    an int a JSON integer, a float any finite JSON number (JSON admits
    NaN, Infinity and integers beyond a float's range), and a bool
    neither; it is at least ``least`` if given, and above 0 if
    ``positive``."""
    if kind is list:
        ok = isinstance(value, list)
    else:
        ok = (
            isinstance(value, (int, kind))
            and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max
            and (least is None or value >= least)
            and (value > 0 or not positive)
        )
    if not ok:
        what = {int: "an integer", float: "a finite number", list: "a list"}[kind]
        what = "a positive finite number" if positive else what
        raise ConfigError(f"field '{where}' must be {what}" + ("" if least is None else f" >= {least}"))
    return kind(value)


def _need(doc: dict, field: str, kind=None, ctx: str = "", least=None):
    """The field of ``doc`` at ``ctx.field``, checked as ``kind`` (tuple: a
    list of integers) if given and at least ``least`` if given, else a
    ConfigError naming it; a missing field is one too."""
    where = f"{ctx}.{field}" if ctx else field
    if field not in doc:
        raise ConfigError(f"missing field '{where}'")
    value = doc[field]
    if kind is tuple:
        return tuple(_field(v, f"{where}[{i}]", int) for i, v in enumerate(_field(value, where, list)))
    return value if kind is None else _field(value, where, kind, least)


def _only(doc, fields, ctx: str = ""):
    """Refuse a doc that is not a JSON object, or a field of it that the
    loader does not read."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field '{ctx}' must be an object")
    for field in doc:
        if field not in fields:
            where = f"{ctx}.{field}" if ctx else field
            raise ConfigError(f"unknown field '{where}'")


# one entry per lane (``_beside``) open in this process, or in the one it
# was forked from: a child inherits the list
_open = []


def _lanes() -> int:
    """The one rule for an optional second lane (the streamed
    trajectory.csv's): 2 lanes where ``os.fork`` exists, this process may
    run on more than one CPU, is no lane's child and holds no lane open,
    else 1.  A lane asked for (the sweep's ``--jobs``, the compact chart)
    does not ask."""
    if not hasattr(os, "fork") or _open:
        return 1
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return 2 if len(cpus) > 1 else 1


@contextlib.contextmanager
def _beside(fn):
    """A request lane to a forked child that runs ``fn(x)`` for each x sent
    to it, in order, while the block runs.  The block gets the lane:
    ``lane.ask(x)`` sends x, and ``lane.answer()`` waits for the oldest
    unanswered result and returns it, or raises the exception ``fn``
    raised; both go through pipes, pickled.  Once the child is gone,
    ``answer`` reaps it and raises ``LaneLost``.  Leaving the block
    reaps the child, which is killed first if the block raised.
    ``lane.pid`` is the child's pid, or None where no child is to be had:
    no ``os.fork``, or an ``OSError`` from the fork or its pipes (a full
    process or file limit).  Then ``answer`` calls ``fn`` here.

    A pipe holds a bounded amount (64 KiB on Linux).  A request sent to a
    full pipe waits until the child reads one: that is back-pressure, and
    the child, serving in order, always gets to it.  But once answers not
    yet taken fill their pipe, the child waits to write the next, and
    with it an ``ask`` waiting on a full request pipe would wait forever.
    So a caller that streams requests and takes the answers at the end
    keeps the answers it leaves unread below 64 KiB in all: a few bytes
    each, with one carrying the result.  The other callers here have at
    most one request outstanding, or ask once in all.

    While the block runs the lane counts as open (``_lanes``), in this
    process and in the child, which never leaves it.  The child leaves
    through ``os._exit``: it flushes none of the stdio buffers it
    inherited and runs no exit handlers."""
    with contextlib.ExitStack() as stack:
        _open.append(fn)  # before the fork, so the child inherits it
        stack.callback(_open.pop)
        pid = None
        with contextlib.suppress(OSError):
            if hasattr(os, "fork"):
                requests_in, requests, answers, answers_out = [
                    stack.enter_context(open(fd, mode))
                    for _ in range(2)  # each pipe's ends go on the stack before the next pipe is made
                    for fd, mode in zip(os.pipe(), ("rb", "wb"))
                ]
                pid = os.fork()
        if pid is None:
            asked = collections.deque()
            yield SimpleNamespace(pid=None, ask=asked.append, answer=lambda: fn(asked.popleft()))
            return
        if pid == 0:
            status = 1
            try:
                requests.close()
                answers.close()
                while True:
                    try:
                        x = pickle.load(requests_in)
                    except EOFError:
                        break
                    try:
                        payload = (True, fn(x))
                    except BaseException as exc:  # re-raised by the parent's answer
                        payload = (False, exc)
                    answers_out.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                    answers_out.flush()
                status = 0
            finally:
                os._exit(status)
        requests_in.close()
        answers_out.close()
        ended = None  # the child's wait status once it is reaped

        def ask(x):
            with contextlib.suppress(BrokenPipeError):  # a child gone is answer's to report
                requests.write(pickle.dumps(x, pickle.HIGHEST_PROTOCOL))
                requests.flush()

        def answer():
            nonlocal ended
            if ended is None:
                try:
                    ok, value = pickle.load(answers)
                except (EOFError, pickle.UnpicklingError):  # none, or a truncated one
                    ended = os.waitpid(pid, 0)[1]
                else:
                    if not ok:
                        raise value
                    return value
            raise LaneLost(f"the child process ended with no result (wait status {ended})")

        try:
            yield SimpleNamespace(pid=pid, ask=ask, answer=answer)
        except BaseException:
            if ended is None:
                import signal  # only a failure needs it
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            # with no more requests, and none of its answers read, the child ends
            with contextlib.suppress(BrokenPipeError):  # requests a child gone never read
                requests.close()
            answers.close()
            if ended is None:
                os.waitpid(pid, 0)
