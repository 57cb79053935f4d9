"""Numerical laboratory for cohomogeneity-one gradient Ricci soliton trajectories."""

import collections
import contextlib
import os
import pickle
from types import SimpleNamespace

__version__ = "0.1.0"


def _fmt(x: float) -> str:
    """17 significant digits: the one text form of a float in every output."""
    return f"{x:.17g}"


class Report(SimpleNamespace):
    """A diagnostic record, written to JSON as the object ``vars(report)``.

    A subclass annotates its fields; each is an attribute of every instance,
    None unless given.  Creating such a class costs no generated methods:
    ``repr`` and ``==`` are the namespace's, over the fields.
    """

    def __init__(self, **fields):
        super().__init__(**dict.fromkeys(self.__annotations__) | fields)


# one entry per lane (``_beside``) open in this process, or in the one it
# was forked from: a child inherits the list
_open = []


def _lanes() -> int:
    """The one rule for an optional second lane (the probe's, the streamed
    trajectory.csv): 2 lanes where ``os.fork`` exists, this process may run
    on more than one CPU, is no lane's child and holds no lane open, else
    1.  A lane asked for (the sweep's ``--jobs``, the compact chart) does
    not ask."""
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
    ``answer`` reaps it and raises ``RuntimeError``.  Leaving the block
    reaps the child, which is killed first if the block raised.  Without
    ``os.fork``, ``answer`` calls ``fn`` in this process.

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
    if not hasattr(os, "fork"):
        asked = collections.deque()
        yield SimpleNamespace(ask=asked.append, answer=lambda: fn(asked.popleft()))
        return
    fds = os.pipe() + os.pipe()
    with contextlib.ExitStack() as stack:
        _open.append(fn)  # before the fork, so the child inherits it
        stack.callback(_open.pop)
        requests_in, requests, answers, answers_out = [
            stack.enter_context(open(fd, mode)) for fd, mode in zip(fds, ("rb", "wb", "rb", "wb"))
        ]
        pid = os.fork()
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
            raise RuntimeError(f"the child process ended with no result (wait status {ended})")

        try:
            yield SimpleNamespace(ask=ask, answer=answer)
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
