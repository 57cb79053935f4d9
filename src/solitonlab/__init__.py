"""Numerical laboratory for cohomogeneity-one gradient Ricci soliton trajectories."""

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


@contextlib.contextmanager
def _beside(fn):
    """Run ``fn()`` in a forked child while the block runs.  The block gets
    ``join``, which waits for the child and returns fn's result or raises
    its exception, pickled back through a pipe.  A child not joined when the
    block raises is killed and reaped.  Without ``os.fork``, ``join`` calls
    ``fn`` in this process.

    The child leaves through ``os._exit``: it flushes none of the stdio
    buffers it inherited and runs no exit handlers."""
    if not hasattr(os, "fork"):
        yield fn
        return
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                reader.close()
                try:
                    payload = (True, fn())
                except BaseException as exc:  # re-raised by the parent's join
                    payload = (False, exc)
                writer.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                writer.close()
                status = 0
            finally:
                os._exit(status)
        writer.close()
        reaped = False

        def join():
            nonlocal reaped
            data = reader.read()
            _, status = os.waitpid(pid, 0)
            reaped = True
            if not data:
                raise RuntimeError(f"the child process ended with no result (wait status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            return value

        try:
            yield join
        finally:
            if not reaped:
                import signal  # only a failure needs it
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
