"""A forked child process that reports to its parent over a
``multiprocessing`` pipe, in pickled ``("value", v)``, ``("raise", exc)``
and ``("crash", traceback)`` messages. Messages go one way only: the
parent never writes to the child.

The pipe is a socketpair whose child end asks for the deepest send
buffer the kernel grants (Linux caps it at twice ``net.core.wmem_max``),
so a child streaming reports runs ahead of a parent busy with its own
work instead of stalling whenever the default buffer (about 208 KB)
fills.

The upper half of a sync-time ensemble (``kuramoto``) and the
whole-network power flow of ``run-all`` and ``metrics`` (``cli``) each
run in one. Both fork only when ``usable_cpus() >= 2`` and do the same
work in-process otherwise.
"""

from __future__ import annotations

import os
import signal
import traceback
from typing import Any, Callable

from .errors import GridIslanderError

# Asked for as the child end's SO_SNDBUF; the kernel grants at most its cap.
_SEND_BUFFER = 2 ** 31 - 1


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Forked:
    """A forked child that runs ``work(self)`` and leaves only through
    ``os._exit``.

    The child ``send``s values that the parent ``receive``s in order,
    also after the child has ended. If ``work`` raises, ``receive``
    raises its error: a GridIslanderError as itself, anything else as
    RuntimeError with the child's traceback. As a context manager the
    parent, on leaving, kills the child wherever it is and reaps it.
    """

    def __init__(self, work: Callable[[Forked], None]) -> None:
        # imported here, so that a run that never forks skips the import
        import socket
        from multiprocessing.connection import Pipe
        # a duplex Pipe() is a socketpair; the os.pipe of
        # Pipe(duplex=False), with its 64 KB buffer, slowed the ensemble
        mine, theirs = Pipe()
        try:
            with socket.fromfd(theirs.fileno(), socket.AF_UNIX,
                               socket.SOCK_STREAM) as end:
                end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                               _SEND_BUFFER)
            self.pid = os.fork()
        except OSError:
            mine.close()
            theirs.close()
            raise
        if self.pid == 0:
            code = 1
            try:
                mine.close()
                self._connection = theirs
                try:
                    work(self)
                    code = 0
                except BaseException as exc:
                    if isinstance(exc, GridIslanderError):
                        theirs.send(("raise", exc))
                    else:
                        theirs.send(("crash", traceback.format_exc()))
            finally:
                os._exit(code)
        theirs.close()
        self._connection = mine

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._connection.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)

    def send(self, value: Any) -> None:
        self._connection.send(("value", value))

    def receive(self) -> Any:
        try:
            kind, body = self._connection.recv()
        except EOFError:
            raise RuntimeError("forked child ended without a report") \
                from None
        if kind == "value":
            return body
        if kind == "raise":
            raise body
        raise RuntimeError("forked child failed:\n" + body)
