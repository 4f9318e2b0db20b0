"""A forked child process that reports to its parent over a socketpair,
one pickle per ``("value", v)``, ``("raise", exc)`` or
``("crash", traceback)`` message, through buffered files on its ends.
Messages go one way only: the parent never writes to the child.

The child's end asks for the deepest send buffer the kernel grants
(Linux caps it at twice ``net.core.wmem_max``; an ``os.pipe`` holds
64 KB), so a child streaming reports runs ahead of a parent busy with
its own work instead of stalling whenever the buffer fills.

The upper half of a sync-time ensemble (``kuramoto``) and the
whole-network power flow of ``run-all`` and ``metrics`` (``cli``) each
run in one. Both fork only when ``usable_cpus() >= 2`` and do the same
work in-process otherwise.
"""

from __future__ import annotations

import os
import pickle
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
        mine, theirs = socket.socketpair()
        try:
            theirs.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
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
                self._stream = open(theirs.detach(), "wb")
                try:
                    work(self)
                    code = 0
                except GridIslanderError as exc:
                    self._report("raise", exc)
                except BaseException:
                    self._report("crash", traceback.format_exc())
            finally:
                os._exit(code)
        theirs.close()
        self._stream = open(mine.detach(), "rb")

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stream.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)

    def _report(self, kind: str, body: Any) -> None:
        # a whole pickle or, if dumps fails, nothing; flushed at once
        self._stream.write(pickle.dumps((kind, body)))
        self._stream.flush()

    def send(self, value: Any) -> None:
        self._report("value", value)

    def receive(self) -> Any:
        try:
            kind, body = pickle.load(self._stream)
        except EOFError:
            raise RuntimeError("forked child ended without a report") \
                from None
        if kind == "value":
            return body
        if kind == "raise":
            raise body
        raise RuntimeError("forked child failed:\n" + body)
