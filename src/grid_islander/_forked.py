"""A forked child process that talks to its parent over two pipes.

The upper half of a sync-time ensemble (``kuramoto``) and the
whole-network power flow of ``run-all`` and ``metrics`` (``cli``) each
run in one. Both fork only when ``usable_cpus() >= 2`` and do the same
work in-process otherwise.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import traceback
from typing import Any, Callable

from .errors import GridIslanderError

# Every message is a kind byte and a body length, then the body: a
# pickled value (V), a pickled GridIslanderError (G), or the UTF-8
# traceback of any other exception (E).
_HEADER = struct.Struct("=cQ")


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Forked:
    """A forked child that runs ``work(self)`` and leaves only through
    ``os._exit``.

    Each side ``send``s values that the other ``receive``s in order. If
    ``work`` raises, the child sends its exception instead, and
    ``receive`` in the parent raises it: a GridIslanderError as itself,
    anything else as RuntimeError with the child's traceback. As a
    context manager the parent kills the child on any error of its own,
    and reaps it in every case.
    """

    def __init__(self, work: Callable[[Forked], None]) -> None:
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(down_w)
                os.close(up_r)
                self._in, self._out = down_r, up_w
                try:
                    work(self)
                    code = 0
                except BaseException as exc:
                    if isinstance(exc, GridIslanderError):
                        self._put(b"G", pickle.dumps(exc))
                    else:
                        self._put(b"E", traceback.format_exc().encode())
            finally:
                os._exit(code)
        os.close(down_r)
        os.close(up_w)
        self._in, self._out = up_r, down_w

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        os.close(self._in)
        os.close(self._out)
        if exc_type is not None:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)

    def send(self, value: Any) -> None:
        self._put(b"V", pickle.dumps(value))

    def receive(self) -> Any:
        kind, size = _HEADER.unpack(self._get(_HEADER.size))
        body = self._get(size)
        if kind == b"V":
            return pickle.loads(body)
        if kind == b"G":
            raise pickle.loads(body)
        raise RuntimeError("forked child failed:\n" + body.decode())

    def _put(self, kind: bytes, body: bytes) -> None:
        data = memoryview(_HEADER.pack(kind, len(body)) + body)
        while data:
            data = data[os.write(self._out, data):]

    def _get(self, size: int) -> bytes:
        data = b""
        while len(data) < size:
            chunk = os.read(self._in, size - len(data))
            if not chunk:
                raise RuntimeError("forked child ended without a report")
            data += chunk
        return data
