"""Every error type survives pickling, as a forked child hands it back."""

import inspect
import os
import pickle
import socket
import time

import pytest

from grid_islander import errors
from grid_islander._forked import Forked

# Constructor arguments of every class in errors.py; the rest take one
# message.
_ARGUMENTS = {
    errors.NumericalDivergence: [(2.5,), (2.5, "blew up")],
    errors.MissingSection: [("bus",)],
    errors.ParseError: [(3, 7, "bad token")],
    errors.Stalled: [("stuck",), ("stuck", 4, [11, 12])],
    errors.NotConverged: [(20, 3.6e12)],
}
_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if cls.__module__ == errors.__name__]
_CASES = [(cls, args) for cls in _CLASSES
          for args in _ARGUMENTS.get(cls, [("what went wrong",)])]


def test_every_class_is_covered():
    assert errors.NotConverged in _CLASSES
    assert set(_ARGUMENTS) <= set(_CLASSES)
    assert all(issubclass(cls, errors.GridIslanderError) for cls in _CLASSES)


@pytest.mark.parametrize("cls, args", _CASES,
                         ids=[f"{cls.__name__}{len(args)}"
                              for cls, args in _CASES])
def test_error_round_trips_through_pickle(cls, args):
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def _raising(exc):
    def work(child):
        raise exc
    return work


def test_child_errors_are_forwarded():
    # a GridIslanderError comes back as itself, anything else as
    # RuntimeError with the child's traceback
    with Forked(_raising(errors.NotConverged(20, 1.5))) as child:
        with pytest.raises(errors.NotConverged) as err:
            child.receive()
    assert (err.value.iterations, err.value.mismatch) == (20, 1.5)
    with pytest.raises(RuntimeError, match=r"(?s)Traceback.*KeyError: 'x'"):
        with Forked(_raising(KeyError("x"))) as child:
            child.receive()


def test_child_values_round_trip():
    values = [1.5, "text", {"a": (1, 2)}, b"x" * 200_000]

    def sends(child):
        for value in values:
            child.send(value)

    with Forked(sends) as child:
        assert [child.receive() for _ in values] == values
        with pytest.raises(RuntimeError, match="ended without a report"):
            child.receive()


def test_child_streams_ahead_of_its_parent():
    # The child sends 2 MB in 64 KB messages and exits before the parent
    # receives any of them: its send buffer holds them all, so a child
    # reporting block by block never waits on a parent busy elsewhere.
    messages = [bytes([k]) * (64 << 10) for k in range(32)]

    def sends(child):
        with socket.fromfd(child._stream.fileno(), socket.AF_UNIX,
                           socket.SOCK_STREAM) as end:
            granted = end.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        child.send(granted)
        if granted >= 4 << 20:
            for message in messages:
                child.send(message)

    with Forked(sends) as child:
        deadline = time.monotonic() + 30.0
        while os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOHANG
                        | os.WNOWAIT) is None:
            assert time.monotonic() < deadline, "the child never exited"
            time.sleep(0.01)
        granted = child.receive()
        if granted < 4 << 20:
            pytest.skip(f"the kernel grants a {granted}-byte send buffer")
        assert [child.receive() for _ in messages] == messages
