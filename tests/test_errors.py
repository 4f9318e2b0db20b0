"""Every error type ends the CLI with its exit code, and a forked child
reports values, or any error as its traceback."""

import inspect
import json
import os
import socket
import time

import pytest

from grid_islander import cli, errors
from grid_islander._forked import Forked

# Constructor arguments of every class in errors.py; the rest take one
# message.
_ARGUMENTS = {
    errors.NumericalDivergence: [(2.5,)],
    errors.MissingSection: [("bus",)],
    errors.ParseError: [(3, 7, "bad token")],
    errors.Stalled: [("stuck",), ("stuck", 4, [11, 12])],
    errors.NotConverged: [(20, 3.6e12)],
}
_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if cls.__module__ == errors.__name__]
# The exit code of every error the package raises: each class in
# errors.py but the base, which is never raised itself, and the CLI's own.
_EXIT_CODES = {
    errors.ConfigError: 2, errors.EmptyLayer: 2, errors.MissingSection: 2,
    errors.NotFound: 2, errors.ParseError: 2, errors.SchemaError: 2,
    errors.DegenerateBranch: 3, errors.DegenerateEstimate: 3,
    errors.NotConverged: 3, errors.NumericalDivergence: 3,
    errors.SingularSystem: 3, errors.UndefinedSize: 3,
    errors.InitialIslandsOverlap: 4, errors.NoGenerator: 4,
    errors.Stalled: 4, cli._ValidationFailure: 4,
}
_CASES = [(cls, args) for cls in sorted(_EXIT_CODES, key=lambda c: c.__name__)
          for args in _ARGUMENTS.get(cls, [("what went wrong",)])]


def test_every_class_is_covered():
    assert errors.NotConverged in _CLASSES
    assert set(_ARGUMENTS) <= set(_CLASSES)
    assert all(issubclass(cls, errors.GridIslanderError) for cls in _CLASSES)
    assert set(_EXIT_CODES) == (set(_CLASSES) - {errors.GridIslanderError}
                                | {cli._ValidationFailure})


@pytest.mark.parametrize("cls, args", _CASES,
                         ids=[f"{cls.__name__}{len(args)}"
                              for cls, args in _CASES])
def test_error_exits_with_its_code(cls, args, monkeypatch, capsys):
    # raised from the first pipeline stage, the error ends main with its
    # exit code and one JSON line on stderr, not a traceback
    exc = cls(*args)

    def stage(parsed):
        raise exc

    monkeypatch.setattr(cli, "_scenario", stage)
    code = cli.main(["run-all", "--config", "never-read.json"])
    assert code == _EXIT_CODES[cls]
    assert capsys.readouterr().err.splitlines() == [json.dumps(
        {"error": cls.__name__, "message": str(exc), "exit_code": code})]


def _raising(exc):
    def work(child):
        raise exc
    return work


def test_child_errors_are_forwarded():
    # any error, a package error too, comes back as RuntimeError with the
    # child's traceback
    for exc, last_line in ((errors.NotConverged(20, 1.5),
                            "NotConverged: no convergence after 20 "),
                           (KeyError("x"), "KeyError: 'x'")):
        with pytest.raises(RuntimeError, match="(?s)forked child failed:\n"
                           "Traceback.*" + last_line):
            with Forked(_raising(exc)) as child:
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
