"""Exception types shared across the toolkit, and the integer check that
every reader of ids and counts applies. No error is pickled: a forked
child (``_forked``) reports any exception as its traceback's text."""

from __future__ import annotations


class GridIslanderError(Exception):
    """Base class for every error raised by this package."""


def integer(name: str, value, error: type[Exception] = ValueError) -> int:
    """``int(value)``, raising ``error`` on a bool, a string or a number
    with a fraction, which ``int`` would silently take as 1, 0, the
    number the digits spell or the truncated number. A string is refused
    even as one id: a reader that iterates it reads each digit as an id."""
    if isinstance(value, (bool, str, bytes)) or (
            isinstance(value, float) and not value.is_integer()):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


class NotFound(GridIslanderError):
    """A bus, branch, or island label does not exist in the model."""


class DegenerateBranch(GridIslanderError):
    """Branch has zero series impedance, so no susceptance is defined."""


class EmptyLayer(GridIslanderError):
    """A cyberlayer was requested over an empty node set."""


class NumericalDivergence(GridIslanderError):
    """Integration produced a non-finite state."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"non-finite state at t={t:g}")


class MissingSection(GridIslanderError):
    """A required MATPOWER section is absent from the case text."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing section: {name}")


class ParseError(GridIslanderError):
    """Malformed token in a MATPOWER case file."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class SchemaError(GridIslanderError):
    """Parsed data violates the expected table layout."""


class ConfigError(GridIslanderError):
    """A scenario configuration value is missing, malformed, or inconsistent."""


class InitialIslandsOverlap(GridIslanderError):
    """Seed islands share a node."""


class Stalled(GridIslanderError):
    """Partition growth cannot make further progress."""

    def __init__(self, message: str, round_index: int | None = None,
                 blocked: tuple[int, ...] = ()):
        self.round_index = round_index
        self.blocked = tuple(blocked)
        super().__init__(message)


class DegenerateEstimate(GridIslanderError):
    """Island and augmented-island frequencies coincide; power not recoverable."""


class UndefinedSize(GridIslanderError):
    """Island frequency is zero, so the size estimate has no solution."""


class SingularSystem(GridIslanderError):
    """Linear power-flow system is singular (disconnected or ill-posed)."""


class NotConverged(GridIslanderError):
    """Iterative power flow failed to reach tolerance."""

    def __init__(self, iterations: int, mismatch: float):
        self.iterations = iterations
        self.mismatch = mismatch
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(max mismatch {mismatch:.3e})")


class NoGenerator(GridIslanderError):
    """An island or node set contains no generator bus."""
