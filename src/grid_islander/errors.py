"""Exception types shared across the toolkit."""

from __future__ import annotations


class GridIslanderError(Exception):
    """Base class for every error raised by this package."""


class NotFound(GridIslanderError):
    """A bus, branch, or island label does not exist in the model."""


class DegenerateBranch(GridIslanderError):
    """Branch has zero series impedance, so no susceptance is defined."""


class Unreachable(GridIslanderError):
    """No path exists between the requested nodes."""


class EmptyLayer(GridIslanderError):
    """A cyberlayer was requested over an empty node set."""


class GridError(GridIslanderError):
    """A query time does not lie on the stored integration grid."""


class NumericalDivergence(GridIslanderError):
    """Integration produced a non-finite state."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"non-finite state at t={t:g}")


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
