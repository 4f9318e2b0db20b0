"""NumPy's PCG64 stream, seeded through its SeedSequence, in plain integers.

``next_doubles(n, seed)`` gives the first n doubles in [0, 1) of NumPy's
``Generator(PCG64(SeedSequence(seed)))``, bit for bit: SeedSequence's
four-word pool and ``generate_state(4, uint64)``, PCG64's seeding and
XSL-RR output (O'Neill, HMC-CS-2014-0905), and ``next_double = (x >> 11)
* 2**-53``. Drawing them here keeps the package's sync tables independent
of NumPy's default generator, which NEP 19 leaves free to change.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _words(seed) -> list[int]:
    """The 32-bit entropy words of a non-negative integer, or of a
    sequence of them: each integer little-endian, 0 as one zero word."""
    try:
        value = operator.index(seed)
    except TypeError:
        if isinstance(seed, (str, bytes)) or not isinstance(seed, Iterable):
            raise TypeError("seed must be a non-negative integer or a "
                            f"sequence of them, not {seed!r}") from None
        return [word for item in seed for word in _words(item)]
    if value < 0:
        raise ValueError(f"seed must be non-negative, not {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class _Hash:
    """SeedSequence's ``hashmix``: xor with a running constant, multiply
    by its next value, fold the high half down."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: int) -> int:
        value ^= self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two pool words."""
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


def _seed_state(seed) -> tuple[int, int]:
    """PCG64's 128-bit (state, increment) for a SeedSequence entropy."""
    entropy = _words(seed)
    hashmix = _Hash(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words off the cycled pool, paired
    # little-endian
    generate = _Hash(0x8B51F9DD, 0x58F38DED)
    w = [generate(pool[i % 4]) for i in range(8)]
    initstate = (w[1] << 32 | w[0]) << 64 | w[3] << 32 | w[2]
    inc = ((w[5] << 32 | w[4]) << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
    # srandom: state 0, step, add the initial state, step
    return (inc + initstate) * _MULTIPLIER + inc & _MASK128, inc


def next_doubles(n: int, seed) -> list[float]:
    """The stream's first n doubles, each a multiple of 2**-53 in [0, 1)."""
    state, inc = _seed_state(seed)
    if n < 0:
        raise ValueError(f"cannot draw a negative number of values, {n}")
    draws = []
    for _ in range(n):
        state = state * _MULTIPLIER + inc & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        draws.append((((x >> rot | x << (64 - rot)) & _MASK64) >> 11)
                     * 2.0 ** -53)
    return draws
