"""Seedable deterministic random generator used by all search and sampling.

The generator is SplitMix64 (Steele, Lea, Flood 2014): one 64-bit word of
state, advanced by the golden-ratio increment 0x9E3779B97F4A7C15, output
finalized by two xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB).  It is trivially portable: the same seed produces
the same draws on every platform and Python version, which is what the
reproducibility guarantees of the CLI rest on.

Bounded draws use plain modulo reduction.  The modulo bias is far below
anything observable at the sizes used here (bounds < 2^32), and byte-exact
reproducibility matters more than uniformity in the 12th decimal.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output word."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def words(self, count: int) -> np.ndarray:
        """The next `count` output words as a uint64 array, in one pass.

        Word i is the finalizer applied to state + (i + 1) * gamma, so a
        block needs no loop; numpy's uint64 arithmetic wraps mod 2^64.
        """
        z = (np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
             + np.uint64(self._state))
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def below(self, bound: int) -> int:
        """Uniform-ish draw from range(bound); bound must be positive."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def elements(self, q: int, count: int) -> list[int]:
        """Draw `count` field elements (integers in [0, q))."""
        return [self.below(q) for _ in range(count)]
