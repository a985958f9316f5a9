"""Deterministic 64-bit generator (splitmix64) for reproducible sweeps.

The CLI and the verification suites must emit byte-identical output for a
fixed seed on every platform, so randomness goes through this generator
rather than the interpreter's.
"""

from __future__ import annotations

from .core import Interval

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; identical sequences for identical seeds."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) * ``random()``, drawing the bits itself: one call
        level fewer on the sweeps' hot path."""
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def subinterval(self, window: Interval) -> Interval:
        """Random subinterval of ``window`` at least 5% of its width."""
        while True:
            x = self.uniform(window.a, window.b)
            y = self.uniform(window.a, window.b)
            lo, hi = (x, y) if x < y else (y, x)
            if hi - lo >= 0.05 * window.width:
                return Interval(lo, hi)
