"""Deterministic random number generation.

The engine, the agents, and the harness all draw from splitmix64 streams so a
single integer seed reproduces a whole run. The generator state is one u64,
which the snapshot codec stores verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


@dataclass
class SplitMix64:
    """splitmix64 stream: tiny, fast, and serializable as a single u64."""

    state: int = 0

    def __post_init__(self) -> None:
        self.state &= _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of entropy."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        # rejection sampling on the top of the range
        limit = _MASK - (_MASK % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise IndexError("choice from an empty sequence")
        return seq[self.randrange(len(seq))]

    def fork(self) -> "SplitMix64":
        """Derive an independent child stream."""
        return SplitMix64(self.next_u64())

    def copy(self) -> "SplitMix64":
        return SplitMix64(self.state)
