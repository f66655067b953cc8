"""Action selection rules shared by the trainers.

All randomness flows through SplitMix64 so a seeded run reproduces exactly
on any platform.
"""

from __future__ import annotations

import numpy as np

from ..rng import SplitMix64


def softmax(q: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Temperature softmax, shift-invariant and safe for large values."""
    if q.size == 0:
        raise ValueError("empty value array")
    if tau <= 0:
        raise ValueError("temperature must be positive")
    z = (q - np.max(q)) / tau
    e = np.exp(z)
    return e / e.sum()


def softmax_select(q: np.ndarray, tau: float, rng: SplitMix64) -> int:
    """Sample an index with probability softmax(q / tau)."""
    probs = softmax(q, tau)
    bounds = np.cumsum(probs)
    bounds[-1] = 1.0
    return int(np.searchsorted(bounds, rng.random(), side="right"))


def argmax_tie_break(q: np.ndarray, rng: SplitMix64) -> int:
    """Argmax with uniform choice among exact ties."""
    if q.size == 0:
        raise ValueError("empty value array")
    best = np.flatnonzero(q == np.max(q))
    if best.size == 1:
        return int(best[0])
    return int(best[rng.randrange(best.size)])


def epsilon_greedy(q: np.ndarray, epsilon: float, rng: SplitMix64) -> int:
    """Uniform random index with probability epsilon, else argmax."""
    if q.size == 0:
        raise ValueError("empty value array")
    if rng.random() < epsilon:
        return rng.randrange(q.size)
    return argmax_tie_break(q, rng)


def linear_anneal(start: float, end: float, step: int, total: int) -> float:
    """Linear schedule from start to end over `total` steps, then flat."""
    if total <= 0 or step >= total:
        return end
    if step <= 0:
        return start
    return start + (end - start) * (step / total)
