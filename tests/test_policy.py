"""Action-selection rules: softmax, epsilon-greedy, schedules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textquest.agents.policy import (argmax_tie_break, epsilon_greedy,
                                     linear_anneal, softmax, softmax_select)
from textquest.rng import SplitMix64

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


# -- softmax -------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=12),
       st.floats(min_value=0.1, max_value=10))
def test_softmax_is_a_distribution(values, tau):
    p = softmax(np.array(values), tau)
    assert p.shape == (len(values),)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=12), finite_floats)
def test_softmax_shift_invariant(values, shift):
    q = np.array(values)
    assert np.allclose(softmax(q), softmax(q + shift))


def test_softmax_handles_huge_values():
    p = softmax(np.array([1e300, 1e300 - 1.0]))
    assert np.all(np.isfinite(p))


def test_softmax_orders_by_value():
    p = softmax(np.array([1.0, 3.0, 2.0]))
    assert p[1] > p[2] > p[0]


def test_softmax_temperature_flattens():
    q = np.array([0.0, 1.0])
    sharp = softmax(q, tau=0.1)
    flat = softmax(q, tau=10.0)
    assert sharp[1] > flat[1] > 0.5


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax(np.zeros(0))
    with pytest.raises(ValueError):
        softmax(np.zeros(3), tau=0.0)
    with pytest.raises(ValueError):
        softmax(np.zeros(3), tau=-1.0)


def test_softmax_select_matches_distribution():
    q = np.array([0.0, 1.0, 2.0])
    probs = softmax(q, tau=1.0)
    rng = SplitMix64(5)
    counts = np.zeros(3)
    n = 20_000
    for _ in range(n):
        counts[softmax_select(q, 1.0, rng)] += 1
    assert np.allclose(counts / n, probs, atol=0.02)


def test_softmax_select_deterministic_per_seed():
    q = np.array([0.3, 0.2, 0.9, 0.1])
    picks_a = [softmax_select(q, 1.0, SplitMix64(9)) for _ in range(3)]
    picks_b = [softmax_select(q, 1.0, SplitMix64(9)) for _ in range(3)]
    assert picks_a == picks_b


# -- greedy selection ----------------------------------------------------------------


def test_argmax_tie_break_unique_max():
    assert argmax_tie_break(np.array([0.0, 5.0, 1.0]), SplitMix64(0)) == 1


def test_argmax_tie_break_uniform_over_ties():
    q = np.array([2.0, 2.0, 1.0, 2.0])
    rng = SplitMix64(11)
    counts = np.zeros(4)
    n = 9000
    for _ in range(n):
        counts[argmax_tie_break(q, rng)] += 1
    assert counts[2] == 0
    assert np.allclose(counts[[0, 1, 3]] / n, 1 / 3, atol=0.02)


def test_epsilon_greedy_endpoints():
    q = np.array([0.0, 1.0])
    rng = SplitMix64(3)
    assert all(epsilon_greedy(q, 0.0, rng) == 1 for _ in range(50))
    picks = [epsilon_greedy(q, 1.0, rng) for _ in range(4000)]
    share = sum(picks) / len(picks)
    assert 0.45 < share < 0.55  # fully random


def test_epsilon_greedy_mixes():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    rng = SplitMix64(17)
    n = 20_000
    picks = np.array([epsilon_greedy(q, 0.4, rng) for _ in range(n)])
    # index 0 receives (1 - eps) + eps/4 of the mass
    assert np.mean(picks == 0) == pytest.approx(0.6 + 0.1, abs=0.02)


def test_selection_rejects_empty():
    for fn in (lambda: argmax_tie_break(np.zeros(0), SplitMix64(0)),
               lambda: epsilon_greedy(np.zeros(0), 0.5, SplitMix64(0))):
        with pytest.raises(ValueError):
            fn()


# -- schedules -----------------------------------------------------------------------


def test_linear_anneal_trajectory():
    assert linear_anneal(1.0, 0.05, 0, 100) == 1.0
    assert linear_anneal(1.0, 0.05, 50, 100) == pytest.approx(0.525)
    assert linear_anneal(1.0, 0.05, 100, 100) == 0.05
    assert linear_anneal(1.0, 0.05, 10_000, 100) == 0.05
    assert linear_anneal(1.0, 0.05, -3, 100) == 1.0
    assert linear_anneal(1.0, 0.05, 5, 0) == 0.05


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=1000))
def test_linear_anneal_monotone_and_bounded(step, total):
    value = linear_anneal(1.0, 0.05, step, total)
    assert 0.05 <= value <= 1.0
    later = linear_anneal(1.0, 0.05, step + 1, total)
    assert later <= value
