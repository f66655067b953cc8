"""The splitmix64 generator against published reference outputs."""

import pytest
from hypothesis import given, strategies as st

from textquest.rng import SplitMix64

# Reference sequence for seed 1234567, from the widely circulated C
# implementation (Steele et al. mixing constants).
SEED_1234567_OUTPUTS = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
)


def test_reference_sequence():
    rng = SplitMix64(1234567)
    assert tuple(rng.next_u64() for _ in range(5)) == SEED_1234567_OUTPUTS


def test_state_advances_by_golden_gamma():
    rng = SplitMix64(0)
    rng.next_u64()
    assert rng.state == 0x9E3779B97F4A7C15


def test_copy_is_independent():
    rng = SplitMix64(99)
    dup = rng.copy()
    a = [rng.next_u64() for _ in range(4)]
    b = [dup.next_u64() for _ in range(4)]
    assert a == b


def test_fork_diverges_from_parent():
    rng = SplitMix64(99)
    child = rng.fork()
    assert child.next_u64() != rng.next_u64()


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=10 ** 12))
def test_randrange_bounds(seed, bound):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.randrange(bound) < bound


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_random_unit_interval(seed):
    rng = SplitMix64(seed)
    for _ in range(5):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)


def test_choice_uniform_coverage():
    rng = SplitMix64(8)
    seen = {rng.choice("abcd") for _ in range(200)}
    assert seen == set("abcd")
