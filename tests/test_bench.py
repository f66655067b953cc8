"""Benchmark aggregation, the embedded reference table, and report schema."""

import json

import pytest

from textquest.bench import (NEGATIVE_MODES, REFERENCE_ROWS, REPORT_VERSION,
                             BenchReport, BenchRow,
                             compute_normalized_completion, reference_column,
                             run_benchmark, validate_report)
from textquest.gamedefs import bundled_game_names, load_bundled


# -- the aggregation itself --------------------------------------------------------


def test_single_row_fraction():
    assert compute_normalized_completion([(10, 30)]) == pytest.approx(100 / 3)


def test_full_marks_everywhere():
    rows = [(r.max_score, r.max_score) for r in REFERENCE_ROWS]
    assert compute_normalized_completion(rows) == pytest.approx(100.0)


def test_zero_scores_are_zero_percent():
    assert compute_normalized_completion([(0, 50), (0, 1)]) == 0.0


def test_empty_rows_rejected():
    with pytest.raises(ValueError, match="empty"):
        compute_normalized_completion([])


def test_nonpositive_max_rejected():
    with pytest.raises(ValueError, match="positive"):
        compute_normalized_completion([(1, 0)])
    with pytest.raises(ValueError, match="positive"):
        compute_normalized_completion([(1, -5)])


def test_unknown_negatives_mode_rejected():
    with pytest.raises(ValueError, match="negatives"):
        compute_normalized_completion([(1, 2)], negatives="absorb")


def test_clip_versus_raw_on_negative_scores():
    rows = [(-5.0, 10.0), (5.0, 10.0)]
    assert compute_normalized_completion(rows, "clip") == pytest.approx(25.0)
    assert compute_normalized_completion(rows, "raw") == pytest.approx(0.0)


def test_matches_plain_python_oracle():
    """Cross-check the numpy mean against a hand-rolled sum/len."""
    for agent in ("random", "nail", "tdqn", "drrn"):
        rows = reference_column(agent)
        for mode in NEGATIVE_MODES:
            ratios = [s / m for s, m in rows]
            if mode == "clip":
                ratios = [max(r, 0.0) for r in ratios]
            oracle = 100.0 * sum(ratios) / len(ratios)
            got = compute_normalized_completion(rows, mode)
            assert got == pytest.approx(oracle, abs=1e-12), (agent, mode)


# -- the embedded reference table --------------------------------------------------


def test_reference_table_shape():
    assert len(REFERENCE_ROWS) == 33
    names = [r.game for r in REFERENCE_ROWS]
    assert names == sorted(names)
    zork1 = next(r for r in REFERENCE_ROWS if r.game == "zork1")
    assert (zork1.templates, zork1.vocab) == (237, 697)
    assert zork1.max_score == 350


def test_reference_column_unknown_agent():
    with pytest.raises(ValueError, match="unknown reference column"):
        reference_column("oracle")


def test_published_aggregates():
    """The table reproduces the published summary percentages."""
    random_pc = compute_normalized_completion(reference_column("random"))
    assert random_pc == pytest.approx(1.8, abs=0.1)
    drrn_clip = compute_normalized_completion(reference_column("drrn"))
    assert drrn_clip == pytest.approx(10.7, abs=1.0)
    drrn_raw = compute_normalized_completion(reference_column("drrn"), "raw")
    assert drrn_raw < drrn_clip  # dragon's negative mean drags raw down
    assert drrn_raw == pytest.approx(10.4, abs=0.1)
    nail = compute_normalized_completion(reference_column("nail"))
    tdqn = compute_normalized_completion(reference_column("tdqn"))
    assert random_pc < nail < tdqn < drrn_clip


# -- report format -----------------------------------------------------------------


def make_report(**overrides) -> BenchReport:
    rows = (
        BenchRow(game="tinybox", agent="random", handicaps=("fixed_seed",),
                 runs=10, mean_score=0.5, std_score=0.5, max_score=2),
        BenchRow(game="manor", agent="drrn",
                 handicaps=("fixed_seed", "valid_action_detection"),
                 runs=5, mean_score=3.0, std_score=0.0, max_score=3),
    )
    kwargs = dict(rows=rows, protocol={"seed": 1})
    kwargs.update(overrides)
    return BenchReport(**kwargs)


def test_row_to_dict_lists_handicaps():
    row = make_report().rows[1]
    data = row.to_dict()
    assert data["handicaps"] == ["fixed_seed", "valid_action_detection"]
    assert data["game"] == "manor"
    assert data["max_score"] == 3


def test_report_to_dict_schema():
    report = make_report()
    data = report.to_dict()
    assert data["version"] == REPORT_VERSION == 1
    assert data["protocol"] == {"seed": 1}
    assert len(data["rows"]) == 2
    agg = data["aggregate"]
    assert agg["negatives"] == "clip"
    # (0.5/2 + 3/3) / 2 = 0.625
    assert agg["normalized_completion"] == pytest.approx(62.5)
    assert validate_report(data) == []


def test_report_negatives_mode_is_recorded():
    report = make_report(negatives="raw")
    assert report.to_dict()["aggregate"]["negatives"] == "raw"


def test_report_to_json_round_trips():
    report = make_report()
    text = report.to_json()
    assert text.endswith("\n")
    assert json.loads(text) == report.to_dict()
    # stable output: sorted keys, so serialization is reproducible
    assert text == report.to_json()


def test_validate_report_catches_problems():
    good = make_report().to_dict()
    assert validate_report(good) == []

    bad = json.loads(json.dumps(good))
    bad["version"] = 99
    del bad["rows"][0]["handicaps"]
    del bad["rows"][1]["mean_score"]
    bad["rows"][1]["max_score"] = 0
    problems = validate_report(bad)
    assert any("version" in p for p in problems)
    assert any("handicap disclosure is mandatory" in p for p in problems)
    assert any("missing 'mean_score'" in p for p in problems)
    assert any("max_score must be positive" in p for p in problems)


@pytest.mark.parametrize("where, value, message", [
    ("mean_score", "3", "mean_score must be a number"),
    ("std_score", None, "std_score must be a number"),
    ("mean_score", float("nan"), "mean_score must be a number"),
    ("max_score", float("inf"), "max_score must be a number"),
    ("mean_score", True, "mean_score must be a number"),
    ("runs", "10", "runs must be an integer of at least 1"),
    ("runs", 0, "runs must be an integer of at least 1"),
    ("runs", 2.0, "runs must be an integer of at least 1"),
    ("normalized_completion", float("inf"),
     "normalized_completion must be a number"),
    ("normalized_completion", float("nan"),
     "normalized_completion must be a number")])
def test_validate_report_requires_finite_numbers(where, value, message):
    data = make_report().to_dict()
    target = data["aggregate"] if where == "normalized_completion" \
        else data["rows"][0]
    target[where] = value
    assert [p for p in validate_report(data) if message in p]


@pytest.mark.parametrize("where, value, message", [
    ("game", 5, "game must be a string"),
    ("game", None, "game must be a string"),
    ("agent", None, "agent must be a string"),
    ("agent", ["random"], "agent must be a string"),
    ("handicaps", [1, {}], "each handicap must be a string"),
    ("handicaps", ["load_save", None], "each handicap must be a string"),
    ("std_score", -3, "std_score must not be negative"),
    ("std_score", -0.5, "std_score must not be negative")])
def test_validate_report_checks_row_types_and_signs(where, value, message):
    data = make_report().to_dict()
    data["rows"][0][where] = value
    assert [p for p in validate_report(data) if message in p]


def test_validate_report_refuses_a_row_of_wrong_types():
    """One row that got past every check before: no field was typed."""
    data = make_report().to_dict()
    data["rows"][0] = {"game": 5, "agent": None, "handicaps": [1, {}],
                       "runs": 1, "mean_score": 0, "std_score": -3,
                       "max_score": 1}
    assert len(validate_report(data)) == 4


def test_validate_report_accepts_a_large_integer_score():
    data = make_report().to_dict()
    data["rows"][0]["mean_score"] = 10 ** 400  # no float holds it
    assert validate_report(data) == []


def test_report_json_refuses_nan():
    report = make_report()
    nan_row = BenchRow(game="g", agent="random", handicaps=(), runs=1,
                       mean_score=float("nan"), std_score=0.0, max_score=1)
    with pytest.raises(ValueError):
        BenchReport(rows=report.rows + (nan_row,)).to_json()


def test_validate_report_missing_rows_and_aggregate():
    problems = validate_report({"version": 1})
    assert any("rows must be a non-empty list" in p for p in problems)
    assert any("normalized_completion" in p for p in problems)


def test_validate_report_bad_negatives():
    data = make_report().to_dict()
    data["aggregate"]["negatives"] = "ignore"
    assert any("negatives" in p for p in validate_report(data))


# -- running the floor benchmark ---------------------------------------------------


@pytest.fixture(scope="module")
def bundled():
    return {name: load_bundled(name) for name in bundled_game_names()}


def test_run_benchmark_rows(bundled):
    report = run_benchmark(bundled, seed=17, episodes=4)
    assert [r.game for r in report.rows] == sorted(bundled)
    for row in report.rows:
        assert row.agent == "random"
        assert row.handicaps == ("fixed_seed",)
        assert row.runs == 4
        assert 0.0 <= row.mean_score <= row.max_score
        assert row.std_score >= 0.0
    assert report.protocol == {"seed": 17, "episodes": 4, "step_cap": 100}
    assert validate_report(report.to_dict()) == []


@pytest.mark.parametrize("episodes", [0, -2])
def test_run_benchmark_needs_an_episode(bundled, episodes):
    with pytest.raises(ValueError, match="episodes must be at least 1"):
        run_benchmark(bundled, seed=1, episodes=episodes)


def test_run_benchmark_deterministic(bundled):
    a = run_benchmark(bundled, seed=17, episodes=3)
    b = run_benchmark(bundled, seed=17, episodes=3)
    assert a.to_json() == b.to_json()
