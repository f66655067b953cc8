"""Benchmark aggregation: normalized completion and the JSON report format.

The headline metric normalizes each game's score by its maximum and
averages across games, reported as a percentage. Negative scores (some
games punish dying) are clipped to zero by default; pass
negatives="raw" to average the signed ratios instead. Both variants are
legitimate readings of the published aggregate, so reports record which
one they used.

REFERENCE_ROWS embeds a published per-game results table for 33 games
(per-game mean scores for a random agent, two learners, a heuristic
general agent, and each game's maximum) so the aggregation code can be
checked against its known summary figures: the random column aggregates
to about 1.8% completion and the strongest learner to about 10.4% raw /
10.8% clipped.

Reports produced by run_benchmark carry one row per (game, agent) pair.
Every row must disclose the handicap set the agent ran with; validation
rejects reports that omit it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .env import EPISODE_STEP_CAP
from .gamedefs import GameDef
from .agents.training import RANDOM_HANDICAPS, run_random

REPORT_VERSION = 1

NEGATIVE_MODES = ("clip", "raw")


@dataclass(frozen=True)
class ReferenceRow:
    game: str
    templates: int
    vocab: int
    random_score: float
    nail_score: float
    tdqn_score: float
    drrn_score: float
    max_score: float


# Published per-game means; the trailing column is each game's maximum.
REFERENCE_ROWS: tuple[ReferenceRow, ...] = tuple(
    ReferenceRow(*row) for row in [
        ("905", 82, 296, 0, 0, 0, 0, 1),
        ("acorncourt", 151, 343, 0, 0, 1.6, 10, 30),
        ("advent", 189, 786, 36, 36, 36, 36, 350),
        ("adventureland", 156, 398, 0, 0, 0, 20.6, 100),
        ("afflicted", 146, 762, 0, 0, 1.3, 2.6, 75),
        ("anchor", 260, 2257, 0, 0, 0, 0, 100),
        ("awaken", 159, 505, 0, 0, 0, 0, 50),
        ("balances", 156, 452, 0, 10, 4.8, 10, 51),
        ("deephome", 173, 760, 1, 13.3, 1, 1, 300),
        ("detective", 197, 344, 113.7, 136.9, 169, 197.8, 360),
        ("dragon", 177, 1049, 0, 0.6, -5.3, -3.5, 25),
        ("enchanter", 290, 722, 0, 0, 8.6, 20.0, 400),
        ("gold", 200, 728, 0, 3, 4.1, 0, 100),
        ("inhumane", 141, 409, 0, 0.6, 0.7, 0, 90),
        ("jewel", 161, 657, 0, 1.6, 0, 1.6, 90),
        ("karn", 178, 615, 0, 1.2, 0.7, 2.1, 170),
        ("library", 173, 510, 0, 0.9, 6.3, 17, 30),
        ("ludicorp", 187, 503, 13.2, 8.4, 6, 13.8, 150),
        ("moonlit", 166, 669, 0, 0, 0, 0, 1),
        ("omniquest", 207, 460, 0, 5.6, 16.8, 5, 50),
        ("pentari", 155, 472, 0, 0, 17.4, 27.2, 70),
        ("reverb", 183, 526, 0, 0, 0.3, 8.2, 50),
        ("snacktime", 201, 468, 0, 0, 9.7, 0, 50),
        ("sorcerer", 288, 1013, 5, 5, 5, 20.8, 400),
        ("spellbrkr", 333, 844, 25, 40, 18.7, 37.8, 600),
        ("spirit", 169, 1112, 2.4, 1, 0.6, 0.8, 250),
        ("temple", 175, 622, 0, 7.3, 7.9, 7.4, 35),
        ("tryst205", 197, 871, 0, 2, 0, 9.6, 350),
        ("yomomma", 141, 619, 0, 0, 0, 0.4, 35),
        ("zenon", 149, 401, 0, 0, 0, 0, 20),
        ("zork1", 237, 697, 0, 10.3, 9.9, 32.6, 350),
        ("zork3", 214, 564, 0.2, 1.8, 0, 0.5, 7),
        ("ztuu", 186, 607, 0, 0, 4.9, 21.6, 100),
    ])


def reference_column(agent: str) -> list[tuple[float, float]]:
    """(score, max_score) pairs for one agent column of the embedded table."""
    attr = {"random": "random_score", "nail": "nail_score",
            "tdqn": "tdqn_score", "drrn": "drrn_score"}.get(agent)
    if attr is None:
        raise ValueError(f"unknown reference column '{agent}'")
    return [(getattr(r, attr), r.max_score) for r in REFERENCE_ROWS]


def compute_normalized_completion(rows: list[tuple[float, float]],
                                  negatives: str = "clip") -> float:
    """100 * mean over rows of score / max_score.

    Each row is (score, max_score) with max_score > 0. negatives="clip"
    floors each ratio at zero; "raw" keeps signed ratios.
    """
    if not rows:
        raise ValueError("cannot aggregate an empty row list")
    if negatives not in NEGATIVE_MODES:
        raise ValueError(f"negatives must be one of {NEGATIVE_MODES}")
    ratios = []
    for score, max_score in rows:
        if max_score <= 0:
            raise ValueError(f"max_score must be positive, got {max_score}")
        ratio = score / max_score
        if negatives == "clip":
            ratio = max(ratio, 0.0)
        ratios.append(ratio)
    return 100.0 * float(np.mean(ratios))


# -- report format -----------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    """One (game, agent) line of a benchmark report.

    The handicaps tuple is mandatory: a score is meaningless without
    knowing what information the agent was allowed."""

    game: str
    agent: str
    handicaps: tuple[str, ...]
    runs: int
    mean_score: float
    std_score: float
    max_score: int

    def to_dict(self) -> dict:
        data = asdict(self)
        data["handicaps"] = list(self.handicaps)
        return data


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    protocol: dict = field(default_factory=dict)
    negatives: str = "clip"

    def normalized_completion(self) -> float:
        return compute_normalized_completion(
            [(r.mean_score, r.max_score) for r in self.rows],
            negatives=self.negatives)

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "protocol": dict(self.protocol),
            "rows": [r.to_dict() for r in self.rows],
            "aggregate": {
                "normalized_completion": self.normalized_completion(),
                "negatives": self.negatives,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"


def _finite(value) -> bool:
    """A JSON number that is neither a boolean, NaN nor an infinity."""
    return type(value) is int or (type(value) is float and
                                  math.isfinite(value))


def validate_report(data) -> list[str]:
    """Schema check for a decoded report; returns a list of problems."""
    if not isinstance(data, dict):
        return ["a report must be a JSON object"]
    problems = []
    if data.get("version") != REPORT_VERSION:
        problems.append(f"version must be {REPORT_VERSION}")
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        rows = []
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: a row must be a JSON object")
            continue
        for key in ("game", "agent", "runs", "mean_score", "std_score",
                    "max_score"):
            if key not in row:
                problems.append(f"{where}: missing '{key}'")
        for key in ("game", "agent"):
            if key in row and type(row[key]) is not str:
                problems.append(f"{where}: {key} must be a string")
        handicaps = row.get("handicaps")
        if not isinstance(handicaps, list):
            problems.append(f"{where}: handicap disclosure is mandatory "
                            "(list of handicap names, may be empty)")
        elif any(type(name) is not str for name in handicaps):
            problems.append(f"{where}: each handicap must be a string")
        if "runs" in row and (type(row["runs"]) is not int or
                              row["runs"] < 1):
            problems.append(f"{where}: runs must be an integer of at least 1")
        for key in ("mean_score", "std_score", "max_score"):
            if key in row and not _finite(row[key]):
                problems.append(f"{where}: {key} must be a number, not NaN "
                                "or an infinity")
        if _finite(row.get("max_score")) and row["max_score"] <= 0:
            problems.append(f"{where}: max_score must be positive")
        if _finite(row.get("std_score")) and row["std_score"] < 0:
            problems.append(f"{where}: std_score must not be negative")
    aggregate = data.get("aggregate")
    if not isinstance(aggregate, dict) or \
            "normalized_completion" not in aggregate:
        problems.append("aggregate.normalized_completion is required")
    else:
        if not _finite(aggregate["normalized_completion"]):
            problems.append("aggregate.normalized_completion must be a "
                            "number, not NaN or an infinity")
        if aggregate.get("negatives") not in NEGATIVE_MODES:
            problems.append(f"aggregate.negatives must be one of "
                            f"{NEGATIVE_MODES}")
    return problems


def run_benchmark(games: dict[str, GameDef], seed: int, episodes: int = 10,
                  step_cap: int = EPISODE_STEP_CAP,
                  negatives: str = "clip") -> BenchReport:
    """Random-agent benchmark over the given games (the baseline floor)."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    rows = []
    for offset, (name, game) in enumerate(sorted(games.items())):
        records = run_random(game, seed + offset, episodes=episodes,
                             step_cap=step_cap)
        scores = [r.score for r in records]
        rows.append(BenchRow(
            game=name, agent="random",
            handicaps=RANDOM_HANDICAPS.names(),
            runs=len(records),
            mean_score=float(np.mean(scores)),
            std_score=float(np.std(scores)),
            max_score=game.max_score,
        ))
    protocol = {"seed": seed, "episodes": episodes, "step_cap": step_cap}
    return BenchReport(rows=tuple(rows), protocol=protocol,
                       negatives=negatives)
