"""The benchmark workloads.

Each workload is a closed loop with one client: the next command is issued
only after the previous one returned. Work is split into units of identical
shape (an exploration round, a benchmark call, a training run); a run repeats
units until its time is up. A unit is a pure function of its seed, so its
digest is the same however fast the code runs; the checks compare digests.

* explore: a simulator-only agent over every bundled game with all handicaps.
  Every turn is observation -> identify_valid_actions -> uniform pick -> step
  -> save, with an occasional load of an earlier snapshot. No numpy runs.
* rollout: bench.run_benchmark, the random canonical-command agent with no
  handicaps: plain env.step -> engine.execute, no probes.
* drrn: train() with the DRRN agent on mailhouse; the numpy learner
  dominates.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field, replace

import numpy as np
from textquest import Environment, bundled_game_names, load_bundled
from textquest import bench
from textquest.agents.training import (CANONICAL_ACTIONS, FULL_HANDICAPS,
                                       TrainConfig, train)
from textquest.env import EPISODE_STEP_CAP

EXPLORE_TURN_CAP = 150  # backtracking rewinds moves, so turns are capped too
EXPLORE_BACKTRACK = 0.03
ROLLOUT_EPISODES = 2
LEARNER_GAME = "mailhouse"
LEARNER_STEPS = 200  # env steps per training unit


@dataclass
class Unit:
    """Outcome of one unit of work."""

    digest: str
    steps: int
    busy_ns: int
    turns_ns: list[int] = field(default_factory=list)
    updates: int = 0
    score: float | None = None
    problems: list[str] = field(default_factory=list)
    turn_count: int = 0
    turn_p50_us: float = 0.0
    turn_p95_us: float = 0.0

    def summarize(self) -> None:
        """Keep the turn quantiles and drop the samples, so the benchmark's
        own memory does not grow with the program's speed."""
        ordered = sorted(self.turns_ns)
        self.turn_count = len(ordered)
        self.turn_p50_us = quantile(ordered, 0.50) / 1e3
        self.turn_p95_us = quantile(ordered, 0.95) / 1e3
        self.turns_ns = []


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class StepClock:
    """Timestamps every Environment.step return, to time agent turns.

    Installed only around work whose loop lives inside the package, where a
    turn cannot be timed from the caller's side. One clock read per step.
    """

    def __init__(self) -> None:
        self.stamps: list[int] = []
        self._original = None

    def __enter__(self) -> "StepClock":
        original = Environment.__dict__["step"]
        stamps = self.stamps
        clock = time.perf_counter_ns

        def step(env, text):
            result = original(env, text)
            stamps.append(clock())
            return result

        self._original = original
        Environment.step = step
        return self

    def __exit__(self, *exc) -> None:
        Environment.step = self._original

    def take_turns(self) -> tuple[int, list[int]]:
        """Steps since the last call and the intervals between them."""
        stamps = list(self.stamps)
        self.stamps.clear()
        return len(stamps), [b - a for a, b in zip(stamps, stamps[1:])]


def _hex(parts) -> str:
    return hashlib.blake2b(repr(parts).encode("utf-8"),
                           digest_size=16).hexdigest()


# -- explore -----------------------------------------------------------------------


class Explore:
    name = "explore"
    learner = False

    def __init__(self) -> None:
        self.games = {n: load_bundled(n) for n in bundled_game_names()}

    def probe_setup(self, seed: int) -> None:
        name = min(self.games)
        Environment(self.games[name], FULL_HANDICAPS).reset(seed=seed)

    def unit(self, seed: int) -> Unit:
        """One episode per game, in a fixed order."""
        rng = random.Random(seed)
        total = Unit(digest="", steps=0, busy_ns=0)
        digests = []
        for name in sorted(self.games):
            episode = self._episode(name, rng.randrange(2 ** 31), rng)
            digests.append(episode.digest)
            total.steps += episode.steps
            total.busy_ns += episode.busy_ns
            total.turns_ns += episode.turns_ns
            total.problems += episode.problems
        total.digest = _hex(digests)
        return total

    def _episode(self, name: str, env_seed: int, rng: random.Random) -> Unit:
        clock = time.perf_counter_ns
        log = hashlib.blake2b(digest_size=16)
        out = Unit(digest="", steps=0, busy_ns=0)
        start = clock()
        cache: dict = {}
        env = Environment(self.games[name], FULL_HANDICAPS,
                          valid_action_cache=cache)
        env.reset(seed=env_seed)
        out.busy_ns += clock() - start
        archive = []
        log.update(repr((name, env_seed)).encode())
        for _ in range(EXPLORE_TURN_CAP):
            if env.done or env.moves >= EPISODE_STEP_CAP:
                break
            before = env.state_hash()
            start = clock()
            obs = env.observation()
            valid = env.identify_valid_actions()
            first = clock() - start
            if env.state_hash() != before:
                out.problems.append(f"{name}: identify_valid_actions "
                                    "changed the state hash")
            start = clock()
            menu = valid.surfaces if len(valid) else CANONICAL_ACTIONS
            action = menu[rng.randrange(len(menu))]
            result = env.step(action)
            snapshot = env.save()
            archive.append(snapshot)
            rewind = None
            if len(archive) > 1 and rng.random() < EXPLORE_BACKTRACK:
                rewind = rng.randrange(len(archive) - 1)
                env.load(archive[rewind])
            turn = first + clock() - start
            out.turns_ns.append(turn)
            out.busy_ns += turn
            out.steps += 1
            log.update(repr((obs.channels(), valid.surfaces,
                             valid.diff_hashes, action, result, rewind)
                            ).encode())
            log.update(snapshot.data)
        out.digest = log.hexdigest()
        return out


# -- rollout -----------------------------------------------------------------------


class Rollout:
    name = "rollout"
    learner = False

    def __init__(self) -> None:
        self.games = {n: load_bundled(n) for n in bundled_game_names()}
        self.clock = StepClock()

    def probe_setup(self, seed: int) -> None:
        pass  # set-up is the imports and the game loads in __init__

    def unit(self, seed: int) -> Unit:
        with self.clock:
            start = time.perf_counter_ns()
            report = bench.run_benchmark(self.games, seed,
                                         episodes=ROLLOUT_EPISODES)
            busy = time.perf_counter_ns() - start
        steps, turns = self.clock.take_turns()
        return Unit(digest=_hex(report.to_json()), steps=steps,
                    busy_ns=busy, turns_ns=turns)


# -- drrn --------------------------------------------------------------------------


class Drrn:
    name = "drrn"
    learner = True

    def __init__(self) -> None:
        self.game = load_bundled(LEARNER_GAME)
        self.config = TrainConfig(agent="drrn", max_env_steps=LEARNER_STEPS)
        self.clock = StepClock()

    def probe_setup(self, seed: int) -> None:
        # set-up ends when the first step has been taken
        train(self.game, replace(self.config, max_env_steps=1), seed)

    def unit(self, seed: int) -> Unit:
        with self.clock:
            start = time.perf_counter_ns()
            result = train(self.game, self.config, seed)
            busy = time.perf_counter_ns() - start
        _, turns = self.clock.take_turns()
        params = hashlib.blake2b(digest_size=16)
        for key in sorted(result.params):
            params.update(key.encode())
            params.update(result.params[key].tobytes())
        digest = _hex((result.curve_text(), result.env_steps,
                       result.updates, params.hexdigest()))
        problems = [f"non-finite parameter {key}"
                    for key, value in sorted(result.params.items())
                    if not np.isfinite(value).all()]
        return Unit(digest=digest, steps=result.env_steps, busy_ns=busy,
                    turns_ns=turns, updates=result.updates,
                    score=result.rolling_mean(), problems=problems)


def make(name: str):
    if name == "explore":
        return Explore()
    if name == "rollout":
        return Rollout()
    if name == "drrn":
        return Drrn()
    raise ValueError(f"unknown workload '{name}'")
