"""Episode-facing environment: reset/step, handicaps, valid-action detection.

The environment wraps the pure engine with episode bookkeeping and gates the
privileged operations (saving, template access, object-tree access,
world-change probing) behind explicit handicap flags, so an experiment always
declares which shortcuts its agent consumed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import engine
from .gamedefs import GameDef
from .grammar import (ActionCandidate, ParseKind, Template, Vocabulary,
                      enumerate_candidates)
from .world import (ObjectNode, Snapshot, SnapshotError, WorldState,
                    state_diff, universe_node)

EPISODE_STEP_CAP = 100  # valid steps per episode under the benchmark protocol


class CapabilityError(Exception):
    """An operation behind a disabled handicap flag was requested."""


class EpisodeDoneError(Exception):
    """step() was called on a finished episode."""


@dataclass(frozen=True)
class Handicaps:
    """Declared shortcuts. Benchmark reports must disclose these.

    valid_action_detection implies load_save: probing actions is impossible
    without the ability to save and restore.
    """

    fixed_seed: bool = True
    load_save: bool = True
    templates_vocab: bool = True
    object_tree: bool = True
    valid_action_detection: bool = True

    def __post_init__(self) -> None:
        if self.valid_action_detection and not self.load_save:
            raise ValueError(
                "valid_action_detection requires load_save")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name in (
            "fixed_seed", "load_save", "templates_vocab", "object_tree",
            "valid_action_detection") if getattr(self, name))


NO_HANDICAPS = Handicaps(False, False, False, False, False)


@dataclass(frozen=True)
class AugmentedObservation:
    """The four text channels an agent encodes."""

    narrative: str
    inventory: str
    description: str
    prev_action: str

    def channels(self) -> tuple[str, str, str, str]:
        return (self.narrative, self.inventory, self.description,
                self.prev_action)


@dataclass(frozen=True)
class StepResult:
    observation: str
    reward: int
    score: int
    done: bool
    moves: int
    parse_outcome: ParseKind
    world_changed: bool


@dataclass(frozen=True)
class ValidActionSet:
    """Actions that changed the object tree when probed, with their diff
    hashes (equal hashes mean interchangeable actions)."""

    candidates: tuple[ActionCandidate, ...]
    diff_hashes: tuple[int, ...]

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(c.surface for c in self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


def world_changed(before: WorldState, after: WorldState) -> bool:
    """Tree-channel detector: reparents and attribute flips only.

    This is deliberately blind to global counters; an action that only sets a
    flag (ringing a bell) reads as unchanged. Use world_changed_exact when
    that false negative matters.
    """
    return bool(state_diff(before, after).tree)


def world_changed_exact(before: WorldState, after: WorldState) -> bool:
    """Any-channel detector except the moves counter: tree, globals, score,
    or done. The moves counter advances on every accepted command, so it
    cannot distinguish world changes from passing time."""
    diff = state_diff(before, after)
    if diff.tree or diff.globals:
        return True
    return any(change.field in ("score", "done") for change in diff.status)


def _static_table(nodes: Iterable[ObjectNode]
                  ) -> dict[int, tuple[tuple[str, ...], str]]:
    """What a game fixes about its objects: id -> (names, kind)."""
    return {node.id: (node.names, node.kind) for node in nodes}


class Environment:
    """One playable episode stream over a fixed game definition."""

    def __init__(self, game: GameDef, handicaps: Handicaps = Handicaps(),
                 valid_action_cache: dict | None = None) -> None:
        self.game = game
        self.handicaps = handicaps
        self._templates = game.templates()
        self._state: WorldState | None = None
        self._narrative = ""
        self._prev_action = ""
        self._seed: int | None = None
        self._cache = valid_action_cache if valid_action_cache is not None \
            else {}

    # -- gating ---------------------------------------------------------------

    def _require(self, flag: str) -> None:
        if not getattr(self.handicaps, flag):
            raise CapabilityError(f"operation requires the '{flag}' handicap")

    def _require_started(self) -> WorldState:
        if self._state is None:
            raise RuntimeError("call reset() before interacting")
        return self._state

    # -- episode control --------------------------------------------------------

    def reset(self, seed: int | None = None) -> tuple[AugmentedObservation,
                                                      dict]:
        """Start a fresh episode. Passing an explicit seed requires the
        fixed_seed handicap; otherwise the seed comes from OS entropy."""
        if seed is not None:
            self._require("fixed_seed")
            self._seed = seed
        else:
            self._seed = int.from_bytes(os.urandom(8), "little") >> 1
        self._state = engine.init_state(self.game, seed=self._seed)
        self._narrative = self.game.intro_text
        self._prev_action = ""
        info = {
            "seed": self._seed,
            "handicaps": self.handicaps.names(),
            "max_score": self.game.max_score,
            "title": self.game.title,
        }
        return self.observation(), info

    def step(self, text: str) -> StepResult:
        state = self._require_started()
        if state.done:
            raise EpisodeDoneError("the episode has ended; call reset()")
        result = engine.execute(state, self.game, text)
        self._state = result.state
        self._narrative = result.observation
        self._prev_action = text
        return StepResult(
            observation=result.observation,
            reward=result.reward,
            score=result.state.score,
            done=result.state.done,
            moves=result.state.moves,
            parse_outcome=result.outcome.kind,
            world_changed=bool(result.diff.tree),
        )

    # -- state access -------------------------------------------------------------

    @property
    def state(self) -> WorldState:
        """Live state; treat as read-only."""
        return self._require_started()

    @property
    def score(self) -> int:
        return self._require_started().score

    @property
    def moves(self) -> int:
        return self._require_started().moves

    @property
    def done(self) -> bool:
        return self._require_started().done

    def state_hash(self) -> int:
        return self._require_started().state_hash()

    # -- handicapped capabilities ---------------------------------------------------

    def save(self) -> Snapshot:
        self._require("load_save")
        return self._require_started().snapshot()

    @cached_property
    def _game_table(self) -> dict[int, tuple[tuple[str, ...], str]]:
        return _static_table((universe_node(), *self.game.objects))

    def load(self, snapshot: Snapshot) -> None:
        """Restore a snapshot taken in this game.

        Raises SnapshotError for bytes that do not decode, and for a
        snapshot whose static object table (ids, names, kinds) differs from
        this environment's game, such as one saved in another game.
        """
        self._require("load_save")
        state = snapshot.restore()
        if _static_table(state.tree.nodes.values()) != self._game_table:
            raise SnapshotError(
                f"snapshot does not belong to game {self.game.title!r}")
        self._state = state
        self._narrative = engine.render_room(self._state, self.game)
        self._prev_action = ""

    def templates(self) -> tuple[Template, ...]:
        self._require("templates_vocab")
        return self._templates

    def vocabulary(self) -> Vocabulary:
        self._require("templates_vocab")
        return self.game.vocabulary()

    def interactive_objects(self) -> list[str]:
        """Canonical names of objects the agent could mention.

        With the object_tree handicap this reads the world tree; without it,
        nouns are extracted from the current narrative text."""
        state = self._require_started()
        if self.handicaps.object_tree:
            names = {state.tree.nodes[obj].name
                     for obj in engine.visible_objects(state, self.game)}
            return sorted(names)
        return engine.extract_nouns(self._narrative, self.game)

    def observation(self) -> AugmentedObservation:
        """Current four-channel observation.

        The inventory and description channels are gathered by issuing
        "inventory" and "look" against a scratch copy of the state, so the
        live episode never sees the probe; they need load_save."""
        state = self._require_started()
        if self.handicaps.load_save:
            inventory = engine.execute(state, self.game,
                                       "inventory").observation
            description = engine.execute(state, self.game,
                                         "look").observation
        else:
            inventory = ""
            description = ""
        return AugmentedObservation(
            narrative=self._narrative,
            inventory=inventory,
            description=description,
            prev_action=self._prev_action,
        )

    def gather_augmented_observation(self) -> AugmentedObservation:
        self._require("load_save")
        return self.observation()

    def identify_valid_actions(self, objects: list[str] | None = None,
                               dedup: bool = False) -> ValidActionSet:
        """Probe every template filling and keep those that changed the tree.

        Probes run against scratch copies, so the live state hash is
        identical before and after. Fillers default to interactive_objects().
        Results are cached per (situation, fillers) because validity depends
        on neither the move counter nor the score.
        """
        self._require("valid_action_detection")
        state = self._require_started()
        if state.done:
            return ValidActionSet((), ())
        if objects is None:
            objects = self.interactive_objects()
        key = (state.situation_hash(), tuple(objects), dedup)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        kept: list[ActionCandidate] = []
        hashes: list[int] = []
        seen_diffs: dict[int, str] = {}
        for cand in enumerate_candidates(self._templates, objects):
            result = engine.execute(state, self.game, cand.surface)
            if not result.diff.tree:
                continue
            dh = result.diff.diff_hash()
            if dedup:
                if dh in seen_diffs:
                    continue
                seen_diffs[dh] = cand.surface
            kept.append(cand)
            hashes.append(dh)
        out = ValidActionSet(tuple(kept), tuple(hashes))
        self._cache[key] = out
        return out


# -- transcripts -----------------------------------------------------------------


def augmented_text(obs: AugmentedObservation) -> str:
    """Single-line observation text with the extra channels appended."""
    if obs.inventory or obs.description:
        return f"{obs.narrative} Inv: {obs.inventory} Desc: {obs.description}"
    return obs.narrative


def format_transcript_block(t: int, observation: str, action: str,
                            reward: int, score: int, done: bool) -> str:
    """One step in the canonical transcript layout (UTF-8, LF endings)."""
    return (f"Obs{t}: {observation}\n"
            f"Action{t}: {action}\n"
            f"Reward{t}: {reward}, Score {score}, Done {done}\n")


# -- walkthrough verification ---------------------------------------------------


@dataclass(frozen=True)
class WalkthroughReport:
    title: str
    steps: int
    rewards: tuple[int, ...]
    final_score: int
    max_score: int
    done: bool
    first_failure: int | None
    failure_command: str | None
    steps_per_reward: float | None

    @property
    def success(self) -> bool:
        return (self.first_failure is None and self.done
                and self.final_score == self.max_score)

    def summary(self) -> str:
        if self.success:
            spr = "n/a" if self.steps_per_reward is None else \
                f"{self.steps_per_reward:.1f}"
            return (f"{self.title}: ok, {self.steps} steps, score "
                    f"{self.final_score}/{self.max_score}, "
                    f"steps-per-reward {spr}")
        if self.first_failure is not None:
            return (f"{self.title}: FAILED at step {self.first_failure} "
                    f"('{self.failure_command}')")
        return (f"{self.title}: FAILED, finished with score "
                f"{self.final_score}/{self.max_score}, done={self.done}")


def verify_walkthrough(game: GameDef, seed: int = 0) -> WalkthroughReport:
    """Replay the authored walkthrough and check it plays to completion."""
    env = Environment(game)
    env.reset(seed=seed)
    rewards: list[int] = []
    first_failure: int | None = None
    failure_command: str | None = None
    for i, command in enumerate(game.walkthrough):
        if env.done:
            first_failure, failure_command = i, command
            break
        before = env.moves
        result = env.step(command)
        if result.moves == before:
            first_failure, failure_command = i, command
            break
        rewards.append(result.reward)
    events = sum(1 for r in rewards if r != 0)
    spr = (len(rewards) / events) if events else None
    return WalkthroughReport(
        title=game.title,
        steps=len(rewards),
        rewards=tuple(rewards),
        final_score=env.score,
        max_score=game.max_score,
        done=env.done,
        first_failure=first_failure,
        failure_command=failure_command,
        steps_per_reward=spr,
    )
