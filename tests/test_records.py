"""The records built on every command keep their dataclass behaviour under
their cheaper constructor (records.fast_init), records.LruCache evicts the
least recently used entry, rejected commands share one empty diff and one
outcome per kind, and the parser returns the outcome, rule and precondition
verdict of the eager reference."""

import dataclasses
import inspect

import pytest

from helpers import reference_parse_command
from textquest.agents.training import CANONICAL_ACTIONS
from textquest.engine import (CommandResult, Situation, _parse, execute,
                              init_state, preconditions_hold)
from textquest.env import AugmentedObservation, StepResult, ValidActionSet
from textquest.gamedefs import bundled_game_names, load_bundled
from textquest.grammar import (ActionCandidate, ParseKind, ParseOutcome,
                               Template)
from textquest.records import LruCache, fast_init
from textquest.world import Diff, ObjectNode, Snapshot, TreeChange

GAMES = bundled_game_names()


def _samples():
    game = load_bundled("mailhouse")
    state = init_state(game, 1)
    take = Template("take _", 1, ("take",))
    return {
        CommandResult: execute(state, game, game.walkthrough[0]),
        ParseOutcome: ParseOutcome(ParseKind.RESOLVED, "take", (3, 4)),
        Diff: Diff(tree=(TreeChange(3, "parent", 1, 2),)),
        StepResult: StepResult("Taken.", 1, 2, False, 3, ParseKind.RESOLVED,
                               True),
        AugmentedObservation: AugmentedObservation("a", "b", "c", "d"),
        ValidActionSet: ValidActionSet(
            (ActionCandidate(take, ("lamp",), "take lamp"),), (99,)),
        Snapshot: state.snapshot(),
        ObjectNode: ObjectNode(5, ("lamp", "lantern"), "item",
                               frozenset({"lit"}), 3, 2, "A lamp.", "Hi."),
    }


SAMPLES = _samples()


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_behave_as_frozen_dataclasses(cls):
    x = SAMPLES[cls]
    fields = dataclasses.fields(cls)
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default, p.annotation) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default, f.type) for f in fields]
    assert inspect.signature(cls).return_annotation is None
    twin = dataclasses.replace(x)
    assert twin == x and twin is not x
    if cls is not CommandResult:  # a WorldState field is unhashable
        assert hash(twin) == hash(x)
    assert repr(x) == f"{cls.__qualname__}(" + ", ".join(
        f"{f.name}={getattr(x, f.name)!r}" for f in fields) + ")"
    assert cls(**{f.name: getattr(x, f.name) for f in fields}) == x
    assert {f.name for f in fields} <= vars(x).keys()


def test_defaults_and_post_init_still_apply():
    node = ObjectNode(7, ("box",), "item", attributes=["open", "container"])
    assert node.attributes == frozenset({"open", "container"})
    assert isinstance(node.attributes, frozenset)
    assert (node.key_id, node.capacity, node.text, node.read_text) == \
        (None, None, "", None)
    assert dataclasses.replace(node, attributes={"open"}).attributes == \
        frozenset({"open"})
    assert Diff() == Diff((), (), ())
    assert ParseOutcome(ParseKind.UNRESOLVED).objects == ()


def test_fast_init_refuses_a_default_factory():
    @dataclasses.dataclass(frozen=True)
    class Bag:
        items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError):
        fast_init(Bag)


def test_lru_cache_evicts_the_least_recently_used():
    cache = LruCache(2)
    cache["a"], cache["b"] = 1, 2
    assert cache.get("a") == 1  # "a" is now the most recent
    cache["c"] = 3
    assert list(cache) == ["a", "c"] and len(cache) == 2
    assert cache.get("b") is None and cache.get("b", 0) == 0
    cache["a"] = 4
    cache["d"] = 5
    assert dict(cache) == {"a": 4, "d": 5}


@pytest.mark.parametrize("name", GAMES)
def test_rejected_commands_share_one_empty_diff(name):
    game = load_bundled(name)
    state = init_state(game, 2)
    rejected = []
    for command in game.walkthrough:
        for probe in ("xyzzy", "take xyzzy", *CANONICAL_ACTIONS):
            result = execute(state, game, probe)
            if not result.applied:
                assert result.state is state and result.reward == 0
                rejected.append(result)
        state = execute(state, game, command).state
    kinds = {r.outcome.kind for r in rejected}
    assert kinds == set(ParseKind)  # resolved ones failed a check or effect
    assert len({id(r.diff) for r in rejected}) == 1
    assert rejected[0].diff == Diff()
    for kind in (ParseKind.UNRESOLVED, ParseKind.UNPARSEABLE):
        assert len({id(r.outcome) for r in rejected
                    if r.outcome.kind is kind}) == 1


@pytest.mark.parametrize("name", GAMES)
def test_parse_of_every_walkthrough_command_matches_the_reference(name):
    game = load_bundled(name)
    rules = {rule.id: rule for rule in game.grammar}
    state = init_state(game, 4)
    for command in game.walkthrough:
        for text in (command, f"{command} xyzzy", "take " + command):
            outcome, rule, ok = _parse(Situation(state, game), text)
            assert outcome == reference_parse_command(state, game, text)
            if outcome.kind is ParseKind.RESOLVED:
                assert rule is rules[outcome.rule_id]
                assert ok == preconditions_hold(Situation(state, game),
                                                rule, outcome.objects)
            else:
                assert (rule, ok) == (None, False)
        outcome, rule, ok = _parse(Situation(state, game), command)
        assert ok, command  # every walkthrough command parses and holds
        state = execute(state, game, command).state
    assert state.done
