"""The static probe filter (engine.may_edit_tree) is sound: a filling it
drops never edits the tree in any state that play reaches. The fixture game
has one rule per static fact the filter reads (passages, static attributes
in preconditions and in what effects need, key ids, container-ness) and
rules whose preconditions read attributes that other effects change."""

import random

import pytest

from textquest.engine import Situation, execute, may_edit_tree
from textquest.env import Environment
from textquest.gamedefs import parse_game
from textquest.grammar import enumerate_candidates


def _rule(rule_id, pattern, effect, *preconditions):
    return {"id": rule_id, "pattern": pattern, "effect": effect,
            "preconditions": list(preconditions)}


def _slot(kind, **args):
    return {"kind": kind, "slot": 1, **args}


VAULT = {
    "format_version": 1,
    "title": "vault",
    "max_score": 1,
    "start_room": 1,
    "objects": [
        {"id": 1, "names": ["hall"], "kind": "room"},
        {"id": 2, "names": ["vault"], "kind": "room"},
        {"id": 10, "names": ["player"], "kind": "player", "parent": 1},
        {"id": 11, "names": ["chest"], "kind": "item", "parent": 1,
         "attributes": ["container", "openable", "locked", "fixed"],
         "key_id": 12, "capacity": 2},
        {"id": 12, "names": ["key"], "kind": "item", "parent": 1,
         "attributes": ["takeable"]},
        {"id": 13, "names": ["coin"], "kind": "item", "parent": 1,
         "attributes": ["takeable"]},
        {"id": 14, "names": ["statue"], "kind": "item", "parent": 1,
         "attributes": ["fixed"]},
        {"id": 15, "names": ["lamp"], "kind": "item", "parent": 2,
         "attributes": ["takeable", "lightsource"]},
        {"id": 16, "names": ["rock"], "kind": "item", "parent": 2},
        {"id": 17, "names": ["apple"], "kind": "item", "parent": 1,
         "attributes": ["takeable", "edible"]},
        {"id": 18, "names": ["note"], "kind": "item", "parent": 1,
         "attributes": ["takeable"]},
    ],
    "exits": {"1": {"north": 2}, "2": {"south": 1}},
    "grammar": [
        _rule("look", "look", {"kind": "emit-text", "source": "room"}),
        *(_rule(d, d, {"kind": "move-player", "direction": d})
          for d in ("north", "south", "east")),
        _rule("take", "take OBJ", _slot("reparent-to-player")),
        _rule("drop", "drop OBJ", _slot("reparent-to-floor")),
        _rule("open", "open OBJ", _slot("set-attribute", attr="open")),
        _rule("close", "close OBJ", _slot("clear-attribute", attr="open"),
              _slot("has_attr", attr="open")),
        _rule("unlock", "unlock OBJ with OBJ",
              _slot("unlock-with", slot2=2)),
        _rule("pick", "pick OBJ with OBJ",
              {"kind": "reparent-to-floor", "slot": 2},
              _slot("key_matches", slot2=2)),
        # lit, edible and readable are each changed by one effect kind
        # only, and a precondition of another rule reads them
        _rule("switch", "switch OBJ", _slot("toggle-light")),
        _rule("wave", "wave OBJ", _slot("reparent-to-floor"),
              _slot("has_attr", attr="lit")),
        _rule("spoil", "spoil OBJ", _slot("clear-attribute", attr="edible")),
        _rule("feed", "feed OBJ", _slot("reparent-to-floor"),
              _slot("lacks_attr", attr="edible")),
        _rule("write", "write OBJ", _slot("set-attribute", attr="readable")),
        _rule("toss", "toss OBJ", _slot("reparent-to-floor"),
              _slot("has_attr", attr="readable")),
        _rule("put", "put OBJ in OBJ", _slot("put-in", slot2=2)),
        _rule("push", "push OBJ", _slot("reparent-to-floor"),
              _slot("has_attr", attr="fixed")),
        _rule("eat", "eat OBJ", _slot("reparent-to-floor"),
              _slot("lacks_attr", attr="takeable")),
    ],
    "score_rules": [
        {"trigger": {"kind": "enter_room", "room": 2}, "points": 1},
    ],
}

# each static fact rules these out (east: no passage; the statue and the
# rock are never takeable, openable, a light or a container; the coin is not
# the chest's key; the coin is takeable and not fixed)
DROPPED = ("east", "take statue", "open rock", "switch rock",
           "put coin in rock", "unlock chest with coin",
           "pick chest with coin", "push coin", "eat coin")
# the filter keeps these: what they need is either static and holds, or
# may change with play (open, lit, locked, edible and readable are changed
# by some effect, and being carried by moves)
KEPT = ("north", "take coin", "open chest", "close chest", "switch lamp",
        "wave lamp", "feed apple", "toss note", "unlock chest with key",
        "pick chest with key", "put coin in chest", "push statue",
        "drop coin")


def vault():
    return parse_game(VAULT)


def test_each_static_fact_drops_fillings():
    game = vault()
    assert game.static_attrs == {"container", "fixed", "lightsource",
                                 "openable", "takeable"}
    assert not any(may_edit_tree(game, text) for text in DROPPED)
    assert all(may_edit_tree(game, text) for text in KEPT)


@pytest.mark.parametrize("seed", range(4))
def test_dropped_fillings_never_edit_the_tree(seed):
    game = vault()
    names = sorted({n for obj in game.objects for n in obj.names})
    fillings = [c.surface for c in enumerate_candidates(
        game.templates(), names + ["xyzzy"])]
    dropped = [text for text in fillings if not may_edit_tree(game, text)]
    assert set(DROPPED) <= set(dropped) and not set(KEPT) & set(dropped)
    rng = random.Random(seed)
    env = Environment(game)
    env.reset(seed=seed)
    saved, edited = [], set()
    for _ in range(150):
        ctx = Situation(env.state, game)
        for text in dropped:
            assert not execute(env.state, game, text, ctx).diff.tree, text
        valid = [text for text in fillings
                 if execute(env.state, game, text, ctx).diff.tree]
        edited.update(valid)
        env.step(rng.choice(valid or ["look"]))
        saved.append(env.save())
        if rng.random() < 0.1:
            env.load(rng.choice(saved))
    # the walks reach the states where a changed attribute lets these edit
    assert {"open chest", "close chest", "wave lamp", "feed apple",
            "toss note"} <= edited
