"""Command execution: parsing, preconditions, effects, scoring, purity."""

import pytest

from textquest.engine import (MSG_CANT, MSG_DARKNESS, MSG_UNPARSEABLE,
                              MSG_UNRESOLVED, execute, init_state, is_dark,
                              player_room, render_inventory, render_room,
                              visible_objects)
from textquest.gamedefs import parse_game
from textquest.grammar import ParseKind
from textquest.world import Diff


def play(state, game, *commands):
    """Run commands in order, returning the last result."""
    result = None
    for cmd in commands:
        result = execute(state, game, cmd)
        state = result.state
    return result


# A two-room game with a locked chest, a door, a dark cellar, and a lamp.
MANOR = {
    "format_version": 1,
    "title": "manor",
    "max_score": 3,
    "start_room": 1,
    "objects": [
        {"id": 1, "names": ["hall"], "kind": "room", "text": "A dusty hall."},
        {"id": 2, "names": ["cellar"], "kind": "room", "text": "Cold down here."},
        {"id": 10, "names": ["player"], "kind": "player", "parent": 1},
        {"id": 11, "names": ["chest"], "kind": "item", "parent": 1,
         "attributes": ["container", "openable", "locked", "fixed"],
         "key_id": 12},
        {"id": 12, "names": ["key"], "kind": "item", "parent": 1,
         "attributes": ["takeable"]},
        {"id": 13, "names": ["coin"], "kind": "item", "parent": 11,
         "attributes": ["takeable"]},
        {"id": 14, "names": ["lamp"], "kind": "item", "parent": 1,
         "attributes": ["takeable", "lightsource"]},
        {"id": 15, "names": ["door"], "kind": "item", "parent": 1,
         "attributes": ["openable", "fixed"]},
        {"id": 16, "names": ["plaque"], "kind": "scenery", "parent": 1,
         "attributes": ["fixed", "readable"],
         "read_text": "EST. 1912"},
        {"id": 17, "names": ["sack"], "kind": "item", "parent": 2,
         "attributes": ["container", "takeable"], "capacity": 1},
        {"id": 18, "names": ["pouch"], "kind": "item", "parent": 1,
         "attributes": ["container", "takeable"], "capacity": 1},
    ],
    "exits": {
        "1": {"down": {"to": 2, "requires_open": 15}},
        "2": {"up": 1},
    },
    "dark_rooms": [2],
    "traits": ["darkness", "lock_and_key"],
    "grammar": [
        {"id": "look", "pattern": "look",
         "effect": {"kind": "emit-text", "source": "room"}},
        {"id": "inventory", "pattern": "inventory",
         "effect": {"kind": "emit-text", "source": "inventory"}},
        {"id": "go-down", "pattern": "down",
         "effect": {"kind": "move-player", "direction": "down"}},
        {"id": "go-up", "pattern": "up",
         "effect": {"kind": "move-player", "direction": "up"}},
        {"id": "open", "pattern": "open OBJ",
         "effect": {"kind": "set-attribute", "slot": 1, "attr": "open"}},
        {"id": "close", "pattern": "close OBJ",
         "effect": {"kind": "clear-attribute", "slot": 1, "attr": "open"}},
        {"id": "take", "pattern": "take OBJ",
         "preconditions": [{"kind": "not_dark"}],
         "effect": {"kind": "reparent-to-player", "slot": 1}},
        {"id": "take-all", "pattern": "take all",
         "preconditions": [{"kind": "not_dark"}],
         "effect": {"kind": "reparent-to-player"}},
        {"id": "drop", "pattern": "drop OBJ",
         "effect": {"kind": "reparent-to-floor", "slot": 1}},
        {"id": "put", "pattern": "put OBJ in OBJ",
         "effect": {"kind": "put-in", "slot": 1, "slot2": 2}},
        {"id": "unlock", "pattern": "unlock OBJ with OBJ",
         "effect": {"kind": "unlock-with", "slot": 1, "slot2": 2}},
        {"id": "light", "pattern": "light OBJ",
         "effect": {"kind": "toggle-light", "slot": 1}},
        {"id": "read", "pattern": "read OBJ",
         "preconditions": [{"kind": "has_attr", "slot": 1,
                            "attr": "readable"},
                           {"kind": "not_dark"}],
         "effect": {"kind": "emit-text", "source": "object_read_text",
                    "slot": 1}},
        # two rules sharing a pattern: precedence is authored order among
        # rules whose preconditions hold
        {"id": "rub-carried", "pattern": "rub OBJ",
         "preconditions": [{"kind": "carried", "slot": 1}],
         "effect": {"kind": "emit-text", "source": "literal",
                    "text": "It gleams."}},
        {"id": "rub-any", "pattern": "rub OBJ",
         "effect": {"kind": "emit-text", "source": "literal",
                    "text": "Dusty."}},
    ],
    "score_rules": [
        {"trigger": {"kind": "acquire", "obj": 13}, "points": 2},
        {"trigger": {"kind": "enter_room", "room": 2}, "points": 1,
         "ends": True},
        {"trigger": {"kind": "enter_room", "room": 1}, "points": 0},
    ],
    "walkthrough": ["take key", "unlock chest with key", "open chest",
                    "take coin", "take lamp", "light lamp", "open door",
                    "down"],
}


@pytest.fixture
def manor():
    return parse_game(MANOR)


@pytest.fixture
def start(manor):
    return init_state(manor, seed=0)


# -- parsing -------------------------------------------------------------------------


def test_parse_kinds(start, manor):
    assert execute(start, manor, "frob the wug").outcome.kind is \
        ParseKind.UNPARSEABLE
    assert execute(start, manor, "take unicorn").outcome.kind is \
        ParseKind.UNRESOLVED
    out = execute(start, manor, "take key").outcome
    assert out.kind is ParseKind.RESOLVED
    assert out.rule_id == "take" and out.objects == (12,)


def test_parse_hidden_noun_is_unresolved(start, manor):
    # the coin exists but sits inside the locked chest
    assert execute(start, manor, "take coin").outcome.kind is \
        ParseKind.UNRESOLVED


def test_parse_is_deterministic_and_pure(start, manor):
    before = start.snapshot().data
    a = execute(start, manor, "rub key").outcome
    b = execute(start, manor, "rub key").outcome
    assert a == b
    assert start.snapshot().data == before


def test_parse_precedence_prefers_holding_preconditions(start, manor):
    # key not carried: the carried-only rule is skipped
    assert execute(start, manor, "rub key").observation == "Dusty."
    carrying = execute(start, manor, "take key").state
    assert execute(carrying, manor, "rub key").observation == "It gleams."


def test_unparseable_and_unresolved_messages(start, manor):
    assert execute(start, manor, "sing").observation == MSG_UNPARSEABLE
    assert execute(start, manor, "take unicorn").observation == MSG_UNRESOLVED


# -- effects -------------------------------------------------------------------------


def test_take_and_drop(start, manor):
    took = execute(start, manor, "take key")
    assert took.applied and took.observation == "Taken."
    assert took.state.tree.parent[12] == 10
    assert len(took.diff.tree) == 1
    dropped = execute(took.state, manor, "drop key")
    assert dropped.observation == "Dropped."
    assert dropped.state.tree.parent[12] == 1


def test_take_rejections(start, manor):
    assert not execute(start, manor, "take chest").applied  # not takeable
    carrying = execute(start, manor, "take key").state
    again = execute(carrying, manor, "take key")
    assert not again.applied and "already" in again.observation


def test_take_all_sweeps_takeables(start, manor):
    result = execute(start, manor, "take all")
    assert result.applied
    assert result.state.tree.parent[12] == 10  # key
    assert result.state.tree.parent[14] == 10  # lamp
    assert result.state.tree.parent[11] == 1   # chest stays
    assert "key: Taken." in result.observation
    assert "lamp: Taken." in result.observation


def test_take_all_stops_at_the_inventory_limit():
    manor = parse_game({**MANOR, "inventory_limit": 2})
    holding_key = execute(init_state(manor, 0), manor, "take key").state
    result = execute(holding_key, manor, "take all")
    assert result.applied
    assert result.observation == \
        "lamp: Taken. You're carrying too much already."
    assert holding_key.tree.children(10) == [12]
    assert result.state.tree.children(10) == [12, 14]
    assert result.state.tree.parent[18] == 1  # the pouch stays behind


def test_open_locked_then_unlock(start, manor):
    refused = execute(start, manor, "open chest")
    assert not refused.applied and "locked" in refused.observation
    state = execute(start, manor, "take key").state
    wrong = execute(state, manor, "unlock chest with chest")
    assert not wrong.applied and "doesn't fit" in wrong.observation
    unlocked = execute(state, manor, "unlock chest with key")
    assert unlocked.applied
    assert unlocked.observation == "You unlock the chest with the key."
    opened = execute(unlocked.state, manor, "open chest")
    assert opened.applied
    assert opened.observation == "Opening the chest reveals a coin."


def test_open_and_close_round_trip(start, manor):
    opened = execute(start, manor, "open door")
    assert opened.applied and opened.observation == "You open the door."
    reopened = execute(opened.state, manor, "open door")
    assert not reopened.applied and "already open" in reopened.observation
    closed = execute(opened.state, manor, "close door")
    assert closed.applied and closed.observation == "You close the door."
    assert not execute(start, manor, "close door").applied


def test_move_player_through_door(start, manor):
    blocked = execute(start, manor, "down")
    assert not blocked.applied and "closed" in blocked.observation
    assert not execute(start, manor, "up").applied  # no exit that way
    opened = execute(start, manor, "open door").state
    descended = execute(opened, manor, "down")
    assert descended.applied
    assert player_room(descended.state) == 2


def test_put_in_rules(start, manor):
    state = play(start, manor, "take key", "take lamp", "take pouch").state
    ok = execute(state, manor, "put key in pouch")
    assert ok.applied and ok.observation == "You put the key in the pouch."
    full = execute(ok.state, manor, "put lamp in pouch")
    assert not full.applied and "no more room" in full.observation
    itself = execute(state, manor, "put pouch in pouch")
    assert not itself.applied and "inside itself" in itself.observation
    floor = execute(state, manor, "put chest in pouch")
    assert not floor.applied and "aren't carrying" in floor.observation


def test_put_in_closed_container(start, manor):
    state = execute(start, manor, "take key").state
    refused = execute(state, manor, "put key in chest")
    assert not refused.applied and "closed" in refused.observation


def test_emit_text_read(start, manor):
    assert execute(start, manor, "read plaque").observation == "EST. 1912"
    refused = execute(start, manor, "read key")
    assert not refused.applied and refused.observation == MSG_CANT


def test_toggle_light(start, manor):
    lit = execute(start, manor, "light lamp")
    assert lit.applied and lit.observation == "You turn on the lamp."
    unlit = execute(lit.state, manor, "light lamp")
    assert unlit.applied and unlit.observation == "You turn off the lamp."
    assert not execute(start, manor, "light key").applied


# -- darkness ------------------------------------------------------------------------


def test_darkness_blocks_sight(start, manor):
    below = play(start, manor, "open door", "down").state
    assert is_dark(below, manor)
    assert render_room(below, manor) == MSG_DARKNESS
    assert 17 not in visible_objects(below, manor)  # sack invisible
    grab = execute(below, manor, "take sack")
    assert not grab.applied and grab.observation == MSG_UNRESOLVED


def test_carried_lit_lamp_defeats_darkness(start, manor):
    below = play(start, manor, "take lamp", "light lamp", "open door",
                 "down").state
    assert not is_dark(below, manor)
    assert 17 in visible_objects(below, manor)
    assert "sack" in render_room(below, manor)


def test_light_inside_closed_container_does_not_count(start, manor):
    state = play(start, manor, "take key", "light lamp",
                 "unlock chest with key", "open chest", "take lamp",
                 "put lamp in chest", "close chest", "open door",
                 "down").state
    assert is_dark(state, manor)
    # reopening the chest lets the glow out (chest is in the other room,
    # so carry the coin case: here just verify the closed case held)


def test_carried_items_visible_in_dark(start, manor):
    below = play(start, manor, "take key", "open door", "down").state
    assert is_dark(below, manor)
    assert 12 in visible_objects(below, manor)


# -- scoring -------------------------------------------------------------------------


def test_acquire_rule_fires_once(start, manor):
    state = play(start, manor, "take key", "unlock chest with key",
                 "open chest").state
    got = execute(state, manor, "take coin")
    assert got.reward == 2 and got.state.score == 2
    assert "gone up by 2 points" in got.observation
    # dropping and retaking must not re-award
    cycled = play(got.state, manor, "drop coin", "take coin")
    assert cycled.reward == 0 and cycled.state.score == 2


def test_enter_room_edge_trigger_and_ends(start, manor):
    below = play(start, manor, "open door", "down")
    assert below.reward == 1
    assert below.state.done
    assert "*** The game has ended. ***" in below.observation


def test_repeatable_rule_fires_only_on_its_edges():
    manor = parse_game({**MANOR, "max_score": 2, "score_rules": [
        MANOR["score_rules"][0],
        {"trigger": {"kind": "acquire", "obj": 12}, "points": -1,
         "once": False}]})
    state = init_state(manor, 0)
    rewards = []
    for command in ("take key", "look", "inventory", "drop key",
                    "take key", "look"):
        result = execute(state, manor, command)
        rewards.append(result.reward)
        state = result.state
    assert rewards == [-1, 0, 0, 0, -1, 0]


def test_zero_point_rule_is_silent(start, manor):
    # entering room 1 is where the player starts: never an edge, no notice
    state = play(start, manor, "open door", "down").state
    back = execute(state, manor, "up")
    assert back.reward == 0
    assert "score" not in back.observation


def test_score_notices_use_singular_point(start, manor):
    below = play(start, manor, "open door", "down")
    assert "gone up by 1 point." in below.observation


# -- accounting and purity -----------------------------------------------------------


def test_moves_counts_only_applied_commands(start, manor):
    state = start
    for cmd, counts in [("sing", False), ("take unicorn", False),
                        ("take chest", False), ("take key", True),
                        ("look", True)]:
        before = state.moves
        result = execute(state, manor, cmd)
        state = result.state
        assert result.applied is counts
        assert state.moves == before + (1 if counts else 0)


def test_execute_never_mutates_input(start, manor):
    before = start.snapshot().data
    for cmd in ("take key", "open door", "look", "sing", "take unicorn",
                "take all"):
        execute(start, manor, cmd)
        assert start.snapshot().data == before


def test_rejected_commands_return_same_state_object(start, manor):
    result = execute(start, manor, "sing")
    assert result.state is start
    assert result.diff == Diff() and result.reward == 0


def test_replay_determinism(start, manor):
    a = play(init_state(manor, seed=9), manor, *MANOR["walkthrough"])
    b = play(init_state(manor, seed=9), manor, *MANOR["walkthrough"])
    assert a.state.snapshot().data == b.state.snapshot().data
    assert a.observation == b.observation


# -- rendering and synonyms ----------------------------------------------------------


def test_render_room_lists_contents(start, manor):
    text = render_room(start, manor)
    assert text.startswith("Hall.")
    assert "There is a chest here." in text
    assert "plaque" not in text  # scenery is not listed
    assert "coin" not in text    # closed chest hides contents


def test_render_inventory(start, manor):
    assert render_inventory(start, manor) == "You are empty handed."
    state = play(start, manor, "take key", "take lamp").state
    assert render_inventory(state, manor) == \
        "You are carrying a key and a lamp."


def test_synonyms_resolve(tinybox):
    state = init_state(tinybox)
    result = execute(state, tinybox, "open crate")
    assert result.applied
    assert result.state.tree.nodes[11].has("open")


def test_set_global_accumulates(tinybox):
    state = init_state(tinybox)
    one = execute(state, tinybox, "strike gong")
    two = execute(one.state, tinybox, "strike gong")
    assert one.observation == "Bonnng."
    assert one.state.globals["gong_strikes"] == 1
    assert two.state.globals["gong_strikes"] == 2
    assert len(two.diff.globals) == 1


def test_tinybox_walkthrough_scores_max(tinybox):
    state = init_state(tinybox)
    result = play(state, tinybox, *tinybox.walkthrough)
    assert result.state.score == tinybox.max_score
    assert result.state.done
