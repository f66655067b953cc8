"""Copies share immutable object nodes and what depends only on one state
is computed once: purity of execute, node immutability, copy at the first
tree edit only, shared Situations, sweeps that probe only fillings that can
change the tree, and the head-indexed parser, channel-skipping diff and
cached-record encoder against their plain references in tests/helpers.py."""

import dataclasses
import hashlib
import itertools
import random

import pytest

from conftest import tinybox_dict
from helpers import (reference_encode, reference_parse_command,
                     reference_state_diff)
from textquest import engine
from textquest.engine import (EngineError, Situation, execute,
                              extract_nouns, init_state, preconditions_hold,
                              visible_objects)
from textquest.env import Environment
from textquest.gamedefs import bundled_game_names, load_bundled, parse_game
from textquest.grammar import (SLOT, ParseKind, enumerate_candidates,
                               tokenize)
from textquest.world import (ATTRIBUTES, ObjectNode, Snapshot, TreeError,
                             WorldState, state_diff)

GAMES = bundled_game_names()
UNKNOWN_WORDS = ("xyzzy", "frob", "")


def headbox():
    """tinybox plus rules that stress the head index and the sweep filter:
    a head ("kick") shared by an emit-text and a tree rule, an OBJ-led tree
    rule and an OBJ-led text rule, text-only heads ("examine", "ring"), an
    action_pattern score rule on "look" and a trigger that reads the
    `_fired:1` latch that rule sets."""
    data = tinybox_dict()
    data["max_score"] = 3
    data["grammar"] += [
        {"id": "kick-fixed", "pattern": "kick OBJ",
         "preconditions": [{"kind": "has_attr", "slot": 1, "attr": "fixed"}],
         "effect": {"kind": "emit-text", "source": "literal",
                    "text": "Ouch."}},
        {"id": "kick", "pattern": "kick OBJ",
         "effect": {"kind": "reparent-to-floor", "slot": 1}},
        {"id": "shove", "pattern": "OBJ shove",
         "effect": {"kind": "reparent-to-floor", "slot": 1}},
        {"id": "greet", "pattern": "OBJ hello",
         "effect": {"kind": "emit-text", "source": "object_text",
                    "slot": 1}},
        {"id": "examine", "pattern": "examine OBJ",
         "effect": {"kind": "emit-text", "source": "object_text",
                    "slot": 1}},
        {"id": "ring", "pattern": "ring OBJ",
         "effect": {"kind": "set-global", "name": "rings", "value": 1,
                    "add": True}},
    ]
    data["score_rules"] += [
        {"trigger": {"kind": "action_pattern", "rule": "look"}, "points": 1,
         "once": True},
        {"trigger": {"kind": "state_reached", "conditions": [
            {"kind": "global_is", "name": "_fired:1", "value": 1}]},
         "points": -1, "once": False},
    ]
    return parse_game(data)


def _game(name):
    return headbox() if name == "headbox" else load_bundled(name)


def _names(game):
    return sorted({n for obj in game.objects for n in obj.names})


def _command(rng, state, game, templates):
    """A random command: mostly fillings with visible nouns, sometimes any
    noun the game knows or a word it does not."""
    visible = sorted({state.tree.nodes[o].name
                      for o in visible_objects(state, game)})
    pool = visible if rng.random() < 0.8 else _names(game) + ["xyzzy"]
    template = rng.choice(templates)
    cands = list(enumerate_candidates([template], pool))
    if not cands:
        return rng.choice(UNKNOWN_WORDS)
    return rng.choice(cands).surface


def _walk(game, seed, steps, probes=2):
    """Play `steps` commands, probing a few more against each state.

    Half the steps take the walkthrough's next command, so walks get past
    locked doors and dark rooms; the rest are random. Yields
    (state, command, result) for every execute issued.
    """
    rng = random.Random(seed)
    templates = list(game.templates())
    state, progress = init_state(game, seed), 0
    for _ in range(steps):
        for _ in range(probes):
            text = _command(rng, state, game, templates)
            yield state, text, execute(state, game, text)
        if rng.random() < 0.5 and progress < len(game.walkthrough):
            text, progress = game.walkthrough[progress], progress + 1
        else:
            text = _command(rng, state, game, templates)
        result = execute(state, game, text)
        yield state, text, result
        state = result.state
        if state.done:
            state, progress = init_state(game, seed), 0


@pytest.mark.parametrize("name", GAMES)
def test_execute_leaves_every_earlier_state_intact(name):
    game = load_bundled(name)
    kinds = set()
    for seed in (3, 5):
        seen = {}  # id -> (state, its encoding when first seen)
        for state, text, result in _walk(game, seed, steps=80):
            for st in (state, result.state):
                seen.setdefault(id(st), (st, st.encode()))
            kinds.update(c.field.split(":")[0] for c in result.diff.tree)
            for st, data in seen.values():
                assert st.encode() == data, f"'{text}' changed a state"
    # the walks must reach both edit paths, or the check proves little
    assert {"parent", "attr"} <= kinds


def test_object_node_is_immutable():
    node = ObjectNode(id=5, names=("lamp",), kind="item",
                      attributes={"lightsource"})
    assert node.attributes == frozenset({"lightsource"})
    with pytest.raises(AttributeError):
        node.attributes.add("lit")
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.attributes = frozenset()


def test_copies_share_nodes_until_set_attr():
    state = init_state(load_bundled("mailhouse"), 0)
    twin = state.copy()
    obj = next(i for i, n in state.tree.nodes.items() if n.kind == "item")
    assert twin.tree.nodes[obj] is state.tree.nodes[obj]
    before = state.encode()
    twin.tree.set_attr(obj, "open")
    assert twin.tree.nodes[obj].has("open")
    assert not state.tree.nodes[obj].has("open")
    assert state.encode() == before
    twin.tree.set_attr(obj, "open", on=False)
    assert twin.encode() == before
    with pytest.raises(TreeError):
        twin.tree.set_attr(obj, "shiny")
    with pytest.raises(TreeError):
        twin.tree.set_attr(9999, "open")


def test_player_id_survives_copy_and_decode():
    game = load_bundled("cellarlight")
    state = init_state(game, 0)
    player = next(obj.id for obj in game.objects if obj.kind == "player")
    assert state.tree.player == player
    assert state.copy().tree.player == player
    assert Snapshot(state.encode()).restore().tree.player == player


@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_rules_led_by_keeps_authored_order(name):
    game = _game(name)
    longest = max(len(r.tokens) for r in game.grammar)
    heads = {r.tokens[0] for r in game.grammar} | {"xyzzy", SLOT}
    for n in range(longest + 2):
        for first in heads:
            assert list(game.rules_led_by(n, first)) == [
                r for r in game.grammar
                if len(r.pattern.split()) == n and
                r.pattern.split()[0] in (first, SLOT)], (n, first)


@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_lazy_parser_matches_eager_reference(name):
    game = _game(name)
    rng = random.Random(11)
    extra = ["take all", "look", "north", "open", "take the", "xyzzy",
             "", "   ", "inventory please", "xyzzy egg", "kick egg",
             "kick gong", "egg shove", "box hello", "kick shove",
             "one two three four five six"] + list(game.walkthrough)
    names = _names(game)
    templates = list(game.templates())
    checked = 0
    for state, text, _ in _walk(game, seed=5, steps=40, probes=0):
        texts = [text] + rng.sample(extra, 3)
        texts += [c.surface for c in enumerate_candidates(
            [rng.choice(templates)], rng.sample(names, min(4, len(names))))]
        for t in texts:
            assert execute(state, game, t).outcome == \
                reference_parse_command(state, game, t), t
            checked += 1
    assert checked > 200


def test_state_diff_matches_full_scan_reference():
    rng = random.Random(2)
    pool = []
    for name in GAMES:
        walk = _walk(load_bundled(name), seed=9, steps=30, probes=0)
        pool += [result.state for _, _, result in walk]
    # decoded states share no nodes with anything, so every node compares
    pool += [Snapshot(s.encode()).restore() for s in rng.sample(pool, 20)]
    for s in rng.sample(pool, 10):
        twin = s.copy()
        twin.globals["quiet"] = 0  # an explicit zero equals an absent global
        pool.append(twin)
    pairs = [(a, b) for a, b in zip(pool, pool[1:])]
    pairs += [tuple(rng.sample(pool, 2)) for _ in range(300)]
    for a, b in pairs:
        assert state_diff(a, b) == reference_state_diff(a, b)
        assert state_diff(a, b).diff_hash() == \
            reference_state_diff(a, b).diff_hash()


# -- cached record bytes, shared situations, copy on success --------------------


def _sweeps(game, seed, steps):
    """(state, every candidate surface) for the states of a walk."""
    templates = game.templates()
    for state, _, _ in _walk(game, seed, steps, probes=0):
        fillers = sorted({state.tree.nodes[o].name
                          for o in visible_objects(state, game)})
        yield state, [c.surface for c in
                      enumerate_candidates(templates, fillers)]


@pytest.mark.parametrize("name", GAMES)
def test_encode_matches_field_by_field_reference(name):
    game = load_bundled(name)
    rng = random.Random(4)
    states = [r.state for _, _, r in _walk(game, seed=7, steps=60)]
    states += [Snapshot(s.encode()).restore() for s in states[::5]]
    for s in states[::3]:
        twin = s.copy()  # an edited node gets fresh record bytes
        for obj in rng.sample(sorted(twin.tree.nodes), 3):
            twin.tree.set_attr(obj, rng.choice(ATTRIBUTES),
                               on=rng.random() < 0.5)
        twin.globals["bell"] = rng.randrange(-3, 4)
        states.append(twin)
    for s in states:
        for counters in (True, False):
            for with_rng in (True, False):
                assert s.encode(counters, with_rng) == \
                    reference_encode(s, counters, with_rng)


def test_record_bytes_cover_every_node_field():
    base = ObjectNode(id=7, names=("lamp", "light"), kind="item",
                      attributes={"lightsource"}, key_id=3, capacity=2,
                      text="A lamp.", read_text="Made in Zork.")
    variants = [dataclasses.replace(base, **change) for change in (
        {"id": 8}, {"names": ("lamp",)}, {"kind": "scenery"},
        {"attributes": frozenset()}, {"key_id": None}, {"capacity": None},
        {"text": ""}, {"read_text": None}, {"read_text": ""})]
    records = {base.record} | {v.record for v in variants}
    assert len(records) == len(variants) + 1


@pytest.mark.parametrize("name", GAMES)
def test_shared_situation_gives_the_same_results(name):
    game = load_bundled(name)
    compared = applied = 0
    for state, surfaces in _sweeps(game, seed=3, steps=12):
        ctx = Situation(state, game)
        for text in surfaces + ["take all", "look", "inventory"]:
            shared = execute(state, game, text, ctx)
            fresh = execute(state, game, text)
            assert shared.observation == fresh.observation, text
            assert shared.outcome == fresh.outcome, text
            assert (shared.applied, shared.reward) == \
                (fresh.applied, fresh.reward), text
            assert shared.diff == fresh.diff, text
            assert shared.state.encode() == fresh.state.encode(), text
            compared += 1
            applied += shared.applied
    assert compared > 200 and applied > 20


def test_situation_of_another_state_is_refused():
    game = load_bundled("mailhouse")
    state = init_state(game, 0)
    moved = execute(state, game, "north").state
    with pytest.raises(EngineError, match="another state"):
        execute(moved, game, "look", Situation(state, game))


@pytest.mark.parametrize("name", GAMES)
def test_valid_action_sweep_leaves_state_bytes_intact(name):
    game = load_bundled(name)
    cache = {}
    env = Environment(game, valid_action_cache=cache)
    env.reset(seed=5)
    rng = random.Random(5)
    for _ in range(25):
        if env.done:
            break
        before = env.state.encode()
        cache.clear()
        env.observation()
        valid = env.identify_valid_actions()
        assert env.state.encode() == before
        state = env.state
        expected = []
        for surface in (c.surface for c in enumerate_candidates(
                game.templates(), env.interactive_objects())):
            diff = execute(state, game, surface).diff
            if diff.tree:
                expected.append((surface, diff.diff_hash()))
        assert list(zip(valid.surfaces, valid.diff_hashes)) == expected
        env.step(rng.choice(valid.surfaces or ("look",)))


def _effect_failed(state, game, result):
    """A command that parsed, passed its preconditions and then failed."""
    if result.applied or result.outcome.kind is not ParseKind.RESOLVED:
        return False
    rule = next(r for r in game.grammar if r.id == result.outcome.rule_id)
    return preconditions_hold(Situation(state, game), rule,
                              result.outcome.objects)


@pytest.mark.parametrize("name", GAMES)
def test_only_an_applied_command_copies_the_state(name, monkeypatch):
    """Exactly one copy when the effect edits the tree, none otherwise; a
    repeat on the same Situation returns the first result and copies
    nothing."""
    copies = []
    original = WorldState.copy

    def spy(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(WorldState, "copy", spy)
    game = load_bundled(name)
    effect_failures = applied_without_edit = 0
    for state, surfaces in _sweeps(game, seed=8, steps=10):
        ctx = Situation(state, game)
        before = state.encode()
        first = {}
        for text in surfaces + ["take all", "look", "inventory"]:
            copies.clear()
            result = execute(state, game, text, ctx)
            if text in first:
                assert result is first[text] and not copies, text
                continue
            first[text] = result
            assert len(copies) == (1 if result.diff.tree else 0), text
            assert (result.state.tree is state.tree) == \
                (not result.diff.tree), text
            effect_failures += _effect_failed(state, game, result)
            applied_without_edit += result.applied and not result.diff.tree
        assert state.encode() == before
    assert effect_failures > 0 and applied_without_edit > 0


@pytest.mark.parametrize("name", GAMES)
def test_extract_nouns_matches_a_scan_of_the_objects(name):
    game = load_bundled(name)
    names = {n for obj in game.objects if obj.kind in ("item", "scenery")
             for n in obj.names}
    texts = [game.intro_text] + [r.observation for _, _, r in
                                 _walk(game, seed=2, steps=20, probes=0)]
    for text in texts:
        assert extract_nouns(text, game) == \
            sorted(set(tokenize(text)) & names)


# -- filtered sweeps and tree-sharing effects ------------------------------------

ODD_FILLERS = (["xyzzy"], [], ["BOX", "Egg", "Lamp"], ["pine box", "egg"],
               ["", "kick", "egg", "gong"])


def _probe_every_filling(state, game, objects, dedup):
    """(surface, diff hash) of every filling that changes the tree."""
    kept, seen = [], set()
    for cand in enumerate_candidates(game.templates(), objects):
        diff = execute(state, game, cand.surface).diff
        if not diff.tree or (dedup and diff.diff_hash() in seen):
            continue
        seen.add(diff.diff_hash())
        kept.append((cand.surface, diff.diff_hash()))
    return kept


@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_filtered_sweep_matches_probing_every_filling(name):
    game = _game(name)
    cache = {}
    env = Environment(game, valid_action_cache=cache)
    env.reset(seed=6)
    rng = random.Random(6)
    progress = kept = 0
    for _ in range(15):
        if env.done:
            break
        for objects in (None, rng.choice(ODD_FILLERS), None):
            for dedup in (False, True):
                cache.clear()
                valid = env.identify_valid_actions(objects, dedup=dedup)
                fillers = env.interactive_objects() if objects is None \
                    else objects
                assert list(zip(valid.surfaces, valid.diff_hashes)) == \
                    _probe_every_filling(env.state, game, fillers, dedup)
                kept += len(valid)
        if rng.random() < 0.5 and progress < len(game.walkthrough):
            env.step(game.walkthrough[progress])
            progress += 1
        else:
            env.step(rng.choice(env.identify_valid_actions().surfaces
                                or ("look",)))
    assert kept > 0


HEADBOX_SCRIPT = ("examine gong", "ring gong", "kick gong", "take pebble",
                  "kick pebble", "look", "look", "strike gong", "open box",
                  "take egg")
# sha256 of repr(_headbox_episode()) as produced by the engine before
# effects that edit no tree shared their input's tree.
HEADBOX_DIGEST = \
    "8f1094921ad3bc97ebdf1fca24cae3c3616efd4b488f9adf0f90a04d226ba25c"


def _headbox_episode():
    """Every output of HEADBOX_SCRIPT, then "look" on the finished state."""
    game = headbox()
    env = Environment(game)
    obs, _ = env.reset(seed=0)
    rows = [obs.channels()]
    for text in HEADBOX_SCRIPT:
        r = env.step(text)
        rows.append((text, r.observation, r.reward, r.score, r.done,
                     env.observation().channels()))
    last = execute(env.state, game, "look")
    rows.append(("look", last.observation, last.reward, last.state.score,
                 last.state.done))
    return rows


def test_text_effects_and_score_latches_keep_their_outputs():
    rows = _headbox_episode()
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == HEADBOX_DIGEST
    # the look rule fires in the observation's probe, and its latch fires
    # the -1 rule later in the same scoring pass
    notices = ("[Your score has just gone up by 1 point.] "
               "[Your score has just gone down by 1 point.]")
    assert rows[0][2].endswith(notices)
    assert rows[-2][4] is True
    assert all(ch.endswith("*** The game has ended. ***")
               for ch in rows[-2][5][:3])
    assert rows[-1][1].endswith("*** The game has ended. ***")


@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_tree_sharing_matches_copying_every_applied_state(name, monkeypatch):
    """Effects that edit no tree share it; copying instead changes nothing
    a caller sees (text, reward, diff, state bytes, observations)."""
    game = _game(name)

    def play():
        env = Environment(game)
        env.reset(seed=4)
        rng = random.Random(4)
        out = []
        for _ in range(40):
            if env.done:
                out.append(execute(env.state, game, "look").observation)
                env.reset(seed=4)
            out.append(env.observation().channels())
            surfaces = [c.surface for c in enumerate_candidates(
                game.templates(), env.interactive_objects())]
            for text in rng.sample(surfaces, min(8, len(surfaces))):
                r = execute(env.state, game, text)
                out.append((r.observation, r.reward, r.diff,
                            r.state.encode()))
            out.append(env.step(rng.choice(surfaces + ["look"])))
            out.append(env.state.encode())
        return out

    def fork_with_own_tree(state):
        return WorldState(state.tree.copy(), dict(state.globals), state.score,
                          state.moves, state.done, state.rng.copy())

    shared = play()
    monkeypatch.setattr(WorldState, "fork", fork_with_own_tree)
    assert play() == shared


def _static_attrs(game):
    """Attributes that no effect of the game sets, clears, toggles or
    unlocks."""
    touched = set()
    for rule in game.grammar:
        eff = rule.effect
        if eff.kind in ("set-attribute", "clear-attribute"):
            touched.add(eff.attr)
        touched |= {"toggle-light": {"lit"},
                    "unlock-with": {"locked"}}.get(eff.kind, set())
    return set(ATTRIBUTES) - touched


def _rule_may_edit(game, rule, bound):
    """Whether `rule` with its slots bound to the object ids `bound` could
    edit the tree, judged by passages, static attributes and key ids of the
    bound objects (an object the rule names by id is not judged)."""
    objects = {obj.id: obj for obj in game.objects}
    static = _static_attrs(game)

    def pick(slot, literal, default):
        if literal is not None:
            return None
        slot = default if slot is None else slot
        return objects[bound[slot - 1]] if slot <= len(bound) else None

    def ruled_out(node, attr, want):
        return node is not None and attr in static and \
            (attr in node.attributes) != want

    def wrong_key(node, key):
        return node is not None and node.key_id != (key and key.id)

    for pre in rule.preconditions:
        node = pick(pre.slot, pre.obj, 1)
        if pre.kind in ("has_attr", "lacks_attr") and \
                ruled_out(node, pre.attr, pre.kind == "has_attr"):
            return False
        if pre.kind == "key_matches" and \
                wrong_key(node, pick(pre.slot2, None, 2)):
            return False
    eff = rule.effect
    target, second = pick(eff.slot, eff.obj, 1), pick(eff.slot2, None, 2)
    if eff.kind in ("emit-text", "set-global"):
        return False
    if eff.kind == "move-player":
        return any(eff.direction in exits for exits in game.exits.values())
    if eff.kind == "reparent-to-player" and (eff.slot or eff.obj):
        return not ruled_out(target, "takeable", True)
    if eff.kind == "set-attribute" and eff.attr == "open":
        return not (ruled_out(target, "openable", True) or
                    ruled_out(target, "locked", False))
    if eff.kind == "toggle-light" or (eff.kind == "set-attribute" and
                                      eff.attr == "lit"):
        return not ruled_out(target, "lightsource", True)
    if eff.kind == "unlock-with":
        return not wrong_key(target, second)
    if eff.kind == "put-in":
        return not ruled_out(second, "container", True)
    return True


def _may_edit_tree(game, text):
    """Whether some rule whose whole pattern `text` matches, its slots bound
    to any objects their words name, may edit the tree."""
    words = tokenize(text)
    for rule in game.grammar:
        pattern = rule.pattern.split()
        if len(pattern) != len(words) or any(
                p not in (SLOT, w) for p, w in zip(pattern, words)):
            continue
        choices = [[obj.id for obj in game.objects if w in obj.names]
                   for p, w in zip(pattern, words) if p == SLOT]
        if any(_rule_may_edit(game, rule, bound)
               for bound in itertools.product(*choices)):
            return True
    return False


@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_sweep_probes_only_fillings_that_may_edit_the_tree(name,
                                                           monkeypatch):
    game = _game(name)
    env = Environment(game)
    env.reset(seed=0)
    surfaces = [c.surface for c in enumerate_candidates(
        game.templates(), env.interactive_objects())]
    probed = []
    original = engine.execute

    def spy(state, game, text, ctx=None):
        probed.append(text)
        return original(state, game, text, ctx)

    monkeypatch.setattr(engine, "execute", spy)
    env.identify_valid_actions()
    assert probed == [s for s in surfaces if _may_edit_tree(game, s)]
    # an OBJ-led tree rule matches only its own second word, and the gong's
    # takeable attribute is static
    assert ("gong shove" in probed) == (name == "headbox")
    assert "look" in surfaces and "look" not in probed
    assert "examine gong" not in probed
    if name == "headbox":
        assert {"take pebble", "kick gong"} <= set(probed)
        assert "take gong" in surfaces and "take gong" not in probed
