"""Edit-logged trees: a copy records its source's stamp and the ids its
edits touch, state_diff walks only those ids when the second tree is an
edited copy of the first, and the encoding repacks only the chunks an edit
dropped. Checked against the full-scan diff and the field-by-field encoder
in tests/helpers.py over seeded edit sequences on every bundled game."""

import random
from hashlib import blake2b

import pytest

from helpers import reference_encode, reference_state_diff
from textquest.engine import init_state
from textquest.gamedefs import bundled_game_names, load_bundled
from textquest.world import ATTRIBUTES, ROOT_ID, state_diff

GAMES = bundled_game_names()
FLAGS = ((False, False), (False, True), (True, False), (True, True))


def _random_edit(rng, tree):
    """One reparent or set_attr, no-ops included: a node may move under its
    own parent or get an attribute it already has, and a container moves
    with whatever it holds."""
    if rng.random() < 0.5:
        obj = rng.choice(sorted(tree.nodes))
        tree.set_attr(obj, rng.choice(ATTRIBUTES), rng.random() < 0.5)
        return
    holders = [obj for obj in tree.nodes if obj != ROOT_ID and tree.kids[obj]
               and tree.parent[obj] != ROOT_ID]
    movable = [obj for obj in tree.nodes if obj != ROOT_ID]
    obj = rng.choice(holders if holders and rng.random() < 0.3 else movable)
    if rng.random() < 0.2:
        tree.reparent(obj, tree.parent[obj])
        return
    targets = sorted(t for t in tree.nodes if not tree.in_subtree(t, obj))
    tree.reparent(obj, rng.choice(targets))


def _check_state(state):
    for counters, with_rng in FLAGS:
        assert state.encode(counters, with_rng) == \
            reference_encode(state, counters, with_rng)
    data = reference_encode(state, include_counters=False, include_rng=False)
    assert state.situation_hash() == int.from_bytes(
        blake2b(data, digest_size=8).digest(), "little")


def _check_pair(a, b):
    assert state_diff(a, b) == reference_state_diff(a, b)
    assert state_diff(b, a) == reference_state_diff(b, a)


@pytest.mark.parametrize("name", GAMES)
@pytest.mark.parametrize("seed", range(3))
def test_edit_log_matches_the_references(name, seed):
    rng = random.Random(seed)
    start = init_state(load_bundled(name), seed)
    if seed:
        start.encode()  # copies then share packed chunks
    states, lineage = [start], []
    for _ in range(80):
        roll = rng.random()
        if roll < 0.15 and lineage:
            # edit a source after it was copied: its copies' logs are stale
            source, _ = rng.choice(lineage)
            _random_edit(rng, source.tree)
            _check_state(source)
        else:
            source = rng.choice(states)
            dup = source.copy()  # a copy of a copy when source is one
            if roll < 0.25:
                dup.globals["g"] = dup.globals.get("g", 0) + 1
                dup.moves += 1
            for _ in range(rng.randrange(4)):
                _random_edit(rng, dup.tree)
            states.append(dup)
            lineage.append((source, dup))
            _check_state(dup)
        for a, b in lineage[-4:] + [(start, states[-1]),
                                    (rng.choice(states), states[-1])]:
            _check_pair(a, b)
    assert any(a.tree.edits for a in states)


def test_a_copy_diffs_only_its_edits():
    start = init_state(load_bundled("mailhouse"))
    start.encode()
    dup = start.copy()
    assert dup.tree.base is start.tree.stamp and not dup.tree.edits
    player = dup.tree.player
    room = dup.tree.parent[player]
    dup.tree.reparent(player, room)  # no-op: logged, and diffs to nothing
    assert dup.tree.edits == {player}
    assert state_diff(start, dup) == reference_state_diff(start, dup)
    assert not state_diff(start, dup).tree
    assert dup.encode() == start.encode()


def test_a_source_edited_after_its_copy_is_compared_in_full():
    start = init_state(load_bundled("mailhouse"))
    dup = start.copy()
    mover = next(obj for obj in sorted(start.tree.nodes)
                 if start.tree.nodes[obj].kind == "item")
    start.tree.reparent(mover, start.tree.player)
    assert dup.tree.base is not start.tree.stamp
    assert state_diff(start, dup) == reference_state_diff(start, dup)
    assert state_diff(start, dup).tree


def test_an_edit_repacks_the_links_of_both_parents_and_siblings():
    start = init_state(load_bundled("mailhouse"))
    tree = start.tree
    for obj in sorted(tree.nodes):
        up = tree.parent[obj]
        if up is None or len(tree.kids[up]) < 3:
            continue
        for new_parent in sorted(tree.nodes):
            if tree.in_subtree(new_parent, obj):
                continue
            start.encode()
            dup = start.copy()
            dup.tree.reparent(obj, new_parent)
            assert dup.encode() == reference_encode(dup)
            back = dup.copy()
            back.tree.reparent(obj, up)
            assert back.encode() == start.encode()
