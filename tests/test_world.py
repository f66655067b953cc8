"""Object forest, canonical snapshots, hashes, and diffs."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from textquest.engine import init_state
from textquest.gamedefs import load_bundled
from textquest.rng import SplitMix64
from textquest.world import (ATTRIBUTES, ObjectNode, Snapshot, SnapshotError,
                             TreeError, WorldObjectTree, WorldState,
                             reparent, state_diff, universe_node)


def node(obj_id, name, kind="item", parent=None, attrs=(), **kw):
    return ObjectNode(id=obj_id, names=(name,), kind=kind,
                      attributes=set(attrs), **kw), parent


def build_state(spec):
    nodes = []
    parents = {}
    for n, parent in spec:
        nodes.append(n)
        if parent is not None:
            parents[n.id] = parent
    tree = WorldObjectTree.build(nodes, parents)
    return WorldState(tree=tree, globals={}, score=0, moves=0, done=False,
                      rng=SplitMix64(0))


@pytest.fixture
def state():
    return build_state([
        node(1, "room", kind="room"),
        node(10, "player", kind="player", parent=1),
        node(11, "box", parent=1, attrs=("container", "openable")),
        node(12, "egg", parent=11, attrs=("takeable",)),
        node(13, "pebble", parent=1, attrs=("takeable",)),
    ])


# -- tree structure ------------------------------------------------------------------


def test_children_sorted_ascending(state):
    assert state.tree.children(1) == [10, 11, 13]


def test_attach_keeps_id_order(state):
    after = reparent(state, 12, 1)
    assert after.tree.children(1) == [10, 11, 12, 13]


def test_reparent_is_pure(state):
    before = state.snapshot().data
    reparent(state, 12, 10)
    assert state.snapshot().data == before


def test_reparent_unknown_object(state):
    with pytest.raises(TreeError):
        reparent(state, 99, 1)
    with pytest.raises(TreeError):
        reparent(state, 12, 99)


def test_reparent_into_own_subtree_rejected(state):
    with pytest.raises(TreeError):
        reparent(state, 1, 11)  # the box sits inside room 1
    with pytest.raises(TreeError):
        reparent(state, 11, 11)


def test_reparent_cycle_rejected(state):
    deeper = reparent(state, 12, 11)
    with pytest.raises(TreeError):
        reparent(deeper, 11, 12)


def test_ancestors_and_subtree(state):
    tree = state.tree
    assert tree.containing_room(12) == 1
    assert tree.in_subtree(12, 11)
    assert not tree.in_subtree(11, 12)
    assert 11 in tree.ancestors(12)


def test_validate_catches_parent_chain_mismatch(state):
    tree = state.tree.copy()
    tree.parent[11] = 10  # chain of room 1 still lists 11
    with pytest.raises(TreeError):
        tree.validate()


def test_validate_catches_unreachable_nodes(state):
    tree = state.tree.copy()
    tree.first_child[11] = None  # orphans the egg
    with pytest.raises(TreeError):
        tree.validate()


def test_universe_root_is_reserved(state):
    assert state.tree.nodes[0].kind == universe_node().kind
    with pytest.raises(TreeError):
        reparent(state, 0, 1)


def test_build_rejects_duplicate_ids():
    with pytest.raises(TreeError):
        build_state([node(1, "room", kind="room"),
                     node(1, "again", kind="room")])


# -- canonical encoding --------------------------------------------------------------


def test_snapshot_round_trip(state):
    state.globals["count"] = 3
    snap = state.snapshot()
    restored = snap.restore()
    assert restored.snapshot().data == snap.data
    assert restored.tree.children(1) == state.tree.children(1)
    assert restored.globals == {"count": 3}


def test_zero_global_encodes_as_absent(state):
    twin = state.copy()
    twin.globals["noise"] = 0
    assert twin.snapshot().data == state.snapshot().data
    assert twin.state_hash() == state.state_hash()


def test_hash_ignores_rng_consumption(state):
    before = state.state_hash()
    state.rng.next_u64()
    assert state.state_hash() == before
    # but the full snapshot does capture the rng stream position
    restored = Snapshot(state.snapshot().data).restore()
    assert restored.rng.state == state.rng.state


def test_situation_hash_ignores_counters(state):
    situation = state.situation_hash()
    full = state.state_hash()
    state.score += 5
    state.moves += 7
    assert state.situation_hash() == situation
    assert state.state_hash() != full


def test_decode_rejects_bad_magic(state):
    data = bytearray(state.snapshot().data)
    data[0] ^= 0xFF
    with pytest.raises(SnapshotError):
        Snapshot(bytes(data)).restore()


def test_decode_rejects_trailing_bytes(state):
    with pytest.raises(SnapshotError):
        Snapshot(state.snapshot().data + b"x").restore()


def test_decode_rejects_truncation(state):
    with pytest.raises(SnapshotError):
        Snapshot(state.snapshot().data[:-3]).restore()


def test_decode_rejects_unknown_version(state):
    data = bytearray(state.snapshot().data)
    data[4] = 99  # version byte follows the 4-byte magic
    with pytest.raises(SnapshotError):
        Snapshot(bytes(data)).restore()


# node 13's record opens with its id, kind (item), one name "pebble"
PEBBLE_RECORD = struct.pack("<IBBH", 13, 1, 1, 6) + b"pebble"


def _duplicate_id(state, data):
    return data.replace(PEBBLE_RECORD,
                        struct.pack("<I", 12) + PEBBLE_RECORD[4:])


def _bad_utf8(state, data):
    return data.replace(b"pebble", b"\xffebble")


def _unknown_attribute_bit(state, data):
    # the root's mask follows magic, version, flags, count, id, kind,
    # name count and its one name "universe"
    offset = 4 + 2 + 4 + 4 + 1 + 1 + 2 + len("universe")
    return data[:offset] + struct.pack("<H", 1 << 15) + data[offset + 2:]


def _nameless(state, data):
    return data.replace(PEBBLE_RECORD, struct.pack("<IBB", 13, 1, 0))


def _dangling_link(state, data):
    state.tree.sibling[13] = 99
    return state.encode()


def _sibling_cycle(state, data):
    state.tree.sibling[13] = 10
    return state.encode()


def _orphan(state, data):
    state.tree.first_child[11] = None  # the egg still names 11 as parent
    return state.encode()


@pytest.mark.parametrize("corrupt", [_duplicate_id, _bad_utf8, _nameless,
                                     _unknown_attribute_bit, _dangling_link,
                                     _sibling_cycle, _orphan])
def test_decode_rejects_corruption_with_snapshot_error(state, corrupt):
    data = state.snapshot().data
    bad = corrupt(state, data)
    assert bad != data
    with pytest.raises(SnapshotError):
        Snapshot(bad).restore()


MAILHOUSE_SNAPSHOT = init_state(load_bundled("mailhouse"), 0).snapshot().data


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(MAILHOUSE_SNAPSHOT) - 1),
                          st.integers(0, 255)), min_size=1, max_size=4))
def test_mutated_snapshot_raises_snapshot_error_or_validates(edits):
    data = bytearray(MAILHOUSE_SNAPSHOT)
    for pos, value in edits:
        data[pos] = value
    try:
        restored = Snapshot(bytes(data)).restore()
    except SnapshotError:
        return
    restored.tree.validate()


def test_attribute_bit_order_is_sorted():
    assert ATTRIBUTES == tuple(sorted(ATTRIBUTES))
    assert len(ATTRIBUTES) == 10


def test_attribute_changes_hash_differently(state):
    twin = state.copy()
    twin.tree.nodes[11].attributes.add("open")
    assert twin.state_hash() != state.state_hash()
    assert twin.situation_hash() != state.situation_hash()


# -- diffs ---------------------------------------------------------------------------


def test_single_reparent_single_diff_entry(state):
    after = reparent(state, 13, 10)
    diff = state_diff(state, after)
    assert len(diff.tree) == 1
    change = diff.tree[0]
    assert change.obj == 13 and change.field == "parent"
    assert (change.old, change.new) == (1, 10)
    assert not diff.globals and not diff.status


def test_diff_empty_iff_hash_equal(state):
    twin = state.copy()
    assert state_diff(state, twin).is_empty
    assert state.state_hash() == twin.state_hash()
    twin.globals["g"] = 1
    diff = state_diff(state, twin)
    assert not diff.is_empty and state.state_hash() != twin.state_hash()
    assert diff.globals[0].name == "g"
    assert (diff.globals[0].old, diff.globals[0].new) == (0, 1)


def test_diff_status_channel(state):
    twin = state.copy()
    twin.score = 4
    twin.moves = 2
    twin.done = True
    diff = state_diff(state, twin)
    fields = {c.field for c in diff.status}
    assert fields == {"score", "moves", "done"}
    assert not diff.tree and not diff.globals


def test_diff_attr_channel(state):
    twin = state.copy()
    twin.tree.nodes[11].attributes.add("open")
    diff = state_diff(state, twin)
    assert diff.tree == ((11, "attr:open", False, True),)


def test_diff_hash_stable_and_sensitive(state):
    a1 = state_diff(state, reparent(state, 13, 10))
    a2 = state_diff(state, reparent(state, 13, 10))
    b = state_diff(state, reparent(state, 12, 1))
    assert a1.diff_hash() == a2.diff_hash()
    assert a1.diff_hash() != b.diff_hash()


# -- property tests ------------------------------------------------------------------


ITEM_IDS = list(range(20, 28))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ITEM_IDS),
                          st.sampled_from(ITEM_IDS + [1, 10])),
                min_size=1, max_size=40))
def test_reparent_fuzz_preserves_invariants(ops):
    spec = [node(1, "room", kind="room"),
            node(10, "player", kind="player", parent=1)]
    spec += [node(i, f"thing{i}", parent=1, attrs=("container",))
             for i in ITEM_IDS]
    state = build_state(spec)
    for obj, dest in ops:
        try:
            state = reparent(state, obj, dest)
        except TreeError:
            continue  # cycle attempts are rejected and leave state intact
        state.tree.validate()
        for parent_id in (1, 10, *ITEM_IDS):
            kids = state.tree.children(parent_id)
            assert kids == sorted(kids)
    restored = Snapshot(state.snapshot().data).restore()
    assert restored.snapshot().data == state.snapshot().data


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(alphabet="abcdef_", min_size=1, max_size=6),
                       st.integers(min_value=-2 ** 40, max_value=2 ** 40),
                       max_size=5),
       st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 4),
       st.booleans())
def test_snapshot_round_trip_fuzz(globals_map, score, moves, done):
    state = build_state([
        node(1, "room", kind="room"),
        node(10, "player", kind="player", parent=1),
        node(11, "box", parent=1, attrs=("container",)),
    ])
    state.globals.update(globals_map)
    state.score = score
    state.moves = moves
    state.done = done
    restored = Snapshot(state.snapshot().data).restore()
    assert restored.snapshot().data == state.snapshot().data
    assert restored.score == score and restored.moves == moves
    assert restored.done is done
    assert restored.globals == {k: v for k, v in globals_map.items()
                                if v != 0}
