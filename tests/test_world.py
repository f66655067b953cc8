"""Object forest, canonical snapshots, hashes, and diffs."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from textquest.engine import execute, init_state
from textquest.gamedefs import bundled_game_names, load_bundled
from textquest.rng import SplitMix64
from textquest.world import (ATTRIBUTES, Diff, ObjectNode, Snapshot,
                             SnapshotError, TreeError, WorldObjectTree,
                             WorldState, reparent, state_diff, universe_node)


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
    tree.kids[11] = ()  # orphans the egg
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


def _set_link(state, data, obj, link, value):
    """`data` with link `link` (0 parent, 1 first child, 2 sibling) of node
    `obj` set to `value`: the records start at byte 10 and each is followed
    by its three i32 links."""
    pos = 10
    for obj_id, n in sorted(state.tree.nodes.items()):
        pos += len(n.record)
        if obj_id == obj:
            break
        pos += 12
    pos += 4 * link
    return data[:pos] + struct.pack("<i", value) + data[pos + 4:]


def _dangling_link(state, data):
    return _set_link(state, data, 13, 2, 99)


def _sibling_cycle(state, data):
    return _set_link(state, data, 13, 2, 10)


def _orphan(state, data):
    return _set_link(state, data, 11, 1, -1)  # the egg still names 11


def _root_sibling(state, data):
    return _set_link(state, data, 0, 2, 1)


@pytest.mark.parametrize("corrupt", [_duplicate_id, _bad_utf8, _nameless,
                                     _unknown_attribute_bit, _dangling_link,
                                     _sibling_cycle, _orphan, _root_sibling])
def test_decode_rejects_corruption_with_snapshot_error(state, corrupt):
    data = state.snapshot().data
    bad = corrupt(state, data)
    assert bad != data
    with pytest.raises(SnapshotError):
        Snapshot(bad).restore()


MAILHOUSE_SNAPSHOT = init_state(load_bundled("mailhouse"), 0).snapshot().data


MAILHOUSE_START = init_state(load_bundled("mailhouse"), 0)


def _set_key_or_capacity(data, obj, field, value):
    """MAILHOUSE_SNAPSHOT with node `obj`'s key id (field 0) or capacity
    (field 1) set to `value`; both follow the record's names and mask."""
    nodes = MAILHOUSE_START.tree.nodes
    pos = 10 + sum(len(nodes[i].record) + 12 for i in sorted(nodes) if i < obj)
    pos += 6 + sum(2 + len(n.encode()) for n in nodes[obj].names) + 2
    pos += 4 * field
    return data[:pos] + struct.pack("<i", value) + data[pos + 4:]


def _set_done(data, value):
    # the done byte precedes score (q), moves (I) and the rng state (Q)
    return data[:-21] + bytes([value]) + data[-20:]


def _read_flag_offset(obj):
    """Offset in MAILHOUSE_SNAPSHOT of node `obj`'s read-text presence byte,
    which the read text's u32 length and bytes follow to end the record."""
    nodes = MAILHOUSE_START.tree.nodes
    end = 10 + sum(len(nodes[i].record) + 12 for i in sorted(nodes) if i < obj)
    end += len(nodes[obj].record)
    return end - 5 - len(nodes[obj].read_text.encode())


def _set_read_flag(data, obj, value):
    pos = _read_flag_offset(obj)
    return data[:pos] + bytes([value]) + data[pos + 1:]


def _set_root_record(data, old, new):
    """MAILHOUSE_SNAPSHOT with the bytes `old` at the start of the root's
    record (after magic, version, flags and node count) set to `new`."""
    assert data[10:10 + len(old)] == old and len(new) == len(old)
    return data[:10] + new + data[10 + len(old):]


# the root's record opens with id 0, kind scenery, one name "universe",
# then its attribute mask: "fixed" only
ROOT_HEAD = struct.pack("<IBBH", 0, 3, 1, 8) + b"universe"
ROOT_MASK = struct.pack("<H", 1 << ATTRIBUTES.index("fixed"))


@pytest.mark.parametrize("corrupt", [
    lambda d: _set_link(MAILHOUSE_START, d, 0, 0, -2),  # the root's parent
    lambda d: _set_link(MAILHOUSE_START, d, 0, 2, -2),
    lambda d: _set_link(MAILHOUSE_START, d, 1, 1, -2),
    lambda d: _set_link(MAILHOUSE_START, d, 1, 2, -7),
    lambda d: _set_link(MAILHOUSE_START, d, 1, 0, -2 ** 31),
    lambda d: _set_key_or_capacity(d, 1, 0, -2),
    lambda d: _set_key_or_capacity(d, 1, 1, -2),
    lambda d: _set_key_or_capacity(d, 0, 1, -2 ** 31),
    lambda d: _set_done(d, 2),
    lambda d: _set_done(d, 255),
    lambda d: _set_read_flag(d, 12, 2),  # the leaflet
    lambda d: _set_read_flag(d, 15, 255),  # the letter
    lambda d: _set_root_record(d, ROOT_HEAD, ROOT_HEAD[:-8] + b"Universe"),
    lambda d: _set_root_record(d, ROOT_HEAD, ROOT_HEAD[:4] + b"\0" +
                               ROOT_HEAD[5:]),
    lambda d: _set_root_record(d, ROOT_HEAD + ROOT_MASK,
                               ROOT_HEAD + b"\0\0"),
], ids=["root-parent", "root-sibling", "first-child", "sibling", "parent",
        "key", "capacity", "root-capacity", "done-2", "done-255",
        "read-flag-2", "read-flag-255", "root-name", "root-kind",
        "root-attributes"])
def test_decode_rejects_non_canonical_values(corrupt):
    """Every negative id or count other than -1, every done or read-text
    presence byte other than 0 or 1, and every root record but the
    universe's would restore to a state whose encoding differs."""
    bad = corrupt(MAILHOUSE_SNAPSHOT)
    assert bad != MAILHOUSE_SNAPSHOT and len(bad) == len(MAILHOUSE_SNAPSHOT)
    with pytest.raises(SnapshotError):
        Snapshot(bad).restore()


def test_non_canonical_cases_edit_the_fields_they_name():
    data = _set_done(_set_key_or_capacity(
        _set_key_or_capacity(MAILHOUSE_SNAPSHOT, 1, 0, 7), 1, 1, 5), 1)
    restored = Snapshot(data).restore()
    assert (restored.tree.nodes[1].key_id, restored.tree.nodes[1].capacity,
            restored.done) == (7, 5, True)
    assert [_read_flag_offset(obj) for obj in (12, 15)] == [659, 1007]
    for obj in (12, 15):
        pos = _read_flag_offset(obj)
        text = MAILHOUSE_START.tree.nodes[obj].read_text.encode()
        assert MAILHOUSE_SNAPSHOT[pos:pos + 5 + len(text)] == \
            struct.pack("<BI", 1, len(text)) + text
    assert MAILHOUSE_SNAPSHOT[10:10 + len(ROOT_HEAD) + 2] == \
        ROOT_HEAD + ROOT_MASK


def _with_globals(*entries):
    """MAILHOUSE_SNAPSHOT, which has no globals, with its globals section
    written as the (name, value) pairs `entries` in the order given."""
    head = 6 + len(MAILHOUSE_START.tree.body())  # magic, version, flags
    assert MAILHOUSE_SNAPSHOT[head:-21] == struct.pack("<I", 0)
    parts = [struct.pack("<I", len(entries))]
    for name, value in entries:
        parts += [struct.pack("<H", len(name)), name.encode(),
                  struct.pack("<q", value)]
    return MAILHOUSE_SNAPSHOT[:head] + b"".join(parts) + \
        MAILHOUSE_SNAPSHOT[-21:]


@pytest.mark.parametrize("entries", [
    (("b", 2), ("a", 1)),
    (("a", 5), ("a", 1), ("b", 2)),
    (("a", 1), ("b", 2), ("b", 2)),
    (("a", 1), ("b", 2), ("z", 0)),
    (("a", 0),),
], ids=["out-of-order", "repeated-key", "repeated-entry", "zero-valued",
        "only-zero"])
def test_decode_rejects_non_canonical_globals(entries):
    """Globals are written once each, nonzero, in name order; any other
    form would restore to a state whose encoding differs."""
    canonical = _with_globals(("a", 1), ("b", 2))
    restored = Snapshot(canonical).restore()
    assert restored.globals == {"a": 1, "b": 2}
    assert restored.snapshot().data == canonical
    with pytest.raises(SnapshotError):
        Snapshot(_with_globals(*entries)).restore()


@pytest.mark.parametrize("name", bundled_game_names())
def test_walkthrough_snapshots_restore_to_their_bytes(name):
    game = load_bundled(name)
    state = init_state(game, 3)
    for command in ("", *game.walkthrough):
        if command:
            state = execute(state, game, command).state
        data = state.snapshot().data
        assert Snapshot(data).restore().snapshot().data == data
    assert state.done


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(MAILHOUSE_SNAPSHOT) - 1),
                          st.integers(0, 255)), min_size=1, max_size=4))
def test_mutated_snapshot_raises_snapshot_error_or_validates(edits):
    """A mutated snapshot either fails or names the state it restores to:
    that state re-encodes to exactly the mutated bytes."""
    data = bytearray(MAILHOUSE_SNAPSHOT)
    for pos, value in edits:
        data[pos] = value
    try:
        restored = Snapshot(bytes(data)).restore()
    except SnapshotError:
        return
    restored.tree.validate()
    assert restored.snapshot().data == data


def test_attribute_bit_order_is_sorted():
    assert ATTRIBUTES == tuple(sorted(ATTRIBUTES))
    assert len(ATTRIBUTES) == 10


def test_attribute_changes_hash_differently(state):
    twin = state.copy()
    twin.tree.set_attr(11, "open")
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
    assert state_diff(state, twin) == Diff()
    assert state.state_hash() == twin.state_hash()
    twin.globals["g"] = 1
    diff = state_diff(state, twin)
    assert diff != Diff() and state.state_hash() != twin.state_hash()
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
    twin.tree.set_attr(11, "open")
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
