"""World model: a forest of objects plus scalar episode state.

Objects hang off a synthetic "universe" root by their parent ids. Rooms hang
off the root, items hang off rooms, containers, or the player; the player's
parent is the room they stand in and the player's children are the inventory.

Object nodes are immutable, so copies of a tree share them: copying a state
copies three id-keyed dicts and the globals, never a node. Every edit goes
through `WorldObjectTree.reparent` (parents) or `WorldObjectTree.set_attr`
(which swaps in a new node), so an edit to a copy never reaches the states
it shares nodes with. For the same reason each node caches its own snapshot
record bytes (`ObjectNode.record`): the cache cannot go stale, copies share
it, and encoding a state joins those bytes with each node's three links.
A state may share its whole tree with another (`WorldState.fork`), so edit
only the tree of a state you copied.

The parent map is the only structure; each node's children, in ascending-id
order, are an index derived from it, and the first-child and next-sibling
links of the snapshot format are derived from that index. So a single take
produces a single-entry diff, diffs are empty exactly when hashes agree, and
two encodings of equal states are byte-identical. Restore accepts only the
canonical encoding of the state it reads, so one snapshot names one state.

Edits are logged. Invariant: a tree whose `base` is another tree's `stamp`
is a copy of it that differs only at the ids in its `edits`; every edit
replaces the stamp of the tree it edits. A copy shares its source's encoded
per-node chunks (record and links), and an edit drops the chunks of the
nodes whose record or links it changes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from hashlib import blake2b
from typing import Iterator, NamedTuple

from .records import fast_init
from .rng import SplitMix64

ROOT_ID = 0

KINDS = ("room", "item", "player", "scenery")

# fixed order defines the bitmask in the snapshot encoding; append only
ATTRIBUTES = (
    "container",
    "edible",
    "fixed",
    "lightsource",
    "lit",
    "locked",
    "open",
    "openable",
    "readable",
    "takeable",
)
_ATTR_BIT = {name: 1 << i for i, name in enumerate(ATTRIBUTES)}

_pack_links = struct.Struct("<iii").pack  # parent, first child, sibling

SNAPSHOT_MAGIC = b"TQSS"
SNAPSHOT_VERSION = 1


class TreeError(Exception):
    """Raised when a structural edit would corrupt the forest."""


class SnapshotError(Exception):
    """Raised when snapshot bytes cannot be decoded."""


@fast_init
@dataclass(frozen=True)
class ObjectNode:
    """One object. `names[0]` is the canonical name used in rendered text.

    Immutable, so trees and game definitions can share one node; any
    iterable of attribute names is stored as a frozenset.
    """

    id: int
    names: tuple[str, ...]
    kind: str
    attributes: frozenset[str] = frozenset()
    key_id: int | None = None
    capacity: int | None = None
    text: str = ""
    read_text: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.attributes, frozenset):
            object.__setattr__(self, "attributes",
                               frozenset(self.attributes))

    @property
    def name(self) -> str:
        return self.names[0]

    def has(self, attr: str) -> bool:
        return attr in self.attributes

    @cached_property
    def record(self) -> bytes:
        """This node's version 1 snapshot record, all but the links: id,
        kind, names, attribute mask, key, capacity, text and read text."""
        mask = 0
        for attr in self.attributes:
            mask |= _ATTR_BIT[attr]
        parts = [struct.pack("<IBB", self.id, KINDS.index(self.kind),
                             len(self.names))]
        for name in self.names:
            raw = name.encode("utf-8")
            parts += (struct.pack("<H", len(raw)), raw)
        raw = self.text.encode("utf-8")
        parts += (struct.pack("<HiiI", mask,
                              -1 if self.key_id is None else self.key_id,
                              -1 if self.capacity is None else self.capacity,
                              len(raw)), raw)
        if self.read_text is None:
            parts.append(b"\0")
        else:
            raw = self.read_text.encode("utf-8")
            parts += (struct.pack("<BI", 1, len(raw)), raw)
        return b"".join(parts)


def universe_node() -> ObjectNode:
    return ObjectNode(id=ROOT_ID, names=("universe",), kind="scenery",
                      attributes={"fixed"})


class WorldObjectTree:
    """Forest of ObjectNodes: each node's parent id, indexed by `kids`, each
    node's children in ascending-id order. A copy shares the index's tuples,
    and an edit replaces the two it changes.

    `player` is the id of the first player node, recorded when the tree is
    built (kinds never change), or None when there is none.
    Edit a built tree only through `reparent` and `set_attr`, which keep
    `kids` indexing `parent` and log the edit.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, ObjectNode] = {}
        self.parent: dict[int, int | None] = {}
        self.kids: dict[int, tuple[int, ...]] = {}
        self.player: int | None = None
        self.chunks: list[bytes | None] = []  # body() parts, None if stale
        self.slot: dict[int, int] = {}  # id -> index of its chunk
        self.edits: set[int] = set()  # ids edited since this tree was copied
        self.stamp = object()  # replaced at every edit
        self.base: object = None  # the source's stamp when copied

    @classmethod
    def build(cls, nodes: list[ObjectNode],
              parents: dict[int, int]) -> "WorldObjectTree":
        """Assemble a tree from node definitions and a parent map.

        The universe root is added automatically; any node without a parent
        entry is attached to it.
        """
        tree = cls()
        tree.parent[ROOT_ID] = None
        for node in [universe_node(), *nodes]:
            if node.id in tree.nodes:
                raise TreeError(f"duplicate object id {node.id}")
            tree.nodes[node.id], tree.kids[node.id] = node, ()
        for obj in sorted(node.id for node in nodes):
            tree.parent[obj] = up = parents.get(obj, ROOT_ID)
            tree.kids[up] += (obj,)  # ascending ids, so each tuple is sorted
        tree.player = next((i for i, n in tree.nodes.items()
                            if n.kind == "player"), None)
        tree.slot = {obj: i for i, obj in enumerate(sorted(tree.nodes), 1)}
        tree.chunks = [struct.pack("<I", len(tree.nodes))]
        tree.chunks += [None] * len(tree.nodes)
        return tree

    # -- traversal ---------------------------------------------------------

    def children(self, obj: int) -> list[int]:
        """Children of `obj` in ascending-id order."""
        return list(self.kids[obj])

    def ancestors(self, obj: int) -> Iterator[int]:
        cur = self.parent[obj]
        while cur is not None:
            yield cur
            cur = self.parent[cur]

    def in_subtree(self, obj: int, ancestor: int) -> bool:
        if obj == ancestor:
            return True
        return ancestor in self.ancestors(obj)

    def containing_room(self, obj: int) -> int | None:
        """Nearest ancestor (or self) of kind room."""
        cur: int | None = obj
        while cur is not None:
            if self.nodes[cur].kind == "room":
                return cur
            cur = self.parent[cur]
        return None

    # -- edits -------------------------------------------------------------

    def reparent(self, obj: int, new_parent: int) -> None:
        """Move `obj` (and its subtree) under `new_parent`, in place."""
        if obj not in self.nodes:
            raise TreeError(f"unknown object {obj}")
        if new_parent not in self.nodes:
            raise TreeError(f"unknown object {new_parent}")
        if obj == ROOT_ID:
            raise TreeError("the root cannot be reparented")
        if self.in_subtree(new_parent, obj):
            raise TreeError(
                f"reparenting {obj} under {new_parent} would create a cycle")
        old, kids = self.parent[obj], self.kids
        row = kids[old]
        at = row.index(obj)
        kids[old] = row[:at] + row[at + 1:]
        new_row = kids[new_parent] = tuple(sorted((*kids[new_parent], obj)))
        self.parent[obj] = new_parent
        to = new_row.index(obj)
        # the two parents' first child and the next-sibling links of the
        # nodes before `obj` in its old and new row may change
        self._edited(obj, old, new_parent, *row[:at][-1:],
                     *new_row[:to][-1:])

    def set_attr(self, obj: int, attr: str, on: bool = True) -> None:
        """Turn `attr` on or off for `obj`, in place, by replacing its node."""
        if obj not in self.nodes or attr not in _ATTR_BIT:
            raise TreeError(f"unknown object {obj} or attribute '{attr}'")
        node = self.nodes[obj]
        attrs = node.attributes | {attr} if on else node.attributes - {attr}
        self.nodes[obj] = replace(node, attributes=attrs)
        self._edited(obj)

    def _edited(self, obj: int, *linked: int) -> None:
        """Log an edit of `obj` and drop the chunks it may have changed."""
        self.edits.add(obj)
        self.stamp = object()
        for changed in (obj, *linked):
            self.chunks[self.slot[changed]] = None

    def body(self) -> bytes:
        """The tree's part of a snapshot: node count, then each node's record
        and links (parent, first child, next sibling) in id order."""
        chunks, kids = self.chunks, self.kids
        if None in chunks:  # pack what an edit dropped
            for obj, i in self.slot.items():
                if chunks[i] is None:
                    up, down = self.parent[obj], kids[obj]
                    row = (obj,) if up is None else kids[up]
                    at = row.index(obj) + 1
                    chunks[i] = self.nodes[obj].record + _pack_links(
                        -1 if up is None else up, down[0] if down else -1,
                        row[at] if at < len(row) else -1)
        return b"".join(chunks)

    # -- integrity ---------------------------------------------------------

    def validate(self) -> None:
        """Check that `kids` indexes `parent` and every node hangs off the
        root; raises TreeError on the first violation."""
        if ROOT_ID not in self.nodes:
            raise TreeError("missing universe root")
        if self.parent[ROOT_ID] is not None:
            raise TreeError("root must not have a parent")
        # a child is pushed once, from its own parent, so nothing loops
        seen: set[int] = set()
        stack = [ROOT_ID]
        while stack:
            cur = stack.pop()
            seen.add(cur)
            prev = -1
            for child in self.kids[cur]:
                if self.parent[child] != cur:
                    raise TreeError(
                        f"chain of {cur} lists {child} whose parent differs")
                if child <= prev:
                    raise TreeError(f"chain of {cur} is not id-ordered")
                prev = child
                stack.append(child)
        missing = set(self.nodes) - seen
        if missing:
            raise TreeError(f"unreachable nodes: {sorted(missing)}")

    def copy(self) -> "WorldObjectTree":
        """Independent maps over the same nodes, tuples and chunks."""
        dup = WorldObjectTree()
        dup.nodes = dict(self.nodes)
        dup.parent = dict(self.parent)
        dup.kids = dict(self.kids)
        dup.player = self.player
        dup.chunks = list(self.chunks)
        dup.slot = self.slot
        dup.base = self.stamp
        return dup


# -- world state -------------------------------------------------------------


@dataclass
class WorldState:
    """Everything that varies during an episode."""

    tree: WorldObjectTree
    globals: dict[str, int] = field(default_factory=dict)
    score: int = 0
    moves: int = 0
    done: bool = False
    rng: SplitMix64 = field(default_factory=SplitMix64)

    def fork(self) -> "WorldState":
        """A new state sharing this tree, with its own globals and rng."""
        return WorldState(self.tree, dict(self.globals), self.score,
                          self.moves, self.done, self.rng.copy())

    def copy(self) -> "WorldState":
        out = self.fork()
        out.tree = self.tree.copy()
        return out

    # -- canonical encoding -------------------------------------------------

    def encode(self, include_counters: bool = True,
               include_rng: bool = True) -> bytes:
        """Canonical little-endian byte encoding.

        Layout (version 1): magic, version, flags, node records sorted by id,
        nonzero globals sorted by name, done, then score+moves and the rng
        state when their flag bits are set. Zero-valued globals are omitted so
        an absent counter and an explicit zero encode identically.
        """
        flags = (1 if include_counters else 0) | (2 if include_rng else 0)
        parts = [SNAPSHOT_MAGIC, struct.pack("<BB", SNAPSHOT_VERSION, flags),
                 self.tree.body()]
        live_globals = {k: v for k, v in self.globals.items() if v != 0}
        parts.append(struct.pack("<I", len(live_globals)))
        for key in sorted(live_globals):
            raw = key.encode("utf-8")
            parts.append(struct.pack("<H", len(raw)))
            parts.append(raw)
            parts.append(struct.pack("<q", live_globals[key]))
        parts.append(struct.pack("<B", 1 if self.done else 0))
        if include_counters:
            parts.append(struct.pack("<qI", self.score, self.moves))
        if include_rng:
            parts.append(struct.pack("<Q", self.rng.state))
        return b"".join(parts)

    def state_hash(self) -> int:
        """64-bit hash over (tree, globals, score, moves, done).

        The rng state is excluded: two states that differ only in pending
        randomness compare equal.
        """
        return _hash_bytes(self.encode(include_rng=False))

    def situation_hash(self) -> int:
        """Hash that also ignores score and moves.

        Valid-action sets depend only on the tree, the globals, and done, so
        caches key on this value.
        """
        return _hash_bytes(self.encode(include_counters=False,
                                       include_rng=False))

    def snapshot(self) -> "Snapshot":
        return Snapshot(self.encode())


def _hash_bytes(data: bytes) -> int:
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


@fast_init
@dataclass(frozen=True)
class Snapshot:
    """Immutable full capture of a WorldState, including its rng stream."""

    data: bytes

    def restore(self) -> WorldState:
        """Decode and validate. Input that is malformed, or that is not the
        canonical encoding of the state it decodes to, raises SnapshotError."""
        try:
            return _decode(self.data)
        except (UnicodeDecodeError, KeyError, TreeError, struct.error) as exc:
            raise SnapshotError(f"corrupt snapshot: {exc!r}") from exc


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise SnapshotError("snapshot truncated")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out

    def text(self, fmt: str) -> str:
        """A UTF-8 string after its length, which `fmt` reads."""
        (size,) = self.take(fmt)
        return self.take(f"<{size}s")[0].decode("utf-8")


def _decode(data: bytes) -> WorldState:
    """The state `data` encodes, if `data` is its canonical encoding: the
    reader checks only what it needs to read on, and comparing the bytes
    with the state's own encoding rejects everything else."""
    r = _Reader(data)
    if r.take("<4s") != (SNAPSHOT_MAGIC,):
        raise SnapshotError("not a snapshot (bad magic)")
    version, flags = r.take("<BB")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    if flags != 3:
        raise SnapshotError("snapshot missing counters or rng state")
    (n_nodes,) = r.take("<I")
    nodes: list[ObjectNode] = []
    parents: dict[int, int] = {}
    for _ in range(n_nodes):
        obj_id, kind_code, n_names = r.take("<IBB")
        names = tuple(r.text("<H") for _ in range(n_names))
        mask, key_id, capacity = r.take("<Hii")
        text = r.text("<I")
        (has_read,) = r.take("<B")
        read_text = r.text("<I") if has_read else None
        if kind_code >= len(KINDS):
            raise SnapshotError(f"unknown kind code {kind_code}")
        if not names:
            raise SnapshotError(f"object {obj_id} has no name")
        up, _, _ = r.take("<iii")  # the child and sibling links are derived
        if obj_id == ROOT_ID:
            continue  # build() adds the universe root
        attrs = frozenset(a for a in ATTRIBUTES if mask & _ATTR_BIT[a])
        nodes.append(ObjectNode(
            id=obj_id, names=names, kind=KINDS[kind_code], attributes=attrs,
            key_id=None if key_id < 0 else key_id,
            capacity=None if capacity < 0 else capacity,
            text=text, read_text=read_text))
        parents[obj_id] = up
    tree = WorldObjectTree.build(nodes, parents)
    tree.validate()  # parent ids that loop re-encode to their own bytes
    (n_globals,) = r.take("<I")
    globals_map: dict[str, int] = {}
    for _ in range(n_globals):
        key = r.text("<H")
        (value,) = r.take("<q")
        globals_map[key] = value
    done, score, moves, rng_state = r.take("<BqIQ")
    state = WorldState(tree=tree, globals=globals_map, score=score,
                       moves=moves, done=bool(done), rng=SplitMix64(rng_state))
    if state.encode() != data:
        raise SnapshotError("snapshot is not the canonical encoding of its "
                            "state")
    return state


# -- diffs --------------------------------------------------------------------


class TreeChange(NamedTuple):
    obj: int
    field: str  # "parent", "attr:<name>", or "present"
    old: object
    new: object


class GlobalChange(NamedTuple):
    name: str
    old: int
    new: int


class StatusChange(NamedTuple):
    field: str  # "done", "moves", or "score"
    old: object
    new: object


@fast_init
@dataclass(frozen=True)
class Diff:
    """Canonical three-channel difference between two states."""

    tree: tuple[TreeChange, ...] = ()
    globals: tuple[GlobalChange, ...] = ()
    status: tuple[StatusChange, ...] = ()

    def diff_hash(self) -> int:
        return _hash_bytes(repr((self.tree, self.globals, self.status))
                           .encode("utf-8"))


def state_diff(a: WorldState, b: WorldState) -> Diff:
    """Diff two states. Entries are sorted, so equal diffs compare equal.

    Only the edited objects are compared when `b`'s tree is an edited copy
    of `a`'s (see the module docstring), none when the trees are one.
    """
    ta, tb = a.tree, b.tree
    tree_changes = []
    if ta is not tb:
        if tb.base is ta.stamp:
            common = tb.edits
        else:
            ids_a, ids_b = ta.nodes.keys(), tb.nodes.keys()
            tree_changes = [TreeChange(obj, "present", obj in ids_a,
                                       obj in ids_b) for obj in ids_a ^ ids_b]
            common = ids_a & ids_b
        tree_changes += [TreeChange(obj, "parent", ta.parent[obj],
                                    tb.parent[obj]) for obj in common
                         if ta.parent[obj] != tb.parent[obj]]
        for obj in common:
            na, nb = ta.nodes[obj], tb.nodes[obj]
            if na is not nb:
                tree_changes += [
                    TreeChange(obj, f"attr:{attr}", attr in na.attributes,
                               attr in nb.attributes)
                    for attr in na.attributes ^ nb.attributes]
    global_changes = []
    if a.globals != b.globals:
        for name in sorted(a.globals.keys() | b.globals.keys()):
            va, vb = a.globals.get(name, 0), b.globals.get(name, 0)
            if va != vb:
                global_changes.append(GlobalChange(name, va, vb))
    status_changes = [StatusChange(name, old, new) for name, old, new in (
        ("done", a.done, b.done), ("moves", a.moves, b.moves),
        ("score", a.score, b.score)) if old != new]
    tree_changes.sort()  # (obj, field) pairs are unique
    return Diff(tuple(tree_changes), tuple(global_changes),
                tuple(status_changes))


def reparent(state: WorldState, obj: int, new_parent: int) -> WorldState:
    """Pure reparent: returns a new state, the input is never modified."""
    out = state.copy()
    out.tree.reparent(obj, new_parent)
    return out
