"""World model: a forest of objects plus scalar episode state.

Objects live in a parent/first-child/sibling forest under a synthetic
"universe" root. Rooms hang off the root, items hang off rooms, containers, or
the player; the player's parent is the room they stand in and the player's
children are the inventory.

Sibling chains are kept in ascending-id order at all times. Child order is
therefore derived from the parent map, which keeps three contracts mutually
consistent: a single take produces a single-entry diff, diffs are empty
exactly when hashes agree, and two encodings of equal states are
byte-identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Iterator, NamedTuple

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

SNAPSHOT_MAGIC = b"TQSS"
SNAPSHOT_VERSION = 1


class TreeError(Exception):
    """Raised when a structural edit would corrupt the forest."""


class SnapshotError(Exception):
    """Raised when snapshot bytes cannot be decoded."""


@dataclass
class ObjectNode:
    """One object. `names[0]` is the canonical name used in rendered text."""

    id: int
    names: tuple[str, ...]
    kind: str
    attributes: set[str] = field(default_factory=set)
    key_id: int | None = None
    capacity: int | None = None
    text: str = ""
    read_text: str | None = None

    @property
    def name(self) -> str:
        return self.names[0]

    def has(self, attr: str) -> bool:
        return attr in self.attributes

    def copy(self) -> "ObjectNode":
        return ObjectNode(
            id=self.id,
            names=self.names,
            kind=self.kind,
            attributes=set(self.attributes),
            key_id=self.key_id,
            capacity=self.capacity,
            text=self.text,
            read_text=self.read_text,
        )


def universe_node() -> ObjectNode:
    return ObjectNode(id=ROOT_ID, names=("universe",), kind="scenery",
                      attributes={"fixed"})


class WorldObjectTree:
    """Forest of ObjectNodes linked by parent/first_child/sibling ids."""

    def __init__(self) -> None:
        self.nodes: dict[int, ObjectNode] = {}
        self.parent: dict[int, int | None] = {}
        self.first_child: dict[int, int | None] = {}
        self.sibling: dict[int, int | None] = {}

    @classmethod
    def build(cls, nodes: list[ObjectNode],
              parents: dict[int, int]) -> "WorldObjectTree":
        """Assemble a tree from node definitions and a parent map.

        The universe root is added automatically; any node without a parent
        entry is attached to it.
        """
        tree = cls()
        root = universe_node()
        tree.nodes[ROOT_ID] = root
        tree.parent[ROOT_ID] = None
        tree.first_child[ROOT_ID] = None
        tree.sibling[ROOT_ID] = None
        for node in nodes:
            if node.id in tree.nodes:
                raise TreeError(f"duplicate object id {node.id}")
            tree.nodes[node.id] = node
            tree.parent[node.id] = None
            tree.first_child[node.id] = None
            tree.sibling[node.id] = None
        for node in sorted(nodes, key=lambda n: n.id):
            tree._attach(node.id, parents.get(node.id, ROOT_ID))
        return tree

    # -- traversal ---------------------------------------------------------

    def children(self, obj: int) -> list[int]:
        out = []
        child = self.first_child[obj]
        while child is not None:
            out.append(child)
            child = self.sibling[child]
        return out

    def descendants(self, obj: int) -> Iterator[int]:
        """Yield every node strictly below `obj`, depth first."""
        stack = self.children(obj)[::-1]
        while stack:
            cur = stack.pop()
            yield cur
            stack.extend(self.children(cur)[::-1])

    def ancestors(self, obj: int) -> Iterator[int]:
        cur = self.parent[obj]
        while cur is not None:
            yield cur
            cur = self.parent[cur]

    def in_subtree(self, obj: int, ancestor: int) -> bool:
        if obj == ancestor:
            return True
        return any(a == ancestor for a in self.ancestors(obj))

    def containing_room(self, obj: int) -> int | None:
        """Nearest ancestor (or self) of kind room."""
        cur: int | None = obj
        while cur is not None:
            if self.nodes[cur].kind == "room":
                return cur
            cur = self.parent[cur]
        return None

    # -- edits -------------------------------------------------------------

    def _detach(self, obj: int) -> None:
        p = self.parent[obj]
        if p is None:
            return
        if self.first_child[p] == obj:
            self.first_child[p] = self.sibling[obj]
        else:
            cur = self.first_child[p]
            while cur is not None and self.sibling[cur] != obj:
                cur = self.sibling[cur]
            if cur is None:
                raise TreeError(f"sibling chain of {p} does not contain {obj}")
            self.sibling[cur] = self.sibling[obj]
        self.parent[obj] = None
        self.sibling[obj] = None

    def _attach(self, obj: int, parent: int) -> None:
        # insert in ascending-id position so chains stay canonical
        first = self.first_child[parent]
        if first is None or obj < first:
            self.sibling[obj] = first
            self.first_child[parent] = obj
        else:
            cur = first
            while self.sibling[cur] is not None and self.sibling[cur] < obj:
                cur = self.sibling[cur]
            self.sibling[obj] = self.sibling[cur]
            self.sibling[cur] = obj
        self.parent[obj] = parent

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
        self._detach(obj)
        self._attach(obj, new_parent)

    # -- integrity ---------------------------------------------------------

    def validate(self) -> None:
        """Check forest integrity; raises TreeError on the first violation."""
        if ROOT_ID not in self.nodes:
            raise TreeError("missing universe root")
        if self.parent[ROOT_ID] is not None:
            raise TreeError("root must not have a parent")
        seen: set[int] = set()
        stack = [ROOT_ID]
        while stack:
            cur = stack.pop()
            if cur in seen:
                raise TreeError(f"node {cur} reachable twice")
            seen.add(cur)
            # walk the chain lazily: the id-order check also stops a cycle
            prev = None
            child = self.first_child[cur]
            while child is not None:
                if self.parent[child] != cur:
                    raise TreeError(
                        f"chain of {cur} lists {child} whose parent differs")
                if prev is not None and child <= prev:
                    raise TreeError(f"chain of {cur} is not id-ordered")
                prev = child
                stack.append(child)
                child = self.sibling[child]
        missing = set(self.nodes) - seen
        if missing:
            raise TreeError(f"unreachable nodes: {sorted(missing)}")

    def copy(self) -> "WorldObjectTree":
        dup = WorldObjectTree()
        dup.nodes = {i: n.copy() for i, n in self.nodes.items()}
        dup.parent = dict(self.parent)
        dup.first_child = dict(self.first_child)
        dup.sibling = dict(self.sibling)
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

    def copy(self) -> "WorldState":
        return WorldState(
            tree=self.tree.copy(),
            globals=dict(self.globals),
            score=self.score,
            moves=self.moves,
            done=self.done,
            rng=self.rng.copy(),
        )

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
        parts = [SNAPSHOT_MAGIC, struct.pack("<BB", SNAPSHOT_VERSION, flags)]
        tree = self.tree
        parts.append(struct.pack("<I", len(tree.nodes)))
        for obj_id in sorted(tree.nodes):
            node = tree.nodes[obj_id]
            mask = 0
            for attr in node.attributes:
                mask |= _ATTR_BIT[attr]
            parts.append(struct.pack("<IBB", obj_id,
                                     KINDS.index(node.kind), len(node.names)))
            for name in node.names:
                raw = name.encode("utf-8")
                parts.append(struct.pack("<H", len(raw)))
                parts.append(raw)
            parts.append(struct.pack(
                "<Hii", mask,
                -1 if node.key_id is None else node.key_id,
                -1 if node.capacity is None else node.capacity))
            raw = node.text.encode("utf-8")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)
            if node.read_text is None:
                parts.append(struct.pack("<B", 0))
            else:
                raw = node.read_text.encode("utf-8")
                parts.append(struct.pack("<BI", 1, len(raw)))
                parts.append(raw)

            def link(value: int | None) -> int:
                return -1 if value is None else value

            parts.append(struct.pack("<iii", link(tree.parent[obj_id]),
                                     link(tree.first_child[obj_id]),
                                     link(tree.sibling[obj_id])))
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


@dataclass(frozen=True)
class Snapshot:
    """Immutable full capture of a WorldState, including its rng stream."""

    data: bytes

    def restore(self) -> WorldState:
        """Decode and validate; every malformed input raises SnapshotError."""
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

    def take_bytes(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise SnapshotError("snapshot truncated")
        out = self.data[self.pos:self.pos + size]
        self.pos += size
        return out


def _decode(data: bytes) -> WorldState:
    r = _Reader(data)
    if r.take_bytes(4) != SNAPSHOT_MAGIC:
        raise SnapshotError("not a snapshot (bad magic)")
    version, flags = r.take("<BB")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    if flags != 3:
        raise SnapshotError("snapshot missing counters or rng state")
    tree = WorldObjectTree()
    (n_nodes,) = r.take("<I")
    links: dict[int, tuple[int, int, int]] = {}
    for _ in range(n_nodes):
        obj_id, kind_code, n_names = r.take("<IBB")
        names = []
        for _ in range(n_names):
            (length,) = r.take("<H")
            names.append(r.take_bytes(length).decode("utf-8"))
        mask, key_id, capacity = r.take("<Hii")
        (length,) = r.take("<I")
        text = r.take_bytes(length).decode("utf-8")
        (has_read,) = r.take("<B")
        read_text = None
        if has_read:
            (length,) = r.take("<I")
            read_text = r.take_bytes(length).decode("utf-8")
        if kind_code >= len(KINDS):
            raise SnapshotError(f"unknown kind code {kind_code}")
        if not names:
            raise SnapshotError(f"object {obj_id} has no name")
        if mask >> len(ATTRIBUTES):
            raise SnapshotError(f"unknown attribute bits in {mask:#x}")
        if obj_id in tree.nodes:
            raise SnapshotError(f"duplicate object id {obj_id}")
        attrs = {a for a in ATTRIBUTES if mask & _ATTR_BIT[a]}
        tree.nodes[obj_id] = ObjectNode(
            id=obj_id, names=tuple(names), kind=KINDS[kind_code],
            attributes=attrs,
            key_id=None if key_id < 0 else key_id,
            capacity=None if capacity < 0 else capacity,
            text=text, read_text=read_text)
        links[obj_id] = r.take("<iii")

    def opt(value: int) -> int | None:
        return None if value < 0 else value

    ends = {end for trio in links.values() for end in trio if end >= 0}
    if not ends <= tree.nodes.keys():
        raise SnapshotError(
            f"links name unknown ids {sorted(ends - tree.nodes.keys())}")
    for obj_id, (parent, first, sib) in links.items():
        tree.parent[obj_id] = opt(parent)
        tree.first_child[obj_id] = opt(first)
        tree.sibling[obj_id] = opt(sib)
    (n_globals,) = r.take("<I")
    globals_map: dict[str, int] = {}
    for _ in range(n_globals):
        (length,) = r.take("<H")
        key = r.take_bytes(length).decode("utf-8")
        (value,) = r.take("<q")
        globals_map[key] = value
    (done,) = r.take("<B")
    score, moves = r.take("<qI")
    (rng_state,) = r.take("<Q")
    if r.pos != len(data):
        raise SnapshotError("trailing bytes after snapshot")
    tree.validate()
    return WorldState(tree=tree, globals=globals_map, score=score,
                      moves=moves, done=bool(done), rng=SplitMix64(rng_state))


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


@dataclass(frozen=True)
class Diff:
    """Canonical three-channel difference between two states."""

    tree: tuple[TreeChange, ...] = ()
    globals: tuple[GlobalChange, ...] = ()
    status: tuple[StatusChange, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.tree or self.globals or self.status)

    def diff_hash(self) -> int:
        return _hash_bytes(repr((self.tree, self.globals, self.status))
                           .encode("utf-8"))


def state_diff(a: WorldState, b: WorldState) -> Diff:
    """Diff two states. Entries are sorted, so equal diffs compare equal."""
    tree_changes: list[TreeChange] = []
    ids_a, ids_b = set(a.tree.nodes), set(b.tree.nodes)
    for obj in ids_a ^ ids_b:
        tree_changes.append(TreeChange(obj, "present", obj in ids_a,
                                       obj in ids_b))
    for obj in ids_a & ids_b:
        pa, pb = a.tree.parent[obj], b.tree.parent[obj]
        if pa != pb:
            tree_changes.append(TreeChange(obj, "parent", pa, pb))
        attrs_a = a.tree.nodes[obj].attributes
        attrs_b = b.tree.nodes[obj].attributes
        for attr in attrs_a ^ attrs_b:
            tree_changes.append(TreeChange(obj, f"attr:{attr}",
                                           attr in attrs_a, attr in attrs_b))
    global_changes = []
    for name in sorted(set(a.globals) | set(b.globals)):
        va, vb = a.globals.get(name, 0), b.globals.get(name, 0)
        if va != vb:
            global_changes.append(GlobalChange(name, va, vb))
    status_changes = []
    for fname in ("done", "moves", "score"):
        va, vb = getattr(a, fname), getattr(b, fname)
        if va != vb:
            status_changes.append(StatusChange(fname, va, vb))
    tree_changes.sort(key=lambda c: (c.obj, c.field))
    return Diff(tree=tuple(tree_changes), globals=tuple(global_changes),
                status=tuple(status_changes))


def reparent(state: WorldState, obj: int, new_parent: int) -> WorldState:
    """Pure reparent: returns a new state, the input is never modified."""
    out = state.copy()
    out.tree.reparent(obj, new_parent)
    return out
