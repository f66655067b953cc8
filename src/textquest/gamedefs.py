"""Game definitions: the static description a game file deserializes into.

A GameDef is immutable and shared; episode state lives in WorldState. The
record dataclasses are the JSON schema (documented in docs/game-format.md):
one decoder reads and one encoder writes every record, so saving and loading
round-trip. validate() raises on structural errors and returns a list of
advisory warnings.
"""

from __future__ import annotations

import json
from dataclasses import (MISSING, dataclass, field, fields, is_dataclass,
                         replace)
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import grammar as gr
from .records import LruCache
from .world import ATTRIBUTES, KINDS, ObjectNode, ROOT_ID

FORMAT_VERSION = 1

TRAITS = ("darkness", "inventory_limit", "lock_and_key", "sparse_reward")

TRIGGER_KINDS = ("enter_room", "acquire", "state_reached", "action_pattern")

CONDITION_KINDS = ("has_attr", "lacks_attr", "parent_is", "global_is",
                   "global_ge", "player_in")

PROBE_LISTS_CAPACITY = 128  # filler lists per game, see GameDef.probe_lists


class GameFileError(Exception):
    """A game file could not be read or decoded."""


class GameValidationError(Exception):
    """A game definition violates the schema; `problems` lists every issue."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("invalid game definition:\n  " +
                         "\n  ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class Exit:
    """One directed passage. `requires_open` names a door object that must
    carry the open attribute before the passage can be used."""

    to: int
    requires_open: int | None = None


@dataclass(frozen=True)
class Condition:
    kind: str
    obj: int | None = None
    attr: str | None = None
    parent: int | None = None
    name: str | None = None
    value: int | None = None
    room: int | None = None


@dataclass(frozen=True)
class Trigger:
    kind: str
    room: int | None = None
    obj: int | None = None
    rule: str | None = None
    conditions: tuple[Condition, ...] = ()


@dataclass(frozen=True)
class ScoreRule:
    """Points awarded when the trigger's condition becomes true.

    Triggers are edge-triggered: they fire on the step where the condition
    transitions from false to true. `once` rules latch through a reserved
    global so they never re-fire. `ends` latches done.
    """

    trigger: Trigger
    points: int
    once: bool = True
    ends: bool = False


# A room's exits by direction, by room id.
Exits = dict[int, dict[str, Exit]]


@dataclass(frozen=True, kw_only=True)
class GameDef:
    """A whole game. Its fields are the top level of the JSON schema, in
    key order; `parents` holds each object's "parent" key."""

    format_version: int = FORMAT_VERSION
    title: str
    intro_text: str = ""
    max_score: int
    start_room: int
    inventory_limit: int | None = None
    dark_rooms: frozenset[int] = frozenset()
    traits: frozenset[str] = frozenset()
    expected_template_count: int | None = None
    objects: tuple[ObjectNode, ...] = ()
    parents: dict[int, int] = field(default_factory=dict,
                                    metadata={"json": False})
    exits: Exits = field(default_factory=dict)
    grammar: tuple[gr.GrammarRule, ...] = ()
    score_rules: tuple[ScoreRule, ...] = ()
    walkthrough: tuple[str, ...] = ()

    @cached_property
    def _rules_by_head(self) -> dict:
        heads = {(len(r.tokens), r.tokens[0]) for r in self.grammar
                 if r.tokens}
        return {(n, first): tuple(r for r in self.grammar
                                  if len(r.tokens) == n and
                                  r.tokens[0] in (first, gr.SLOT))
                for n, first in heads}

    def rules_led_by(self, length: int,
                     first: str) -> tuple[gr.GrammarRule, ...]:
        """Every rule a command of `length` words led by `first` can match:
        those led by `first` or by an object slot, in authored order."""
        table = self._rules_by_head
        return table.get((length, first)) or table.get((length, gr.SLOT), ())

    @cached_property
    def probe_lists(self) -> LruCache:
        """Filler tuple -> the template fillings a valid-action sweep with
        those fillers probes; every environment of this game shares it."""
        return LruCache(PROBE_LISTS_CAPACITY)

    @cached_property
    def named(self) -> dict[str, tuple[ObjectNode, ...]]:
        """Name -> every object that carries it, as the game defines it."""
        return {name: tuple(o for o in self.objects if name in o.names)
                for obj in self.objects for name in obj.names}

    @cached_property
    def static_attrs(self) -> frozenset[str]:
        """Attributes no effect changes, so every object keeps its own."""
        touched = {"toggle-light": "lit", "unlock-with": "locked"}
        return frozenset(ATTRIBUTES).difference(
            r.effect.attr if r.effect.kind in ("set-attribute",
                                               "clear-attribute")
            else touched.get(r.effect.kind) for r in self.grammar)

    def templates(self) -> tuple[gr.Template, ...]:
        return gr.extract_templates(self.grammar)

    def vocabulary(self) -> gr.Vocabulary:
        names = [n for obj in self.objects for n in obj.names]
        return gr.build_vocabulary(self.grammar, names)


# -- JSON coding ---------------------------------------------------------------
# The record dataclasses are the schema: a field's annotation gives its JSON
# type, a field with no default is required, and null is allowed only where
# the default is None. Every value is type-checked as it is read, so a
# malformed file fails with GameFileError naming the field, and validate()
# only sees well-typed data. By hand are only format_version, the exit
# tables and each object's "parent" key.

_JSON_TYPE = {dict: "an object", list: "a list", str: "a string",
              int: "an integer", bool: "true or false"}

# the record names that "unknown ... field(s)" errors use
_WHAT = {GameDef: "game", ObjectNode: "object", gr.GrammarRule: "grammar rule",
         ScoreRule: "score rule"}


@dataclass(frozen=True)
class _Field:
    name: str
    type: object  # the annotation, with "| None" taken off
    default: object  # MISSING for a required field


@cache
def _schema(cls) -> tuple[frozenset[str], tuple[_Field, ...]]:
    """The JSON keys record class `cls` accepts, and its JSON fields."""
    hints = get_type_hints(cls)
    schema = []
    for f in fields(cls):
        if f.metadata.get("json", True):
            tp = hints[f.name]
            if get_origin(tp) is UnionType:
                tp = get_args(tp)[0]
            default = f.default if f.default_factory is MISSING else \
                f.default_factory()
            schema.append(_Field(f.name, tp, default))
    keys = {f.name for f in schema}
    if cls is ObjectNode:  # read by parse_game into GameDef.parents
        keys.add("parent")
    return frozenset(keys), tuple(schema)


def _typed(value, want: type, path: str, nullable: bool = False):
    """`value` if it has JSON type `want` (a bool is not an integer, and a
    string must encode as UTF-8: JSON can escape a lone surrogate)."""
    if value is None and nullable:
        return None
    if not isinstance(value, want) or (want is int and
                                       isinstance(value, bool)):
        raise GameFileError(f"{path}: expected {_JSON_TYPE[want]}, "
                            f"got {type(value).__name__}")
    if want is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise GameFileError(f"{path}: text with a lone surrogate is "
                                "not UTF-8") from None
    return value


def _record(cls, data, path: str):
    """Record class `cls` decoded from a JSON object."""
    keys, schema = _schema(cls)
    data = _typed(data, dict, path)
    extra = set(data).difference(keys)
    if extra:
        what = _WHAT.get(cls, cls.__name__.lower())
        raise GameFileError(f"{path}: unknown {what} field(s) {sorted(extra)}")
    values = {}
    for f in schema:
        if f.name in data:
            values[f.name] = _decode(f.type, data[f.name], f"{path}.{f.name}",
                                     nullable=f.default is None)
        elif f.default is MISSING:
            raise GameFileError(f"{path}: missing required field '{f.name}'")
    return cls(**values)


def _decode(tp, value, path: str, nullable: bool = False):
    """`value` decoded as annotation `tp`."""
    if value is None and nullable:
        return None
    if tp in _JSON_TYPE:
        return _typed(value, tp, path)
    if is_dataclass(tp):
        return _record(tp, value, path)
    if tp == Exits:
        return _decode_exits(value, path)
    item = get_args(tp)[0]  # tuple[item, ...] or frozenset[item]
    return get_origin(tp)(_decode(item, v, f"{path}[{i}]")
                          for i, v in enumerate(_typed(value, list, path)))


def _decode_exits(data, path: str) -> Exits:
    exits: Exits = {}
    for room_key, table in _typed(data, dict, path).items():
        at = f"{path}[{room_key}]"
        try:
            room = int(room_key)
        except (TypeError, ValueError):
            raise GameFileError(f"{at}: room key must be an integer id") \
                from None
        if str(room) != room_key:  # "01" and "+1" would name room 1 too
            raise GameFileError(f"{at}: room key must be written {room}")
        exits[room] = {_typed(direction, str, at):
                       _decode_exit(v, f"{at}.{direction}")
                       for direction, v in _typed(table, dict, at).items()}
    return exits


def _decode_exit(value, path: str) -> Exit:
    if isinstance(value, int) and not isinstance(value, bool):
        return Exit(to=value)
    if isinstance(value, dict):
        return _record(Exit, value, path)
    raise GameFileError(f"{path}: exit must be a room id or an object")


def _encode(value, keep: tuple[str, ...] = ()):
    """JSON for a decoded value. A record field is left out when it equals
    its default and has the default's type (a 0 where None is the default
    is written), unless it is named in `keep`."""
    if is_dataclass(value):
        data = {}
        for f in _schema(type(value))[1]:
            v = getattr(value, f.name)
            if f.name in keep or type(v) is not type(f.default) or \
                    v != f.default:
                data[f.name] = _encode(v)
        return data
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):  # the exit tables
        return {str(room): {direction: ex.to if ex.requires_open is None
                            else _encode(ex)
                            for direction, ex in table.items()}
                for room, table in value.items()}
    return value


def parse_game(data: dict, source: str = "<data>") -> GameDef:
    """Decode a JSON object into a GameDef and validate it.

    Raises GameFileError for a missing, unknown or mistyped field and
    GameValidationError for a well-typed game that breaks the schema.
    """
    data = _typed(data, dict, source)
    version = data.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise GameFileError(
            f"{source}: unsupported format_version {version} "
            f"(this build reads version {FORMAT_VERSION})")
    game = _record(GameDef, data, source)
    parents = {}
    for i, (node, entry) in enumerate(zip(game.objects,
                                          data.get("objects", ()))):
        parent = _typed(entry.get("parent"), int,
                        f"{source}.objects[{i}].parent", nullable=True)
        if parent is not None:
            parents[node.id] = parent
    game = replace(game, parents=parents)
    validate(game)
    return game


def load_game(path: str | Path) -> GameDef:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise GameFileError(f"cannot read game file {path}: {err}") from err
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise GameFileError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise GameFileError(f"{path}: JSON nested too deeply") from err
    if not isinstance(data, dict):
        raise GameFileError(f"{path}: top level must be a JSON object")
    return parse_game(data, source=str(path))


def serialize_game(game: GameDef) -> dict:
    """GameDef back to schema JSON: parse_game(serialize_game(g)) == g."""
    # version 1 files have always carried these, even at their defaults
    data = _encode(game, keep=("format_version", "intro_text", "objects",
                               "exits", "grammar"))
    for entry in data.get("objects", ()):
        if entry["id"] in game.parents:
            entry["parent"] = game.parents[entry["id"]]
    return data


def save_game(game: GameDef, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(serialize_game(game), indent=2, sort_keys=False) + "\n",
        encoding="utf-8")


# -- validation ----------------------------------------------------------------


# snapshots store ids, links and capacities as signed 32-bit integers
_ID_LIMIT = 2 ** 31


def _slot_ok(slot: int | None, blanks: int) -> bool:
    return slot is None or 1 <= slot <= blanks


def validate(game: GameDef) -> list[str]:
    """Full structural check. Raises GameValidationError listing every hard
    error; returns advisory warnings (an empty list means a clean game)."""
    errors: list[str] = []
    warnings: list[str] = []
    by_id: dict[int, ObjectNode] = {}

    for obj in game.objects:
        path = f"objects[{obj.id}]"
        if obj.id == ROOT_ID:
            errors.append(f"{path}: id {ROOT_ID} is reserved for the root")
        elif not 0 < obj.id < _ID_LIMIT:
            errors.append(f"{path}: id must be from 1 to {_ID_LIMIT - 1}")
        if obj.id in by_id:
            errors.append(f"{path}: duplicate id")
        by_id[obj.id] = obj
        if obj.kind not in KINDS:
            errors.append(f"{path}: unknown kind '{obj.kind}'")
        if not obj.names:
            errors.append(f"{path}: names must be non-empty")
        for name in obj.names:
            if gr.tokenize(name) != [name]:
                errors.append(
                    f"{path}: name '{name}' must be a single lowercase word")
        for attr in obj.attributes:
            if attr not in ATTRIBUTES:
                errors.append(f"{path}: unknown attribute '{attr}'")
        if "open" in obj.attributes and "openable" not in obj.attributes:
            errors.append(f"{path}: open requires openable")
        if "locked" in obj.attributes and "openable" not in obj.attributes:
            errors.append(f"{path}: locked requires openable")
        if "lit" in obj.attributes and "lightsource" not in obj.attributes:
            errors.append(f"{path}: lit requires lightsource")
        if obj.key_id is not None and obj.key_id not in {
                o.id for o in game.objects}:
            errors.append(f"{path}: key_id {obj.key_id} does not exist")
        if obj.capacity is not None and "container" not in obj.attributes:
            errors.append(f"{path}: capacity on a non-container")
        if obj.capacity is not None and not 0 <= obj.capacity < _ID_LIMIT:
            errors.append(f"{path}: capacity must be from 0 to "
                          f"{_ID_LIMIT - 1}")

    players = [o for o in game.objects if o.kind == "player"]
    if len(players) != 1:
        errors.append(f"exactly one player required, found {len(players)}")
    rooms = {o.id for o in game.objects if o.kind == "room"}
    if game.start_room not in rooms:
        errors.append(f"start_room {game.start_room} is not a room")
    if players and game.parents.get(players[0].id) != game.start_room:
        errors.append("player must start in start_room")

    for obj_id, parent in game.parents.items():
        if obj_id not in by_id:
            errors.append(f"parents: unknown object {obj_id}")
        elif parent not in by_id:
            errors.append(f"objects[{obj_id}]: parent {parent} does not exist")
        elif by_id[obj_id].kind == "room":
            errors.append(f"objects[{obj_id}]: rooms cannot have a parent")
    for obj in game.objects:
        if obj.kind != "room" and obj.id not in game.parents:
            errors.append(f"objects[{obj.id}]: non-room needs a parent")

    for room, table in game.exits.items():
        if room not in rooms:
            errors.append(f"exits[{room}]: not a room")
        for direction, ex in table.items():
            path = f"exits[{room}].{direction}"
            if ex.to not in rooms:
                errors.append(f"{path}: destination {ex.to} is not a room")
            if ex.requires_open is not None:
                door = by_id.get(ex.requires_open)
                if door is None:
                    errors.append(f"{path}: door {ex.requires_open} missing")
                elif "openable" not in door.attributes:
                    errors.append(f"{path}: door {door.id} is not openable")

    rule_ids = set()
    for i, rule in enumerate(game.grammar):
        path = f"grammar[{i}] ('{rule.id}')"
        if rule.id in rule_ids:
            errors.append(f"{path}: duplicate rule id")
        rule_ids.add(rule.id)
        tokens = rule.tokens
        if not tokens:
            errors.append(f"{path}: empty pattern")
        for token in tokens:
            if token != gr.SLOT and gr.tokenize(token) != [token]:
                errors.append(f"{path}: bad pattern token '{token}'")
        blanks = rule.blanks
        if blanks > 2:
            errors.append(f"{path}: more than two object slots")
        eff = rule.effect
        if eff.kind not in gr.EFFECT_KINDS:
            errors.append(f"{path}: unknown effect '{eff.kind}'")
        if not _slot_ok(eff.slot, blanks) or not _slot_ok(eff.slot2, blanks):
            errors.append(f"{path}: effect slot out of range")
        if eff.obj is not None and eff.obj not in by_id:
            errors.append(f"{path}: effect object {eff.obj} does not exist")
        if eff.kind == "move-player" and not eff.direction:
            errors.append(f"{path}: move-player needs a direction")
        if eff.kind in ("set-attribute", "clear-attribute"):
            if eff.attr not in ATTRIBUTES:
                errors.append(f"{path}: effect attribute '{eff.attr}' unknown")
            if eff.slot is None and eff.obj is None:
                errors.append(f"{path}: {eff.kind} needs a target")
        if eff.kind in ("unlock-with", "put-in"):
            if (eff.slot or 1) == (eff.slot2 or 2):
                errors.append(f"{path}: {eff.kind} needs two distinct slots")
        if eff.kind == "emit-text":
            if eff.source not in gr.EMIT_SOURCES:
                errors.append(f"{path}: unknown emit source '{eff.source}'")
            if eff.source == "literal" and eff.text is None:
                errors.append(f"{path}: literal emit needs text")
        if eff.kind == "set-global":
            if not eff.name:
                errors.append(f"{path}: set-global needs a name")
            elif eff.name.startswith("_"):
                errors.append(f"{path}: global '{eff.name}' uses the "
                              "reserved '_' prefix")
            if eff.value is None:
                errors.append(f"{path}: set-global needs a value")
        for j, pre in enumerate(rule.preconditions):
            ppath = f"{path}.preconditions[{j}]"
            if pre.kind not in gr.PRECONDITION_KINDS:
                errors.append(f"{ppath}: unknown precondition '{pre.kind}'")
            if not _slot_ok(pre.slot, blanks) or not _slot_ok(pre.slot2,
                                                              blanks):
                errors.append(f"{ppath}: slot out of range")
            if pre.obj is not None and pre.obj not in by_id:
                errors.append(f"{ppath}: object {pre.obj} does not exist")
            if pre.kind in ("has_attr", "lacks_attr") and \
                    pre.attr not in ATTRIBUTES:
                errors.append(f"{ppath}: unknown attribute '{pre.attr}'")
            if pre.kind == "player_in" and pre.room not in rooms:
                errors.append(f"{ppath}: room {pre.room} does not exist")

    positive_once = 0
    any_ends = False
    for i, sr in enumerate(game.score_rules):
        path = f"score_rules[{i}]"
        trig = sr.trigger
        if trig.kind not in TRIGGER_KINDS:
            errors.append(f"{path}: unknown trigger '{trig.kind}'")
        if trig.kind == "enter_room" and trig.room not in rooms:
            errors.append(f"{path}: room {trig.room} is not a room")
        if trig.kind == "acquire" and trig.obj not in by_id:
            errors.append(f"{path}: object {trig.obj} does not exist")
        if trig.kind == "action_pattern" and trig.rule not in rule_ids:
            errors.append(f"{path}: rule '{trig.rule}' does not exist")
        if trig.kind == "state_reached" and not trig.conditions:
            errors.append(f"{path}: state_reached needs conditions")
        for j, cond in enumerate(trig.conditions):
            cpath = f"{path}.conditions[{j}]"
            if cond.kind not in CONDITION_KINDS:
                errors.append(f"{cpath}: unknown condition '{cond.kind}'")
            if cond.obj is not None and cond.obj not in by_id:
                errors.append(f"{cpath}: object {cond.obj} does not exist")
            if cond.kind in ("has_attr", "lacks_attr") and \
                    cond.attr not in ATTRIBUTES:
                errors.append(f"{cpath}: unknown attribute '{cond.attr}'")
            if cond.kind == "parent_is" and cond.parent not in by_id:
                errors.append(f"{cpath}: parent {cond.parent} does not exist")
            if cond.kind == "player_in" and cond.room not in rooms:
                errors.append(f"{cpath}: room {cond.room} does not exist")
        if sr.points > 0 and not sr.once:
            errors.append(f"{path}: positive rules must be once "
                          "(score could exceed max_score)")
        if sr.points > 0 and sr.once:
            positive_once += sr.points
        if sr.ends:
            any_ends = True
    if positive_once != game.max_score:
        errors.append(
            f"max_score is {game.max_score} but positive one-shot rules sum "
            f"to {positive_once}")

    for room in game.dark_rooms:
        if room not in rooms:
            errors.append(f"dark_rooms: {room} is not a room")
    for trait in game.traits:
        if trait not in TRAITS:
            errors.append(f"traits: unknown trait '{trait}'")
    if game.inventory_limit is not None and game.inventory_limit < 1:
        errors.append("inventory_limit must be at least 1")
    if game.expected_template_count is not None:
        actual = len(game.templates())
        if actual != game.expected_template_count:
            errors.append(
                f"expected_template_count is {game.expected_template_count} "
                f"but the grammar defines {actual} templates")

    if not errors:
        # advisory checks only make sense on a structurally sound game
        if not any_ends:
            warnings.append("no score rule ends the game")
        if not game.walkthrough:
            warnings.append("no walkthrough recorded")
        if game.traits and "darkness" in game.traits and not game.dark_rooms:
            warnings.append("darkness trait with no dark rooms")
        if game.dark_rooms and "darkness" not in game.traits:
            warnings.append("dark rooms present but darkness trait missing")
        if game.inventory_limit is not None and \
                "inventory_limit" not in game.traits:
            warnings.append("inventory limit set but trait missing")
        surfaces = {t.surface for t in game.templates()}
        for needed in ("look", "inventory"):
            if needed not in surfaces:
                warnings.append(f"no '{needed}' rule; observation channels "
                                "will be degraded")
    if errors:
        raise GameValidationError(errors)
    return warnings


# -- bundled games -------------------------------------------------------------


def bundled_game_names() -> tuple[str, ...]:
    root = resources.files(__package__) / "games"
    names = [p.name.removesuffix(".game.json")
             for p in root.iterdir() if p.name.endswith(".game.json")]
    return tuple(sorted(names))


def load_bundled(name: str) -> GameDef:
    root = resources.files(__package__) / "games"
    candidate = root / f"{name}.game.json"
    try:
        raw = candidate.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as err:
        raise GameFileError(
            f"no bundled game '{name}' "
            f"(available: {', '.join(bundled_game_names())})") from err
    return parse_game(json.loads(raw), source=f"bundled:{name}")
