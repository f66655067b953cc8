"""Ground-truth simulator: parses commands, applies effects, awards score.

`execute` is pure: it never touches the input state, and the same
(state, command) pair always produces the same result. It copies the state
only at an effect's first tree edit, so the state it returns may share the
input's tree: copy a state before editing its tree. A `Situation` is a
read-only view of one state that holds what every command parsed against
that state shares (the visible objects and the noun map) and each command's
result, so a valid-action sweep computes them once and a step after the
sweep reuses its probe. All gameplay rules funnel through the ten effect
kinds in grammar.EFFECT_KINDS plus a small set of engine guards (you cannot
open what is locked, carry past the inventory limit, or put a box inside
itself) so authored games stay declarative. An effect returns its failure
text and no state rather than raising; every rejected command gets the
input state, no reward and one shared empty Diff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .gamedefs import Condition, GameDef, Trigger
from .grammar import (GrammarRule, ParseKind, ParseOutcome, Precondition,
                      tokenize, SLOT)
from .records import fast_init
from .rng import SplitMix64
from .world import Diff, ObjectNode, WorldState, WorldObjectTree, state_diff

MSG_UNPARSEABLE = "That's not a verb I recognise."
MSG_UNRESOLVED = "You can't see any such thing."
MSG_CANT = "You can't do that."
MSG_DARKNESS = "It is pitch black here. You can't see a thing."

WORDS_CACHE_CAPACITY = 4096  # distinct command texts whose tokens are kept

_NO_DIFF = Diff()  # shared by every rejected command, as are the outcomes
_UNRESOLVED = ParseOutcome(ParseKind.UNRESOLVED)  # of those with no rule
_UNPARSEABLE = ParseOutcome(ParseKind.UNPARSEABLE)

# Every fixed phrase the engine can print, so text tokenizers built from a
# game definition cover engine output as well as authored text.
BUILTIN_STRINGS = (
    MSG_UNPARSEABLE,
    MSG_UNRESOLVED,
    MSG_CANT,
    MSG_DARKNESS,
    "You can't go that way.",
    "The thing is closed.",
    "There is nothing here to take.",
    "You're carrying too much already.",
    "You already have that.",
    "You can't take that.",
    "Taken.",
    "You aren't carrying that.",
    "Dropped.",
    "Nothing happens.",
    "The thing is already open.",
    "The thing is already lit.",
    "You can't open that.",
    "The thing is locked.",
    "Opening the thing reveals a thing.",
    "You open the thing.",
    "You can't light that.",
    "You turn on the thing.",
    "You turn off the thing.",
    "You close the thing.",
    "Done.",
    "The thing isn't locked.",
    "The thing doesn't fit.",
    "Nothing to unlock with.",
    "You unlock the thing with the thing.",
    "Put it in what?",
    "You can't put things in the thing.",
    "There's no more room in the thing.",
    "You can't put something inside itself.",
    "You put the thing in the thing.",
    "You see nothing special about the thing.",
    "Nothing is written on the thing.",
    "You are empty handed.",
    "You are carrying a thing.",
    "The thing contains a thing.",
    "There is a thing here.",
    "a an and",
    "[Your score has just gone up by 1 point.]",
    "[Your score has just gone down by 1 points.]",
    "*** The game has ended. ***",
)


class EngineError(Exception):
    """Internal consistency failure; authored games should never hit this."""


@fast_init
@dataclass(frozen=True)
class CommandResult:
    """Outcome of executing one text command against a state."""

    state: WorldState
    observation: str
    outcome: ParseOutcome
    applied: bool
    reward: int
    diff: Diff


def init_state(game: GameDef, seed: int = 0) -> WorldState:
    """Fresh episode state for a validated game."""
    tree = WorldObjectTree.build(list(game.objects), dict(game.parents))
    tree.validate()
    return WorldState(tree=tree, rng=SplitMix64(seed))


def player_id(state: WorldState) -> int:
    player = state.tree.player
    if player is None:
        raise EngineError("state has no player node")
    return player


def player_room(state: WorldState) -> int:
    room = state.tree.containing_room(player_id(state))
    if room is None:
        raise EngineError("player is not inside a room")
    return room


def is_dark(state: WorldState, game: GameDef, room: int | None = None) -> bool:
    """True when the room is flagged dark and no reachable light is lit.

    A lit lightsource counts if it sits in the room or anywhere in an open
    chain of containers, including everything the player carries.
    """
    if room is None:
        room = player_room(state)
    if room not in game.dark_rooms:
        return False
    tree = state.tree
    stack = tree.children(room)
    while stack:
        obj = stack.pop()
        node = tree.nodes[obj]
        if node.has("lightsource") and node.has("lit"):
            return False
        if not node.has("container") or node.has("open"):
            stack.extend(tree.children(obj))
    return True


def _collect_open(tree: WorldObjectTree, obj: int, out: list[int]) -> None:
    for child in tree.children(obj):
        node = tree.nodes[child]
        if node.kind == "player":
            continue
        out.append(child)
        if not node.has("container") or node.has("open"):
            _collect_open(tree, child, out)


def visible_objects(state: WorldState, game: GameDef) -> list[int]:
    """Objects the player can currently refer to, in ascending-id order.

    Carried things are always visible (you can feel them in the dark); room
    contents disappear when the room is dark. Closed containers hide their
    contents either way.
    """
    room = player_room(state)
    out: list[int] = []
    _collect_open(state.tree, player_id(state), out)
    if not is_dark(state, game, room):
        _collect_open(state.tree, room, out)
    return sorted(set(out))


@lru_cache(maxsize=WORDS_CACHE_CAPACITY)
def _words(text: str) -> tuple[str, ...]:
    """tokenize(text), kept for the commands a sweep repeats every turn."""
    return tuple(tokenize(text))


def may_edit_tree(game: GameDef, text: str) -> bool:
    """False when `text` cannot change the tree in any state play reaches:
    no rule whose pattern it matches, with each slot bound to an object its
    word names (`GameDef.named`), may edit it, judged from facts no effect
    changes: which directions have a passage from some room; each object's
    initial value of every attribute no set-attribute, clear-attribute,
    toggle-light or unlock-with effect touches (`GameDef.static_attrs`), for
    has_attr, lacks_attr and what take, open, light and put-in (container-
    ness) need; and key ids, for key_matches and unlock-with."""
    words = _words(text)
    for rule in game.rules_led_by(len(words), words[0]) if words else ():
        pairs = tuple(zip(rule.tokens, words))
        slots = [game.named.get(w, ()) for p, w in pairs if p == SLOT]
        if all(p in (SLOT, w) for p, w in pairs) and any(
                _may_edit(game, rule, objects) for objects in product(*slots)):
            return True
    return False


def _may_edit(game: GameDef, rule: GrammarRule,
              objects: tuple[ObjectNode, ...]) -> bool:
    """Whether `rule`, slots bound to `objects`, may edit the tree; an
    object the rule names by id is not judged."""
    def at(slot, literal=None, default=1):
        return None if literal is not None else \
            _target(slot, None, objects, default)
    eff, kind = rule.effect, rule.effect.kind
    if kind in ("emit-text", "set-global") or kind == "move-player" and \
            not any(eff.direction in exits for exits in game.exits.values()):
        return False
    target, second = at(eff.slot, eff.obj), at(eff.slot2, default=2)
    needs = [(at(p.slot, p.obj), p.attr, p.kind == "has_attr")
             for p in rule.preconditions if p.kind in ("has_attr",
                                                       "lacks_attr")]
    keys = [(at(p.slot, p.obj), at(p.slot2, default=2))
            for p in rule.preconditions if p.kind == "key_matches"]
    if kind == "reparent-to-player" and eff.slot is not None:
        needs.append((target, "takeable", True))
    elif kind == "set-attribute" and eff.attr == "open":
        needs += [(target, "openable", True), (target, "locked", False)]
    elif kind == "toggle-light" or kind == "set-attribute" and \
            eff.attr == "lit":
        needs.append((target, "lightsource", True))
    elif kind == "unlock-with":
        keys.append((target, second))
    elif kind == "put-in":
        needs.append((second, "container", True))
    static = game.static_attrs
    return all(obj is None or attr not in static or obj.has(attr) == want
               for obj, attr, want in needs) and \
        all(None in (obj, key) or obj.key_id == key.id for obj, key in keys)


def extract_nouns(text: str, game: GameDef) -> list[str]:
    """Tokens of `text` that name an item or scenery, sorted and unique."""
    return sorted({word for word in tokenize(text) if any(
        obj.kind in ("item", "scenery") for obj in game.named.get(word, ()))})


class Situation:
    """Read-only view of one state, shared by every command run against it.

    Each value is computed on first use, and `results` keeps each command's
    CommandResult, so `execute` answers a repeated command with the same
    object, and `key` hashes the state once for the environment's
    per-situation memos. The state must not change while the view is in
    use; `execute` never changes its input state.
    """

    def __init__(self, state: WorldState, game: GameDef) -> None:
        self.state = state
        self.game = game
        self.results: dict[str, CommandResult] = {}

    @cached_property
    def key(self) -> int:
        return self.state.situation_hash()

    @property
    def keyed(self) -> bool:
        """Whether `key` is computed already, so reading it costs nothing."""
        return "key" in self.__dict__

    @cached_property
    def visible(self) -> list[int]:
        return visible_objects(self.state, self.game)

    @cached_property
    def nouns(self) -> dict[str, int]:
        """Name -> visible object; the lowest id wins a shared name."""
        nodes = self.state.tree.nodes
        out: dict[str, int] = {}
        for obj in self.visible:
            for name in nodes[obj].names:
                out.setdefault(name, obj)
        return out


# -- parsing -------------------------------------------------------------------


def _parse(ctx: Situation, text: str
           ) -> tuple[ParseOutcome, GrammarRule | None, bool]:
    """Pure parser: the outcome, the chosen rule (None when no rule resolves)
    and whether its preconditions hold. Same state and text always give the
    same result.

    The rules a command can match (`GameDef.rules_led_by`) are tried in
    authored order. Among rules whose pattern matches and whose nouns
    resolve, the first whose preconditions hold wins; if none hold, the
    first resolving rule is returned (its failure text will be shown). A
    pattern match with an unknown or out-of-sight noun yields UNRESOLVED; no
    pattern match at all yields UNPARSEABLE. The visible-noun map is built
    only once a pattern reaches an object slot.
    """
    words = _words(text)
    if not words:
        return _UNPARSEABLE, None, False
    saw_pattern = False
    first_resolved = None
    for rule in ctx.game.rules_led_by(len(words), words[0]):
        bound: list[int] = []
        matched = True
        resolved = True
        for p, w in zip(rule.tokens, words):
            if p == SLOT:
                if w in ctx.nouns:
                    bound.append(ctx.nouns[w])
                else:
                    resolved = False
            elif p != w:
                matched = False
                break
        if not matched:
            continue
        saw_pattern = True
        if not resolved:
            continue
        objects = tuple(bound)
        if preconditions_hold(ctx, rule, objects):
            outcome = ParseOutcome(ParseKind.RESOLVED, rule.id, objects)
            return outcome, rule, True
        if first_resolved is None:
            first_resolved = rule, objects
    if first_resolved is None:
        return (_UNRESOLVED if saw_pattern else _UNPARSEABLE), None, False
    rule, objects = first_resolved
    return ParseOutcome(ParseKind.RESOLVED, rule.id, objects), rule, False


def _target(pre_slot: int | None, pre_obj: int | None,
            objects: tuple[int, ...], default_slot: int) -> int | None:
    if pre_obj is not None:
        return pre_obj
    slot = pre_slot if pre_slot is not None else default_slot
    if 1 <= slot <= len(objects):
        return objects[slot - 1]
    return None


def _precondition_holds(ctx: Situation, pre: Precondition,
                        objects: tuple[int, ...]) -> bool:
    state, game = ctx.state, ctx.game
    tree = state.tree
    player = player_id(state)
    kind = pre.kind
    if kind == "not_dark":
        return not is_dark(state, game)
    if kind in ("global_is", "global_ge", "player_in"):
        return _condition_holds(state, game, pre)
    if kind == "inventory_has_room":
        limit = game.inventory_limit
        return limit is None or len(tree.children(player)) < limit
    obj = _target(pre.slot, pre.obj, objects, 1)
    if obj is None or obj not in tree.nodes:
        return False
    node = tree.nodes[obj]
    if kind == "carried":
        return tree.in_subtree(obj, player) and obj != player
    if kind == "not_carried":
        return not tree.in_subtree(obj, player)
    if kind == "in_room":
        return tree.containing_room(obj) == player_room(state) and \
            not tree.in_subtree(obj, player)
    if kind in ("has_attr", "lacks_attr"):
        return node.has(pre.attr or "") == (kind == "has_attr")
    if kind == "visible":
        return obj in ctx.visible
    if kind == "capacity_ok":
        return node.capacity is None or \
            len(tree.children(obj)) < node.capacity
    if kind == "key_matches":
        key = _target(pre.slot2, None, objects, 2)
        return key is not None and node.key_id == key
    raise EngineError(f"unknown precondition kind '{kind}'")


def preconditions_hold(ctx: Situation, rule: GrammarRule,
                       objects: tuple[int, ...]) -> bool:
    """Whether every precondition of `rule`, bound to `objects`, holds."""
    for pre in rule.preconditions:
        if not _precondition_holds(ctx, pre, objects):
            return False
    return True


# -- rendering -----------------------------------------------------------------


def _article(name: str) -> str:
    return "an" if name[:1] in "aeiou" else "a"


def _noun(node: ObjectNode) -> str:
    return f"{_article(node.name)} {node.name}"


def _listing(tree: WorldObjectTree, ids: list[int]) -> str:
    parts = [_noun(tree.nodes[i]) for i in ids]
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return f"{parts[0]} and {parts[1]}"
    return ", ".join(parts[:-1]) + f", and {parts[-1]}"


def render_room(state: WorldState, game: GameDef,
                room: int | None = None) -> str:
    """One-line room description: name, text, then notable contents."""
    if room is None:
        room = player_room(state)
    if is_dark(state, game, room):
        return MSG_DARKNESS
    tree = state.tree
    node = tree.nodes[room]
    parts = [f"{node.name.capitalize()}."]
    if node.text:
        parts.append(node.text)
    player = player_id(state)
    for child in tree.children(room):
        if child == player:
            continue
        cnode = tree.nodes[child]
        if cnode.kind == "scenery":
            continue
        parts.append(f"There is {_noun(cnode)} here.")
        _add_contents(tree, child, parts)
    return " ".join(parts)


def render_inventory(state: WorldState, game: GameDef) -> str:
    tree = state.tree
    carried = tree.children(player_id(state))
    if not carried:
        return "You are empty handed."
    parts = [f"You are carrying {_listing(tree, carried)}."]
    for obj in carried:
        _add_contents(tree, obj, parts)
    return " ".join(parts)


def _add_contents(tree: WorldObjectTree, obj: int, parts: list[str]) -> None:
    node = tree.nodes[obj]
    inside = node.has("container") and node.has("open") and tree.children(obj)
    if inside:
        parts.append(f"The {node.name} contains {_listing(tree, inside)}.")


def _fmt(template: str, tree: WorldObjectTree,
         objects: tuple[int, ...]) -> str:
    out = template
    for i, obj in enumerate(objects, start=1):
        out = out.replace("{" + str(i) + "}", tree.nodes[obj].name)
    return out


# -- effects -------------------------------------------------------------------


def _apply_effect(state: WorldState, game: GameDef, rule: GrammarRule,
                  objects: tuple[int, ...]) -> tuple[str, WorldState | None]:
    """Returns the text to show and the new state, or failure text and None.

    `state` is only read: it is copied at the first tree edit, and an
    effect that edits no tree returns `state.fork()`, which shares it.
    """
    eff = rule.effect
    tree = state.tree
    player = player_id(state)
    # the object the effect acts on, where it names one
    target = _target(eff.slot, eff.obj, objects, 1)
    node = tree.nodes.get(target)
    after: WorldState | None = None

    def edit() -> WorldState:
        nonlocal after
        if after is None:
            after = state.copy()
        return after

    def fail(default: str) -> tuple[str, None]:
        return rule.failure_text or default, None

    def success(default: str) -> tuple[str, WorldState]:
        text = default if rule.text is None else _fmt(rule.text, tree, objects)
        return text, after or state.fork()

    if eff.kind == "move-player":
        room = player_room(state)
        passage = game.exits.get(room, {}).get(eff.direction or "")
        if passage is None:
            return fail("You can't go that way.")
        if passage.requires_open is not None:
            door = tree.nodes[passage.requires_open]
            if not door.has("open"):
                return fail(f"The {door.name} is closed.")
        edit().tree.reparent(player, passage.to)
        return success(render_room(edit(), game, passage.to))

    if eff.kind == "reparent-to-player":
        limit = game.inventory_limit
        carried = len(tree.children(player))
        if eff.slot is None and eff.obj is None:
            # sweep: take everything takeable in sight
            lines = []
            for obj in visible_objects(state, game):
                node = tree.nodes[obj]
                if not node.has("takeable") or tree.parent[obj] == player:
                    continue
                if limit is not None and carried >= limit:
                    lines.append("You're carrying too much already.")
                    break
                edit().tree.reparent(obj, player)
                carried += 1
                lines.append(f"{node.name}: Taken.")
            if not lines:
                return fail("There is nothing here to take.")
            return success(" ".join(lines))
        if tree.parent[target] == player:
            return fail("You already have that.")
        if not node.has("takeable"):
            return fail("You can't take that.")
        if limit is not None and carried >= limit:
            return fail("You're carrying too much already.")
        edit().tree.reparent(target, player)
        return success("Taken.")

    if eff.kind == "reparent-to-floor":
        if tree.parent[target] != player:
            return fail("You aren't carrying that.")
        edit().tree.reparent(target, player_room(state))
        return success("Dropped.")

    if eff.kind == "set-attribute":
        attr = eff.attr or ""
        if node.has(attr):
            return fail(f"The {node.name} is already {attr}." if attr in
                        ("open", "lit") else "Nothing happens.")
        if attr == "open":
            if not node.has("openable"):
                return fail("You can't open that.")
            if node.has("locked"):
                return fail(f"The {node.name} is locked.")
            edit().tree.set_attr(target, attr)
            inside = tree.children(target)
            if inside:
                return success(f"Opening the {node.name} reveals "
                               f"{_listing(tree, inside)}.")
            return success(f"You open the {node.name}.")
        if attr == "lit" and not node.has("lightsource"):
            return fail("You can't light that.")
        edit().tree.set_attr(target, attr)
        return success(f"You turn on the {node.name}." if attr == "lit"
                       else "Done.")

    if eff.kind == "clear-attribute":
        attr = eff.attr or ""
        if not node.has(attr):
            return fail("Nothing happens.")
        edit().tree.set_attr(target, attr, on=False)
        verb = {"open": "You close", "lit": "You turn off"}.get(attr)
        return success(f"{verb} the {node.name}." if verb else "Done.")

    if eff.kind == "unlock-with":
        key = _target(eff.slot2, None, objects, 2)
        if not node.has("locked"):
            return fail(f"The {node.name} isn't locked.")
        if key is None or node.key_id != key:
            return fail(f"The {tree.nodes[key].name} doesn't fit."
                        if key is not None else "Nothing to unlock with.")
        edit().tree.set_attr(target, "locked", on=False)
        return success(f"You unlock the {node.name} with "
                       f"the {tree.nodes[key].name}.")

    if eff.kind == "put-in":
        box = _target(eff.slot2, None, objects, 2)
        if box is None:
            return fail("Put it in what?")
        bnode = tree.nodes[box]
        if tree.parent[target] != player:
            return fail("You aren't carrying that.")
        if not bnode.has("container"):
            return fail(f"You can't put things in the {bnode.name}.")
        if bnode.has("openable") and not bnode.has("open"):
            return fail(f"The {bnode.name} is closed.")
        if bnode.capacity is not None and \
                len(tree.children(box)) >= bnode.capacity:
            return fail(f"There's no more room in the {bnode.name}.")
        if tree.in_subtree(box, target):
            return fail("You can't put something inside itself.")
        edit().tree.reparent(target, box)
        return success(f"You put the {node.name} in the {bnode.name}.")

    if eff.kind == "toggle-light":
        if not node.has("lightsource"):
            return fail("You can't light that.")
        lit = node.has("lit")
        edit().tree.set_attr(target, "lit", on=not lit)
        return success(f"You turn {'off' if lit else 'on'} the {node.name}.")

    if eff.kind == "emit-text":
        if eff.source == "literal":
            return success(eff.text or "")
        if eff.source == "room":
            return success(render_room(state, game))
        if eff.source == "inventory":
            return success(render_inventory(state, game))
        if eff.source == "object_text":
            return success(node.text or
                           f"You see nothing special about the {node.name}.")
        if eff.source == "object_read_text":
            if node.read_text is None:
                return fail(f"Nothing is written on the {node.name}.")
            return success(node.read_text)
        raise EngineError(f"unknown emit source '{eff.source}'")

    if eff.kind == "set-global":
        name = eff.name or ""
        old = state.globals.get(name, 0)
        after = state.fork()
        after.globals[name] = old + (eff.value or 0) if eff.add \
            else (eff.value or 0)
        return success("Done.")

    raise EngineError(f"unknown effect kind '{eff.kind}'")


# -- scoring -------------------------------------------------------------------


def _condition_holds(state: WorldState, game: GameDef,
                     cond: Condition | Precondition) -> bool:
    tree = state.tree
    kind = cond.kind
    if kind == "global_is":
        return state.globals.get(cond.name or "", 0) == (cond.value or 0)
    if kind == "global_ge":
        return state.globals.get(cond.name or "", 0) >= (cond.value or 0)
    if kind == "player_in":
        return player_room(state) == cond.room
    node = tree.nodes.get(cond.obj or -1)
    if node is None:
        return False
    if kind in ("has_attr", "lacks_attr"):
        return node.has(cond.attr or "") == (kind == "has_attr")
    if kind == "parent_is":
        return tree.parent[cond.obj] == cond.parent
    raise EngineError(f"unknown condition kind '{kind}'")


def _trigger_active(state: WorldState, game: GameDef, trigger: Trigger,
                    executed_rule: str | None) -> bool:
    if trigger.kind == "enter_room":
        return player_room(state) == trigger.room
    if trigger.kind == "acquire":
        return state.tree.in_subtree(trigger.obj or -1, player_id(state))
    if trigger.kind == "state_reached":
        return all(_condition_holds(state, game, c)
                   for c in trigger.conditions)
    if trigger.kind == "action_pattern":
        return executed_rule == trigger.rule
    raise EngineError(f"unknown trigger kind '{trigger.kind}'")


def _award_score(before: WorldState, after: WorldState, game: GameDef,
                 executed_rule: str) -> list[str]:
    """Fire edge-triggered score rules; mutates `after`. Returns notices.

    A trigger other than action_pattern reads only the tree and the globals,
    so a rule is skipped while both equal `before`'s (checked per rule: a
    latch set earlier in the pass changes the globals)."""
    notices = []
    same_tree = after.tree is before.tree
    for idx, sr in enumerate(game.score_rules):
        if same_tree and sr.trigger.kind != "action_pattern" and \
                after.globals == before.globals:
            continue
        latch = f"_fired:{idx}"
        if sr.once and after.globals.get(latch, 0):
            continue
        now = _trigger_active(after, game, sr.trigger, executed_rule)
        if not now:
            continue
        if sr.trigger.kind != "action_pattern" and \
                _trigger_active(before, game, sr.trigger, None):
            continue  # was already true; not an edge
        after.score += sr.points
        if sr.once:
            after.globals[latch] = 1
        if sr.ends:
            after.done = True
        if sr.points > 0:
            unit = "point" if sr.points == 1 else "points"
            notices.append(f"[Your score has just gone up by "
                           f"{sr.points} {unit}.]")
        elif sr.points < 0:
            unit = "point" if sr.points == -1 else "points"
            notices.append(f"[Your score has just gone down by "
                           f"{-sr.points} {unit}.]")
    if after.done:
        notices.append("*** The game has ended. ***")
    return notices


# -- top-level step ------------------------------------------------------------


def execute(state: WorldState, game: GameDef, text: str,
            ctx: Situation | None = None) -> CommandResult:
    """Run one command. Pure: returns a new state, never mutates the input.

    The moves counter increments exactly when the command is accepted, i.e.
    it parsed to a rule whose preconditions held and whose effect applied.
    Rejected commands return the input state object unchanged. `ctx`, a
    Situation of this same state and game, lets many commands share it and
    answers a command it has run before with the same CommandResult, so
    treat a returned state as read-only: copy it before editing.
    """
    if ctx is None:
        ctx = Situation(state, game)
    elif ctx.state is not state or ctx.game is not game:
        raise EngineError("the situation belongs to another state or game")
    result = ctx.results.get(text)
    if result is None:
        result = ctx.results[text] = _execute(ctx, text)
    return result


def _execute(ctx: Situation, text: str) -> CommandResult:
    state, game = ctx.state, ctx.game
    outcome, rule, ok = _parse(ctx, text)
    after = None
    if rule is None:
        text_out = MSG_UNRESOLVED if outcome is _UNRESOLVED \
            else MSG_UNPARSEABLE
    elif not ok:
        text_out = rule.failure_text or MSG_CANT
    else:
        text_out, after = _apply_effect(state, game, rule, outcome.objects)
    if after is None:
        return CommandResult(state, text_out, outcome, False, 0, _NO_DIFF)
    after.moves += 1
    notices = _award_score(state, after, game, rule.id)
    if notices:
        text_out = " ".join([text_out] + notices)
    return CommandResult(after, text_out, outcome, True,
                         after.score - state.score, state_diff(state, after))
