"""Grammar rules, action templates, and action-space arithmetic.

A grammar rule couples a surface pattern ("unlock OBJ with OBJ") to an engine
effect. Collapsing every OBJ slot to an underscore gives the rule's template
("unlock _ with _"); the set of distinct templates crossed with the
vocabulary is the agent-facing action space.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .records import fast_init

SLOT = "OBJ"
BLANK = "_"

_WORD_RE = re.compile(r"[a-z0-9']+")

EFFECT_KINDS = (
    "move-player",
    "reparent-to-player",
    "reparent-to-floor",
    "set-attribute",
    "clear-attribute",
    "unlock-with",
    "put-in",
    "toggle-light",
    "emit-text",
    "set-global",
)

PRECONDITION_KINDS = (
    "carried",
    "not_carried",
    "in_room",
    "has_attr",
    "lacks_attr",
    "key_matches",
    "inventory_has_room",
    "capacity_ok",
    "not_dark",
    "visible",
    "global_is",
    "global_ge",
    "player_in",
)

# selectors for emit-text
EMIT_SOURCES = ("literal", "room", "inventory", "object_text",
                "object_read_text")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; punctuation separates, apostrophes survive."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Effect:
    """A named engine effect plus its arguments.

    `slot` refers to a pattern blank (1 or 2); `obj` names a literal object
    id, for rules that act on something other than what the player typed.
    """

    kind: str
    slot: int | None = None
    slot2: int | None = None  # second object for put-in / unlock-with
    obj: int | None = None
    attr: str | None = None
    direction: str | None = None
    source: str | None = None
    text: str | None = None
    name: str | None = None
    value: int | None = None
    add: bool = False  # set-global: add to the counter instead of assigning


@dataclass(frozen=True)
class Precondition:
    kind: str
    slot: int | None = None
    slot2: int | None = None
    obj: int | None = None
    attr: str | None = None
    name: str | None = None
    value: int | None = None
    room: int | None = None


@dataclass(frozen=True)
class GrammarRule:
    """One verb pattern the parser accepts."""

    id: str
    pattern: str
    effect: Effect
    preconditions: tuple[Precondition, ...] = ()
    text: str | None = None
    failure_text: str | None = None

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.pattern.split())

    @property
    def blanks(self) -> int:
        return sum(1 for t in self.tokens if t == SLOT)

    @property
    def template(self) -> str:
        return " ".join(BLANK if t == SLOT else t for t in self.tokens)


@dataclass(frozen=True)
class Template:
    """A rule pattern with object slots collapsed to blanks."""

    surface: str
    blanks: int
    rule_ids: tuple[str, ...]

    def __str__(self) -> str:
        return self.surface


@dataclass(frozen=True)
class ActionCandidate:
    """A template with its blanks filled; `surface` is what gets typed."""

    template: Template
    fillers: tuple[str, ...]
    surface: str


@dataclass(frozen=True)
class Vocabulary:
    """Sorted unique word list the grammar understands."""

    words: tuple[str, ...]
    index: dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        self.index.update({w: i for i, w in enumerate(self.words)})

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index


class ParseKind(enum.Enum):
    RESOLVED = "resolved"
    UNRESOLVED = "unresolved"
    UNPARSEABLE = "unparseable"


@fast_init
@dataclass(frozen=True)
class ParseOutcome:
    """Result of parsing one command against a state.

    RESOLVED carries the chosen rule and the bound object ids. UNRESOLVED
    means some pattern matched but a noun did not name a visible object.
    UNPARSEABLE means no pattern matched at all.
    """

    kind: ParseKind
    rule_id: str | None = None
    objects: tuple[int, ...] = ()


def extract_templates(rules: Sequence[GrammarRule]) -> tuple[Template, ...]:
    """Distinct templates over a rule list, sorted by surface."""
    grouped: dict[str, list[str]] = {}
    blanks: dict[str, int] = {}
    for rule in rules:
        grouped.setdefault(rule.template, []).append(rule.id)
        blanks[rule.template] = rule.blanks
    return tuple(
        Template(surface=s, blanks=blanks[s], rule_ids=tuple(grouped[s]))
        for s in sorted(grouped))


def fill_template(template: Template, *fillers: str) -> ActionCandidate:
    """Substitute blanks left to right; arity must match exactly."""
    if len(fillers) != template.blanks:
        raise ValueError(
            f"template '{template.surface}' takes {template.blanks} "
            f"filler(s), got {len(fillers)}")
    words = []
    queue = list(fillers)
    for token in template.surface.split():
        words.append(queue.pop(0) if token == BLANK else token)
    return ActionCandidate(template=template, fillers=tuple(fillers),
                           surface=" ".join(words))


def enumerate_candidates(
    templates: Sequence[Template],
    objects: Sequence[str],
    include_self_pairs: bool = False,
) -> Iterator[ActionCandidate]:
    """Every filled action, in canonical order.

    Order is template order, then filler order as given (pass a sorted object
    list for a canonical enumeration). Two-blank templates take ordered pairs
    of distinct fillers unless `include_self_pairs` is set.
    """
    for template in templates:
        if template.blanks == 0:
            yield fill_template(template)
        elif template.blanks == 1:
            for w in objects:
                yield fill_template(template, w)
        elif template.blanks == 2:
            for w1 in objects:
                for w2 in objects:
                    if w1 == w2 and not include_self_pairs:
                        continue
                    yield fill_template(template, w1, w2)
        else:
            raise ValueError(
                f"template '{template.surface}' has {template.blanks} blanks;"
                " at most 2 are supported")


def action_space_size(templates: Sequence[Template], vocab_size: int) -> int:
    """Sum of vocab^blanks over templates (exact ints, no wraparound)."""
    if vocab_size < 0:
        raise ValueError("vocabulary size cannot be negative")
    return sum(vocab_size ** t.blanks for t in templates)


def template_space_upper_bound(num_templates: int, vocab_size: int) -> int:
    """Bound that treats every template as two-blank: |T| * n^2."""
    if num_templates < 0 or vocab_size < 0:
        raise ValueError("counts cannot be negative")
    return num_templates * vocab_size * vocab_size


def free_form_space_size(vocab_size: int, max_words: int) -> int:
    """Size of the unconstrained space: n^k strings of exactly k words."""
    if vocab_size < 0 or max_words < 0:
        raise ValueError("counts cannot be negative")
    return vocab_size ** max_words


def build_vocabulary(rules: Sequence[GrammarRule],
                     object_names: Iterable[str]) -> Vocabulary:
    """Words from every rule pattern literal plus every object name token."""
    words: set[str] = set()
    for rule in rules:
        for token in rule.tokens:
            if token != SLOT:
                words.update(tokenize(token))
    for name in object_names:
        words.update(tokenize(name))
    return Vocabulary(words=tuple(sorted(words)))
