"""Game-definition schema: decoding, validation, and round-trips."""

import copy
import json
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from textquest.engine import init_state
from textquest.gamedefs import (Exit, GameFileError, GameValidationError,
                                ScoreRule, _record, bundled_game_names,
                                load_bundled, load_game, parse_game,
                                save_game, serialize_game, validate)
from textquest.grammar import GrammarRule


# -- bundled games -------------------------------------------------------------------


def test_bundled_games_present():
    names = bundled_game_names()
    assert "mailhouse" in names
    assert len(names) >= 2


@pytest.mark.parametrize("name", bundled_game_names())
def test_bundled_games_load_clean(name):
    game = load_bundled(name)
    assert game.max_score > 0
    assert validate(game) == []  # bundled games carry no warnings
    assert game.walkthrough  # and each ships a walkthrough


def test_load_bundled_unknown_name():
    with pytest.raises(GameFileError, match="available"):
        load_bundled("no-such-game")


# -- file loading --------------------------------------------------------------------


def test_load_game_round_trip(tmp_path, tinybox):
    path = tmp_path / "tiny.game.json"
    save_game(tinybox, path)
    again = load_game(path)
    assert serialize_game(again) == serialize_game(tinybox)


def test_load_game_missing_file(tmp_path):
    with pytest.raises(GameFileError, match="cannot read"):
        load_game(tmp_path / "absent.game.json")


def test_load_game_reports_json_position(tmp_path):
    path = tmp_path / "broken.game.json"
    path.write_text('{\n  "title": "x",,\n}\n')
    with pytest.raises(GameFileError, match=r":2:\d+"):
        load_game(path)


def test_load_game_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.game.json"
    path.write_bytes(b'{"title": "caf\xe9\xff"}\n')
    with pytest.raises(GameFileError, match="cannot read game file"):
        load_game(path)


def test_load_game_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.game.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(GameFileError, match="nested too deeply"):
        load_game(path)


@pytest.mark.parametrize("where", ["objects[0].text", "exits[1]"])
def test_load_game_rejects_a_lone_surrogate(tmp_path, tinybox_data, where):
    data = copy.deepcopy(tinybox_data)
    if where == "exits[1]":
        data["exits"] = {"1": {"bad \udc80": 1}}
    else:
        data["objects"][0]["text"] = "bad \udc80 text"
    path = tmp_path / "surrogate.game.json"
    path.write_text(json.dumps(data))  # escaped as \udc80 in the file
    assert "\\udc80" in path.read_text()
    with pytest.raises(GameFileError,
                       match=re.escape(f".{where}: text with a lone")):
        load_game(path)


def test_load_game_rejects_non_object(tmp_path):
    path = tmp_path / "list.game.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(GameFileError, match="top level"):
        load_game(path)


def test_parse_rejects_future_format_version(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    data["format_version"] = 99
    with pytest.raises(GameFileError, match="format_version"):
        parse_game(data)


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_parse_requires_an_integer_format_version(tinybox_data, version):
    data = copy.deepcopy(tinybox_data)
    data["format_version"] = version
    with pytest.raises(GameFileError, match="unsupported format_version"):
        parse_game(data)


def test_parse_rejects_unknown_effect_field(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    data["grammar"][0]["effect"]["sparkle"] = True
    with pytest.raises(GameFileError, match="sparkle"):
        parse_game(data)


def test_parse_requires_title(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    del data["title"]
    with pytest.raises(GameFileError, match="title"):
        parse_game(data)


@pytest.mark.parametrize("where, value, message", [
    (("objects", 2, "attributes"), 1, r"objects\[2\]\.attributes: expected a list"),
    (("objects", 2, "names"), "box", r"objects\[2\]\.names: expected a list"),
    (("objects", 2, "id"), "11", r"objects\[2\]\.id: expected an integer"),
    (("objects", 2, "id"), True, r"objects\[2\]\.id: expected an integer"),
    (("objects", 2), [], r"objects\[2\]: expected an object"),
    (("grammar", 0, "effect"), None, r"grammar\[0\]\.effect: expected an"),
    (("grammar", 0, "effect", "slot"), "1", r"effect\.slot: expected an int"),
    (("grammar", 2, "preconditions", 0), "x", r"preconditions\[0\]: expected"),
    (("score_rules", 0, "trigger", "kind"), 1, r"trigger\.kind: expected a"),
    (("score_rules", 0, "points"), 1.5, r"points: expected an integer"),
    (("exits",), [], r"exits: expected an object"),
    (("traits",), {}, r"traits: expected a list"),
    (("title",), None, r"title: expected a string"),
])
def test_parse_rejects_mistyped_fields(tinybox_data, where, value, message):
    data = copy.deepcopy(tinybox_data)
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(GameFileError, match=message):
        parse_game(data)


@pytest.mark.parametrize("where, value, message", [
    (("objects",), {}, "<data>.objects: expected a list, got dict"),
    (("dark_rooms",), ["x"],
     "<data>.dark_rooms[0]: expected an integer, got str"),
    (("objects", 2), [], "<data>.objects[2]: expected an object, got list"),
    (("exits", "1"), [], "<data>.exits[1]: expected an object, got list"),
    (("objects", 2, "parent"), "x",
     "<data>.objects[2].parent: expected an integer, got str"),
])
def test_error_paths_join_every_step_with_a_dot(tinybox_data, where, value,
                                                message):
    data = copy.deepcopy(tinybox_data)
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(GameFileError) as err:
        parse_game(data)
    assert str(err.value) == message


@pytest.mark.parametrize("where, message", [
    ((), r"<data>: unknown game field\(s\) \['bogus'\]"),
    (("objects", 2), r"objects\[2\]: unknown object field"),
    (("grammar", 0), r"grammar\[0\]: unknown grammar rule field"),
    (("score_rules", 0), r"score_rules\[0\]: unknown score rule field"),
    (("score_rules", 0, "trigger"), r"trigger: unknown trigger field"),
])
def test_parse_rejects_unknown_fields(tinybox_data, where, message):
    data = copy.deepcopy(tinybox_data)
    node = data
    for key in where:
        node = node[key]
    node["bogus"] = 1
    with pytest.raises(GameFileError, match=message):
        parse_game(data)


def test_parse_rejects_unknown_exit_field(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    data["exits"] = {"1": {"north": {"to": 1, "door": 3}}}
    with pytest.raises(GameFileError,
                       match=r"exits\[1\]\.north: unknown exit field"):
        parse_game(data)


def test_parse_rejects_misspelt_attributes(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    obj = next(o for o in data["objects"] if "attributes" in o)
    obj["atributes"] = obj.pop("attributes")
    with pytest.raises(GameFileError, match="atributes"):
        parse_game(data)


def test_parse_rejects_non_integer_exit_room(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    data["exits"] = {"hall": {"north": 1}}
    with pytest.raises(GameFileError, match=r"exits\[hall\]"):
        parse_game(data)


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "1_0", "-0", "١"])
def test_parse_rejects_non_canonical_exit_room_keys(tinybox_data, key):
    data = copy.deepcopy(tinybox_data)
    data["exits"] = {"1": {"north": 1}, key: {"south": 1}}
    with pytest.raises(GameFileError, match=r"room key must be written"):
        parse_game(data)
    data["exits"] = {"1": {"north": 1}}
    assert parse_game(data).exits == {1: {"north": Exit(to=1)}}


def test_parse_allows_null_for_optional_fields(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    data["inventory_limit"] = None
    data["objects"][2]["key_id"] = None
    assert parse_game(data).inventory_limit is None


MAILHOUSE_JSON = json.loads(
    (resources.files("textquest") / "games" / "mailhouse.game.json")
    .read_text(encoding="utf-8"))


def _json_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


DELETE = object()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(_json_paths(MAILHOUSE_JSON))),
       st.sampled_from([None, 1, -1, 0, 2 ** 40, True, 1.5, "x", "", [], [1],
                        ["x"], {}, {"x": 1}, DELETE]))
@example(("grammar", 16, "effect", "value"), 0)  # a set-global to zero
def test_single_field_mutation_raises_only_documented_errors(where, value):
    data = copy.deepcopy(MAILHOUSE_JSON)
    node = data
    for key in where[:-1]:
        node = node[key]
    if value is DELETE:
        del node[where[-1]]
    else:
        node[where[-1]] = copy.deepcopy(value)
    try:
        game = parse_game(data)
    except (GameFileError, GameValidationError):
        return
    # a file that parses must also start and snapshot, and save and load
    init_state(game, 0).snapshot().restore()
    assert parse_game(serialize_game(game)) == game


def _record_keys(node, prefix=()):
    """Paths of every key of every record; exit tables map free-form
    directions, so their keys are not field names."""
    if isinstance(node, dict):
        for key, child in node.items():
            if prefix[-1:] != ("exits",) and prefix[-2:-1] != ("exits",):
                yield prefix + (key,)
            yield from _record_keys(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _record_keys(child, prefix + (i,))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_record_keys(MAILHOUSE_JSON))))
def test_renamed_field_is_rejected_with_its_path(where):
    data = copy.deepcopy(MAILHOUSE_JSON)
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1] + "x"] = node.pop(where[-1])
    with pytest.raises(GameFileError, match=f"{where[-1]}x"):
        parse_game(data)


def test_format_doc_examples_decode():
    doc = (Path(__file__).parents[1] / "docs" / "game-format.md").read_text(
        encoding="utf-8")
    rule, score_rule = (json.loads(block) for block in
                        re.findall(r"```json\n(.*?)```", doc, re.S))
    assert _record(GrammarRule, rule, "doc").effect.kind == "unlock-with"
    assert _record(ScoreRule, score_rule, "doc").trigger.obj == 15


# -- validation ----------------------------------------------------------------------


def broken(tinybox_data, mutate):
    data = copy.deepcopy(tinybox_data)
    mutate(data)
    with pytest.raises(GameValidationError) as err:
        parse_game(data)
    return err.value.problems


def test_validation_collects_all_errors(tinybox_data):
    def mutate(data):
        data["objects"][2]["attributes"] = ["glowing"]   # unknown attribute
        data["objects"][3]["parent"] = 999               # missing parent
        data["start_room"] = 555                         # not a room
    problems = broken(tinybox_data, mutate)
    assert len(problems) >= 3
    text = "\n".join(problems)
    assert "glowing" in text and "999" in text and "555" in text


def test_validation_reserved_id_zero(tinybox_data):
    problems = broken(tinybox_data,
                      lambda d: d["objects"].append(
                          {"id": 0, "names": ["ghost"], "kind": "item",
                           "parent": 1}))
    assert any("reserved" in p for p in problems)


def test_validation_attribute_dependencies(tinybox_data):
    problems = broken(
        tinybox_data,
        lambda d: d["objects"][3].update(attributes=["open"]))
    assert any("openable" in p for p in problems)


def test_validation_max_score_arithmetic(tinybox_data):
    problems = broken(tinybox_data, lambda d: d.update(max_score=17))
    assert any("max_score" in p for p in problems)


def test_validation_positive_rules_must_be_once(tinybox_data):
    problems = broken(tinybox_data,
                      lambda d: d["score_rules"][0].update(once=False))
    assert any("once" in p for p in problems)


def test_validation_reserved_global_prefix(tinybox_data):
    def mutate(data):
        data["grammar"].append({
            "id": "hex", "pattern": "hex",
            "effect": {"kind": "set-global", "name": "_secret", "value": 1}})
    problems = broken(tinybox_data, mutate)
    assert any("reserved" in p for p in problems)


def test_validation_effect_slot_range(tinybox_data):
    def mutate(data):
        data["grammar"].append({
            "id": "bad", "pattern": "wave OBJ",
            "effect": {"kind": "set-attribute", "attr": "open", "slot": 2}})
    problems = broken(tinybox_data, mutate)
    assert any("slot out of range" in p for p in problems)


def test_validation_exit_door_must_be_openable(tinybox_data):
    def mutate(data):
        data["exits"] = {"1": {"north": {"to": 1, "requires_open": 13}}}
    problems = broken(tinybox_data, mutate)
    assert any("not openable" in p for p in problems)


def test_validation_template_count_pin(tinybox_data):
    problems = broken(tinybox_data,
                      lambda d: d.update(expected_template_count=3))
    assert any("expected_template_count" in p for p in problems)


def test_validation_duplicate_rule_id(tinybox_data):
    def mutate(data):
        data["grammar"].append(dict(data["grammar"][0]))
    problems = broken(tinybox_data, mutate)
    assert any("duplicate rule id" in p for p in problems)


def test_warnings_on_sound_games(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    data.pop("walkthrough", None)
    game = parse_game(data)  # warnings never block parsing
    assert "no walkthrough recorded" in validate(game)


def test_warning_dark_rooms_without_trait(tinybox_data):
    data = copy.deepcopy(tinybox_data)
    data["dark_rooms"] = [1]
    game = parse_game(data)
    assert any("darkness trait" in w for w in validate(game))


# -- serialization -------------------------------------------------------------------


def test_serialize_is_json_and_stable(tinybox):
    blob = serialize_game(tinybox)
    text = json.dumps(blob, sort_keys=True)
    assert json.loads(text) == blob
    assert serialize_game(parse_game(blob)) == blob


def _with_zero_effect(data):
    data["grammar"][-1]["effect"]["value"] = 0


def _with_zero_precondition(data):
    data["grammar"][-1]["preconditions"].append(
        {"kind": "global_is", "name": "gong_strikes", "value": 0})


def _with_zero_condition(data):
    data["score_rules"].append(
        {"trigger": {"kind": "state_reached", "conditions": [
            {"kind": "global_is", "name": "gong_strikes", "value": 0}]},
         "points": 0})


@pytest.mark.parametrize("mutate", [_with_zero_effect,
                                    _with_zero_precondition,
                                    _with_zero_condition])
def test_zero_values_survive_save_and_load(tinybox_data, mutate, tmp_path):
    mutate(tinybox_data)
    game = parse_game(tinybox_data)
    assert parse_game(serialize_game(game)) == game
    path = tmp_path / "zero.game.json"
    save_game(game, path)
    assert load_game(path) == game


def test_serialize_omits_empty_fields(tinybox):
    blob = serialize_game(tinybox)
    assert "dark_rooms" not in blob
    assert "inventory_limit" not in blob


def test_gamedef_helpers(tinybox):
    assert tinybox.templates()
    assert len(tinybox.vocabulary()) > 0
