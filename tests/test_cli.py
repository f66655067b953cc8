"""CLI subcommands and the exit-code contract (0 ok, 1 failure, 2 input)."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import tinybox_dict
from helpers import rewrite_checkpoint
from textquest.agents.training import TrainConfig, save_checkpoint, train
from textquest.cli import FAILURE, INPUT_ERROR, OK, main
from textquest.gamedefs import parse_game

DRRN_SETTINGS = ["--set", "runs=1", "--set", "max_env_steps=150",
                 "--set", "warmup=16", "--set", "batch_size=8",
                 "--set", "embed_dim=8", "--set", "hidden_dim=8",
                 "--set", "q_hidden_dim=8", "--set", "update_every=2",
                 "--set", "max_len=16", "--set", "rolling_window=5"]


@pytest.fixture
def tinybox_path(tmp_path):
    path = tmp_path / "tinybox.game.json"
    path.write_text(json.dumps(tinybox_dict()), encoding="utf-8")
    return str(path)


def test_exit_code_constants():
    assert (OK, FAILURE, INPUT_ERROR) == (0, 1, 2)


def test_missing_game_is_input_error(capsys):
    assert main(["templates", "nosuchgame"]) == INPUT_ERROR
    assert "error: cannot load game" in capsys.readouterr().err


def test_templates_lists_counts_and_bound(capsys):
    assert main(["templates", "brasskey"]) == OK
    out = capsys.readouterr().out
    assert "templates, vocabulary" in out
    assert "action space (vocab fillings):" in out
    assert "upper bound |T| * |V|^2:" in out
    assert "blanks=" in out and "rules=" in out


def test_play_repl_meta_commands(tinybox_path, capsys, monkeypatch):
    script = ":tree\n:valid\n:save\nopen box\n:load\n:oops\nquit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert main(["play", tinybox_path, "--seed", "1"]) == OK
    out = capsys.readouterr().out
    assert "tinybox (seed 1, max score 2)" in out
    assert "10: player (player)" in out         # :tree
    assert "open box" in out                    # :valid listing
    assert "state saved." in out
    assert "state restored." in out
    assert "meta-commands: :tree :valid :save :load :quit" in out
    assert out.rstrip().endswith("Score 0")     # :load undid the open


def test_play_announces_entropy_when_seed_omitted(tinybox_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["play", tinybox_path]) == OK
    assert "note: --seed not given" in capsys.readouterr().out


def test_train_random_writes_artifacts(tinybox_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    rc = main(["train", tinybox_path, "--agent", "random", "--seed", "3",
               "--out", str(out_dir), "--set", "runs=2",
               "--set", "max_env_steps=200"])
    assert rc == OK
    for seed in (3, 4):
        curve = out_dir / f"curve_seed{seed}.csv"
        assert curve.read_text(encoding="utf-8").startswith(
            "episode,steps,return,score\n")
    summary = json.loads((out_dir / "summary.json").read_text("utf-8"))
    assert summary["agent"] == "random"
    assert summary["max_score"] == 2
    assert len(summary["runs"]) == 2
    assert all(run["checkpoint"] is None for run in summary["runs"])
    assert summary["config"]["max_env_steps"] == 200
    assert "mean final rolling score" in capsys.readouterr().out


def test_train_then_eval_checkpoint(tinybox_path, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    rc = main(["train", tinybox_path, "--agent", "drrn", "--seed", "5",
               "--out", str(out_dir)] + DRRN_SETTINGS)
    assert rc == OK
    ckpt = out_dir / "checkpoint_seed5.npz"
    assert ckpt.exists()
    summary = json.loads((out_dir / "summary.json").read_text("utf-8"))
    assert summary["runs"][0]["checkpoint"] == str(ckpt)
    capsys.readouterr()

    rc = main(["eval", tinybox_path, "--checkpoint", str(ckpt),
               "--episodes", "2", "--seed", "1"])
    assert rc == OK
    out = capsys.readouterr().out
    assert "episode 1: score" in out
    assert "drrn on tinybox: mean" in out


def test_eval_rejects_unreadable_checkpoint(tinybox_path, tmp_path, capsys):
    bogus = tmp_path / "bogus.npz"
    bogus.write_bytes(b"not an archive")
    assert main(["eval", tinybox_path, "--checkpoint", str(bogus),
                 "--seed", "1"]) == INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_version_mismatch(tinybox_path, tmp_path, capsys):
    stale = tmp_path / "stale.npz"
    with open(stale, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps({"format_version": 99})))
    assert main(["eval", tinybox_path, "--checkpoint", str(stale),
                 "--seed", "1"]) == INPUT_ERROR
    assert "unsupported checkpoint version" in capsys.readouterr().err


def _saved_checkpoint(tmp_path, agent):
    cfg = TrainConfig(agent=agent, embed_dim=4, hidden_dim=4, q_hidden_dim=4,
                      max_len=8, env_count=2, max_env_steps=10)
    path = tmp_path / f"{agent}.npz"
    save_checkpoint(str(path), train(parse_game(tinybox_dict()), cfg, seed=1))
    return path


def _drop(key):
    def edit(meta):
        del meta[key]
    return edit


@pytest.mark.parametrize("edit, drop", [
    (lambda meta: "{not json", ()),
    (lambda meta: [1, 2], ()),
    (_drop("agent"), ()),
    (_drop("model_config"), ()),
    (lambda meta: meta["train_config"].update(zork=1), ()),
    (lambda meta: meta["model_config"].update(zork=1), ()),
    (lambda meta: meta.update(agent="bogus"), ()),
    (None, ("p:embed",)),
], ids=["not-json", "json-list", "no-agent", "no-model-config",
        "unknown-train-field", "unknown-model-field", "bogus-agent",
        "no-embed-array"])
def test_eval_rejects_malformed_checkpoint_metadata(tinybox_path, tmp_path,
                                                    capsys, edit, drop):
    bad = tmp_path / "bad.npz"
    rewrite_checkpoint(_saved_checkpoint(tmp_path, "drrn"), bad, edit,
                       drop=drop)
    assert main(["eval", tinybox_path, "--checkpoint", str(bad),
                 "--seed", "1"]) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_rejects_damaged_checkpoint_bytes(tinybox_path, tmp_path,
                                               capsys):
    path = _saved_checkpoint(tmp_path, "drrn")
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # inside a stored array: a CRC mismatch
    path.write_bytes(bytes(data))
    assert main(["eval", tinybox_path, "--checkpoint", str(path),
                 "--seed", "1"]) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_rejects_tdqn_checkpoint_from_another_game(tmp_path, capsys):
    path = _saved_checkpoint(tmp_path, "tdqn")
    assert main(["eval", "mailhouse", "--checkpoint", str(path),
                 "--seed", "1"]) == INPUT_ERROR
    assert "trained on another game" in capsys.readouterr().err


def test_train_rejects_malformed_config(tinybox_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert main(["train", tinybox_path, "--config", str(cfg),
                 "--seed", "1"]) == INPUT_ERROR
    assert "bad config file" in capsys.readouterr().err


def test_train_rejects_unknown_override(tinybox_path, capsys):
    assert main(["train", tinybox_path, "--seed", "1",
                 "--set", "bogus=1"]) == INPUT_ERROR
    assert "unknown config field" in capsys.readouterr().err


def test_train_rejects_unknown_agent_from_config(tinybox_path, tmp_path,
                                                 capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"agent": "alien"}), encoding="utf-8")
    assert main(["train", tinybox_path, "--config", str(cfg),
                 "--seed", "1"]) == INPUT_ERROR
    assert "unknown agent 'alien'" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["env_count=0", "step_cap=0",
                                      "batch_size=-1", "rolling_window=0",
                                      "max_episode_issues=0",
                                      "max_env_steps=-5", "env_count=none",
                                      "replay_capacity=0", "hidden_dim=0",
                                      "update_every=0", "runs=0"])
def test_train_rejects_out_of_range_override(tinybox_path, override, capsys):
    assert main(["train", tinybox_path, "--agent", "drrn", "--seed", "1",
                 "--set", override]) == INPUT_ERROR
    name = override.partition("=")[0]
    assert f"error: {name} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["max_env_steps=1e3", "lr=abc",
                                      "early_stop_score=x"])
def test_train_names_the_field_of_an_unreadable_override(tinybox_path,
                                                         override, capsys):
    assert main(["train", tinybox_path, "--agent", "drrn", "--seed", "1",
                 "--set", override]) == INPUT_ERROR
    name, _, raw = override.partition("=")
    err = capsys.readouterr().err
    assert f"error: {name}: " in err and repr(raw) in err


@pytest.mark.parametrize("agent, override", [
    ("drrn", "tau=0"), ("drrn", "lr=nan"), ("drrn", "gamma=2"),
    ("tdqn", "lambda_mix=inf"), ("drrn", "max_seconds=-1")])
def test_train_rejects_out_of_range_real_override(tinybox_path, agent,
                                                  override, capsys):
    assert main(["train", tinybox_path, "--agent", agent, "--seed", "1",
                 "--set", override]) == INPUT_ERROR
    name = override.partition("=")[0]
    assert f"error: {name} must be a finite number" in \
        capsys.readouterr().err


def test_play_rejects_mistyped_game_file(tmp_path, capsys):
    data = tinybox_dict()
    data["objects"][2]["attributes"] = 7
    path = tmp_path / "bad.game.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["play", str(path), "--seed", "1"]) == INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error:") and "attributes" in line
               for line in err)


def test_valid_actions_with_do_prefix(tinybox_path, capsys):
    rc = main(["valid-actions", tinybox_path, "--seed", "0",
               "--do", "open box"])
    assert rc == OK
    out = capsys.readouterr().out
    assert "> open box" in out
    assert "valid actions (" in out
    assert "take egg" in out
    # every listing line carries the 16-hex world-diff fingerprint
    listing = out.split("valid actions")[1].splitlines()[1:]
    assert listing and all("diff" in line for line in listing)


def test_valid_actions_dedup_flag(tinybox_path, capsys):
    assert main(["valid-actions", tinybox_path, "--dedup"]) == OK
    assert "valid actions (" in capsys.readouterr().out


def test_bench_report_write_and_check(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["bench", "--games", "brasskey,packrat", "--episodes", "2",
               "--seed", "9", "--out", str(report_path)])
    assert rc == OK
    assert "wrote" in capsys.readouterr().out
    data = json.loads(report_path.read_text("utf-8"))
    assert [row["game"] for row in data["rows"]] == ["brasskey", "packrat"]

    assert main(["bench", "--check", str(report_path)]) == OK
    assert "report ok: 2 rows" in capsys.readouterr().out

    data["version"] = 99
    del data["rows"][0]["handicaps"]
    report_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["bench", "--check", str(report_path)]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert "schema: version must be 1" in err
    assert "handicap disclosure is mandatory" in err


def test_bench_check_unreadable_report(tmp_path, capsys):
    assert main(["bench", "--check", str(tmp_path / "nope.json")]) == \
        INPUT_ERROR
    assert "cannot read report" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"[1]", "schema: a report must be a JSON object"),
    (b'{"version": 1, "rows": [5], "aggregate": {}}',
     "schema: rows[0]: a row must be a JSON object"),
    (b'{"version": 1, "rows": "\xff"}', "error: cannot read report"),
    (b'{"version": 1, "rows": [{"game": "g", "agent": "random", '
     b'"handicaps": [], "runs": 1, "mean_score": 0, "std_score": 0, '
     b'"max_score": 1}], "aggregate": {"normalized_completion": "x", '
     b'"negatives": "clip"}}',
     "schema: aggregate.normalized_completion must be a number"),
], ids=["list-report", "number-row", "non-utf8", "text-completion"])
def test_bench_check_malformed_report(tmp_path, capsys, content, message):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    assert main(["bench", "--check", str(path)]) == INPUT_ERROR
    assert message in capsys.readouterr().err.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["bench", "--episodes", "0"], ["bench", "--episodes", "-3"],
    ["bench", "--episodes", "two"], ["eval", "x", "--checkpoint", "c",
                                     "--episodes", "0"]])
def test_episode_counts_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "1"])
    assert exit_info.value.code == INPUT_ERROR
    assert "--episodes: must be a positive integer" in \
        capsys.readouterr().err


def test_bench_check_rejects_nan(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["bench", "--games", "brasskey", "--episodes", "1",
                 "--seed", "3", "--out", str(path)]) == OK
    capsys.readouterr()
    data = json.loads(path.read_text("utf-8"))
    data["aggregate"]["normalized_completion"] = float("nan")
    path.write_text(json.dumps(data), encoding="utf-8")  # writes NaN
    assert main(["bench", "--check", str(path)]) == INPUT_ERROR
    assert "normalized_completion must be a number" in \
        capsys.readouterr().err


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_bench_check_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    assert main(["bench", "--check", str(path)]) == INPUT_ERROR
    assert "cannot read report" in capsys.readouterr().err


def test_train_rejects_deeply_nested_config(tinybox_path, tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text(DEEP_JSON, encoding="utf-8")
    assert main(["train", tinybox_path, "--config", str(cfg),
                 "--seed", "1"]) == INPUT_ERROR
    assert "bad config file" in capsys.readouterr().err


def test_verify_rejects_deeply_nested_game_file(tmp_path, capsys):
    path = tmp_path / "deep.game.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    assert main(["verify", str(path)]) == INPUT_ERROR
    assert "nested too deeply" in capsys.readouterr().err


def test_verify_rejects_a_lone_surrogate(tmp_path, capsys):
    data = tinybox_dict()
    data["objects"][0]["text"] = "bad \udc80 text"
    path = tmp_path / "surrogate.game.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == INPUT_ERROR
    assert "objects[0].text: text with a lone surrogate" in \
        capsys.readouterr().err


def test_bench_prints_json_to_stdout(capsys):
    rc = main(["bench", "--games", "brasskey", "--episodes", "1",
               "--seed", "3"])
    assert rc == OK
    data = json.loads(capsys.readouterr().out)
    assert data["aggregate"]["negatives"] == "clip"
    assert data["protocol"]["seed"] == 3


def test_bench_unknown_game_is_input_error(capsys):
    assert main(["bench", "--games", "atlantis", "--seed", "1"]) == \
        INPUT_ERROR
    assert "cannot load game 'atlantis'" in capsys.readouterr().err


def test_verify_all_bundled_walkthroughs(capsys):
    assert main(["verify"]) == OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(": ok," in line for line in lines)


def test_verify_single_game(capsys):
    assert main(["verify", "packrat"]) == OK
    out = capsys.readouterr().out
    assert out.count(": ok,") == 1


def test_verify_reports_failure(tmp_path, capsys):
    data = tinybox_dict()
    data["walkthrough"] = ["open box"]  # stops short of the egg
    path = tmp_path / "short.game.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == FAILURE
    assert "FAILED" in capsys.readouterr().out


def test_verify_rejects_non_utf8_game_file(tmp_path, capsys):
    path = tmp_path / "bad.game.json"
    path.write_bytes(json.dumps(tinybox_dict()).encode() + b"\xff")
    assert main(["verify", str(path)]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load game") and "utf-8" in err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "textquest",
                           "templates", "brasskey"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "upper bound" in proc.stdout
