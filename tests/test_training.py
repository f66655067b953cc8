"""Training harness: configs, curves, checkpoints, and the episode loop."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import rewrite_checkpoint
from textquest import load_bundled
from textquest.agents.training import (CANONICAL_ACTIONS, CHECKPOINT_VERSION,
                                       Checkpoint, CheckpointError,
                                       EpisodeRecord, TrainConfig,
                                       TrainResult, evaluate, load_checkpoint,
                                       result_from_checkpoint, run_random,
                                       save_checkpoint, train,
                                       write_learning_curve)
from textquest.env import Environment

TESTS = Path(__file__).resolve().parent


def tiny_cfg(**overrides) -> TrainConfig:
    """A config small enough to train in a couple of seconds."""
    base = dict(agent="drrn", embed_dim=8, hidden_dim=8, q_hidden_dim=8,
                max_len=16, batch_size=8, warmup=16, update_every=2,
                target_sync=25, eps_decay_steps=100, max_env_steps=250,
                replay_capacity=2000, rolling_window=5)
    base.update(overrides)
    return TrainConfig(**base)


# -- TrainConfig -------------------------------------------------------------------


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.agent == "drrn"
    assert cfg.gamma == 0.9
    assert cfg.lambda_mix == 0.5
    assert cfg.step_cap == 100
    assert cfg.early_stop_score is None
    assert cfg.max_seconds is None


def test_config_from_dict_round_trip():
    cfg = tiny_cfg(gamma=0.87)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="borked.*zork"):
        TrainConfig.from_dict({"gamma": 0.5, "zork": 1, "borked": 2})


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"agent": "tdqn", "lr": 0.01}),
                    encoding="utf-8")
    cfg = TrainConfig.from_json(str(path))
    assert cfg.agent == "tdqn"
    assert cfg.lr == 0.01
    assert cfg.gamma == 0.9  # untouched default


def test_config_with_overrides_coerces_types():
    cfg = TrainConfig()
    out = cfg.with_overrides(["agent=tdqn", "gamma=0.95",
                              "max_env_steps=500", "max_seconds=none",
                              "early_stop_score=4.5"])
    assert out.agent == "tdqn" and isinstance(out.agent, str)
    assert out.gamma == 0.95 and isinstance(out.gamma, float)
    assert out.max_env_steps == 500 and isinstance(out.max_env_steps, int)
    assert out.max_seconds is None
    assert out.early_stop_score == 4.5
    # the original is untouched
    assert cfg.agent == "drrn" and cfg.max_env_steps == 20_000


def test_config_with_overrides_rejects_bad_pairs():
    cfg = TrainConfig()
    with pytest.raises(ValueError, match="not key=value"):
        cfg.with_overrides(["gamma0.95"])
    with pytest.raises(ValueError, match="unknown config field"):
        cfg.with_overrides(["bogus=1"])


# -- curves and episode records ----------------------------------------------------


def fake_result(scores, cfg=None) -> TrainResult:
    cfg = cfg or TrainConfig()
    records = [EpisodeRecord(index=i + 1, env_steps=(i + 1) * 10,
                             ret=s, score=s, moves=7)
               for i, s in enumerate(scores)]
    return TrainResult(agent="random", config=cfg, model_config=None,
                       params=None, tokenizer=None, episodes=records,
                       env_steps=len(scores) * 10, updates=0,
                       wall_seconds=0.0, reached_step=None)


def test_curve_text_exact():
    result = fake_result([0, 2])
    assert result.curve_text() == (
        "episode,steps,return,score\n"
        "1,10,0,0\n"
        "2,20,2,2\n")


def test_write_learning_curve_bytes(tmp_path):
    result = fake_result([1, 0, 3])
    path = tmp_path / "curve.csv"
    write_learning_curve(str(path), result)
    assert path.read_bytes() == result.curve_text().encode("utf-8")


def test_rolling_mean():
    result = fake_result([0, 1, 2, 3])
    assert result.rolling_mean(window=2) == 2.5
    assert result.rolling_mean(window=100) == 1.5
    # window=None falls back to the config's rolling window
    result.config = dataclasses.replace(result.config, rolling_window=1)
    assert result.rolling_mean() == 3.0
    assert fake_result([]).rolling_mean() is None


# -- random rollouts ---------------------------------------------------------------


def test_run_random_deterministic(tinybox):
    a = run_random(tinybox, seed=9, episodes=4)
    b = run_random(tinybox, seed=9, episodes=4)
    assert a == b
    assert run_random(tinybox, seed=10, episodes=4) != a


def test_run_random_episode_accounting(tinybox):
    records = run_random(tinybox, seed=3, episodes=3)
    assert [r.index for r in records] == [1, 2, 3]
    for record in records:
        assert record.moves <= 100
        # reward is the score delta, so the return equals the final score
        assert record.ret == record.score
    steps = [r.env_steps for r in records]
    assert steps == sorted(steps) and steps[0] > 0


def test_run_random_stops_at_max_env_steps(tinybox):
    result = train(tinybox, tiny_cfg(agent="random", max_env_steps=5), seed=3)
    assert result.env_steps == 5
    # no episode ends within five steps, and unfinished ones are not recorded
    assert result.episodes == []


def test_run_random_respects_step_cap(tinybox):
    records = run_random(tinybox, seed=11, episodes=2, step_cap=20)
    assert all(r.moves <= 20 for r in records)
    assert all(0 <= r.score <= tinybox.max_score for r in records)
    assert set(CANONICAL_ACTIONS) >= {"look", "inventory", "take all"}


def test_train_random_result_shape(tinybox):
    cfg = tiny_cfg(agent="random", max_env_steps=1200)
    result = train(tinybox, cfg, seed=1)
    assert result.agent == "random"
    assert result.params is None and result.tokenizer is None
    assert result.updates == 0
    assert result.env_steps <= cfg.max_env_steps
    assert result.episodes
    again = train(tinybox, cfg, seed=1)
    assert again.curve_text() == result.curve_text()


def test_train_random_early_stop(tinybox):
    cfg = tiny_cfg(agent="random", rolling_window=3, early_stop_score=0.0,
                   max_env_steps=10_000)
    result = train(tinybox, cfg, seed=2)
    # every score is >= 0, so the target is met as soon as the window fills
    assert len(result.episodes) == 3
    assert result.reached_step == result.episodes[-1].env_steps


@pytest.mark.parametrize("agent", ["random", "drrn"])
def test_train_stops_when_time_is_up(tinybox, agent):
    cfg = tiny_cfg(agent=agent, max_seconds=0.0, max_env_steps=10_000)
    result = train(tinybox, cfg, seed=1)
    assert result.env_steps == 0 and result.episodes == []


@pytest.mark.parametrize("agent", ["drrn", "tdqn"])
def test_learners_stop_at_the_target(tinybox, agent):
    cfg = tiny_cfg(agent=agent, rolling_window=3, early_stop_score=0.0,
                   max_env_steps=10_000)
    result = train(tinybox, cfg, seed=2)
    # the round stops at the step that met the target
    assert len(result.episodes) == 3
    assert result.reached_step == result.episodes[-1].env_steps == \
        result.env_steps


def test_random_agent_has_no_checkpoint(tinybox, tmp_path):
    result = train(tinybox, tiny_cfg(agent="random"), seed=1)
    with pytest.raises(CheckpointError, match="no parameters"):
        save_checkpoint(str(tmp_path / "x.npz"), result)


# -- dispatcher --------------------------------------------------------------------


def test_train_dispatch_unknown_agent(tinybox):
    with pytest.raises(ValueError, match="unknown agent 'bogus'"):
        train(tinybox, tiny_cfg(agent="bogus"), seed=1)


# -- the learning agents, kept tiny ------------------------------------------------


@pytest.fixture(scope="module")
def drrn_result(tinybox_module):
    return train(tinybox_module, tiny_cfg(), seed=7)


@pytest.fixture(scope="module")
def tinybox_module():
    from textquest.gamedefs import parse_game
    from conftest import tinybox_dict
    return parse_game(tinybox_dict())


def test_train_drrn_smoke(drrn_result):
    cfg = drrn_result.config
    assert drrn_result.agent == "drrn"
    assert drrn_result.params is not None
    assert drrn_result.tokenizer is not None
    assert drrn_result.updates > 0
    assert drrn_result.env_steps <= cfg.max_env_steps
    assert drrn_result.episodes
    assert all(e.moves <= cfg.step_cap for e in drrn_result.episodes)
    assert drrn_result.model_config.hidden_dim == cfg.hidden_dim


def test_train_drrn_deterministic(tinybox_module, drrn_result):
    again = train(tinybox_module, tiny_cfg(), seed=7)
    assert again.curve_text() == drrn_result.curve_text()
    assert set(again.params) == set(drrn_result.params)
    for key, value in again.params.items():
        assert np.array_equal(value, drrn_result.params[key]), key


def test_train_tdqn_smoke(tinybox_module):
    result = train(tinybox_module, tiny_cfg(agent="tdqn"), seed=7)
    assert result.agent == "tdqn"
    assert result.params is not None
    assert result.updates > 0
    assert result.templates and result.words
    records = evaluate(tinybox_module, result, seed=5, episodes=1)
    assert len(records) == 1


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip(tinybox_module, drrn_result, tmp_path):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), drrn_result)
    ckpt = load_checkpoint(str(path))
    assert isinstance(ckpt, Checkpoint)
    assert ckpt.agent == "drrn"
    assert ckpt.train_config() == drrn_result.config
    assert ckpt.model_config() == drrn_result.model_config
    assert ckpt.meta["format_version"] == CHECKPOINT_VERSION
    assert ckpt.meta["env_steps"] == drrn_result.env_steps
    assert ckpt.meta["episodes"] == len(drrn_result.episodes)
    assert ckpt.meta["updates"] == drrn_result.updates
    assert tuple(ckpt.meta["templates"]) == drrn_result.templates
    assert set(ckpt.params) == set(drrn_result.params)
    for key, value in ckpt.params.items():
        assert np.array_equal(value, drrn_result.params[key]), key
    tok = ckpt.build_tokenizer()
    assert tok.encode("open box") == drrn_result.tokenizer.encode("open box")


def test_checkpoint_version_mismatch(drrn_result, tmp_path):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), drrn_result)
    stale = tmp_path / "stale.npz"
    rewrite_checkpoint(path, stale, lambda meta: meta.update(
        format_version=CHECKPOINT_VERSION + 1))
    with pytest.raises(CheckpointError, match="unsupported checkpoint"):
        load_checkpoint(str(stale))


@pytest.mark.parametrize("field, value", [("env_count", 0),
                                          ("rolling_window", 0),
                                          ("max_env_steps", -1),
                                          ("batch_size", "8")])
def test_checkpoint_rejects_out_of_range_train_config(drrn_result, tmp_path,
                                                      field, value):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), drrn_result)
    bad = tmp_path / "bad.npz"
    rewrite_checkpoint(path, bad, lambda meta: meta["train_config"].update(
        {field: value}))
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("field, value, message", [
    ("tokenizer_max_len", "x", "differs from max_len"),
    ("tokenizer_max_len", 2.5, "differs from max_len"),
    ("tokenizer_max_len", -5, "differs from max_len"),
    ("tokenizer_max_len", 17, "differs from max_len"),
    ("tokenizer_max_len", 16.0, "differs from max_len"),
    ("env_steps", 1.5, "mistyped checkpoint env_steps"),
    ("env_steps", -1, "mistyped checkpoint env_steps"),
    ("env_steps", True, "mistyped checkpoint env_steps"),
    ("updates", "3", "mistyped checkpoint updates"),
    ("updates", None, "mistyped checkpoint updates"),
    ("templates", "look", "mistyped checkpoint templates"),
    ("words", ["box", 1], "mistyped checkpoint words"),
    ("tokenizer_words", "abc", "mistyped checkpoint tokenizer_words")])
def test_checkpoint_rejects_mistyped_metadata(drrn_result, tmp_path, field,
                                              value, message):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), drrn_result)
    assert load_checkpoint(str(path)).meta["tokenizer_max_len"] == 16
    bad = tmp_path / "bad.npz"
    rewrite_checkpoint(path, bad, lambda meta: meta.update({field: value}))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("field, value", [("env_count", 0), ("step_cap", 0),
                                          ("batch_size", 0),
                                          ("rolling_window", -3),
                                          ("max_episode_issues", 0),
                                          ("max_env_steps", -1),
                                          ("env_count", None),
                                          ("replay_capacity", 0),
                                          ("hidden_dim", 0),
                                          ("update_every", 0), ("runs", 0),
                                          ("warmup", -1)])
def test_train_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    assert getattr(TrainConfig(max_env_steps=0), "max_env_steps") == 0


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("lr", float("nan")), ("lr", -1e-3), ("gamma", 1.5),
    ("tau", float("inf")), ("eps_start", -0.1), ("replay_eps", 0.0),
    ("lambda_mix", None), ("early_stop_score", float("nan")),
    ("max_seconds", -1.0), ("replay_beta0", True)])
def test_train_config_rejects_out_of_range_reals(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        TrainConfig(**{field: value})


def test_train_config_accepts_interval_ends():
    cfg = TrainConfig(gamma=1, eps_end=0.0, lambda_mix=1.0, replay_alpha=0,
                      max_seconds=0.0, early_stop_score=-2.5, target_sync=0,
                      warmup=0, eps_decay_steps=0)
    assert cfg.gamma == 1 and cfg.max_seconds == 0.0


def test_checkpoint_rejects_foreign_files(tmp_path):
    plain = tmp_path / "plain.npz"
    with open(plain, "wb") as fh:
        np.savez(fh, weights=np.zeros(3))
    with pytest.raises(CheckpointError, match="missing meta"):
        load_checkpoint(str(plain))
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"not a zip archive")
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(str(garbage))


@pytest.fixture(scope="module")
def drrn_checkpoint(drrn_result, tmp_path_factory):
    """A real DRRN checkpoint's bytes, and a path to write mutants to."""
    path = tmp_path_factory.mktemp("checkpoint") / "drrn.npz"
    save_checkpoint(str(path), drrn_result)
    return path.read_bytes(), path.with_name("mutant.npz")


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 255)),
                      min_size=1, max_size=4),
       cut=st.one_of(st.none(), st.integers(0, 2 ** 20)))
def test_mutated_checkpoint_raises_checkpoint_error_or_loads(
        drrn_checkpoint, edits, cut):
    original, path = drrn_checkpoint
    data = bytearray(original)
    for pos, value in edits:
        data[pos % len(data)] = value
    if cut is not None:
        data = data[:cut % len(data)]
    path.write_bytes(bytes(data))
    try:
        checkpoint = load_checkpoint(str(path))
    except CheckpointError:
        return
    assert all(np.isfinite(v).all() for v in checkpoint.params.values())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(drrn_result, tmp_path, bad):
    path, broken = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(str(path), drrn_result)
    embed = drrn_result.params["embed"].copy()
    embed[1, 2] = bad
    rewrite_checkpoint(path, broken, arrays={"p:embed": embed})
    with pytest.raises(CheckpointError, match="not all finite"):
        load_checkpoint(str(broken))


def test_result_from_checkpoint_evaluates_identically(tinybox_module,
                                                      drrn_result, tmp_path):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(str(path), drrn_result)
    rebuilt = result_from_checkpoint(tinybox_module,
                                     load_checkpoint(str(path)))
    assert rebuilt.agent == drrn_result.agent
    assert rebuilt.env_steps == drrn_result.env_steps
    fresh = evaluate(tinybox_module, rebuilt, seed=5, episodes=3)
    original = evaluate(tinybox_module, drrn_result, seed=5, episodes=3)
    assert fresh == original


def test_checkpoint_with_optimizer_state_loads_the_same(tinybox_module,
                                                       drrn_result, tmp_path):
    # Earlier checkpoints also stored Adam moments and RNG states; they are
    # ignored on load.
    plain, legacy = tmp_path / "plain.npz", tmp_path / "legacy.npz"
    save_checkpoint(str(plain), drrn_result)
    moments = {f"{kind}:{key}": np.full_like(value, 0.5)
               for key, value in drrn_result.params.items() for kind in "mv"}
    rewrite_checkpoint(plain, legacy, lambda meta: meta.update(
        adam={"t": 12, "lr": 1e-3, "beta1": 0.9, "beta2": 0.999,
              "eps": 1e-8},
        rng_states={"agent": 1, "replay": 2, "seed": 3}), arrays=moments)
    old, new = load_checkpoint(str(legacy)), load_checkpoint(str(plain))
    assert set(old.params) == set(new.params)
    for key, value in new.params.items():
        assert np.array_equal(old.params[key], value), key
    assert evaluate(tinybox_module,
                    result_from_checkpoint(tinybox_module, old), seed=5,
                    episodes=3) == \
        evaluate(tinybox_module, result_from_checkpoint(tinybox_module, new),
                 seed=5, episodes=3)


def test_tdqn_checkpoint_rejects_another_game(tinybox_module, tmp_path):
    result = train(tinybox_module, tiny_cfg(agent="tdqn", max_env_steps=20),
                   seed=1)
    path = tmp_path / "tdqn.npz"
    save_checkpoint(str(path), result)
    checkpoint = load_checkpoint(str(path))
    assert result_from_checkpoint(tinybox_module, checkpoint).templates == \
        result.templates
    with pytest.raises(CheckpointError, match="another game"):
        result_from_checkpoint(load_bundled("mailhouse"), checkpoint)


# -- evaluation --------------------------------------------------------------------


def test_evaluate_deterministic(tinybox_module, drrn_result):
    a = evaluate(tinybox_module, drrn_result, seed=5, episodes=3)
    b = evaluate(tinybox_module, drrn_result, seed=5, episodes=3)
    assert a == b
    assert len(a) == 3
    assert all(r.moves <= drrn_result.config.step_cap for r in a)


def test_evaluate_random_delegates_to_rollouts(tinybox):
    cfg = tiny_cfg(agent="random", max_env_steps=120)
    result = train(tinybox, cfg, seed=1)
    records = evaluate(tinybox, result, seed=6, episodes=4)
    assert records == run_random(tinybox, seed=6, episodes=4,
                                 step_cap=cfg.step_cap)


# -- the episode protocol ----------------------------------------------------------


@pytest.fixture
def protocol_ends(monkeypatch):
    """Spy on every Environment; yields the (env_steps, moves) of each
    episode that the protocol ends, in the order the steps happened."""
    ended = []
    run = {"steps": 0, "cfg": None}
    issues = {}
    reset, step = Environment.reset, Environment.step

    def spy_reset(env, seed=None):
        issues[id(env)] = 0
        return reset(env, seed=seed)

    def spy_step(env, text):
        result = step(env, text)
        run["steps"] += 1
        issues[id(env)] += 1
        cfg = run["cfg"]
        if result.done or result.moves >= cfg.step_cap or \
                issues[id(env)] >= cfg.max_episode_issues:
            ended.append((run["steps"], result.moves))
        return result

    def spy(cfg):
        """Start a new run under cfg's caps; returns the list it fills."""
        run.update(steps=0, cfg=cfg)
        ended.clear()
        return ended

    monkeypatch.setattr(Environment, "reset", spy_reset)
    monkeypatch.setattr(Environment, "step", spy_step)
    return spy


@pytest.mark.parametrize("agent", ["random", "drrn", "tdqn"])
def test_recorded_episodes_are_exactly_the_ended_ones(tinybox, agent,
                                                      protocol_ends):
    # a low issue cap and step cap make all three endings occur
    cfg = tiny_cfg(agent=agent, step_cap=6, max_episode_issues=9,
                   max_env_steps=300)
    ended = protocol_ends(cfg)
    result = train(tinybox, cfg, seed=3)
    assert [(e.env_steps, e.moves) for e in result.episodes] == ended
    assert len(ended) > 3 and result.env_steps == cfg.max_env_steps

    ended = protocol_ends(cfg)
    records = evaluate(tinybox, result, seed=4, episodes=5)
    assert [(e.env_steps, e.moves) for e in records] == ended
    assert len(records) == 5


def test_run_random_records_only_ended_episodes(tinybox, protocol_ends):
    ended = protocol_ends(TrainConfig(step_cap=20))
    records = run_random(tinybox, seed=5, episodes=4, step_cap=20)
    assert [(e.env_steps, e.moves) for e in records] == ended
    assert len(records) == 4


def test_evaluate_never_stops_early(tinybox_module, drrn_result):
    cfg = dataclasses.replace(drrn_result.config, early_stop_score=0.0,
                              rolling_window=1)
    eager = dataclasses.replace(drrn_result, config=cfg)
    assert evaluate(tinybox_module, eager, seed=5, episodes=3) == \
        evaluate(tinybox_module, drrn_result, seed=5, episodes=3)
    random_result = fake_result([0], cfg)
    assert len(evaluate(tinybox_module, random_result, seed=5,
                        episodes=3)) == 3


# -- outputs that depend on the seed alone ------------------------------------------


def seeded_digests() -> dict[str, str]:
    """Digests of a tiny mailhouse DRRN run (curve and parameters) and of a
    40-turn explore-style walk (observations and valid-action sets, with
    saves, loads and revisits), all at fixed seeds."""
    game = load_bundled("mailhouse")
    result = train(game, tiny_cfg(max_env_steps=120), seed=11)
    params = hashlib.blake2b(digest_size=16)
    for key in sorted(result.params):
        params.update(key.encode())
        params.update(result.params[key].tobytes())
    rng = random.Random(11)
    env = Environment(game)
    env.reset(seed=11)
    observations, valid, saves = [], [], []
    for _ in range(40):
        if env.done:
            env.reset(seed=11)
        observations.append(env.observation().channels())
        actions = env.identify_valid_actions()
        valid.append((actions.surfaces, actions.diff_hashes))
        env.step(rng.choice(actions.surfaces or CANONICAL_ACTIONS))
        saves.append(env.save())
        if rng.random() < 0.2:
            env.load(rng.choice(saves))

    def digest(value) -> str:
        return hashlib.blake2b(repr(value).encode(),
                               digest_size=16).hexdigest()

    return {"curve": digest(result.curve_text()),
            "params": params.hexdigest(),
            "observations": digest(observations), "valid": digest(valid)}


def test_outputs_do_not_depend_on_the_string_hash_seed():
    """The per-process string hash seed must not reach a training run or an
    observation: every process with the same seeds gives the same digests."""
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(TESTS.parent / "src"), str(TESTS)]))
        run = subprocess.run(
            [sys.executable, "-c", "import json, test_training; "
             "print(json.dumps(test_training.seeded_digests()))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]
