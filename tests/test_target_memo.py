"""The target network's encoding memo and the bounded valid-action cache.

The learners encode each (GRU, token list) pair once per target-network
generation and read it from a memo after that. This is exact only because
every batch encoded into a memo has at least two rows, so a row does not
depend on what else is in its batch; these tests check that, check training
against learners that re-encode the target on every update, and count the
encodings.
"""

import numpy as np
import pytest

from helpers import reference_drrn_q_values, reference_tdqn_forward
from textquest import env as env_module
from textquest.agents import models, training
from textquest.agents.models import (CHANNELS, ModelConfig, drrn_init,
                                     encode_memo)
from textquest.agents.training import TrainConfig, evaluate, train
from textquest.records import LruCache


def tiny_cfg(**overrides) -> TrainConfig:
    """Small nets, and syncs that fall mid-run."""
    base = dict(agent="drrn", embed_dim=8, hidden_dim=8, q_hidden_dim=8,
                max_len=16, batch_size=8, warmup=16, update_every=2,
                target_sync=25, eps_decay_steps=100, max_env_steps=600,
                replay_capacity=2000, rolling_window=5)
    base.update(overrides)
    return TrainConfig(**base)


def outputs(game, result) -> dict:
    return {"curve": result.curve_text(),
            "params": {k: v.tobytes() for k, v in result.params.items()},
            "updates": result.updates, "env_steps": result.env_steps,
            "eval": evaluate(game, result, seed=5, episodes=3)}


# -- one-row rule -----------------------------------------------------------------


@pytest.mark.parametrize("dims", [(32, 64), (8, 8)])
def test_a_row_does_not_depend_on_its_batch(dims):
    embed, hidden = dims
    cfg = ModelConfig(vocab_size=40, embed_dim=embed, hidden_dim=hidden)
    rng = np.random.default_rng(21)
    params = drrn_init(rng, cfg)
    lists = [list(rng.integers(1, 40, size=rng.integers(0, 33)))
             for _ in range(24)]
    lists.append([])
    for name in [f"enc.{c}" for c in CHANNELS] + ["act"]:
        alone = [encode_memo(params, cfg, name, [tokens], {})
                 for tokens in lists]
        for size in range(2, len(lists) + 1):
            order = rng.permutation(len(lists))[:size]
            batch = encode_memo(params, cfg, name, [lists[i] for i in order],
                                {})
            for row, i in enumerate(order):
                assert np.array_equal(batch[row], alone[i][0]), (name, size)


def test_memo_rows_equal_fresh_rows():
    cfg = ModelConfig(vocab_size=30)
    rng = np.random.default_rng(5)
    params = drrn_init(rng, cfg)
    lists = [list(rng.integers(1, 30, size=rng.integers(1, 9)))
             for _ in range(12)]
    memo: dict = {}
    for start in range(0, 12, 3):
        chunk = lists[start:start + 5] + lists[:2]
        assert np.array_equal(encode_memo(params, cfg, "act", chunk, memo),
                              encode_memo(params, cfg, "act", chunk, {}))
    assert set(memo) == {("act", tuple(t)) for t in lists}


# -- training against learners that re-encode the target ----------------------------


@pytest.mark.parametrize("agent", ["drrn", "tdqn"])
@pytest.mark.parametrize("sync", [25, 0])
def test_training_equals_the_reencoding_reference(tinybox, monkeypatch,
                                                  agent, sync):
    cfg = tiny_cfg(agent=agent, target_sync=sync)
    got = outputs(tinybox, train(tinybox, cfg, seed=7))
    for module in (models, training):
        monkeypatch.setattr(module, "drrn_q_values", reference_drrn_q_values)
        monkeypatch.setattr(module, "tdqn_forward", reference_tdqn_forward)
    want = outputs(tinybox, train(tinybox, cfg, seed=7))
    assert got["updates"] > 2 * max(sync, 1)
    assert got == want


@pytest.mark.parametrize("agent", ["drrn", "tdqn"])
@pytest.mark.parametrize("sync", [25, 0])
def test_target_encodings_are_made_once_per_generation(tinybox, monkeypatch,
                                                       agent, sync):
    encoded = []  # (params, GRU name, rows as (length, embedded bytes))
    real_gru = models.gru_forward

    def spy_gru(params, name, x, mask):
        lengths = mask.sum(axis=1).astype(int)
        rows = [(n, x[b, :n].tobytes()) for b, n in enumerate(lengths)]
        if len(rows) == 2 and rows[1][0] == 0:
            # the one-row rule's padding; this also drops a real empty list
            # that was one of exactly two misses
            rows.pop()
        encoded.append((params, name, rows))
        return real_gru(params, name, x, mask)

    losses = []  # (target, memo, entries in the memo at the call)
    loss_name = f"{agent}_loss"
    real_loss = getattr(training, loss_name)

    def spy_loss(params, target, *args, memo=None, **kwargs):
        losses.append((target, memo, None if memo is None else len(memo)))
        return real_loss(params, target, *args, memo=memo, **kwargs)

    monkeypatch.setattr(models, "gru_forward", spy_gru)
    monkeypatch.setattr(training, loss_name, spy_loss)
    result = train(tinybox, tiny_cfg(agent=agent, target_sync=sync), seed=7)
    live = result.params

    assert len(losses) == result.updates
    if sync == 0:
        assert all(t is live and memo is None for t, memo, _ in losses)
        return
    generations = []  # [target, memo] in order of first use
    for target, memo, size in losses:
        assert target is not live
        if not generations or target is not generations[-1][0]:
            assert size == 0  # a new generation starts with an empty memo
            assert all(memo is not m for _, m in generations)
            generations.append((target, memo))
        else:
            assert memo is generations[-1][1]
    assert len(generations) == -(-result.updates // sync)

    seen: dict = {}
    for params, name, rows in encoded:
        if params is live:
            continue
        assert any(params is t for t, _ in generations)
        for row in rows:
            key = (id(params), name, row)
            assert key not in seen, f"{name} encoded twice in a generation"
            seen[key] = True
    assert seen


# -- bounded valid-action cache ----------------------------------------------------


@pytest.mark.parametrize("agent", ["drrn", "tdqn"])
def test_a_one_entry_valid_cache_trains_the_same(tinybox, monkeypatch, agent):
    envs: list = []
    real_env = training.Environment

    def spy_env(*args, **kwargs):
        envs.append(real_env(*args, **kwargs))
        return envs[-1]

    monkeypatch.setattr(training, "Environment", spy_env)
    runs, default = {}, env_module.VALID_CACHE_CAPACITY
    for capacity in (1, default):
        envs.clear()
        for module in (env_module, training):
            monkeypatch.setattr(module, "VALID_CACHE_CAPACITY", capacity)
        runs[capacity] = outputs(tinybox, train(tinybox, tiny_cfg(agent=agent),
                                                seed=8))
        caches = [e._cache for e in envs]
        assert all(isinstance(c, LruCache) and c.capacity == capacity
                   for c in caches)
        sizes = {len(c) for c in caches}
    assert max(sizes) > 1  # the default kept what capacity 1 evicted
    assert runs[1] == runs[default]
