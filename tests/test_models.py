"""Value networks: gradient correctness, batching consistency, loss mixing."""

import numpy as np
import pytest

from helpers import (FD_REL_TOL, fd_worst_error, make_drrn_batch,
                     make_tdqn_batch, random_channels, random_tokens,
                     tiny_config)
from textquest.agents.models import (binary_cross_entropy, drrn_backward,
                                     drrn_init, drrn_loss, drrn_q_pairs,
                                     drrn_q_values, encode_observations,
                                     tdqn_forward, tdqn_init, tdqn_loss)
from textquest.agents.nn import copy_params, sigmoid


# -- gradient checks -----------------------------------------------------------------


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_drrn_loss_gradients_match_fd(seed):
    cfg = tiny_config()
    rng = np.random.default_rng(seed)
    params = drrn_init(rng, cfg)
    target = copy_params(drrn_init(rng, cfg))
    batch = make_drrn_batch(rng, cfg)

    def loss():
        return drrn_loss(params, target, cfg, batch, gamma=0.9)[0]

    _, grads, _ = drrn_loss(params, target, cfg, batch, gamma=0.9)
    worst = fd_worst_error(params, grads, loss)
    assert worst < FD_REL_TOL, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_tdqn_loss_gradients_match_fd(seed):
    cfg = tiny_config()
    rng = np.random.default_rng(seed)
    params = tdqn_init(rng, cfg, n_templates=4, n_words=6)
    target = copy_params(tdqn_init(rng, cfg, n_templates=4, n_words=6))
    batch = make_tdqn_batch(rng, cfg)

    def loss():
        return tdqn_loss(params, target, cfg, batch, gamma=0.9)[0]

    _, _, _, grads, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9)
    worst = fd_worst_error(params, grads, loss)
    assert worst < FD_REL_TOL, f"worst relative error {worst:.3e}"


# -- observation encoder -------------------------------------------------------------


def test_encoder_output_width_and_determinism():
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    params = drrn_init(rng, cfg)
    obs = [random_channels(rng, cfg.vocab_size) for _ in range(3)]
    a, _ = encode_observations(params, cfg, obs)
    b, _ = encode_observations(params, cfg, obs)
    assert a.shape == (3, cfg.obs_dim)
    assert np.array_equal(a, b)


def test_encoder_channels_are_independent():
    cfg = tiny_config()
    rng = np.random.default_rng(1)
    params = drrn_init(rng, cfg)
    base = ([1, 2], [3], [4, 5], [6])
    changed = ([1, 2], [3], [4, 5], [7])  # only the prev-action channel
    va, _ = encode_observations(params, cfg, [base])
    vb, _ = encode_observations(params, cfg, [changed])
    h = cfg.hidden_dim
    assert np.array_equal(va[0, :3 * h], vb[0, :3 * h])
    assert not np.array_equal(va[0, 3 * h:], vb[0, 3 * h:])


# -- DRRN batching -------------------------------------------------------------------


def test_drrn_q_values_matches_pairwise_scoring():
    cfg = tiny_config()
    rng = np.random.default_rng(2)
    params = drrn_init(rng, cfg)
    obs_list = [random_channels(rng, cfg.vocab_size) for _ in range(3)]
    act_lists = [[random_tokens(rng, cfg.vocab_size) for _ in range(k)]
                 for k in (2, 0, 3)]
    batched = drrn_q_values(params, cfg, obs_list, act_lists)
    assert [len(q) for q in batched] == [2, 0, 3]
    for i, acts in enumerate(act_lists):
        for j, act in enumerate(acts):
            single, _ = drrn_q_pairs(params, cfg, [obs_list[i]], [act])
            assert batched[i][j] == pytest.approx(single[0], rel=1e-12)


def test_drrn_q_values_all_empty():
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    params = drrn_init(rng, cfg)
    obs_list = [random_channels(rng, cfg.vocab_size)]
    out = drrn_q_values(params, cfg, obs_list, [[]])
    assert len(out) == 1 and out[0].size == 0


def test_drrn_backward_only_touches_existing_params():
    cfg = tiny_config()
    rng = np.random.default_rng(4)
    params = drrn_init(rng, cfg)
    q, cache = drrn_q_pairs(params, cfg,
                            [random_channels(rng, cfg.vocab_size)],
                            [random_tokens(rng, cfg.vocab_size)])
    grads = drrn_backward(params, cache, np.ones_like(q))
    assert set(grads) <= set(params)
    for key, grad in grads.items():
        assert grad.shape == params[key].shape


# -- per-batch dedupe of encoder inputs ---------------------------------------------


def _batch_with_repeats(rng, cfg):
    """A DRRN replay batch whose samples share observations and actions."""
    batch = make_drrn_batch(rng, cfg, size=5)
    for i in (2, 3, 4):
        batch[i]["obs"] = batch[i % 2]["obs"]
        batch[i]["act"] = batch[0]["act"]
    batch[4]["next_obs"] = batch[2]["next_obs"]
    batch[4]["next_acts"] = batch[2]["next_acts"] + batch[3]["next_acts"]
    return batch


def test_drrn_repeated_inputs_are_encoded_once():
    cfg = tiny_config()
    rng = np.random.default_rng(12)
    params = drrn_init(rng, cfg)
    batch = _batch_with_repeats(rng, cfg)
    _, cache = drrn_q_pairs(params, cfg, [s["obs"] for s in batch],
                            [s["act"] for s in batch])
    assert cache["act"]["ids"].shape[0] == 2
    for ccache in cache["obs"]["channels"]:
        assert ccache["ids"].shape[0] <= 2
        assert ccache["inverse"].tolist()[2:] == [0, 1, 0]


def test_drrn_q_with_repeats_matches_batch_of_one():
    cfg = tiny_config()
    rng = np.random.default_rng(13)
    params = drrn_init(rng, cfg)
    batch = _batch_with_repeats(rng, cfg)
    q, _ = drrn_q_pairs(params, cfg, [s["obs"] for s in batch],
                        [s["act"] for s in batch])
    lists = drrn_q_values(params, cfg, [s["next_obs"] for s in batch],
                          [s["next_acts"] for s in batch])
    for i, sample in enumerate(batch):
        single, _ = drrn_q_pairs(params, cfg, [sample["obs"]],
                                 [sample["act"]])
        assert q[i] == pytest.approx(single[0], rel=1e-12)
        alone = drrn_q_values(params, cfg, [sample["next_obs"]],
                              [sample["next_acts"]])[0]
        assert np.allclose(lists[i], alone, rtol=1e-12, atol=0.0)


def test_drrn_loss_with_repeats_matches_fd():
    cfg = tiny_config()
    rng = np.random.default_rng(14)
    params = drrn_init(rng, cfg)
    target = copy_params(drrn_init(rng, cfg))
    batch = _batch_with_repeats(rng, cfg)

    def loss():
        return drrn_loss(params, target, cfg, batch, gamma=0.9)[0]

    _, grads, _ = drrn_loss(params, target, cfg, batch, gamma=0.9)
    worst = fd_worst_error(params, grads, loss)
    assert worst < FD_REL_TOL, f"worst relative error {worst:.3e}"


def test_tdqn_loss_with_duplicate_observations_matches_fd():
    cfg = tiny_config()
    rng = np.random.default_rng(15)
    params = tdqn_init(rng, cfg, n_templates=4, n_words=6)
    target = copy_params(tdqn_init(rng, cfg, n_templates=4, n_words=6))
    batch = make_tdqn_batch(rng, cfg, size=4)
    batch[2]["obs"] = batch[3]["obs"] = batch[0]["obs"]
    batch[3]["next_obs"] = batch[1]["next_obs"]

    def loss():
        return tdqn_loss(params, target, cfg, batch, gamma=0.9)[0]

    _, _, _, grads, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9)
    worst = fd_worst_error(params, grads, loss)
    assert worst < FD_REL_TOL, f"worst relative error {worst:.3e}"


# -- DRRN loss semantics -------------------------------------------------------------


def test_drrn_terminal_targets_ignore_next_state():
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    params = drrn_init(rng, cfg)
    target = copy_params(params)
    sample = make_drrn_batch(rng, cfg, size=1)[0]
    sample["done"] = True
    sample["weight"] = 1.0
    q, _ = drrn_q_pairs(params, cfg, [sample["obs"]], [sample["act"]])
    loss, _, td_abs = drrn_loss(params, target, cfg, [sample], gamma=0.9)
    expected_delta = sample["reward"] - q[0]
    assert td_abs[0] == pytest.approx(abs(expected_delta), rel=1e-12)
    assert loss == pytest.approx(expected_delta ** 2, rel=1e-12)


def test_drrn_bootstrap_uses_max_over_candidates():
    cfg = tiny_config()
    rng = np.random.default_rng(6)
    params = drrn_init(rng, cfg)
    target = copy_params(drrn_init(rng, cfg))
    sample = make_drrn_batch(rng, cfg, size=1)[0]
    sample["done"] = False
    sample["weight"] = 1.0
    sample["next_acts"] = [random_tokens(rng, cfg.vocab_size)
                           for _ in range(4)]
    next_q = drrn_q_values(target, cfg, [sample["next_obs"]],
                           [sample["next_acts"]])[0]
    q, _ = drrn_q_pairs(params, cfg, [sample["obs"]], [sample["act"]])
    loss, _, td_abs = drrn_loss(params, target, cfg, [sample], gamma=0.9)
    expected = sample["reward"] + 0.9 * np.max(next_q) - q[0]
    assert td_abs[0] == pytest.approx(abs(expected), rel=1e-12)


def test_drrn_importance_weights_scale_loss():
    cfg = tiny_config()
    rng = np.random.default_rng(7)
    params = drrn_init(rng, cfg)
    target = copy_params(drrn_init(rng, cfg))
    sample = make_drrn_batch(rng, cfg, size=1)[0]
    sample["weight"] = 1.0
    base, _, _ = drrn_loss(params, target, cfg, [sample], gamma=0.9)
    sample["weight"] = 2.0
    doubled, _, _ = drrn_loss(params, target, cfg, [sample], gamma=0.9)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


# -- TDQN loss composition (the even mix) ----------------------------------------


def test_tdqn_total_is_even_mix_of_td_and_bce():
    cfg = tiny_config()
    rng = np.random.default_rng(8)
    params = tdqn_init(rng, cfg, n_templates=4, n_words=6)
    target = copy_params(tdqn_init(rng, cfg, n_templates=4, n_words=6))
    batch = make_tdqn_batch(rng, cfg)
    total, td, bce, _, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9)
    assert abs(total - (0.5 * td + 0.5 * bce)) < 1e-10
    assert td > 0 and bce > 0


def test_tdqn_lambda_mix_endpoints():
    cfg = tiny_config()
    rng = np.random.default_rng(9)
    params = tdqn_init(rng, cfg, n_templates=4, n_words=6)
    target = copy_params(params)
    batch = make_tdqn_batch(rng, cfg)
    total0, td0, _, _, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9,
                                     lambda_mix=0.0)
    assert total0 == pytest.approx(td0, rel=1e-12)
    total1, _, bce1, _, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9,
                                      lambda_mix=1.0)
    assert total1 == pytest.approx(bce1, rel=1e-12)


def test_tdqn_bce_matches_hand_built_multi_hot():
    """Reconstruct the supervision term from a hand-written valid list."""
    cfg = tiny_config()
    rng = np.random.default_rng(10)
    n_t, n_w = 4, 6
    params = tdqn_init(rng, cfg, n_templates=n_t, n_words=n_w)
    target = copy_params(params)
    batch = make_tdqn_batch(rng, cfg, n_templates=n_t, n_words=n_w, size=2)
    batch[0]["valid_t"] = (0, 3)
    batch[0]["valid_o1"] = (1,)
    batch[0]["valid_o2"] = ()
    batch[1]["valid_t"] = (2,)
    batch[1]["valid_o1"] = (0, 5)
    batch[1]["valid_o2"] = (4,)

    q_t, q_o1, q_o2, _ = tdqn_forward(params, cfg,
                                      [s["obs"] for s in batch])
    # multi-hot targets written out longhand
    t_t = np.zeros((2, n_t))
    t_t[0, 0] = t_t[0, 3] = 1.0
    t_t[1, 2] = 1.0
    t_1 = np.zeros((2, n_w))
    t_1[0, 1] = 1.0
    t_1[1, 0] = t_1[1, 5] = 1.0
    t_2 = np.zeros((2, n_w))
    t_2[1, 4] = 1.0

    def bce_sum(logits, targets):
        p = sigmoid(logits)
        return float(-(targets * np.log(p) +
                       (1 - targets) * np.log(1 - p)).sum())

    expected = (bce_sum(q_t, t_t) + bce_sum(q_o1, t_1) + bce_sum(q_o2, t_2))
    expected /= (n_t + 2 * n_w) * len(batch)
    _, _, bce, _, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9)
    assert bce == pytest.approx(expected, rel=1e-9)


def test_binary_cross_entropy_stable_and_correct():
    logits = np.array([[0.0, 50.0, -50.0, 2.0]])
    targets = np.array([[1.0, 1.0, 0.0, 0.0]])
    loss, grad = binary_cross_entropy(logits, targets)
    assert np.isfinite(loss)
    # hand values: ln 2 at zero logit, ~0 for confident correct entries
    expected = np.log(2.0) + 0.0 + 0.0 + (2.0 + np.log1p(np.exp(-2.0)))
    assert loss == pytest.approx(expected, rel=1e-9)
    assert np.allclose(grad, sigmoid(logits) - targets)


def test_tdqn_per_sample_priorities_are_nonnegative():
    cfg = tiny_config()
    rng = np.random.default_rng(11)
    params = tdqn_init(rng, cfg, n_templates=4, n_words=6)
    target = copy_params(params)
    batch = make_tdqn_batch(rng, cfg, size=3)
    _, _, _, _, td_abs = tdqn_loss(params, target, cfg, batch, gamma=0.9)
    assert td_abs.shape == (3,)
    assert np.all(td_abs >= 0)
