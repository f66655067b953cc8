"""Layer-level numerics: finite-difference checks, masking, Adam, padding."""

import numpy as np
import pytest

from helpers import (reference_gru_backward, reference_gru_forward,
                     reference_sigmoid)
from textquest.agents.nn import (Adam, add_grads, copy_params, embed_backward,
                                 embed_forward, embedding_params, gru_backward,
                                 gru_forward, gru_params, linear_backward,
                                 linear_forward, linear_params, pad_batch,
                                 relu, relu_backward, sigmoid,
                                 zeros_like_params)

FD_H = 1e-4
FD_TOL = 1e-5


def fd_check(params, loss_fn, grads, keys=None, floor=1e-6):
    """Central finite differences over every coordinate of every array."""
    worst = 0.0
    for key in (keys or params):
        arr = params[key]
        grad = grads.get(key, np.zeros_like(arr))
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_H
            up = loss_fn()
            flat[i] = orig - FD_H
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2 * FD_H)
            denom = max(abs(numeric), abs(grad.reshape(-1)[i]), floor)
            worst = max(worst, abs(numeric - grad.reshape(-1)[i]) / denom)
    assert worst < FD_TOL, f"worst relative error {worst:.3e}"


# -- activations -----------------------------------------------------------------


def test_sigmoid_stable_at_extremes():
    x = np.array([-750.0, -30.0, 0.0, 30.0, 750.0])
    y = sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-300)
    assert y[2] == 0.5
    assert y[4] == pytest.approx(1.0)
    assert np.all(np.diff(y) >= 0)


def test_sigmoid_raises_no_float_warnings_at_extremes():
    with np.errstate(all="raise"):
        y = sigmoid(np.array([-1e4, 1e4]))
    assert y.tolist() == [0.0, 1.0]


def test_sigmoid_matches_two_tailed_form():
    x = np.linspace(-40.0, 40.0, 8001)
    assert np.max(np.abs(sigmoid(x) - reference_sigmoid(x))) <= 1e-15


def test_relu_and_backward():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(relu(x), [0, 0, 0, 0.5, 2.0])
    dy = np.ones_like(x)
    assert np.array_equal(relu_backward(dy, x), [0, 0, 0, 1, 1])


# -- parameter construction --------------------------------------------------------


def test_embedding_pad_row_is_zero():
    rng = np.random.default_rng(0)
    params = embedding_params(rng, "emb", vocab=11, dim=5)
    table = params["emb"]
    assert table.shape == (11, 5)
    assert np.all(table[0] == 0.0)
    assert np.any(table[1:] != 0.0)


def test_gru_params_keys_and_shapes():
    rng = np.random.default_rng(0)
    params = gru_params(rng, "g", input_dim=4, hidden=6)
    assert sorted(params) == sorted(
        f"g.{k}" for k in ("Wz", "Uz", "bz", "Wr", "Ur", "br",
                           "Wc", "Uc", "bc"))
    assert params["g.Wz"].shape == (4, 6)
    assert params["g.Uz"].shape == (6, 6)
    assert params["g.bz"].shape == (6,)


def test_param_bookkeeping_helpers():
    rng = np.random.default_rng(0)
    params = linear_params(rng, "lin", 3, 2)
    zeros = zeros_like_params(params)
    assert all(np.all(v == 0) for v in zeros.values())
    dup = copy_params(params)
    dup["lin.W"][0, 0] += 1.0
    assert params["lin.W"][0, 0] != dup["lin.W"][0, 0]
    total = zeros_like_params(params)
    add_grads(total, {"lin.W": np.ones((3, 2))})
    add_grads(total, {"lin.W": np.ones((3, 2))})
    assert np.all(total["lin.W"] == 2.0)


# -- finite-difference checks -------------------------------------------------------


def test_linear_gradients_match_fd():
    rng = np.random.default_rng(1)
    params = linear_params(rng, "lin", 4, 3)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss():
        y, _ = linear_forward(params, "lin", x)
        return float(np.sum((y - target) ** 2))

    y, cache = linear_forward(params, "lin", x)
    grads, dx = linear_backward(params, cache, 2 * (y - target))
    fd_check(params, loss, grads)
    # and the input gradient
    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_H
        up = loss()
        flat[i] = orig - FD_H
        down = loss()
        flat[i] = orig
        numeric.reshape(-1)[i] = (up - down) / (2 * FD_H)
    assert np.max(np.abs(numeric - dx)) < 1e-6


def test_gru_gradients_match_fd():
    rng = np.random.default_rng(2)
    params = gru_params(rng, "g", input_dim=3, hidden=4)
    x = rng.normal(size=(2, 5, 3))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
    target = rng.normal(size=(2, 4))

    def loss():
        h, _ = gru_forward(params, "g", x, mask)
        return float(np.sum((h - target) ** 2))

    h, cache = gru_forward(params, "g", x, mask)
    grads, dx = gru_backward(params, cache, 2 * (h - target))
    fd_check(params, loss, grads)

    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_H
        up = loss()
        flat[i] = orig - FD_H
        down = loss()
        flat[i] = orig
        numeric.reshape(-1)[i] = (up - down) / (2 * FD_H)
    assert np.max(np.abs(numeric - dx)) < 1e-6


def test_embedding_gradients_match_fd():
    rng = np.random.default_rng(3)
    params = embedding_params(rng, "emb", vocab=7, dim=3)
    ids = np.array([[1, 2, 2], [3, 0, 1]])
    target = rng.normal(size=(2, 3, 3))

    def loss():
        return float(np.sum((embed_forward(params, "emb", ids) - target) ** 2))

    out = embed_forward(params, "emb", ids)
    grads = embed_backward(params, "emb", ids, 2 * (out - target))
    fd_check(params, loss, grads)


def test_embed_backward_accumulates_repeats():
    rng = np.random.default_rng(4)
    params = embedding_params(rng, "emb", vocab=5, dim=2)
    ids = np.array([[2, 2, 2]])
    dx = np.ones((1, 3, 2))
    grads = embed_backward(params, "emb", ids, dx)
    assert np.all(grads["emb"][2] == 3.0)
    assert np.all(grads["emb"][[0, 1, 3, 4]] == 0.0)


# -- the fused GRU against the per-gate reference --------------------------------


@pytest.mark.parametrize("lengths,steps", [
    ([5, 2, 4, 1], 5),  # ragged
    ([3, 0, 2], 3),     # a fully masked row
    ([1, 1, 0], 1),     # T = 1
    ([4], 4),           # B = 1
    ([2], 3),           # B = 1 with padding
])
def test_fused_gru_matches_reference(lengths, steps):
    rng = np.random.default_rng(len(lengths) * 10 + steps)
    params = gru_params(rng, "g", input_dim=3, hidden=4)
    x = rng.normal(size=(len(lengths), steps, 3))
    mask = (np.arange(steps) < np.array(lengths)[:, None]).astype(float)
    dh = rng.normal(size=(len(lengths), 4))
    h, cache = gru_forward(params, "g", x, mask)
    h_ref, cache_ref = reference_gru_forward(params, "g", x, mask)
    grads, dx = gru_backward(params, cache, dh)
    grads_ref, dx_ref = reference_gru_backward(params, cache_ref, dh)
    assert np.max(np.abs(h - h_ref)) <= 1e-12
    assert dx.shape == dx_ref.shape
    assert np.max(np.abs(dx - dx_ref)) <= 1e-12
    assert set(grads) == set(grads_ref)
    for key, grad in grads_ref.items():
        assert grads[key].shape == grad.shape
        assert np.max(np.abs(grads[key] - grad)) <= 1e-12, key


# -- masking semantics --------------------------------------------------------------


def test_gru_masked_steps_are_inert():
    rng = np.random.default_rng(5)
    params = gru_params(rng, "g", input_dim=3, hidden=4)
    x_short = rng.normal(size=(1, 2, 3))
    pad = np.concatenate([x_short, rng.normal(size=(1, 3, 3))], axis=1)
    h_short, _ = gru_forward(params, "g", x_short, np.ones((1, 2)))
    h_padded, _ = gru_forward(
        params, "g", pad, np.array([[1, 1, 0, 0, 0]], dtype=float))
    assert np.allclose(h_short, h_padded)


def test_gru_fully_masked_row_returns_zero_state():
    rng = np.random.default_rng(6)
    params = gru_params(rng, "g", input_dim=3, hidden=4)
    x = rng.normal(size=(2, 3, 3))
    mask = np.array([[0, 0, 0], [1, 1, 1]], dtype=float)
    h, _ = gru_forward(params, "g", x, mask)
    assert np.all(h[0] == 0.0)
    assert np.any(h[1] != 0.0)


def test_gru_batch_order_independent():
    rng = np.random.default_rng(7)
    params = gru_params(rng, "g", input_dim=2, hidden=3)
    x = rng.normal(size=(3, 4, 2))
    mask = np.ones((3, 4))
    h, _ = gru_forward(params, "g", x, mask)
    h_rev, _ = gru_forward(params, "g", x[::-1].copy(), mask)
    assert np.allclose(h, h_rev[::-1])


# -- Adam ----------------------------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    # with bias correction, the first update is lr * sign(grad) in the limit
    params = {"w": np.array([1.0, -1.0])}
    opt = Adam(params, lr=0.1, eps=1e-8)
    opt.step(params, {"w": np.array([3.0, -2.0])})
    assert np.allclose(params["w"], [1.0 - 0.1, -1.0 + 0.1], atol=1e-6)


def test_adam_reference_sequence():
    # hand-computed two-step trajectory for a single weight
    params = {"w": np.array([0.5])}
    opt = Adam(params, lr=0.01, betas=(0.9, 0.999), eps=1e-8)
    opt.step(params, {"w": np.array([0.2])})
    m1 = 0.1 * 0.2
    v1 = 0.001 * 0.04
    expect1 = 0.5 - 0.01 * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
    assert params["w"][0] == pytest.approx(expect1, rel=1e-12)
    opt.step(params, {"w": np.array([-0.1])})
    m2 = 0.9 * m1 + 0.1 * -0.1
    v2 = 0.999 * v1 + 0.001 * 0.01
    expect2 = expect1 - 0.01 * (m2 / (1 - 0.9 ** 2)) / \
        (np.sqrt(v2 / (1 - 0.999 ** 2)) + 1e-8)
    assert params["w"][0] == pytest.approx(expect2, rel=1e-12)


def test_adam_state_round_trip():
    rng = np.random.default_rng(8)
    params = linear_params(rng, "lin", 2, 2)
    opt = Adam(params, lr=0.05)
    grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
    opt.step(params, grads)
    twin = copy_params(params)
    resumed = Adam.from_state(twin, opt.state())
    opt.step(params, grads)
    resumed.step(twin, grads)
    for key in params:
        assert np.allclose(params[key], twin[key])


def test_adam_shrinks_quadratic():
    params = {"w": np.array([5.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(500):
        opt.step(params, {"w": 2 * params["w"]})
    assert abs(params["w"][0]) < 0.05


# -- padding -------------------------------------------------------------------------


def test_pad_batch_shapes_and_mask():
    ids, mask = pad_batch([[4, 5], [7], []])
    assert ids.shape == (3, 2) and mask.shape == (3, 2)
    assert ids.tolist() == [[4, 5], [7, 0], [0, 0]]
    assert mask.tolist() == [[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]


def test_pad_batch_never_zero_width():
    ids, mask = pad_batch([[], []])
    assert ids.shape == (2, 1)
    assert np.all(mask == 0.0)
