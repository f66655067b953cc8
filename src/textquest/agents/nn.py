"""Minimal neural network kit: embeddings, GRUs, linear layers, Adam.

Everything is float64 numpy with hand-derived backward passes. Parameters
live in flat dicts keyed by dotted names ("enc.nar.Wz"), gradients mirror
that layout, and the test suite checks every entry against central finite
differences, so the forward and backward code here must stay in exact
agreement.

GRU convention, per step t with input x and previous hidden h:

    z = sigmoid(x Wz + h Uz + bz)          update gate
    r = sigmoid(x Wr + h Ur + br)          reset gate
    c = tanh(x Wc + r * (h Uc) + bc)       candidate
    h' = z * h + (1 - z) * c

Padded positions carry mask 0 and leave the hidden state untouched, so a
batch row computes exactly what the unpadded sequence would.

The implementation is fused and time-major. The three gates' arrays are
concatenated per call into W = [Wz|Wr|Wc] (d, 3H), U = [Uz|Ur|Uc] (H, 3H)
and b (3H,), so the input projection of every step is one matmul before the
loop and each step runs one h @ U. Per-step caches are contiguous (T, B, .)
arrays. The backward pass does one (B, 3H) @ U^T per step and builds dW,
dU, db and dx with single matmuls after the loop. Parameters and gradients
keep the per-gate keys ("{name}.Wz", ...), so checkpoints are unchanged.

sigmoid is 0.5 + 0.5 tanh(x / 2): exact to a rounding error, free of
overflow in both tails, and with no boolean masks.
"""

from __future__ import annotations

import numpy as np

Params = dict[str, np.ndarray]


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0)


# -- parameter construction ----------------------------------------------------


def _uniform(rng: np.random.Generator, shape: tuple[int, ...],
             bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def embedding_params(rng: np.random.Generator, name: str, vocab: int,
                     dim: int) -> Params:
    table = rng.normal(0.0, 0.1, size=(vocab, dim))
    table[0] = 0.0  # padding row stays zero at init
    return {name: table}


def gru_params(rng: np.random.Generator, name: str, input_dim: int,
               hidden: int) -> Params:
    k = 1.0 / np.sqrt(hidden)
    out: Params = {}
    for gate in ("z", "r", "c"):
        out[f"{name}.W{gate}"] = _uniform(rng, (input_dim, hidden), k)
        out[f"{name}.U{gate}"] = _uniform(rng, (hidden, hidden), k)
        out[f"{name}.b{gate}"] = _uniform(rng, (hidden,), k)
    return out


def linear_params(rng: np.random.Generator, name: str, in_dim: int,
                  out_dim: int) -> Params:
    k = 1.0 / np.sqrt(in_dim)
    return {f"{name}.W": _uniform(rng, (in_dim, out_dim), k),
            f"{name}.b": _uniform(rng, (out_dim,), k)}


def zeros_like_params(params: Params) -> Params:
    return {k: np.zeros_like(v) for k, v in params.items()}


def add_grads(total: Params, part: Params) -> None:
    for k, v in part.items():
        if k in total:
            total[k] += v
        else:
            total[k] = v.copy()


# -- embedding ------------------------------------------------------------------


def embed_forward(params: Params, name: str, ids: np.ndarray) -> np.ndarray:
    return params[name][ids]


def embed_backward(params: Params, name: str, ids: np.ndarray,
                   dx: np.ndarray) -> Params:
    grad = np.zeros_like(params[name])
    np.add.at(grad, ids.reshape(-1), dx.reshape(-1, dx.shape[-1]))
    return {name: grad}


# -- GRU -------------------------------------------------------------------------


def _fused(params: Params, name: str, kind: str) -> np.ndarray:
    """One gate array kind ("W", "U" or "b") as [z | r | c] columns."""
    return np.concatenate([params[f"{name}.{kind}{g}"] for g in "zrc"],
                          axis=-1)


def gru_forward(params: Params, name: str, x: np.ndarray,
                mask: np.ndarray) -> tuple[np.ndarray, dict]:
    """x: (B, T, d) embedded inputs, mask: (B, T) in {0, 1}.

    Returns the final hidden state (B, H) and a cache for the backward pass.
    A fully masked row returns the zero initial hidden state.
    """
    batch, steps, dim = x.shape
    u = _fused(params, name, "U")
    hid = u.shape[0]
    x_flat = x.transpose(1, 0, 2).reshape(steps * batch, dim)
    xw = (x_flat @ _fused(params, name, "W") + _fused(params, name, "b")
          ).reshape(steps, batch, 3 * hid)
    on = mask.T[:, :, None] > 0
    hs = np.zeros((steps + 1, batch, hid))  # hs[t] enters step t
    hu = np.empty((steps, batch, 3 * hid))
    zr = np.empty((steps, batch, 2 * hid))
    c = np.empty((steps, batch, hid))
    for t in range(steps):
        np.matmul(hs[t], u, out=hu[t])
        zr[t] = sigmoid(xw[t, :, :2 * hid] + hu[t, :, :2 * hid])
        r = zr[t, :, hid:]
        c[t] = np.tanh(xw[t, :, 2 * hid:] + r * hu[t, :, 2 * hid:])
        z = zr[t, :, :hid]
        hs[t + 1] = np.where(on[t], z * hs[t] + (1.0 - z) * c[t], hs[t])
    return hs[-1], {"name": name, "x": x_flat, "hs": hs, "hu": hu, "zr": zr,
                    "c": c, "on": on}


def gru_backward(params: Params, cache: dict,
                 dh: np.ndarray) -> tuple[Params, np.ndarray]:
    """Propagate dL/dh_final back through time.

    Returns parameter gradients and dL/dx (B, T, d).
    """
    name, c, on = cache["name"], cache["c"], cache["on"]
    steps, batch, hid = c.shape
    h_prev = cache["hs"][:-1]
    z, r = cache["zr"][..., :hid], cache["zr"][..., hid:]
    # d(pre-activation)/dh' of each gate, all steps at once; U reaches the
    # candidate through r * (h Uc), so its c block carries the extra r
    dc = (1.0 - z) * (1.0 - c * c)
    da_u = np.stack([(h_prev - c) * z * (1.0 - z),
                     dc * cache["hu"][..., 2 * hid:] * r * (1.0 - r),
                     dc * r], axis=2)
    keep = np.where(on, z, 1.0)
    dh_new = np.empty_like(c)
    u_t = _fused(params, name, "U").T
    for t in range(steps - 1, -1, -1):
        dh_new[t] = dh * on[t]
        da_u[t] *= dh_new[t][:, None, :]
        dh = dh * keep[t] + da_u[t].reshape(batch, 3 * hid) @ u_t
    da_u = da_u.reshape(-1, 3 * hid)
    da = np.concatenate([da_u[:, :2 * hid], (dc * dh_new).reshape(-1, hid)],
                        axis=1)
    dx = (da @ _fused(params, name, "W").T).reshape(steps, batch, -1)
    grads = {f"{name}.{kind}{gate}": part
             for kind, full in (("W", cache["x"].T @ da),
                                ("U", h_prev.reshape(-1, hid).T @ da_u),
                                ("b", da.sum(axis=0)))
             for gate, part in zip("zrc", np.split(full, 3, axis=-1))}
    return grads, dx.transpose(1, 0, 2)


# -- linear ----------------------------------------------------------------------


def linear_forward(params: Params, name: str,
                   x: np.ndarray) -> tuple[np.ndarray, dict]:
    return x @ params[f"{name}.W"] + params[f"{name}.b"], \
        {"name": name, "x": x}


def linear_backward(params: Params, cache: dict,
                    dy: np.ndarray) -> tuple[Params, np.ndarray]:
    name = cache["name"]
    grads = {f"{name}.W": cache["x"].T @ dy, f"{name}.b": dy.sum(axis=0)}
    return grads, dy @ params[f"{name}.W"].T


# -- optimizer -------------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction."""

    def __init__(self, params: Params, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = zeros_like_params(params)
        self.v = zeros_like_params(params)

    def step(self, params: Params, grads: Params) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        for key, grad in grads.items():
            m = self.m[key] = b1 * self.m[key] + (1 - b1) * grad
            v = self.v[key] = b2 * self.v[key] + (1 - b2) * grad * grad
            params[key] -= self.lr * (m / correct1) / \
                (np.sqrt(v / correct2) + self.eps)


# -- utilities -------------------------------------------------------------------


def copy_params(params: Params) -> Params:
    return {k: v.copy() for k, v in params.items()}


def pad_batch(token_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id lists with 0 into (B, T) ids and a float (B, T) mask.

    T is at least 1 so empty inputs still produce a (fully masked) batch.
    """
    batch = len(token_lists)
    width = max(1, max((len(t) for t in token_lists), default=1))
    ids = np.zeros((batch, width), dtype=np.int64)
    mask = np.zeros((batch, width))
    for i, toks in enumerate(token_lists):
        if toks:
            ids[i, :len(toks)] = toks
            mask[i, :len(toks)] = 1.0
    return ids, mask
