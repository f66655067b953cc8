"""Shared test machinery: fixture batches, full-coordinate FD checks, and
the per-gate GRU that the fused one in textquest.agents.nn is checked
against."""

import numpy as np

from textquest.agents.models import ModelConfig

FD_H = 1e-4
FD_REL_TOL = 1e-4
FD_FLOOR = 1e-6


def tiny_config(vocab_size: int = 12) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, embed_dim=4, hidden_dim=5,
                       q_hidden_dim=6)


def random_tokens(rng, vocab_size, low=1, max_len=5, allow_empty=False):
    length = int(rng.integers(0 if allow_empty else 1, max_len + 1))
    return [int(rng.integers(low, vocab_size)) for _ in range(length)]


def random_channels(rng, vocab_size):
    chans = tuple(random_tokens(rng, vocab_size) for _ in range(3))
    return chans + (random_tokens(rng, vocab_size, allow_empty=True),)


def make_drrn_batch(rng, cfg, size=3):
    """Replay samples covering terminal, empty-next, and weighted cases."""
    batch = []
    for i in range(size):
        n_next = int(rng.integers(0, 4)) if i else 0  # sample 0: no next acts
        batch.append({
            "obs": random_channels(rng, cfg.vocab_size),
            "act": random_tokens(rng, cfg.vocab_size),
            "reward": float(rng.integers(-1, 3)),
            "next_obs": random_channels(rng, cfg.vocab_size),
            "next_acts": [random_tokens(rng, cfg.vocab_size)
                          for _ in range(n_next)],
            "done": bool(i == 1),
            "weight": float(rng.uniform(0.5, 1.5)),
        })
    return batch


def make_tdqn_batch(rng, cfg, n_templates=4, n_words=6, size=3):
    """One sample per blank count (0, 1, and 2 filled word slots)."""
    batch = []
    for i in range(size):
        blanks = i % 3
        taken = (int(rng.integers(0, n_templates)),
                 int(rng.integers(0, n_words)) if blanks >= 1 else -1,
                 int(rng.integers(0, n_words)) if blanks == 2 else -1)
        batch.append({
            "obs": random_channels(rng, cfg.vocab_size),
            "next_obs": random_channels(rng, cfg.vocab_size),
            "taken": taken,
            "reward": float(rng.integers(-1, 3)),
            "done": bool(i == 1),
            "weight": float(rng.uniform(0.5, 1.5)),
            "valid_t": tuple(sorted({int(v) for v in
                                     rng.integers(0, n_templates, size=2)})),
            "valid_o1": tuple(sorted({int(v) for v in
                                      rng.integers(0, n_words, size=3)})),
            "valid_o2": tuple(sorted({int(v) for v in
                                      rng.integers(0, n_words, size=2)})),
        })
    return batch


def fd_worst_error(params, grads, loss_fn, h=FD_H, floor=FD_FLOOR):
    """Worst relative error between analytic and central-difference gradients
    over every coordinate of every parameter array."""
    worst = 0.0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        gflat = grads.get(key, np.zeros_like(params[key])).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(numeric), abs(gflat[i]), floor)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


# -- reference GRU --------------------------------------------------------------
# One matmul per gate per step, batch-major, caches kept as a per-step list:
# the plain transcription of the equations in textquest.agents.nn.


def reference_sigmoid(x):
    """Logistic function with the two tails computed separately."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_gru_forward(params, name, x, mask):
    batch, steps, _ = x.shape
    hidden = params[f"{name}.Uz"].shape[0]
    wz, uz, bz = params[f"{name}.Wz"], params[f"{name}.Uz"], params[f"{name}.bz"]
    wr, ur, br = params[f"{name}.Wr"], params[f"{name}.Ur"], params[f"{name}.br"]
    wc, uc, bc = params[f"{name}.Wc"], params[f"{name}.Uc"], params[f"{name}.bc"]
    h = np.zeros((batch, hidden))
    trace = []
    for t in range(steps):
        xt = x[:, t, :]
        m = mask[:, t:t + 1]
        z = reference_sigmoid(xt @ wz + h @ uz + bz)
        r = reference_sigmoid(xt @ wr + h @ ur + br)
        hu = h @ uc
        c = np.tanh(xt @ wc + r * hu + bc)
        h_new = z * h + (1.0 - z) * c
        trace.append((xt, h, z, r, c, hu, m))
        h = m * h_new + (1.0 - m) * h
    return h, {"name": name, "trace": trace, "shape": x.shape}


def reference_gru_backward(params, cache, dh):
    name = cache["name"]
    wz, uz = params[f"{name}.Wz"], params[f"{name}.Uz"]
    wr, ur = params[f"{name}.Wr"], params[f"{name}.Ur"]
    wc, uc = params[f"{name}.Wc"], params[f"{name}.Uc"]
    grads = {f"{name}.{g}": np.zeros_like(params[f"{name}.{g}"])
             for g in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wc", "Uc", "bc")}
    dx_all = np.zeros(cache["shape"])
    dh = dh.copy()
    for t in range(len(cache["trace"]) - 1, -1, -1):
        xt, h_prev, z, r, c, hu, m = cache["trace"][t]
        dh_new = dh * m
        dh_prev = dh * (1.0 - m)
        # h' = z * h_prev + (1 - z) * c
        dz = dh_new * (h_prev - c)
        dc = dh_new * (1.0 - z)
        dh_prev = dh_prev + dh_new * z
        # c = tanh(x Wc + r * hu + bc)
        da_c = dc * (1.0 - c * c)
        grads[f"{name}.Wc"] += xt.T @ da_c
        grads[f"{name}.bc"] += da_c.sum(axis=0)
        dx = da_c @ wc.T
        dr = da_c * hu
        dhu = da_c * r
        grads[f"{name}.Uc"] += h_prev.T @ dhu
        dh_prev = dh_prev + dhu @ uc.T
        # z = sigmoid(x Wz + h_prev Uz + bz)
        da_z = dz * z * (1.0 - z)
        grads[f"{name}.Wz"] += xt.T @ da_z
        grads[f"{name}.Uz"] += h_prev.T @ da_z
        grads[f"{name}.bz"] += da_z.sum(axis=0)
        dx += da_z @ wz.T
        dh_prev = dh_prev + da_z @ uz.T
        # r = sigmoid(x Wr + h_prev Ur + br)
        da_r = dr * r * (1.0 - r)
        grads[f"{name}.Wr"] += xt.T @ da_r
        grads[f"{name}.Ur"] += h_prev.T @ da_r
        grads[f"{name}.br"] += da_r.sum(axis=0)
        dx += da_r @ wr.T
        dh_prev = dh_prev + da_r @ ur.T
        dx_all[:, t, :] = dx
        dh = dh_prev
    return grads, dx_all
