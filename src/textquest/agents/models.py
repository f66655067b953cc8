"""Value network architectures for the two learning agents.

Both agents share a four-channel observation encoder: the narrative text,
the inventory listing, the room description, and the previous action each
run through their own GRU, and the final hidden states concatenate into a
single observation vector of width 4 * hidden_dim.

Every GRU input is deduplicated per batch: `encode_texts` encodes each
distinct token list once and gathers the rows back (`h[inverse]`), and its
backward pass scatter-adds the gradients of repeated rows onto the one
encoded row (`np.add.at`). Replay batches repeat the same few
observations and action strings, so this removes most of the GRU rows in a
DRRN update and in action selection, and no call site needs to know.

The frozen target network's passes read encodings from a memo
{(GRU name, token tuple): row} (`encode_memo`). The trainer makes one per
target generation, with the target copy, and replaces it at every sync; it
has none when the target is the live network (`target_sync=0`). A memo's
misses are encoded in one batch of at least two rows (the one-row rule:
a lone list gets a fully masked partner). A one-row matmul takes BLAS's
matrix-vector path and can differ in the last bits, while a row of a larger
batch does not depend on the other rows, so a memo row is exact.

The relevance network (DRRN) additionally encodes a candidate action string
with a fifth GRU and scores the (observation, action) pair with a two-layer
head ending in a scalar Q value.

The template network (TDQN) feeds the observation vector through a shared
trunk and three linear heads: one Q value per template, and one per
vocabulary word for each of the two blank positions. An action is assembled
by picking independently from each head.

Losses return (scalar, gradient dict, per-sample TD magnitudes) so the
trainer can feed priorities back to the replay buffer. All math is float64
and every backward pass is finite-difference checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (Params, add_grads, embed_backward, embed_forward,
                 embedding_params, gru_backward, gru_forward, gru_params,
                 linear_backward, linear_forward, linear_params, pad_batch,
                 relu, relu_backward, sigmoid)

CHANNELS = ("nar", "inv", "desc", "prev")

TokenChannels = tuple[list[int], list[int], list[int], list[int]]


@dataclass(frozen=True)
class ModelConfig:
    """Network sizes; small defaults keep desk-scale training fast."""

    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 64
    q_hidden_dim: int = 64

    @property
    def obs_dim(self) -> int:
        return 4 * self.hidden_dim


# -- shared observation encoder ---------------------------------------------------


def encoder_params(rng: np.random.Generator, cfg: ModelConfig) -> Params:
    params = embedding_params(rng, "embed", cfg.vocab_size, cfg.embed_dim)
    for channel in CHANNELS:
        params.update(gru_params(rng, f"enc.{channel}", cfg.embed_dim,
                                 cfg.hidden_dim))
    return params


def _first_occurrences(token_lists: list[list[int]]
                       ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Distinct token lists in first-seen order, and each row's index in it."""
    first: dict[tuple[int, ...], int] = {}
    inverse = [first.setdefault(tuple(t), len(first)) for t in token_lists]
    return list(first), np.array(inverse, dtype=np.intp)


def encode_texts(params: Params, cfg: ModelConfig, name: str,
                 token_lists: list[list[int]]) -> tuple[np.ndarray, dict]:
    """Encode token lists (action strings, one observation channel) into
    (B, H) with the GRU `name`, each distinct list once."""
    unique, inverse = _first_occurrences(token_lists)
    ids, mask = pad_batch(unique)
    x = embed_forward(params, "embed", ids)
    h, gcache = gru_forward(params, name, x, mask)
    return h[inverse], {"ids": ids, "gru": gcache, "inverse": inverse}


def encode_memo(params: Params, cfg: ModelConfig, name: str, token_lists: list,
                memo: dict | None = None) -> np.ndarray:
    """Forward-only (B, H) encodings with the GRU `name`, read from `memo`
    after encoding the lists it lacks in one batch (one-row rule)."""
    if memo is None:
        return encode_texts(params, cfg, name, token_lists)[0]
    keys = [(name, tuple(tokens)) for tokens in token_lists]
    misses = [key for key in dict.fromkeys(keys) if key not in memo]
    if misses:
        ids, mask = pad_batch([key[1] for key in misses] +
                              [()] * (len(misses) == 1))
        h, _ = gru_forward(params, name, embed_forward(params, "embed", ids),
                           mask)
        memo.update(zip(misses, h))
    return np.array([memo[key] for key in keys])


def encode_texts_backward(params: Params, cache: dict,
                          dh: np.ndarray) -> Params:
    dh_unique = np.zeros((cache["ids"].shape[0], dh.shape[1]))
    np.add.at(dh_unique, cache["inverse"], dh)
    grads, dx = gru_backward(params, cache["gru"], dh_unique)
    add_grads(grads, embed_backward(params, "embed", cache["ids"], dx))
    return grads


def encode_observations(params: Params, cfg: ModelConfig,
                        batch: list[TokenChannels], memo: dict | None = None
                        ) -> tuple[np.ndarray, dict | None]:
    """Encode a batch of four-channel token tuples into (B, 4H). Given a
    memo, forward only through `encode_memo`, and the cache is None."""
    channels = [(f"enc.{channel}", [sample[idx] for sample in batch])
                for idx, channel in enumerate(CHANNELS)]
    if memo is not None:
        return np.concatenate([encode_memo(params, cfg, name, lists, memo)
                               for name, lists in channels], axis=1), None
    parts, caches = zip(*(encode_texts(params, cfg, name, lists)
                          for name, lists in channels))
    return np.concatenate(parts, axis=1), {"channels": list(caches),
                                           "cfg": cfg}


def encode_observations_backward(params: Params, cache: dict,
                                 dnu: np.ndarray) -> Params:
    hid = cache["cfg"].hidden_dim
    grads: Params = {}
    for idx, ccache in enumerate(cache["channels"]):
        add_grads(grads, encode_texts_backward(
            params, ccache, dnu[:, idx * hid:(idx + 1) * hid]))
    return grads


# -- relevance network (observation, action) -> scalar Q -------------------------


def drrn_init(rng: np.random.Generator, cfg: ModelConfig) -> Params:
    params = encoder_params(rng, cfg)
    params.update(gru_params(rng, "act", cfg.embed_dim, cfg.hidden_dim))
    params.update(linear_params(rng, "q1", cfg.obs_dim + cfg.hidden_dim,
                                cfg.q_hidden_dim))
    params.update(linear_params(rng, "q2", cfg.q_hidden_dim, 1))
    return params


def drrn_q_pairs(params: Params, cfg: ModelConfig,
                 obs_batch: list[TokenChannels],
                 act_batch: list[list[int]]) -> tuple[np.ndarray, dict]:
    """Q for matched (observation, action) pairs; returns (B,) and a cache."""
    nu_o, obs_cache = encode_observations(params, cfg, obs_batch)
    nu_a, act_cache = encode_texts(params, cfg, "act", act_batch)
    joint = np.concatenate([nu_o, nu_a], axis=1)
    pre, l1_cache = linear_forward(params, "q1", joint)
    hidden = relu(pre)
    q, l2_cache = linear_forward(params, "q2", hidden)
    cache = {"obs": obs_cache, "act": act_cache, "l1": l1_cache,
             "l2": l2_cache, "pre": pre, "obs_dim": cfg.obs_dim}
    return q[:, 0], cache


def drrn_backward(params: Params, cache: dict, dq: np.ndarray) -> Params:
    grads: Params = {}
    g2, dhidden = linear_backward(params, cache["l2"], dq[:, None])
    add_grads(grads, g2)
    dpre = relu_backward(dhidden, cache["pre"])
    g1, djoint = linear_backward(params, cache["l1"], dpre)
    add_grads(grads, g1)
    split = cache["obs_dim"]
    add_grads(grads, encode_observations_backward(params, cache["obs"],
                                                  djoint[:, :split]))
    add_grads(grads, encode_texts_backward(params, cache["act"],
                                           djoint[:, split:]))
    return grads


def drrn_q_values(params: Params, cfg: ModelConfig,
                  obs_list: list[TokenChannels],
                  act_lists: list[list[list[int]]],
                  memo: dict | None = None) -> list[np.ndarray]:
    """Q values over each observation's own candidate list (forward only).

    Encodes the B observations and all candidate actions, through `memo`
    when given (see `encode_memo`), and scores every (obs_i, candidate_ij)
    pair. Returns one array per observation; an empty candidate list yields
    an empty array.
    """
    counts = [len(acts) for acts in act_lists]
    if not any(counts):
        return [np.zeros(0) for _ in act_lists]
    nu_o, _ = encode_observations(params, cfg, obs_list, memo)
    flat_acts = [tokens for acts in act_lists for tokens in acts]
    nu_a = encode_memo(params, cfg, "act", flat_acts, memo)
    tiled = np.repeat(nu_o, counts, axis=0)
    joint = np.concatenate([tiled, nu_a], axis=1)
    hidden = relu(joint @ params["q1.W"] + params["q1.b"])
    q = (hidden @ params["q2.W"] + params["q2.b"])[:, 0]
    ends = np.cumsum(counts)
    return [q[end - count:end] for count, end in zip(counts, ends)]


def drrn_loss(params: Params, target_params: Params, cfg: ModelConfig,
              batch: list[dict], gamma: float, memo: dict | None = None
              ) -> tuple[float, Params, np.ndarray]:
    """Weighted squared TD error over a replay batch.

    Each sample holds obs, act, reward, next_obs, next_acts, done, weight.
    Next-state values come from the target parameters, encoded through
    `memo` (see `encode_memo`); terminal transitions bootstrap from zero.
    """
    q, cache = drrn_q_pairs(params, cfg,
                            [s["obs"] for s in batch],
                            [s["act"] for s in batch])
    next_q = drrn_q_values(target_params, cfg,
                           [s["next_obs"] for s in batch],
                           [s["next_acts"] for s in batch], memo)
    size = len(batch)
    targets = np.zeros(size)
    for i, sample in enumerate(batch):
        if sample["done"] or next_q[i].size == 0:
            targets[i] = sample["reward"]
        else:
            targets[i] = sample["reward"] + gamma * float(np.max(next_q[i]))
    delta = targets - q
    weights = np.array([s["weight"] for s in batch])
    loss = float(np.mean(weights * delta * delta))
    dq = -2.0 * weights * delta / size
    grads = drrn_backward(params, cache, dq)
    return loss, grads, np.abs(delta)


# -- template network: per-template and per-word heads ----------------------------


def tdqn_init(rng: np.random.Generator, cfg: ModelConfig, n_templates: int,
              n_words: int) -> Params:
    params = encoder_params(rng, cfg)
    params.update(linear_params(rng, "trunk", cfg.obs_dim, cfg.q_hidden_dim))
    params.update(linear_params(rng, "head_t", cfg.q_hidden_dim, n_templates))
    params.update(linear_params(rng, "head_o1", cfg.q_hidden_dim, n_words))
    params.update(linear_params(rng, "head_o2", cfg.q_hidden_dim, n_words))
    return params


def tdqn_forward(params: Params, cfg: ModelConfig,
                 obs_batch: list[TokenChannels], memo: dict | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """The three heads' Q values and a cache; given a memo, forward only
    (see `encode_observations`)."""
    nu_o, obs_cache = encode_observations(params, cfg, obs_batch, memo)
    pre, trunk_cache = linear_forward(params, "trunk", nu_o)
    hidden = relu(pre)
    q_t, t_cache = linear_forward(params, "head_t", hidden)
    q_o1, o1_cache = linear_forward(params, "head_o1", hidden)
    q_o2, o2_cache = linear_forward(params, "head_o2", hidden)
    cache = {"obs": obs_cache, "trunk": trunk_cache, "pre": pre,
             "t": t_cache, "o1": o1_cache, "o2": o2_cache}
    return q_t, q_o1, q_o2, cache


def tdqn_backward(params: Params, cache: dict, dq_t: np.ndarray,
                  dq_o1: np.ndarray, dq_o2: np.ndarray) -> Params:
    grads: Params = {}
    dhidden = np.zeros_like(cache["pre"])
    for name, dq in (("t", dq_t), ("o1", dq_o1), ("o2", dq_o2)):
        g, dh = linear_backward(params, cache[name], dq)
        add_grads(grads, g)
        dhidden += dh
    dpre = relu_backward(dhidden, cache["pre"])
    g, dnu = linear_backward(params, cache["trunk"], dpre)
    add_grads(grads, g)
    add_grads(grads, encode_observations_backward(params, cache["obs"], dnu))
    return grads


def binary_cross_entropy(logits: np.ndarray,
                         targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of elementwise BCE-with-logits and its gradient."""
    loss = np.maximum(logits, 0.0) - logits * targets + \
        np.log1p(np.exp(-np.abs(logits)))
    return float(loss.sum()), sigmoid(logits) - targets


def tdqn_loss(params: Params, target_params: Params, cfg: ModelConfig,
              batch: list[dict], gamma: float, lambda_mix: float = 0.5,
              memo: dict | None = None
              ) -> tuple[float, float, float, Params, np.ndarray]:
    """Mixed objective: (1 - lambda) * TD + lambda * valid-action BCE.

    Samples hold obs, taken (template index, word indices or -1), reward,
    next_obs, done, weight, and the valid index tuples (valid_t, valid_o1,
    valid_o2) observed in the pre-action state. The TD term averages the
    squared error of the heads the action actually used and is importance
    weighted; the supervision term is plain BCE over all head logits,
    normalized by the total logit count.

    Returns (total, td, bce, grads, per-sample TD magnitudes).
    """
    size = len(batch)
    q_t, q_o1, q_o2, cache = tdqn_forward(params, cfg,
                                          [s["obs"] for s in batch])
    nq_t, nq_o1, nq_o2, _ = tdqn_forward(target_params, cfg,
                                         [s["next_obs"] for s in batch], memo)
    dq_t = np.zeros_like(q_t)
    dq_o1 = np.zeros_like(q_o1)
    dq_o2 = np.zeros_like(q_o2)
    td_total = 0.0
    td_abs = np.zeros(size)
    for i, sample in enumerate(batch):
        t_idx, w1_idx, w2_idx = sample["taken"]
        heads = [(q_t, dq_t, nq_t, t_idx)]
        if w1_idx >= 0:
            heads.append((q_o1, dq_o1, nq_o1, w1_idx))
        if w2_idx >= 0:
            heads.append((q_o2, dq_o2, nq_o2, w2_idx))
        weight = sample["weight"]
        count = len(heads)
        for q_head, dq_head, nq_head, taken in heads:
            if sample["done"]:
                bootstrap = 0.0
            else:
                bootstrap = float(np.max(nq_head[i]))
            delta = sample["reward"] + gamma * bootstrap - q_head[i, taken]
            td_total += weight * delta * delta / count
            td_abs[i] += abs(delta) / count
            dq_head[i, taken] += (1.0 - lambda_mix) * weight * \
                (-2.0 * delta) / (count * size)
    td_loss = td_total / size

    # supervision toward the observed valid-action sets
    n_t = q_t.shape[1]
    n_w = q_o1.shape[1]
    norm = n_t + 2 * n_w
    target_t = np.zeros_like(q_t)
    target_1 = np.zeros_like(q_o1)
    target_2 = np.zeros_like(q_o2)
    for i, sample in enumerate(batch):
        target_t[i, list(sample["valid_t"])] = 1.0
        target_1[i, list(sample["valid_o1"])] = 1.0
        target_2[i, list(sample["valid_o2"])] = 1.0
    bce_sum = 0.0
    for logits, targets, dq_head in ((q_t, target_t, dq_t),
                                     (q_o1, target_1, dq_o1),
                                     (q_o2, target_2, dq_o2)):
        part, dlogits = binary_cross_entropy(logits, targets)
        bce_sum += part
        dq_head += lambda_mix * dlogits / (norm * size)
    bce_loss = bce_sum / (norm * size)

    total = (1.0 - lambda_mix) * td_loss + lambda_mix * bce_loss
    grads = tdqn_backward(params, cache, dq_t, dq_o1, dq_o2)
    return total, td_loss, bce_loss, grads, td_abs
