"""Shared test machinery: fixture batches, full-coordinate FD checks, the
per-gate GRU that the fused one in textquest.agents.nn is checked against,
the forward passes that re-encode the target network on every update, and
the eager parser, full-scan diff and field-by-field encoder that the
engine's and the world's are checked against."""

import json
import struct

import numpy as np

from textquest.agents.models import (ModelConfig, drrn_q_values,
                                     tdqn_forward)
from textquest.engine import Situation, preconditions_hold, visible_objects
from textquest.grammar import SLOT, ParseKind, ParseOutcome, tokenize
from textquest.world import (ATTRIBUTES, KINDS, SNAPSHOT_MAGIC,
                             SNAPSHOT_VERSION, Diff, GlobalChange,
                             StatusChange, TreeChange)

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


# -- reference forward passes -------------------------------------------------------
# The learners read the target network's encodings from a memo kept for one
# target generation. These forms encode every call's batch afresh, through a
# new memo when the learner passes one, as if the memo lived for one update.


def reference_drrn_q_values(params, cfg, obs_list, act_lists, memo=None):
    return drrn_q_values(params, cfg, obs_list, act_lists,
                         None if memo is None else {})


def reference_tdqn_forward(params, cfg, obs_batch, memo=None):
    return tdqn_forward(params, cfg, obs_batch, None if memo is None else {})


def rewrite_checkpoint(src, dst, edit=None, arrays=None, drop=()):
    """Copy a checkpoint .npz, letting edit(meta) change the metadata.

    edit may mutate meta in place or return a replacement (any JSON value,
    or a str written verbatim). arrays are added and drop names removed.
    """
    with np.load(str(src), allow_pickle=False) as archive:
        blobs = {k: archive[k] for k in archive.files if k not in drop}
    meta = json.loads(str(blobs["meta"][()]))
    if edit is not None:
        replaced = edit(meta)
        meta = meta if replaced is None else replaced
    text = meta if isinstance(meta, str) else json.dumps(meta)
    blobs["meta"] = np.array(text)
    blobs.update(arrays or {})
    with open(str(dst), "wb") as fh:
        np.savez(fh, **blobs)


# -- reference parser, diff and encoder --------------------------------------------
# The engine builds its noun map lazily and only tries rules of the command's
# length; the world's diff skips channels and shared nodes, and its encoder
# joins bytes cached on each node. These are the plain forms: build every
# map, try every rule, scan and pack every object.


def reference_parse_command(state, game, text):
    """Eager parser: the noun map first, then every rule in authored order."""
    words = tokenize(text)
    if not words:
        return ParseOutcome(ParseKind.UNPARSEABLE)
    name_map = {}
    for obj in visible_objects(state, game):
        for name in state.tree.nodes[obj].names:
            name_map.setdefault(name, obj)
    saw_pattern = False
    first_resolved = None
    for rule in game.grammar:
        pattern = tuple(rule.pattern.split())
        if len(pattern) != len(words):
            continue
        bound = []
        matched = True
        resolved = True
        for p, w in zip(pattern, words):
            if p == SLOT:
                if w in name_map:
                    bound.append(name_map[w])
                else:
                    resolved = False
            elif p != w:
                matched = False
                break
        if not matched:
            continue
        saw_pattern = True
        if not resolved:
            continue
        outcome = ParseOutcome(ParseKind.RESOLVED, rule_id=rule.id,
                               objects=tuple(bound))
        if first_resolved is None:
            first_resolved = outcome
        if preconditions_hold(Situation(state, game), rule, tuple(bound)):
            return outcome
    if first_resolved is not None:
        return first_resolved
    if saw_pattern:
        return ParseOutcome(ParseKind.UNRESOLVED)
    return ParseOutcome(ParseKind.UNPARSEABLE)


def reference_state_diff(a, b):
    """Diff that compares every parent and attribute set of every object."""
    tree_changes = []
    ids_a, ids_b = set(a.tree.nodes), set(b.tree.nodes)
    for obj in ids_a ^ ids_b:
        tree_changes.append(TreeChange(obj, "present", obj in ids_a,
                                       obj in ids_b))
    for obj in ids_a & ids_b:
        pa, pb = a.tree.parent[obj], b.tree.parent[obj]
        if pa != pb:
            tree_changes.append(TreeChange(obj, "parent", pa, pb))
        attrs_a = set(a.tree.nodes[obj].attributes)
        attrs_b = set(b.tree.nodes[obj].attributes)
        for attr in attrs_a ^ attrs_b:
            tree_changes.append(TreeChange(obj, f"attr:{attr}",
                                           attr in attrs_a, attr in attrs_b))
    global_changes = []
    for name in sorted(set(a.globals) | set(b.globals)):
        va, vb = a.globals.get(name, 0), b.globals.get(name, 0)
        if va != vb:
            global_changes.append(GlobalChange(name, va, vb))
    status_changes = []
    for fname in ("done", "moves", "score"):
        va, vb = getattr(a, fname), getattr(b, fname)
        if va != vb:
            status_changes.append(StatusChange(fname, va, vb))
    tree_changes.sort(key=lambda c: (c.obj, c.field))
    return Diff(tree=tuple(tree_changes), globals=tuple(global_changes),
                status=tuple(status_changes))


def reference_encode(state, include_counters=True, include_rng=True):
    """Snapshot format v1, packed field by field from every node."""
    flags = (1 if include_counters else 0) | (2 if include_rng else 0)
    parts = [SNAPSHOT_MAGIC, struct.pack("<BB", SNAPSHOT_VERSION, flags)]
    tree = state.tree
    parts.append(struct.pack("<I", len(tree.nodes)))
    for obj_id in sorted(tree.nodes):
        node = tree.nodes[obj_id]
        mask = 0
        for attr in node.attributes:
            mask |= 1 << ATTRIBUTES.index(attr)
        parts.append(struct.pack("<IBB", obj_id,
                                 KINDS.index(node.kind), len(node.names)))
        for name in node.names:
            raw = name.encode("utf-8")
            parts.append(struct.pack("<H", len(raw)))
            parts.append(raw)
        parts.append(struct.pack(
            "<Hii", mask,
            -1 if node.key_id is None else node.key_id,
            -1 if node.capacity is None else node.capacity))
        raw = node.text.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        if node.read_text is None:
            parts.append(struct.pack("<B", 0))
        else:
            raw = node.read_text.encode("utf-8")
            parts.append(struct.pack("<BI", 1, len(raw)))
            parts.append(raw)
        up = tree.parent[obj_id]
        kids = sorted(i for i, p in tree.parent.items() if p == obj_id)
        siblings = sorted(i for i, p in tree.parent.items()
                          if p == up and up is not None and i > obj_id)
        links = (up, kids[0] if kids else None,
                 siblings[0] if siblings else None)
        parts.append(struct.pack(
            "<iii", *(-1 if link is None else link for link in links)))
    live_globals = {k: v for k, v in state.globals.items() if v != 0}
    parts.append(struct.pack("<I", len(live_globals)))
    for key in sorted(live_globals):
        raw = key.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<q", live_globals[key]))
    parts.append(struct.pack("<B", 1 if state.done else 0))
    if include_counters:
        parts.append(struct.pack("<qI", state.score, state.moves))
    if include_rng:
        parts.append(struct.pack("<Q", state.rng.state))
    return b"".join(parts)
