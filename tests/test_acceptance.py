"""Ten headline guarantees, each reported as one [PASS]/[FAIL] line.

Every check here is seeded and deterministic, so reruns print identical
lines. The two heavyweight entries (finite-difference gradient sweeps
and the desk-scale training comparison) state their runtime budgets in
their output; both finish with a wide margin on an ordinary laptop.

The verdict line is printed before the assertions fire so a failing
build still reports every criterion it reached.
"""

import random
import time

import numpy as np
import pytest
from scipy import stats

from conftest import tinybox_dict
from helpers import (FD_REL_TOL, fd_worst_error, make_drrn_batch,
                     make_tdqn_batch, tiny_config)
from test_valid_oracle import oracle_valid_actions
from textquest import engine
from textquest.agents.models import (drrn_init, drrn_loss, tdqn_forward,
                                     tdqn_init, tdqn_loss)
from textquest.agents.nn import copy_params, sigmoid
from textquest.agents.replay import PrioritizedReplay
from textquest.agents.training import (CANONICAL_ACTIONS, TrainConfig, train)
from textquest.bench import compute_normalized_completion, reference_column
from textquest.env import (Environment, format_transcript_block,
                           verify_walkthrough, world_changed,
                           world_changed_exact)
from textquest.gamedefs import bundled_game_names, load_bundled, parse_game
from textquest.grammar import free_form_space_size, template_space_upper_bound
from textquest.rng import SplitMix64


def announce(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)


# -- 1: action-space arithmetic ------------------------------------------------------


def test_01_action_space_arithmetic(capsys):
    template_space_upper_bound(1, 1)  # warm the call path before timing
    started = time.perf_counter()
    large = template_space_upper_bound(237, 697)     # 237 * 697**2
    rounded = template_space_upper_bound(200, 700)   # 200 * 700**2
    free = free_form_space_size(700, 4)              # 700**4
    elapsed = time.perf_counter() - started
    expected = (237 * 697 ** 2, 200 * 700 ** 2, 700 ** 4)
    values = (large, rounded, free)
    ok = values == expected == (115_136_733, 98_000_000, 240_100_000_000) \
        and elapsed < 1e-3
    announce(capsys, "action-space arithmetic", ok,
             f"{large:,} / {rounded:,} / {free:,} in {elapsed * 1e6:.0f}us")
    assert values == expected
    assert elapsed < 1e-3


# -- 2: valid-action detector equals the brute-force oracle -------------------------


def test_02_detector_matches_brute_force_oracle(capsys):
    compared_total = 0
    worst_elapsed = 0.0
    mismatches = []
    for name in bundled_game_names():
        game = load_bundled(name)
        env = Environment(game)
        env.reset(seed=0)
        walker = random.Random(name)
        started = time.perf_counter()
        compared = 0
        walks = 0
        while compared < 21:  # start state plus 20 reachable states
            if env.done:
                walks += 1
                env.reset(seed=walks)
            detected = set(env.identify_valid_actions().surfaces)
            expected = oracle_valid_actions(env.state, game)
            if detected != expected:
                mismatches.append((name, compared, detected ^ expected))
            compared += 1
            if not expected:
                walks += 1
                env.reset(seed=walks)
                continue
            env.step(walker.choice(sorted(expected)))
        worst_elapsed = max(worst_elapsed, time.perf_counter() - started)
        compared_total += compared
    ok = not mismatches and worst_elapsed < 2.0
    announce(capsys, "valid-action oracle equivalence", ok,
             f"{compared_total} states across {len(bundled_game_names())} "
             f"games, slowest game {worst_elapsed:.2f}s (budget 2s)")
    assert mismatches == []
    assert worst_elapsed < 2.0


# -- 3: the tree-channel blind spot --------------------------------------------------


def test_03_global_only_change_is_a_tree_channel_blind_spot(capsys):
    game = parse_game(tinybox_dict())
    env = Environment(game)
    env.reset(seed=0)
    detected = set(env.identify_valid_actions().surfaces)
    result = engine.execute(env.state, game, "strike gong")
    tree_sees = world_changed(env.state, result.state)
    exact_sees = world_changed_exact(env.state, result.state)
    ok = (result.applied and "strike gong" not in detected
          and not tree_sees and exact_sees)
    announce(capsys, "global-only change blind spot", ok,
             "'strike gong' applied but invisible to the tree channel "
             f"(tree={tree_sees}, exact={exact_sees})")
    assert result.applied
    assert "strike gong" not in detected
    assert not tree_sees
    assert exact_sees


# -- 4: determinism and state round-trips --------------------------------------------


def _random_transcript(game, outer_seed: int, steps: int) -> bytes:
    env = Environment(game)
    rng = SplitMix64(outer_seed)
    obs, _ = env.reset(seed=rng.randrange(2 ** 31))
    lines = [obs.narrative]
    for t in range(1, steps + 1):
        if env.done or env.moves >= 100:
            obs, _ = env.reset(seed=rng.randrange(2 ** 31))
            lines.append(obs.narrative)
        action = CANONICAL_ACTIONS[rng.randrange(len(CANONICAL_ACTIONS))]
        result = env.step(action)
        lines.append(format_transcript_block(t, result.observation, action,
                                             result.reward, result.score,
                                             result.done))
    return "\n".join(lines).encode("utf-8")


def test_04_determinism_and_round_trip(capsys):
    game = load_bundled("mailhouse")
    first = _random_transcript(game, outer_seed=42, steps=1000)
    second = _random_transcript(game, outer_seed=42, steps=1000)
    transcripts_match = first == second

    # snapshot mid-episode, continue, then replay from the snapshot
    env = Environment(game)
    env.reset(seed=5)
    rng = SplitMix64(99)
    commands = [CANONICAL_ACTIONS[rng.randrange(len(CANONICAL_ACTIONS))]
                for _ in range(60)]
    for cmd in commands[:30]:
        env.step(cmd)
    snapshot = env.save()
    tail_a = [env.step(cmd).observation for cmd in commands[30:]]
    end_a = env.state_hash()

    other = Environment(game)
    other.reset(seed=12345)  # unrelated state; load must overwrite it
    other.load(snapshot)
    tail_b = [other.step(cmd).observation for cmd in commands[30:]]
    end_b = other.state_hash()
    continuation_match = tail_a == tail_b and end_a == end_b

    probe = Environment(game)
    probe.reset(seed=0)
    before = probe.state_hash()
    probe.identify_valid_actions()
    probe.observation()
    hash_preserved = probe.state_hash() == before

    ok = transcripts_match and continuation_match and hash_preserved
    announce(capsys, "determinism and round-trip", ok,
             f"two 1000-step transcripts identical ({len(first):,} bytes), "
             f"snapshot continuation identical, probes preserve the hash")
    assert transcripts_match
    assert continuation_match
    assert hash_preserved


# -- 5: gradient checks --------------------------------------------------------------


def test_05_gradient_checks(capsys):
    started = time.perf_counter()
    worst = {"drrn": 0.0, "tdqn": 0.0}
    for seed in (11, 22, 33):
        cfg = tiny_config()
        rng = np.random.default_rng(seed)

        params = drrn_init(rng, cfg)
        target = copy_params(drrn_init(rng, cfg))
        batch = make_drrn_batch(rng, cfg)
        _, grads, _ = drrn_loss(params, target, cfg, batch, gamma=0.9)
        worst["drrn"] = max(worst["drrn"], fd_worst_error(
            params, grads, lambda: drrn_loss(params, target, cfg, batch,
                                             gamma=0.9)[0]))

        params = tdqn_init(rng, cfg, n_templates=4, n_words=6)
        target = copy_params(tdqn_init(rng, cfg, n_templates=4, n_words=6))
        batch = make_tdqn_batch(rng, cfg)
        _, _, _, grads, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9)
        worst["tdqn"] = max(worst["tdqn"], fd_worst_error(
            params, grads, lambda: tdqn_loss(params, target, cfg, batch,
                                             gamma=0.9)[0]))
    elapsed = time.perf_counter() - started
    ok = max(worst.values()) < FD_REL_TOL and elapsed < 60.0
    announce(capsys, "finite-difference gradient checks", ok,
             f"worst rel err drrn {worst['drrn']:.2e}, "
             f"tdqn {worst['tdqn']:.2e} (tol 1e-4) over 3 inits each "
             f"in {elapsed:.1f}s (budget 60s)")
    assert worst["drrn"] < FD_REL_TOL
    assert worst["tdqn"] < FD_REL_TOL
    assert elapsed < 60.0


# -- 6: the agents learn, and in the right order -------------------------------------


def test_06_desk_scale_learning_order(capsys):
    game = load_bundled("mailhouse")
    budget = 900.0
    started = time.perf_counter()
    configs = {
        "drrn": TrainConfig(agent="drrn", max_env_steps=20_000,
                            early_stop_score=9.0, max_seconds=150),
        "tdqn": TrainConfig(agent="tdqn", max_env_steps=100_000,
                            early_stop_score=5.0, max_seconds=240),
        "random": TrainConfig(agent="random", max_env_steps=20_000),
    }
    finals = {}
    steps_used = {}
    for agent, cfg in configs.items():
        scores = []
        reached = []
        for seed in (1, 2, 3, 4, 5):
            result = train(game, cfg, seed)
            scores.append(result.rolling_mean() or 0.0)
            reached.append(result.env_steps)
        finals[agent] = float(np.mean(scores))
        steps_used[agent] = max(reached)
    elapsed = time.perf_counter() - started
    ok = (finals["drrn"] >= 9.0 and steps_used["drrn"] <= 20_000
          and finals["tdqn"] >= 5.0 and steps_used["tdqn"] <= 100_000
          and finals["random"] < 2.5
          and finals["drrn"] > finals["tdqn"] > finals["random"]
          and elapsed < budget)
    announce(capsys, "desk-scale learning order", ok,
             f"mean final rolling score over 5 seeds: "
             f"drrn {finals['drrn']:.2f}/10 (>=9 within 20k steps), "
             f"tdqn {finals['tdqn']:.2f}/10 (>=5 within 100k), "
             f"random {finals['random']:.2f}/10 (<2.5) "
             f"in {elapsed:.0f}s (budget {budget:.0f}s)")
    assert finals["drrn"] >= 9.0 and steps_used["drrn"] <= 20_000
    assert finals["tdqn"] >= 5.0 and steps_used["tdqn"] <= 100_000
    assert finals["random"] < 2.5
    assert finals["drrn"] > finals["tdqn"] > finals["random"]
    assert elapsed < budget


# -- 7: published aggregate fidelity --------------------------------------------------


def test_07_normalized_completion_fidelity(capsys):
    rand_pc = compute_normalized_completion(reference_column("random"),
                                            negatives="clip")
    drrn_pc = compute_normalized_completion(reference_column("drrn"),
                                            negatives="clip")
    ok = abs(rand_pc - 1.8) <= 0.1 and abs(drrn_pc - 10.7) <= 1.0
    announce(capsys, "normalized-completion fidelity", ok,
             f"random {rand_pc:.3f}% (target 1.8+/-0.1), "
             f"drrn {drrn_pc:.3f}% (target 10.7+/-1.0, negatives='clip')")
    assert rand_pc == pytest.approx(1.8, abs=0.1)
    assert drrn_pc == pytest.approx(10.7, abs=1.0)


# -- 8: prioritized replay statistics -------------------------------------------------


def _sample_counts(buffer, n_items, draws=100_000, seed=7):
    rng = SplitMix64(seed)
    counts = np.zeros(n_items)
    for _ in range(draws // 500):
        _, indices, _ = buffer.sample(500, beta=0.4, rng=rng)
        counts += np.bincount(indices, minlength=n_items)
    return counts


def test_08_replay_sampling_statistics(capsys):
    alpha = 0.6
    priorities = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
    buffer = PrioritizedReplay(capacity=8, alpha=alpha)
    for i in range(len(priorities)):
        buffer.add(i)
    buffer.update_priorities(np.arange(5), priorities - buffer.epsilon)
    counts = _sample_counts(buffer, 5)
    expected = priorities ** alpha / np.sum(priorities ** alpha) * 100_000
    p_alpha = stats.chisquare(counts, f_exp=expected).pvalue

    uniform = PrioritizedReplay(capacity=8, alpha=0.0)
    for i in range(5):
        uniform.add(i)
    uniform.update_priorities(np.arange(5),
                              np.array([0.0, 1.0, 10.0, 100.0, 0.5]))
    p_uniform = stats.chisquare(_sample_counts(uniform, 5)).pvalue

    ok = p_alpha > 0.01 and p_uniform > 0.01
    announce(capsys, "replay sampling statistics", ok,
             f"priority^alpha law p={p_alpha:.3f}, alpha=0 uniform "
             f"p={p_uniform:.3f} over 1e5 draws each (threshold 0.01)")
    assert p_alpha > 0.01
    assert p_uniform > 0.01


# -- 9: episode protocol ---------------------------------------------------------------


def test_09_episode_protocol(capsys):
    gibberish = ("xyzzy", "frobnicate the dial", "take zeppelin")
    failures = []
    for name in bundled_game_names():
        game = load_bundled(name)
        env = Environment(game)
        env.reset(seed=0)
        for junk in gibberish:
            env.step(junk)
        if env.moves != 0:
            failures.append(f"{name}: rejected commands consumed "
                            f"{env.moves} moves")
        report = verify_walkthrough(game, seed=0)
        if not report.success:
            failures.append(f"{name}: {report.summary()}")
        if sum(report.rewards) != report.final_score:
            failures.append(f"{name}: return {sum(report.rewards)} != "
                            f"score {report.final_score}")
        if report.steps > 100:
            failures.append(f"{name}: walkthrough exceeds the step budget")
    ok = not failures
    announce(capsys, "episode protocol", ok,
             "invalid commands cost nothing and walkthrough returns equal "
             f"final scores on all {len(bundled_game_names())} games"
             if ok else "; ".join(failures))
    assert failures == []


# -- 10: TDQN loss composition ---------------------------------------------------------


def test_10_tdqn_loss_composition(capsys):
    cfg = tiny_config()
    rng = np.random.default_rng(10)
    n_t, n_w = 4, 6
    params = tdqn_init(rng, cfg, n_templates=n_t, n_words=n_w)
    target = copy_params(params)
    batch = make_tdqn_batch(rng, cfg, n_templates=n_t, n_words=n_w, size=2)
    # hand-written valid-action lists
    batch[0]["valid_t"], batch[0]["valid_o1"], batch[0]["valid_o2"] = \
        (0, 3), (1,), ()
    batch[1]["valid_t"], batch[1]["valid_o1"], batch[1]["valid_o2"] = \
        (2,), (0, 5), (4,)

    total, td, bce, _, _ = tdqn_loss(params, target, cfg, batch, gamma=0.9)
    mix_gap = abs(total - (0.5 * td + 0.5 * bce))

    q_t, q_o1, q_o2, _ = tdqn_forward(params, cfg, [s["obs"] for s in batch])
    t_t = np.zeros((2, n_t))
    t_t[0, 0] = t_t[0, 3] = t_t[1, 2] = 1.0
    t_1 = np.zeros((2, n_w))
    t_1[0, 1] = t_1[1, 0] = t_1[1, 5] = 1.0
    t_2 = np.zeros((2, n_w))
    t_2[1, 4] = 1.0

    def bce_sum(logits, targets):
        prob = sigmoid(logits)
        return float(-(targets * np.log(prob)
                       + (1 - targets) * np.log(1 - prob)).sum())

    by_hand = (bce_sum(q_t, t_t) + bce_sum(q_o1, t_1) + bce_sum(q_o2, t_2))
    by_hand /= (n_t + 2 * n_w) * len(batch)
    bce_gap = abs(bce - by_hand) / max(abs(by_hand), 1e-12)

    ok = mix_gap < 1e-10 and bce_gap < 1e-9
    announce(capsys, "loss composition", ok,
             f"total = 0.5*TD + 0.5*BCE (gap {mix_gap:.1e} < 1e-10), "
             f"BCE matches hand multi-hot (rel {bce_gap:.1e})")
    assert mix_gap < 1e-10
    assert bce_gap < 1e-9
