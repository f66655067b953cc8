"""Check that two checkouts train, evaluate and benchmark identically.

usage: python tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout is imported in its own subprocess (its `src` and `tests`
directories go first on sys.path), which runs a fixed set of seeded jobs
and prints a JSON digest of their outputs:

* DRRN and TDQN on the tinybox test game (seeds 7 and 8, two
  early-stopping configs, and seed 7 at target_sync=0, where the target is
  the live network) and on mailhouse (DRRN 600 and TDQN 1500 env steps,
  seed 3, plus runs that cross many target syncs: DRRN 2000 steps at
  target_sync=20 and TDQN 3000 steps at target_sync=50): the learning
  curve, a hash of the final parameters, the update count, the early-stop
  step and three evaluation episodes;
* `bench.run_benchmark` over every bundled game at seeds 1 and 17;
* random-agent training curves on tinybox and mailhouse;
* `sim`: every bundled game at seeds 1, 2 and 3 played for 60
  explore-style turns (observation, identify_valid_actions, a seeded pick,
  step, save, now and then a load of an earlier snapshot), digesting the
  observation channels, the valid-action surfaces and diff hashes, the step
  results and the snapshot bytes;
* `sweep`: every bundled game played through its walkthrough to the end,
  with identify_valid_actions run before each step on the default fillers
  and on explicit filler lists (the game's item names, unknown, empty,
  upper-case and two-word names), dedup off and on, then observation()
  and "look" after the episode has ended;
* `memo`: every bundled game played through its walkthrough, asking each
  state everything twice: two observations, identify_valid_actions on the
  default, reversed and two-word fillers with dedup off and on, every
  template filling executed twice on one Situation, a rejected step, the
  step, and now and then a load of an earlier snapshot queried the same
  way before the walk goes on; digesting every text, surface, diff hash,
  snapshot and state_hash;
* `gamejson`: every bundled game's JSON as shipped and mutated one field
  at a time (each value set to each of GAMEJSON_VALUES, deleted, and each
  key of a JSON object renamed), run through parse_game; each case's
  outcome is the exception type and message, or a hash of serialize_game's
  output;
* `snaplinks`: every bundled game's snapshot at the start (seed 1) and at
  the end of its walkthrough, as saved and with each link (parent, first
  child, sibling) of each node set to -1, to each object id and to an
  unknown id, run through Snapshot.restore; each case's outcome is the
  exception type and message, or a hash of the restored state's encoding;
* `rollout`: every bundled game at seeds 1, 2 and 3 played for 300 seeded
  canonical commands with no handicaps (the random agent's commands, more
  than half of which the parser, a precondition or an effect rejects), each
  run through engine.execute with no Situation and then through env.step;
  digesting every StepResult repr and every CommandResult field: text,
  outcome, applied, reward, diff, diff hash and the state's encoding;
* `diffpairs`: every bundled game at seed 1 played for DIFFPAIRS_TURNS
  explore-style turns with now and then a load of an earlier snapshot;
  at each state, state_diff and its hash over ordered pairs of the state,
  its probe results (children), one child's own probe result (a
  grandchild) and a restored copy of the state: parent to child and back,
  sibling to sibling, parent to grandchild and back, and to and from the
  restored copy; plus each of those states' encodings under all four flag
  combinations and its situation hash. Edited copies take the edit-set
  path of state_diff and every other pair the full comparison, so both are
  checked;
* `shared`: every bundled game played by two and by three Environments
  over one per-situation store (an unbounded dict, and an LruCache of
  SHARED_CAPACITY entries), taking turns at random for SHARED_TURNS
  turns: each turn observes, detects valid actions and follows the
  walkthrough, takes a random detour and returns, or loads a snapshot any
  of them saved; digesting every observation, valid-action surface and
  step result, so that a store answering one environment from another's
  state shows up as a differing digest.

Learner, benchmark and simulator outputs must match byte for byte. A
random curve may differ only by the new checkout dropping a final episode
that the old one recorded when the step budget ran out, i.e. one that had
not ended. Exits 0 when every job agrees, 1 otherwise; a `gamejson` or
`snaplinks` job that differs lists each differing case with both
outcomes. Takes about three minutes per checkout.
"""

import copy
import hashlib
import json
import os
import random
import struct
import subprocess
import sys
from importlib import resources

RANDOM_BUDGETS = (("tiny", 400), ("tiny", 1200), ("mail", 3000))
SIM_SEEDS = (1, 2, 3)
SIM_TURNS = 60
ROLLOUT_STEPS = 300
DIFFPAIRS_TURNS = 40
SHARED_TURNS = 300
SHARED_CAPACITY = 5
ODD_FILLERS = ((), ("xyzzy",), ("LAMP", "Key", "box"), ("brass key", "lamp"),
               ("", "take", "north"))
GAMEJSON_VALUES = (None, 1, -1, 0, 2 ** 40, True, 1.5, "x", "", [], [1],
                   ["x"], {}, {"x": 1})
DELETE, RENAME = object(), object()


def sim(game, seed: int) -> str:
    """Digest of SIM_TURNS explore-style turns of `game` from `seed`."""
    from textquest.env import Environment

    rng = random.Random(seed)
    digest = hashlib.sha256()

    def add(value) -> None:
        digest.update(value if isinstance(value, bytes) else
                      repr(value).encode())

    env = Environment(game)
    env.reset(seed=seed)
    saved = []
    for _ in range(SIM_TURNS):
        obs = env.observation()
        add((obs.narrative, obs.inventory, obs.description, obs.prev_action))
        valid = env.identify_valid_actions()
        add((valid.surfaces, valid.diff_hashes))
        pick = rng.choice(valid.surfaces or ("look",))
        add(env.step(pick))
        snapshot = env.save()
        add(snapshot.data)
        if env.done:
            env.reset(seed=seed)
            continue
        saved.append(snapshot)
        if rng.random() < 0.05:
            env.load(rng.choice(saved))
    return digest.hexdigest()


def sweep(game, seed: int) -> str:
    """Digest of the sweeps, observations and steps of one walkthrough."""
    from textquest.engine import execute
    from textquest.env import Environment

    digest = hashlib.sha256()
    env = Environment(game)
    env.reset(seed=seed)
    items = tuple(sorted(obj.name for obj in game.objects
                         if obj.kind == "item"))
    for command in game.walkthrough:
        for objects in (None, items) + ODD_FILLERS:
            for dedup in (False, True):
                valid = env.identify_valid_actions(objects, dedup=dedup)
                digest.update(repr((valid.surfaces, valid.diff_hashes))
                              .encode())
        digest.update(repr(env.observation()).encode())
        digest.update(repr(env.step(command)).encode())
        digest.update(env.save().data)
    if not env.done:
        raise RuntimeError(f"{game.title}: the walkthrough did not end it")
    look = execute(env.state, game, "look")
    digest.update(repr((env.observation(), env.identify_valid_actions(),
                        look.observation, look.reward, look.diff)).encode())
    return digest.hexdigest()


def memo(game, seed: int) -> str:
    """Digest of a walkthrough whose every state is queried twice over."""
    from textquest.engine import Situation, execute
    from textquest.env import Environment
    from textquest.grammar import enumerate_candidates

    rng = random.Random(seed)
    digest = hashlib.sha256()

    def add(value) -> None:
        digest.update(value if isinstance(value, bytes) else
                      repr(value).encode())

    env = Environment(game)
    env.reset(seed=seed)
    two_word = tuple(sorted({n for obj in game.objects for n in obj.names
                             if " " in n}))

    def query() -> None:
        for _ in range(2):
            add(env.observation())
        default = tuple(env.interactive_objects())
        for objects in (None, default[::-1], two_word + default[:1]):
            for dedup in (False, True):
                valid = env.identify_valid_actions(objects, dedup=dedup)
                add((valid.surfaces, valid.diff_hashes))
        ctx = Situation(env.state, game)
        for cand in enumerate_candidates(game.templates(), default):
            for _ in range(2):
                r = execute(env.state, game, cand.surface, ctx)
                add((r.observation, r.outcome, r.applied, r.reward,
                     r.diff, r.diff.diff_hash()))
                add(r.state.snapshot().data)
        add((env.state_hash(), env.save().data))

    saved = []
    for command in game.walkthrough:
        query()
        add(env.step("xyzzy"))
        add(env.step(command))
        saved.append(env.save())
        add((env.state_hash(), saved[-1].data))
        if rng.random() < 0.25:
            env.load(rng.choice(saved))
            query()
            env.load(saved[-1])
            query()
    if not env.done:
        raise RuntimeError(f"{game.title}: the walkthrough did not end it")
    query()
    return digest.hexdigest()


def rollout(game, seed: int) -> str:
    """Digest of ROLLOUT_STEPS seeded canonical commands on `game`."""
    from textquest.agents.training import CANONICAL_ACTIONS, RANDOM_HANDICAPS
    from textquest.engine import execute
    from textquest.env import Environment

    rng = random.Random(seed)
    digest = hashlib.sha256()
    env = Environment(game, RANDOM_HANDICAPS)
    env.reset(seed=seed)
    for _ in range(ROLLOUT_STEPS):
        command = rng.choice(CANONICAL_ACTIONS)
        r = execute(env.state, game, command)
        digest.update(repr((command, r.observation, r.outcome, r.applied,
                            r.reward, r.diff, r.diff.diff_hash())).encode())
        digest.update(r.state.encode())
        digest.update(repr(env.step(command)).encode())
        if env.done:
            env.reset(seed=seed)
    return digest.hexdigest()


def diffpairs(game, seed: int) -> str:
    """Digest of state_diff over ordered pairs of related states, and of
    their encodings, along DIFFPAIRS_TURNS turns of `game`."""
    from textquest.engine import execute
    from textquest.env import Environment
    from textquest.world import state_diff

    rng = random.Random(seed)
    digest = hashlib.sha256()
    env = Environment(game)
    env.reset(seed=seed)
    saved = []
    for _ in range(DIFFPAIRS_TURNS):
        state = env.state
        surfaces = env.identify_valid_actions().surfaces or ("look",)
        kids = [execute(state, game, text).state for text in surfaces[:4]]
        grandchild = next((r.state for r in (
            execute(kids[0], game, text) for text in surfaces)
            if r.diff.tree), kids[0])
        restored = env.save().restore()
        pairs = [(state, kid) for kid in kids] + \
            [(kid, state) for kid in kids] + list(zip(kids, kids[1:])) + \
            [(state, grandchild), (grandchild, state), (kids[0], grandchild),
             (state, restored), (restored, state), (restored, kids[0])]
        for a, b in pairs:
            diff = state_diff(a, b)
            digest.update(repr((diff, diff.diff_hash())).encode())
        for s in [state, *kids, grandchild, restored]:
            for counters in (False, True):
                for with_rng in (False, True):
                    digest.update(s.encode(counters, with_rng))
            digest.update(repr(s.situation_hash()).encode())
        env.step(rng.choice(surfaces))
        saved.append(env.save())
        if env.done:
            env.reset(seed=seed)
        elif rng.random() < 0.1:
            env.load(rng.choice(saved))
    return digest.hexdigest()


def shared(game, count: int) -> str:
    """Digest of `count` Environments of `game` that share one store."""
    from textquest.env import Environment
    from textquest.grammar import enumerate_candidates
    from textquest.records import LruCache

    rng = random.Random(count)
    digest = hashlib.sha256()

    def add(value) -> None:
        digest.update(repr(value).encode())

    templates = game.templates()
    for store in ({}, LruCache(SHARED_CAPACITY)):
        envs = [Environment(game, valid_action_cache=store)
                for _ in range(count)]
        progress = [0] * count
        saves = []  # (snapshot, walkthrough progress), from every env
        for i, env in enumerate(envs):
            add(env.reset(seed=count + i)[0])
        for _ in range(SHARED_TURNS):
            i = rng.randrange(count)
            env = envs[i]
            add((i, env.observation(), env.identify_valid_actions().surfaces))
            roll = rng.random()
            if env.done or (saves and roll < 0.15):
                snapshot, progress[i] = rng.choice(saves)
                env.load(snapshot)
            elif roll < 0.45:  # a detour, then back to the walk
                here = env.save()
                surfaces = [c.surface for c in enumerate_candidates(
                    templates, env.interactive_objects())]
                add(env.step(rng.choice(surfaces or ["look"])))
                add((env.observation(),
                     env.identify_valid_actions(dedup=True).surfaces))
                env.load(here)
            else:
                add(env.step(game.walkthrough[progress[i]]))
                progress[i] += 1
                saves.append((env.save(), progress[i]))
    return digest.hexdigest()


def _json_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def gamejson(text: str) -> dict[str, str]:
    """Outcome of parse_game on the game JSON `text` and on each of its
    single-field mutations, by case name."""
    from textquest.gamedefs import parse_game, serialize_game

    def outcome(data) -> str:
        try:
            game = parse_game(data)
        except Exception as err:  # an undocumented type is an outcome too
            return f"{type(err).__name__}: {err}"
        blob = json.dumps(serialize_game(game), sort_keys=True).encode()
        return "parsed " + hashlib.sha256(blob).hexdigest()[:16]

    def mutated(where, edit):
        data = json.loads(text)
        node = data
        for key in where[:-1]:
            node = node[key]
        if edit is DELETE:
            del node[where[-1]]
        elif edit is RENAME:
            node[f"{where[-1]}x"] = node.pop(where[-1])
        else:
            node[where[-1]] = copy.deepcopy(edit)
        return data

    cases = {"as shipped": outcome(json.loads(text))}
    for where in _json_paths(json.loads(text)):
        name = "/".join(map(str, where))
        edits = [(f"{name} = {json.dumps(v)}", v) for v in GAMEJSON_VALUES]
        edits.append((f"{name} deleted", DELETE))
        if isinstance(where[-1], str):
            edits.append((f"{name} renamed", RENAME))
        for case, edit in edits:
            cases[case] = outcome(mutated(where, edit))
    return cases


def snaplinks(game) -> dict[str, str]:
    """Outcome of Snapshot.restore on `game`'s start and walkthrough-end
    snapshots and on each of their single-link mutations, by case name."""
    from textquest.env import Environment
    from textquest.world import Snapshot

    def outcome(data: bytes) -> str:
        try:
            state = Snapshot(data).restore()
        except Exception as err:  # an undocumented type is an outcome too
            return f"{type(err).__name__}: {err}"
        return "restored " + hashlib.sha256(state.encode()).hexdigest()[:16]

    env = Environment(game)
    env.reset(seed=1)
    snapshots = {"start": env.save()}
    for command in game.walkthrough:
        env.step(command)
    snapshots["end"] = env.save()
    cases = {}
    for label, snapshot in snapshots.items():
        data = snapshot.data
        cases[f"{label} as saved"] = outcome(data)
        nodes = snapshot.restore().tree.nodes
        ids = sorted(nodes)
        pos = 10  # magic, version, flags, node count
        for obj in ids:
            pos += len(nodes[obj].record)  # the links follow each record
            for link, name in enumerate(("parent", "first child", "sibling")):
                at = pos + 4 * link
                for value in (-1, *ids, ids[-1] + 1):
                    cases[f"{label} {obj} {name} = {value}"] = outcome(
                        data[:at] + struct.pack("<i", value) + data[at + 4:])
            pos += 12
    return cases


def dump(root: str) -> dict:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    from conftest import tinybox_dict
    from textquest import bench, bundled_game_names, load_bundled
    from textquest.agents.training import TrainConfig, evaluate, train
    from textquest.gamedefs import parse_game

    def tiny_cfg(**overrides):
        base = dict(agent="drrn", embed_dim=8, hidden_dim=8, q_hidden_dim=8,
                    max_len=16, batch_size=8, warmup=16, update_every=2,
                    target_sync=25, eps_decay_steps=100, max_env_steps=250,
                    replay_capacity=2000, rolling_window=5)
        base.update(overrides)
        return TrainConfig(**base)

    def learner(game, cfg, seed):
        result = train(game, cfg, seed)
        digest = hashlib.sha256()
        for key in sorted(result.params):
            digest.update(key.encode())
            digest.update(result.params[key].tobytes())
        return {"curve": result.curve_text(), "params": digest.hexdigest(),
                "updates": result.updates, "env_steps": result.env_steps,
                "reached": result.reached_step,
                "eval": repr(evaluate(game, result, seed=5, episodes=3))}

    games = {"tiny": parse_game(tinybox_dict()),
             "mail": load_bundled("mailhouse")}
    out = {}
    for agent in ("drrn", "tdqn"):
        for seed in (7, 8):
            out[f"tiny-{agent}-{seed}"] = learner(
                games["tiny"], tiny_cfg(agent=agent), seed)
        out[f"tiny-{agent}-stop0"] = learner(
            games["tiny"], tiny_cfg(agent=agent, early_stop_score=0.0,
                                    rolling_window=3, max_env_steps=2000), 7)
        out[f"tiny-{agent}-stop1"] = learner(
            games["tiny"], tiny_cfg(agent=agent, early_stop_score=1.0,
                                    rolling_window=4, max_env_steps=3000), 8)
        out[f"tiny-{agent}-sync0"] = learner(
            games["tiny"], tiny_cfg(agent=agent, target_sync=0), 7)
    out["mail-drrn-3"] = learner(
        games["mail"], TrainConfig(agent="drrn", max_env_steps=600), 3)
    out["mail-tdqn-3"] = learner(
        games["mail"], TrainConfig(agent="tdqn", max_env_steps=1500), 3)
    out["mail-drrn-sync20"] = learner(
        games["mail"], TrainConfig(agent="drrn", max_env_steps=2000,
                                   target_sync=20), 3)
    out["mail-tdqn-sync50"] = learner(
        games["mail"], TrainConfig(agent="tdqn", max_env_steps=3000,
                                   target_sync=50), 3)
    bundled = {name: load_bundled(name) for name in bundled_game_names()}
    for seed in (1, 17):
        out[f"bench-{seed}"] = bench.run_benchmark(bundled, seed).to_json()
    for name, game in bundled.items():
        for seed in SIM_SEEDS:
            out[f"sim-{name}-{seed}"] = sim(game, seed)
        out[f"sweep-{name}"] = sweep(game, 1)
        out[f"memo-{name}"] = memo(game, 1)
        out[f"gamejson-{name}"] = gamejson(
            (resources.files("textquest") / "games" / f"{name}.game.json")
            .read_text(encoding="utf-8"))
        out[f"snaplinks-{name}"] = snaplinks(game)
        for seed in SIM_SEEDS:
            out[f"rollout-{name}-{seed}"] = rollout(game, seed)
        out[f"diffpairs-{name}"] = diffpairs(game, 1)
        for count in (2, 3):
            out[f"shared-{name}-{count}"] = shared(game, count)
    for name, steps in RANDOM_BUDGETS:
        for seed in (1, 2):
            cfg = TrainConfig(agent="random", max_env_steps=steps)
            out[f"random-{name}-{steps}-{seed}"] = \
                train(games[name], cfg, seed).curve_text()
    return out


def random_curve_agrees(old: str, new: str, budget: int) -> bool:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if old_lines == new_lines:
        return True
    dropped = old_lines[len(new_lines):]
    return (old_lines[:len(new_lines)] == new_lines and len(dropped) == 1
            and int(dropped[0].split(",")[1]) == budget)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--dump":
        json.dump(dump(argv[2]), sys.stdout)
        return 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (json.loads(subprocess.run(
        [sys.executable, __file__, "--dump", os.path.abspath(root)],
        check=True, capture_output=True, text=True).stdout)
        for root in argv[1:])
    failed = 0
    for key in sorted(old):
        if key.startswith("random-"):
            same = random_curve_agrees(old[key], new[key],
                                       int(key.split("-")[2]))
            note = "" if old[key] == new[key] else " (dropped unfinished)"
        else:
            same, note = old[key] == new[key], ""
        failed += not same
        print(f"{'agrees' if same else 'DIFFERS'} {key}{note}")
        if key.startswith(("gamejson-", "snaplinks-")) and not same:
            for case in sorted(old[key].keys() | new[key].keys()):
                if old[key].get(case) != new[key].get(case):
                    print(f"  {case}\n    old: {old[key].get(case)}\n"
                          f"    new: {new[key].get(case)}")
    print(f"{len(old) - failed}/{len(old)} jobs agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
