"""What a turn computes once and reuses, checked against the plain
computations they stand for: each Situation's command results and situation
key, the observations and steps each Environment answers from the command
records of its per-situation store (which environments may share) and each
game's probe lists; and the encoding that joins each node's cached record,
against the field-by-field reference."""

import random

import pytest

from helpers import reference_encode
from test_state_sharing import GAMES, ODD_FILLERS, _game
from test_target_memo import tiny_cfg
from textquest import engine, env as env_module, gamedefs
from textquest.agents import training
from textquest.engine import Situation, execute, init_state, may_edit_tree
from textquest.env import VALID_CACHE_CAPACITY, Environment, StepResult
from textquest.gamedefs import load_bundled
from textquest.grammar import enumerate_candidates
from textquest.records import LruCache
from textquest.world import WorldState


def _assert_encodes_like_reference(state: WorldState) -> None:
    for counters in (True, False):
        for rng in (True, False):
            assert state.encode(counters, rng) == \
                reference_encode(state, counters, rng)


# -- the tree's encoding -------------------------------------------------


@pytest.mark.parametrize("name", GAMES)
def test_cached_encoding_matches_reference_on_every_walkthrough_state(name):
    game = load_bundled(name)
    env = Environment(game)
    env.reset(seed=2)
    for i, command in enumerate(game.walkthrough):
        state = env.state
        _assert_encodes_like_reference(state)
        env.identify_valid_actions()
        for text in ("xyzzy", "take", "north north"):  # all rejected
            result = env.step(text)
            assert result.moves == state.moves and env.state is state
            _assert_encodes_like_reference(state)
        snapshot = env.save()
        if i % 3 == 0:
            env.load(snapshot)
            assert env.state is not state
            _assert_encodes_like_reference(env.state)
            assert env.state.encode() == snapshot.data
        env.step(command)
        fork = env.state.fork()
        assert fork.tree is env.state.tree
        _assert_encodes_like_reference(fork)
    assert env.done
    _assert_encodes_like_reference(env.state)


def test_reparent_and_set_attr_change_the_encoding():
    game = load_bundled("mailhouse")
    state = init_state(game, 0)
    item = next(i for i, n in sorted(state.tree.nodes.items())
                if n.kind == "item")
    before = state.encode()
    edits = (lambda tree: tree.reparent(item, tree.player),
             lambda tree: tree.set_attr(item, "open"),
             lambda tree: tree.set_attr(item, "open", on=False))
    twin = state.copy()
    for edit in edits:
        body = twin.tree.body()
        edit(twin.tree)
        assert twin.tree.body() != body
        _assert_encodes_like_reference(twin)
    assert state.encode() == before  # the copy's edits never reach it


# -- command results kept per Situation ---------------------------------------------


def _fields(state, result):
    after = result.state
    return (result.observation, result.outcome, result.applied,
            result.reward, result.diff, result.diff.diff_hash(),
            after is state, after.tree is state.tree, after.encode(),
            dict(after.globals))


@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_a_repeated_command_equals_a_run_on_a_fresh_situation(name):
    game = _game(name)
    env = Environment(game)
    env.reset(seed=3)
    rng = random.Random(3)
    templates = game.templates()
    repeated = 0
    for _ in range(12):
        if env.done:
            break
        state = env.state
        ctx = Situation(state, game)
        fillers = env.interactive_objects()
        surfaces = [c.surface for c in enumerate_candidates(templates,
                                                            fillers)]
        surfaces += ["look", "inventory", "take all", "xyzzy", ""]
        first = {text: execute(state, game, text, ctx) for text in surfaces}
        for text in surfaces:
            again = execute(state, game, text, ctx)
            assert again is first[text], text
            fresh = execute(state, game, text)
            assert fresh is not again
            assert _fields(state, again) == _fields(state, fresh), text
            repeated += 1
        valid = env.identify_valid_actions()
        env.step(rng.choice(valid.surfaces or ("look",)))
    assert repeated > 100


def test_the_step_after_a_sweep_returns_its_probe_result():
    game = load_bundled("brasskey")
    env = Environment(game)
    env.reset(seed=0)
    probed = {}
    for text in env.identify_valid_actions().surfaces:
        probed[text] = execute(env.state, game, text, env._ctx())
    text = sorted(probed)[0]
    result = env.step(text)
    assert env.state is probed[text].state
    assert result.observation == probed[text].observation


# -- observations kept per situation -------------------------------------------


@pytest.mark.parametrize("capacity", [1, VALID_CACHE_CAPACITY])
@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_an_observation_equals_inventory_and_look_on_a_fresh_situation(
        name, capacity, monkeypatch):
    """Seeded walks that follow the walkthrough to its end, take random
    detours and load earlier saves, so situations recur at other move
    counts and scores; every observation must be the one the two commands
    give, whether the memo holds one situation or many."""
    monkeypatch.setattr(env_module, "VALID_CACHE_CAPACITY", capacity)
    game = _game(name)
    env = Environment(game)
    rng = random.Random(5)
    templates = list(game.templates())
    seen: set[int] = set()
    counts = {"revisits": 0, "ends": 0}

    def observe():
        obs = env.observation()
        assert (obs.inventory, obs.description) == tuple(
            execute(env.state, game, text).observation
            for text in ("inventory", "look"))
        assert len(env._cache) <= capacity
        key = env.state.situation_hash()
        counts["revisits"] += key in seen
        counts["ends"] += env.done
        seen.add(key)

    env.reset(seed=5)
    saves, progress = [], 0
    for _ in range(120):
        observe()
        if env.done:
            if rng.random() < 0.5:
                env.reset(seed=5)
                saves, progress = [], 0
            else:
                snapshot, progress = rng.choice(saves)
                env.load(snapshot)
            continue
        saves.append((env.save(), progress))
        roll = rng.random()
        if roll < 0.05:
            snapshot, progress = rng.choice(saves)
            env.load(snapshot)
        elif roll < 0.35:  # a detour, then back to the walk
            surfaces = [c.surface for c in enumerate_candidates(
                templates, env.interactive_objects())]
            env.step(rng.choice(surfaces or ["look"]))
            observe()
            env.load(saves[-1][0])
        else:
            env.step(game.walkthrough[progress])
            progress += 1
    assert counts["revisits"] > 20 and counts["ends"] > 0


def test_a_revisited_situation_is_observed_without_a_command(tinybox,
                                                              monkeypatch):
    env = Environment(tinybox)
    env.reset(seed=0)
    first = env.observation()
    start = env.save()
    env.step("take pebble")
    env.step("drop pebble")  # the start's situation, one state later
    executed = []
    hashed = []

    def execute_spy(*args):
        executed.append(args[2])
        return execute(*args)

    def hash_spy(self):
        hashed.append(self)
        return situation_hash(self)

    situation_hash = WorldState.situation_hash
    monkeypatch.setattr(engine, "execute", execute_spy)
    monkeypatch.setattr(WorldState, "situation_hash", hash_spy)
    for revisit in (lambda: None, lambda: env.load(start)):
        revisit()
        executed.clear()
        hashed.clear()
        again = env.observation()
        assert executed == []
        assert again.inventory == first.inventory
        assert again.description == first.description
        env.identify_valid_actions()
        env.identify_valid_actions()
        assert len(hashed) == 1 and hashed[0] is env.state


def test_environments_sharing_a_store_share_observations(tinybox,
                                                         monkeypatch):
    """A situation one environment observed is observed by another over the
    same store without a command, and DRRN's environments share one store."""
    game = load_bundled("mailhouse")
    store = LruCache(VALID_CACHE_CAPACITY)
    first, second = (Environment(game, valid_action_cache=store)
                     for _ in range(2))
    first.reset(seed=1)
    saves = []
    for command in game.walkthrough[:12]:
        first.observation()
        first.identify_valid_actions()
        saves.append(first.save())
        first.step(command)
    second.reset(seed=2)
    executed = []

    def execute_spy(*args):
        executed.append(args[2])
        return execute(*args)

    for snapshot in saves:
        second.load(snapshot)
        monkeypatch.setattr(engine, "execute", execute_spy)
        obs = second.observation()
        second.identify_valid_actions()
        monkeypatch.undo()
        assert executed == []
        state = second.state
        ctx = Situation(state, game)
        assert (obs.inventory, obs.description) == tuple(
            execute(state, game, text, ctx).observation
            for text in ("inventory", "look"))
    assert len(store) > len(saves)  # observations and sweeps, one store

    envs = []
    real_env = training.Environment

    def spy_env(*args, **kwargs):
        envs.append(real_env(*args, **kwargs))
        return envs[-1]

    monkeypatch.setattr(training, "Environment", spy_env)
    training.train(tinybox, tiny_cfg(max_env_steps=100), seed=3)
    assert len(envs) == tiny_cfg().env_count > 1
    assert all(env._cache is envs[0]._cache for env in envs)


# -- probe lists kept per game ----------------------------------------------------


def _probe_list(game, fillers):
    return tuple(c for c in enumerate_candidates(game.templates(), fillers)
                 if may_edit_tree(game, c.surface))


@pytest.mark.parametrize("name", GAMES + ("headbox",))
def test_probe_lists_match_enumeration_and_stay_bounded(name, monkeypatch):
    monkeypatch.setattr(gamedefs, "PROBE_LISTS_CAPACITY", 3)
    game = _game(name)
    items = sorted(o.name for o in game.objects if o.kind == "item")
    two_word = sorted({n for o in game.objects for n in o.names if " " in n})
    envs = [Environment(game, valid_action_cache={}) for _ in range(2)]
    for env in envs:
        env.reset(seed=1)
    filler_lists = [None, items, items[::-1], two_word + items[:1],
                    *ODD_FILLERS]
    keys = set()
    for i, fillers in enumerate(filler_lists * 2):
        env = envs[i % 2]
        for dedup in (False, True):
            env.identify_valid_actions(fillers, dedup=dedup)
        key = tuple(env.interactive_objects() if fillers is None
                    else fillers)
        keys.add(key)
        assert game.probe_lists[key] == _probe_list(game, key)
        assert len(game.probe_lists) <= 3
    assert len(keys) > 3  # so entries were evicted and built again
    # both environments of the game share one memo
    assert envs[0].game.probe_lists is envs[1].game.probe_lists


# -- steps served from the per-situation store -------------------------------------


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("make_store", [dict, lambda: LruCache(5)],
                         ids=["dict", "lru5"])
def test_a_served_step_equals_execute_on_the_live_state(count, make_store,
                                                        monkeypatch):
    """Every bundled game played by `count` environments over one store:
    the walkthrough, detours that step a command, load back, "look" (the
    same situation one move on) and step the command again, loads of any
    environment's earlier snapshots and resets with other seeds. Every step
    must give the StepResult and state encoding, rng and counters included,
    that execute gives on the live state with no Situation; the served
    steps must include rejected, emit-text and set-global commands, a score
    rule that fires and one that ends the game."""
    served = []
    real_at = env_module.Recorded.at

    def at_spy(rec, state):
        served.append(rec)
        return real_at(rec, state)

    monkeypatch.setattr(env_module.Recorded, "at", at_spy)
    covered = set()

    def step(env, text):
        fresh = execute(env.state, env.game, text)
        after = fresh.state
        before = len(served)
        result = env.step(text)
        assert result == StepResult(
            fresh.observation, fresh.reward, after.score, after.done,
            after.moves, fresh.outcome.kind, bool(fresh.diff.tree)), text
        assert env.state.encode() == after.encode(), text
        if len(served) > before:
            covered.add(next(rule.effect.kind for rule in env.game.grammar
                             if rule.id == fresh.outcome.rule_id)
                        if fresh.applied else "rejected")
            covered.update(("scored",) * (fresh.reward != 0) +
                           ("ended",) * after.done)

    for name in GAMES:
        game = load_bundled(name)
        templates = game.templates()
        rng = random.Random(count)
        store = make_store()
        envs = [Environment(game, valid_action_cache=store)
                for _ in range(count)]
        for i, env in enumerate(envs):
            env.reset(seed=10 + i)
        progress = [0] * count
        saves = []  # (snapshot, walkthrough progress), from every env
        for _ in range(150):
            i = rng.randrange(count)
            env = envs[i]
            env.observation()
            if rng.random() < 0.5:
                env.identify_valid_actions()
            roll = rng.random()
            if env.done or (saves and roll < 0.1):
                if rng.random() < 0.2:
                    env.reset(seed=rng.randrange(100))
                    progress[i] = 0
                else:
                    snapshot, progress[i] = rng.choice(saves)
                    env.load(snapshot)
            elif roll < 0.55:  # a detour, then back one move later
                here = env.save()
                fillings = [c.surface for c in enumerate_candidates(
                    templates, env.interactive_objects())]
                text = rng.choice(fillings + [game.walkthrough[progress[i]],
                                              "look", "inventory", "xyzzy"])
                step(env, text)
                env.load(here)
                env.observation()
                step(env, "look")
                env.observation()
                step(env, text)
                env.load(here)
            else:
                step(env, game.walkthrough[progress[i]])
                progress[i] += 1
                saves.append((env.save(), progress[i]))
    assert len(served) > 500
    assert {"rejected", "emit-text", "set-global", "scored",
            "ended"} <= covered, covered


def test_a_rollout_step_neither_hashes_nor_stores(monkeypatch):
    """With RANDOM_HANDICAPS (no load_save, so no observation keys a
    situation) a step must not hash the state or fill the store: the
    random-agent rollout pays nothing for the records."""
    envs = []
    real_env = training.Environment

    def spy_env(*args, **kwargs):
        envs.append(real_env(*args, **kwargs))
        return envs[-1]

    hashed = []
    situation_hash = WorldState.situation_hash

    def hash_spy(self):
        hashed.append(self)
        return situation_hash(self)

    monkeypatch.setattr(training, "Environment", spy_env)
    monkeypatch.setattr(WorldState, "situation_hash", hash_spy)
    steps = sum(record.moves for name in GAMES for record in
                training.run_random(load_bundled(name), seed=4, episodes=2))
    assert steps > 100 and len(envs) == len(GAMES)
    assert all(env.handicaps == training.RANDOM_HANDICAPS for env in envs)
    assert hashed == [] and all(len(env._cache) == 0 for env in envs)
