"""Training, evaluation, and rollout harness for the bundled agents.

Every run, whether training, evaluation or a benchmark rollout, goes through
one episode protocol in `_rollout`, which steps its agent's environments
round-robin: each round the agent picks one command per environment, each
environment steps and the agent observes the result, and the round ends
with one `update`. An episode ends when the game ends, after
`step_cap` accepted commands, or after `max_episode_issues` commands of any
kind (rejected commands do not count as moves, so an agent that only types
nonsense would otherwise never finish). Only ended episodes are recorded: a
run cut short by its step budget or its clock drops the episodes still in
flight. The per-episode return is the sum of score deltas, and every run is
reproducible from a single integer seed (all randomness flows through
SplitMix64, numpy is seeded from it once for parameter init).

The relevance agent (drrn) drives several environments, picks among
detected valid actions with a softmax over Q values while training and by
argmax when evaluating, and performs prioritized replay updates every
round. The template agent (tdqn) drives one environment, assembles a
command from its three heads with per-head epsilon-greedy selection
(annealed while training, `eps_end` when evaluating), and mixes TD learning
with valid-action supervision. The random agent issues canonical commands
uniformly and learns nothing; it exists as the floor every learner must
beat.

Learning curves are CSV with header "episode,steps,return,score" where
steps is the cumulative environment step count when the episode finished.
Checkpoints are .npz archives carrying a format version, both config
blocks, the tokenizer, and every parameter tensor.
"""

from __future__ import annotations

import json
import lzma
import math
import time
import tokenize
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from ..env import (EPISODE_STEP_CAP, VALID_CACHE_CAPACITY, Environment,
                   Handicaps, StepResult)
from ..gamedefs import GameDef
from ..grammar import fill_template
from ..records import LruCache
from ..rng import SplitMix64
from .models import (ModelConfig, TokenChannels, drrn_init, drrn_loss,
                     drrn_q_values, tdqn_forward, tdqn_init, tdqn_loss)
from .nn import Adam, Params, copy_params
from .policy import (argmax_tie_break, epsilon_greedy, linear_anneal,
                     softmax_select)
from .replay import PrioritizedReplay
from .tokenizer import Tokenizer

AGENT_KINDS = ("random", "drrn", "tdqn")

# The fixed command set a no-knowledge agent samples from.
CANONICAL_ACTIONS = ("north", "south", "east", "west", "up", "down", "look",
                     "inventory", "take all", "drop", "yes")

CHECKPOINT_VERSION = 1
# what numpy's .npz reader can raise on damaged bytes (NotImplementedError,
# for an unknown compression method, is a RuntimeError)
_ARCHIVE_ERRORS = (OSError, ValueError, EOFError, RuntimeError, SyntaxError,
                   tokenize.TokenError, zipfile.BadZipFile, zlib.error,
                   lzma.LZMAError)
_META_KEYS = ("agent", "train_config", "model_config", "tokenizer_words",
              "tokenizer_max_len", "templates", "words", "env_steps",
              "updates")
CURVE_HEADER = "episode,steps,return,score"

FULL_HANDICAPS = Handicaps()
RANDOM_HANDICAPS = Handicaps(fixed_seed=True, load_save=False,
                             templates_vocab=False, object_tree=False,
                             valid_action_detection=False)


class CheckpointError(Exception):
    pass


# Counts are integers >= 1 (>= 0 in _ZERO_COUNTS): no envs or a zero cap
# would never end an episode or spend the budget, and a zero width, capacity,
# period or run count leaves nothing to compute. Reals are finite and >= 0
# (bar early_stop_score), > 0 if _POSITIVE and <= 1 if _FRACTIONS.
_ZERO_COUNTS = ("eps_decay_steps", "max_env_steps", "updates_per_round",
                "warmup", "target_sync", "beta_anneal_updates")
_POSITIVE = ("lr", "tau", "replay_eps")
_FRACTIONS = ("gamma", "eps_start", "eps_end", "lambda_mix", "replay_beta0")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the game and the seed."""

    agent: str = "drrn"
    runs: int = 5
    gamma: float = 0.9
    lr: float = 1e-3
    batch_size: int = 32
    embed_dim: int = 32
    hidden_dim: int = 64
    q_hidden_dim: int = 64
    max_len: int = 32
    tau: float = 1.0
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 3000
    lambda_mix: float = 0.5
    step_cap: int = EPISODE_STEP_CAP
    env_count: int = 8
    max_env_steps: int = 20_000
    update_every: int = 4
    updates_per_round: int = 1
    warmup: int = 64
    target_sync: int = 100
    replay_capacity: int = 100_000
    replay_alpha: float = 0.6
    replay_beta0: float = 0.4
    replay_eps: float = 1e-3
    beta_anneal_updates: int = 5000
    rolling_window: int = 100
    early_stop_score: float | None = None
    max_episode_issues: int = 5000
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value, count = getattr(self, f.name), f.type == "int"
            if f.type == "str" or (value is None and f.default is None):
                continue
            low = -math.inf if f.name == "early_stop_score" else \
                int(count and f.name not in _ZERO_COUNTS)
            high, above = (1 if f.name in _FRACTIONS else math.inf,
                           f.name in _POSITIVE)
            if isinstance(value, bool) or not isinstance(
                    value, int if count else (int, float)) or \
                    not math.isfinite(value) or value > high or \
                    not (value > low if above else value >= low):
                what = "an integer" if count else "a finite number"
                limit = f" and <= {high}" if high < math.inf else ""
                raise ValueError(f"{f.name} must be {what} "
                                 f"{'>' if above else '>='} {low}{limit}, "
                                 f"got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def with_overrides(self, pairs: list[str]) -> "TrainConfig":
        """Apply "key=value" strings, coercing to each field's type."""
        types = {f.name: f.type for f in fields(self)}
        updates = {}
        for pair in pairs:
            key, sep, raw = pair.partition("=")
            if not sep:
                raise ValueError(f"override '{pair}' is not key=value")
            if key not in types:
                raise ValueError(f"unknown config field '{key}'")
            try:
                updates[key] = _coerce(raw, types[key])
            except ValueError as err:
                raise ValueError(f"{key}: {err}") from None
        return replace(self, **updates)


def _coerce(raw: str, annotation: str):
    if raw == "none":
        return None
    if "str" in annotation:
        return raw
    if "float" in annotation:
        return float(raw)
    return int(raw)


@dataclass(frozen=True)
class EpisodeRecord:
    index: int
    env_steps: int  # cumulative environment steps when the episode ended
    ret: int
    score: int
    moves: int


@dataclass
class TrainResult:
    agent: str
    config: TrainConfig
    model_config: ModelConfig | None
    params: Params | None
    tokenizer: Tokenizer | None
    episodes: list[EpisodeRecord]
    env_steps: int
    updates: int
    wall_seconds: float
    reached_step: int | None  # env steps when the early-stop target was met
    templates: tuple[str, ...] = ()
    words: tuple[str, ...] = ()

    def rolling_mean(self, window: int | None = None) -> float | None:
        window = window or self.config.rolling_window
        if not self.episodes:
            return None
        tail = self.episodes[-window:]
        return float(np.mean([e.score for e in tail]))

    def curve_text(self) -> str:
        lines = [CURVE_HEADER]
        lines += [f"{e.index},{e.env_steps},{e.ret},{e.score}"
                  for e in self.episodes]
        return "\n".join(lines) + "\n"


def write_learning_curve(path: str, result: TrainResult) -> None:
    with open(path, "wb") as fh:
        fh.write(result.curve_text().encode("utf-8"))


# -- checkpoints -------------------------------------------------------------------


def save_checkpoint(path: str, result: TrainResult) -> None:
    if result.params is None:
        raise CheckpointError(f"the {result.agent} agent has no parameters")
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "agent": result.agent,
        "train_config": result.config.to_dict(),
        "model_config": asdict(result.model_config),
        "tokenizer_words": list(result.tokenizer.words),
        "tokenizer_max_len": result.tokenizer.max_len,
        "templates": list(result.templates),
        "words": list(result.words),
        "env_steps": result.env_steps,
        "episodes": len(result.episodes),
        "updates": result.updates,
    }
    arrays = {f"p:{k}": v for k, v in result.params.items()}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


@dataclass
class Checkpoint:
    meta: dict
    params: Params

    @property
    def agent(self) -> str:
        return self.meta["agent"]

    def train_config(self) -> TrainConfig:
        return TrainConfig.from_dict(self.meta["train_config"])

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.meta["model_config"])

    def build_tokenizer(self) -> Tokenizer:
        return Tokenizer(words=tuple(self.meta["tokenizer_words"]),
                         max_len=self.meta["tokenizer_max_len"])


def load_checkpoint(path: str) -> Checkpoint:
    """Read and check a checkpoint; any defect raises CheckpointError.

    Arrays other than the "p:" parameters are ignored, so archives that
    also carry optimizer moments still load.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            if "meta" not in archive:
                raise CheckpointError("not a checkpoint: missing meta block")
            meta = json.loads(str(archive["meta"][()]))
            params = {key[2:]: archive[key] for key in archive.files
                      if key.startswith("p:")}
    except _ARCHIVE_ERRORS as exc:
        raise CheckpointError(f"cannot read checkpoint '{path}': {exc!r}") \
            from exc
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint metadata is not a JSON object")
    version = meta.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise CheckpointError(
            f"checkpoint metadata lacks {', '.join(missing)}")
    if meta["agent"] not in ("drrn", "tdqn"):
        raise CheckpointError(f"unknown checkpoint agent {meta['agent']!r}")
    bad = [key for key in ("env_steps", "updates")
           if type(meta[key]) is not int or meta[key] < 0]
    bad += [key for key in ("tokenizer_words", "templates", "words")
            if type(meta[key]) is not list
            or any(type(word) is not str for word in meta[key])]
    if bad:  # counts must be integers >= 0, the lists lists of strings
        raise CheckpointError(f"mistyped checkpoint {', '.join(bad)}")
    checkpoint = Checkpoint(meta=meta, params=params)
    try:
        max_len = meta["tokenizer_max_len"]
        if type(max_len) is not int or \
                max_len != checkpoint.train_config().max_len:
            raise ValueError("tokenizer_max_len differs from max_len")
        model_cfg = checkpoint.model_config()
        vocab = checkpoint.build_tokenizer().vocab_size
        expected = _init_params(meta["agent"], np.random.default_rng(0),
                                model_cfg, len(meta["templates"]),
                                len(meta["words"]))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint metadata: {exc}") \
            from exc
    if vocab != model_cfg.vocab_size or \
            {k: (v.shape, v.dtype) for k, v in params.items()} != \
            {k: (v.shape, v.dtype) for k, v in expected.items()}:
        raise CheckpointError("checkpoint parameters do not match its "
                              "model_config and tokenizer")
    if not all(np.isfinite(v).all() for v in params.values()):
        raise CheckpointError("checkpoint parameters are not all finite")
    return checkpoint


def result_from_checkpoint(game: GameDef, checkpoint: Checkpoint
                           ) -> TrainResult:
    """Rebuild enough of a TrainResult to evaluate a stored policy on game.

    A template agent's heads index its game's templates and words, so a
    checkpoint whose lists differ from game's is rejected.
    """
    meta = checkpoint.meta
    templates, words = tuple(meta["templates"]), tuple(meta["words"])
    if checkpoint.agent == "tdqn" and (
            templates != tuple(t.surface for t in game.templates())
            or words != game.vocabulary().words):
        raise CheckpointError(f"this tdqn checkpoint was trained on another "
                              f"game; its templates and words do not match "
                              f"'{game.title}'")
    return TrainResult(agent=checkpoint.agent,
                       config=checkpoint.train_config(),
                       model_config=checkpoint.model_config(),
                       params=checkpoint.params,
                       tokenizer=checkpoint.build_tokenizer(),
                       episodes=[], env_steps=meta["env_steps"],
                       updates=meta["updates"], wall_seconds=0.0,
                       reached_step=None, templates=templates, words=words)


# -- the episode loop --------------------------------------------------------------


def _env_seed(rng: SplitMix64) -> int:
    return rng.randrange(2 ** 31)


def _rollout(agent: "_Agent", cfg: TrainConfig, seed_rng: SplitMix64,
             max_env_steps: int | None = None, episodes: int | None = None,
             target: float | None = None, deadline: float | None = None
             ) -> tuple[list[EpisodeRecord], int, int | None]:
    """Run agent.envs under the episode protocol until a budget is spent.

    The budgets are env steps, recorded episodes, a time.monotonic()
    deadline checked before each round, and the early-stop target: the
    mean score of the last `rolling_window` episodes reaching `target`.
    Returns the records, the env steps taken, and the step count at which
    the target was met (or None).
    """
    envs = agent.envs
    records: list[EpisodeRecord] = []
    steps = 0
    reached = None
    ret = [0] * len(envs)
    issues = [0] * len(envs)

    def budget_left() -> bool:
        return ((max_env_steps is None or steps < max_env_steps)
                and (episodes is None or len(records) < episodes)
                and reached is None)

    for i, env in enumerate(envs):
        env.reset(seed=_env_seed(seed_rng))
        agent.begin(i)
    while budget_left() and not (deadline is not None and
                                 time.monotonic() >= deadline):
        for i, command in enumerate(agent.act(steps)):
            result = envs[i].step(command)
            steps += 1
            ret[i] += result.reward
            issues[i] += 1
            agent.observe(i, result)
            if result.done or result.moves >= cfg.step_cap or \
                    issues[i] >= cfg.max_episode_issues:
                records.append(EpisodeRecord(
                    index=len(records) + 1, env_steps=steps, ret=ret[i],
                    score=result.score, moves=result.moves))
                ret[i] = issues[i] = 0
                if target is not None and \
                        len(records) >= cfg.rolling_window:
                    tail = records[len(records) - cfg.rolling_window:]
                    if np.mean([r.score for r in tail]) >= target:
                        reached = steps
                if budget_left():
                    envs[i].reset(seed=_env_seed(seed_rng))
                    agent.begin(i)
            if not budget_left():
                break
        agent.update(steps)
    return records, steps, reached


# -- agents ------------------------------------------------------------------------


class _Agent:
    """What `_rollout` talks to; the defaults learn nothing.

    begin(i) follows every reset of envs[i], act(steps) returns one command
    per env, observe(i, result) follows each step, and update(steps) ends
    each round.
    """

    envs: list[Environment]
    model_cfg: ModelConfig | None = None
    params: Params | None = None
    tokenizer: Tokenizer | None = None
    updates = 0
    templates: tuple[str, ...] = ()
    words: tuple[str, ...] = ()

    def begin(self, i: int) -> None:
        pass

    def act(self, steps: int) -> list[str]:
        raise NotImplementedError

    def observe(self, i: int, result: StepResult) -> None:
        pass

    def update(self, steps: int) -> None:
        pass


class _RandomAgent(_Agent):
    """Uniform canonical commands with no handicaps: the benchmark floor."""

    def __init__(self, game: GameDef, rng: SplitMix64) -> None:
        self.envs = [Environment(game, RANDOM_HANDICAPS)]
        self.rng = rng

    def act(self, steps: int) -> list[str]:
        return [CANONICAL_ACTIONS[self.rng.randrange(len(CANONICAL_ACTIONS))]
                for _ in self.envs]


class _Learner(_Agent):
    """A value network with, while training, replay, Adam and a target copy.

    Passing no replay_rng builds the evaluation form: no replay, no
    updates, and the greedy selection rule of the subclass.
    """

    def __init__(self, game: GameDef, cfg: TrainConfig, tokenizer: Tokenizer,
                 model_cfg: ModelConfig, params: Params, rng: SplitMix64,
                 replay_rng: SplitMix64 | None = None) -> None:
        self.cfg = cfg
        self.tokenizer = tokenizer
        self.model_cfg = model_cfg
        self.params = params
        self.rng = rng
        self.replay_rng = replay_rng
        self.replay = None
        if replay_rng is not None:
            # target_sync=0 disables the frozen copy and its encoding memo
            # (models.encode_memo): bootstrap from live parameters
            self.target, self.memo = (copy_params(params), {}) \
                if cfg.target_sync else (params, None)
            self.opt = Adam(params, lr=cfg.lr)
            self.replay = PrioritizedReplay(cfg.replay_capacity,
                                            cfg.replay_alpha, cfg.replay_eps)
        self._setup(game)
        self.obs: list = [None] * len(self.envs)

    def _setup(self, game: GameDef) -> None:
        raise NotImplementedError

    def _encode(self, env: Environment) -> TokenChannels:
        return self.tokenizer.encode_channels(env.observation().channels())

    def _updates_due(self, steps: int) -> int:
        raise NotImplementedError

    def _loss(self, batch: list[dict]) -> tuple[Params, np.ndarray]:
        raise NotImplementedError

    def update(self, steps: int) -> None:
        cfg = self.cfg
        if self.replay is None or \
                len(self.replay) < max(cfg.warmup, cfg.batch_size):
            return
        for _ in range(self._updates_due(steps)):
            beta = linear_anneal(cfg.replay_beta0, 1.0, self.updates,
                                 cfg.beta_anneal_updates)
            items, indices, weights = self.replay.sample(
                cfg.batch_size, beta, self.replay_rng)
            grads, td_abs = self._loss([dict(item, weight=w)
                                        for item, w in zip(items, weights)])
            self.opt.step(self.params, grads)
            self.replay.update_priorities(indices, td_abs)
            self.updates += 1
            if cfg.target_sync and self.updates % cfg.target_sync == 0:
                self.target, self.memo = copy_params(self.params), {}


class _DrrnAgent(_Learner):
    """Relevance agent: scores each detected valid action with the state."""

    def _setup(self, game: GameDef) -> None:
        count = self.cfg.env_count if self.replay is not None else 1
        store = LruCache(VALID_CACHE_CAPACITY)  # one per-situation store
        self.envs = [Environment(game, FULL_HANDICAPS,
                                 valid_action_cache=store)
                     for _ in range(count)]
        self.surfaces: list = [None] * count
        self.act_tokens: list = [None] * count
        self.choices: list[int] = []

    def begin(self, i: int) -> None:
        """Point env i's slot at its observation and action menu."""
        env = self.envs[i]
        self.obs[i] = self._encode(env)
        valid = env.identify_valid_actions()
        if len(valid) == 0 and not env.done:
            # Nothing provably changes the world here; fall back to the
            # canonical commands so the policy always has a menu.
            self.surfaces[i] = CANONICAL_ACTIONS
        else:
            self.surfaces[i] = valid.surfaces
        self.act_tokens[i] = [self.tokenizer.encode(s)
                              for s in self.surfaces[i]]

    def act(self, steps: int) -> list[str]:
        q_lists = drrn_q_values(self.params, self.model_cfg, self.obs,
                                self.act_tokens)
        if self.replay is not None:
            self.choices = [softmax_select(q, self.cfg.tau, self.rng)
                            for q in q_lists]
        else:
            self.choices = [argmax_tie_break(q, self.rng) for q in q_lists]
        return [menu[c] for menu, c in zip(self.surfaces, self.choices)]

    def observe(self, i: int, result: StepResult) -> None:
        obs, act = self.obs[i], self.act_tokens[i][self.choices[i]]
        self.begin(i)
        if self.replay is not None:
            self.replay.add({
                "obs": obs,
                "act": act,
                "reward": float(result.reward),
                "next_obs": self.obs[i],
                "next_acts": [] if result.done else list(self.act_tokens[i]),
                "done": result.done,
            })

    def _updates_due(self, steps: int) -> int:
        return self.cfg.updates_per_round

    def _loss(self, batch: list[dict]) -> tuple[Params, np.ndarray]:
        _, grads, td_abs = drrn_loss(self.params, self.target,
                                     self.model_cfg, batch, self.cfg.gamma,
                                     memo=self.memo)
        return grads, td_abs


class _TdqnAgent(_Learner):
    """Template agent: one head for the template, one per blank's word."""

    def _setup(self, game: GameDef) -> None:
        self.envs = [Environment(game, FULL_HANDICAPS)]
        self.template_defs = game.templates()
        self.templates = tuple(t.surface for t in self.template_defs)
        self.words = game.vocabulary().words
        self.t_index = {s: i for i, s in enumerate(self.templates)}
        self.w_index = {w: i for i, w in enumerate(self.words)}
        self.taken: list[tuple[int, int, int]] = []
        self.valid_ids: list[tuple[tuple[int, ...], ...]] = []

    def _valid_ids(self, env: Environment) -> tuple[tuple[int, ...], ...]:
        """Template and word ids of the detected valid actions, per head."""
        heads: tuple[set, set, set] = (set(), set(), set())
        for cand in env.identify_valid_actions():
            heads[0].add(self.t_index[cand.template.surface])
            for ids, filler in zip(heads[1:], cand.fillers):
                if filler in self.w_index:
                    ids.add(self.w_index[filler])
        return tuple(tuple(sorted(ids)) for ids in heads)

    def begin(self, i: int) -> None:
        self.obs[i] = self._encode(self.envs[i])

    def act(self, steps: int) -> list[str]:
        cfg = self.cfg
        eps = cfg.eps_end
        if self.replay is not None:
            eps = linear_anneal(cfg.eps_start, cfg.eps_end, steps,
                                cfg.eps_decay_steps)
            self.valid_ids = [self._valid_ids(env) for env in self.envs]
        q_t, q_o1, q_o2, _ = tdqn_forward(self.params, self.model_cfg,
                                          self.obs)
        self.taken, commands = [], []
        for k in range(len(self.envs)):
            t = epsilon_greedy(q_t[k], eps, self.rng)
            template = self.template_defs[t]
            fills = [epsilon_greedy(q[k], eps, self.rng)
                     for q in (q_o1, q_o2)[:template.blanks]]
            # a blank the template lacks is recorded as word -1
            self.taken.append((t, *fills, *[-1] * (2 - len(fills))))
            commands.append(fill_template(
                template, *(self.words[w] for w in fills)).surface)
        return commands

    def observe(self, i: int, result: StepResult) -> None:
        obs = self.obs[i]
        self.begin(i)
        if self.replay is not None:
            valid_t, valid_o1, valid_o2 = self.valid_ids[i]
            self.replay.add({
                "obs": obs,
                "taken": self.taken[i],
                "reward": float(result.reward),
                "next_obs": self.obs[i],
                "done": result.done,
                "valid_t": valid_t,
                "valid_o1": valid_o1,
                "valid_o2": valid_o2,
            })

    def _updates_due(self, steps: int) -> int:
        return int(steps % self.cfg.update_every == 0)

    def _loss(self, batch: list[dict]) -> tuple[Params, np.ndarray]:
        _, _, _, grads, td_abs = tdqn_loss(self.params, self.target,
                                           self.model_cfg, batch,
                                           self.cfg.gamma, self.cfg.lambda_mix,
                                           memo=self.memo)
        return grads, td_abs


_LEARNERS = {"drrn": _DrrnAgent, "tdqn": _TdqnAgent}


def _init_params(agent: str, rng: np.random.Generator, model_cfg: ModelConfig,
                 n_templates: int, n_words: int) -> Params:
    if agent == "drrn":
        return drrn_init(rng, model_cfg)
    return tdqn_init(rng, model_cfg, n_templates, n_words)


# -- entry points ------------------------------------------------------------------


def train(game: GameDef, cfg: TrainConfig, seed: int) -> TrainResult:
    if cfg.agent not in AGENT_KINDS:
        raise ValueError(f"unknown agent '{cfg.agent}'; "
                         f"expected one of {AGENT_KINDS}")
    start = time.monotonic()
    deadline = None if cfg.max_seconds is None else start + cfg.max_seconds
    master = SplitMix64(seed)
    if cfg.agent == "random":
        agent, seed_rng = _RandomAgent(game, master), master
    else:
        np_rng = np.random.default_rng(master.next_u64())
        agent_rng, replay_rng, seed_rng = \
            master.fork(), master.fork(), master.fork()
        tokenizer = Tokenizer.from_game(game, cfg.max_len)
        model_cfg = ModelConfig(vocab_size=tokenizer.vocab_size,
                                embed_dim=cfg.embed_dim,
                                hidden_dim=cfg.hidden_dim,
                                q_hidden_dim=cfg.q_hidden_dim)
        params = _init_params(cfg.agent, np_rng, model_cfg,
                              len(game.templates()),
                              len(game.vocabulary().words))
        agent = _LEARNERS[cfg.agent](game, cfg, tokenizer, model_cfg, params,
                                     agent_rng, replay_rng)
    records, steps, reached = _rollout(
        agent, cfg, seed_rng, max_env_steps=cfg.max_env_steps,
        target=cfg.early_stop_score, deadline=deadline)
    return TrainResult(agent=cfg.agent, config=cfg,
                       model_config=agent.model_cfg, params=agent.params,
                       tokenizer=agent.tokenizer, episodes=records,
                       env_steps=steps, updates=agent.updates,
                       wall_seconds=time.monotonic() - start,
                       reached_step=reached,
                       templates=agent.templates, words=agent.words)


def run_random(game: GameDef, seed: int, episodes: int = 1,
               step_cap: int = EPISODE_STEP_CAP) -> list[EpisodeRecord]:
    """Uniform canonical-command rollouts; the benchmark floor."""
    rng = SplitMix64(seed)
    cfg = TrainConfig(agent="random", step_cap=step_cap)
    return _rollout(_RandomAgent(game, rng), cfg, rng, episodes=episodes)[0]


def evaluate(game: GameDef, result: TrainResult, seed: int,
             episodes: int = 10) -> list[EpisodeRecord]:
    """Greedy rollouts of a trained policy (epsilon-greedy for tdqn).

    Always plays all `episodes`: evaluation never stops early.
    """
    rng = SplitMix64(seed)
    if result.agent == "random":
        agent = _RandomAgent(game, rng)
    else:
        agent = _LEARNERS[result.agent](game, result.config, result.tokenizer,
                                        result.model_config, result.params,
                                        rng)
    return _rollout(agent, result.config, rng, episodes=episodes)[0]
