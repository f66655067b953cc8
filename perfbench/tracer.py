"""Outside-in span tracing for the benchmark.

Hooks are installed from here, around the public functions each layer
exposes, so nothing inside the package changes. A hook replaces the name the
*caller* looks up: ``models.py`` calls ``gru_forward`` through its own module
globals (``from .nn import gru_forward``), so the hook goes on
``textquest.agents.models.gru_forward``, not on ``textquest.agents.nn``.
Methods are hooked on their class, which every caller shares.

Spans are aggregated as they close (calls and self time per name), because a
ten-second run opens millions of them. A span's self time is its duration
minus the durations of its direct child spans. Hooks only read the clock and
the values passed in or returned; they never draw randomness or touch
private state, so a traced run makes exactly the same decisions as an
untraced one.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LEARNER_PREFIXES = ("agents.",)
SIM_PREFIXES = ("world.", "engine.", "env.")


@dataclass
class _Frame:
    child_ns: int = 0
    executes: int = 0


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0


@dataclass
class Hook:
    """One hooked callable: where the caller finds it and the span name."""

    owner: Any
    attr: str
    name: str
    after: Callable | None = None  # (tracer, args, kwargs, result, frame)


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    caches: dict[int, Any] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge_max(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        stack = self._stack
        stats = self.stats
        after = hook.after
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child_ns += elapsed
            name = hook.name
            if after is not None:
                name = after(self, args, kwargs, result, frame) or name
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = SpanStats()
            entry.calls += 1
            entry.self_ns += elapsed - frame.child_ns
            return result

        return traced

    def install(self, hooks: list[Hook]) -> None:
        if self._saved:
            raise RuntimeError("hooks already installed")
        for hook in hooks:
            original = hook.owner.__dict__[hook.attr]
            self._saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(hook, original))

    def restore(self) -> None:
        """Put every original back and check that it is back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"failed to restore {attr}")
        self._saved.clear()

    def self_ms(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry.self_ns / 1e6 if entry else 0.0

    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry.calls if entry else 0

    def share(self, prefixes: tuple[str, ...], wall_s: float) -> float:
        busy = sum(s.self_ns for n, s in self.stats.items()
                   if n.startswith(prefixes))
        return busy / 1e9 / wall_s


# -- the hook table ----------------------------------------------------------------


def _after_execute(tracer: Tracer, args, kwargs, result, frame) -> None:
    if tracer._stack:
        tracer._stack[-1].executes += 1
    tracer.count("engine.execute.attempts")
    if result.diff.tree:
        tracer.count("engine.execute.tree_changes")


def _after_identify(tracer: Tracer, args, kwargs, result, frame) -> str:
    # A call that probed nothing was answered from the cache. The span is
    # classified by its engine.execute children, not by reading the cache.
    if frame.executes == 0:
        return "env.identify_valid_actions.hit"
    tracer.count("env.valid.probes", frame.executes)
    tracer.count("env.valid.kept", len(result))
    return "env.identify_valid_actions.miss"


def _after_replay_add(tracer: Tracer, args, kwargs, result,
                      frame) -> None:
    tracer.gauge_max("agents.replay.size", len(args[0]))


def _after_env_init(tracer: Tracer, args, kwargs, result, frame) -> None:
    # The cache a caller hands to Environment(valid_action_cache=...) is its
    # own object; remember it so its size can be read at the end.
    cache = kwargs.get("valid_action_cache",
                       args[3] if len(args) > 3 else None)
    if cache is not None:
        tracer.caches[id(cache)] = cache


def build_hooks() -> list[Hook]:
    """Hooks on the names each caller looks up, as described above."""
    from textquest import bench, engine, env, world
    from textquest.agents import models, nn, replay, tokenizer, training

    hooks = [
        Hook(models, "gru_forward", "agents.nn.gru_forward"),
        Hook(models, "gru_backward", "agents.nn.gru_backward"),
        Hook(nn.Adam, "step", "agents.nn.Adam.step"),
        Hook(replay.PrioritizedReplay, "add", "agents.replay.add",
             _after_replay_add),
        Hook(replay.PrioritizedReplay, "sample", "agents.replay.sample"),
        Hook(replay.PrioritizedReplay, "update_priorities",
             "agents.replay.update_priorities"),
        Hook(tokenizer.Tokenizer, "encode_channels",
             "agents.tokenizer.encode_channels"),
        Hook(engine, "execute", "engine.execute", _after_execute),
        Hook(engine, "state_diff", "world.state_diff"),
        Hook(world.WorldState, "copy", "world.copy"),
        Hook(world.WorldState, "situation_hash", "world.situation_hash"),
        Hook(world.WorldState, "snapshot", "world.snapshot.encode"),
        Hook(world.Snapshot, "restore", "world.snapshot.decode"),
        Hook(env.Environment, "__init__", "env.Environment.init",
             _after_env_init),
        Hook(env.Environment, "step", "env.step"),
        Hook(env.Environment, "observation", "env.observation"),
        Hook(env.Environment, "identify_valid_actions",
             "env.identify_valid_actions", _after_identify),
        Hook(bench, "run_benchmark", "bench.run_benchmark"),
    ]
    # drrn_loss calls drrn_q_values through the models module; the trainer
    # calls both through its own globals.
    for module in (training, models):
        hooks.append(Hook(module, "drrn_q_values",
                          "agents.models.drrn_q_values"))
    hooks.append(Hook(training, "drrn_loss", "agents.models.drrn_loss"))
    return hooks
