"""textquest benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload explore --seed 7 --seconds 32 --trace 0

Runs from the root of a source checkout and imports the package from
``src/`` (nothing is installed). ``--trace 0`` measures the end-to-end
metrics with no hooks; ``--trace 1`` repeats the untraced measurement, then
runs a fixed number of units with span hooks on every layer and reports the
per-layer metrics. Human-readable lines (``#``-prefixed) give every metric
with its unit and sample count, the run environment and each check; the last
line is the JSON result. ``--out PATH`` also writes the full result there.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("explore", "rollout", "drrn")
SETUP_PROBES = 7
# Units the traced pass runs: fixed work, so per-layer call counts repeat
# exactly at a given seed and self times compare across commits.
TRACE_UNITS = {"explore": 3, "rollout": 10, "drrn": 3}
# The third unit repeats the first unit's seed (see unit_seeds).
MIN_UNITS = 3

END_TO_END = {
    "env_steps_per_s": "1/s",
    "turn_us.p50": "us",
    "turn_us.p95": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACED_FUNCTIONS = (
    "agents.nn.gru_forward", "agents.nn.gru_backward", "agents.nn.Adam.step",
    "agents.models.drrn_q_values", "agents.models.drrn_loss",
    "agents.replay.add", "agents.replay.sample",
    "agents.replay.update_priorities", "agents.tokenizer.encode_channels",
    "engine.execute", "world.copy", "world.state_diff",
    "world.situation_hash", "world.snapshot.encode", "world.snapshot.decode",
    "env.step", "env.observation", "env.identify_valid_actions.hit",
    "env.identify_valid_actions.miss", "bench.run_benchmark",
)
PER_LAYER_EXTRA = {
    "agents.replay.size": "count",
    "engine.execute.tree_change_ratio": "ratio",
    "env.valid.probes_per_miss": "count",
    "env.valid.yield": "ratio",
    "env.valid_cache.hit_ratio": "ratio",
    "env.valid_cache.entries": "count",
    "agents.training.learner_share": "ratio",
    "agents.training.sim_share": "ratio",
    "trace.overhead_ratio": "ratio",
}
_SIM = ("engine.execute", "world.copy", "world.state_diff",
        "world.situation_hash", "env.step")
_VALID = ("env.observation", "env.identify_valid_actions.hit",
          "env.identify_valid_actions.miss")
_LEARN = ("agents.nn.gru_forward", "agents.nn.gru_backward",
          "agents.nn.Adam.step", "agents.replay.add", "agents.replay.sample",
          "agents.replay.update_priorities",
          "agents.tokenizer.encode_channels")
# The hooked functions each workload must reach; every other one must stay
# silent (no learner code on explore or rollout, no probes on rollout).
# reset() returns an observation, which without load_save probes nothing.
FIRES = {
    "explore": set(_SIM + _VALID) | {"world.snapshot.encode",
                                     "world.snapshot.decode"},
    "rollout": {"bench.run_benchmark", "engine.execute", "world.copy",
                "world.state_diff", "env.step", "env.observation"},
    "drrn": set(_SIM + _VALID + _LEARN) | {"agents.models.drrn_q_values",
                                           "agents.models.drrn_loss"},
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(PER_LAYER_EXTRA)
    return units


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the result JSON to this path")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- run environment ---------------------------------------------------------------


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"git_rev": _git_rev(), "src_digest": _src_digest(),
            "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


# -- measurement -------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Cold starts: process launch until the workload's first step is ready."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


class Ledger:
    """Operations attempted and failed, and the checks behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def run_units(work, seeds, seconds: float | None, minimum: int, ledger):
    """Run at least `minimum` units, then more while the next one is
    expected to end within `seconds` of the start."""
    units = []
    start = time.perf_counter()
    for index, seed in enumerate(seeds):
        elapsed = time.perf_counter() - start
        if index >= minimum and (seconds is None or
                                 elapsed * (index + 1) / index > seconds):
            break
        try:
            unit = work.unit(seed)
        except Exception:  # a raising unit is a failed operation
            traceback.print_exc()
            ledger.attempted += 1
            ledger.failed += 1
            ledger.check(f"unit {index} raised", False)
            continue
        unit.summarize()
        ledger.attempted += unit.steps
        if unit.problems:
            ledger.failed += unit.steps
            for problem in unit.problems[:5]:
                ledger.check(f"unit {index}", False, problem)
        units.append((seed, unit))
    return units


def unit_seeds(seed: int):
    """One seed per unit, drawn from the run seed; the third unit repeats
    the first, so every run checks that a seed replays identically."""
    rng = random.Random(seed)
    first = rng.randrange(2 ** 31)
    yield first
    yield rng.randrange(2 ** 31)
    yield first
    while True:
        yield rng.randrange(2 ** 31)


def check_units(work, units, expected: dict, ledger: Ledger) -> None:
    repeats = {u.digest for s, u in units if s == units[0][0]}
    ledger.check("repeating a seed gives the same digest",
                 len(repeats) == 1 and len(units) >= MIN_UNITS)
    if work.learner:
        floor = expected["score_floor"]
        scores = [u.score for _, u in units]
        ledger.check(f"mean final rolling score >= {floor}",
                     None not in scores and
                     statistics.mean(scores) >= floor, f"scores {scores}")


def check_reference(work, expected: dict, ledger: Ledger) -> None:
    """Behaviour pinned at the recorded seed: speed must not change it."""
    if "digest" not in expected:
        return
    unit = work.unit(expected["seed"])
    ledger.check(f"reference digest at seed {expected['seed']}",
                 unit.digest == expected["digest"], unit.digest)


def end_to_end(units, setup: list[float]) -> dict[str, tuple[float, int]]:
    """Medians over units, so that a burst of host noise covering a few
    units moves none of them."""
    def per_unit(statistic) -> tuple[float, int]:
        return statistics.median(statistic(u) for _, u in units), len(units)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "env_steps_per_s": per_unit(lambda u: u.steps / (u.busy_ns / 1e9)),
        "turn_us.p50": per_unit(lambda u: u.turn_p50_us),
        "turn_us.p95": per_unit(lambda u: u.turn_p95_us),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def learner_updates(units) -> tuple[float, int]:
    rates = [u.updates / (u.busy_ns / 1e9) for _, u in units]
    return statistics.median(rates), len(rates)


def traced_pass(name: str, work, seeds, ledger: Ledger, baseline_units):
    """Fixed-work pass under span hooks; returns the per-layer metrics."""
    from tracer import LEARNER_PREFIXES, SIM_PREFIXES, Tracer, build_hooks
    tracer = Tracer()
    tracer.install(build_hooks())
    start = time.perf_counter()
    try:
        units = run_units(work, seeds, None, TRACE_UNITS[name], ledger)
    finally:
        wall = time.perf_counter() - start
        tracer.restore()
    same = all(u.digest == b.digest
               for (_, u), (_, b) in zip(units, baseline_units))
    ledger.check("traced units give the untraced digests", same)

    fired = {f for f in TRACED_FUNCTIONS if tracer.calls(f) > 0}
    missing = sorted(FIRES[name] - fired)
    extra = sorted(fired - FIRES[name])
    ledger.check("hook coverage", not missing and not extra,
                 f"missing {missing} unexpected {extra}")
    if name == "rollout":
        ledger.check("rollout issues no probes: every execute is a step",
                     tracer.calls("engine.execute") ==
                     tracer.calls("env.step"))

    metrics: dict[str, float] = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = float(tracer.calls(fn))
        metrics[f"{fn}.self_ms"] = tracer.self_ms(fn)
    counters = tracer.counters
    hits = tracer.calls("env.identify_valid_actions.hit")
    misses = tracer.calls("env.identify_valid_actions.miss")
    probes = counters.get("env.valid.probes", 0)
    attempts = counters.get("engine.execute.attempts", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    traced_rate = sum(u.steps for _, u in units) / \
        (sum(u.busy_ns for _, u in units) / 1e9)
    base = baseline_units[:len(units)]
    base_rate = sum(u.steps for _, u in base) / \
        (sum(u.busy_ns for _, u in base) / 1e9)
    metrics.update({
        "agents.replay.size": float(counters.get("agents.replay.size", 0)),
        "engine.execute.tree_change_ratio": ratio(
            counters.get("engine.execute.tree_changes", 0), attempts),
        "env.valid.probes_per_miss": ratio(probes, misses),
        "env.valid.yield": ratio(counters.get("env.valid.kept", 0), probes),
        "env.valid_cache.hit_ratio": ratio(hits, hits + misses),
        "env.valid_cache.entries": float(sum(
            len(c) for c in tracer.caches.values())),
        "agents.training.learner_share":
            tracer.share(LEARNER_PREFIXES, wall),
        "agents.training.sim_share": tracer.share(SIM_PREFIXES, wall),
        "trace.overhead_ratio": traced_rate / base_rate,
    })
    return metrics, len(units)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Pin BLAS to one thread before the package imports numpy: with one
    # client the learner's small matmuls only lose to thread hand-offs.
    # Set-up probes inherit the setting.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "textquest" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'textquest'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import textquest
    if Path(textquest.__file__).resolve().parent != SRC / "textquest":
        print("perfbench: textquest imported from outside the checkout",
              file=sys.stderr)
        return 2
    import workloads

    expected = load_expected()[args.workload]
    seed = expected["seed"] if args.seed is None else args.seed
    work = workloads.make(args.workload)
    if args.setup_probe:
        work.probe_setup(seed)
        print("ready", flush=True)
        return 0

    env_record = run_environment()
    print(f"# env {json.dumps(env_record, sort_keys=True)}")
    print(f"# workload {args.workload} seed {seed} seconds {args.seconds} "
          f"trace {args.trace}")
    ledger = Ledger()
    check_reference(work, expected, ledger)
    setup = [] if args.trace else setup_seconds(args.workload, seed)
    minimum = TRACE_UNITS[args.workload] if args.trace else MIN_UNITS
    units = run_units(work, unit_seeds(seed), args.seconds, minimum,
                      ledger)
    if not units:
        print("perfbench: no unit completed", file=sys.stderr)
        return 1
    check_units(work, units, expected, ledger)

    if args.trace:
        metrics, count = traced_pass(args.workload, work,
                                     unit_seeds(seed), ledger, units)
        reported = {k: {"value": metrics[k], "unit": u}
                    for k, u in per_layer_units().items()}
        for k, u in per_layer_units().items():
            print(f"# per_layer {k} {metrics[k]:.6g} {u} n={count} units")
    else:
        measured = end_to_end(units, setup)
        reported = {k: {"value": measured[k][0], "unit": END_TO_END[k]}
                    for k in END_TO_END}
        turns = sum(u.turn_count for _, u in units)
        for k, (value, n) in measured.items():
            if k.startswith("turn"):
                n = f"{n} units of {turns} turns"
            print(f"# metric {k} {value:.6g} {END_TO_END[k]} n={n}")
        if work.learner:
            value, n = learner_updates(units)
            print(f"# metric updates_per_s {value:.6g} 1/s n={n}")
    correct = ledger.correct
    # a failed run-level check condemns every operation of the run
    failed = ledger.failed if correct or ledger.failed else ledger.attempted
    print(f"# metric failed_ratio {failed / ledger.attempted:.6g} ratio "
          f"n={ledger.attempted}")
    for name, ok, detail in ledger.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())

    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": failed, "metrics": reported}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(result, workload=args.workload, seed=seed,
                           seconds=args.seconds, trace=args.trace,
                           env=env_record), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
