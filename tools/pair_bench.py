"""Alternating parent/change benchmark pairs from two checkouts.

usage: python tools/pair_bench.py OLD NEW --workload W [--pairs N]
           [--seconds S] [--seed K] [--label L]

Runs `perfbench/run.py --trace 0` of checkout OLD (the parent) and of
checkout NEW (the change) one after the other, N times, and swaps which side
runs first every pair, so a host that speeds up or slows down over the set
favours neither side. Each run is its own process started from the root of
its checkout. Then, for every end-to-end metric of NEW's BENCHMARK.json, it
prints:

* each side's value in every pair, so sets can be pooled later;
* the per-pair ratios, written so that above 1 means the change is better
  (change/parent for a higher-is-better metric, parent/change otherwise),
  and how many pairs the change won;
* each side's median and quartiles;
* whether the gap between the medians exceeds the parent's interquartile
  range, the spread the parent shows against itself.

Every run's `# check` lines are kept. A run that reports itself incorrect
or with failed operations is listed with its pair, its side and its `FAIL`
lines, and the tool exits 1 if any run was incorrect. The first pair's
`--out` files are saved at NEW's root as BENCH_<label>_parent.json and
BENCH_<label>_change.json (the label defaults to the workload). Nothing in
either checkout is changed otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def run_once(root: str, args: argparse.Namespace, out: str) -> dict:
    """One run's --out result, with its `# check` lines under "checks"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", "0", "--out", out]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    run = subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.PIPE,
                         text=True)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["checks"] = [line for line in run.stdout.splitlines()
                        if line.startswith("# check ")]
    return result


def passed(result: dict) -> str:
    ok = sum(line.startswith("# check ok") for line in result["checks"])
    return f"checks ok {ok}/{len(result['checks'])}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(metric: dict, runs: list[tuple[dict, dict]]) -> None:
    name, higher = metric["name"], metric["better"] == "higher"
    old = [p["metrics"][name]["value"] for p, _ in runs]
    new = [c["metrics"][name]["value"] for _, c in runs]
    ratios = [(n / o if higher else o / n) if min(o, n) > 0 else float("nan")
              for o, n in zip(old, new)]
    wins = sum(r > 1 for r in ratios)
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    gap, iqr = abs(nm - om), o3 - o1
    print(f"{name} ({metric['unit']}, {metric['better']} is better)")
    print("  parent " + " ".join(f"{v:.6g}" for v in old))
    print("  change " + " ".join(f"{v:.6g}" for v in new))
    print("  ratios " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"  median ratio {statistics.median(ratios):.3f}, change better "
          f"in {wins}/{len(ratios)} pairs")
    print(f"  parent median {om:.6g} (quartiles {o1:.6g}-{o3:.6g})")
    print(f"  change median {nm:.6g} (quartiles {n1:.6g}-{n3:.6g})")
    print(f"  median gap {gap:.6g} {'exceeds' if gap > iqr else 'within'} "
          f"the parent's IQR {iqr:.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the parent checkout")
    parser.add_argument("new", help="the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)
    label = args.label or args.workload
    with open(os.path.join(args.new, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            sides = [("parent", args.old), ("change", args.new)]
            if i % 2:
                sides.reverse()
            pair = {}
            for side, root in sides:
                out = os.path.join(tmp, f"{side}{i}.json")
                pair[side] = run_once(os.path.abspath(root), args, out)
                if i == 0:
                    with open(out, encoding="utf-8") as src, open(
                            os.path.join(args.new, f"BENCH_{label}_{side}"
                                         ".json"), "w",
                            encoding="utf-8") as dst:
                        dst.write(src.read())
            runs.append((pair["parent"], pair["change"]))
            steps = {side: result["metrics"]["env_steps_per_s"]["value"]
                     for side, result in pair.items()}
            print(f"pair {i}: first {sides[0][0]}; " + ", ".join(
                f"{side} {steps[side]:.6g} steps/s, {passed(pair[side])}"
                for side, _ in sides), flush=True)
    for i, (p, c) in enumerate(runs):
        for side, result in (("parent", p), ("change", c)):
            if not result["correct"] or result["failed"]:
                print(f"pair {i} {side}: correct={result['correct']} "
                      f"failed={result['failed']} of {result['attempted']}")
                for line in result["checks"]:
                    if line.startswith("# check FAIL"):
                        print("  " + line)
    for metric in metrics:
        report(metric, runs)
    return 0 if all(p["correct"] and c["correct"] for p, c in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
