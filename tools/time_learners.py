"""Time DRRN and TDQN training on a bundled game at fixed seeds.

usage: python tools/time_learners.py [--root CHECKOUT] [--game NAME]
                                     [--steps N] [--seeds 1,2] [--out FILE]

Trains each agent with the default TrainConfig for N env steps (default
4000) at each seed on the game (default mailhouse), in the checkout at
--root (default: the one holding this script), with BLAS pinned to one
thread. Prints one JSON object with
env steps/s, updates/s and wall time per run, the median per agent, and
the checkout's git revision and a digest of its `src` files (which tells
apart trees with uncommitted edits); --out also writes it to FILE. To
compare two checkouts, run it on each in turn, alternating, on the same
machine.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

AGENTS = ("drrn", "tdqn")


def git_rev(root: str) -> str:
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def src_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--game", default="mailhouse")
    parser.add_argument("--steps", type=int, default=4000)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from textquest import load_bundled
    from textquest.agents.training import TrainConfig, train

    game = load_bundled(args.game)
    runs = []
    for agent in AGENTS:
        for seed in (int(s) for s in args.seeds.split(",")):
            cfg = TrainConfig(agent=agent, max_env_steps=args.steps)
            start = time.perf_counter()
            result = train(game, cfg, seed)
            wall = time.perf_counter() - start
            runs.append({"agent": agent, "seed": seed,
                         "env_steps": result.env_steps,
                         "updates": result.updates, "wall_s": wall,
                         "env_steps_per_s": result.env_steps / wall,
                         "updates_per_s": result.updates / wall})
    summary = {agent: {key: statistics.median(
        r[key] for r in runs if r["agent"] == agent)
        for key in ("wall_s", "env_steps_per_s", "updates_per_s")}
        for agent in AGENTS}
    report = {"game": args.game, "steps": args.steps, "git_rev": git_rev(root),
              "src_digest": src_digest(root),
              "python": platform.python_version(),
              "numpy": np.__version__, "blas_threads": 1,
              "nproc": os.cpu_count(), "runs": runs, "median": summary}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
