"""Command line surface.

Subcommands: play (debug REPL), train, eval, valid-actions, templates,
bench, and verify. Exit codes are a stable contract: 0 success, 1 for
agent or verification failures, 2 for input errors (bad paths, malformed
configs, schema violations).

Every stochastic subcommand takes --seed; when it is omitted the chosen
entropy is printed so a run can at least be identified, if not replayed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .agents.training import (AGENT_KINDS, FULL_HANDICAPS, TrainConfig,
                              evaluate, load_checkpoint,
                              result_from_checkpoint, save_checkpoint, train,
                              write_learning_curve, CheckpointError)
from .bench import run_benchmark, validate_report
from .env import Environment, format_transcript_block
from .gamedefs import (GameFileError, GameValidationError, bundled_game_names,
                       load_bundled, load_game)
from .grammar import action_space_size, template_space_upper_bound
from .env import verify_walkthrough

OK, FAILURE, INPUT_ERROR = 0, 1, 2


class _InputError(Exception):
    pass


def _load_any_game(spec: str):
    """Bundled name or a path to a .game.json file."""
    try:
        if os.path.exists(spec) or os.sep in spec or spec.endswith(".json"):
            return load_game(spec)
        return load_bundled(spec)
    except (GameFileError, GameValidationError, FileNotFoundError) as exc:
        raise _InputError(f"cannot load game '{spec}': {exc}") from exc


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _pick_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(8), "little") >> 1
    print(f"note: --seed not given; using OS entropy {seed} "
          "(pass --seed for a reproducible run)")
    return seed


# -- play ---------------------------------------------------------------------------


def _print_tree(env: Environment) -> None:
    state = env.state
    tree = state.tree

    def walk(obj: int, depth: int) -> None:
        node = tree.nodes[obj]
        attrs = ",".join(sorted(node.attributes))
        suffix = f" [{attrs}]" if attrs else ""
        print("  " * depth + f"{node.id}: {node.name} ({node.kind}){suffix}")
        for child in tree.children(obj):
            walk(child, depth + 1)

    for top in tree.children(0):
        walk(top, 0)


def _cmd_play(args) -> int:
    game = _load_any_game(args.game)
    env = Environment(game, FULL_HANDICAPS)
    seed = _pick_seed(args)
    obs, info = env.reset(seed=seed)
    print(f"{game.title} (seed {info['seed']}, max score {game.max_score})")
    print()
    print(obs.narrative)
    snapshot = None
    step = 0
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            print()
            break
        if not line:
            continue
        if line in ("quit", "exit", ":quit", ":q"):
            break
        if line == ":tree":
            _print_tree(env)
            continue
        if line == ":valid":
            for cand in env.identify_valid_actions():
                print(cand.surface)
            continue
        if line == ":save":
            snapshot = env.save()
            print("state saved.")
            continue
        if line == ":load":
            if snapshot is None:
                print("nothing saved yet.")
            else:
                env.load(snapshot)
                print("state restored.")
            continue
        if line.startswith(":"):
            print("meta-commands: :tree :valid :save :load :quit")
            continue
        if env.done:
            print("The episode has ended; type quit.")
            continue
        result = env.step(line)
        step += 1
        print(format_transcript_block(step, result.observation, line,
                                      result.reward, result.score,
                                      result.done))
    print(f"Score {env.score}")
    return OK


# -- train / eval -------------------------------------------------------------------


def _build_config(args) -> TrainConfig:
    if args.config:
        try:
            cfg = TrainConfig.from_json(args.config)
        except (OSError, ValueError, TypeError, RecursionError) as exc:
            raise _InputError(f"bad config file: {exc}") from exc
    else:
        cfg = TrainConfig()
    overrides = list(args.set or [])
    if args.agent:
        overrides.append(f"agent={args.agent}")
    try:
        cfg = cfg.with_overrides(overrides)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if cfg.agent not in AGENT_KINDS:
        raise _InputError(f"unknown agent '{cfg.agent}'")
    return cfg


def _cmd_train(args) -> int:
    game = _load_any_game(args.game)
    cfg = _build_config(args)
    seed = _pick_seed(args)
    out_dir = args.out or f"runs/{os.path.basename(args.game)}-{cfg.agent}"
    os.makedirs(out_dir, exist_ok=True)
    finals = []
    summary_runs = []
    for run in range(cfg.runs):
        run_seed = seed + run
        result = train(game, cfg, seed=run_seed)
        rolling = result.rolling_mean()
        finals.append(rolling if rolling is not None else 0.0)
        curve_path = os.path.join(out_dir, f"curve_seed{run_seed}.csv")
        write_learning_curve(curve_path, result)
        ckpt_path = None
        if result.params is not None:
            ckpt_path = os.path.join(out_dir,
                                     f"checkpoint_seed{run_seed}.npz")
            save_checkpoint(ckpt_path, result)
        summary_runs.append({
            "seed": run_seed,
            "episodes": len(result.episodes),
            "env_steps": result.env_steps,
            "updates": result.updates,
            "rolling_mean": rolling,
            "reached_step": result.reached_step,
            "wall_seconds": round(result.wall_seconds, 3),
            "curve": curve_path,
            "checkpoint": ckpt_path,
        })
        print(f"run {run + 1}/{cfg.runs} seed={run_seed}: "
              f"episodes={len(result.episodes)} steps={result.env_steps} "
              f"rolling={rolling if rolling is None else round(rolling, 2)} "
              f"wall={result.wall_seconds:.1f}s")
    summary = {
        "game": args.game,
        "agent": cfg.agent,
        "max_score": game.max_score,
        "runs": summary_runs,
        "rolling_mean_over_runs": float(np.mean(finals)),
        "rolling_std_over_runs": float(np.std(finals)),
        "config": cfg.to_dict(),
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"mean final rolling score {np.mean(finals):.2f} "
          f"+/- {np.std(finals):.2f} over {cfg.runs} runs -> {summary_path}")
    return OK


def _cmd_eval(args) -> int:
    game = _load_any_game(args.game)
    try:
        checkpoint = load_checkpoint(args.checkpoint)
        result = result_from_checkpoint(game, checkpoint)
    except CheckpointError as exc:
        raise _InputError(str(exc)) from exc
    seed = _pick_seed(args)
    records = evaluate(game, result, seed=seed, episodes=args.episodes)
    scores = [r.score for r in records]
    for rec in records:
        print(f"episode {rec.index}: score {rec.score}/{game.max_score} "
              f"in {rec.moves} moves (return {rec.ret})")
    print(f"{checkpoint.agent} on {game.title}: "
          f"mean {np.mean(scores):.2f} +/- {np.std(scores):.2f} "
          f"over {len(records)} episodes")
    return OK


# -- inspection ---------------------------------------------------------------------


def _cmd_valid_actions(args) -> int:
    game = _load_any_game(args.game)
    env = Environment(game, FULL_HANDICAPS)
    env.reset(seed=args.seed if args.seed is not None else 0)
    for command in [c.strip() for c in (args.do or "").split(";") if
                    c.strip()]:
        result = env.step(command)
        print(f"> {command}\n{result.observation}")
    valid = env.identify_valid_actions(dedup=args.dedup)
    print(f"valid actions ({len(valid)}):")
    for cand, diff_hash in zip(valid.candidates, valid.diff_hashes):
        print(f"  {cand.surface:30s} diff {diff_hash:016x}")
    return OK


def _cmd_templates(args) -> int:
    game = _load_any_game(args.game)
    templates = game.templates()
    vocab = game.vocabulary()
    print(f"{game.title}: {len(templates)} templates, "
          f"vocabulary {len(vocab)} words")
    for tpl in templates:
        print(f"  {tpl.surface:28s} blanks={tpl.blanks} "
              f"rules={','.join(tpl.rule_ids)}")
    exact = action_space_size(templates, len(vocab))
    bound = template_space_upper_bound(len(templates), len(vocab))
    print(f"action space (vocab fillings): {exact}")
    print(f"upper bound |T| * |V|^2:       {bound}")
    return OK


# -- bench / verify -----------------------------------------------------------------


def _cmd_bench(args) -> int:
    if args.check:
        try:
            with open(args.check, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise _InputError(f"cannot read report: {exc}") from exc
        problems = validate_report(data)
        if problems:
            for problem in problems:
                print(f"schema: {problem}", file=sys.stderr)
            return INPUT_ERROR
        print(f"report ok: {len(data['rows'])} rows, completion "
              f"{data['aggregate']['normalized_completion']:.2f}%")
        return OK
    names = args.games.split(",") if args.games else bundled_game_names()
    games = {name: _load_any_game(name) for name in names}
    seed = _pick_seed(args)
    report = run_benchmark(games, seed=seed, episodes=args.episodes,
                           negatives=args.negatives)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} "
              f"(completion {report.normalized_completion():.2f}%)")
    else:
        print(text, end="")
    return OK


def _cmd_verify(args) -> int:
    names = [args.game] if args.game != "all" else list(bundled_game_names())
    failed = False
    for name in names:
        game = _load_any_game(name)
        report = verify_walkthrough(game, seed=args.seed or 0)
        print(report.summary())
        if not report.success:
            failed = True
    return FAILURE if failed else OK


# -- wiring -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textquest",
        description="Deterministic interactive fiction environments with "
                    "template action spaces and desk-scale learning agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("play", help="interactive debug REPL")
    p.add_argument("game", help="bundled game name or path to .game.json")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("train", help="train an agent over several seeds")
    p.add_argument("game")
    p.add_argument("--agent", choices=AGENT_KINDS)
    p.add_argument("--config", help="JSON file of TrainConfig fields")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config field (repeatable)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p.add_argument("game")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=_positive_int, default=10)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("valid-actions",
                       help="show detected valid actions at a state")
    p.add_argument("game")
    p.add_argument("--seed", type=int)
    p.add_argument("--do", help="semicolon-separated commands to run first")
    p.add_argument("--dedup", action="store_true",
                   help="collapse actions with identical world effects")
    p.set_defaults(func=_cmd_valid_actions)

    p = sub.add_parser("templates", help="list a game's action templates")
    p.add_argument("game")
    p.set_defaults(func=_cmd_templates)

    p = sub.add_parser("bench", help="random-agent benchmark report (JSON)")
    p.add_argument("--games", help="comma-separated names (default: all)")
    p.add_argument("--episodes", type=_positive_int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--negatives", choices=("clip", "raw"), default="clip")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--check", metavar="REPORT",
                   help="validate an existing report instead of running")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="verify bundled walkthroughs")
    p.add_argument("game", nargs="?", default="all",
                   help="game name or 'all'")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
