"""Command-line entry point: run experiments, generate data, report scores."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import data as datamod
from .config import ConfigError, ExperimentConfig, MODES, load_config
from .runner import RunError, prepare_problem, run_problem, write_outputs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qknet",
        description="Decentralized quantum kernel learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train per a config file")
    p_run.add_argument("--config", type=Path, default=None,
                       help="config file (defaults apply when omitted)")
    p_run.add_argument("--mode", choices=MODES, default="decentralized")
    _add_common(p_run)

    p_gen = sub.add_parser("gen-data", help="write a checkerboard CSV")
    p_gen.add_argument("--points-per-cell", type=int,
                       default=ExperimentConfig.data_points_per_cell)
    p_gen.add_argument("--sigma", type=float, default=ExperimentConfig.data_sigma)
    _add_common(p_gen)

    p_rep = sub.add_parser("report", help="print score tables from a run")
    p_rep.add_argument("--out", type=Path, default=Path("."),
                       help="directory holding the run's scores.json")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, run_seed=args.seed)
    problem = prepare_problem(config, args.mode)
    result = run_problem(problem, args.mode)
    out = write_outputs(result, args.out, problem=problem)
    honest = [r for r in result.reports if r.score3 is not None]
    mean3 = sum(r.score3 for r in honest) / len(honest)
    print(f"mode={result.mode} rounds={result.final_round + 1} "
          f"mean_score3={mean3:.4f} "
          f"iteration_to_threshold={result.iterations_to_threshold}")
    print(f"wrote {out / 'rounds.jsonl'} and {out / 'scores.json'}")
    return 0


def _cmd_gen_data(args) -> int:
    seed = 0 if args.seed is None else args.seed
    dataset = datamod.gen_checkerboard(args.points_per_cell, args.sigma, seed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "checkerboard.csv"
    datamod.save_csv(dataset, path)
    print(f"wrote {len(dataset)} points to {path}")
    return 0


def _cmd_report(args) -> int:
    path = args.out / "scores.json"
    if not path.exists():
        print(f"no scores.json under {args.out}", file=sys.stderr)
        return 1
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise datamod.DataError(f"{path} is not JSON: {exc}") from None
    try:
        lines = [f"mode: {payload['mode']}   seed: {payload['seed']}   "
                 f"iteration_to_threshold: {payload['iteration_to_threshold']}",
                 f"{'node':>4}  {'score1':>10}  {'score2':>10}  {'score3':>10}"]
        for row in payload["scores"]:
            cells = [row["score1"], row["score2"], row["score3"]]
            text = ["(attacker)" if c is None else f"{c:.4f}" for c in cells]
            lines.append(f"{row['node']:>4}  {text[0]:>10}  {text[1]:>10}"
                         f"  {text[2]:>10}")
    except (KeyError, TypeError, ValueError) as exc:
        raise datamod.DataError(
            f"{path} is not a scores object: {type(exc).__name__} {exc}") from None
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    """Run one subcommand; a bad config, network shape, data input or file
    prints ``qknet: error: <message>`` to stderr and returns 2."""
    args = build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "gen-data": _cmd_gen_data,
                "report": _cmd_report}
    try:
        return commands[args.command](args)
    except (ConfigError, RunError, datamod.DataError, OSError) as exc:
        print(f"qknet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
