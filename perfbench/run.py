"""qknet benchmark: three decentralized-training workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qknet checkout. ``--workload all`` runs every workload
in turn. Each workload runs in fresh processes, one at a time, with the BLAS
and OpenMP thread counts pinned to 1: set-up-only processes before, during
and after one measuring process (``workload.py``) give the median
``setup_s``, and the measuring process gives the rest. Each metric is
printed as ``workload metric value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics named in
BENCHMARK.json (``end_to_end`` untraced, ``per_layer`` with ``--trace 1``).
The measuring process's full report, with the run environment and every
sample, goes to ``.perfbench_out/<workload>/seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# After one untimed warm-up that writes the bytecode caches, set-up samples
# are taken before the measuring process, after each of its repetitions and
# after it, so their median spans the run rather than the host's speed in one
# second of it.
SETUP_SAMPLES_AROUND = 2  # before, and again after, the measuring process
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _child(root: Path, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args], cwd=root, env=env,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"workload.py {' '.join(args)} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, bench: dict, name: str, seed: int,
                 seconds: float, trace: int) -> dict:
    ident = ("--workload", name, "--seed", str(seed))

    def setup_samples(count: int) -> list[float]:
        return [_child(root, "setup", *ident)["setup_s"] for _ in range(count)]

    setup = setup_samples(SETUP_SAMPLES_AROUND + 1)[1:]
    out = root / ".perfbench_out" / name / f"seed{seed}-trace{trace}"
    report = _child(root, "run", *ident, "--seconds", str(seconds),
                    "--trace", str(trace), "--out", str(out))
    setup += report.pop("setup_samples_s", [])
    setup += setup_samples(SETUP_SAMPLES_AROUND)
    report["setup_samples_s"] = setup
    (out / "result.json").write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")
    if trace:
        values = report["layer"]
        wanted = bench["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "run_s": statistics.median(report["run_s"]),
                  "peak_rss_mb": report["peak_rss_mb"],
                  "final_accuracy": report.get("final_accuracy")}
        wanted = bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None:
            raise BenchError(f"{name}: metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{name} {spec['name']} {value:.6g} {spec['unit']}")
    print(f"{name} attempted {report['attempted']} failed {report['failed']}")
    for failure in report["failures"]:
        print(f"{name} failure: {failure}")
    print(json.dumps({"environment": report["environment"]}))
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "qknet" / "__init__.py").is_file():
        print(f"{root} holds no qknet sources (src/qknet); run from the root"
              " of a checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(root, bench, name, args.seed, args.seconds,
                                  args.trace)
            print(json.dumps(result))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
