"""One qknet benchmark workload, run in a process of its own.

    python3 perfbench/workload.py setup --workload NAME --seed N
    python3 perfbench/workload.py run --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Both print one JSON line. ``setup`` times importing qknet plus
``runner.prepare_problem``. ``run`` does the same set-up, then repeats
``runner.run_problem`` + ``runner.write_outputs`` on the one problem until
``--seconds`` are used, with one ``setup`` sample in a fresh process after
each repetition, and checks the outputs after the timed region. With
``--trace 1`` one untraced repetition is followed by traced ones until the
p90 latencies have enough samples (see ``spans.py``). ``run.py`` starts this script with the BLAS and OpenMP thread
counts pinned to 1 and ``src`` on ``PYTHONPATH``; nothing is imported from
qknet or NumPy before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

MODE = "decentralized"

# Each workload is a set of ExperimentConfig overrides; every other key keeps
# its default. The master seed is base_seed + --seed, so --seed 0 gives the
# named scenario. Budgets are sized so one repetition takes 4-13 s on one
# core, which lets two or more repetitions fit in one 34 s run.
WORKLOADS = {
    # Training-bound: evaluation only at round 0 and the last round, so about
    # 70% of the time is engine.multi_alignment_grads.
    "ring_train": {
        "base_seed": 0,
        "config": {"run_budget": 100, "run_eval_every": 101},
    },
    # Evaluation-bound: the acceptance scenario's eval_every = 10 (evaluation
    # at rounds 0 and 10), so about 80% of the time is the 13 learn.score
    # calls per evaluation point.
    "ring_eval": {
        "base_seed": 0,
        "config": {"run_budget": 11, "run_eval_every": 10},
    },
    # D = 64 (dense D^3 matmuls), two noise groups per round (16 + 8 rows),
    # the live attack and clip path, and about twice the peak memory. About
    # three quarters of the time is the two evaluations at D = 64.
    "byzantine_wide": {
        "base_seed": 4,
        "config": {
            "run_budget": 12,
            "run_eval_every": 13,
            "circuit_n_qubits": 6,
            "nodes_roles": ("honest", "honest", "gaussian_attacker", "honest"),
            "nodes_noise_p": (0.0005, 0.0005, 0.0005, 0.05),
            "aggregation_rule": "robust_clip",
            "aggregation_tau": 0.5,
        },
    },
}

MIN_REPS = 2  # the byte-identity check needs a repeat
SETUP_TIMEOUT_S = 60
GRAM_CHECK_ENTRIES = 4
GRAM_CHECK_TOL = 1e-9


def _prepare(name: str, seed: int):
    """Import qknet and build the workload's problem; returns (problem, s)."""
    t0 = time.perf_counter()
    from qknet import runner
    from qknet.config import ExperimentConfig

    spec = WORKLOADS[name]
    config = ExperimentConfig(run_seed=spec["base_seed"] + seed, **spec["config"])
    problem = runner.prepare_problem(config, MODE)
    return problem, time.perf_counter() - t0


def _setup_sample(name: str, seed: int) -> float:
    """``setup_s`` of one fresh process; it runs while this one waits."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    root = Path.cwd()
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")
                    or k == "VECLIB_MAXIMUM_THREADS"},
        "git_sha": sha,
        "seed": seed,
    }


def _gram_check(problem, result, seed: int) -> list[str]:
    """engine.gram_matrix against the gate-by-gate qkernel.kernel_eval."""
    import numpy as np
    from qknet import dnet, engine, qkernel

    honest = [n.node_id for n in problem.nodes if n.role == dnet.HONEST]
    theta = result.thetas[honest].mean(axis=0)
    x = problem.global_train.x
    rng = np.random.default_rng(seed)
    pairs = [(0, 0)] + [tuple(rng.choice(len(x), 2, replace=False))
                        for _ in range(GRAM_CHECK_ENTRIES - 1)]
    rows = sorted({i for pair in pairs for i in pair})
    pos = {r: k for k, r in enumerate(rows)}
    gram = engine.gram_matrix(problem.spec, theta, x[rows], problem.eval_noise)
    errors = []
    for i, j in pairs:
        ref = qkernel.kernel_eval(problem.spec, theta, x[i], x[j],
                                  problem.eval_noise)
        got = gram[pos[i], pos[j]]
        if not abs(got - ref) <= GRAM_CHECK_TOL:
            errors.append(f"K[{i},{j}] engine {got!r} reference {ref!r}")
    return errors


class Repeater:
    """Runs the timed repetitions and the byte-identity check."""

    def __init__(self, problem, out: Path):
        from qknet import dnet, learn, runner

        self.runner, self.problem, self.out = runner, problem, out
        self.errors = (runner.RunError, learn.LearnError, dnet.NetError)
        self.attempted = self.failed = 0
        self.first_rounds: bytes | None = None
        self.result = None
        self.failures: list[str] = []

    def warm_up(self) -> None:
        """One untimed round, so first-call costs stay out of the timings.

        A user's scenario runs hundreds of rounds, over which these costs
        vanish; a repetition here is short enough for them to show.
        """
        short = dataclasses.replace(self.problem, config=dataclasses.replace(
            self.problem.config, run_budget=1))
        try:
            self.runner.run_problem(short, MODE)
        except self.errors:
            pass  # the timed repetitions fail the same way and count it

    def once(self, tracer=None) -> float:
        """One repetition, checked; returns its wall-clock seconds."""
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with span("runner.run_problem"):
                result = self.runner.run_problem(self.problem, MODE)
            with span("runner.write_outputs"):
                self.runner.write_outputs(result, self.out, self.problem)
        except self.errors as exc:
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        problems = []
        rounds = (self.out / "rounds.jsonl").read_bytes()
        if self.first_rounds is None:
            self.first_rounds = rounds
        elif rounds != self.first_rounds:
            problems.append("rounds.jsonl differs from the first repeat")
        if tracer is not None:
            problems += tracer.check()
        if problems:
            self.failed += 1
            self.failures += problems
        self.result = result
        return elapsed


def _run(args) -> dict:
    problem, setup_s = _prepare(args.workload, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rep = Repeater(problem, out)
    report = {"setup_s": setup_s, "environment": _environment(args.seed)}
    rep.warm_up()
    if not args.trace:
        times, setups = [], []
        start = time.perf_counter()
        while (len(times) < MIN_REPS or time.perf_counter() - start
               + max(times) <= args.seconds):
            times.append(rep.once())
            setups.append(_setup_sample(args.workload, args.seed))
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        report["run_s"] = times
        report["setup_samples_s"] = setups
    else:
        import spans
        from qknet import dnet, engine, learn

        untraced = rep.once()
        tracers, traced = [], []
        while not tracers or not spans.enough_samples(tracers):
            tracer = spans.Tracer()
            with spans.installed(tracer, engine, learn, dnet):
                traced.append(rep.once(tracer))
            tracers.append(tracer)
        layer = spans.layer_metrics(tracers, problem.spec.layers)
        layer["trace.overhead_ratio"] = statistics.median(traced) / untraced
        report["layer"] = layer
        (out / "spans.json").write_text(
            json.dumps([t.spans for t in tracers]), encoding="utf-8")

    if rep.result is not None:
        report["final_accuracy"] = rep.result.evals[-1].mean_model_accuracy
        gram_errors = _gram_check(problem, rep.result, args.seed)
        if gram_errors:
            rep.failed += 1
            rep.failures += gram_errors
    report.update(attempted=rep.attempted, failed=rep.failed,
                  failures=rep.failures)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out")
    args = parser.parse_args(argv)
    if args.command == "setup":
        report = {"setup_s": _prepare(args.workload, args.seed)[1]}
    else:
        report = _run(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
