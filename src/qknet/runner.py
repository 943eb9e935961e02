"""End-to-end training loop: decentralized gossip, centralized, and local.

A run builds the dataset, partitions it across nodes, and iterates
barrier-synchronized rounds: every honest node takes a subsampled alignment
gradient step, messages cross the network (attackers substitute crafted
vectors), and honest nodes aggregate with doubly stochastic weights. Scores
and per-round metrics are collected into machine-readable result files.

Every random draw flows from the master seed through a tagged SeedSequence
spawn key (tag, node, round), so runs are bit-reproducible and independent of
execution order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dnet, engine, learn
from .config import MODES, ExperimentConfig, dump_config
from .data import (GRID, DataError, LabeledDataset, gen_checkerboard,
                   load_csv, partition, train_test_split)
from .engine import FeatureMapSpec, NoiseModel


class RunError(ValueError):
    pass


TAG_DATA = 0
TAG_SPLIT = 1
TAG_INIT = 2
TAG_SUBSAMPLE = 3
TAG_ATTACK = 4
TAG_SHOTS = 5


def derived_rng(master: int, tag: int, node: int, rnd: int):
    seq = np.random.SeedSequence(master, spawn_key=(tag, node, rnd))
    return np.random.default_rng(seq)


def derived_seed(master: int, tag: int, node: int, rnd: int) -> int:
    seq = np.random.SeedSequence(master, spawn_key=(tag, node, rnd))
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class NodeSetup:
    """One node's settings; its data are the ``train_rows`` and ``test_rows``
    of the problem's global sets. ``batch`` is the rows of each round's
    subsample: ``nodes.subsample``, or every local training row if fewer."""

    node_id: int
    role: str
    noise: NoiseModel
    eta: float
    batch: int
    train_rows: range
    test_rows: range


class ScoreReport(NamedTuple):
    node: int
    score1: float | None
    score2: float | None
    score3: float | None


class RoundRecord(NamedTuple):
    """One node's subsample metrics at one round; its fields, in order, are
    the keys of a ``rounds.jsonl`` line."""

    round: int
    node: int
    loss: float | None
    alignment: float | None
    grad_norm: float | None
    consensus_dist: float


class EvalPoint(NamedTuple):
    """The accuracy of the honest nodes' mean model at one evaluated round."""

    round: int
    mean_model_accuracy: float


@dataclass(frozen=True)
class Problem:
    """Everything a training loop needs, with data already distributed.

    ``mode`` is the one the problem was prepared for; it only chose the
    mixing matrix ``weights``, whose off-diagonal support is the network.
    Each node's data are one contiguous block of ``global_train`` and of
    ``global_test``.
    ``schedule`` holds every round's subsample as row indices of
    ``global_train``: a (rounds, q) int array per honest node and None for
    the others, drawn once for the ``nodes`` and the ``config.run_budget``
    the problem was prepared with; a problem built by replacing either keeps
    the old draws.
    """

    mode: str
    config: ExperimentConfig
    spec: FeatureMapSpec
    nodes: tuple[NodeSetup, ...]
    global_train: LabeledDataset
    global_test: LabeledDataset
    weights: np.ndarray
    eval_noise: NoiseModel
    schedule: tuple[np.ndarray | None, ...]

    @property
    def honest_ids(self) -> list[int]:
        """Ids of the honest nodes, a list so that it indexes rows."""
        return [n.node_id for n in self.nodes if n.role == dnet.HONEST]


@dataclass(frozen=True)
class RunResult:
    """A finished run; ``reports`` scores each node at ``final_round``."""

    mode: str
    config: ExperimentConfig
    thetas: np.ndarray
    records: tuple[RoundRecord, ...]
    evals: tuple[EvalPoint, ...]
    reports: tuple[ScoreReport, ...]

    @property
    def final_round(self) -> int:
        """The last round, which is always evaluated."""
        return self.evals[-1].round

    @property
    def iterations_to_threshold(self) -> int | None:
        return _first_crossing(self.evals, self.config.run_threshold)


def _physical_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _eval_bytes(n_qubits: int, n_points: int) -> int:
    """Bytes of every point's state and their Gram, built at once."""
    return (8 * 4**n_qubits + 8 * n_points) * n_points


def _load_dataset(config: ExperimentConfig) -> LabeledDataset:
    if config.data_source == "csv":
        return load_csv(config.data_csv_path)
    n, points = config.circuit_n_qubits, GRID**2 * config.data_points_per_cell
    need, physical = _eval_bytes(n, points), _physical_bytes()
    if need > physical:
        raise RunError(
            f"data.points_per_cell = {config.data_points_per_cell} is too large:"
            f" at circuit.n_qubits = {n} the states and Gram of its {points}"
            f" points need {need} bytes, more than the {physical} bytes of"
            f" physical memory")
    return gen_checkerboard(config.data_points_per_cell, config.data_sigma,
                            derived_seed(config.run_seed, TAG_DATA, 0, 0))


def _noise_groups(nodes) -> dict[NoiseModel, list[NodeSetup]]:
    """The honest nodes by noise model, in order of first appearance; each
    group shares one engine call."""
    groups: dict[NoiseModel, list[NodeSetup]] = {}
    for node in nodes:
        if node.role == dnet.HONEST:
            groups.setdefault(node.noise, []).append(node)
    return groups


def _schedule_bytes(nodes, rounds: int) -> int:
    """Bytes of the subsample schedule, which is allocated up front."""
    return np.dtype(np.intp).itemsize * rounds * sum(
        node.batch for node in nodes if node.role == dnet.HONEST)


def _check_memory(config: ExperimentConfig, nodes, n_points: int) -> None:
    """Refuse a run whose largest arrays outgrow physical memory.

    They are the (nodes, T) parameters, the training tape of the largest
    noise group (one 8 * 4**n byte state per layer and subsampled row), the
    states of every point and their Gram, which evaluation builds at once,
    and the subsample schedule of every round.
    """
    batches = [sum(node.batch for node in group)
               for group in _noise_groups(nodes).values()]
    n, layers = config.circuit_n_qubits, config.circuit_layers
    arrays = (8 * len(nodes) * n * layers
              + 8 * 4**n * layers * max(batches, default=0)
              + _eval_bytes(n, n_points))
    schedule = _schedule_bytes(nodes, config.run_budget)
    physical = _physical_bytes()
    if arrays + schedule > physical:
        raise RunError(
            f"circuit.n_qubits = {n} and circuit.layers = {layers} on"
            f" {n_points} points need {arrays} bytes of parameters, states and"
            f" Gram, and run.budget = {config.run_budget} needs {schedule}"
            f" bytes of subsample schedule, more than the {physical} bytes of"
            f" physical memory")


def prepare_problem(config: ExperimentConfig, mode: str) -> Problem:
    """Distribute data and freeze per-node settings for one run.

    Each node's local split is stratified within its partition block; the
    global train/test sets are the local splits in node order, so no node's
    test point ever appears in any training set and each node's rows are one
    contiguous block of each global set. Each node reads its entry of the
    ``nodes.*`` keys; a centralized run pools every point in one honest node,
    which reads entry 0, and ignores ``network.n_nodes``.
    """
    if mode not in MODES:
        raise RunError(f"unknown mode {mode!r}")
    dataset = _load_dataset(config)
    n_nodes = 1 if mode == "centralized" else config.network_n_nodes
    master = config.run_seed

    if n_nodes == 1:
        parts = [np.arange(len(dataset))]
    else:
        try:
            parts = partition(dataset, config.partition_strategy, n_nodes,
                              derived_seed(master, TAG_DATA, 1, 0))
        except DataError as exc:
            raise RunError(
                f"partition.strategy = {config.partition_strategy} cannot split"
                f" the data over network.n_nodes = {n_nodes}: {exc}") from exc

    if mode == "local" and any(r != dnet.HONEST for r in config.nodes_roles):
        raise RunError("local mode trains every node; roles must be honest")

    nodes = []
    train_idx, test_idx = [], []
    n_train = n_test = 0
    for i in range(n_nodes):
        try:
            tr, te = train_test_split(
                dataset.subset(parts[i]), config.data_test_fraction,
                seed=derived_seed(master, TAG_SPLIT, i, 0),
            )
        except DataError as exc:
            raise RunError(
                f"data.test_fraction = {config.data_test_fraction} cannot split"
                f" the {len(parts[i])} points of node {i}: {exc}") from exc
        train_idx.append(parts[i][tr])
        test_idx.append(parts[i][te])
        nodes.append(NodeSetup(
            node_id=i, role=(dnet.HONEST if mode == "centralized"
                             else config.per_node("nodes_roles", i)),
            noise=NoiseModel(mode=config.nodes_noise_mode,
                             p=config.per_node("nodes_noise_p", i)),
            eta=config.per_node("nodes_eta", i),
            batch=min(config.per_node("nodes_subsample", i), len(tr)),
            train_rows=range(n_train, n_train + len(tr)),
            test_rows=range(n_test, n_test + len(te)),
        ))
        n_train += len(tr)
        n_test += len(te)
    groups = _noise_groups(nodes)
    if not groups:
        raise RunError("nodes.roles has no honest node to evaluate")
    _check_memory(config, nodes, n_train + n_test)

    weights = np.eye(n_nodes)  # local and centralized nodes never mix
    if mode == "decentralized":
        build = dnet.ring if config.network_topology == "ring" else dnet.complete
        try:
            weights = dnet.metropolis_weights(build(n_nodes))
        except dnet.NetError as exc:
            raise RunError(
                f"network.topology = {config.network_topology} with"
                f" network.n_nodes = {n_nodes}: {exc}") from exc
        dnet.check_weight_matrix(weights)

    try:
        schedule = _subsample_schedule(nodes, master, config.run_budget)
    except MemoryError:
        raise RunError(
            f"run.budget = {config.run_budget} is too large: its subsample"
            f" schedule asks for {_schedule_bytes(nodes, config.run_budget)}"
            f" bytes, allocated up front") from None
    return Problem(
        mode=mode, config=config,
        spec=FeatureMapSpec(config.circuit_n_qubits, config.circuit_layers),
        nodes=tuple(nodes),
        global_train=dataset.subset(np.concatenate(train_idx)),
        global_test=dataset.subset(np.concatenate(test_idx)),
        weights=weights, schedule=schedule,
        # the largest group's; on a tie, the one that appears first
        eval_noise=max(groups, key=lambda noise: len(groups[noise])),
    )


def _init_thetas(problem: Problem) -> np.ndarray:
    cfg = problem.config
    t = problem.spec.n_params
    scale = cfg.init_scale
    thetas = np.empty((len(problem.nodes), t))
    for i in range(len(problem.nodes)):
        src = 0 if cfg.init_shared else i
        thetas[i] = derived_rng(cfg.run_seed, TAG_INIT, src, 0).uniform(
            -scale, scale, t)
    return thetas


def _subsample_schedule(nodes, seed: int,
                        rounds: int) -> tuple[np.ndarray | None, ...]:
    """Every round's subsample rows of ``global_train``, one array per node.

    An honest node's entry is (rounds, q) with q its ``batch``; other
    nodes get None. Each (node, round) draws from its own TAG_SUBSAMPLE
    stream, so drawing the whole schedule up front gives the same rows as
    drawing round by round.
    """
    schedule = []
    for node in nodes:
        if node.role != dnet.HONEST:
            schedule.append(None)
            continue
        rows = node.train_rows
        idx = np.empty((rounds, node.batch), dtype=np.intp)
        for rnd in range(rounds):
            idx[rnd] = derived_rng(seed, TAG_SUBSAMPLE, node.node_id, rnd).choice(
                len(rows), size=idx.shape[1], replace=False)
        schedule.append(idx + rows.start)
    return tuple(schedule)


def _half_steps(problem: Problem, thetas: np.ndarray, rnd: int):
    """Per-node half-step parameters and subsample metrics for one round.

    The honest nodes sharing a noise model, in order of first appearance,
    share one batched simulation of their round-``rnd`` subsamples. Rows of
    nodes that are not honest keep their stored parameters.
    """
    train = problem.global_train
    halves = thetas.copy()
    metrics: list[tuple[float, float, float] | None] = [None] * len(problem.nodes)
    for noise, nodes in _noise_groups(problem.nodes).items():
        ids = [n.node_id for n in nodes]
        rows = [problem.schedule[i][rnd] for i in ids]
        values, grads = engine.multi_alignment_grads(
            problem.spec, thetas[ids], [train.x[r] for r in rows],
            [train.y[r] for r in rows], noise)
        # row by row: right after the simulation one fancy-indexed update
        # costs more than these few basic-indexed ones
        for node, a, g in zip(nodes, values, grads):
            halves[node.node_id] += node.eta * g
            metrics[node.node_id] = (-a, a, math.sqrt(float(g @ g)))
    return halves, metrics


def _exchange(problem: Problem, halves: np.ndarray, rnd: int):
    """One message exchange plus aggregation; returns the next parameters.

    The messages are one (N, T) array: an honest node's row is its half-step,
    an attacker's the vector it crafts from the half-steps it receives (a
    fellow attacker's half-step is its last stored state); it receives from
    the nonzero off-diagonal entries of its ``weights`` row. One
    ``dnet.aggregate`` mixes every honest node over ``W``'s in-edges, and
    in every mode two safety checks follow: under ``robust_clip`` no honest
    node moves farther than tau from its half-step; under plain mixing
    without attackers the network mean does not move by more than 1e-12
    times the largest half-step angle (at least 1).
    """
    cfg = problem.config
    w = problem.weights
    messages = halves.copy()
    for node in problem.nodes:
        i = node.node_id
        if node.role == dnet.HONEST:
            continue
        received = halves[[j for j in np.flatnonzero(w[i]) if j != i]]
        if node.role == dnet.GAUSSIAN_ATTACKER:
            rng = derived_rng(cfg.run_seed, TAG_ATTACK, i, rnd)
            messages[i] = dnet.attack_gaussian(received, rng)
        else:
            messages[i] = dnet.attack_signflip(received)

    robust = cfg.aggregation_rule == "robust_clip"
    new = messages.copy()  # an attacker keeps the vector it crafted
    honest = problem.honest_ids
    new[honest] = dnet.aggregate(halves[honest], messages, w[honest],
                                 cfg.aggregation_tau if robust else None)

    if robust:
        pulls = np.linalg.norm(new[honest] - halves[honest], axis=1)
        worst = int(np.argmax(pulls))
        if not pulls[worst] <= cfg.aggregation_tau + 1e-9:
            raise RunError(
                f"clipped aggregation moved node {honest[worst]} by"
                f" {pulls[worst]:.3e}, beyond tau={cfg.aggregation_tau}")
    if not robust and len(honest) == len(problem.nodes):
        # rounding moves the mean in proportion to the angles' size
        drift = abs((new - halves).sum(axis=0)).max() / len(new)
        if not drift <= 1e-12 * max(1.0, abs(halves).max()):
            raise RunError(f"aggregation moved the network mean by {drift:.3e}")
    return new


def _score(problem: Problem, theta: np.ndarray, noise: NoiseModel, stream: int,
           rnd: int, splits=None):
    """``learn.score`` on the global sets under ``noise``; with ``eval.shots``
    set, shot-sampled from the (TAG_SHOTS, stream, rnd) stream."""
    cfg = problem.config
    rng = (derived_rng(cfg.run_seed, TAG_SHOTS, stream, rnd)
           if cfg.eval_shots else None)
    try:
        return learn.score(problem.spec, theta, problem.global_train,
                           problem.global_test, noise, cfg.ridge_lam,
                           shots=cfg.eval_shots, rng=rng, splits=splits)
    except learn.LearnError as exc:
        raise RunError(f"ridge.lam = {cfg.ridge_lam}: {exc}") from exc


def evaluate_node(problem: Problem, node: NodeSetup, theta: np.ndarray,
                  rnd: int) -> ScoreReport:
    """Score1/2/3 for one node's parameters under its own noise model.

    The node's sets are blocks of the global ones, so one simulation of the
    global sets serves all three scores.
    """
    every_train = range(len(problem.global_train))
    every_test = range(len(problem.global_test))
    s1, s2, s3 = _score(
        problem, theta, node.noise, node.node_id, rnd,
        splits=[(node.train_rows, node.test_rows), (node.train_rows, every_test),
                (every_train, every_test)])
    return ScoreReport(node.node_id, s1, s2, s3)


def _mean_model(problem: Problem, thetas: np.ndarray) -> np.ndarray:
    """The honest nodes' mean parameters."""
    return thetas[problem.honest_ids].mean(axis=0)


def _evaluate(problem: Problem, thetas: np.ndarray, rnd: int) -> EvalPoint:
    """Score the honest nodes' mean model; node scores wait for the end."""
    acc = _score(problem, _mean_model(problem, thetas), problem.eval_noise,
                 len(problem.nodes), rnd)
    return EvalPoint(rnd, acc)


def run_problem(problem: Problem, mode: str) -> RunResult:
    """Drive the round loop for a Problem prepared for ``mode``."""
    cfg = problem.config
    if mode != problem.mode:
        raise RunError(
            f"the problem was prepared for mode {problem.mode!r}, not {mode!r}")
    prepared = min(len(idx) for idx in problem.schedule if idx is not None)
    if prepared < cfg.run_budget:
        raise RunError(
            f"run.budget = {cfg.run_budget} exceeds the {prepared}"
            " rounds of subsamples the problem was prepared with")
    thetas = _init_thetas(problem)
    honest = problem.honest_ids
    rounds = []  # (per-node metrics, honest consensus distance) of each round
    evals: list[EvalPoint] = []
    for rnd in range(cfg.run_budget):
        halves, metrics = _half_steps(problem, thetas, rnd)
        thetas = _exchange(problem, halves, rnd)
        consensus = (dnet.consensus_distance(thetas[honest])
                     if len(honest) >= 2 else 0.0)
        rounds.append((metrics, consensus))
        gnorms = [m[2] for m in metrics if m is not None]
        done = (rnd == cfg.run_budget - 1
                or math.fsum(gnorms) / len(gnorms) < cfg.run_g_thresh)
        if rnd % cfg.run_eval_every == 0 or done:
            evals.append(_evaluate(problem, thetas, rnd))
        if done:
            break
    # built after the loop: right after each engine call every operation
    # runs on caches the simulation has just evicted
    records = tuple(
        RoundRecord(r, i, *(m or (None, None, None)), consensus)
        for r, (metrics, consensus) in enumerate(rounds)
        for i, m in enumerate(metrics))
    # the last evaluation is of the `done` round, so of the final thetas
    reports = tuple(
        evaluate_node(problem, node, thetas[node.node_id], rnd)
        if node.role == dnet.HONEST
        else ScoreReport(node.node_id, None, None, None)
        for node in problem.nodes)
    return RunResult(mode=mode, config=cfg, thetas=thetas, records=records,
                     evals=tuple(evals), reports=reports)


def run(config: ExperimentConfig, mode: str = "decentralized") -> RunResult:
    return run_problem(prepare_problem(config, mode), mode)


def _first_crossing(evals, threshold: float) -> int | None:
    """First evaluated round whose mean-model accuracy reaches the threshold."""
    for point in evals:
        if point.mean_model_accuracy >= threshold:
            return point.round
    return None


def rounds_jsonl(result: RunResult) -> str:
    lines = [json.dumps(rec._asdict()) for rec in result.records]
    return "\n".join(lines) + "\n"


def scores_json(result: RunResult) -> dict:
    return {
        "mode": result.mode,
        "seed": result.config.run_seed,
        "threshold": result.config.run_threshold,
        "iteration_to_threshold": result.iterations_to_threshold,
        "final_round": result.final_round,
        "scores": [r._asdict() for r in result.reports],
        "evals": [p._asdict() for p in result.evals],
        "config": dump_config(result.config),
    }


def write_outputs(result: RunResult, out_dir, problem: Problem):
    """Write rounds.jsonl and scores.json (and the optional final Gram).

    ``problem`` is the prepared problem ``result`` came from.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rounds.jsonl").write_text(rounds_jsonl(result), encoding="utf-8")
    (out / "scores.json").write_text(
        json.dumps(scores_json(result), indent=2) + "\n", encoding="utf-8")
    if result.config.output_gram_final:
        gram = engine.gram_matrix(problem.spec,
                                  _mean_model(problem, result.thetas),
                                  problem.global_train.x, problem.eval_noise)
        np.savetxt(out / "gram_final.csv", gram, delimiter=",")
    return out
