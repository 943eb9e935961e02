"""End-to-end training loops: decentralized gossip, centralized, and local.

A run builds the dataset, partitions it across nodes, and iterates
barrier-synchronized rounds: every honest node takes a subsampled alignment
gradient step, messages cross the topology (attackers substitute crafted
vectors), and honest nodes aggregate with doubly stochastic weights. Scores
and per-round metrics are collected into machine-readable result files.

Every random draw flows from the master seed through a tagged SeedSequence
spawn key (tag, node, round), so runs are bit-reproducible and independent of
execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dnet, engine, learn
from .config import ExperimentConfig, dump_config
from .data import (
    CheckerboardSpec,
    LabeledDataset,
    PartitionPlan,
    gen_checkerboard,
    load_csv,
    partition,
    train_test_split,
)
from .qkernel import FeatureMapSpec, NoiseModel


class RunError(ValueError):
    pass


TAG_DATA = 0
TAG_SPLIT = 1
TAG_INIT = 2
TAG_SUBSAMPLE = 3
TAG_ATTACK = 4
TAG_SHOTS = 5

DEFAULT_METRIC = "mean_model_accuracy"
ROUND_KEYS = ("round", "node", "loss", "alignment", "grad_norm", "consensus_dist")


def derived_rng(master: int, tag: int, node: int = 0, rnd: int = 0):
    seq = np.random.SeedSequence(master, spawn_key=(tag, node, rnd))
    return np.random.default_rng(seq)


def derived_seed(master: int, tag: int, node: int = 0, rnd: int = 0) -> int:
    seq = np.random.SeedSequence(master, spawn_key=(tag, node, rnd))
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class NodeSetup:
    """One node's data and settings; ``train_rows`` and ``test_rows`` are
    where its ``train`` and ``test`` sit in the problem's global sets."""

    node_id: int
    role: str
    train: LabeledDataset
    test: LabeledDataset
    noise: NoiseModel
    eta: float
    subsample: int
    train_rows: range
    test_rows: range


@dataclass(frozen=True)
class ScoreReport:
    node: int
    score1: float | None
    score2: float | None
    score3: float | None

    def to_dict(self) -> dict:
        return {"node": self.node, "score1": self.score1,
                "score2": self.score2, "score3": self.score3}


@dataclass(frozen=True)
class RoundRecord:
    round: int
    node: int
    loss: float | None
    alignment: float | None
    grad_norm: float | None
    consensus_dist: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in ROUND_KEYS}


@dataclass(frozen=True)
class EvalPoint:
    round: int
    mean_model_accuracy: float
    reports: tuple[ScoreReport, ...]


@dataclass(frozen=True)
class Problem:
    """Everything a training loop needs, with data already distributed."""

    config: ExperimentConfig
    spec: FeatureMapSpec
    nodes: tuple[NodeSetup, ...]
    global_train: LabeledDataset
    global_test: LabeledDataset
    topology: dnet.Topology | None
    weights: np.ndarray | None
    eval_noise: NoiseModel


@dataclass(frozen=True)
class RunResult:
    mode: str
    config: ExperimentConfig
    thetas: np.ndarray
    records: tuple[RoundRecord, ...]
    evals: tuple[EvalPoint, ...]
    reports: tuple[ScoreReport, ...]
    iterations_to_threshold: int | None
    final_round: int


def _load_dataset(config: ExperimentConfig) -> LabeledDataset:
    if config.data_source == "csv":
        return load_csv(config.data_csv_path)
    spec = CheckerboardSpec(
        points_per_cell=config.data_points_per_cell,
        sigma=config.data_sigma,
        seed=derived_seed(config.run_seed, TAG_DATA, 0, 0),
    )
    return gen_checkerboard(spec)


def _build_topology(config: ExperimentConfig) -> dnet.Topology:
    if config.network_topology == "ring":
        return dnet.ring(config.network_n_nodes)
    return dnet.complete(config.network_n_nodes)


def _modal_noise(nodes) -> NoiseModel:
    """Most common honest noise model; earliest node breaks ties."""
    honest = [n.noise for n in nodes if n.role == dnet.HONEST]
    if not honest:
        raise RunError("no honest nodes to evaluate")
    counts: dict[NoiseModel, int] = {}
    for nm in honest:
        counts[nm] = counts.get(nm, 0) + 1
    best = max(counts.values())
    for nm in honest:
        if counts[nm] == best:
            return nm
    raise RunError("unreachable")


def prepare_problem(config: ExperimentConfig, mode: str) -> Problem:
    """Distribute data and freeze per-node settings for one run.

    Each node's local split is stratified within its partition block; the
    global train/test sets are the unions of the local splits in node order,
    so no node's test point ever appears in any training set and each node's
    rows are one contiguous block of each global set.
    """
    if mode not in ("decentralized", "centralized", "local"):
        raise RunError(f"unknown mode {mode!r}")
    dataset = _load_dataset(config)
    n_nodes = 1 if mode == "centralized" else config.network_n_nodes
    master = config.run_seed

    if n_nodes == 1:
        parts = [np.arange(len(dataset))]
    else:
        plan = PartitionPlan(
            strategy=config.partition_strategy,
            n_nodes=n_nodes,
            seed=derived_seed(master, TAG_DATA, 1, 0),
        )
        parts = partition(dataset, plan)

    roles = config.per_node("nodes_roles")
    noise_ps = config.per_node("nodes_noise_p")
    etas = config.per_node("nodes_eta")
    subs = config.per_node("nodes_subsample")
    if mode == "centralized":
        roles, noise_ps = (dnet.HONEST,), noise_ps[:1]
        etas, subs = etas[:1], subs[:1]
    if mode == "local" and any(r != dnet.HONEST for r in roles):
        raise RunError("local mode trains every node; roles must be honest")

    nodes = []
    locals_train, locals_test = [], []
    n_train = n_test = 0
    for i in range(n_nodes):
        block = dataset.subset(parts[i])
        tr_idx, te_idx = train_test_split(
            block, config.data_test_fraction,
            seed=derived_seed(master, TAG_SPLIT, i, 0),
        )
        train, test = block.subset(tr_idx), block.subset(te_idx)
        locals_train.append(train)
        locals_test.append(test)
        p = noise_ps[i]
        noise = NoiseModel(mode=config.nodes_noise_mode, p=p)
        nodes.append(NodeSetup(
            node_id=i, role=roles[i], train=train, test=test,
            noise=noise, eta=etas[i], subsample=subs[i],
            train_rows=range(n_train, n_train + len(train)),
            test_rows=range(n_test, n_test + len(test)),
        ))
        n_train += len(train)
        n_test += len(test)

    global_train = locals_train[0]
    global_test = locals_test[0]
    for tr, te in zip(locals_train[1:], locals_test[1:]):
        global_train = global_train.union(tr)
        global_test = global_test.union(te)

    topology = weights = None
    if mode == "decentralized":
        topology = _build_topology(config)
        weights = dnet.metropolis_weights(topology)
        dnet.check_weight_matrix(weights)

    return Problem(
        config=config, spec=FeatureMapSpec(config.circuit_n_qubits,
                                           config.circuit_layers),
        nodes=tuple(nodes), global_train=global_train, global_test=global_test,
        topology=topology, weights=weights, eval_noise=_modal_noise(nodes),
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


@dataclass(frozen=True)
class _GroupBatch:
    """One round's subsamples for the honest nodes sharing a noise model."""

    noise: NoiseModel
    ids: list[int]
    etas: np.ndarray  # (len(ids), 1) step sizes
    xs: list[np.ndarray]
    ys: list[np.ndarray]


def _subsample_schedule(problem: Problem, rounds: int) -> list[tuple[_GroupBatch, ...]]:
    """Every round's subsample batches, grouped by honest noise model.

    Each (node, round) draws from its own TAG_SUBSAMPLE stream, so drawing
    the whole schedule up front gives the same rows as drawing round by
    round. A subsample size at or above the local set means a full batch.
    """
    groups: dict[NoiseModel, list[int]] = {}
    for node in problem.nodes:
        if node.role == dnet.HONEST:
            groups.setdefault(node.noise, []).append(node.node_id)
    etas = {noise: np.array([[problem.nodes[i].eta] for i in ids])
            for noise, ids in groups.items()}
    seed = problem.config.run_seed
    schedule = []
    for rnd in range(rounds):
        batches = []
        for noise, ids in groups.items():
            xs, ys = [], []
            for i in ids:
                train = problem.nodes[i].train
                q = min(problem.nodes[i].subsample, len(train))
                idx = derived_rng(seed, TAG_SUBSAMPLE, i, rnd).choice(
                    len(train), size=q, replace=False)
                xs.append(train.x[idx])
                ys.append(train.y[idx])
            batches.append(_GroupBatch(noise, ids, etas[noise], xs, ys))
        schedule.append(tuple(batches))
    return schedule


def _half_steps(problem: Problem, thetas: np.ndarray,
                batches: tuple[_GroupBatch, ...]):
    """Per-node half-step parameters and subsample metrics for one round.

    ``batches`` is the round's entry of ``_subsample_schedule``; each group
    shares one batched simulation. Rows of nodes that are not honest keep
    their stored parameters.
    """
    halves = thetas.copy()
    metrics: list[tuple[float, float, float] | None] = [None] * len(problem.nodes)
    for batch in batches:
        own = thetas[batch.ids]
        values, grads = engine.multi_alignment_grads(
            problem.spec, own, batch.xs, batch.ys, batch.noise)
        halves[batch.ids] = own + batch.etas * grads
        for pos, i in enumerate(batch.ids):
            g = grads[pos]
            metrics[i] = (-values[pos], values[pos], math.sqrt(float(g @ g)))
    return halves, metrics


def _exchange(problem: Problem, thetas: np.ndarray, halves: np.ndarray, rnd: int):
    """One message exchange plus aggregation; returns the next parameters."""
    cfg = problem.config
    top, w = problem.topology, problem.weights
    broadcast = {}
    for node in problem.nodes:
        i = node.node_id
        if node.role == dnet.HONEST:
            broadcast[i] = halves[i]
            continue
        # a fellow attacker's row of `halves` is its last stored state
        received = [halves[j] for j in top.neighbors(i)]
        if node.role == dnet.GAUSSIAN_ATTACKER:
            rng = derived_rng(cfg.run_seed, TAG_ATTACK, i, rnd)
            broadcast[i] = dnet.attack_gaussian(received, rng)
        else:
            broadcast[i] = dnet.attack_signflip(received)

    robust = cfg.aggregation_rule == "robust_clip"
    new = np.empty_like(thetas)
    honest = []
    for node in problem.nodes:
        i = node.node_id
        if node.role != dnet.HONEST:
            new[i] = broadcast[i]
            continue
        honest.append(i)
        msgs = {j: broadcast[j] for j in top.neighbors(i)}
        msgs[i] = halves[i]
        if robust:
            new[i] = dnet.aggregate_robust(
                halves[i], msgs, w[i], cfg.aggregation_tau,
                reference=cfg.aggregation_reference)
        else:
            new[i] = dnet.aggregate_plain(msgs, w[i])

    if robust and cfg.aggregation_reference == dnet.SELF_CENTERED:
        pulls = np.linalg.norm(new[honest] - halves[honest], axis=1)
        worst = int(np.argmax(pulls))
        if pulls[worst] > cfg.aggregation_tau + 1e-9:
            raise RunError(
                f"clipped aggregation moved node {honest[worst]} by"
                f" {pulls[worst]:.3e}, beyond tau={cfg.aggregation_tau}")
    if not robust and len(honest) == len(problem.nodes):
        drift = float(np.max(np.abs((new - halves).sum(axis=0)))) / len(new)
        if drift > 1e-12:
            raise RunError(f"aggregation moved the network mean by {drift:.3e}")
    return new


def _eval_noise_for(problem: Problem, noise: NoiseModel) -> NoiseModel:
    shots = problem.config.eval_shots
    if shots == 0:
        return noise
    return NoiseModel(mode=noise.mode, p=noise.p, shots=shots,
                      adjoint_noise=noise.adjoint_noise)


def evaluate_node(problem: Problem, node: NodeSetup, theta: np.ndarray,
                  rnd: int) -> ScoreReport:
    """Score1/2/3 for one node's parameters under its own noise model.

    The node's sets are blocks of the global ones, so one simulation of the
    global sets serves all three scores.
    """
    cfg = problem.config
    noise = _eval_noise_for(problem, node.noise)
    rng = (derived_rng(cfg.run_seed, TAG_SHOTS, node.node_id, rnd)
           if noise.shots is not None else None)
    every_train = range(len(problem.global_train))
    every_test = range(len(problem.global_test))
    s1, s2, s3 = learn.score(
        problem.spec, theta, problem.global_train, problem.global_test, noise,
        cfg.ridge_lam, rng=rng,
        splits=[(node.train_rows, node.test_rows), (node.train_rows, every_test),
                (every_train, every_test)])
    return ScoreReport(node=node.node_id, score1=s1, score2=s2, score3=s3)


def _evaluate(problem: Problem, thetas: np.ndarray, rnd: int) -> EvalPoint:
    cfg = problem.config
    reports = []
    for node in problem.nodes:
        if node.role == dnet.HONEST:
            reports.append(evaluate_node(problem, node, thetas[node.node_id],
                                         rnd))
        else:
            reports.append(ScoreReport(node=node.node_id, score1=None,
                                       score2=None, score3=None))
    honest_ids = [n.node_id for n in problem.nodes if n.role == dnet.HONEST]
    mean_theta = thetas[honest_ids].mean(axis=0)
    noise = _eval_noise_for(problem, problem.eval_noise)
    rng = (derived_rng(cfg.run_seed, TAG_SHOTS, len(problem.nodes), rnd)
           if noise.shots is not None else None)
    acc = learn.score(problem.spec, mean_theta, problem.global_train,
                      problem.global_test, noise, cfg.ridge_lam, rng=rng)
    return EvalPoint(round=rnd, mean_model_accuracy=acc,
                     reports=tuple(reports))


def run_problem(problem: Problem, mode: str) -> RunResult:
    """Drive the round loop for an assembled Problem."""
    cfg = problem.config
    thetas = _init_thetas(problem)
    records: list[RoundRecord] = []
    evals: list[EvalPoint] = []
    final_round = cfg.run_budget - 1
    schedule = _subsample_schedule(problem, cfg.run_budget)
    for rnd in range(cfg.run_budget):
        halves, metrics = _half_steps(problem, thetas, schedule[rnd])
        if mode == "decentralized":
            thetas = _exchange(problem, thetas, halves, rnd)
        else:
            thetas = halves
        consensus = (dnet.consensus_distance(thetas)
                     if len(problem.nodes) >= 2 else 0.0)
        for node in problem.nodes:
            m = metrics[node.node_id]
            records.append(RoundRecord(
                round=rnd, node=node.node_id,
                loss=None if m is None else m[0],
                alignment=None if m is None else m[1],
                grad_norm=None if m is None else m[2],
                consensus_dist=consensus,
            ))
        gnorms = [m[2] for m in metrics if m is not None]
        done = (rnd == cfg.run_budget - 1
                or math.fsum(gnorms) / len(gnorms) < cfg.run_g_thresh)
        if rnd % cfg.run_eval_every == 0 or done:
            evals.append(_evaluate(problem, thetas, rnd))
        if done:
            final_round = rnd
            break
    iters = _first_crossing(tuple(evals), tuple(records), DEFAULT_METRIC,
                            cfg.run_threshold)
    return RunResult(
        mode=mode, config=cfg, thetas=thetas, records=tuple(records),
        evals=tuple(evals), reports=evals[-1].reports,
        iterations_to_threshold=iters, final_round=final_round,
    )


def run_decentralized(config: ExperimentConfig) -> RunResult:
    return run_problem(prepare_problem(config, "decentralized"), "decentralized")


def run_centralized(config: ExperimentConfig) -> RunResult:
    return run_problem(prepare_problem(config, "centralized"), "centralized")


def run_local(config: ExperimentConfig) -> RunResult:
    return run_problem(prepare_problem(config, "local"), "local")


def run(config: ExperimentConfig, mode: str = "decentralized") -> RunResult:
    return run_problem(prepare_problem(config, mode), mode)


def _first_crossing(evals, records, metric: str, threshold: float) -> int | None:
    if metric == "mean_model_accuracy":
        for point in evals:
            if point.mean_model_accuracy >= threshold:
                return point.round
        return None
    if metric == "mean_alignment":
        by_round: dict[int, list[float]] = {}
        for rec in records:
            if rec.alignment is not None:
                by_round.setdefault(rec.round, []).append(rec.alignment)
        for rnd in sorted(by_round):
            if float(np.mean(by_round[rnd])) >= threshold:
                return rnd
        return None
    raise RunError(f"unknown metric {metric!r}")


def iteration_to_threshold(result: RunResult, metric: str = DEFAULT_METRIC,
                           threshold: float = 0.9) -> int | None:
    """First evaluated round at which the metric reaches the threshold."""
    return _first_crossing(result.evals, result.records, metric, threshold)


def rounds_jsonl(result: RunResult) -> str:
    lines = [json.dumps(rec.to_dict()) for rec in result.records]
    return "\n".join(lines) + "\n"


def scores_json(result: RunResult) -> dict:
    return {
        "mode": result.mode,
        "seed": result.config.run_seed,
        "threshold": result.config.run_threshold,
        "iteration_to_threshold": result.iterations_to_threshold,
        "final_round": result.final_round,
        "scores": [r.to_dict() for r in result.reports],
        "evals": [{"round": p.round,
                   "mean_model_accuracy": p.mean_model_accuracy}
                  for p in result.evals],
        "config": dump_config(result.config),
    }


def write_outputs(result: RunResult, out_dir, problem: Problem | None = None):
    """Write rounds.jsonl and scores.json (and the optional final Gram)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rounds.jsonl").write_text(rounds_jsonl(result), encoding="utf-8")
    (out / "scores.json").write_text(
        json.dumps(scores_json(result), indent=2) + "\n", encoding="utf-8")
    if result.config.output_gram_final:
        if problem is None:
            problem = prepare_problem(result.config, result.mode)
        honest = [n.node_id for n in problem.nodes if n.role == dnet.HONEST]
        mean_theta = result.thetas[honest].mean(axis=0)
        gram = engine.gram_matrix(problem.spec, mean_theta,
                                  problem.global_train.x, problem.eval_noise)
        np.savetxt(out / "gram_final.csv", gram, delimiter=",")
    return out
