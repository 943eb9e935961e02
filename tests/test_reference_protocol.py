"""The whole round loop against a reference protocol written from first
principles: gate-by-gate kernels and parameter-shift gradients, each node's
settings read from the config, and attacks, clipping and mixing spelled out.

Only the data layout (each node's rows of the global sets) and the mixing
matrix W are taken from the prepared problem."""

import math

import numpy as np
import pytest

from qknet import learn, qkernel, runner
from qknet.config import ExperimentConfig
from qknet.engine import NoiseModel


def entry(values, i):
    """Node i's value of a per-node key; a single value serves every node."""
    return values[0] if len(values) == 1 else values[i]


def alignment_step(spec, theta, x, y, noise):
    """A = y'Ky / (n |K|_F) and its gradient by the quotient rule."""
    n = len(y)
    k = np.empty((n, n))
    dk = np.empty((n, n, spec.n_params))
    for a in range(n):
        for b in range(a, n):
            k[a, b] = k[b, a] = qkernel.kernel_eval(spec, theta, x[a], x[b], noise)
            dk[a, b] = dk[b, a] = qkernel.parameter_shift_gradient(
                spec, theta, x[a], x[b], noise)
    frob = math.sqrt(np.sum(k * k))
    num = y @ k @ y
    d_num = np.einsum("a,abt,b->t", y, dk, y)
    d_frob = np.einsum("ab,abt->t", k, dk) / frob
    return num / (n * frob), d_num / (n * frob) - num * d_frob / (n * frob**2)


def reference_run(cfg, mode):
    """Final thetas, the evaluated rounds with their mean models, and the
    noise model of evaluation."""
    problem = runner.prepare_problem(cfg, mode)
    spec, train, w = problem.spec, problem.global_train, problem.weights
    n, seed, tau = len(w), cfg.run_seed, cfg.aggregation_tau
    roles = ["honest" if mode == "centralized" else entry(cfg.nodes_roles, i)
             for i in range(n)]
    honest = [i for i in range(n) if roles[i] == "honest"]
    noises = [NoiseModel(cfg.nodes_noise_mode, entry(cfg.nodes_noise_p, i))
              for i in range(n)]
    thetas = np.array([
        runner.derived_rng(seed, runner.TAG_INIT, 0 if cfg.init_shared else i, 0)
        .uniform(-cfg.init_scale, cfg.init_scale, spec.n_params)
        for i in range(n)])
    evals = []
    for rnd in range(cfg.run_budget):
        halves, norms = thetas.copy(), []
        for i in honest:
            rows = problem.nodes[i].train_rows
            q = min(entry(cfg.nodes_subsample, i), len(rows))
            pick = rows.start + runner.derived_rng(
                seed, runner.TAG_SUBSAMPLE, i, rnd).choice(len(rows), q, replace=False)
            _, g = alignment_step(spec, thetas[i], train.x[pick], train.y[pick],
                                  noises[i])
            halves[i] += entry(cfg.nodes_eta, i) * g
            norms.append(np.linalg.norm(g))
        messages = halves.copy()
        for j in range(n):
            got = np.array([halves[k] for k in range(n) if k != j and w[j, k]])
            if roles[j] == "gaussian_attacker":
                rng = runner.derived_rng(seed, runner.TAG_ATTACK, j, rnd)
                messages[j] = rng.normal(got.mean(axis=0), np.pi)
            elif roles[j] == "signflip_attacker":
                messages[j] = -got.mean(axis=0)
        thetas = messages.copy()  # an attacker keeps what it sent
        for i in honest:
            thetas[i] = 0.0
            for j in range(n):
                pull = messages[j] - halves[i]
                norm = np.linalg.norm(pull)
                if cfg.aggregation_rule == "robust_clip" and norm > tau:
                    pull = tau / norm * pull
                thetas[i] += w[i, j] * (halves[i] + pull)
        done = rnd == cfg.run_budget - 1 or np.mean(norms) < cfg.run_g_thresh
        if rnd % cfg.run_eval_every == 0 or done:
            evals.append((rnd, thetas[honest].mean(axis=0)))
        if done:
            break
    honest_noises = [noises[i] for i in honest]
    # the most common model of the honest nodes; on a tie, the first
    return thetas, evals, max(honest_noises, key=honest_noises.count)


BASE = dict(circuit_n_qubits=2, circuit_layers=2, data_points_per_cell=2,
            init_scale=1.0, run_budget=3, run_eval_every=2, run_seed=0,
            nodes_eta=(2.0, 1.0, 3.0, 0.5), nodes_subsample=(3, 2, 4, 2))
CASES = {
    "per_gate_gaussian_clip": (dict(
        nodes_roles=("honest", "honest", "gaussian_attacker", "honest"),
        nodes_noise_p=(0.0005, 0.02, 0.0005, 0.0005),
        aggregation_rule="robust_clip"), "decentralized"),
    "global_signflip_clip": (dict(
        nodes_roles=("signflip_attacker", "honest", "honest", "honest"),
        nodes_noise_mode="global", nodes_noise_p=(0.1, 0.1, 0.3, 0.3),
        aggregation_rule="robust_clip", init_shared=True), "decentralized"),
    "local": (dict(nodes_noise_p=(0.01, 0.0, 0.0, 0.01), run_budget=2),
              "local"),
    # entry 0 of every per-node key; the attacker role is overridden
    "centralized": (dict(
        nodes_roles=("gaussian_attacker", "honest", "honest", "honest"),
        nodes_noise_p=(0.02, 0.0, 0.0, 0.0)), "centralized"),
    "g_thresh_stop": (dict(network_topology="complete", nodes_noise_mode="global",
                           nodes_noise_p=(0.1,), run_budget=6, run_g_thresh=0.002),
                      "decentralized"),
}


@pytest.mark.parametrize("overrides, mode", CASES.values(), ids=list(CASES))
def test_run_matches_the_reference_protocol(overrides, mode):
    cfg = ExperimentConfig(**{**BASE, **overrides})
    thetas, evals, eval_noise = reference_run(cfg, mode)
    problem = runner.prepare_problem(cfg, mode)
    result = runner.run_problem(problem, mode)
    assert np.max(np.abs(result.thetas - thetas)) < 1e-12
    assert [point.round for point in result.evals] == [rnd for rnd, _ in evals]
    for point, (_, mean) in zip(result.evals, evals):
        assert point.mean_model_accuracy == learn.score(
            problem.spec, mean, problem.global_train, problem.global_test,
            eval_noise, cfg.ridge_lam)
    if cfg.run_g_thresh:
        assert result.final_round < cfg.run_budget - 1
