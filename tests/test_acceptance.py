"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` summary line; run
with ``pytest -s tests/test_acceptance.py`` to see them as they complete.
Criteria 7-10 train full scenarios and share cached results, which takes
roughly half an hour combined on a desktop-class machine.
"""

import time
from dataclasses import replace

import numpy as np

from qknet import data, dnet, engine, learn, qkernel, qsim, runner
from qknet.config import ExperimentConfig

# Master seeds for the scenario runs.  Matched seeds are required within
# each scenario family, not across families, so the baseline and attack
# scenarios each pin their own.
SEED_BASELINE = 0
SEED_ATTACK = 4

BUDGET = 300
EVAL_EVERY = 10

_CACHE: dict[str, runner.RunResult] = {}


def scenario(seed: int, **overrides) -> ExperimentConfig:
    cfg = replace(ExperimentConfig(), run_budget=BUDGET,
                  run_eval_every=EVAL_EVERY, run_seed=seed)
    return replace(cfg, **overrides) if overrides else cfg


def cached_run(key: str, cfg: ExperimentConfig, mode: str = "decentralized"):
    if key not in _CACHE:
        _CACHE[key] = runner.run(cfg, mode)
    return _CACHE[key]


def honest_avg3(result: runner.RunResult) -> float:
    vals = [r.score3 for r in result.reports if r.score3 is not None]
    return sum(vals) / len(vals)


def consensus_at(result: runner.RunResult, rnd: int) -> float:
    for rec in result.records:
        if rec.round == rnd:
            return rec.consensus_dist
    raise AssertionError(f"no record for round {rnd}")


def report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int):
    gates = []
    for _ in range(n_gates):
        kind = int(rng.integers(0, 4))
        q = int(rng.integers(0, n_qubits))
        if kind == 0:
            gates.append(qsim.hadamard(q))
        elif kind == 1:
            gates.append(qsim.rot_z(q, float(rng.uniform(-np.pi, np.pi))))
        elif kind == 2 or n_qubits == 1:
            gates.append(qsim.rot_y(q, float(rng.uniform(-np.pi, np.pi))))
        else:
            t = int(rng.integers(0, n_qubits - 1))
            if t >= q:
                t += 1
            gates.append(qsim.cnot(q, t))
    return gates


def random_mixed_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    # mixture of a few random circuit outputs; generically full rank
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((2 ** n_qubits, 2 ** n_qubits), dtype=complex)
    for w in weights:
        pure = qsim.apply_circuit(qsim.zero_state(n_qubits),
                                  random_circuit(rng, n_qubits, 12))
        rho += w * pure
    return rho


def test_criterion_01_state_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_herm = worst_tr = worst_pur_hi = 0.0
    min_eig = 0.0
    worst_pur_lo = 1.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        n_gates = int(rng.integers(1, 201))
        rho = qsim.zero_state(n)
        for gate in random_circuit(rng, n, n_gates):
            rho = qsim.apply_gate(rho, gate)
            if rng.uniform() < 0.1:
                q = int(rng.integers(0, n))
                rho = qsim.apply_depolarizing_local(rho, q,
                                                    float(rng.uniform(0.0, 0.2)))
        dim = 2 ** n
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_tr = max(worst_tr, abs(complex(np.trace(rho)) - 1.0))
        eigs = np.linalg.eigvalsh(rho)
        min_eig = min(min_eig, float(eigs[0]))
        pur = qsim.purity(rho)
        worst_pur_hi = max(worst_pur_hi, pur - 1.0)
        worst_pur_lo = min(worst_pur_lo, pur - 1.0 / dim)

    worst_comp = worst_kraus = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        rho = random_mixed_state(rng, n)
        q = int(rng.integers(0, n))
        p1, p2 = rng.uniform(0.0, 1.0, 2)
        seq = qsim.apply_depolarizing_local(
            qsim.apply_depolarizing_local(rho, q, p1), q, p2)
        one = qsim.apply_depolarizing_local(
            rho, q, qsim.compose_depolarizing(p1, p2))
        worst_comp = max(worst_comp, float(np.max(np.abs(seq - one))))
        p3 = float(rng.uniform(0.0, 1.0))
        via_kraus = qsim.apply_kraus(rho, qsim.depolarizing_kraus(p3), q)
        direct = qsim.apply_depolarizing_local(rho, q, p3)
        worst_kraus = max(worst_kraus, float(np.max(np.abs(via_kraus - direct))))

    elapsed = time.perf_counter() - t0
    ok = (worst_herm <= 1e-12 and worst_tr <= 1e-10 and min_eig >= -1e-9
          and worst_pur_lo >= -1e-10 and worst_pur_hi <= 1e-10
          and worst_comp <= 1e-12 and worst_kraus <= 1e-12 and elapsed < 60)
    line = report(1, ok,
                  f"herm={worst_herm:.1e} trace={worst_tr:.1e} "
                  f"min_eig={min_eig:.1e} purity_lo={worst_pur_lo:.1e} "
                  f"purity_hi={worst_pur_hi:.1e} compose={worst_comp:.1e} "
                  f"kraus={worst_kraus:.1e} t={elapsed:.1f}s")
    assert ok, line


def test_criterion_02_kernel_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    spec = qkernel.FeatureMapSpec(n_qubits=3, layers=3)
    dim = 2 ** spec.n_qubits
    n_params = spec.n_qubits * spec.layers
    models = (qkernel.NoiseModel(),
              qkernel.NoiseModel(mode="per_gate", p=0.01),
              qkernel.NoiseModel(mode="global", p=0.2))

    worst_self = worst_sym = worst_affine = 0.0
    lo, hi = 1.0, 0.0
    affine_exact = True
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, n_params)
        x1 = rng.uniform(0.0, 1.0, 2)
        x2 = rng.uniform(0.0, 1.0, 2)
        k_self = qkernel.kernel_eval(spec, theta, x1, x1, models[0])
        worst_self = max(worst_self, abs(k_self - 1.0))
        vals = [k_self]
        for noise in models:
            k12 = qkernel.kernel_eval(spec, theta, x1, x2, noise)
            k21 = qkernel.kernel_eval(spec, theta, x2, x1, noise)
            worst_sym = max(worst_sym, abs(k12 - k21))
            vals.extend([k12, k21])
        k_exact = qkernel.kernel_eval(spec, theta, x1, x2, models[0])
        k_global = qkernel.kernel_eval(spec, theta, x1, x2, models[2])
        mapped = qkernel.analytic_noisy_kernel(k_exact, 0.2, dim)
        affine_exact = affine_exact and (k_global == mapped)
        worst_affine = max(worst_affine, abs(k_global - mapped))
        lo = min(lo, min(vals))
        hi = max(hi, max(vals))

    elapsed = time.perf_counter() - t0
    ok = (worst_self <= 1e-10 and worst_sym <= 1e-10 and affine_exact
          and lo >= 0.0 and hi <= 1.0 and elapsed < 60)
    line = report(2, ok,
                  f"self={worst_self:.1e} sym={worst_sym:.1e} "
                  f"affine_exact={affine_exact} range=[{lo:.3f},{hi:.3f}] "
                  f"t={elapsed:.1f}s")
    assert ok, line


def _fd_kernel_grad(spec, theta, x1, x2, noise, h):
    # central differences of the kernel value; the batched evaluator
    # matches the gate-by-gate one to machine precision, so the quotient
    # stays clean at h = 1e-5
    n_params = theta.size
    grad = np.empty(n_params)
    xs = np.stack([x1, x2, x1, x2])
    for t in range(n_params):
        plus = theta.copy()
        plus[t] += h
        minus = theta.copy()
        minus[t] -= h
        states, _ = engine.feature_states(spec, np.stack([plus, plus, minus, minus]),
                                          xs, noise)
        k_plus = float(states[0] @ states[1] / spec.dim)
        k_minus = float(states[2] @ states[3] / spec.dim)
        grad[t] = (k_plus - k_minus) / (2.0 * h)
    return grad


def test_criterion_03_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    spec = qkernel.FeatureMapSpec(n_qubits=5, layers=8)
    n_params = spec.n_qubits * spec.layers
    assert n_params == 40
    h = 1e-5
    models = (qkernel.NoiseModel(),
              qkernel.NoiseModel(mode="per_gate", p=0.005))

    worst_pair = 0.0
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, n_params)
        x1 = rng.uniform(0.0, 1.0, 2)
        x2 = rng.uniform(0.0, 1.0, 2)
        for noise in models:
            shift = qkernel.parameter_shift_gradient(spec, theta, x1, x2, noise)
            fd = _fd_kernel_grad(spec, theta, x1, x2, noise, h)
            worst_pair = max(worst_pair, float(np.max(np.abs(shift - fd))))

    dataset = data.LabeledDataset(
        x=rng.uniform(0.0, 1.0, (4, 2)),
        y=np.array([1.0, 1.0, -1.0, -1.0]))
    theta = rng.uniform(-np.pi, np.pi, n_params)
    worst_loss = 0.0
    for noise in models:
        _, grad = learn.loss_grad(dataset, theta, spec, noise)
        for t in range(n_params):
            plus = theta.copy()
            plus[t] += h
            minus = theta.copy()
            minus[t] -= h
            fd_t = (learn.loss(dataset, plus, spec, noise)
                    - learn.loss(dataset, minus, spec, noise)) / (2.0 * h)
            worst_loss = max(worst_loss, abs(grad[t] - fd_t))

    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-6 and worst_loss <= 1e-6 and elapsed < 300
    line = report(3, ok,
                  f"kernel_grad={worst_pair:.1e} loss_grad={worst_loss:.1e} "
                  f"t={elapsed:.1f}s")
    assert ok, line


def test_criterion_04_noise_flattens_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n, dim = 8, 4
    a = rng.normal(size=(n, n))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    k = s / np.outer(d, d)
    b = rng.normal(size=(n, n))
    dk = 0.5 * (b + b.T)
    y = np.array([1.0, -1.0] * 4)

    ps = (0.0, 0.5, 0.9, 0.99, 0.999)
    mags = [abs(learn.noisy_alignment_grad_analytic(k, dk, p, dim, y))
            for p in ps]
    decreasing = all(mags[i + 1] < mags[i] for i in range(len(mags) - 1))
    ratio = mags[-1] / mags[0]

    elapsed = time.perf_counter() - t0
    ok = decreasing and ratio <= 1e-2 and elapsed < 60
    line = report(4, ok,
                  f"mags={['%.2e' % m for m in mags]} ratio={ratio:.2e} "
                  f"t={elapsed:.1f}s")
    assert ok, line


def _consensus_run(topology: str, n_nodes: int, strategy: str):
    cfg = ExperimentConfig(circuit_n_qubits=2, circuit_layers=2,
                           data_points_per_cell=2, network_topology=topology,
                           network_n_nodes=n_nodes, partition_strategy=strategy,
                           nodes_eta=(0.0,), nodes_subsample=(4,),
                           run_budget=21, run_eval_every=1000, run_seed=0)
    prob = runner.prepare_problem(cfg, "decentralized")
    theta0 = runner._init_thetas(prob)
    result = runner.run_problem(prob, "decentralized")
    dists = {rec.round: rec.consensus_dist for rec in result.records}
    d0 = dnet.consensus_distance(theta0)
    gap = dnet.spectral_gap(prob.weights)
    drift = float(np.max(np.abs(result.thetas.mean(axis=0)
                                - theta0.mean(axis=0))))
    return gap, d0, dists, drift


def test_criterion_05_consensus_contraction():
    t0 = time.perf_counter()
    results = []
    for topology, n_nodes, strategy, gap_expect in (
            ("ring", 4, "region", 1.0 / 3.0),
            ("complete", 5, "random", 0.0)):
        gap, d0, dists, drift = _consensus_run(topology, n_nodes, strategy)
        rate = gap_expect + 0.05
        # eta = 0 turns every round into a pure averaging step; the
        # recorded distance after round r reflects r + 1 applications
        worst_ratio = 0.0
        for rnd, dist in dists.items():
            envelope = max(d0 * rate ** (rnd + 1), 1e-12)
            worst_ratio = max(worst_ratio, dist / envelope)
        results.append((topology, gap, gap_expect, worst_ratio,
                        dists[max(dists)], drift))

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    parts = []
    for topology, gap, gap_expect, worst_ratio, final, drift in results:
        ok = (ok and abs(gap - gap_expect) <= 1e-12 and worst_ratio <= 1.0
              and drift <= 1e-12)
        parts.append(f"{topology}: gap={gap:.3f} env_ratio={worst_ratio:.2f} "
                     f"final={final:.1e} drift={drift:.1e}")
    line = report(5, ok, "; ".join(parts) + f" t={elapsed:.1f}s")
    assert ok, line


def test_criterion_06_matches_centralized_on_shared_data():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(circuit_n_qubits=3, circuit_layers=4,
                           data_points_per_cell=2, network_topology="complete",
                           network_n_nodes=4, nodes_subsample=(999,),
                           init_shared=True, run_budget=10,
                           run_eval_every=1000, run_seed=0)
    prob_cen = runner.prepare_problem(cfg, "centralized")
    node0 = prob_cen.nodes[0]
    nodes = tuple(replace(node0, node_id=i) for i in range(4))
    topology = dnet.complete(4)
    weights = dnet.metropolis_weights(topology)
    uniform = bool(np.all(weights == 0.25))
    prob_dec = replace(prob_cen, nodes=nodes, topology=topology,
                       weights=weights)

    thetas_dec = runner._init_thetas(prob_dec)
    thetas_cen = runner._init_thetas(prob_cen)
    init_shared = all(np.array_equal(thetas_dec[i], thetas_cen[0])
                      for i in range(4))
    worst = 0.0
    batches_dec = runner._subsample_schedule(prob_dec, 10)
    batches_cen = runner._subsample_schedule(prob_cen, 10)
    for rnd in range(10):
        halves_dec, _ = runner._half_steps(prob_dec, thetas_dec, batches_dec[rnd])
        thetas_dec = runner._exchange(prob_dec, thetas_dec, halves_dec, rnd)
        halves_cen, _ = runner._half_steps(prob_cen, thetas_cen, batches_cen[rnd])
        thetas_cen = np.stack(halves_cen)
        dev = float(np.max(np.abs(thetas_dec.mean(axis=0) - thetas_cen[0])))
        worst = max(worst, dev)

    elapsed = time.perf_counter() - t0
    ok = uniform and init_shared and worst <= 1e-8 and elapsed < 600
    line = report(6, ok,
                  f"uniform_weights={uniform} shared_init={init_shared} "
                  f"max_dev={worst:.1e} t={elapsed:.1f}s")
    assert ok, line


def test_criterion_07_decentralized_beats_centralized():
    t0 = time.perf_counter()
    cfg = scenario(SEED_BASELINE)
    dec = cached_run("baseline_decen", cfg)
    cen = cached_run("baseline_cen", cfg, "centralized")
    avg3 = honest_avg3(dec)
    it_dec = dec.iterations_to_threshold
    it_cen = cen.iterations_to_threshold

    elapsed = time.perf_counter() - t0
    ok = (avg3 >= 0.90 and it_dec is not None and it_cen is not None
          and it_dec <= 0.6 * it_cen and elapsed < 3600)
    line = report(7, ok,
                  f"avg_score3={avg3:.3f} iters_decen={it_dec} "
                  f"iters_cen={it_cen} t={elapsed:.0f}s")
    assert ok, line


def test_criterion_08_tolerates_one_noisy_node():
    t0 = time.perf_counter()
    cfg = scenario(SEED_BASELINE,
                   nodes_noise_p=(0.0005, 0.0005, 0.05, 0.0005))
    res = cached_run("hetero_noise", cfg)
    others = [rep.score3 for rep in res.reports if rep.node != 2]
    avg3 = sum(others) / len(others)
    cons_100 = consensus_at(res, 100)
    cons_term = consensus_at(res, res.final_round)

    elapsed = time.perf_counter() - t0
    ok = avg3 >= 0.90 and cons_term <= cons_100 and elapsed < 3600
    line = report(8, ok,
                  f"others_avg_score3={avg3:.3f} consensus_term={cons_term:.2e} "
                  f"consensus_r100={cons_100:.2e} t={elapsed:.0f}s")
    assert ok, line


def test_criterion_09_attacks_and_clipping():
    t0 = time.perf_counter()
    gauss_roles = ("honest", "honest", "gaussian_attacker", "honest")
    sign_roles = ("honest", "honest", "signflip_attacker", "honest")

    gauss_nodef = honest_avg3(cached_run(
        "gauss_nodef", scenario(SEED_ATTACK, nodes_roles=gauss_roles)))
    gauss_clip = honest_avg3(cached_run(
        "gauss_clip", scenario(SEED_ATTACK, nodes_roles=gauss_roles,
                               aggregation_rule="robust_clip",
                               aggregation_tau=0.5)))
    sign_nodef = honest_avg3(cached_run(
        "sign_nodef", scenario(SEED_ATTACK, nodes_roles=sign_roles)))
    sign_clip = honest_avg3(cached_run(
        "sign_clip", scenario(SEED_ATTACK, nodes_roles=sign_roles,
                              aggregation_rule="robust_clip",
                              aggregation_tau=0.05)))

    elapsed = time.perf_counter() - t0
    clauses = (
        ("gauss_nodef<=0.65", gauss_nodef <= 0.65, f"{gauss_nodef:.3f}"),
        ("gauss_clip>=0.85", gauss_clip >= 0.85, f"{gauss_clip:.3f}"),
        ("sign_clip>=0.80", sign_clip >= 0.80, f"{sign_clip:.3f}"),
        ("sign_clip>sign_nodef", sign_clip > sign_nodef,
         f"{sign_clip:.3f} vs {sign_nodef:.3f}"),
    )
    ok = all(c[1] for c in clauses) and elapsed < 5400
    detail = " ".join(f"{name}[{val}]{'ok' if good else 'FAIL'}"
                      for name, good, val in clauses)
    line = report(9, ok, detail + f" t={elapsed:.0f}s")
    assert ok, line


def test_criterion_10_bit_identical_reruns():
    cfg = scenario(SEED_BASELINE)
    first = cached_run("baseline_decen", cfg)
    t0 = time.perf_counter()
    again = runner.run(cfg, "decentralized")
    elapsed = time.perf_counter() - t0
    jsonl_a = runner.rounds_jsonl(first)
    jsonl_b = runner.rounds_jsonl(again)
    identical = jsonl_a.encode() == jsonl_b.encode()

    ok = identical and elapsed < 300
    line = report(10, ok,
                  f"identical={identical} bytes={len(jsonl_b.encode())} "
                  f"rerun_t={elapsed:.0f}s")
    assert ok, line
