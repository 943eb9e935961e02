"""Training loop orchestration: data distribution, rounds, outputs."""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qknet import dnet, engine, learn, runner
from qknet.config import ExperimentConfig
from qknet.engine import NoiseModel

REPO = Path(__file__).resolve().parents[1]


def tiny_config(**overrides):
    base = dict(
        circuit_n_qubits=2,
        circuit_layers=2,
        data_points_per_cell=2,
        nodes_subsample=(4,),
        run_budget=3,
        run_eval_every=2,
        run_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_derived_rng_is_reproducible_and_tag_separated():
    a = runner.derived_rng(7, runner.TAG_INIT, 1, 0).uniform(size=4)
    b = runner.derived_rng(7, runner.TAG_INIT, 1, 0).uniform(size=4)
    c = runner.derived_rng(7, runner.TAG_INIT, 2, 0).uniform(size=4)
    d = runner.derived_rng(7, runner.TAG_SUBSAMPLE, 1, 0).uniform(size=4)
    e = runner.derived_rng(8, runner.TAG_INIT, 1, 0).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)
    assert runner.derived_seed(7, 0, 0, 0) == runner.derived_seed(7, 0, 0, 0)
    assert runner.derived_seed(7, 0, 0, 0) != runner.derived_seed(7, 1, 0, 0)


def test_prepare_problem_distributes_data_without_leakage():
    problem = runner.prepare_problem(tiny_config(), "decentralized")
    assert len(problem.nodes) == 4
    assert np.array_equal(problem.weights,
                          dnet.metropolis_weights(dnet.ring(4)))
    local = runner.prepare_problem(tiny_config(), "local")
    assert np.array_equal(local.weights, np.eye(4))
    total = sum(len(n.train_rows) + len(n.test_rows) for n in problem.nodes)
    assert total == 32
    assert len(problem.global_train) == sum(len(n.train_rows) for n in problem.nodes)
    assert len(problem.global_test) == sum(len(n.test_rows) for n in problem.nodes)
    # no point appears on both sides of the global split
    train_rows = {tuple(row) for row in problem.global_train.x}
    test_rows = {tuple(row) for row in problem.global_test.x}
    assert not train_rows & test_rows
    for node in problem.nodes:
        assert set(problem.global_train.y[node.train_rows]) == {1, -1}
        assert node.noise == NoiseModel(mode="per_gate", p=0.0005)


def test_prepare_problem_centralized_pools_everything():
    problem = runner.prepare_problem(tiny_config(), "centralized")
    assert len(problem.nodes) == 1
    assert problem.weights.tolist() == [[1.0]]
    assert problem.nodes[0].train_rows == range(len(problem.global_train))
    assert problem.nodes[0].test_rows == range(len(problem.global_test))
    assert len(problem.global_train) + len(problem.global_test) == 32
    # network.n_nodes is not read, so a huge one allocates nothing
    problem = runner.prepare_problem(tiny_config(network_n_nodes=10**12),
                                     "centralized")
    assert [(n.node_id, n.role) for n in problem.nodes] == [(0, dnet.HONEST)]


def test_prepare_problem_rejects_bad_modes_and_roles():
    with pytest.raises(runner.RunError):
        runner.prepare_problem(tiny_config(), "federated")
    cfg = tiny_config(nodes_roles=("honest", "honest", "signflip_attacker", "honest"))
    with pytest.raises(runner.RunError):
        runner.prepare_problem(cfg, "local")
    problem = runner.prepare_problem(cfg, "decentralized")
    for mode in ("bogus", "local"):
        with pytest.raises(runner.RunError, match="prepared for mode"):
            runner.run_problem(problem, mode)
    centralized = runner.prepare_problem(tiny_config(), "centralized")
    with pytest.raises(runner.RunError, match="prepared for mode"):
        runner.run_problem(centralized, "decentralized")
    # a network the data or the ring cannot take fails naming its keys
    for overrides, keys in [
        ({"network_n_nodes": 2}, ("network.topology", "network.n_nodes")),
        ({"network_n_nodes": 3}, ("partition.strategy", "network.n_nodes")),
        ({"nodes_roles": ("gaussian_attacker",)}, ("nodes.roles",)),
    ]:
        with pytest.raises(runner.RunError) as err:
            runner.prepare_problem(tiny_config(**overrides), "decentralized")
        for key in keys:
            assert key in str(err.value)
    # runs without a ring still take two nodes
    for mode in ("local", "centralized"):
        runner.prepare_problem(tiny_config(network_n_nodes=2), mode)


def test_eval_noise_is_the_largest_groups_model():
    cfg = tiny_config(nodes_noise_p=(0.0005, 0.0005, 0.05, 0.0005))
    problem = runner.prepare_problem(cfg, "decentralized")
    assert problem.eval_noise.p == 0.0005
    tie = tiny_config(nodes_noise_p=(0.05, 0.0005, 0.05, 0.0005))
    assert runner.prepare_problem(tie, "decentralized").eval_noise.p == 0.05


def test_runs_are_bit_reproducible():
    cfg = tiny_config()
    a = runner.run(cfg, "decentralized")
    b = runner.run(cfg, "decentralized")
    assert runner.rounds_jsonl(a) == runner.rounds_jsonl(b)
    assert np.array_equal(a.thetas, b.thetas)
    assert runner.scores_json(a) == runner.scores_json(b)
    c = runner.run(tiny_config(run_seed=1), "decentralized")
    assert runner.rounds_jsonl(a) != runner.rounds_jsonl(c)


def test_single_node_gossip_equals_centralized():
    cfg = tiny_config(network_topology="complete", network_n_nodes=1)
    dec = runner.run(cfg, "decentralized")
    cen = runner.run(cfg, "centralized")
    assert np.array_equal(dec.thetas, cen.thetas)
    for ra, rb in zip(dec.records, cen.records):
        assert ra.loss == rb.loss and ra.grad_norm == rb.grad_norm


def test_round_records_cover_every_node_and_round():
    cfg = tiny_config(run_budget=4)
    result = runner.run(cfg, "decentralized")
    assert result.final_round == 3
    assert len(result.records) == 4 * 4
    seen = {(r.round, r.node) for r in result.records}
    assert seen == {(rnd, node) for rnd in range(4) for node in range(4)}
    for rec in result.records:
        assert rec.loss is not None and np.isfinite(rec.loss)
        assert abs(rec.loss + rec.alignment) < 1e-15
        assert rec.consensus_dist >= 0.0


def test_gossip_shrinks_consensus_distance():
    cfg = tiny_config(run_budget=10, init_scale=0.5)
    result = runner.run(cfg, "decentralized")
    first = result.records[0].consensus_dist
    last = result.records[-1].consensus_dist
    assert last < first


@pytest.mark.parametrize("roles, want_zero", [
    (("honest", "gaussian_attacker", "honest", "honest"), False),
    (("honest",) + ("gaussian_attacker",) * 3, True),
])
def test_consensus_distance_is_taken_over_the_honest_nodes(roles, want_zero):
    # an attacker's row holds the vector it crafted, not a model to agree on
    problem = runner.prepare_problem(tiny_config(nodes_roles=roles),
                                     "decentralized")
    result = runner.run_problem(problem, "decentralized")
    if want_zero:
        assert {rec.consensus_dist for rec in result.records} == {0.0}
        return
    last = {rec.consensus_dist for rec in result.records
            if rec.round == result.final_round}
    assert last == {dnet.consensus_distance(result.thetas[problem.honest_ids])}
    assert last != {dnet.consensus_distance(result.thetas)}


def test_local_mode_never_mixes():
    cfg = tiny_config(run_budget=5, init_scale=0.5)
    result = runner.run(cfg, "local")
    assert result.mode == "local"
    # with identity weights the nodes stay apart
    assert result.records[-1].consensus_dist > 0.01
    for rep in result.reports:
        assert rep.score1 is not None
    # so no aggregation rule has anything to mix
    clipped = runner.run(replace(cfg, aggregation_rule="robust_clip"), "local")
    assert runner.rounds_jsonl(clipped) == runner.rounds_jsonl(result)


def test_evaluation_cadence_includes_start_and_end():
    result = runner.run(tiny_config(run_budget=5, run_eval_every=2), "decentralized")
    assert [p.round for p in result.evals] == [0, 2, 4]
    result = runner.run(tiny_config(run_budget=4, run_eval_every=2), "decentralized")
    assert [p.round for p in result.evals] == [0, 2, 3]


def test_nodes_are_scored_once_at_the_final_evaluation(monkeypatch):
    splits = []  # of every learn.score call; None for the mean model
    score = learn.score

    def counting(*args, **kwargs):
        splits.append(kwargs.get("splits"))
        return score(*args, **kwargs)

    for shots in (0, 64):
        cfg = tiny_config(
            nodes_roles=("honest", "honest", "signflip_attacker", "honest"),
            run_budget=5, run_eval_every=2, eval_shots=shots)
        problem = runner.prepare_problem(cfg, "decentralized")
        splits.clear()
        monkeypatch.setattr(learn, "score", counting)
        result = runner.run_problem(problem, "decentralized")
        monkeypatch.undo()
        assert [p.round for p in result.evals] == [0, 2, 4]
        assert sum(s is None for s in splits) == 3
        assert len(splits) == 3 + 3  # plus one per honest node
        want = tuple(
            runner.evaluate_node(problem, node, result.thetas[node.node_id],
                                 result.final_round)
            if node.role == dnet.HONEST
            else runner.ScoreReport(node.node_id, None, None, None)
            for node in problem.nodes)
        assert result.reports == want


def test_gradient_threshold_stops_early():
    cfg = tiny_config(run_budget=50, run_g_thresh=100.0)
    result = runner.run(cfg, "decentralized")
    assert result.final_round == 0
    assert len(result.evals) == 1


def test_attackers_report_no_metrics():
    cfg = tiny_config(
        nodes_roles=("honest", "honest", "signflip_attacker", "honest"),
        run_budget=3,
    )
    result = runner.run(cfg, "decentralized")
    for rec in result.records:
        if rec.node == 2:
            assert rec.loss is None and rec.grad_norm is None
        else:
            assert rec.loss is not None
    for rep in result.reports:
        if rep.node == 2:
            assert rep.score1 is None and rep.score3 is None
        else:
            assert rep.score3 is not None


def test_gaussian_attacker_path_runs_deterministically():
    cfg = tiny_config(
        nodes_roles=("honest", "gaussian_attacker", "honest", "honest"),
        run_budget=3,
    )
    a = runner.run(cfg, "decentralized")
    b = runner.run(cfg, "decentralized")
    assert np.array_equal(a.thetas, b.thetas)


def test_clipped_aggregation_stays_within_tau():
    cfg = tiny_config(
        nodes_roles=("honest", "honest", "signflip_attacker", "honest"),
        aggregation_rule="robust_clip",
        aggregation_tau=0.05,
        init_scale=0.5,
        run_budget=4,
    )
    problem = runner.prepare_problem(cfg, "decentralized")
    thetas = runner._init_thetas(problem)
    assert problem.schedule[2] is None  # an attacker draws no subsample
    halves, _ = runner._half_steps(problem, thetas, 0)
    assert np.array_equal(halves[2], thetas[2])
    new = runner._exchange(problem, halves, 0)
    # the attacker receives from its weight-row support without itself
    assert np.array_equal(new[2], -halves[[1, 3]].mean(axis=0))
    for node in problem.nodes:
        if node.role == dnet.HONEST:
            pull = np.linalg.norm(new[node.node_id] - halves[node.node_id])
            assert pull <= 0.05 + 1e-9
    runner.run(cfg, "decentralized")  # full loop passes its internal checks


def test_exchange_safety_checks_fire(monkeypatch):
    problem = runner.prepare_problem(tiny_config(), "decentralized")
    thetas = runner._init_thetas(problem)
    halves, _ = runner._half_steps(problem, thetas, 0)
    runner._exchange(problem, halves, 0)
    aggregate = dnet.aggregate
    monkeypatch.setattr(dnet, "aggregate",
                        lambda *args: aggregate(*args) + 1e-6)
    with pytest.raises(runner.RunError, match="moved the network mean"):
        runner._exchange(problem, halves, 0)
    monkeypatch.undo()
    broken = halves.copy()
    broken[1, 0] = np.nan
    with pytest.raises(runner.RunError, match="moved the network mean by nan"):
        runner._exchange(problem, broken, 0)

    cfg = tiny_config(
        nodes_roles=("honest", "honest", "signflip_attacker", "honest"),
        aggregation_rule="robust_clip", aggregation_tau=0.05, init_scale=0.5)
    problem = runner.prepare_problem(cfg, "decentralized")
    thetas = runner._init_thetas(problem)
    halves, _ = runner._half_steps(problem, thetas, 0)
    runner._exchange(problem, halves, 0)
    broken = halves.copy()
    broken[1, 0] = np.nan
    with pytest.raises(runner.RunError, match="by nan, beyond tau"):
        runner._exchange(problem, broken, 0)
    monkeypatch.setattr(dnet, "clip", lambda v, tau: 2.0 * np.asarray(v, float))
    with pytest.raises(runner.RunError, match="beyond tau"):
        runner._exchange(problem, halves, 0)


def test_plain_mean_check_scales_with_the_angles(monkeypatch):
    # rounding alone moved the mean of angles of size 1e5 by 3.6e-12
    runner.run(ExperimentConfig(circuit_n_qubits=2, circuit_layers=2,
                                init_scale=1e5, run_budget=20))
    aggregate = dnet.aggregate
    monkeypatch.setattr(dnet, "aggregate",
                        lambda *args: aggregate(*args) + 1e-6)
    for scale in (0.1, 1e5):
        problem = runner.prepare_problem(tiny_config(init_scale=scale),
                                         "decentralized")
        halves, _ = runner._half_steps(problem, runner._init_thetas(problem), 0)
        with pytest.raises(runner.RunError, match="moved the network mean"):
            runner._exchange(problem, halves, 0)


def test_subsample_schedule_matches_per_round_draws(monkeypatch):
    calls = []
    grads = engine.multi_alignment_grads

    def record(spec, thetas, xs, ys, noise):
        calls.append((thetas, xs, ys, noise))
        return grads(spec, thetas, xs, ys, noise)

    monkeypatch.setattr(engine, "multi_alignment_grads", record)
    for sizes in ((3,) * 4, (3, 2, 3, 1)):
        cfg = tiny_config(nodes_noise_p=(0.0005, 0.05, 0.0005, 0.0005),
                          nodes_subsample=sizes, run_budget=4)
        problem = runner.prepare_problem(cfg, "decentralized")

        def drawn(i, rnd):
            """Node i's round-rnd subsample, drawn from its own stream."""
            train = problem.global_train.subset(problem.nodes[i].train_rows)
            idx = runner.derived_rng(0, runner.TAG_SUBSAMPLE, i, rnd).choice(
                len(train), size=sizes[i], replace=False)
            return train.x[idx], train.y[idx]

        train = problem.global_train
        for schedule in (problem.schedule,
                         runner._subsample_schedule(problem.nodes, 0, 4)):
            assert len(schedule) == 4
            for i, rows in enumerate(schedule):
                assert rows.shape == (4, sizes[i])
                for rnd in range(4):
                    x, y = drawn(i, rnd)
                    assert np.array_equal(train.x[rows[rnd]], x)
                    assert np.array_equal(train.y[rows[rnd]], y)

        thetas = runner._init_thetas(problem)
        for rnd in range(4):
            calls.clear()
            runner._half_steps(problem, thetas, rnd)
            # one simulation per noise group, in order of first appearance
            assert [c[3].p for c in calls] == [0.0005, 0.05]
            for (rows, xs, ys, _), ids in zip(calls, ([0, 2, 3], [1])):
                assert np.array_equal(rows, thetas[ids])
                assert len(xs) == len(ys) == len(ids)
                for i, x, y in zip(ids, xs, ys):
                    want_x, want_y = drawn(i, rnd)
                    assert np.array_equal(x, want_x)
                    assert np.array_equal(y, want_y)


def test_a_budget_too_large_to_schedule_names_run_budget(monkeypatch):
    # 8 bytes x 10**14 rounds x 4 rows x 4 honest nodes: past any address
    # space, so the allocation fails without touching memory. The memory
    # check counts the schedule and refuses it first; without the check,
    # np.empty refuses it, as it can under an address-space limit
    for check in (True, False):
        if not check:
            monkeypatch.setattr(runner, "_check_memory", lambda *args: None)
        with pytest.raises(runner.RunError, match=r"run.budget = 100000000000000 "
                           r".* 12800000000000000 bytes"):
            runner.prepare_problem(tiny_config(run_budget=10**14),
                                   "decentralized")


def test_a_run_too_large_for_the_host_names_its_size():
    # each size is past what any host holds; the check is arithmetic and
    # allocates nothing. The parameters alone are 8 bytes x 4 nodes x 2 x
    # 10**14 layers = 6.4e15 bytes
    with pytest.raises(runner.RunError, match=r"circuit.n_qubits = 2 and "
                       r"circuit.layers = 100000000000000 on 32 points need"):
        runner.prepare_problem(tiny_config(circuit_layers=10**14),
                               "decentralized")
    # the evaluation Gram of 10**7 points is 8e14 bytes
    problem = runner.prepare_problem(tiny_config(), "decentralized")
    with pytest.raises(runner.RunError, match=r"on 10000000 points need "
                       r"8000\d{11} bytes"):
        runner._check_memory(problem.config, problem.nodes, 10**7)


def test_an_oversize_checkerboard_is_refused_before_it_is_drawn(monkeypatch):
    # 16 x 10**6 points need (8 x 4**2 + 8 x 16e6) x 16e6 bytes of states
    # and Gram, past any host; drawing them would take tens of seconds and
    # gigabytes first
    def draw(*args):
        raise AssertionError("the checkerboard was drawn")

    monkeypatch.setattr(runner, "gen_checkerboard", draw)
    with pytest.raises(runner.RunError, match=r"data.points_per_cell = 1000000 "
                       r"is too large: at circuit.n_qubits = 2 .* its 16000000"
                       r" points need 2048002048000000 bytes"):
        runner.prepare_problem(tiny_config(data_points_per_cell=10**6),
                               "decentralized")


def test_the_memory_check_counts_the_subsample_schedule():
    # the other arrays of the tiny run are a few KB; its schedule at 10**14
    # rounds is 8 bytes x 10**14 x 4 rows x 4 honest nodes. Arithmetic only
    problem = runner.prepare_problem(tiny_config(), "decentralized")
    config = replace(problem.config, run_budget=10**14)
    with pytest.raises(runner.RunError, match=r"run.budget = 100000000000000 "
                       r"needs 12800000000000000 bytes of subsample schedule"):
        runner._check_memory(config, problem.nodes, 32)
    runner._check_memory(problem.config, problem.nodes, 32)


def test_run_reads_the_prepared_schedule_up_to_its_budget():
    problem = runner.prepare_problem(tiny_config(run_budget=3), "decentralized")
    longer = replace(problem, config=replace(problem.config, run_budget=4))
    with pytest.raises(runner.RunError, match="run.budget"):
        runner.run_problem(longer, "decentralized")
    shorter = replace(problem, config=replace(problem.config, run_budget=1))
    fresh = runner.prepare_problem(tiny_config(run_budget=1), "decentralized")
    assert [len(rows) for rows in fresh.schedule] == [1, 1, 1, 1]
    assert (runner.rounds_jsonl(runner.run_problem(shorter, "decentralized"))
            == runner.rounds_jsonl(runner.run_problem(fresh, "decentralized")))


WARM_RUN_FAULTS = """
import resource
from qknet import runner
from qknet.config import ExperimentConfig
problem = runner.prepare_problem(
    ExperimentConfig(run_budget=5, run_eval_every=101), "decentralized")
runner.run_problem(problem, "decentralized")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
runner.run_problem(problem, "decentralized")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux does")
def test_a_warm_run_faults_no_memory_back_in(fresh_python):
    """A warm run reuses the heap that the first run grew.

    If the engine builds a round's arrays afresh in a shape that makes
    malloc trim the heap after every call, each round faults about 1,000
    pages back in at the default circuit, so 5 rounds show it. It runs in a
    fresh process, since malloc stops trimming once the process has freed
    a larger mapped block, as a test session has.
    """
    pytest.importorskip("resource")
    proc = fresh_python("-c", WARM_RUN_FAULTS)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_evaluate_node_matches_separate_score_calls():
    for shots in (0, 64):
        cfg = tiny_config(data_points_per_cell=4, eval_shots=shots)
        problem = runner.prepare_problem(cfg, "decentralized")
        thetas = runner._init_thetas(problem)
        for node in problem.nodes:
            theta = thetas[node.node_id]
            report = runner.evaluate_node(problem, node, theta, 3)
            rng = (runner.derived_rng(0, runner.TAG_SHOTS, node.node_id, 3)
                   if shots else None)
            train = problem.global_train.subset(node.train_rows)
            test = problem.global_test.subset(node.test_rows)
            want = [learn.score(problem.spec, theta, tr, te, node.noise,
                                cfg.ridge_lam, shots=shots, rng=rng)
                    for tr, te in ((train, test),
                                   (train, problem.global_test),
                                   (problem.global_train, problem.global_test))]
            assert [report.score1, report.score2, report.score3] == want


def test_a_failed_ridge_solve_names_ridge_lam(monkeypatch):
    problem = runner.prepare_problem(tiny_config(), "decentralized")
    monkeypatch.setattr(engine, "gram_matrix",
                        lambda spec, theta, x, noise: np.full((len(x),) * 2, np.nan))
    with pytest.raises(runner.RunError,
                       match="ridge.lam = 0.1: ridge solve residual nan"):
        runner.run_problem(problem, "decentralized")


def test_shot_based_evaluation_is_seeded():
    cfg = tiny_config(eval_shots=64, run_budget=2)
    a = runner.run(cfg, "decentralized")
    b = runner.run(cfg, "decentralized")
    assert runner.scores_json(a) == runner.scores_json(b)
    for p in a.evals:
        assert 0.0 <= p.mean_model_accuracy <= 1.0


def test_iteration_to_threshold_metrics():
    result = runner.run(tiny_config(run_budget=4), "decentralized")
    assert runner._first_crossing(result.evals, threshold=0.0) == 0
    assert runner._first_crossing(result.evals, threshold=2.0) is None


def test_rounds_jsonl_schema():
    result = runner.run(tiny_config(run_budget=2), "decentralized")
    text = runner.rounds_jsonl(result)
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert len(lines) == len(result.records)
    for line in lines:
        rec = json.loads(line)
        assert tuple(rec.keys()) == runner.RoundRecord._fields


def test_scores_json_echoes_config():
    cfg = tiny_config(run_budget=2, run_threshold=0.5)
    result = runner.run(cfg, "decentralized")
    doc = runner.scores_json(result)
    assert doc["mode"] == "decentralized"
    assert doc["seed"] == 0
    assert doc["threshold"] == 0.5
    assert doc["config"]["circuit.n_qubits"] == 2
    assert len(doc["scores"]) == 4
    assert {e["round"] for e in doc["evals"]} == {p.round for p in result.evals}


def test_write_outputs_creates_result_files(tmp_path):
    cfg = tiny_config(run_budget=2, output_gram_final=True)
    problem = runner.prepare_problem(cfg, "decentralized")
    result = runner.run_problem(problem, "decentralized")
    out = runner.write_outputs(result, tmp_path / "out", problem=problem)
    assert (out / "rounds.jsonl").exists()
    assert (out / "scores.json").exists()
    gram = np.loadtxt(out / "gram_final.csv", delimiter=",")
    n = len(problem.global_train)
    assert gram.shape == (n, n)
    assert np.max(np.abs(gram - gram.T)) < 1e-12
    parsed = json.loads((out / "scores.json").read_text())
    assert parsed["mode"] == "decentralized"


def _benchmark_spans():
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracing_sees_every_hooked_layer():
    """The benchmark wraps module attributes and binds the hooked calls'
    arguments by name; a traced run must reach every hook."""
    spans = _benchmark_spans()
    cfg = tiny_config(
        nodes_roles=("honest", "gaussian_attacker", "honest", "honest"),
        aggregation_rule="robust_clip", run_budget=2)
    problem = runner.prepare_problem(cfg, "decentralized")
    clip = dnet.clip
    tracer = spans.Tracer()
    with spans.installed(tracer, engine, learn, dnet):
        with tracer.span(spans.ROOT):
            runner.run_problem(problem, "decentralized")
    assert dnet.clip is clip
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    for name in ("engine.multi_alignment_grads", "engine.feature_states.train",
                 "engine.feature_states.eval", "engine.backward", "dnet.clip"):
        assert calls.get(name, 0) > 0, name
    # 3 honest nodes x 4 subsampled rows x 2 rounds
    assert tracer.rows["engine.feature_states.train"] == 24
    assert tracer.rows["engine.backward"] == 24
    assert tracer.rows["engine.feature_states.eval"] > 0
    # one clip per message with nonzero weight: 3 honest nodes x 3 x 2 rounds
    assert tracer.clip_offered == calls["dnet.clip"] == 18
    # the traced table holds every per-layer metric the benchmark declares,
    # but the overhead ratio, which the workload adds from its timings
    metrics = spans.layer_metrics([tracer], problem.spec.layers)
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - set(metrics)
    assert missing == {"trace.overhead_ratio"}


def test_benchmark_workload_runs_end_to_end(tmp_path, fresh_python):
    """The benchmark's measuring process reads runner, dnet and qkernel by
    name; a short run of it must still finish with no failed repetition."""
    proc = fresh_python(str(REPO / "perfbench" / "workload.py"), "run",
                        "--workload", "ring_eval", "--seed", "0",
                        "--seconds", "0.01", "--trace", "0",
                        "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 2
