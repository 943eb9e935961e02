"""Command-line interface round trips on a scaled-down experiment."""

import json

import pytest

from qknet import cli, data
from qknet.config import ExperimentConfig


SMALL_CONFIG = """
circuit.n_qubits = 2
circuit.layers = 2
data.points_per_cell = 2
nodes.subsample = 4
run.budget = 2
run.eval_every = 2
"""
# every point has x1 < 0.5, so the region partition leaves two of four
# nodes without data
LEFT_HALF_CSV = ("x1,x2,label\n0.1,0.1,1\n0.3,0.1,-1\n0.1,0.6,-1\n"
                 "0.3,0.6,1\n0.2,0.9,1\n0.4,0.3,-1\n")


def test_gen_data_writes_loadable_csv(tmp_path, capsys):
    code = cli.main([
        "gen-data", "--points-per-cell", "3", "--sigma", "0.02",
        "--seed", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    ds = data.load_csv(tmp_path / "checkerboard.csv")
    assert len(ds) == 48
    assert "48 points" in capsys.readouterr().out


def test_gen_data_defaults_are_the_configs():
    args = cli.build_parser().parse_args(["gen-data"])
    defaults = ExperimentConfig()
    assert (args.points_per_cell, args.sigma) == (
        defaults.data_points_per_cell, defaults.data_sigma)


def test_run_consumes_config_and_writes_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    out_dir = tmp_path / "results"
    code = cli.main([
        "run", "--config", str(cfg_path), "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "rounds.jsonl").exists()
    payload = json.loads((out_dir / "scores.json").read_text())
    assert payload["mode"] == "decentralized"
    stdout = capsys.readouterr().out
    assert "mean_score3=" in stdout


def test_run_reads_a_config_saved_with_a_byte_order_mark(tmp_path):
    cfg_path = tmp_path / "bom.cfg"
    cfg_path.write_text("\ufeff" + SMALL_CONFIG.lstrip(), encoding="utf-8")
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "scores.json").exists()


def test_run_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG + "run.seed = 3\n")
    out_dir = tmp_path / "r"
    cli.main(["run", "--config", str(cfg_path), "--mode", "local",
              "--seed", "9", "--out", str(out_dir)])
    payload = json.loads((out_dir / "scores.json").read_text())
    assert payload["seed"] == 9
    assert payload["mode"] == "local"


def test_run_defaults_need_no_config_file(tmp_path):
    # default budget is far too long for a test; config-free runs matter
    # for the interface, so point the parser at a trimmed argv only
    parser = cli.build_parser()
    args = parser.parse_args(["run", "--out", str(tmp_path)])
    assert args.config is None
    assert args.mode == "decentralized"


def test_report_prints_score_table(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
    capsys.readouterr()
    code = cli.main(["report", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "score3" in out
    assert "node" in out


def test_report_marks_attackers(tmp_path, capsys):
    cfg_path = tmp_path / "attack.cfg"
    cfg_path.write_text(
        SMALL_CONFIG
        + "nodes.roles = honest, honest, signflip_attacker, honest\n"
    )
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
    capsys.readouterr()
    cli.main(["report", "--out", str(tmp_path)])
    assert "(attacker)" in capsys.readouterr().out


def test_report_missing_scores_fails(tmp_path, capsys):
    code = cli.main(["report", "--out", str(tmp_path)])
    assert code == 1
    assert "scores.json" in capsys.readouterr().err


def test_unknown_command_is_a_parse_error():
    with pytest.raises(SystemExit):
        cli.main(["explain"])
    with pytest.raises(SystemExit):
        cli.main([])


def _assert_one_error_line(code, capsys, message):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("qknet: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "text, config, flags, message",
    [
        ("bad.key = 1\n", "bad.cfg", [], "line 1: unknown key 'bad.key'"),
        (SMALL_CONFIG + "network.n_nodes = 3\n", "bad.cfg", [],
         "network.n_nodes = 3"),
        (SMALL_CONFIG, "missing.cfg", [], "No such file or directory"),
        (SMALL_CONFIG, ".", [], "Is a directory"),
        (SMALL_CONFIG + "data.source = csv\n"
         "data.csv_path = no/such/points.csv\n", "bad.cfg", [],
         "No such file or directory: 'no/such/points.csv'"),
        (SMALL_CONFIG + "run.seed = -1\n", "bad.cfg", [],
         "run.seed must be non-negative"),
        (SMALL_CONFIG, "bad.cfg", ["--seed", "-1"],
         "run.seed must be non-negative"),
        ("data.test_fraction = 0.02\n", "bad.cfg", [],
         "data.test_fraction = 0.02 cannot split the 40 points of node 0"),
        ("network.n_nodes = 2\n", "bad.cfg", [],
         "network.topology = ring with network.n_nodes = 2"),
        ("run.budget = 100000000000000\n", "bad.cfg", [],
         "run.budget = 100000000000000 needs"),
        (SMALL_CONFIG + "eval.shots = 10000000000000000000\n", "bad.cfg", [],
         "eval.shots must be 0 (exact) or a positive count below 2**63"),
        (SMALL_CONFIG.replace("data.points_per_cell = 2",
                              "data.points_per_cell = 1000000000000000"),
         "bad.cfg", [], "points_per_cell = 1000000000000000 is too large"),
        (SMALL_CONFIG.replace("circuit.layers = 2",
                              "circuit.layers = 100000000000000"),
         "bad.cfg", [], "circuit.layers = 100000000000000 on 32 points need"),
        (SMALL_CONFIG + "data.source = csv\ndata.csv_path = left.csv\n",
         "bad.cfg", [], "partition.strategy = region cannot split the data over"
         " network.n_nodes = 4: a node received no data"),
    ],
    ids=["bad_key", "bad_network_shape", "missing_config", "config_is_a_dir",
         "missing_csv", "negative_config_seed", "negative_seed_flag",
         "tiny_test_fraction", "two_node_ring", "huge_budget", "huge_shots",
         "huge_points_per_cell", "huge_circuit", "node_without_data"],
)
def test_run_reports_a_bad_config_as_one_error_line(tmp_path, monkeypatch, capsys,
                                                    text, config, flags, message):
    monkeypatch.chdir(tmp_path)  # data.csv_path is read from the working directory
    (tmp_path / "left.csv").write_text(LEFT_HALF_CSV)
    (tmp_path / "bad.cfg").write_text(text)
    out_dir = tmp_path / "results"
    code = cli.main(["run", "--config", str(tmp_path / config),
                     "--out", str(out_dir), *flags])
    _assert_one_error_line(code, capsys, message)
    assert not out_dir.exists()


def test_report_takes_no_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: path.write_text("{\"mode\": "), "scores.json is not JSON"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_text("{}"),
         "scores.json is not a scores object: KeyError 'mode'"),
        (lambda path: path.write_text("[1, 2]"),
         "scores.json is not a scores object: TypeError"),
    ],
    ids=["not_json", "is_a_dir", "empty_object", "list"],
)
def test_report_reports_an_unreadable_scores_file_as_one_error_line(
        tmp_path, capsys, make, message):
    make(tmp_path / "scores.json")
    code = cli.main(["report", "--out", str(tmp_path)])
    _assert_one_error_line(code, capsys, message)


def test_gen_data_reports_bad_input_as_one_error_line(tmp_path, capsys):
    code = cli.main(["gen-data", "--points-per-cell", "0",
                     "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "qknet: error: points_per_cell must be positive\n")
    code = cli.main(["gen-data", "--seed", "-3", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "qknet: error: seed must be non-negative\n")
    code = cli.main(["gen-data", "--points-per-cell", "1000000000000000",
                     "--out", str(tmp_path)])
    _assert_one_error_line(code, capsys,
                           "points_per_cell = 1000000000000000 is too large")
    assert not (tmp_path / "checkerboard.csv").exists()


def test_gen_data_rejects_an_unbounded_sigma(tmp_path, fresh_python):
    # a fresh process with a timeout: an unbounded spread used to redraw
    # points outside the unit square for ever
    proc = fresh_python("-m", "qknet.cli", "gen-data", "--sigma", "inf",
                        "--out", str(tmp_path), timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == "qknet: error: sigma must lie in (0, 1.0], got inf\n"
    assert not (tmp_path / "checkerboard.csv").exists()
