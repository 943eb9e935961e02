"""Config text format: parsing, validation, per-node broadcasting."""

import re

import pytest

from qknet import config
from qknet.config import ConfigError, ExperimentConfig


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.circuit_n_qubits == 5
    assert cfg.circuit_layers == 8
    assert cfg.network_n_nodes == 4
    assert cfg.nodes_noise_mode == "per_gate"
    assert cfg.run_seed == 0


def test_parse_overrides_and_comments():
    cfg = config.parse_config(
        """
        # experiment shape
        circuit.n_qubits = 3
        circuit.layers = 4       # depth
        run.budget = 50
        init.shared = true
        nodes.eta = 0.1
        """
    )
    assert cfg.circuit_n_qubits == 3
    assert cfg.circuit_layers == 4
    assert cfg.run_budget == 50
    assert cfg.init_shared is True
    assert cfg.nodes_eta == (0.1,)


def test_parse_per_node_lists():
    cfg = config.parse_config(
        "nodes.noise_p = 0.0005, 0.0005, 0.05, 0.0005\n"
        "nodes.roles = honest, honest, signflip_attacker, honest\n"
        "nodes.subsample = 8, 8, 8, 8\n"
    )
    assert cfg.nodes_noise_p == (0.0005, 0.0005, 0.05, 0.0005)
    assert cfg.nodes_roles[2] == "signflip_attacker"
    assert cfg.nodes_subsample == (8, 8, 8, 8)


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        config.parse_config("run.budget = 5\ncircuit.width = 3\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        config.parse_config("run.budget = 5\nrun.budget = 6\n")


def test_parse_rejects_malformed_lines_and_values():
    with pytest.raises(ConfigError, match="key = value"):
        config.parse_config("just words\n")
    with pytest.raises(ConfigError, match="expected int"):
        config.parse_config("run.budget = soon\n")
    with pytest.raises(ConfigError, match="boolean"):
        config.parse_config("init.shared = maybe\n")


def test_validation_catches_bad_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig(circuit_n_qubits=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(data_source="parquet")
    with pytest.raises(ConfigError):
        ExperimentConfig(data_source="csv")  # missing path
    with pytest.raises(ConfigError):
        ExperimentConfig(data_test_fraction=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(network_topology="star")
    with pytest.raises(ConfigError):
        ExperimentConfig(nodes_roles=("sleeper",))
    with pytest.raises(ConfigError):
        ExperimentConfig(nodes_noise_p=(1.5,))
    with pytest.raises(ConfigError):
        ExperimentConfig(aggregation_tau=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(aggregation_rule="median")
    with pytest.raises(ConfigError):
        ExperimentConfig(run_eval_every=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(eval_shots=-1)


@pytest.mark.parametrize(
    "line, key",
    [
        ("nodes.subsample = 0", "nodes.subsample"),
        ("nodes.subsample = 8, 0, 8, 8", "nodes.subsample"),
        ("nodes.eta = -0.1", "nodes.eta"),
        ("nodes.eta = 0", None),
        ("ridge.lam = 0", "ridge.lam"),
        ("init.scale = -0.5", "init.scale"),
        ("init.scale = 0", None),
        ("run.threshold = 1.5", "run.threshold"),
        ("run.threshold = -0.1", "run.threshold"),
        ("circuit.n_qubits = 13", "circuit.n_qubits"),
        ("circuit.n_qubits = 12", None),
        ("circuit.layers = 0", "circuit.layers"),
        ("data.points_per_cell = 0", "data.points_per_cell"),
        ("data.points_per_cell = 1", None),
        ("data.sigma = 0", "data.sigma"),
        ("data.sigma = 1e-9", None),
        ("nodes.noise_mode = exact", "nodes.noise_p"),
        ("nodes.noise_mode = exact\nnodes.noise_p = 0", None),
    ],
)
def test_out_of_range_values_fail_at_parse_time_naming_the_key(line, key):
    if key is None:
        config.parse_config(line)
        return
    with pytest.raises(ConfigError, match=re.escape(key)):
        config.parse_config(line)


def test_per_node_lengths_must_broadcast():
    with pytest.raises(ConfigError, match="nodes.noise_p"):
        ExperimentConfig(network_n_nodes=4, nodes_noise_p=(0.1, 0.2))
    cfg = ExperimentConfig(network_n_nodes=3, nodes_eta=(0.1, 0.2, 0.3))
    assert cfg.per_node("nodes_eta") == (0.1, 0.2, 0.3)
    cfg = ExperimentConfig(network_n_nodes=3)
    assert cfg.per_node("nodes_eta") == (0.2, 0.2, 0.2)
    assert cfg.per_node("nodes_roles") == ("honest",) * 3


def test_dump_config_round_trips_through_parser():
    cfg = ExperimentConfig(
        circuit_n_qubits=3,
        network_n_nodes=4,
        nodes_noise_p=(0.1, 0.2, 0.3, 0.4),
        init_shared=True,
    )
    flat = config.dump_config(cfg)
    assert flat["circuit.n_qubits"] == 3
    assert flat["nodes.noise_p"] == [0.1, 0.2, 0.3, 0.4]
    text = "\n".join(
        f"{k} = {', '.join(str(v) for v in val) if isinstance(val, list) else val}"
        for k, val in flat.items()
        if val != ""  # csv path is empty for checkerboard runs
    )
    back = config.parse_config(text)
    assert back == cfg


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("run.seed = 11\nnetwork.topology = complete\n")
    cfg = config.load_config(path)
    assert cfg.run_seed == 11
    assert cfg.network_topology == "complete"
