"""Experiment configuration: a flat dotted-key text format and its dataclass.

A config file is plain text, one ``section.key = value`` per line, with ``#``
comments. Every key has a default, unknown keys are rejected, and per-node
fields accept either a single value or one comma-separated value per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import dnet
from .data import MAX_SIGMA, STRATEGIES
from .engine import MAX_QUBITS, NOISE_MODES


class ConfigError(ValueError):
    pass


MODES = ("decentralized", "centralized", "local")
_SOURCES = ("checkerboard", "csv")
_TOPOLOGIES = ("ring", "complete")
_RULES = ("plain", "robust_clip")


@dataclass(frozen=True)
class ExperimentConfig:
    circuit_n_qubits: int = 5
    circuit_layers: int = 8
    data_source: str = "checkerboard"
    data_csv_path: str = ""
    data_points_per_cell: int = 10
    data_sigma: float = 0.04
    data_test_fraction: float = 0.25
    partition_strategy: str = "region"
    network_topology: str = "ring"
    network_n_nodes: int = 4
    nodes_roles: tuple[str, ...] = ("honest",)
    nodes_noise_mode: str = "per_gate"
    nodes_noise_p: tuple[float, ...] = (0.0005,)
    nodes_eta: tuple[float, ...] = (0.2,)
    nodes_subsample: tuple[int, ...] = (8,)
    aggregation_rule: str = "plain"
    aggregation_tau: float = 0.5
    eval_shots: int = 0
    init_shared: bool = False
    init_scale: float = 0.1
    ridge_lam: float = 0.1
    run_budget: int = 3000
    run_g_thresh: float = 0.0
    run_eval_every: int = 10
    run_threshold: float = 0.9
    run_seed: int = 0
    output_gram_final: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{_KEY_OF[f.name]} must be finite, got {v}")
        if not 1 <= self.circuit_n_qubits <= MAX_QUBITS:
            raise ConfigError(f"circuit.n_qubits must lie in [1, {MAX_QUBITS}]")
        if self.circuit_layers < 1:
            raise ConfigError("circuit.layers must be at least 1")
        if self.data_source not in _SOURCES:
            raise ConfigError(f"data.source must be one of {_SOURCES}")
        if self.data_source == "csv" and not self.data_csv_path:
            raise ConfigError("data.csv_path is required when data.source = csv")
        if self.data_points_per_cell < 1:
            raise ConfigError("data.points_per_cell must be at least 1")
        if not 0.0 < self.data_sigma <= MAX_SIGMA:
            raise ConfigError(f"data.sigma must lie in (0, {MAX_SIGMA}]")
        if not 0.0 < self.data_test_fraction < 1.0:
            raise ConfigError("data.test_fraction must lie in (0, 1)")
        if self.partition_strategy not in STRATEGIES:
            raise ConfigError(f"partition.strategy must be one of {STRATEGIES}")
        if self.network_topology not in _TOPOLOGIES:
            raise ConfigError(f"network.topology must be one of {_TOPOLOGIES}")
        if self.network_n_nodes < 1:
            raise ConfigError("network.n_nodes must be positive")
        if self.nodes_noise_mode not in NOISE_MODES:
            raise ConfigError(f"nodes.noise_mode must be one of {NOISE_MODES}")
        for role in self.nodes_roles:
            if role not in dnet.ROLES:
                raise ConfigError(f"unknown node role {role!r}")
        if self.aggregation_rule not in _RULES:
            raise ConfigError(f"aggregation.rule must be one of {_RULES}")
        if not self.aggregation_tau > 0:
            raise ConfigError("aggregation.tau must be positive")
        for p in self.nodes_noise_p:
            if not 0.0 <= p <= 1.0:
                raise ConfigError("nodes.noise_p entries must lie in [0, 1]")
        if any(eta < 0.0 for eta in self.nodes_eta):
            raise ConfigError("nodes.eta entries must be non-negative")
        if any(q < 1 for q in self.nodes_subsample):
            raise ConfigError("nodes.subsample entries must be at least 1")
        if self.init_scale < 0.0:
            raise ConfigError("init.scale must be non-negative")
        if not self.ridge_lam > 0.0:
            raise ConfigError("ridge.lam must be positive")
        if not 0.0 <= self.run_threshold <= 1.0:
            raise ConfigError("run.threshold must lie in [0, 1]")
        if not 0 <= self.eval_shots < 2**63:  # the binomial draw's int64 count
            raise ConfigError(
                "eval.shots must be 0 (exact) or a positive count below 2**63")
        if self.run_budget < 1:
            raise ConfigError("run.budget must be at least 1")
        if self.run_eval_every < 1:
            raise ConfigError("run.eval_every must be at least 1")
        if self.run_seed < 0:
            raise ConfigError("run.seed must be non-negative")
        for name in ("nodes_roles", "nodes_noise_p", "nodes_eta", "nodes_subsample"):
            values = getattr(self, name)
            if len(values) not in (1, self.network_n_nodes):
                raise ConfigError(
                    f"{_KEY_OF[name]} needs 1 or {self.network_n_nodes} values,"
                    f" got {len(values)}"
                )

    def per_node(self, name: str, node: int):
        """Node ``node``'s entry of a per-node field: its single value, or
        the node's own when the field holds one value per node."""
        values = getattr(self, name)
        return values[0] if len(values) == 1 else values[node]


_KEY_OF = {f.name: f.name.replace("_", ".", 1) for f in fields(ExperimentConfig)}
_FIELD_OF = {key: name for name, key in _KEY_OF.items()}
_BOOLS = {"true": True, "false": False, "yes": True, "no": False}


def _parse_scalar(text: str, kind: type):
    if kind is bool:
        if text.lower() not in _BOOLS:
            raise ConfigError(f"expected a boolean, got {text!r}")
        return _BOOLS[text.lower()]
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"expected {kind.__name__}, got {text!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``section.key = value`` lines into an ExperimentConfig."""
    overrides: dict = {}
    proto = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_OF:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name = _FIELD_OF[key]
        if name in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        default = getattr(proto, name)
        try:
            if isinstance(default, tuple):
                kind = type(default[0])
                overrides[name] = tuple(
                    _parse_scalar(part.strip(), kind) for part in value.split(",")
                )
            else:
                overrides[name] = _parse_scalar(value, type(default))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return replace(proto, **overrides)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8-sig"))


def dump_config(config: ExperimentConfig) -> dict:
    """Flat dotted-key dict of every field, for echoing into result files."""
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        out[_KEY_OF[f.name]] = list(value) if isinstance(value, tuple) else value
    return out
