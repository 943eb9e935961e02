"""Variational quantum kernel built from a layered re-uploading feature map.

One layer applies Hadamards to every qubit, encodes data through RZ rotations,
applies trainable RY rotations, then entangles with a CNOT ring. The kernel of
two points is the all-zeros outcome probability of the compute-uncompute
interference circuit: run the map for x, then the adjoint of the map for x'.

Noise is modeled three ways: exact (none), per-gate local depolarizing at rate
p_tilde on the wires of every executed gate (after it in the compute half,
mirrored before it in the uncompute half), or a global analytic map that
mixes the exact kernel value toward 1/D at an effective rate p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qsim
from .qsim import Gate

NOISE_MODES = ("exact", "per_gate", "global")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Circuit shape: ``n_qubits`` wires, ``layers`` re-uploading layers.

    ``embedding`` maps qubit index to feature index. The default alternates
    features across the wires (qubit q reads feature q mod d).
    """

    n_qubits: int = 5
    layers: int = 8
    embedding: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.n_qubits <= qsim.MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {qsim.MAX_QUBITS}]")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.embedding is not None and len(self.embedding) != self.n_qubits:
            raise ValueError("embedding must list one feature index per qubit")

    @property
    def n_params(self) -> int:
        return self.n_qubits * self.layers

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def feature_assignment(self, data_dim: int) -> tuple[int, ...]:
        """Feature index read by each qubit, validated against ``data_dim``."""
        if self.embedding is None:
            assign = tuple(q % data_dim for q in range(self.n_qubits))
        else:
            assign = self.embedding
        if any(not 0 <= f < data_dim for f in assign):
            raise ValueError(
                f"embedding {assign} references features outside dimension {data_dim}"
            )
        return assign


@dataclass(frozen=True)
class NoiseModel:
    """Noise configuration for kernel evaluation.

    ``mode`` is one of exact / per_gate / global. ``p`` is the per-gate rate
    p_tilde in per_gate mode and the effective global rate in global mode.
    ``shots`` switches the returned kernel to a sampled estimate. Per-gate
    channels follow each gate of the compute half and mirror it in the
    uncompute half, preceding each adjoint gate, so the uncompute half is the
    exact channel adjoint of the compute half and the kernel is symmetric.
    """

    mode: str = "exact"
    p: float = 0.0
    shots: int | None = None

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.p}")
        if self.mode == "exact" and self.p != 0.0:
            raise ValueError("exact mode carries no noise rate")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be a positive count")


def effective_rate(p_tilde: float, layers: int) -> float:
    """Global rate matching 2L layers of per-gate noise: 1 - (1 - p_tilde)^(2L)."""
    if not 0.0 <= p_tilde <= 1.0:
        raise ValueError(f"p_tilde must be in [0, 1], got {p_tilde}")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    return 1.0 - (1.0 - p_tilde) ** (2 * layers)


def analytic_noisy_kernel(k_exact: float, p: float, dim: int) -> float:
    """Mix an exact kernel value toward the flat baseline: (1-p) K + p / D."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    return (1.0 - p) * k_exact + p / dim


def shot_sample(k_value, shots: int, rng: np.random.Generator):
    """Mean of ``shots`` Bernoulli(k_value) draws; elementwise on arrays."""
    if shots < 1:
        raise ValueError("shots must be a positive count")
    k = np.asarray(k_value, dtype=float)
    if np.any(k < 0.0) or np.any(k > 1.0):
        raise ValueError("kernel values must be in [0, 1]")
    sampled = rng.binomial(shots, k) / float(shots)
    return float(sampled) if np.isscalar(k_value) else sampled


def build_layer_gates(spec: FeatureMapSpec, theta_layer, x) -> list[Gate]:
    """Gate sequence of one layer: H wall, RZ data wall, RY wall, CNOT ring.

    ``theta_layer`` holds one trainable angle per qubit, ``x`` the data point.
    """
    theta_layer = np.asarray(theta_layer, dtype=float)
    x = np.asarray(x, dtype=float)
    if theta_layer.shape != (spec.n_qubits,):
        raise ValueError(
            f"theta_layer must have shape ({spec.n_qubits},), got {theta_layer.shape}"
        )
    assign = spec.feature_assignment(x.shape[0])
    gates = [qsim.hadamard(q) for q in range(spec.n_qubits)]
    gates += [qsim.rot_z(q, x[assign[q]]) for q in range(spec.n_qubits)]
    gates += [qsim.rot_y(q, theta_layer[q]) for q in range(spec.n_qubits)]
    if spec.n_qubits > 1:
        gates += [
            qsim.cnot(q, (q + 1) % spec.n_qubits) for q in range(spec.n_qubits)
        ]
    return gates


def build_circuit_gates(spec: FeatureMapSpec, theta, x) -> list[Gate]:
    """All gates of the feature map U(theta, x), layer by layer."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.n_params,):
        raise ValueError(
            f"theta must have shape ({spec.n_params},), got {theta.shape}"
        )
    gates: list[Gate] = []
    for layer in range(spec.layers):
        block = theta[layer * spec.n_qubits : (layer + 1) * spec.n_qubits]
        gates += build_layer_gates(spec, block, x)
    return gates


def adjoint_gates(gates) -> list[Gate]:
    """Reverse the gate order and invert each gate (rotation angles negate)."""
    return [g.adjoint() for g in reversed(gates)]


def _interference_steps(
    spec: FeatureMapSpec, theta_fwd, theta_adj, x1, x2
) -> list[tuple[Gate, bool]]:
    """Gates of [forward map for x1][adjoint map for x2], each flagged True
    when it belongs to the uncompute half."""
    fwd = build_circuit_gates(spec, theta_fwd, x1)
    adj = adjoint_gates(build_circuit_gates(spec, theta_adj, x2))
    return [(g, False) for g in fwd] + [(g, True) for g in adj]


def _gate_noise_rate(noise: NoiseModel) -> float:
    return noise.p if noise.mode == "per_gate" else 0.0


def _depolarize(rho, gate: Gate, p: float):
    for q in gate.qubits:
        rho = qsim.apply_depolarizing_local(rho, q, p)
    return rho


def _run_steps(rho, steps, p: float):
    """Apply each gate with depolarizing at rate ``p`` on its wires.

    The channels follow each compute gate and precede each uncompute gate,
    so the uncompute half is the exact channel adjoint of the compute half.
    """
    for gate, uncompute in steps:
        if p and uncompute:
            rho = _depolarize(rho, gate, p)
        rho = qsim.apply_gate(rho, gate)
        if p and not uncompute:
            rho = _depolarize(rho, gate, p)
    return rho


def _readout(rho, spec: FeatureMapSpec, noise: NoiseModel) -> float:
    value = qsim.projector_probability(rho)
    if noise.mode == "global":
        value = analytic_noisy_kernel(value, noise.p, spec.dim)
    return value


def _interference_value(
    spec: FeatureMapSpec, theta_fwd, theta_adj, x1, x2, noise: NoiseModel
) -> float:
    """All-zeros probability of [forward map for x1][adjoint map for x2],
    each half with its own parameters."""
    steps = _interference_steps(spec, theta_fwd, theta_adj, x1, x2)
    rho = _run_steps(qsim.zero_state(spec.n_qubits), steps, _gate_noise_rate(noise))
    return _readout(rho, spec, noise)


def kernel_eval(
    spec: FeatureMapSpec,
    theta,
    x1,
    x2,
    noise: NoiseModel = NoiseModel(),
    rng: np.random.Generator | None = None,
) -> float:
    """Kernel value K(x1, x2) under the configured noise model.

    With ``noise.shots`` set, returns a sampled estimate and requires ``rng``.
    """
    value = _interference_value(spec, theta, theta, x1, x2, noise)
    if noise.shots is not None:
        if rng is None:
            raise ValueError("sampled kernel evaluation needs an rng")
        value = shot_sample(value, noise.shots, rng)
    return value


def _shift_gradients(
    spec: FeatureMapSpec, theta, x1, x2, noise: NoiseModel, params
) -> np.ndarray:
    """Parameter-shift derivatives dK/d theta_t for each t in ``params``.

    theta_t enters twice, as one RY in each half of the interference circuit,
    so each derivative sums a two-point shift over both occurrences (four
    shifted circuits). The unshifted circuit runs once and keeps the state
    before every RY; each shifted circuit starts from the state before its
    shifted gate. Every state still meets the same gates in the same order
    as in a run from |0>, so the result does not depend on the checkpoints.
    Shift gradients are defined on expectations, not samples.
    """
    if noise.shots is not None:
        raise ValueError("parameter-shift gradients require expectation values")
    theta = np.asarray(theta, dtype=float)
    for t in params:
        if not 0 <= t < spec.n_params:
            raise ValueError(f"parameter index {t} out of range")
    steps = _interference_steps(spec, theta, theta, x1, x2)
    p = _gate_noise_rate(noise)
    before = {}
    rho = qsim.zero_state(spec.n_qubits)
    for i, step in enumerate(steps):
        if step[0].name == "ry":
            before[i] = rho
        rho = _run_steps(rho, [step], p)
    ry = list(before)
    # the compute half meets theta in order, the uncompute half in reverse
    occurrences = list(zip(ry[: spec.n_params], ry[spec.n_params :][::-1]))
    half = 0.5 * np.pi
    grads = np.empty(len(params))
    for k, t in enumerate(params):
        grad = 0.0
        for i in occurrences[t]:
            gate, uncompute = steps[i]
            for sign in (1.0, -1.0):
                shifted = qsim.rot_y(gate.qubits[0], theta[t] + sign * half)
                if uncompute:
                    shifted = shifted.adjoint()
                rho = _run_steps(before[i], [(shifted, uncompute)] + steps[i + 1 :], p)
                grad += 0.5 * sign * _readout(rho, spec, noise)
        grads[k] = grad
    return grads


def kernel_grad(
    spec: FeatureMapSpec,
    theta,
    x1,
    x2,
    noise: NoiseModel,
    t: int,
) -> float:
    """Exact derivative dK/d theta_t by the parameter-shift rule."""
    return float(_shift_gradients(spec, theta, x1, x2, noise, [t])[0])


def parameter_shift_gradient(
    spec: FeatureMapSpec, theta, x1, x2, noise: NoiseModel
) -> np.ndarray:
    """Full gradient of one kernel entry, one shifted pair per occurrence."""
    return _shift_gradients(spec, theta, x1, x2, noise, range(spec.n_params))
