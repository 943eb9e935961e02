"""Variational quantum kernel built from a layered re-uploading feature map.

One layer applies Hadamards to every qubit, encodes data through RZ rotations,
applies trainable RY rotations, then entangles with a CNOT ring. The kernel of
two points is the all-zeros outcome probability of the compute-uncompute
interference circuit: run the map for x, then the adjoint of the map for x'.

Noise is modeled three ways: exact (none), per-gate local depolarizing at rate
p_tilde on the wires of every executed gate (after it in the compute half,
mirrored before it in the uncompute half), or a global analytic map that
mixes the exact kernel value toward 1/D at a rate p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qsim
from .qsim import Gate

NOISE_MODES = ("exact", "per_gate", "global")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Circuit shape: ``n_qubits`` wires, ``layers`` re-uploading layers."""

    n_qubits: int = 5
    layers: int = 8

    def __post_init__(self):
        if not 1 <= self.n_qubits <= qsim.MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {qsim.MAX_QUBITS}]")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")

    @property
    def n_params(self) -> int:
        return self.n_qubits * self.layers

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def feature_assignment(self, data_dim: int) -> tuple[int, ...]:
        """Feature index read by each qubit: qubit q reads feature q mod d."""
        return tuple(q % data_dim for q in range(self.n_qubits))


@dataclass(frozen=True)
class NoiseModel:
    """The noise channel of kernel evaluation.

    ``mode`` is one of exact / per_gate / global. ``p`` is the per-gate rate
    p_tilde in per_gate mode and the global mixing rate in global mode.
    Per-gate channels follow each gate of the compute half and mirror it in
    the uncompute half, preceding each adjoint gate, so the uncompute half is
    the exact channel adjoint of the compute half and the kernel is
    symmetric. Finite shots are not part of the channel; ``learn.score``
    samples them.
    """

    mode: str = "exact"
    p: float = 0.0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.p}")
        if self.mode == "exact" and self.p != 0.0:
            raise ValueError("exact mode carries no noise rate")


def analytic_noisy_kernel(k_exact, p: float, dim: int):
    """Mix an exact kernel value toward the flat baseline: (1-p) K + p / D.

    The one place the global map is written; elementwise on arrays.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    return (1.0 - p) * k_exact + p / dim


def build_circuit_gates(spec: FeatureMapSpec, theta, x) -> list[Gate]:
    """All gates of the feature map U(theta, x), layer by layer.

    Each layer is an H wall, the RZ data wall, the RY wall of its
    ``spec.n_qubits`` trainable angles and a CNOT ring.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    n = spec.n_qubits
    if theta.shape != (spec.n_params,):
        raise ValueError(
            f"theta must have shape ({spec.n_params},), got {theta.shape}"
        )
    assign = spec.feature_assignment(x.shape[0])
    gates: list[Gate] = []
    for layer in range(spec.layers):
        gates += [qsim.hadamard(q) for q in range(n)]
        gates += [qsim.rot_z(q, x[assign[q]]) for q in range(n)]
        gates += [qsim.rot_y(q, theta[layer * n + q]) for q in range(n)]
        if n > 1:
            gates += [qsim.cnot(q, (q + 1) % n) for q in range(n)]
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


def _readout(prob: float, spec: FeatureMapSpec, noise: NoiseModel) -> float:
    """All-zeros probability clamped to [0, 1], then the global map if set."""
    value = min(1.0, max(0.0, float(prob)))
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
    return _readout(rho[0, 0].real, spec, noise)


def kernel_eval(
    spec: FeatureMapSpec, theta, x1, x2, noise: NoiseModel = NoiseModel()
) -> float:
    """Kernel value K(x1, x2) under the configured noise model."""
    return _interference_value(spec, theta, theta, x1, x2, noise)


def parameter_shift_gradient(
    spec: FeatureMapSpec, theta, x1, x2, noise: NoiseModel
) -> np.ndarray:
    """Full gradient of one kernel entry by the parameter-shift rule.

    theta_t enters twice, as one RY in each half of the interference circuit,
    so each derivative sums a two-point shift over both occurrences (four
    shifted circuits). The kernel is Tr[P0 C(rho0)] = Tr[C'(P0) rho0], with
    P0 = |0><0| and C' the adjoint channel (the Heisenberg picture; Jones &
    Gacon, arXiv:2009.02823). So a forward pass keeps the state rho_i before
    every RY, and one reverse pass of P0 keeps O_i, the observable that the
    steps after RY i turn P0 into. A shifted circuit's probability is then
    Tr[O_i step(rho_i)], where step is the shifted gate with its channels.
    Local depolarizing is its own adjoint, so an adjoint step applies the
    channel, then the adjoint gate, for a compute step, and the reverse for
    an uncompute step.
    """
    theta = np.asarray(theta, dtype=float)
    steps = _interference_steps(spec, theta, theta, x1, x2)
    p = _gate_noise_rate(noise)
    before, after = {}, {}
    rho = qsim.zero_state(spec.n_qubits)
    for i, step in enumerate(steps):
        if step[0].name == "ry":
            before[i] = rho
        rho = _run_steps(rho, [step], p)
    obs = qsim.zero_state(spec.n_qubits)
    for i in reversed(range(len(steps))):
        if i in before:
            after[i] = obs
        gate, uncompute = steps[i]
        if p and not uncompute:
            obs = _depolarize(obs, gate, p)
        obs = qsim.apply_gate(obs, gate.adjoint())
        if p and uncompute:
            obs = _depolarize(obs, gate, p)
    ry = list(before)
    # the compute half meets theta in order, the uncompute half in reverse
    occurrences = list(zip(ry[: spec.n_params], ry[spec.n_params :][::-1]))
    half = 0.5 * np.pi
    grads = np.zeros(spec.n_params)
    for t, pair in enumerate(occurrences):
        for i in pair:
            gate, uncompute = steps[i]
            for sign in (1.0, -1.0):
                shifted = qsim.rot_y(gate.qubits[0], theta[t] + sign * half)
                if uncompute:
                    shifted = shifted.adjoint()
                rho = _run_steps(before[i], [(shifted, uncompute)], p)
                # O_i is Hermitian, so vdot gives Tr[O_i rho]
                value = np.vdot(after[i], rho).real
                grads[t] += 0.5 * sign * _readout(value, spec, noise)
    return grads
