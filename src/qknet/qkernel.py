"""Variational quantum kernel built from a layered re-uploading feature map.

One layer applies Hadamards to every qubit, encodes data through RZ rotations,
applies trainable RY rotations, then entangles with a CNOT ring. The kernel of
two points is the all-zeros outcome probability of the compute-uncompute
interference circuit: run the map for x, then the adjoint of the map for x'.

Noise is one of two kinds, each with a rate p, and p = 0 is noise-free under
either: per-gate local depolarizing at rate p_tilde = p on the wires of every
executed gate, placed by `_run_steps` alone, or a global analytic map that
mixes the noise-free kernel value toward 1/D at rate p.

This is the gate-by-gate reference that `engine` is tested against. The
circuit shape, the noise model and the global map are `engine`'s, so both
paths read the same types; a run never loads this module.
"""

from __future__ import annotations

import numpy as np

from . import qsim
from .engine import FeatureMapSpec, NoiseModel, analytic_noisy_kernel
from .qsim import Gate


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


def _run_steps(rho, steps, p: float):
    """Apply each gate with depolarizing at rate ``p`` on its wires.

    The channels follow each compute gate and precede each uncompute gate,
    so the uncompute half is the exact channel adjoint of the compute half.
    """
    for gate, uncompute in steps:
        if not uncompute:
            rho = qsim.apply_gate(rho, gate)
        if p:
            for q in gate.qubits:
                rho = qsim.apply_depolarizing_local(rho, q, p)
        if uncompute:
            rho = qsim.apply_gate(rho, gate)
    return rho


def _readout(prob: float, spec: FeatureMapSpec, noise: NoiseModel) -> float:
    """All-zeros probability clamped to [0, 1], then the global map."""
    value = min(1.0, max(0.0, float(prob)))
    return analytic_noisy_kernel(value, noise.global_p, spec.dim)


def _interference_value(
    spec: FeatureMapSpec, theta_fwd, theta_adj, x1, x2, noise: NoiseModel
) -> float:
    """All-zeros probability of [forward map for x1][adjoint map for x2],
    each half with its own parameters."""
    steps = _interference_steps(spec, theta_fwd, theta_adj, x1, x2)
    rho = _run_steps(qsim.zero_state(spec.n_qubits), steps, noise.per_gate_p)
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
    Local depolarizing is its own adjoint, so a step's adjoint is the adjoint
    gate run as a step of the other half.
    """
    theta = np.asarray(theta, dtype=float)
    steps = _interference_steps(spec, theta, theta, x1, x2)
    p = noise.per_gate_p
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
        obs = _run_steps(obs, [(gate.adjoint(), not uncompute)], p)
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
