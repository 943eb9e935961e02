"""Feature-map kernel checks against an independent statevector oracle.

The library evaluates kernels on density matrices. These tests rebuild the
same circuits as dense unitaries acting on state vectors, a disjoint code
path, and compare the overlap probabilities. Gradients are checked against
central finite differences of the kernel itself.
"""

import numpy as np
import pytest

from qknet import qkernel, qsim
from qknet.qkernel import FeatureMapSpec, NoiseModel


def dense_gate(gate, n_qubits):
    if gate.name == "cnot":
        perm = qsim._cnot_permutation(gate.qubits[0], gate.qubits[1], n_qubits)
        return np.eye(2**n_qubits, dtype=complex)[perm]
    m = qsim.gate_matrix(gate)
    u = np.array([[1.0]], dtype=complex)
    for q in range(n_qubits):
        u = np.kron(u, m if q == gate.qubits[0] else np.eye(2, dtype=complex))
    return u


def statevector_kernel(spec, theta, x1, x2):
    """|<0| U(theta, x2)^dagger U(theta, x1) |0>|^2 via dense matrices."""
    psi = np.zeros(spec.dim, dtype=complex)
    psi[0] = 1.0
    for g in qkernel.build_circuit_gates(spec, theta, x1):
        psi = dense_gate(g, spec.n_qubits) @ psi
    for g in qkernel.adjoint_gates(qkernel.build_circuit_gates(spec, theta, x2)):
        psi = dense_gate(g, spec.n_qubits) @ psi
    return float(np.abs(psi[0]) ** 2)


def random_inputs(rng, spec, dim=2):
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    x1 = rng.uniform(-1.0, 1.0, size=dim)
    x2 = rng.uniform(-1.0, 1.0, size=dim)
    return theta, x1, x2


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec(n_qubits=0)
    with pytest.raises(ValueError):
        FeatureMapSpec(n_qubits=qsim.MAX_QUBITS + 1)
    with pytest.raises(ValueError):
        FeatureMapSpec(layers=0)


def test_spec_counts():
    spec = FeatureMapSpec(n_qubits=4, layers=3)
    assert spec.n_params == 12
    assert spec.dim == 16


def test_feature_assignment_defaults_to_round_robin():
    spec = FeatureMapSpec(n_qubits=5, layers=1)
    assert spec.feature_assignment(2) == (0, 1, 0, 1, 0)
    assert spec.feature_assignment(3) == (0, 1, 2, 0, 1)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(mode="thermal")
    with pytest.raises(ValueError):
        NoiseModel(mode="per_gate", p=1.5)


def test_analytic_noisy_kernel_mixes_toward_uniform():
    assert qkernel.analytic_noisy_kernel(1.0, 0.0, 32) == 1.0
    k = np.full((2, 2), 0.5)
    assert qkernel.analytic_noisy_kernel(k, 0.0, 4) is k
    assert abs(qkernel.analytic_noisy_kernel(1.0, 1.0, 32) - 1 / 32) < 1e-15
    assert abs(qkernel.analytic_noisy_kernel(0.4, 0.5, 4) - (0.2 + 0.125)) < 1e-15
    with pytest.raises(ValueError):
        qkernel.analytic_noisy_kernel(0.5, 1.2, 4)
    with pytest.raises(ValueError):
        qkernel.analytic_noisy_kernel(0.5, 0.2, 1)


def test_layer_gate_sequence_structure():
    spec = FeatureMapSpec(n_qubits=3, layers=1)
    gates = qkernel.build_circuit_gates(spec, np.zeros(3), np.zeros(2))
    names = [g.name for g in gates]
    assert names == ["h"] * 3 + ["rz"] * 3 + ["ry"] * 3 + ["cnot"] * 3
    ring = [g.qubits for g in gates if g.name == "cnot"]
    assert ring == [(0, 1), (1, 2), (2, 0)]


def test_single_qubit_layer_has_no_entangler():
    spec = FeatureMapSpec(n_qubits=1, layers=1)
    gates = qkernel.build_circuit_gates(spec, np.zeros(1), np.zeros(1))
    assert [g.name for g in gates] == ["h", "rz", "ry"]


def test_circuit_gates_concatenate_layers():
    spec = FeatureMapSpec(n_qubits=2, layers=4)
    theta = np.arange(8, dtype=float)
    gates = qkernel.build_circuit_gates(spec, theta, np.zeros(2))
    assert len(gates) == 4 * (2 + 2 + 2 + 2)
    ry_angles = [g.angle for g in gates if g.name == "ry"]
    assert ry_angles == list(range(8))
    with pytest.raises(ValueError):
        qkernel.build_circuit_gates(spec, np.zeros(7), np.zeros(2))


def test_adjoint_gates_reverse_and_invert():
    gates = [qsim.hadamard(0), qsim.rot_y(1, 0.3), qsim.cnot(0, 1)]
    adj = qkernel.adjoint_gates(gates)
    assert [g.name for g in adj] == ["cnot", "ry", "h"]
    assert adj[1].angle == -0.3


def test_exact_kernel_matches_statevector_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        spec = FeatureMapSpec(
            n_qubits=int(rng.integers(1, 4)), layers=int(rng.integers(1, 4))
        )
        theta, x1, x2 = random_inputs(rng, spec)
        got = qkernel.kernel_eval(spec, theta, x1, x2)
        want = statevector_kernel(spec, theta, x1, x2)
        assert abs(got - want) < 1e-12


def test_kernel_of_point_with_itself_is_one():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = FeatureMapSpec(
            n_qubits=int(rng.integers(1, 5)), layers=int(rng.integers(1, 5))
        )
        theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        x = rng.uniform(-1, 1, size=2)
        assert abs(qkernel.kernel_eval(spec, theta, x, x) - 1.0) < 1e-10


def test_kernel_is_symmetric():
    rng = np.random.default_rng(25)
    models = [
        NoiseModel(),
        NoiseModel(mode="per_gate", p=0.01),
        NoiseModel(mode="global", p=0.2),
    ]
    for noise in models:
        for _ in range(5):
            spec = FeatureMapSpec(n_qubits=2, layers=2)
            theta, x1, x2 = random_inputs(rng, spec)
            a = qkernel.kernel_eval(spec, theta, x1, x2, noise)
            b = qkernel.kernel_eval(spec, theta, x2, x1, noise)
            assert abs(a - b) < 1e-10


def test_readout_passes_the_first_diagonal_through():
    spec, exact = FeatureMapSpec(n_qubits=1, layers=1), NoiseModel()
    assert qkernel._readout(0.5, spec, exact) == 0.5
    rho = qsim.zero_state(1)
    assert qkernel._readout(rho[0, 0].real, spec, exact) == 1.0
    rho = qsim.apply_gate(rho, qsim.hadamard(0))
    assert abs(qkernel._readout(rho[0, 0].real, spec, exact) - 0.5) < 1e-12


def test_readout_clamps_rounding_noise_into_the_unit_interval():
    spec, exact = FeatureMapSpec(n_qubits=1, layers=1), NoiseModel()
    assert qkernel._readout(1.0 + 2e-14, spec, exact) == 1.0


def test_kernel_values_stay_in_unit_interval():
    rng = np.random.default_rng(27)
    for noise in (
        NoiseModel(),
        NoiseModel(mode="per_gate", p=0.05),
        NoiseModel(mode="global", p=0.6),
    ):
        for _ in range(5):
            spec = FeatureMapSpec(n_qubits=3, layers=2)
            theta, x1, x2 = random_inputs(rng, spec)
            v = qkernel.kernel_eval(spec, theta, x1, x2, noise)
            assert 0.0 <= v <= 1.0


def test_global_mode_is_exact_affine_map():
    rng = np.random.default_rng(29)
    for _ in range(8):
        spec = FeatureMapSpec(n_qubits=3, layers=2)
        theta, x1, x2 = random_inputs(rng, spec)
        p = float(rng.uniform(0, 1))
        exact = qkernel.kernel_eval(spec, theta, x1, x2)
        noisy = qkernel.kernel_eval(spec, theta, x1, x2, NoiseModel(mode="global", p=p))
        assert noisy == qkernel.analytic_noisy_kernel(exact, p, spec.dim)


def test_per_gate_noise_shrinks_self_kernel():
    spec = FeatureMapSpec(n_qubits=2, layers=3)
    rng = np.random.default_rng(31)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    x = np.array([0.4, -0.2])
    clean = qkernel.kernel_eval(spec, theta, x, x)
    noisy = qkernel.kernel_eval(spec, theta, x, x, NoiseModel(mode="per_gate", p=0.02))
    assert clean > noisy > 1.0 / spec.dim


def test_parameter_shift_matches_finite_difference():
    rng = np.random.default_rng(35)
    h = 1e-5
    for noise in (NoiseModel(), NoiseModel(mode="per_gate", p=0.005)):
        spec = FeatureMapSpec(n_qubits=2, layers=2)
        theta, x1, x2 = random_inputs(rng, spec)
        shift = qkernel.parameter_shift_gradient(spec, theta, x1, x2, noise)
        for t in range(spec.n_params):
            up = theta.copy()
            up[t] += h
            dn = theta.copy()
            dn[t] -= h
            fd = (
                qkernel.kernel_eval(spec, up, x1, x2, noise)
                - qkernel.kernel_eval(spec, dn, x1, x2, noise)
            ) / (2 * h)
            assert abs(shift[t] - fd) < 1e-6


def test_parameter_shift_gradient_vector_shape():
    spec = FeatureMapSpec(n_qubits=2, layers=2)
    rng = np.random.default_rng(37)
    theta, x1, x2 = random_inputs(rng, spec)
    g = qkernel.parameter_shift_gradient(spec, theta, x1, x2, NoiseModel())
    assert g.shape == (spec.n_params,)
    assert np.all(np.isfinite(g))


def test_gradient_at_identical_points_is_zero():
    # K(x, x) = 1 is a maximum regardless of theta
    spec = FeatureMapSpec(n_qubits=2, layers=2)
    rng = np.random.default_rng(39)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    x = np.array([0.1, -0.7])
    g = qkernel.parameter_shift_gradient(spec, theta, x, x, NoiseModel())
    assert np.max(np.abs(g)) < 1e-10


def test_parameter_shift_gradient_matches_whole_shifted_circuits():
    """The Heisenberg sweep against the shift rule on whole circuits.

    Each half's RY is shifted on its own, the other half keeping theta, and
    every shifted circuit runs from |0> to the readout.
    """
    rng = np.random.default_rng(43)
    models = (NoiseModel(), NoiseModel(mode="per_gate", p=0.05),
              NoiseModel(mode="global", p=0.3))
    for n_qubits in (2, 3):
        spec = FeatureMapSpec(n_qubits=n_qubits, layers=2)
        for noise in models:
            theta, x1, x2 = random_inputs(rng, spec)
            want = np.zeros(spec.n_params)
            for t in range(spec.n_params):
                for sign in (1.0, -1.0):
                    shifted = theta.copy()
                    shifted[t] += sign * np.pi / 2
                    want[t] += 0.5 * sign * (
                        qkernel._interference_value(spec, shifted, theta, x1, x2, noise)
                        + qkernel._interference_value(spec, theta, shifted, x1, x2, noise))
            got = qkernel.parameter_shift_gradient(spec, theta, x1, x2, noise)
            assert np.max(np.abs(got - want)) < 1e-12
