"""Density-matrix simulator checks against dense linear-algebra oracles.

Every gate application is compared with explicit U rho U^dagger using the
full 2^n x 2^n matrix built by Kronecker products, and every channel with
its Kraus-operator sum. The simulator itself never builds those objects.
"""

import numpy as np
import pytest

from qknet import qsim


def random_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 4)
        q = int(rng.integers(0, n_qubits))
        if kind == 0:
            gates.append(qsim.hadamard(q))
        elif kind == 1:
            gates.append(qsim.rot_z(q, float(rng.uniform(-np.pi, np.pi))))
        elif kind == 2:
            gates.append(qsim.rot_y(q, float(rng.uniform(-np.pi, np.pi))))
        elif n_qubits > 1:
            t = int(rng.integers(0, n_qubits - 1))
            if t >= q:
                t += 1
            gates.append(qsim.cnot(q, t))
        else:
            gates.append(qsim.hadamard(q))
    return gates


def dense_unitary(gate, n_qubits):
    """Full-register matrix of one gate, built by Kronecker products."""
    if gate.name == "cnot":
        perm = np.eye(2**n_qubits)[qsim._cnot_permutation(*gate.qubits, n_qubits)]
        return perm.astype(complex)
    m = qsim.gate_matrix(gate)
    u = np.array([[1.0]], dtype=complex)
    for q in range(n_qubits):
        u = np.kron(u, m if q == gate.qubits[0] else np.eye(2, dtype=complex))
    return u


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_zero_state_is_projector():
    for n in (1, 2, 3):
        rho = qsim.zero_state(n)
        assert rho.shape == (2**n, 2**n)
        assert rho[0, 0] == 1.0
        assert np.sum(np.abs(rho)) == 1.0
        qsim.check_density_matrix(rho)


def test_zero_state_rejects_bad_sizes():
    with pytest.raises(ValueError):
        qsim.zero_state(0)
    with pytest.raises(ValueError):
        qsim.zero_state(qsim.MAX_QUBITS + 1)


def test_n_qubits_of_rejects_non_square_and_non_power():
    with pytest.raises(ValueError):
        qsim.n_qubits_of(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        qsim.n_qubits_of(np.zeros((4, 2)))


def test_gate_matrices_are_unitary():
    rng = np.random.default_rng(7)
    gates = [qsim.hadamard(0), qsim.cnot(0, 1)]
    gates += [qsim.rot_z(0, a) for a in rng.uniform(-4, 4, size=5)]
    gates += [qsim.rot_y(0, a) for a in rng.uniform(-4, 4, size=5)]
    for g in gates:
        m = qsim.gate_matrix(g)
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


def test_rotation_matrices_match_exponentials():
    for a in (-2.3, -0.5, 0.0, 0.7, 3.1):
        ry = qsim.rot_y_matrix(a)
        rz = qsim.rot_z_matrix(a)
        # exp(-i a Y / 2) and exp(-i a Z / 2) have closed forms
        c, s = np.cos(a / 2), np.sin(a / 2)
        assert np.allclose(ry, [[c, -s], [s, c]], atol=1e-14)
        assert np.allclose(
            rz, np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)]), atol=1e-14
        )


def test_rotation_adjoint_negates_angle():
    g = qsim.rot_y(1, 0.8)
    assert g.adjoint().angle == -0.8
    assert qsim.hadamard(0).adjoint() == qsim.hadamard(0)
    c = qsim.cnot(1, 0)
    assert c.adjoint() == c


def test_cnot_rejects_equal_wires():
    with pytest.raises(ValueError):
        qsim.cnot(2, 2)


def test_apply_gate_matches_dense_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        rho = random_density_matrix(rng, 2**n)
        for g in random_circuit(rng, n, 6):
            u = dense_unitary(g, n)
            expected = u @ rho @ u.conj().T
            rho = qsim.apply_gate(rho, g)
            assert np.max(np.abs(rho - expected)) < 1e-12


def test_apply_gate_rejects_out_of_range_qubits():
    rho = qsim.zero_state(2)
    with pytest.raises(ValueError):
        qsim.apply_gate(rho, qsim.hadamard(2))
    with pytest.raises(ValueError):
        qsim.apply_gate(rho, qsim.cnot(0, 3))


def test_circuit_then_adjoint_restores_state():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(1, 5))
        gates = random_circuit(rng, n, 30)
        rho0 = random_density_matrix(rng, 2**n)
        rho = qsim.apply_circuit(rho0, gates)
        back = [g.adjoint() for g in reversed(gates)]
        rho = qsim.apply_circuit(rho, back)
        assert np.max(np.abs(rho - rho0)) < 1e-10


def test_random_circuits_preserve_density_matrix_invariants():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(1, 6))
        rho = qsim.zero_state(n)
        rho = qsim.apply_circuit(rho, random_circuit(rng, n, 50))
        if trial % 3 == 0:
            rho = qsim.apply_depolarizing_local(rho, int(rng.integers(0, n)), 0.2)
        qsim.check_density_matrix(rho, atol=1e-10)
        assert qsim.purity(rho) <= 1.0 + 1e-10


def test_depolarizing_kraus_is_trace_preserving():
    for p in (0.0, 0.01, 0.5, 1.0):
        qsim.check_kraus_complete(qsim.depolarizing_kraus(p))


def test_depolarizing_kraus_rejects_bad_rate():
    with pytest.raises(ValueError):
        qsim.depolarizing_kraus(-0.1)
    with pytest.raises(ValueError):
        qsim.depolarizing_kraus(1.5)


def test_check_kraus_flags_incomplete_set():
    bad = [0.9 * np.eye(2, dtype=complex)]
    with pytest.raises(ValueError):
        qsim.check_kraus_complete(bad)


def test_kraus_channel_equals_direct_depolarizing_formula():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(0, n))
        p = float(rng.uniform(0, 1))
        rho = random_density_matrix(rng, 2**n)
        via_kraus = qsim.apply_kraus(rho, qsim.depolarizing_kraus(p), qubit=q)
        direct = qsim.apply_depolarizing_local(rho, q, p)
        assert np.max(np.abs(via_kraus - direct)) < 1e-12


def test_apply_kraus_requires_target_for_single_qubit_set():
    rho = qsim.zero_state(2)
    with pytest.raises(ValueError):
        qsim.apply_kraus(rho, qsim.depolarizing_kraus(0.3))


def test_apply_kraus_rejects_mismatched_dimension():
    rho = qsim.zero_state(2)
    bad = [np.eye(3, dtype=complex)]
    with pytest.raises(ValueError):
        qsim.apply_kraus(rho, bad)


def test_full_register_kraus_runs_as_given():
    rng = np.random.default_rng(23)
    rho = random_density_matrix(rng, 4)
    u = dense_unitary(qsim.hadamard(1), 2)
    out = qsim.apply_kraus(rho, [u])
    assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-12)


def test_full_depolarizing_reaches_maximally_mixed():
    rng = np.random.default_rng(29)
    rho = random_density_matrix(rng, 8)
    out = qsim.apply_depolarizing_local(rho, 0, 1.0)
    out = qsim.apply_depolarizing_local(out, 1, 1.0)
    out = qsim.apply_depolarizing_local(out, 2, 1.0)
    assert np.max(np.abs(out - np.eye(8) / 8.0)) < 1e-12


def test_local_depolarizing_affects_only_target_wire():
    rng = np.random.default_rng(31)
    rho = random_density_matrix(rng, 4)
    out = qsim.apply_depolarizing_local(rho, 0, 0.7)
    # reduced state of the untouched wire is unchanged
    r = rho.reshape(2, 2, 2, 2)
    o = out.reshape(2, 2, 2, 2)
    red_before = r[0, :, 0, :] + r[1, :, 1, :]
    red_after = o[0, :, 0, :] + o[1, :, 1, :]
    assert np.max(np.abs(red_before - red_after)) < 1e-12


def test_depolarizing_composition_rate():
    rng = np.random.default_rng(37)
    for _ in range(25):
        p1 = float(rng.uniform(0, 1))
        p2 = float(rng.uniform(0, 1))
        combined = qsim.compose_depolarizing(p1, p2)
        n = int(rng.integers(1, 4))
        q = int(rng.integers(0, n))
        rho = random_density_matrix(rng, 2**n)
        two_step = qsim.apply_depolarizing_local(
            qsim.apply_depolarizing_local(rho, q, p1), q, p2
        )
        one_step = qsim.apply_depolarizing_local(rho, q, combined)
        assert np.max(np.abs(two_step - one_step)) < 1e-12


def test_compose_depolarizing_identities():
    assert abs(qsim.compose_depolarizing(0.0, 0.3) - 0.3) < 1e-15
    assert qsim.compose_depolarizing(1.0, 0.3) == 1.0
    assert abs(qsim.compose_depolarizing(0.5, 0.5) - 0.75) < 1e-15


def test_partial_trace_replace_mixes_one_wire():
    rho = qsim.zero_state(2)
    out = qsim.partial_trace_replace(rho, 0)
    expected = np.kron(np.eye(2) / 2.0, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_purity_of_pure_and_mixed_states():
    assert abs(qsim.purity(qsim.zero_state(3)) - 1.0) < 1e-12
    mixed = np.eye(4, dtype=complex) / 4.0
    assert abs(qsim.purity(mixed) - 0.25) < 1e-12


def test_purity_with_complex_off_diagonals():
    # states with imaginary coherences must still give sum of squared
    # eigenvalues, and never dip below 1/D
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for w in rng.dirichlet(np.ones(3)):
            state = qsim.zero_state(n)
            for q in range(n):
                state = qsim.apply_gate(state, qsim.hadamard(q))
                state = qsim.apply_gate(
                    state, qsim.rot_z(q, float(rng.uniform(-np.pi, np.pi))))
            rho += w * state
        eigs = np.linalg.eigvalsh(rho)
        assert abs(qsim.purity(rho) - float(np.sum(eigs ** 2))) < 1e-12
        assert qsim.purity(rho) >= 1.0 / 2 ** n - 1e-12


def test_check_density_matrix_flags_violations():
    with pytest.raises(ValueError):
        qsim.check_density_matrix(2.0 * qsim.zero_state(1))
    skew = np.array([[0.5, 0.5j], [0.5j, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        qsim.check_density_matrix(skew)
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        qsim.check_density_matrix(neg)
