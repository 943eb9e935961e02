"""Exact density-matrix simulation of few-qubit circuits with depolarizing noise.

States are dense complex ``(D, D)`` arrays with ``D = 2**n_qubits``. Qubit 0 is
the most significant bit of the basis index, so the basis state
``|q0 q1 ... q_{n-1}>`` sits at index ``sum(q_k * 2**(n-1-k))``.

Gate application never materializes a full ``D x D`` unitary. Single-qubit
gates contract a ``2 x 2`` matrix against the affected axis pair, and CNOT is a
basis permutation, so each gate costs ``O(D^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import MAX_QUBITS

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Gate:
    """One circuit operation: ``name`` in {h, rz, ry, cnot}.

    ``qubits`` holds the target qubit, or (control, target) for cnot.
    ``angle`` is meaningful for rz/ry only.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def adjoint(self) -> "Gate":
        if self.name in ("rz", "ry"):
            return Gate(self.name, self.qubits, -self.angle)
        return self  # h and cnot are self-inverse


def hadamard(q: int) -> Gate:
    return Gate("h", (q,))


def rot_z(q: int, angle: float) -> Gate:
    return Gate("rz", (q,), float(angle))


def rot_y(q: int, angle: float) -> Gate:
    return Gate("ry", (q,), float(angle))


def cnot(control: int, target: int) -> Gate:
    if control == target:
        raise ValueError("cnot control and target must differ")
    return Gate("cnot", (control, target))


def rot_y_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rot_z_matrix(angle: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex
    )


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of the gate on its own qubits (2x2, or 4x4 for cnot)."""
    if gate.name == "h":
        return _H.copy()
    if gate.name == "rz":
        return rot_z_matrix(gate.angle)
    if gate.name == "ry":
        return rot_y_matrix(gate.angle)
    if gate.name == "cnot":
        m = np.eye(4, dtype=complex)
        m[[2, 3]] = m[[3, 2]]
        return m
    raise ValueError(f"unknown gate name {gate.name!r}")


def n_qubits_of(rho: np.ndarray) -> int:
    d = rho.shape[0]
    n = int(round(np.log2(d)))
    if rho.shape != (d, d) or 2**n != d:
        raise ValueError(f"state shape {rho.shape} is not (2^n, 2^n)")
    return n


def zero_state(n_qubits: int) -> np.ndarray:
    """Density matrix |0...0><0...0| on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    d = 2**n_qubits
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")


def _apply_single(rho: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    """rho -> (M on qubit q) rho (M on qubit q)^dagger."""
    d = rho.shape[0]
    left = 1 << q
    right = d >> (q + 1)
    r = rho.reshape(left, 2, right, d)
    r = np.einsum("ij,ajbc->aibc", m, r)
    r = r.reshape(d, left, 2, right)
    r = np.einsum("ij,bajc->baic", m.conj(), r)
    return r.reshape(d, d)


def _cnot_permutation(control: int, target: int, n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    cbit = (idx >> (n - 1 - control)) & 1
    flipped = idx ^ (1 << (n - 1 - target))
    return np.where(cbit == 1, flipped, idx)


def apply_gate(rho: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate by conjugation, returning a new density matrix."""
    n = n_qubits_of(rho)
    for q in gate.qubits:
        _check_qubit(q, n)
    if gate.name == "cnot":
        perm = _cnot_permutation(gate.qubits[0], gate.qubits[1], n)
        return rho[np.ix_(perm, perm)]
    return _apply_single(rho, gate_matrix(gate), gate.qubits[0], n)


def apply_circuit(rho: np.ndarray, gates) -> np.ndarray:
    for g in gates:
        rho = apply_gate(rho, g)
    return rho


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """Single-qubit depolarizing channel as four Kraus operators.

    {sqrt(1 - 3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing rate must be in [0, 1], got {p}")
    return [
        np.sqrt(1.0 - 0.75 * p) * _I2,
        np.sqrt(0.25 * p) * _X,
        np.sqrt(0.25 * p) * _Y,
        np.sqrt(0.25 * p) * _Z,
    ]


def check_kraus_complete(kraus_ops) -> None:
    """Raise if sum_a E_a^dagger E_a deviates from the identity."""
    dim = kraus_ops[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for e in kraus_ops:
        acc += e.conj().T @ e
    if not np.allclose(acc, np.eye(dim), atol=1e-10):
        dev = np.max(np.abs(acc - np.eye(dim)))
        raise ValueError(f"Kraus set not trace preserving (deviation {dev:.2e})")


def apply_kraus(rho: np.ndarray, kraus_ops, qubit: int) -> np.ndarray:
    """Apply a single-qubit Kraus channel embedded on ``qubit``.

    The 2x2 set is validated for trace preservation before use.
    """
    n = n_qubits_of(rho)
    check_kraus_complete(kraus_ops)
    if kraus_ops[0].shape != (2, 2):
        raise ValueError(f"Kraus operators are {kraus_ops[0].shape}, not 2x2")
    _check_qubit(qubit, n)
    out = np.zeros_like(rho)
    for e in kraus_ops:
        out += _apply_single(rho, e, qubit, n)
    return out


def partial_trace_replace(rho: np.ndarray, qubit: int) -> np.ndarray:
    """Trace out ``qubit`` and re-embed the maximally mixed state in its place."""
    n = n_qubits_of(rho)
    _check_qubit(qubit, n)
    left = 1 << qubit
    right = rho.shape[0] >> (qubit + 1)
    r = rho.reshape(left, 2, right, left, 2, right)
    tr = r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :]
    out = np.zeros_like(r)
    out[:, 0, :, :, 0, :] = 0.5 * tr
    out[:, 1, :, :, 1, :] = 0.5 * tr
    return out.reshape(rho.shape)


def apply_depolarizing_local(rho: np.ndarray, qubit: int, p: float) -> np.ndarray:
    """Single-qubit depolarizing: rho -> (1-p) rho + p Tr_q(rho) (x) I/2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing rate must be in [0, 1], got {p}")
    if p == 0.0:
        return rho.copy()
    return (1.0 - p) * rho + p * partial_trace_replace(rho, qubit)


def compose_depolarizing(p1: float, p2: float) -> float:
    """Rate of two same-target depolarizing channels in sequence."""
    return 1.0 - (1.0 - p1) * (1.0 - p2)


def purity(rho: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", rho, rho).real)


def check_density_matrix(rho: np.ndarray, atol: float = 1e-9) -> None:
    """Raise if ``rho`` is not Hermitian, trace one, and PSD within ``atol``."""
    n_qubits_of(rho)
    if abs(np.trace(rho) - 1.0) > atol:
        raise ValueError(f"trace deviates from 1 by {abs(np.trace(rho) - 1.0):.2e}")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > atol:
        raise ValueError(f"not Hermitian, deviation {herm_dev:.2e}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -atol:
        raise ValueError(f"negative eigenvalue {min_eig:.2e}")
