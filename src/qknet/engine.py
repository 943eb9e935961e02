"""Batched Pauli-transfer evaluation of feature-map states and gradients.

The module owns what a circuit and its noise are: `FeatureMapSpec`,
`NoiseModel` and the global analytic map, which the gate-by-gate reference
(`qsim` + `qkernel`) reads too. `qkernel.kernel_eval` walks the interference
circuit one gate at a time, which is the readable reference path; a run never
loads it. Training loops need thousands of kernel entries per round, so this
module simulates the forward feature map for a whole batch of data points at
once and derives kernel matrices from the Hilbert-Schmidt inner products
K(x, x') = Tr[rho(x) rho(x')]. The identity
is exact under every `NoiseModel`, because the per-gate channels of the
uncompute half mirror those of the compute half: the uncompute half is the
channel adjoint of the compute half, so its adjoint-propagated projector
equals the forward state of the other point.

Each state is its real vector of 4^n Pauli coefficients c_P = Tr[rho P] over
the strings P in {I, X, Y, Z}^n, qubit 0 being the most significant base-4
digit (Pauli transfer matrices; Greenbaum, arXiv:1509.02921). Since
Tr[P Q] = D delta_PQ, the kernel is the real dot product c.c' / D. A wall
RY(theta) RZ(x_f) H is a real 4x4 matrix per wire, applied as n batched
matmuls; local depolarizing scales every string with a non-identity letter on
the wire by (1 - p); a CNOT maps each string to plus or minus another string.
Masks and signed permutations compose, so the wall noise and the CNOT ring
with its interleaved per-gate noise fold into one gather c <- s * c[src],
built once per noise model. Folding the wall noise is exact because
depolarizing commutes with every unitary on its own wire: the channels after
H, RZ and RY move past the rest of the wall and merge into one at the rate
1 - (1 - p)^3. CNOT does not commute with local depolarizing, so the ring
noise keeps its place between the CNOTs.

Noise bound: write a state as c_I = 1 and v, the other strings'
coefficients; a pure state has |v|^2 = D - 1. Unitaries fix the identity
string and rotate v, and a channel on a wire scales the strings nontrivial on
it by 1 - p. Each layer's wall noise scales all of v by (1 - p)^3, and at
n >= 2 its ring at least once more (a CNOT keeps a string nontrivial on its
pair), so K - 1/D = v.v' / D gives |K - 1/D| <= (1 - p)^(8L) (1 - 1/D); at
n = 1 the exponent is 6L and the diagonal attains it. RY's derivative maps v
into itself with norm at most 1 and commutes with its wire's channel, so
|dK/dtheta_t| <= 2 (1 - p)^(8L) (1 - 1/D). The global map scales K - 1/D by
1 - p.

Memory layout: every (rows, 4^n) array of the forward pass and the reverse
sweep is C-ordered and written in place. The wall reads its input as a
transposed (rows, 4^(n-1), 4) view, which BLAS takes without a copy only
when the rows are C-ordered; `c[:, src]` would return a Fortran-ordered
array, so the gather is `take(..., out=rows, mode="clip")` into C-ordered
rows. The default mode="raise" buffers `out` and copies it back; "clip"
writes straight into it and never changes an index, since `src` is a
permutation. Each forward layer gathers into its block's own rows of the
returned states, and the reverse sweep into its gather buffer; the next
wall reads those rows and takes them as its second temporary, so a call
keeps one scratch row block beside what it returns (two without a tape,
whose wall output is scratch too). The training call writes its cost
vectors over the states, which nothing reads afterwards. An evaluation
keeps only the training states: `train_test_grams` simulates the test rows
one row block at a time, turns each block into its rows of the cross Gram
and frees it before the next, so its largest array is the training states
rather than the states of every point. Each call allocates its own
scratch, states and tape arrays, so tapes from two calls never share
memory.

Gradients come from one reverse sweep per batch (adjoint-state method; Jones
& Gacon, arXiv:2009.02823) instead of per-parameter shifted evaluations. Both
routes are cross-checked in the test suite; the parameter-shift rule stays
the reference.

``feature_states`` takes a single parameter vector shared by the batch or one
vector per row, so that one training call carries every node's rows with its
node's parameters. An evaluation scores one model, so `train_test_grams` and
`gram_matrix` take one (T,) vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 12
NOISE_MODES = ("per_gate", "global")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Circuit shape: ``n_qubits`` wires, ``layers`` re-uploading layers."""

    n_qubits: int = 5
    layers: int = 8

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
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
    """The noise channel of kernel evaluation: a kind and a rate.

    ``mode`` is the kind, per_gate or global, and ``p`` its rate; p = 0 is
    noise-free under either kind. per_gate is local depolarizing at rate
    p_tilde = p on the wires of every gate. Its channels follow each gate of
    the compute half and mirror it in the uncompute half, preceding each
    adjoint gate, so the uncompute half is the exact channel adjoint of the
    compute half and the kernel is symmetric. global mixes the noise-free
    kernel value toward 1/D at rate p (`analytic_noisy_kernel`). Only this
    class reads ``mode``: simulators read ``per_gate_p`` and ``global_p``.
    Finite shots are not part of the channel; ``learn.score`` samples them.
    """

    mode: str = "per_gate"
    p: float = 0.0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.p}")

    @property
    def per_gate_p(self) -> float:
        """Depolarizing rate after each gate: ``p`` under per_gate, else 0."""
        return self.p if self.mode == "per_gate" else 0.0

    @property
    def global_p(self) -> float:
        """Rate of the global analytic map: ``p`` under global, else 0."""
        return self.p if self.mode == "global" else 0.0


def analytic_noisy_kernel(k_exact, p: float, dim: int):
    """Mix an exact kernel value toward the flat baseline: (1-p) K + p / D.

    The one place the global map is written; elementwise on arrays. At
    p = 0 it returns ``k_exact`` itself.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if p == 0.0:
        return k_exact
    return (1.0 - p) * k_exact + p / dim

_I, _X, _Y, _Z = range(4)  # Pauli letters, as base-4 digits of a string index

DEGENERATE_FROBENIUS = 1e-24
"""A Gram whose squared Frobenius norm is below this has no alignment."""

_BLOCK_BYTES = 512 * 1024
"""Bytes of one (rows, 4**n) temporary of the forward pass.

The per-row cost of the forward pass grows with the batch once its
temporaries no longer fit in the core's cache, so rows are simulated in
blocks of this many bytes: 64 rows at n = 5 and 16 at n = 6. On a 2 MiB L2
this halved the per-row cost of a 160-row batch at both sizes against a
single block; 256 KiB split the 16-row training batches at n = 6 in two,
which was slower than one block.
"""


def _digit(strings: np.ndarray, q: int, n: int) -> np.ndarray:
    return (strings >> (2 * (n - 1 - q))) & 3


def _cnot_map(control: int, target: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, sign) with CNOT P CNOT = sign * src[P], letters as X and Z bits.

    CNOT copies the control's X bit onto the target and the target's Z bit
    onto the control; the sign is the Aaronson-Gottesman tableau update.
    """
    strings = np.arange(4**n)
    a, b = _digit(strings, control, n), _digit(strings, target, n)
    xa, za = ((a + 1) >> 1) & 1, a >> 1
    xb, zb = ((b + 1) >> 1) & 1, b >> 1
    sign = 1 - 2 * (xa & zb & (xb ^ za ^ 1))
    xb, za = xb ^ xa, za ^ zb
    new_a, new_b = 2 * za + (xa ^ za), 2 * zb + (xb ^ zb)
    src = (strings + ((new_a - a) << (2 * (n - 1 - control)))
           + ((new_b - b) << (2 * (n - 1 - target))))
    return src, sign.astype(float)


@lru_cache(maxsize=16)
def _layer_gather(n: int, p_gate: float):
    """Wall noise, then the CNOT ring with its per-gate noise, as one gather.

    The wall's three channels fuse into one at the rate 1 - (1 - p_gate)^3.
    Returns ``(src, s, inv, s_inv)``: the forward map is c <- s * c[:, src],
    its transpose lam <- s_inv * lam[:, inv]. Cached arrays are read-only.
    """
    strings = np.arange(4**n)
    nontrivial = [(_digit(strings, q, n) != _I).astype(int) for q in range(n)]
    src = strings
    p_wall = 1.0 - (1.0 - p_gate) ** 3
    s = (1.0 - p_wall) ** np.sum(nontrivial, axis=0)
    for k in range(n if n > 1 else 0):
        qa, qb = k, (k + 1) % n
        perm, sign = _cnot_map(qa, qb, n)
        src, s = src[perm], sign * s[perm]
        s = s * (1.0 - p_gate) ** (nontrivial[qa] + nontrivial[qb])
    inv = np.argsort(src)
    out = (src, s, inv, s[inv])
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _zero_state(n: int) -> np.ndarray:
    """|0..0><0..0| as a read-only Pauli vector: c = 1 on the I/Z strings."""
    strings = np.arange(4**n)
    zero = np.all([_digit(strings, q, n) % 3 == 0 for q in range(n)], axis=0).astype(float)
    zero.setflags(write=False)
    return zero


def _wall_ptms(
    spec: FeatureMapSpec, cos_theta: np.ndarray, sin_theta: np.ndarray,
    x: np.ndarray, assign
) -> np.ndarray:
    """(L, B, n, 4, 4) Pauli transfer matrices of every RY(theta) RZ(x_f) H wall.

    ``cos_theta`` and ``sin_theta`` are (B, T), the cosines and sines of one
    parameter vector per row of ``x``. Rows of each 4x4 matrix are the output
    letters I, X, Y, Z; the identity letter is fixed.
    """
    layers, n = spec.layers, spec.n_qubits
    z = x[:, list(assign)]
    cz, sz = np.cos(z), np.sin(z)
    ct, st = (a.reshape(-1, layers, n).swapaxes(0, 1)
              for a in (cos_theta, sin_theta))
    m = np.zeros((layers,) + z.shape + (4, 4))
    m[..., _I, _I] = 1.0
    m[..., _X, _X] = st
    m[..., _X, _Y] = ct * sz
    m[..., _X, _Z] = ct * cz
    m[..., _Y, _Y] = -cz
    m[..., _Y, _Z] = sz
    m[..., _Z, _X] = ct
    m[..., _Z, _Y] = -st * sz
    m[..., _Z, _Z] = -st * cz
    return m


def _apply_wall(c: np.ndarray, mats: np.ndarray, out: np.ndarray,
                tmp: tuple[np.ndarray, np.ndarray]) -> None:
    """Write into ``out`` the wall of one 4x4 matrix per row and wire.

    ``mats`` is (B, n, 4, 4) and ``tmp`` two (B, 4**n) scratch row blocks.
    ``tmp[1]`` may be ``c`` itself, which the wall then overwrites, since
    the first step reads ``c`` into ``tmp[0]``; ``out`` overlaps neither
    ``c`` nor ``tmp``. Each step contracts the leading digit and writes it
    as the trailing one, so after n steps the digits are back in their
    original order. Every operand is a C-ordered array or a transposed view
    of one, which BLAS takes without a copy.
    """
    b, n = c.shape[0], mats.shape[1]
    for q in range(n):
        dst = out if q == n - 1 else tmp[q % 2]
        np.matmul(c.reshape(b, 4, -1).swapaxes(1, 2), mats[:, q].swapaxes(1, 2),
                  out=dst.reshape(b, -1, 4))
        c = dst


def _gather(c: np.ndarray, src: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """out <- s * c[:, src], written in place; ``src`` is a permutation."""
    c.take(src, axis=1, out=out, mode="clip")
    np.multiply(out, s, out=out)


def _check_theta(spec: FeatureMapSpec, theta: np.ndarray, b: int) -> None:
    if theta.shape != (spec.n_params,) and theta.shape != (b, spec.n_params):
        raise ValueError(
            f"theta must have shape ({spec.n_params},) or ({b}, {spec.n_params}),"
            f" got {theta.shape}"
        )


def _block_rows(n: int) -> int:
    """Rows per forward block: the (rows, 4**n) temporaries stay in cache."""
    return max(1, _BLOCK_BYTES // (8 * 4**n))


def feature_states(
    spec: FeatureMapSpec,
    theta,
    x,
    noise: NoiseModel = NoiseModel(),
    record_tape: bool = False,
):
    """Simulate the noisy feature map for every row of ``x``.

    Returns ``(states, tape)``: ``states`` is (B, 4**n), each row the Pauli
    coefficients Tr[rho P] of one feature state. ``tape`` is None unless
    ``record_tape``; then it is ``(sigma, walls)``: each layer's (B, 4**n)
    states right after its wall and its (B, n, 4, 4) wall transfer matrices,
    stacked over the L layers. Rows are simulated in blocks of
    ``_block_rows(n)``; rows are independent, so the result does not depend
    on the block size.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b = x.shape[0]
    _check_theta(spec, theta, b)
    # the trig of a shared (T,) theta is taken once, not once per row
    cos_t, sin_t = (np.broadcast_to(f(theta), (b, spec.n_params))
                    for f in (np.cos, np.sin))
    n, layers = spec.n_qubits, spec.layers
    assign = spec.feature_assignment(x.shape[1])
    src, s, _, _ = _layer_gather(n, noise.per_gate_p)

    zero = _zero_state(n)
    states = np.empty((b, zero.size))
    step = min(_block_rows(n), b) or 1
    # a wall temporary and, without a tape, the wall output; every layer
    # gathers into the block's own rows of `states`
    scratch = np.empty((1 if record_tape else 2, step, zero.size))
    if record_tape:
        sigma = np.empty((layers, b, zero.size))
        walls = np.empty((layers, b, n, 4, 4))

    for lo in range(0, b, step):
        hi = min(lo + step, b)
        rows = states[lo:hi]
        tmp = (scratch[0, : hi - lo], rows)
        mats = _wall_ptms(spec, cos_t[lo:hi], sin_t[lo:hi], x[lo:hi], assign)
        if record_tape:
            walls[:, lo:hi] = mats
        c = np.broadcast_to(zero, rows.shape)
        for layer in range(layers):
            wall_out = sigma[layer, lo:hi] if record_tape else scratch[1, : hi - lo]
            _apply_wall(c, mats[layer], wall_out, tmp)
            _gather(wall_out, src, s, rows)
            c = rows
    return states, (sigma, walls) if record_tape else None


def gram_from_states(states: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Gram K[i, j] = c(i) . c'(j) / D of (rows, 4**n) states, clipped to [0, 1].

    ``c'`` are the rows of ``other``, by default ``states`` themselves.
    """
    k = states @ (states if other is None else other).T
    k /= math.isqrt(states.shape[1])
    return np.clip(k, 0.0, 1.0, out=k)


def backward(
    spec: FeatureMapSpec,
    noise: NoiseModel,
    tape: tuple[np.ndarray, np.ndarray],
    cost_ops: np.ndarray,
) -> np.ndarray:
    """Per-row gradients of lam_b . c_b(theta) for (B, 4**n) cost vectors.

    ``tape`` is the ``(sigma, walls)`` pair of a forward pass with the same
    noise model. The costate is pulled back through each layer's transposed
    gather and wall; the first layer's wall is skipped, since nothing reads
    its result.
    RY on wire q generates Z -> X and X -> -Z, so at its wall theta_q
    contributes sum lam[X on q] sigma[Z on q] - lam[Z on q] sigma[X on q].
    The global analytic map is an affine rescale the caller applies to the
    cost weights. The result is (B, T); its row sum is the gradient of
    sum_b lam_b . c_b when every row carries the same theta.
    """
    n = spec.n_qubits
    sigma, walls = tape
    if len(sigma) != spec.layers or len(walls) != spec.layers:
        raise ValueError("tape does not match the circuit depth")
    _, _, inv, s_inv = _layer_gather(n, noise.per_gate_p)
    lam = np.array(cost_ops, dtype=float, order="C")
    b = lam.shape[0]
    buf = np.empty_like(lam)
    tmp = (np.empty_like(lam), buf)  # the wall's input is its second temporary
    grad = np.zeros((b, spec.n_params))
    for layer in range(spec.layers - 1, -1, -1):
        _gather(lam, inv, s_inv, buf)
        for q in range(n):
            lv = buf.reshape(b, 4**q, 4, -1)
            sv = sigma[layer].reshape(b, 4**q, 4, -1)
            grad[:, layer * n + q] = (
                np.einsum("blr,blr->b", lv[:, :, _X], sv[:, :, _Z])
                - np.einsum("blr,blr->b", lv[:, :, _Z], sv[:, :, _X])
            )
        if layer:
            _apply_wall(buf, walls[layer].swapaxes(2, 3), lam, tmp)
    return grad


def train_test_grams(
    spec: FeatureMapSpec, theta, x_train, x_test, noise: NoiseModel
) -> tuple[np.ndarray, np.ndarray]:
    """The train Gram and the test-by-train cross Gram, as exact expectations.

    ``theta`` is the one (T,) parameter vector of every row. The training
    states are simulated and kept; the test rows are simulated
    ``_block_rows(n)`` at a time, and each block becomes its rows of the
    cross Gram and is freed before the next is simulated. The test-by-test
    block is never computed. One forward simulation and the state overlaps
    serve both noise kinds, since per-gate noise is always mirrored in the
    uncompute half.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.n_params,):
        raise ValueError(
            f"theta must have shape ({spec.n_params},), got {theta.shape}")
    x_train, x_test = (np.atleast_2d(np.asarray(x, dtype=float))
                       for x in (x_train, x_test))
    train, _ = feature_states(spec, theta, x_train, noise)
    k_cross = np.empty((len(x_test), len(x_train)))
    step = _block_rows(spec.n_qubits)
    for lo in range(0, len(x_test), step):
        # one statement, so the block's states are freed before the next;
        # BLAS runs the (train, block) product faster than (block, train)
        k_cross[lo:lo + step] = gram_from_states(train, feature_states(
            spec, theta, x_test[lo:lo + step], noise)[0]).T
    return tuple(analytic_noisy_kernel(k, noise.global_p, spec.dim)
                 for k in (gram_from_states(train), k_cross))


def gram_matrix(spec: FeatureMapSpec, theta, x, noise: NoiseModel) -> np.ndarray:
    """Full Gram matrix, diagonal included, as exact expectation values."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return train_test_grams(spec, theta, x, x[:0], noise)[0]


def _alignment_weights(k: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Alignment of K with y yT and dA/dK, by the quotient rule."""
    n = len(y)
    frob = float(np.sum(k * k))
    if frob < DEGENERATE_FROBENIUS:
        raise ValueError("degenerate kernel: zero Frobenius norm")
    num = float(y @ k @ y)
    a = num / (n * np.sqrt(frob))
    w = np.outer(y, y) / (n * np.sqrt(frob)) - (num / (n * frob ** 1.5)) * k
    return a, w


def multi_alignment_grads(
    spec: FeatureMapSpec, thetas, xs, ys, noise: NoiseModel
) -> tuple[list[float], np.ndarray]:
    """Per-node alignments and gradients in one batched simulation.

    ``thetas`` is (N, T); ``xs``/``ys`` list one data block per node. All
    nodes' rows share a single forward/backward pass, with each row carrying
    its node's parameters; per-node gradients are the row sums of the
    sweep's per-row gradients over that node's block. Each node's alignment
    gradient takes the dA/dK weights as the cost vectors
    (2 / D) sum_j W_bj c_j, since each state enters the Gram bilinearly.
    """
    thetas = np.asarray(thetas, dtype=float)
    xs = [np.atleast_2d(np.asarray(x, float)) for x in xs]
    counts = [len(x) for x in xs]
    cuts = np.cumsum(counts)[:-1]  # the row offsets between node blocks
    theta_rows = np.repeat(thetas, counts, axis=0)
    states, tape = feature_states(spec, theta_rows, np.vstack(xs), noise,
                                  record_tape=True)
    scale = 1.0 - noise.global_p
    values = []
    for block, y in zip(np.split(states, cuts), ys):
        k = analytic_noisy_kernel(gram_from_states(block), noise.global_p, spec.dim)
        a, w = _alignment_weights(k, np.asarray(y, dtype=float))
        values.append(a)
        block[:] = (2.0 * scale / spec.dim) * (w @ block)  # the cost vectors
    per_row = backward(spec, noise, tape, states)
    grads = np.array([rows.sum(axis=0) for rows in np.split(per_row, cuts)])
    return values, grads
