"""Batched evaluator checks against the gate-by-gate reference path.

The batched engine must reproduce `qkernel.kernel_eval` and the
parameter-shift rule to simulator precision; its reverse-sweep gradients
are additionally checked against finite differences of the alignment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknet import engine, learn, qkernel, qsim
from qknet.engine import FeatureMapSpec, NoiseModel

MODELS = (
    NoiseModel(),
    NoiseModel(mode="per_gate", p=0.01),
    NoiseModel(mode="global", p=0.3),
)


def forward_state_oracle(spec, theta, x, noise):
    """One data point's feature state, gate by gate through the simulator."""
    steps = [(g, False) for g in qkernel.build_circuit_gates(spec, theta, x)]
    return qkernel._run_steps(qsim.zero_state(spec.n_qubits), steps,
                              noise.per_gate_p)


def pauli_strings(n):
    """(4**n, D, D) matrices of {I, X, Y, Z}^n, qubit 0 the leading letter."""
    letters = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                        [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        out = np.einsum("aij,bkl->abikjl", out, letters).reshape(
            len(out) * 4, out.shape[1] * 2, -1)
    return out


def random_batch(rng, n_points, dim=2):
    return rng.uniform(-1.0, 1.0, size=(n_points, dim))


def balanced_labels(n_points):
    y = np.ones(n_points)
    y[: n_points // 2] = -1.0
    return y


def one_node_alignment(spec, theta, x, y, noise):
    """One node's alignment and gradient, as a one-block batched call."""
    values, grads = engine.multi_alignment_grads(spec, [theta], [x], [y], noise)
    return values[0], grads[0]


def test_feature_states_match_per_point_simulation():
    rng = np.random.default_rng(41)
    for noise in (NoiseModel(), NoiseModel(mode="per_gate", p=0.02)):
        spec = FeatureMapSpec(n_qubits=3, layers=2)
        theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        x = random_batch(rng, 4)
        states, tape = engine.feature_states(spec, theta, x, noise)
        assert tape is None
        assert states.shape == (4, 4**spec.n_qubits)
        strings = pauli_strings(spec.n_qubits)
        for i in range(4):
            rho = forward_state_oracle(spec, theta, x[i], noise)
            want = np.einsum("pij,ji->p", strings, rho).real
            assert np.max(np.abs(states[i] - want)) < 1e-12


def test_feature_states_accept_per_row_theta():
    rng = np.random.default_rng(43)
    spec = FeatureMapSpec(n_qubits=2, layers=2)
    x = random_batch(rng, 3)
    thetas = rng.uniform(-np.pi, np.pi, size=(3, spec.n_params))
    stacked, _ = engine.feature_states(spec, thetas, x)
    for i in range(3):
        single, _ = engine.feature_states(spec, thetas[i], x[i : i + 1])
        assert np.max(np.abs(stacked[i] - single[0])) < 1e-14


def test_feature_states_in_row_blocks_match_single_rows():
    rng = np.random.default_rng(47)
    spec = FeatureMapSpec(n_qubits=6, layers=2)
    noise = NoiseModel(mode="per_gate", p=0.01)
    b = 40
    assert b > 2 * engine._block_rows(spec.n_qubits)  # three blocks or more
    x = random_batch(rng, b)
    cost = rng.normal(size=(b, 4**spec.n_qubits))
    shared = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    per_row = rng.uniform(-np.pi, np.pi, size=(b, spec.n_params))
    for theta in (shared, per_row):
        states, tape = engine.feature_states(spec, theta, x, noise, record_tape=True)
        grad = engine.backward(spec, noise, tape, cost)
        sigma, walls = tape
        assert sigma.shape == (spec.layers, b, 4**spec.n_qubits)
        assert walls.shape == (spec.layers, b, spec.n_qubits, 4, 4)
        for i in range(b):
            row_theta = theta if theta.ndim == 1 else theta[i]
            single, single_tape = engine.feature_states(
                spec, row_theta, x[i : i + 1], noise, record_tape=True)
            assert np.array_equal(states[i], single[0])
            assert np.array_equal(sigma[:, i], single_tape[0][:, 0])
            assert np.array_equal(walls[:, i], single_tape[1][:, 0])
            single_grad = engine.backward(spec, noise, single_tape,
                                          cost[i : i + 1])
            assert np.max(np.abs(grad[i] - single_grad[0])) < 1e-12


def test_feature_states_arrays_are_c_ordered_and_owned_by_their_call():
    rng = np.random.default_rng(53)
    spec = FeatureMapSpec(n_qubits=5, layers=3)
    noise = NoiseModel(mode="per_gate", p=0.01)
    b = 2 * engine._block_rows(spec.n_qubits) + 3  # three blocks, the last short
    theta = rng.uniform(-np.pi, np.pi, size=(b, spec.n_params))
    states, tape = engine.feature_states(
        spec, theta, random_batch(rng, b), noise, record_tape=True)
    assert states.flags.c_contiguous
    for sigma, wall in zip(*tape):  # layer by layer
        assert sigma.flags.c_contiguous and wall.flags.c_contiguous
    kept = states.copy(), [arr.copy() for arr in tape]

    other_x = random_batch(rng, b)
    engine.feature_states(spec, theta[::-1], other_x, noise, record_tape=True)
    engine.feature_states(spec, theta, other_x, noise)
    assert np.array_equal(states, kept[0])
    for arr, copy in zip(tape, kept[1]):
        assert np.array_equal(arr, copy)


def test_backward_leaves_cost_and_tapes_unchanged():
    rng = np.random.default_rng(59)
    spec = FeatureMapSpec(n_qubits=3, layers=3)
    noise = NoiseModel(mode="per_gate", p=0.01)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    _, tape = engine.feature_states(
        spec, theta, random_batch(rng, 6), noise, record_tape=True)
    cost = rng.normal(size=(6, 4**spec.n_qubits))
    kept = cost.copy(), [arr.copy() for arr in tape]
    grad = engine.backward(spec, noise, tape, cost)
    assert np.array_equal(cost, kept[0])
    for arr, copy in zip(tape, kept[1]):
        assert np.array_equal(arr, copy)
    # a second sweep over the same tape, from a Fortran-ordered copy of the
    # cost, gives the same gradient
    again = engine.backward(spec, noise, tape, np.asfortranarray(cost))
    assert np.array_equal(grad, again)


def test_feature_states_validate_theta_shape():
    spec = FeatureMapSpec(n_qubits=2, layers=2)
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        engine.feature_states(spec, np.zeros(5), x)
    with pytest.raises(ValueError):
        engine.feature_states(spec, np.zeros((2, 4)), x)


def test_gram_matrix_equals_pairwise_reference():
    rng = np.random.default_rng(47)
    for noise in MODELS:
        spec = FeatureMapSpec(n_qubits=2, layers=2)
        theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        x = random_batch(rng, 5)
        k = engine.gram_matrix(spec, theta, x, noise)
        for i in range(5):
            for j in range(5):
                want = qkernel.kernel_eval(spec, theta, x[i], x[j], noise)
                assert abs(k[i, j] - want) < 1e-10
        assert np.max(np.abs(k - k.T)) < 1e-14
        assert np.all(k >= 0.0) and np.all(k <= 1.0)


def test_noise_free_gram_diagonal_is_one():
    rng = np.random.default_rng(59)
    spec = FeatureMapSpec(n_qubits=3, layers=3)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    x = random_batch(rng, 6)
    k = engine.gram_matrix(spec, theta, x, NoiseModel())
    assert np.max(np.abs(np.diag(k) - 1.0)) < 1e-10


@pytest.mark.parametrize("n_qubits", [1, 2, 5])
def test_global_noise_is_the_analytic_map_of_the_noise_free_kernel(n_qubits):
    """Every engine route applies `engine.analytic_noisy_kernel` and no copy,
    and either kind at rate 0 is the noise-free kernel, bit for bit."""
    rng = np.random.default_rng(73)
    spec = FeatureMapSpec(n_qubits=n_qubits, layers=2)
    noise_free, noise = NoiseModel(), NoiseModel(mode="global", p=0.3)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    x = random_batch(rng, 5)

    def mapped(k):
        return engine.analytic_noisy_kernel(k, noise.p, spec.dim)

    assert np.array_equal(engine.gram_matrix(spec, theta, x, noise),
                          mapped(engine.gram_matrix(spec, theta, x, noise_free)))
    y = balanced_labels(4)
    values, _ = engine.multi_alignment_grads(spec, [theta], [x[:4]], [y], noise)
    k_free = engine.gram_matrix(spec, theta, x[:4], noise_free)
    assert values[0] == learn.alignment(mapped(k_free), y)

    global_zero = NoiseModel(mode="global", p=0.0)
    assert np.array_equal(engine.gram_matrix(spec, theta, x, global_zero),
                          engine.gram_matrix(spec, theta, x, noise_free))
    a = engine.multi_alignment_grads(spec, [theta], [x[:4]], [y], global_zero)
    b = engine.multi_alignment_grads(spec, [theta], [x[:4]], [y], noise_free)
    assert a[0] == b[0] and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_multi_alignment_grads_match_parameter_shift(n_qubits):
    """Training's gradient against the gate-by-gate parameter-shift rule.

    Two nodes with their own parameters share one call. The reference
    alignment is that of the `qkernel.kernel_eval` Gram K, and the reference
    gradient is sum_ij W_ij dK_ij, every entry's dK from
    `qkernel.parameter_shift_gradient`, the diagonal included, with
    W = dA/dK = y yT / (n |K|_F) - A K / |K|_F^2.
    """
    rng = np.random.default_rng(89)
    spec = FeatureMapSpec(n_qubits=n_qubits, layers=2)
    ys = [np.array([1.0, -1.0, 1.0]), balanced_labels(4)]
    for noise in MODELS:
        thetas = rng.uniform(-np.pi, np.pi, size=(2, spec.n_params))
        xs = [random_batch(rng, len(y)) for y in ys]
        values, grads = engine.multi_alignment_grads(spec, thetas, xs, ys, noise)
        for theta, x, y, a, g in zip(thetas, xs, ys, values, grads):
            n = len(y)
            k = np.array([[qkernel.kernel_eval(spec, theta, xi, xj, noise)
                           for xj in x] for xi in x])
            frob = np.linalg.norm(k)
            want_a = (y @ k @ y) / (n * frob)
            w = np.outer(y, y) / (n * frob) - want_a * k / frob**2
            want_g = sum(
                w[i, j] * qkernel.parameter_shift_gradient(
                    spec, theta, x[i], x[j], noise)
                for i in range(n) for j in range(n))
            assert abs(a - want_a) < 1e-12
            assert np.max(np.abs(g - want_g)) < 1e-12


def test_alignment_value_matches_gram_route():
    rng = np.random.default_rng(71)
    for noise in MODELS:
        spec = FeatureMapSpec(n_qubits=2, layers=2)
        theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        x = random_batch(rng, 6)
        y = balanced_labels(6)
        a, _ = one_node_alignment(spec, theta, x, y, noise)
        k = engine.gram_matrix(spec, theta, x, noise)
        assert abs(a - learn.alignment(k, y)) < 1e-12


def test_alignment_grad_matches_finite_difference():
    rng = np.random.default_rng(73)
    h = 1e-6
    for noise in MODELS:
        spec = FeatureMapSpec(n_qubits=2, layers=2)
        theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        x = random_batch(rng, 4)
        y = balanced_labels(4)
        _, grad = one_node_alignment(spec, theta, x, y, noise)
        for t in range(spec.n_params):
            up = theta.copy()
            up[t] += h
            dn = theta.copy()
            dn[t] -= h
            au = learn.alignment(engine.gram_matrix(spec, up, x, noise), y)
            ad = learn.alignment(engine.gram_matrix(spec, dn, x, noise), y)
            assert abs(grad[t] - (au - ad) / (2 * h)) < 1e-6


def test_multi_alignment_matches_per_node_calls():
    rng = np.random.default_rng(79)
    spec = FeatureMapSpec(n_qubits=2, layers=2)
    noise = NoiseModel(mode="per_gate", p=0.005)
    thetas = rng.uniform(-np.pi, np.pi, size=(3, spec.n_params))
    xs = [random_batch(rng, c) for c in (4, 6, 4)]
    ys = [balanced_labels(c) for c in (4, 6, 4)]
    values, grads = engine.multi_alignment_grads(spec, thetas, xs, ys, noise)
    assert grads.shape == thetas.shape
    for i in range(3):
        a, g = one_node_alignment(spec, thetas[i], xs[i], ys[i], noise)
        assert abs(values[i] - a) < 1e-12
        assert np.max(np.abs(grads[i] - g)) < 1e-12


def test_backward_validates_tape_depth():
    spec = FeatureMapSpec(n_qubits=2, layers=2)
    states, (sigma, walls) = engine.feature_states(
        spec, np.zeros(spec.n_params), np.zeros((1, 2)), record_tape=True
    )
    with pytest.raises(ValueError, match="tape does not match the circuit depth"):
        engine.backward(spec, NoiseModel(), (sigma[:1], walls[:1]), states)


def test_gram_from_states_clips_to_unit_interval():
    rng = np.random.default_rng(83)
    spec = FeatureMapSpec(n_qubits=2, layers=1)
    states, _ = engine.feature_states(
        spec, rng.uniform(-1, 1, size=spec.n_params), random_batch(rng, 4)
    )
    k = engine.gram_from_states(states)
    assert np.all(k >= 0.0) and np.all(k <= 1.0)
    assert np.max(np.abs(np.diag(k) - 1.0)) < 1e-12


# Property tests: random circuit shapes, noise models and parameters against
# the gate-by-gate reference. Derandomized and without an example database,
# so every run draws the same cases.
PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=50
)


@st.composite
def circuits(draw):
    """(spec, noise, rng) over n <= 4 wires, <= 3 layers and both noise kinds,
    each noise-free (p = 0) in some cases."""
    spec = FeatureMapSpec(
        n_qubits=draw(st.integers(1, 4)), layers=draw(st.integers(1, 3))
    )
    mode = draw(st.sampled_from(engine.NOISE_MODES))
    top = 0.2 if mode == "per_gate" else 1.0
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, top)))
    noise = NoiseModel(mode=mode, p=p)
    return spec, noise, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@PROPERTY_SETTINGS
@given(circuits(), st.integers(1, 4), st.integers(0, 3), st.booleans())
def test_property_gram_matrix_matches_reference(case, n_train, n_test, per_row):
    """The Gram of a train set with a test set stacked below it, the input
    `learn.score` slices its train and cross blocks from."""
    spec, noise, rng = case
    x = random_batch(rng, n_train + n_test)
    shape = (len(x), spec.n_params) if per_row else (spec.n_params,)
    theta = rng.uniform(-np.pi, np.pi, size=shape)
    k = engine.gram_matrix(spec, theta, x, noise)
    for i in range(len(x)):
        for j in range(len(x)):
            if per_row:  # theta_i computes, theta_j uncomputes
                want = qkernel._interference_value(
                    spec, theta[i], theta[j], x[i], x[j], noise
                )
            else:
                want = qkernel.kernel_eval(spec, theta, x[i], x[j], noise)
            assert abs(k[i, j] - want) < 1e-10
    k_train = engine.gram_matrix(spec, theta[:n_train] if per_row else theta,
                                 x[:n_train], noise)
    assert np.max(np.abs(k[:n_train, :n_train] - k_train)) < 1e-12


@PROPERTY_SETTINGS
@given(circuits(), st.lists(st.integers(2, 5), min_size=1, max_size=3), st.booleans())
def test_property_multi_alignment_matches_per_node_calls(case, counts, shared):
    spec, noise, rng = case
    thetas = rng.uniform(-np.pi, np.pi, size=(len(counts), spec.n_params))
    if shared:
        thetas[:] = thetas[0]
    xs = [random_batch(rng, c) for c in counts]
    ys = [balanced_labels(c) for c in counts]
    values, grads = engine.multi_alignment_grads(spec, thetas, xs, ys, noise)
    for i in range(len(counts)):
        a, g = one_node_alignment(spec, thetas[i], xs[i], ys[i], noise)
        assert abs(values[i] - a) < 1e-12
        assert np.max(np.abs(grads[i] - g)) < 1e-12


@st.composite
def noisy_circuits(draw):
    """(spec, noise, rng) over n <= 4 wires and <= 4 layers, both noise kinds."""
    spec = FeatureMapSpec(
        n_qubits=draw(st.integers(1, 4)), layers=draw(st.integers(1, 4))
    )
    mode = draw(st.sampled_from(engine.NOISE_MODES))
    top = 0.2 if mode == "per_gate" else 0.9
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, top)))
    noise = NoiseModel(mode=mode, p=p)
    return spec, noise, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def noise_contraction(spec, noise):
    """Bound on |K - 1/D| / (1 - 1/D), derived in the `engine` docstring."""
    if noise.mode == "global":
        return 1.0 - noise.p
    per_layer = 8 if spec.n_qubits >= 2 else 6
    return (1.0 - noise.p) ** (per_layer * spec.layers)


@PROPERTY_SETTINGS
@given(noisy_circuits())
def test_property_noise_bounds_the_kernel(case):
    spec, noise, rng = case
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    x = rng.uniform(-np.pi, np.pi, size=(2, 2))
    bound = noise_contraction(spec, noise) * (1.0 - 1.0 / spec.dim)
    dev = np.abs(engine.gram_matrix(spec, theta, x, noise) - 1.0 / spec.dim)
    assert np.all(dev <= bound * (1.0 + 1e-9))
    if noise.mode == "global" or spec.n_qubits == 1:
        # a pure state under global noise, and one wire whose every string
        # the wall noise scales alike, reach the bound on the diagonal
        assert np.all(np.diag(dev) >= bound * (1.0 - 1e-9))


@PROPERTY_SETTINGS
@given(noisy_circuits())
def test_property_noise_bounds_the_kernel_gradient(case):
    spec, noise, rng = case
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    x = rng.uniform(-np.pi, np.pi, size=(2, 2))
    states, tape = engine.feature_states(spec, theta, x, noise, record_tape=True)
    # K = c(x) . c(x') / D, so each state's cost row is the other state / D
    cost = states[::-1] * (1.0 - noise.global_p) / spec.dim
    grad = engine.backward(spec, noise, tape, cost).sum(axis=0)
    bound = 2.0 * noise_contraction(spec, noise) * (1.0 - 1.0 / spec.dim)
    assert np.all(np.abs(grad) <= bound * (1.0 + 1e-9))
