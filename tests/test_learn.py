"""Alignment, shot sampling, and the ridge classifier on Gram matrices."""

import numpy as np
import pytest

from qknet import engine, learn
from qknet.data import LabeledDataset
from qknet.engine import FeatureMapSpec, NoiseModel


def random_psd_gram(rng, n):
    a = rng.normal(size=(n, n))
    k = a @ a.T
    d = np.sqrt(np.diag(k))
    return k / np.outer(d, d)  # unit diagonal


def balanced_labels(rng, n):
    y = np.array([1, -1] * (n // 2))
    return y[rng.permutation(n)]


def small_dataset(rng, n=4):
    return LabeledDataset(
        rng.uniform(-1, 1, size=(n, 2)), balanced_labels(rng, n)
    )


def test_alignment_of_ideal_kernel_is_one():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8):
        y = balanced_labels(rng, n)
        assert abs(learn.alignment(np.outer(y, y), y) - 1.0) < 1e-12


def test_alignment_hand_computed_value():
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
    y = np.array([1, -1])
    # y K y = 1, ||K||_F = sqrt(2.5), n = 2
    assert abs(learn.alignment(k, y) - 1.0 / (2 * np.sqrt(2.5))) < 1e-14


def test_alignment_is_scale_invariant():
    rng = np.random.default_rng(5)
    k = random_psd_gram(rng, 6)
    y = balanced_labels(rng, 6)
    a = learn.alignment(k, y)
    assert abs(learn.alignment(3.7 * k, y) - a) < 1e-12


def test_alignment_bounds():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = random_psd_gram(rng, 6)
        y = balanced_labels(rng, 6)
        assert -1.0 - 1e-12 <= learn.alignment(k, y) <= 1.0 + 1e-12


def test_alignment_rejects_degenerate_and_mismatched():
    with pytest.raises(learn.LearnError):
        learn.alignment(np.zeros((3, 3)), [1, -1, 1])
    with pytest.raises(learn.LearnError):
        learn.alignment(np.eye(3), [1, -1])


def test_alignment_grad_weights_match_finite_difference():
    rng = np.random.default_rng(11)
    k = random_psd_gram(rng, 5)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])  # unbalanced is fine here
    a, w = engine._alignment_weights(k, y)
    assert abs(a - learn.alignment(k, y)) < 1e-14
    h = 1e-7
    for i in range(5):
        for j in range(5):
            kp = k.copy()
            kp[i, j] += h
            km = k.copy()
            km[i, j] -= h
            fd = (learn.alignment(kp, y) - learn.alignment(km, y)) / (2 * h)
            assert abs(w[i, j] - fd) < 1e-6


def test_shot_sample_scalar_and_array():
    rng = np.random.default_rng(5)
    v = learn.shot_sample(0.5, 100, rng)
    assert isinstance(v, float)
    assert 0.0 <= v <= 1.0
    assert v * 100 == round(v * 100)
    arr = learn.shot_sample(np.array([0.0, 1.0, 0.3]), 50, rng)
    assert arr.shape == (3,)
    assert arr[0] == 0.0 and arr[1] == 1.0


def test_shot_sample_converges_to_mean():
    rng = np.random.default_rng(7)
    draws = [learn.shot_sample(0.3, 200, rng) for _ in range(300)]
    assert abs(np.mean(draws) - 0.3) < 0.01


def test_shot_sample_rejects_bad_inputs():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        learn.shot_sample(0.5, 0, rng)
    with pytest.raises(ValueError):
        learn.shot_sample(1.2, 10, rng)
    with pytest.raises(ValueError):
        learn.shot_sample(np.array([0.5, -0.1]), 10, rng)


def test_gram_with_shots_is_symmetric_on_grid():
    rng = np.random.default_rng(17)
    spec = FeatureMapSpec(n_qubits=2, layers=1)
    ds = small_dataset(rng, 4)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    k_exact = engine.gram_matrix(spec, theta, ds.x, NoiseModel())
    k = learn._shot_sampled_symmetric(k_exact, 32, np.random.default_rng(0))
    assert np.max(np.abs(k - k.T)) == 0.0
    assert np.all(np.abs(k * 32 - np.round(k * 32)) < 1e-9)


def test_fit_ridge_solves_regularized_system():
    rng = np.random.default_rng(41)
    k = random_psd_gram(rng, 6)
    y = balanced_labels(rng, 6).astype(float)
    alpha = learn.fit_ridge(k, y, lam=0.1)
    assert np.max(np.abs((k + 0.1 * np.eye(6)) @ alpha - y)) < 1e-8


def test_fit_ridge_accepts_tiny_lambda_on_a_low_rank_gram():
    # the residual grows like 1 / lam here while the backward error stays at
    # rounding level; an absolute residual bound would reject these solves
    rng = np.random.default_rng(47)
    f = rng.normal(size=(8, 2))
    k = f @ f.T
    y = balanced_labels(rng, 8).astype(float)
    for lam in (1e-8, 1e-10, 1e-12):
        alpha = learn.fit_ridge(k, y, lam=lam)
        system = k + lam * np.eye(8)
        backward = np.linalg.norm(system @ alpha - y) / (
            np.linalg.norm(system) * np.linalg.norm(alpha) + np.linalg.norm(y))
        assert backward < 1e-15


def test_fit_ridge_validates_inputs():
    with pytest.raises(learn.LearnError):
        learn.fit_ridge(np.eye(3), [1, -1, 1], lam=0.0)
    with pytest.raises(learn.LearnError):
        learn.fit_ridge(np.eye(3), [1, -1])
    nan_gram = np.eye(4)
    nan_gram[1, 2] = nan_gram[2, 1] = np.nan
    with pytest.raises(learn.LearnError, match="residual nan"):
        learn.fit_ridge(nan_gram, [1, -1, 1, -1])


def test_predict_signs_and_ties():
    alpha = np.array([1.0, -1.0])
    k_vec = np.array([[1.0, 0.2], [0.2, 1.0], [0.5, 0.5]])
    assert np.array_equal(learn.predict(alpha, k_vec), [1, -1, 1])


def test_ridge_on_ideal_kernel_recovers_labels():
    rng = np.random.default_rng(43)
    y = balanced_labels(rng, 8)
    k = np.outer(y, y).astype(float)
    alpha = learn.fit_ridge(k, y, lam=0.5)
    assert np.array_equal(learn.predict(alpha, k), y)


def test_score_is_perfect_on_well_separated_data():
    # two tight clusters; the kernel separates them at theta = 0 already
    spec = FeatureMapSpec(n_qubits=2, layers=2)
    x = np.array([[0.1, 0.1], [0.12, 0.1], [0.9, 0.9], [0.9, 0.88]])
    y = np.array([1, 1, -1, -1])
    train = LabeledDataset(x, y)
    test = LabeledDataset(x + 0.005, y)
    theta = np.zeros(spec.n_params)
    acc = learn.score(spec, theta, train, test, NoiseModel())
    assert acc == 1.0


def test_score_with_shots_needs_rng():
    spec = FeatureMapSpec(n_qubits=2, layers=1)
    ds = LabeledDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1, -1]))
    with pytest.raises(learn.LearnError):
        learn.score(spec, np.zeros(spec.n_params), ds, ds, NoiseModel(), shots=8)
    acc = learn.score(
        spec, np.zeros(spec.n_params), ds, ds, NoiseModel(), shots=64,
        rng=np.random.default_rng(1),
    )
    assert 0.0 <= acc <= 1.0


def reference_score(spec, theta, train, test, noise, lam, shots, rng):
    """Ridge accuracy step by step; shots sample the train Gram first."""
    k = engine.gram_matrix(spec, theta, np.vstack([train.x, test.x]), noise)
    k_train, k_cross = k[: len(train), : len(train)], k[len(train) :, : len(train)]
    if shots:
        k_train = learn._shot_sampled_symmetric(k_train, shots, rng)
        k_cross = learn.shot_sample(k_cross, shots, rng)
    alpha = learn.fit_ridge(k_train, train.y, lam)
    return float(np.mean(learn.predict(alpha, k_cross) == test.y))


def test_score_splits_match_separate_calls_on_subsets():
    rng = np.random.default_rng(29)
    spec = FeatureMapSpec(n_qubits=3, layers=2)
    train, test = small_dataset(rng, 12), small_dataset(rng, 10)
    theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    splits = [(range(0, 6), range(0, 5)), (range(0, 6), range(10)),
              ([1, 3, 5, 7, 9, 11], [0, 2, 4, 6]), (range(12), range(10))]
    noise = NoiseModel(mode="per_gate", p=0.01)
    for shots in (0, 8):
        rngs = [np.random.default_rng(7) if shots else None for _ in range(3)]
        got = learn.score(spec, theta, train, test, noise, 0.1, shots=shots,
                          rng=rngs[0], splits=splits)
        apart = [learn.score(spec, theta, train.subset(tr), test.subset(te),
                             noise, 0.1, shots=shots, rng=rngs[1])
                 for tr, te in splits]
        steps = [reference_score(spec, theta, train.subset(tr), test.subset(te),
                                 noise, 0.1, shots, rngs[2]) for tr, te in splits]
        assert got == apart == steps
        if shots:  # the same draws, in the same order
            assert rngs[0].random() == rngs[1].random() == rngs[2].random()


def test_score_rejects_empty_sets():
    spec = FeatureMapSpec(n_qubits=2, layers=1)
    ds = LabeledDataset(np.array([[0.0, 0.0]]), np.array([1]))
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(learn.LearnError):
        learn.score(spec, np.zeros(spec.n_params), ds, empty, NoiseModel())
    with pytest.raises(learn.LearnError):
        learn.score(spec, np.zeros(spec.n_params), ds, ds, NoiseModel(),
                    splits=[([0], [])])
