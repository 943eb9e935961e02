"""Kernel alignment, its gradient, and the ridge classifier on Gram matrices.

Training maximizes the alignment between the measured Gram matrix and the
label outer product y yT; classification solves the regularized dual system
(K + lambda I) alpha = y and takes the sign of kernel-weighted sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, qkernel
from .data import LabeledDataset


class LearnError(ValueError):
    pass


def gram(spec: qkernel.FeatureMapSpec, theta, dataset: LabeledDataset,
         noise: qkernel.NoiseModel, rng=None) -> np.ndarray:
    """Gram matrix of the dataset under the given noise model.

    One engine simulation gives every entry, the diagonal included, which
    falls below 1 under noise. With shots set, each unordered pair's exact
    value is replaced by one binomial frequency.
    """
    if len(dataset) == 0:
        raise LearnError("empty dataset")
    k = engine.gram_matrix(spec, theta, dataset.x, noise)
    if noise.shots is not None:
        if rng is None:
            raise LearnError("shot sampling needs an rng")
        return _shot_sampled_symmetric(k, noise.shots, rng)
    return k


def _shot_sampled_symmetric(k: np.ndarray, shots: int, rng) -> np.ndarray:
    """One binomial frequency per unordered pair of a symmetric Gram, mirrored.

    Draws cover the upper triangle, diagonal included, in row-major order.
    """
    iu = np.triu_indices(len(k))
    out = np.zeros_like(k)
    out[iu] = qkernel.shot_sample(k[iu], shots, rng)
    return out + out.T - np.diag(np.diag(out))


def alignment(k: np.ndarray, labels) -> float:
    """Normalized Frobenius inner product with the ideal kernel."""
    y = np.asarray(labels, dtype=float)
    n = len(y)
    if k.shape != (n, n):
        raise LearnError("Gram size must match labels")
    try:
        return engine._alignment_weights(k, y)[0]
    except ValueError as exc:
        raise LearnError(str(exc)) from None


def loss(dataset: LabeledDataset, theta, spec: qkernel.FeatureMapSpec,
         noise: qkernel.NoiseModel, rng=None) -> float:
    return -alignment(gram(spec, theta, dataset, noise, rng=rng), dataset.y)


def loss_grad(dataset: LabeledDataset, theta, spec: qkernel.FeatureMapSpec,
              noise: qkernel.NoiseModel) -> tuple[float, np.ndarray]:
    """Loss and its gradient; exact expectations only (no shot noise)."""
    if noise.shots is not None:
        raise LearnError("gradients require exact expectations, not shots")
    values, grads = engine.multi_alignment_grads(
        spec, [theta], [dataset.x], [dataset.y], noise)
    return -values[0], -grads[0]


def noisy_alignment_grad_analytic(k: np.ndarray, dk: np.ndarray, p: float,
                                  dim: int, labels) -> float:
    """Depolarizing-shifted alignment gradient for one parameter.

    Takes the noiseless Gram and its entrywise derivative; evaluates the
    closed form in which each denominator kernel entry is shifted by
    p/((1-p) dim). Valid for balanced labels, where the shift cancels from
    the numerator inner product.
    """
    y = np.asarray(labels, dtype=float)
    if len(y) % 2 != 0 or int(np.sum(y)) != 0:
        raise LearnError("analytic form assumes balanced labels")
    if not 0.0 <= p < 1.0:
        raise LearnError("p must lie in [0, 1)")
    n = len(y)
    shifted = k + p / ((1.0 - p) * dim)
    s = float(np.sum(shifted * shifted))
    num_d = float(y @ dk @ y)
    num = float(y @ k @ y)
    return num_d / (n * np.sqrt(s)) - num * float(np.sum(shifted * dk)) / (n * s ** 1.5)


@dataclass(frozen=True)
class RidgeModel:
    alpha: np.ndarray
    lam: float


def fit_ridge(k: np.ndarray, labels, lam: float = 0.1) -> RidgeModel:
    """Solve (K + lam I) alpha = y; residual checked to 1e-8."""
    if not lam > 0:
        raise LearnError("lambda must be positive")
    y = np.asarray(labels, dtype=float)
    n = len(y)
    if k.shape != (n, n):
        raise LearnError("Gram size must match labels")
    system = k + lam * np.eye(n)
    alpha = np.linalg.solve(system, y)
    residual = float(np.linalg.norm(system @ alpha - y))
    if residual > 1e-8:
        raise LearnError(f"ridge solve residual {residual:.2e} above 1e-8")
    return RidgeModel(alpha=alpha, lam=lam)


def predict(model: RidgeModel, k_vec: np.ndarray) -> np.ndarray:
    """Label from kernel values against the training set; ties go to +1."""
    k_vec = np.asarray(k_vec, dtype=float)
    scores = k_vec @ model.alpha
    return np.where(scores >= 0.0, 1, -1)


def score(spec: qkernel.FeatureMapSpec, theta, train: LabeledDataset,
          test: LabeledDataset, noise: qkernel.NoiseModel, lam: float = 0.1,
          rng=None, splits=None):
    """Accuracy of the ridge model trained on `train`, evaluated on `test`.

    `splits` is a sequence of (train rows, test rows) index pairs into `train`
    and `test`. With it, one simulation of both sets serves every split and
    the result is one accuracy per split, each as if `score` had been called
    on those subsets in turn (shot draws included, in split order).
    """
    if len(train) == 0 or len(test) == 0:
        raise LearnError("empty train or test set")
    if noise.shots is not None and rng is None:
        raise LearnError("shot sampling needs an rng")
    k_train, k_cross = engine.train_test_grams(spec, theta, train.x, test.x, noise)
    whole = splits is None
    if whole:
        splits = [(range(len(train)), range(len(test)))]
    accuracies = []
    for tr, te in splits:
        tr, te = np.asarray(tr, dtype=int), np.asarray(te, dtype=int)
        if len(tr) == 0 or len(te) == 0:
            raise LearnError("empty train or test set")
        k_tr, k_te = k_train[np.ix_(tr, tr)], k_cross[np.ix_(te, tr)]
        if noise.shots is not None:
            k_tr = _shot_sampled_symmetric(k_tr, noise.shots, rng)
            k_te = qkernel.shot_sample(k_te, noise.shots, rng)
        model = fit_ridge(k_tr, train.y[tr], lam)
        pred = predict(model, k_te)
        accuracies.append(float(np.mean(pred == test.y[te])))
    return accuracies[0] if whole else accuracies
