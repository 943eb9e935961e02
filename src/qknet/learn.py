"""Kernel alignment and the ridge classifier on Gram matrices.

Training maximizes the alignment between the measured Gram matrix and the
label outer product y yT, by ``engine.multi_alignment_grads``; the ridge
classifier solves (K + lambda I) alpha = y and takes the sign of
kernel-weighted sums. Scoring may estimate each kernel value from shots.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .data import LabeledDataset
from .engine import FeatureMapSpec, NoiseModel


class LearnError(ValueError):
    pass


def shot_sample(k_value, shots: int, rng: np.random.Generator):
    """Mean of ``shots`` Bernoulli(k_value) draws; elementwise on arrays."""
    if shots < 1:
        raise ValueError("shots must be a positive count")
    k = np.asarray(k_value, dtype=float)
    if np.any(k < 0.0) or np.any(k > 1.0):
        raise ValueError("kernel values must be in [0, 1]")
    return rng.binomial(shots, k) / float(shots)


def _shot_sampled_symmetric(k: np.ndarray, shots: int, rng) -> np.ndarray:
    """One binomial frequency per unordered pair of a symmetric Gram, mirrored.

    Draws cover the upper triangle, diagonal included, in row-major order.
    """
    iu = np.triu_indices(len(k))
    out = np.zeros_like(k)
    out[iu] = shot_sample(k[iu], shots, rng)
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


def _scaled_norm(a: np.ndarray) -> tuple[float, float]:
    """The Frobenius norm of ``a`` as a pair (m, |a / m|) with m its largest
    magnitude, so that neither factor overflows or underflows where the norm
    itself would, as at an extreme lambda."""
    m = float(np.abs(a).max()) or 1.0
    return m, float(np.linalg.norm(a / m))


def fit_ridge(k: np.ndarray, labels, lam: float = 0.1) -> np.ndarray:
    """Dual weights alpha of (K + lam I) alpha = y.

    The solve is checked by its normwise backward error: the residual may be
    at most n * eps * (|K + lam I|_F |alpha| + |y|), the bound a backward
    stable solver meets however ill-conditioned the system; a NaN fails.
    A singular K + lam I, as when lam vanishes beside a rank-deficient K,
    is refused.
    """
    if not lam > 0:
        raise LearnError("lambda must be positive")
    y = np.asarray(labels, dtype=float)
    n = len(y)
    if k.shape != (n, n):
        raise LearnError("Gram size must match labels")
    system = k + lam * np.eye(n)
    try:
        alpha = np.linalg.solve(system, y)
    except np.linalg.LinAlgError:
        raise LearnError(
            "K + lambda I is singular; a larger lambda regularizes it") from None
    residual = float(np.linalg.norm(system @ alpha - y))
    (s_sys, n_sys), (s_alpha, n_alpha) = _scaled_norm(system), _scaled_norm(alpha)
    bound = n * np.finfo(float).eps * (
        s_sys * s_alpha * (n_sys * n_alpha) + np.linalg.norm(y))
    if not residual <= bound:
        raise LearnError(f"ridge solve residual {residual:.2e} above {bound:.2e}")
    return alpha


def predict(alpha: np.ndarray, k_vec: np.ndarray) -> np.ndarray:
    """Label from kernel values against the training set; ties go to +1."""
    k_vec = np.asarray(k_vec, dtype=float)
    scores = k_vec @ alpha
    return np.where(scores >= 0.0, 1, -1)


def score(spec: FeatureMapSpec, theta, train: LabeledDataset,
          test: LabeledDataset, noise: NoiseModel, lam: float = 0.1,
          shots: int = 0, rng=None, splits=None):
    """Accuracy of the ridge model trained on `train`, evaluated on `test`.

    With `shots` > 0, every kernel value is replaced by the mean of `shots`
    Bernoulli draws from `rng`: the train Gram one draw per unordered pair,
    then the cross Gram; 0 keeps the exact expectations.

    `splits` is a sequence of (train rows, test rows) index pairs into `train`
    and `test`. With it, one simulation of each set serves every split and
    the result is one accuracy per split, each as if `score` had been called
    on those subsets in turn (shot draws included, in split order).
    """
    if len(train) == 0 or len(test) == 0:
        raise LearnError("empty train or test set")
    if shots and rng is None:
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
        if shots:
            k_tr = _shot_sampled_symmetric(k_tr, shots, rng)
            k_te = shot_sample(k_te, shots, rng)
        alpha = fit_ridge(k_tr, train.y[tr], lam)
        pred = predict(alpha, k_te)
        accuracies.append(float(np.mean(pred == test.y[te])))
    return accuracies[0] if whole else accuracies
