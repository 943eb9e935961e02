"""Train a kernel by alignment on one node and score it with ridge regression.

Generates a small checkerboard, follows stochastic alignment gradients on
eight-point subsamples under mild per-gate noise, and reports how the
training criterion and the held-out accuracy move together.
"""

import numpy as np

from qknet import data, engine, learn


def main():
    dataset = data.gen_checkerboard(points_per_cell=3, sigma=0.04, seed=1)
    train_idx, test_idx = data.train_test_split(dataset, 0.25, seed=1)
    train = dataset.subset(train_idx)
    test = dataset.subset(test_idx)
    print(f"{len(train.y)} training points, {len(test.y)} test points")

    spec = engine.FeatureMapSpec(n_qubits=5, layers=8)
    noise = engine.NoiseModel(mode="per_gate", p=0.0005)
    rng = np.random.default_rng(3)
    theta = 0.1 * rng.normal(size=spec.n_qubits * spec.layers)
    eta = 0.2

    print(f"\n{'step':>4} {'alignment':>10} {'test acc':>9}")
    for step in range(61):
        if step % 15 == 0:
            k = engine.gram_matrix(spec, theta, train.x, noise)
            acc = learn.score(spec, theta, train, test, noise)
            print(f"{step:4d} {learn.alignment(k, train.y):10.4f} {acc:9.3f}")
        subsample = train.subset(rng.choice(len(train.y), size=8,
                                            replace=False))
        _, (grad,) = engine.multi_alignment_grads(
            spec, [theta], [subsample.x], [subsample.y], noise)
        theta = theta + eta * grad

    k = engine.gram_matrix(spec, theta, train.x, noise)
    alpha = learn.fit_ridge(k, train.y, lam=0.1)
    residual = float(np.max(np.abs((k + 0.1 * np.eye(len(train.y)))
                                   @ alpha - train.y)))
    print(f"\nridge system residual: {residual:.2e}")


if __name__ == "__main__":
    main()
