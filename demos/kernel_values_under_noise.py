"""Evaluate the variational quantum kernel without noise and under both noise kinds.

Prints a small kernel matrix in exact arithmetic, then shows how per-gate
depolarizing noise and its global analytic surrogate shrink the entries
toward the flat 1/D background.
"""

import numpy as np

from qknet import learn, qkernel


def main():
    rng = np.random.default_rng(5)
    spec = qkernel.FeatureMapSpec(n_qubits=3, layers=3)
    dim = 2 ** spec.n_qubits
    theta = rng.uniform(-np.pi, np.pi, spec.n_qubits * spec.layers)
    xs = rng.uniform(0.0, 1.0, (4, 2))

    exact = qkernel.NoiseModel()
    print("exact kernel matrix:")
    for i in range(4):
        row = [qkernel.kernel_eval(spec, theta, xs[i], xs[j], exact)
               for j in range(4)]
        print("  " + " ".join(f"{v:7.4f}" for v in row))

    print(f"\nself-kernel under noise (1/D = {1 / dim:.4f}):")
    print(f"{'p':>8} {'per_gate':>10} {'global':>10}")
    for p in (0.0, 0.002, 0.01, 0.05):
        per_gate = qkernel.kernel_eval(
            spec, theta, xs[0], xs[0], qkernel.NoiseModel(mode="per_gate", p=p))
        global_k = qkernel.kernel_eval(
            spec, theta, xs[0], xs[0], qkernel.NoiseModel(mode="global", p=p))
        print(f"{p:8.3f} {per_gate:10.6f} {global_k:10.6f}")

    # the global mode is an affine map of the exact value
    k_exact = qkernel.kernel_eval(spec, theta, xs[0], xs[1], exact)
    k_global = qkernel.kernel_eval(
        spec, theta, xs[0], xs[1], qkernel.NoiseModel(mode="global", p=0.3))
    mapped = qkernel.analytic_noisy_kernel(k_exact, 0.3, dim)
    print(f"\nglobal mode vs analytic map: {k_global:.10f} vs {mapped:.10f}")

    # a sampled estimate converges to the analytic value
    noisy = qkernel.NoiseModel(mode="per_gate", p=0.005)
    k_true = qkernel.kernel_eval(spec, theta, xs[0], xs[1], noisy)
    print("\nshot noise around the analytic value:")
    for shots in (64, 1024, 16384):
        k_hat = learn.shot_sample(k_true, shots, np.random.default_rng(0))
        print(f"  shots={shots:6d}  estimate={k_hat:.6f}  "
              f"error={abs(k_hat - k_true):.4f}")


if __name__ == "__main__":
    main()
