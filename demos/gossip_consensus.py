"""Watch gossip averaging pull disagreeing nodes together.

Runs pure weight-matrix mixing on random vectors over a ring and a
complete graph.  The contraction rate per round tracks the second-largest
eigenvalue magnitude of the mixing matrix, and the network mean never
moves.
"""

import numpy as np

from qknet import dnet


def mix(topology, rounds, rng):
    weights = dnet.metropolis_weights(topology)
    gap = dnet.spectral_gap(weights)
    thetas = rng.normal(size=(len(weights), 6))
    mean0 = thetas.mean(axis=0)
    print(f"{len(weights)}-node graph, spectral gap {gap:.4f}:")
    print(f"  {'round':>5} {'disagreement':>13} {'ratio':>7}")
    prev = dnet.consensus_distance(thetas)
    for rnd in range(rounds):
        thetas = weights @ thetas
        dist = dnet.consensus_distance(thetas)
        ratio = dist / prev if prev > 1e-300 else 0.0
        if rnd < 4 or rnd == rounds - 1:
            print(f"  {rnd:5d} {dist:13.3e} {ratio:7.3f}")
        prev = dist
    drift = np.max(np.abs(thetas.mean(axis=0) - mean0))
    print(f"  mean drift after {rounds} rounds: {drift:.2e}\n")


def main():
    rng = np.random.default_rng(2)
    mix(dnet.ring(4), 20, rng)
    mix(dnet.ring(8), 20, rng)
    mix(dnet.complete(5), 5, rng)


if __name__ == "__main__":
    main()
