"""Compare plain gossip with clipping aggregation while one node lies.

A four-node ring trains with a sign-flipping attacker in the loop.  Under
plain averaging the attacker's message yanks its neighbors by an amount
proportional to the disagreement it manufactures; clipping caps every
neighbor's pull at tau per round, so the honest iterates survive.
"""

import numpy as np

from qknet import runner
from qknet.config import ExperimentConfig

ROUNDS = 15
TAU = 0.02
HONEST = (0, 1, 3)


def trajectory(rule):
    cfg = ExperimentConfig(
        circuit_n_qubits=2, circuit_layers=2, data_points_per_cell=2,
        nodes_roles=("honest", "honest", "signflip_attacker", "honest"),
        nodes_subsample=(4,), aggregation_rule=rule, aggregation_tau=TAU,
        run_budget=ROUNDS, run_eval_every=1000, run_seed=6)
    prob = runner.prepare_problem(cfg, "decentralized")
    thetas = runner._init_thetas(prob)
    norms = [float(np.linalg.norm(thetas[0]))]
    pulls = []
    schedule = runner._subsample_schedule(prob, ROUNDS)
    for rnd in range(ROUNDS):
        halves, _ = runner._half_steps(prob, thetas, schedule[rnd])
        mixed = runner._exchange(prob, thetas, halves, rnd)
        pulls.append(max(float(np.linalg.norm(mixed[i] - halves[i]))
                         for i in HONEST))
        thetas = mixed
        norms.append(float(np.linalg.norm(thetas[0])))
    return norms, pulls


def main():
    norms_plain, pulls_plain = trajectory("plain")
    norms_clip, pulls_clip = trajectory("robust_clip")

    print(f"sign-flip attacker on a 4-node ring, tau = {TAU}")
    print(f"{'round':>5} {'plain |th0|':>11} {'plain pull':>10} "
          f"{'clip |th0|':>10} {'clip pull':>9}")
    for rnd in range(ROUNDS):
        print(f"{rnd:5d} {norms_plain[rnd + 1]:11.4f} {pulls_plain[rnd]:10.4f} "
              f"{norms_clip[rnd + 1]:10.4f} {pulls_clip[rnd]:9.4f}")

    print(f"\nlargest honest pull under plain averaging: {max(pulls_plain):.4f}")
    print(f"largest honest pull with clipping:         {max(pulls_clip):.4f}"
          f" (bound {TAU})")
    print(f"norm retained after {ROUNDS} rounds: "
          f"plain {norms_plain[-1] / norms_plain[0]:.1%}, "
          f"clipped {norms_clip[-1] / norms_clip[0]:.1%}")


if __name__ == "__main__":
    main()
