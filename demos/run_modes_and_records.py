"""Anatomy of a training run: modes, round records, and serialized output.

Runs the same small problem in decentralized, centralized, and local
mode, prints the per-round records the runner keeps, and shows the
first lines of the JSONL stream that ``write_outputs`` would persist.
"""

from qknet import runner
from qknet.config import ExperimentConfig


def main():
    cfg = ExperimentConfig(circuit_n_qubits=2, circuit_layers=2,
                           data_points_per_cell=2, nodes_subsample=(4,),
                           run_budget=12, run_eval_every=6, run_seed=1)

    print(f"{'mode':>13} {'rounds':>6} {'mean score3':>11} {'disagreement':>13}")
    results = {}
    for mode in ("decentralized", "centralized", "local"):
        result = runner.run(cfg, mode)
        results[mode] = result
        scores = [r.score3 for r in result.reports if r.score3 is not None]
        final = max(rec.consensus_dist for rec in result.records
                    if rec.round == result.final_round)
        print(f"{mode:>13} {result.final_round + 1:6d} "
              f"{sum(scores) / len(scores):11.3f} {final:13.3e}")

    result = results["decentralized"]
    print("\nnode-0 records:")
    print(f"{'round':>5} {'loss':>9} {'alignment':>10} {'grad norm':>10}")
    for rec in result.records:
        if rec.node == 0 and rec.round % 4 == 0:
            print(f"{rec.round:5d} {rec.loss:9.4f} {rec.alignment:10.4f} "
                  f"{rec.grad_norm:10.4f}")

    print("\nfirst three JSONL lines:")
    for line in runner.rounds_jsonl(result).splitlines()[:3]:
        print("  " + line)

    rerun = runner.run(cfg, "decentralized")
    same = runner.rounds_jsonl(rerun) == runner.rounds_jsonl(result)
    print(f"\nre-run with the same seed is bit-identical: {same}")


if __name__ == "__main__":
    main()
