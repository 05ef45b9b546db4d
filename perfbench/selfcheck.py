"""Exact-count self-check: two traced runs on one seed must count the same.

    python3 perfbench/selfcheck.py --seed 1 [--workload NAME ...]

Runs each workload's traced mode twice in this process, each time for
exactly the ops the counts are taken from (`cycle` of them), and compares the
counts a later change may claim (graph and plan sizes, residual
evaluations, kernel calls, bundle bytes, RNG draws) and the failed share.
Exits 1 if any of them differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

# per-layer metrics that are counts, not times, and so must repeat exactly
COUNTED = ("attack.gn.resid_evals", "attack.gn.trial_steps", "graph.eval_calls", "graph.nodes",
           "tensor.rng_draws", "flsim.bundle_bytes")
COUNTED_PREFIXES = ("graph.plan_nodes.", "graph.plan_graph_nodes.")
COUNTED_SUFFIXES = (".calls", ".flop", ".bytes")


def counts(result: dict) -> dict:
    picked = {name: value for name, value in result["metrics"].items()
              if name in COUNTED or name.startswith(COUNTED_PREFIXES)
              or name.endswith(COUNTED_SUFFIXES)}
    picked["failed_share"] = result["failed"] / result["attempted"]
    return picked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)

    report = {}
    same = True
    for name in args.workload or sorted(run.WORKLOADS):
        first, second = (counts(run.run(name, args.seed, 0, trace=True))
                         for _ in range(2))
        report[name] = {"first": first, "second": second}
        for metric, value in first.items():
            verdict = "same" if second[metric] == value else "DIFFERS"
            same &= verdict == "same"
            print(f"{name} {metric} {value:g} {second[metric]:g} {verdict}")
    run.OUT.mkdir(parents=True, exist_ok=True)
    (run.OUT / "selfcheck.json").write_text(
        json.dumps({"seed": args.seed, "repeat_exactly": same, "workloads": report},
                   indent=1) + "\n", encoding="utf-8")
    print("counts repeat exactly" if same else "counts DIFFER between runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
