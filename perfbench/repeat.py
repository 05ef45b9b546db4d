"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload gd-label-12 --seeds 1-10 [--trace 0]

Runs `perfbench/run.py` once per seed, one run at a time, with the run
length from BENCHMARK.json. For each metric, printed ones too, it prints the
median over the runs and the spread: the distance between the quartiles as
a share of the median, next to the metric's bound. The summary goes to
`perfbench/out/repeat-<workload>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        # the run's own record also holds the printed, ungated metrics
        record = json.loads((HERE / "out" / f"{args.workload}.trace{args.trace}.json")
                            .read_text(encoding="utf-8"))
        for name, value in record["metrics"].items():
            last["metrics"].setdefault(name, {"value": value, "unit": "printed"})
        runs.append({"seed": seed, **last})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()
                          if bounds.get(k) is not None or v["unit"] == "printed")
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} {values}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
    print(f"{args.workload}: {len(runs)} runs, "
          f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} ops failed")
    for name, s in summary.items():
        bound = bounds.get(name)
        limit = "" if bound is None else f"  bound {bound}  (a third: {bound / 3:.4f})"
        print(f"{name:42s} median {s['median']:.6g}  spread {s['spread']:.4f}{limit}")
    out = HERE / "out" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                               "runs": runs, "summary": summary}, indent=1) + "\n",
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
