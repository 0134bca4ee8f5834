"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload crt --seeds 1-10 [--seconds 20] [--trace 0]

Runs run.py once per seed, one after another, and prints one JSON object:
per metric the values, their median and the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4).  With
``--trace 1`` it also lists the count metrics that differed between runs;
the deterministic counters must not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True).stdout
        results.append(json.loads(out.strip().splitlines()[-1]))
        sys.stderr.write(f"seed {seed}: {json.dumps(results[-1]['metrics'])[:200]}\n")

    summary = {"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
               "all_correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": {}}
    differing = []
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        entry = {"unit": first["unit"], "median": med, "values": values}
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / med
        summary["metrics"][name] = entry
        if first["unit"] == "count" and len(set(values)) > 1:
            differing.append(name)
    if args.trace:
        summary["counts_differing"] = differing
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
