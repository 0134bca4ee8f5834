"""The expsums benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload {circle,crt,local} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each repetition of the workload's fixed batch
runs in a fresh child process (``worker.py``), closed loop with one caller;
``--seconds`` sets how many repetitions run, ``round(S / batch seconds)`` and
at least 2, so both sides of a comparison do the same work.  Set-up is timed
in every child, and in extra set-up-only children up to five samples.  Peak
RSS is the largest child's, read with getrusage(RUSAGE_CHILDREN).

With ``--trace 0`` the metrics are BENCHMARK.json's end-to-end list; with
``--trace 1`` one more child runs the batch under the span tracer
(``spans.py``) and the metrics are its per-layer list.  Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Worker threads per workload (IGUSA_WORKERS).  All run one worker: at two
# workers on the two shared cores of the reference machine, host CPU steal
# spread local's wall time by 35-40% between runs, against 4% at one.
WORKERS = {"circle": 1, "crt": 1, "local": 1}
# Seconds one batch takes on the reference machine; sets the repetitions.
BATCH_S = {"circle": 20.0, "crt": 6.0, "local": 7.0}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, env: dict, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before all repetitions ran")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker exceeded the time limit: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _layer_metrics(spec: dict, traced: dict, untraced_wall: float) -> dict[str, float]:
    layers = dict(traced["layers"])
    hist_s = layers.get("enumeration.residue_histogram.self_s", 0.0)
    hist_pts = layers.get("enumeration.residue_histogram.points", 0)
    layers["enumeration.residue_histogram.mpts_per_s"] = hist_pts / 1e6 / hist_s if hist_s else 0.0
    layers["enumeration.points"] = traced["points"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    layers["trace.top_level_share"] = traced["top_level_share"]
    layers["trace.spans"] = traced["spans"]
    return {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "expsums" / "__init__.py").is_file():
        sys.stderr.write(f"error: no expsums sources under {ROOT / 'src'}; run from a checkout\n")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    w = args.workload
    reps = max(2, round(args.seconds / BATCH_S[w]))
    env = {k: v for k, v in os.environ.items() if k != "IGUSA_BUDGET"}
    env["IGUSA_WORKERS"] = str(WORKERS[w])
    deadline = time.monotonic() + DEADLINE_S
    try:
        runs = [_child(w, args.seed, env, deadline) for _ in range(reps)]
        setups = [r["setup_s"] for r in runs] + [
            _child(w, args.seed, env, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES - reps)
        ]
        traced = _child(w, args.seed, env, deadline, "--trace", "1") if args.trace else None
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    every = runs + ([traced] if traced else [])
    attempted = sum(len(r["job_ms"]) for r in every)
    failed = sum(r["failed"] for r in every)
    digests = {r["report_sha256"] for r in every if "report_sha256" in r}
    if len(digests) > 1:  # report bytes must repeat exactly
        failed = attempted
    # Every batch runs the same jobs; a job's latency is its median over the
    # batches, which drops a batch that a burst of host load slowed.
    jobs = [statistics.median(ts) for ts in zip(*(r["job_ms"] for r in runs))]
    wall = statistics.median(r["wall_s"] for r in runs)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "job_p50_ms": statistics.median(jobs),
        "job_p99_ms": _percentile(jobs, 0.99),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {w}  seed {args.seed}  workers {WORKERS[w]}  batches {reps}  "
          f"jobs {attempted} ({len(runs[0]['job_ms'])} per batch)")
    print(f"  {'setup_s':<14} {end_to_end['setup_s']:.4f} s  (median of {len(setups)} set-ups)")
    for name in ("wall_s", "cpu_s", "job_p50_ms", "job_p99_ms", "peak_rss_mb"):
        print(f"  {name:<14} {end_to_end[name]:.4f} {units.get(name, '')}")
    print(f"  {'failed_ratio':<14} {failed / attempted:.4f}  ({failed} of {attempted} jobs)")
    print(f"  enumeration.points per batch: {sorted({r['points'] for r in runs})}")
    if traced:
        metrics = _layer_metrics(spec, traced, wall)
        for name, value in metrics.items():
            print(f"  {name:<48} {value:.6g} {units[name]}")
    else:
        metrics = {m["name"]: end_to_end[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
