"""One repetition of one workload, in a fresh process: set up, run the timed
batch, check every output, print one JSON line.

Run through ``run.py``; the parent decides the environment (worker count)
and the number of repetitions.  Timings here cover only this process.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import expsums as E  # noqa: E402
from expsums import cli, enumeration, reports  # noqa: E402
from expsums.arith import primes_up_to  # noqa: E402
from expsums.corpus import crt_subcorpus, standard_corpus  # noqa: E402

TOL = 1e-9  # the acceptance suite's tolerance for sums and cross-checks

# -- circle ------------------------------------------------------------------

QUADRIC = "x1^2+x2^2+x3^2-x4^2-x5^2"
CENTRE_COORD = 3 / math.sqrt(18)

# Report values of the circle job at the commit that introduced this
# benchmark.  J and the ratio may move by ROADMAP item 3's "4 digits"; the
# direct count is exact up to float summation order.
CIRCLE_REF = {"J_truncated": (0.1270375093462514, 1e-4),
              "direct_count": (4546.254426878515, 1e-9),
              "ratio": (1.3254336806081415, 1e-4)}


class Circle:
    """One ``circle`` CLI report (cli.run + serialization) of the c10 quadric.

    The seed moves the centre's nonzero coordinate among x1..x3; f is
    symmetric there, so the work and every counter stay the same.  (Moving it
    between x4 and x5 would change the box the fiber solver enumerates, since
    the last variable is the one solved for.)
    """

    def __init__(self, seed: int):
        centre = [0.0] * 5
        centre[random.Random(seed).randrange(3)] = CENTRE_COORD
        centre[4] = CENTRE_COORD
        self.argv = ["circle", "--poly", QUADRIC, "--B", "30", "--delta", "0.25",
                     "--rho", "0.9", "--center", ",".join(repr(c) for c in centre)]

    def warm(self):
        code, report = cli.run(cli.build_config(["sum", "--poly", "x1^2+x2^2", "--p", "3",
                                                 "--m", "2", "--a", "1"]))
        reports.serialize_report(report)
        E.oscillatory_integral(E.parse_polynomial("x1^2-x2^2"), E.WeightFunction((0.2, 0.1), 0.5), 0.5)

    def jobs(self):
        return [(self._report, self._check)]

    def _report(self):
        code, report = cli.run(cli.build_config(self.argv))
        return code, report, reports.serialize_report(report)

    @staticmethod
    def _check(result) -> bool:
        code, report, _ = result
        if code != 0:
            return False
        r = report["result"]["report"]
        return abs(r.S_truncated - 1.0) <= 1e-12 and all(
            abs(getattr(r, key) - ref) <= rel * abs(ref) for key, (ref, rel) in CIRCLE_REF.items()
        )

    @staticmethod
    def digest(results) -> str | None:
        """Digest of the report bytes, which must repeat in every child."""
        if isinstance(results[0], Exception):
            return None
        return hashlib.sha256(results[0][2]).hexdigest()


# -- crt ---------------------------------------------------------------------

def _unit(rng: random.Random, N: int) -> int:
    while True:
        a = rng.randrange(1, N + 1)
        if math.gcd(a, N) == 1:
            return a


def _bounded(value) -> bool:
    """A normalized sum has |E| <= 1."""
    return abs(value.value) <= 1 + TOL


def _matches(oracle, value) -> bool:
    return _bounded(value) and abs(oracle().value - value.value) <= TOL


class Crt:
    """c03's traffic: exp_sum_composite (pruned route) for every f of c03's
    sub-corpus and every N <= N_MAX.

    The polynomials are c03's frozen sub-corpus, crt_subcorpus(0, 20); the
    seed draws the unit a of every cell.  The route's work does not depend
    on a, so every seed costs the same, while sub-corpora of other seeds
    differ in cost by up to 40%.
    """

    N_MAX = 400
    SAMPLE = 300  # cells cross-checked against exp_sum_direct

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cells = [(f, N, _unit(rng, N)) for f in crt_subcorpus(0, 20)
                      for N in range(1, self.N_MAX + 1)]
        self.sample = set(rng.sample(range(len(self.cells)), self.SAMPLE))

    def warm(self):
        g = E.parse_polynomial("x1^3-2*x1*x2+x2^2")
        for N in range(1, 30):
            E.exp_sum_composite(g, N, 1)

    def jobs(self):
        return [
            (partial(E.exp_sum_composite, f, N, a),
             partial(_matches, partial(E.exp_sum_direct, f, N, a)) if i in self.sample else _bounded)
            for i, (f, N, a) in enumerate(self.cells)
        ]


# -- local -------------------------------------------------------------------

DELIGNE_TEN = [
    "x1^2", "x1^3+x1", "x1^4+x1", "x1^2+x2^2", "x1^2-x2^2+x1", "x1^3+x2^3+x1*x2",
    "x1^4+x2^4", "x1^2+x2^2+x3^2", "x1^3+x2^3+x3^3", "x1^4+x2^4+x3^4+x1*x2*x3",
]

# S(16) of the quadric at the commit that introduced this benchmark.
SERIES_REF = 1.30594135802469

FERMAT_CUBIC = "x1^3+x2^3+x3^3"
DIRECT_AFFORDABLE = 2 * 10**6  # points for the count_zeros_mod(method="direct") oracle


def _permuted(f, rng: random.Random):
    perm = list(range(f.n))
    rng.shuffle(perm)
    return E.Polynomial(f.n, {tuple(e[perm[j]] for j in range(f.n)): c for e, c in f.terms.items()})


class Local:
    """A fixed batch of enumeration-bound jobs: direct sums over a band of N
    near 600 (c03's oracle at a third of the cost of N near 1000, so three
    batches fit in a run), S(16) of the quadric, the c04 cross-checks, the
    lifting tree of the Fermat cubic at p = 5, the c05 Deligne rows and one
    large direct sum.  The seed draws units and permutes variables, which
    leaves the work unchanged.
    """

    BAND = range(600, 628)
    BIG_N = 5_000_000
    SAMPLE = 40  # band cells cross-checked against exp_sum_composite

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.band = [(f, N, _unit(rng, N)) for f in crt_subcorpus(0, 20) for N in self.BAND]
        self.sample = set(rng.sample(range(len(self.band)), self.SAMPLE))
        self.quadric = E.parse_polynomial(QUADRIC)
        self.cross = [(_permuted(f, rng), p, m) for f in standard_corpus(0)
                      for p in (2, 3, 5) for m in (1, 2, 3)]
        self.cubic = E.parse_polynomial(FERMAT_CUBIC)
        self.primes = primes_up_to(50)
        self.forms = [E.parse_polynomial(t) for t in DELIGNE_TEN]
        self.big = (E.parse_polynomial("x1^3+2*x1"), self.BIG_N, _unit(rng, self.BIG_N))

    def warm(self):
        g = E.parse_polynomial("x1^2+x1*x2")
        E.exp_sum_direct(g, 97, 1)
        E.fourier_crosscheck(g, 3, 2)
        E.poincare_coeffs(g, 3, 2)
        E.deligne_check(E.parse_polynomial("x1^3+x2"), [5, 7], 0)

    def jobs(self):
        out = [
            (partial(E.exp_sum_direct, f, N, a),
             partial(_matches, partial(E.exp_sum_composite, f, N, a)) if i in self.sample else _bounded)
            for i, (f, N, a) in enumerate(self.band)
        ]
        out.append((partial(E.singular_series, self.quadric, 16),
                    lambda r: abs(float(r.S_of_R) - SERIES_REF) <= TOL * SERIES_REF))
        out += [(partial(E.fourier_crosscheck, f, p, m), lambda r: r.abs_diff <= TOL)
                for f, p, m in self.cross]
        out.append((partial(E.poincare_coeffs, self.cubic, 5, 4), self._tree_matches_direct))
        out += [(partial(E.deligne_check, f, self.primes, 0),
                 lambda rows: all(row.passed for row in rows if row.asserted))
                for f in self.forms]
        out.append((partial(E.exp_sum_direct, *self.big),
                    partial(_matches, partial(E.exp_sum_composite, *self.big))))
        return out

    def _tree_matches_direct(self, result) -> bool:
        """Lifting-tree counts equal full enumeration where that is affordable."""
        table, _ = result
        return all(
            count == E.count_zeros_mod(self.cubic, 5, m, method="direct")
            for m, count in table.entries
            if m >= 1 and 5 ** (m * self.cubic.n) <= DIRECT_AFFORDABLE
        )


WORKLOADS = {"circle": Circle, "crt": Crt, "local": Local}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _passes(check, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(check(result))
    except Exception as exc:  # a check that cannot read the output fails the job
        sys.stderr.write(f"check failed: {exc!r}\n")
        return False


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm()
    pairs = workload.jobs()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    results, job_ns = [], []
    enumeration.reset_meter()
    cpu0, start_ns = _cpu_s(), time.perf_counter_ns()
    for index, (job, _) in enumerate(pairs):
        if tracer is not None:
            tracer.job = index
        t = time.perf_counter_ns()
        try:
            results.append(job())
        except Exception as exc:  # a failed job is counted, not fatal
            sys.stderr.write(f"job {index} failed: {exc!r}\n")
            results.append(exc)
        job_ns.append(time.perf_counter_ns() - t)
    end_ns = time.perf_counter_ns()
    cpu_s = _cpu_s() - cpu0
    if tracer is not None:
        tracer.job = None
    points = enumeration.meter_consumed()

    ok = [_passes(check, r) for (_, check), r in zip(pairs, results)]
    out = {
        "setup_s": setup_s,
        "wall_s": (end_ns - start_ns) / 1e9,
        "cpu_s": cpu_s,
        "job_ms": [t / 1e6 for t in job_ns],
        "failed": ok.count(False),
        "points": points,
    }
    if hasattr(workload, "digest"):
        out["report_sha256"] = workload.digest(results)
    if tracer is not None:
        out["layers"] = tracer.layer_stats()
        out["top_level_share"] = tracer.top_level_ns(start_ns, end_ns) / (end_ns - start_ns)
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
