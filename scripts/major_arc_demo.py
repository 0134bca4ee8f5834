#!/usr/bin/env python3
"""Compare the direct weighted solution count of a form against the
singular-series x singular-integral prediction, across B and across the
series truncation R.

The default form is the 5-variable quadric x1^2+x2^2+x3^2-x4^2-x5^2 with
the weight centered on a real solution direction.  Sweeping R shows how
sensitive the ratio is to the series truncation: for this even form the
q = 2 and q = 3 terms vanish, and the first correction (q = 4, a 2-adic
density of 1/4) only enters at R >= 4.

Usage:
    python scripts/major_arc_demo.py
    python scripts/major_arc_demo.py --B 30 --R-max 8
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from expsums import (
    WeightFunction,
    parse_polynomial,
    singular_integral,
    singular_series,
    weighted_solution_count,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--poly", default="x1^2+x2^2+x3^2-x4^2-x5^2")
    ap.add_argument("--B", type=float, nargs="*", default=[30.0, 40.0])
    ap.add_argument("--delta", type=float, default=0.25)
    ap.add_argument("--rho", type=float, default=0.9)
    ap.add_argument("--center", default=None, help="comma-separated; default: scaled (3,0,...,3)")
    ap.add_argument("--R-max", type=int, default=6, help="sweep series truncations 1..R_max")
    ap.add_argument("--quad-tol", type=float, default=1e-5)
    args = ap.parse_args()

    f = parse_polynomial(args.poly)
    if args.center:
        center = tuple(float(c) for c in args.center.split(","))
    else:
        norm = math.sqrt(18.0)
        center = (3 / norm, 0.0, 0.0, 0.0, 3 / norm)[: f.n]
    w = WeightFunction(center, args.rho)

    d = f.degree()
    for B in args.B:
        default_R = math.ceil(B**args.delta)
        J = singular_integral(f, w, B**args.delta, tol=args.quad_tol).J_of_R
        direct = weighted_solution_count(f, B, w)
        print(f"\nB = {B}  (default series truncation R = ceil(B^delta) = {default_R})")
        print(f"{'R':>3} {'S(R)':>12} {'J':>12} {'direct':>14} {'prediction':>14} {'ratio':>8}")
        for R in range(1, args.R_max + 1):
            S = float(singular_series(f, R).S_of_R)
            prediction = S * J * B ** (f.n - d)
            marker = " <- default" if R == default_R else ""
            print(
                f"{R:>3} {S:>12.6f} {J:>12.6f} "
                f"{direct:>14.4f} {prediction:>14.4f} "
                f"{direct / prediction:>8.4f}{marker}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
