#!/usr/bin/env python3
"""Zero-count densities N_m * p^(-mn) by level, with the orthogonality
cross-check against averaged character sums.

Usage:
    python scripts/density_table.py --poly "x1^2+x2^3" --p 5 --max-m 3
    python scripts/density_table.py --poly "x1^2+x2^3" --p 5 --max-m 3 --crosscheck
    python scripts/density_table.py --poly "x1^2" --p 3 --max-m 4 --ideal jf2
    python scripts/density_table.py --poly "x1^2+x2^3" --p 3 --max-m 3 --ideal f+jf2 --crosscheck
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from expsums import fourier_crosscheck, jacobian_squared_generators, parse_polynomial, poincare_coeffs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--poly", required=True)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--ideal", choices=["f", "jf2", "f+jf2"], default="f")
    ap.add_argument("--crosscheck", action="store_true")
    args = ap.parse_args()

    f = parse_polynomial(args.poly)
    gens = None if args.ideal == "f" else jacobian_squared_generators(f)
    if args.ideal == "f+jf2":
        gens = [f] + gens
    table, dens = poincare_coeffs(f, args.p, args.max_m, generators=gens)
    print(f"f = {f.render()},  p = {args.p},  kind = {table.kind.value}")
    print(f"{'m':>3} {'count':>12} {'density':>16} {'density (float)':>16}")
    for (m, count), (_, frac) in zip(table.entries, dens):
        print(f"{m:>3} {count:>12} {str(frac):>16} {float(frac):>16.10f}")

    if args.crosscheck:
        print("\northogonality: N_m p^(-mn) vs the average of E over all characters mod p^m")
        print(f"{'m':>3} {'lhs':>16} {'rhs':>16} {'|diff|':>10}")
        # every N_m from one zero-count table: this one, unless it counts an ideal
        zeros = table if gens is None else poincare_coeffs(f, args.p, args.max_m)[0]
        for m, count in zeros.entries[1:]:
            rep = fourier_crosscheck(f, args.p, m, count=count)
            print(f"{m:>3} {rep.lhs:>16.12f} {rep.rhs:>16.12f} {rep.abs_diff:>10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
