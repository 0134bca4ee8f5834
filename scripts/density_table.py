#!/usr/bin/env python3
"""Zero-count densities N_m * p^(-mn) by level, with the orthogonality
cross-check against averaged character sums: a table of the `expsums zeta`
report, whose flags (here defaulting to --p 3 --max-m 3), budget and exit
codes it takes.

Usage:
    python scripts/density_table.py --poly "x1^2+x2^3" --p 5 --max-m 3
    python scripts/density_table.py --poly "x1^2+x2^3" --p 5 --max-m 3 --crosscheck
    python scripts/density_table.py --poly "x1^2" --p 3 --max-m 4 --ideal jf2
    python scripts/density_table.py --poly "x1^2+x2^3" --p 3 --max-m 3 --ideal f+jf2 --crosscheck
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from expsums import cli


def main(argv: list[str]) -> int:
    cfg = cli.build_config(["zeta", "--p", "3", "--max-m", "3", *argv])
    if cfg.out:  # the report file is the CLI's job
        sys.stderr.write("error: --out is not a table flag; run expsums zeta for a report file\n")
        return cli.EXIT_PRECONDITION
    code, report = cli.run(cfg)
    if "error" in report:
        sys.stderr.write(f"error: {report['error']['message']}\n")
        return code
    result = report["result"]
    print(f"f = {report['poly']},  p = {report['params']['p']},  kind = {result['kind'].value}")
    print(f"{'m':>3} {'count':>12} {'density':>16} {'density (float)':>16}")
    for row in result["entries"]:
        frac = row["density"]
        print(f"{row['m']:>3} {row['count']:>12} {str(frac):>16} {float(frac):>16.10f}")
    if "crosscheck" in result:
        print("\northogonality: N_m p^(-mn) vs the average of E over all characters mod p^m")
        print(f"{'m':>3} {'lhs':>16} {'rhs':>16} {'|diff|':>10}")
        for rep in result["crosscheck"]:
            print(f"{rep.m:>3} {rep.lhs:>16.12f} {rep.rhs:>16.12f} {rep.abs_diff:>10.2e}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
