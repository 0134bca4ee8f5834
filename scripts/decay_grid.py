#!/usr/bin/env python3
"""Print |E| across conductors and primes for a polynomial, next to the
proven and conjectural decay rates: a table of the `expsums verify` report,
whose flags (here defaulting to --primes 5,7,11 --max-m 4), budget and exit
codes it takes.

Usage:
    python scripts/decay_grid.py --poly "x1^3+x2^3" --primes 5,7,11 --max-m 5
    python scripts/decay_grid.py --family-demo   # the x1^3 + p^m x2^3 family
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from expsums import AdditiveCharacter, cli, exp_sum_pruned, parse_polynomial


def family_demo() -> None:
    print("family x1^3 + 5^m * x2^3 at conductor m (closed form: 5^(-m/3 + (r-3)/3) "
          "for m = 3l + r, r in {2,3}; zero when m = 1 mod 3)")
    print(f"{'m':>3} {'|E|':>14} {'closed form':>14}")
    for m in range(2, 11):
        f = parse_polynomial(f"x1^3 + {5**m}*x2^3")
        val = exp_sum_pruned(f, AdditiveCharacter(5, m, 1))
        r = m % 3
        closed = 0.0 if r == 1 else 5.0 ** (-m / 3 + ((3 if r == 0 else r) - 3) / 3)
        print(f"{m:>3} {val.abs:>14.10f} {closed:>14.10f}")


def main(argv: list[str]) -> int:
    if "--family-demo" in argv:
        family_demo()
        return 0
    try:
        cfg = cli.build_config(["verify", "--primes", "5,7,11", "--max-m", "4", *argv])
    except ValueError as exc:  # a bad --primes list
        sys.stderr.write(f"error: {exc}\n")
        return cli.EXIT_PRECONDITION
    if cfg.out or cfg.self_test:  # a report file, or a report with no fits
        sys.stderr.write("error: --out and --self-test are not table flags; run expsums verify\n")
        return cli.EXIT_PRECONDITION
    code, report = cli.run(cfg)
    if "error" in report:
        sys.stderr.write(f"error: {report['error']['message']}\n")
        return code
    if report["params"]["s_provenance"] == "fitted":
        print(f"fitted s = {report['params']['s']}")
    for fit in report["result"]["fits"]:
        print(f"\np = {fit.p}: sigma_proven = {fit.sigma_theorem}, "
              f"sigma_target = {fit.sigma_conjecture}, verdict = {fit.verdict.value}")
        print(f"{'m':>3} {'|E|':>14} {'-log_p|E|/m':>12}")
        for m, v in fit.samples:
            rate = "-" if m in fit.zeros else f"{-math.log(v) / math.log(fit.p) / m:.4f}"
            print(f"{m:>3} {v:>14.10f} {rate:>12}")
        if fit.fitted_beta is not None:
            print(f"fitted decay slope: {fit.fitted_beta:.4f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
