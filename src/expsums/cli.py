"""Command-line surface: sum / zeta / geometry / circle / verify.

Reports serialize deterministically (identical config => byte-identical
JSON); wall time therefore goes to stderr, never into the report.  Exit
codes: 0 success, 1 precondition error, 2 budget error, 3 verification
failure.  --budget, else the IGUSA_BUDGET environment variable, sets the
enumeration budget; it is resolved once per run and holds for every
enumeration in it.  IGUSA_WORKERS, capped at the CPU count, is the only
worker-thread setting (no flag overrides it).  An optional key=value config
file supplies flag defaults, with explicit flags winning.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from . import enumeration, zeta
from .bounds import Verdict, decay_fit
from .charsums import (
    AdditiveCharacter,
    exp_sum_composite,
    exp_sum_naive,
    exp_sum_pruned,
)
from .circle import QUAD_TOL, WeightFunction, major_arc_report
from .corpus import standard_corpus
from .errors import BudgetExceededError, PolyParseError, QuadratureConvergenceError
from .geometry import estimate_s, exponent_sheet
from .polynomials import parse_polynomial
from .reports import serialize_report

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_BUDGET = 2
EXIT_VERIFY_FAILED = 3

DEFAULT_VERIFY_PRIMES = (5, 7, 11, 13)


@dataclass
class RunConfig:
    command: str
    poly_text: str | None = None
    p: int | None = None
    m: int | None = None
    a: int | None = None
    N: int | None = None
    method: str = "pruned"
    max_m: int | None = None
    ideal: str = "f"
    crosscheck: bool = False
    primes: tuple[int, ...] | None = None
    s_override: int | None = None
    B: float | None = None
    delta: float | None = None
    rho: float | None = None
    center: tuple[float, ...] | None = None
    R_series: int | None = None
    quad_tol: float | None = None
    slack: float = 16.0
    max_units: bool = False
    self_test: bool = False
    seed: int = 0
    out: str | None = None
    format: str = "json"
    budget: int | None = None


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="expsums")
    top.add_argument("--config", help="key=value file of flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=["json", "csv"], default=None)
        sp.add_argument("--budget", type=int, default=None)

    sp = sub.add_parser("sum", help="one exponential sum")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--method", choices=["naive", "pruned", "crt"], default=None)
    common(sp)

    sp = sub.add_parser("zeta", help="solution counts and densities")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--max-m", dest="max_m", type=int, required=True)
    sp.add_argument("--ideal", choices=["f", "jf2", "f+jf2"], default=None)
    sp.add_argument("--crosscheck", action="store_true")
    common(sp)

    sp = sub.add_parser("geometry", help="critical-locus dimension and exponents")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--primes", required=True)
    sp.add_argument("--s", dest="s_override", type=int, default=None)
    common(sp)

    sp = sub.add_parser("circle", help="major-arc comparison")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--B", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--center", required=True,
                    help="c1,...,cn; write --center=-0.5,... when c1 is negative")
    sp.add_argument("--R-series", dest="R_series", type=int, default=None)
    sp.add_argument("--quad-tol", dest="quad_tol", type=float, default=None)
    common(sp)

    sp = sub.add_parser("verify", help="decay-bound verification")
    sp.add_argument("--poly")
    sp.add_argument("--primes")
    sp.add_argument("--max-m", dest="max_m", type=int, default=None)
    sp.add_argument("--s", dest="s_override", type=int, default=None)
    sp.add_argument("--slack", type=float, default=None)
    sp.add_argument("--max-units", dest="max_units", action="store_true",
                    help="take the max of |E| over a sample of 4 random units")
    sp.add_argument("--self-test", dest="self_test", action="store_true")
    sp.add_argument("--seed", type=int, default=None)
    common(sp)
    return top


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.strip()!r}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_CONFIG_COERCE = {
    "p": int, "m": int, "a": int, "N": int, "max-m": int, "R-series": int,
    "seed": int, "s": int, "budget": int,
    "B": float, "delta": float, "rho": float, "quad-tol": float, "slack": float,
}
_CONFIG_DEST = {"max-m": "max_m", "R-series": "R_series", "quad-tol": "quad_tol", "s": "s_override"}


def _apply_config_file(ns: argparse.Namespace, cfg: dict[str, str]) -> None:
    for key, raw in cfg.items():
        dest = _CONFIG_DEST.get(key, key.replace("-", "_"))
        if not hasattr(ns, dest):
            continue
        if getattr(ns, dest) not in (None, False):
            continue  # explicit flags win
        if getattr(ns, dest) is False:  # an unset store_true flag
            setattr(ns, dest, raw.lower() in ("1", "true", "yes"))
        elif key in _CONFIG_COERCE:
            setattr(ns, dest, _CONFIG_COERCE[key](raw))
        else:
            setattr(ns, dest, raw)


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ValueError(f"bad prime list {text!r}") from exc


def _parse_center(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ValueError(f"bad center {text!r}") from exc


def build_config(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    if ns.config:
        _apply_config_file(ns, _read_config_file(ns.config))
    cfg = RunConfig(command=ns.command)
    cfg.poly_text = getattr(ns, "poly", None)
    cfg.out = ns.out
    cfg.format = ns.format or "json"
    cfg.budget = ns.budget
    for name in ("p", "m", "a", "N", "max_m", "s_override", "B", "delta", "rho",
                 "R_series", "quad_tol"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if getattr(ns, "method", None):
        cfg.method = ns.method
    if getattr(ns, "ideal", None):
        cfg.ideal = ns.ideal
    cfg.crosscheck = bool(getattr(ns, "crosscheck", False))
    cfg.max_units = bool(getattr(ns, "max_units", False))
    cfg.self_test = bool(getattr(ns, "self_test", False))
    if getattr(ns, "slack", None) is not None:
        cfg.slack = ns.slack
    if getattr(ns, "seed", None) is not None:
        cfg.seed = ns.seed
    if getattr(ns, "primes", None):
        cfg.primes = _parse_primes(ns.primes)
    if getattr(ns, "center", None):
        cfg.center = _parse_center(ns.center)
    return cfg


# -- command implementations ---------------------------------------------------


def _cmd_sum(cfg: RunConfig) -> dict:
    f = parse_polynomial(cfg.poly_text)
    if cfg.a is None:
        raise ValueError("sum requires --a")
    if cfg.N is not None or cfg.method == "crt":
        N = cfg.N if cfg.N is not None else (cfg.p or 0) ** (cfg.m or 0)
        if N < 1:
            raise ValueError("crt method requires --N or --p/--m")
        val = exp_sum_composite(f, N, cfg.a)
        params = {"N": N, "a": cfg.a, "method": "crt"}
    else:
        if cfg.p is None or cfg.m is None:
            raise ValueError("sum requires --p and --m (or --N)")
        chi = AdditiveCharacter(cfg.p, cfg.m, cfg.a)
        if cfg.method == "naive":
            val = exp_sum_naive(f, chi)
        else:
            val = exp_sum_pruned(f, chi)
        params = {"p": cfg.p, "m": cfg.m, "a": cfg.a, "method": cfg.method}
    return {
        "params": params,
        "result": {
            "value": val.value,
            "abs": val.abs,
            "err_bound": val.err_bound,
            "fiber_count": val.fiber_count,
        },
    }


def _cmd_zeta(cfg: RunConfig) -> dict:
    f = parse_polynomial(cfg.poly_text)
    if cfg.max_m is None or cfg.max_m < 1:
        raise ValueError("zeta requires --max-m >= 1")
    if cfg.ideal == "f":
        table, dens = zeta.poincare_coeffs(f, cfg.p, cfg.max_m)
    else:
        gens = zeta.jacobian_squared_generators(f)
        if cfg.ideal == "f+jf2":
            gens = [f] + gens
        table, dens = zeta.poincare_coeffs(
            f, cfg.p, cfg.max_m, kind=zeta.CountKind.order_ge_ideal, generators=gens)
    entries = [
        {"m": m, "count": c, "density": frac}
        for (m, c), (_, frac) in zip(table.entries, dens)
    ]
    result = {"kind": table.kind, "ideal": cfg.ideal, "entries": entries}
    if cfg.crosscheck:
        result["crosscheck"] = [zeta.fourier_crosscheck(f, cfg.p, m)
                                for m in range(1, cfg.max_m + 1)]
    return {"params": {"p": cfg.p, "max_m": cfg.max_m, "ideal": cfg.ideal}, "result": result}


def _cmd_geometry(cfg: RunConfig) -> dict:
    f = parse_polynomial(cfg.poly_text)
    report = estimate_s(f, cfg.primes, override=cfg.s_override)
    sheet = exponent_sheet(f.n, f.degree(), report.effective_s)
    warnings = []
    if report.override is None and report.residual > 0.15:
        warnings.append(f"dimension fit residual {report.residual:.3f} exceeds 0.15")
    return {
        "params": {"primes": list(cfg.primes), "s_override": cfg.s_override},
        "result": {
            "counts": report.counts,
            "fitted_s": report.fitted_s,
            "residual": report.residual,
            "s": report.effective_s,
            "s_provenance": "override" if report.override is not None else "fitted",
            "exponents": sheet,
            "warnings": warnings,
        },
    }


def _cmd_circle(cfg: RunConfig) -> dict:
    f = parse_polynomial(cfg.poly_text)
    for name in ("B", "delta", "rho", "center"):
        if getattr(cfg, name) is None:
            raise ValueError(f"circle requires --{name}")
    if len(cfg.center) != f.n:
        raise ValueError(f"center has {len(cfg.center)} coordinates, polynomial has {f.n}")
    w = WeightFunction(cfg.center, cfg.rho)
    fit = estimate_s(f, DEFAULT_VERIFY_PRIMES)
    tol = QUAD_TOL if cfg.quad_tol is None else cfg.quad_tol
    report = major_arc_report(f, cfg.B, cfg.delta, w, fit.effective_s,
                              R_series=cfg.R_series, tol=tol)
    return {
        "params": {
            "B": cfg.B, "delta": cfg.delta, "rho": cfg.rho,
            "center": list(cfg.center), "R_series": cfg.R_series,
            "quad_tol": cfg.quad_tol,
        },
        "result": {
            "s": fit.effective_s,
            "s_provenance": "fitted",
            "report": report,
        },
    }


def _cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    if cfg.self_test:
        return _self_test(cfg)
    f = parse_polynomial(cfg.poly_text)
    if not cfg.primes:
        raise ValueError("verify requires --primes")
    if cfg.max_m is None or cfg.max_m < 1:
        raise ValueError("verify requires --max-m >= 1")
    if cfg.s_override is not None:
        s_val, provenance = cfg.s_override, "override"
    else:
        primes = cfg.primes if len(cfg.primes) >= 3 else DEFAULT_VERIFY_PRIMES
        s_val = estimate_s(f, primes).effective_s
        provenance = "fitted"
    fits = [
        decay_fit(f, p, range(1, cfg.max_m + 1), s_val, slack=cfg.slack,
                  units=4 if cfg.max_units else 1, seed=cfg.seed)
        for p in sorted(set(cfg.primes))
    ]
    failed = any(fit.verdict is Verdict.violates_theorem for fit in fits)
    return {
        "params": {
            "primes": list(cfg.primes), "max_m": cfg.max_m,
            "s": s_val, "s_provenance": provenance, "slack": cfg.slack,
        },
        "result": {"fits": fits, "violations": failed},
    }, failed


def _self_test(cfg: RunConfig) -> tuple[dict, bool]:
    corpus = standard_corpus(seed=cfg.seed, size=15)
    cells = 0
    worst = 0.0
    failures = 0
    for f in corpus:
        for p in (2, 3):
            for m in (2, 3):
                if p ** (m * f.n) > 10**5:
                    continue
                chi = AdditiveCharacter(p, m, 1)
                naive = exp_sum_naive(f, chi)
                pruned = exp_sum_pruned(f, chi)
                diff = abs(naive.value - pruned.value)
                worst = max(worst, diff)
                cells += 1
                if diff > 1e-9:
                    failures += 1
    return {
        "params": {"seed": cfg.seed, "corpus_size": len(corpus)},
        "result": {"cells": cells, "max_abs_diff": worst, "failures": failures},
    }, failures > 0


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch a validated config; returns (exit_code, report dict).

    The run's budget (cfg.budget, else IGUSA_BUDGET) and IGUSA_WORKERS are
    checked first, and the budget holds until the run returns."""
    enumeration.reset_meter()
    outer, enumeration._run_budget = enumeration._run_budget, cfg.budget
    try:
        limit = enumeration._run_budget = enumeration.enumeration_budget()
        enumeration.default_workers()
        failed = False
        if cfg.command == "sum":
            body = _cmd_sum(cfg)
        elif cfg.command == "zeta":
            body = _cmd_zeta(cfg)
        elif cfg.command == "geometry":
            body = _cmd_geometry(cfg)
        elif cfg.command == "circle":
            body = _cmd_circle(cfg)
        elif cfg.command == "verify":
            body, failed = _cmd_verify(cfg)
        else:
            raise ValueError(f"unknown command {cfg.command!r}")
    except PolyParseError as exc:
        return EXIT_PRECONDITION, {
            "error": {"code": "PARSE_ERROR", "message": exc.bare_message, "offset": exc.offset}
        }
    except BudgetExceededError as exc:
        return EXIT_BUDGET, {
            "error": {"code": "BUDGET_EXCEEDED", "message": str(exc),
                      "needed": exc.needed, "budget": exc.budget}
        }
    except QuadratureConvergenceError as exc:
        return EXIT_PRECONDITION, {"error": {"code": "QUADRATURE_DIVERGED", "message": str(exc)}}
    except (ValueError, ZeroDivisionError) as exc:
        return EXIT_PRECONDITION, {"error": {"code": "PRECONDITION", "message": str(exc)}}
    finally:
        enumeration._run_budget = outer

    report = {"command": cfg.command}
    if cfg.poly_text is not None:
        report["poly"] = parse_polynomial(cfg.poly_text).render()
    report.update(body)
    report["budget"] = {"limit": limit, "points_consumed": enumeration.meter_consumed()}
    return (EXIT_VERIFY_FAILED if failed else EXIT_OK), report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    started = time.monotonic()
    try:
        cfg = build_config(argv)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    code, report = run(cfg)
    data = serialize_report(report, cfg.format)
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())
    sys.stderr.write(f"[expsums] {cfg.command} finished in {time.monotonic() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
