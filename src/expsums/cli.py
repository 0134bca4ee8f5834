"""Command-line surface: sum / zeta / geometry / circle / verify.

Reports serialize deterministically (identical config => byte-identical
JSON); wall time therefore goes to stderr, never into the report.  Exit
codes: 0 success, 1 precondition error, 2 budget error, 3 verification
failure.  --budget, else the IGUSA_BUDGET environment variable, sets the
enumeration budget; it is resolved once per run and holds for every
enumeration in it.  IGUSA_WORKERS, capped at the CPU count, is the only
worker-thread setting (no flag overrides it).

_build_parser is the one declaration of every flag.  An optional key=value
config file (--config) supplies flag defaults: its keys are the long flag
names of the chosen command (max-m=3, quad-tol=1e-8, self-test=yes), each
value is checked like the flag's own value (type and choices; 1/true/yes
set a switch), a bad value exits 1, unknown keys are ignored, and explicit
flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import enumeration, zeta
from .arith import _require_prime
from .bounds import DEFAULT_SLACK, Verdict, decay_fit
from .charsums import AdditiveCharacter, exp_sum_composite, exp_sum_naive, exp_sum_pruned
from .circle import QUAD_TOL, WeightFunction, major_arc_report
from .corpus import standard_corpus
from .errors import BudgetExceededError, PolyParseError, QuadratureConvergenceError
from .geometry import estimate_s, exponent_sheet
from .polynomials import Polynomial, parse_polynomial
from .reports import serialize_report

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_BUDGET = 2
EXIT_VERIFY_FAILED = 3

DEFAULT_VERIFY_PRIMES = (5, 7, 11, 13)


def _build_parser() -> argparse.ArgumentParser:
    """The one declaration of every flag: name, type, choices and default."""
    top = argparse.ArgumentParser(prog="expsums")
    top.add_argument("--config", help="key=value file of flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, poly_required: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--poly", dest="poly_text", required=poly_required)
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--budget", type=int)
        return sp

    sp = command("sum", "one exponential sum")
    sp.add_argument("--p", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--a", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--method", choices=["naive", "pruned", "crt"], default="pruned")

    sp = command("zeta", "solution counts and densities")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--max-m", dest="max_m", type=int, required=True)
    sp.add_argument("--ideal", choices=["f", "jf2", "f+jf2"], default="f")
    sp.add_argument("--crosscheck", action="store_true")

    sp = command("geometry", "critical-locus dimension and exponents")
    sp.add_argument("--primes", required=True)
    sp.add_argument("--s", dest="s_override", type=int)

    sp = command("circle", "major-arc comparison")
    sp.add_argument("--B", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--center", required=True,
                    help="c1,...,cn; write --center=-0.5,... when c1 is negative")
    sp.add_argument("--R-series", dest="R_series", type=int)
    sp.add_argument("--quad-tol", dest="quad_tol", type=float)

    sp = command("verify", "decay-bound verification", poly_required=False)
    sp.add_argument("--primes")
    sp.add_argument("--max-m", dest="max_m", type=int)
    sp.add_argument("--s", dest="s_override", type=int)
    sp.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    sp.add_argument("--max-units", dest="max_units", action="store_true",
                    help="the supremum of |E| over all units mod p^m")
    sp.add_argument("--self-test", dest="self_test", action="store_true")
    sp.add_argument("--seed", type=int, default=0, help="self-test corpus")
    return top


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


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


def _config_defaults(sp: argparse.ArgumentParser, cfg: dict[str, str]) -> dict[str, object]:
    """Convert each key=value whose key is a long flag of sp as that flag would."""
    flags = {opt[2:]: a for a in sp._actions for opt in a.option_strings if opt.startswith("--")}
    out = {}
    for key, raw in cfg.items():
        action = flags.get(key)
        if action is None or isinstance(action, argparse._HelpAction):
            continue  # unknown keys are ignored
        if isinstance(action, argparse._StoreTrueAction):
            value = raw.lower() in ("1", "true", "yes")
        else:
            value = action.type(raw) if action.type else raw
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"config {key}={raw!r}: expected one of "
                                 + ", ".join(map(str, action.choices)))
        out[action.dest] = value
    return out


def _parse_list(text: str, kind: type, what: str) -> tuple:
    try:
        return tuple(kind(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ValueError(f"bad {what} {text!r}") from exc


def build_config(argv: list[str]) -> argparse.Namespace:
    """Parse argv; config-file values become the subcommand's defaults, so explicit flags win."""
    parser = _build_parser()
    cfg = parser.parse_args(argv)
    if cfg.config:
        sp = _subparsers(parser)[cfg.command]
        sp.set_defaults(**_config_defaults(sp, _read_config_file(cfg.config)))
        cfg = parser.parse_args(argv)
    # split after parsing, so a bad list is a precondition error (exit 1)
    for name, kind, what in (("primes", int, "prime list"), ("center", float, "center")):
        if getattr(cfg, name, None) is not None:
            setattr(cfg, name, _parse_list(getattr(cfg, name), kind, what))
    return cfg


# -- command implementations ---------------------------------------------------


def _cmd_sum(f: Polynomial, cfg: argparse.Namespace) -> tuple[dict, bool]:
    if cfg.a is None:
        raise ValueError("sum requires --a")
    if cfg.N is None and cfg.method != "crt":  # one prime power, naive or pruned
        if cfg.p is None or cfg.m is None:
            raise ValueError("sum requires --p and --m (or --N)")
        route = exp_sum_naive if cfg.method == "naive" else exp_sum_pruned
        val = route(f, AdditiveCharacter(cfg.p, cfg.m, cfg.a))
        params = {"p": cfg.p, "m": cfg.m, "a": cfg.a, "method": cfg.method}
    else:  # CRT over N, or over p^m
        if cfg.method == "naive":
            raise ValueError("--method naive needs --p and --m, not --N")
        N = cfg.N
        if N is None and None not in (cfg.p, cfg.m):  # the prime-power route's checks
            N = AdditiveCharacter(cfg.p, cfg.m).modulus
            _require_prime(cfg.p)
        if N is None:
            raise ValueError("crt method requires --N or --p/--m")
        val = exp_sum_composite(f, N, cfg.a)
        params = {"N": N, "a": cfg.a, "method": "crt"}
    return {"params": params, "result": dataclasses.asdict(val)}, False


def _cmd_zeta(f: Polynomial, cfg: argparse.Namespace) -> tuple[dict, bool]:
    if cfg.max_m < 1:
        raise ValueError("zeta requires --max-m >= 1")
    gens = None
    if cfg.ideal != "f":
        gens = zeta.jacobian_squared_generators(f)
        if cfg.ideal == "f+jf2":
            gens = [f] + gens
    table, dens = zeta.poincare_coeffs(f, cfg.p, cfg.max_m, generators=gens)
    entries = [
        {"m": m, "count": c, "density": frac}
        for (m, c), (_, frac) in zip(table.entries, dens)
    ]
    result = {"kind": table.kind, "ideal": cfg.ideal, "entries": entries}
    if cfg.crosscheck:
        # every N_m from one zero-count table: this one, unless it counts an ideal
        zeros = table if gens is None else zeta.poincare_coeffs(f, cfg.p, cfg.max_m)[0]
        result["crosscheck"] = [zeta.fourier_crosscheck(f, cfg.p, m, count=count)
                                for m, count in zeros.entries[1:]]
    return {"params": {"p": cfg.p, "max_m": cfg.max_m, "ideal": cfg.ideal},
            "result": result}, False


def _fit_warnings(fit) -> list[str]:
    """The warning on a shaky dimension fit: a fitted s with residual > 0.15."""
    shaky = fit.override is None and fit.residual > 0.15
    return [f"dimension fit residual {fit.residual:.3f} exceeds 0.15"] if shaky else []


def _cmd_geometry(f: Polynomial, cfg: argparse.Namespace) -> tuple[dict, bool]:
    report = estimate_s(f, cfg.primes, override=cfg.s_override)
    sheet = exponent_sheet(f.n, f.degree(), report.effective_s)
    return {
        "params": {"primes": list(cfg.primes), "s_override": cfg.s_override},
        "result": {
            "counts": report.counts,
            "fitted_s": report.fitted_s,
            "residual": report.residual,
            "s": report.effective_s,
            "s_provenance": "override" if report.override is not None else "fitted",
            "exponents": sheet,
            "warnings": _fit_warnings(report),
        },
    }, False


def _cmd_circle(f: Polynomial, cfg: argparse.Namespace) -> tuple[dict, bool]:
    if len(cfg.center) != f.n:
        raise ValueError(f"center has {len(cfg.center)} coordinates, polynomial has {f.n}")
    w = WeightFunction(cfg.center, cfg.rho)
    fit = estimate_s(f, DEFAULT_VERIFY_PRIMES)
    tol = QUAD_TOL if cfg.quad_tol is None else cfg.quad_tol
    report = major_arc_report(f, cfg.B, cfg.delta, w, fit.effective_s,
                              R_series=cfg.R_series, tol=tol)
    report.warnings += _fit_warnings(fit)
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
    }, False


def _cmd_verify(f: Polynomial | None, cfg: argparse.Namespace) -> tuple[dict, bool]:
    if cfg.self_test:
        return _self_test(cfg)
    if f is None:
        raise ValueError("verify requires --poly")
    if not cfg.primes:
        raise ValueError("verify requires --primes")
    if cfg.max_m is None or cfg.max_m < 1:
        raise ValueError("verify requires --max-m >= 1")
    if cfg.s_override is not None:
        s_val, provenance = cfg.s_override, "override"
    else:
        primes = cfg.primes if len(set(cfg.primes)) >= 3 else DEFAULT_VERIFY_PRIMES
        s_val = estimate_s(f, primes).effective_s
        provenance = "fitted"
    fits = [
        decay_fit(f, p, range(1, cfg.max_m + 1), s_val, slack=cfg.slack,
                  max_units=cfg.max_units)
        for p in sorted(set(cfg.primes))
    ]
    failed = any(fit.verdict is Verdict.violates_theorem for fit in fits)
    return {
        "params": {
            "primes": list(cfg.primes), "max_m": cfg.max_m,
            "s": s_val, "s_provenance": provenance, "slack": cfg.slack,
            "max_units": cfg.max_units,
        },
        "result": {"fits": fits, "violations": failed},
    }, failed


def _self_test(cfg: argparse.Namespace) -> tuple[dict, bool]:
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


COMMANDS = {"sum": _cmd_sum, "zeta": _cmd_zeta, "geometry": _cmd_geometry,
            "circle": _cmd_circle, "verify": _cmd_verify}


def run(cfg: argparse.Namespace) -> tuple[int, dict]:
    """Dispatch a validated config; returns (exit_code, report dict).

    The run's budget (cfg.budget, else IGUSA_BUDGET) and IGUSA_WORKERS are
    checked first, and both hold until the run returns.  --poly is
    parsed once, before any work; COMMANDS[command](f, cfg) returns (body,
    failed), and report["poly"] renders f (None only for a bare self-test)."""
    enumeration.reset_meter()
    scope = enumeration._scope.set(None)  # the run reads its own settings; reset below
    try:
        settings = enumeration._setting(cfg.budget)
        enumeration._scope.set(settings)
        if cfg.command not in COMMANDS:
            raise ValueError(f"unknown command {cfg.command!r}")
        f = None if cfg.poly_text is None else parse_polynomial(cfg.poly_text)
        body, failed = COMMANDS[cfg.command](f, cfg)
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
        enumeration._scope.reset(scope)

    report = {"command": cfg.command}
    if f is not None:
        report["poly"] = f.render()
    report.update(body)
    report["budget"] = {"limit": settings[0], "points_consumed": enumeration.meter_consumed()}
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
