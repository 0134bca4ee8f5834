"""In-memory span tracer for the expsums package, installed from outside.

Every traced function is replaced by a wrapper in every module namespace
that binds it (modules import by name, so ``circle.exp_sum_composite`` and
``charsums.exp_sum_composite`` are separate bindings of one function).
Methods are patched on their class.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_span, job]``.  Spans are
recorded only while ``job`` is set, so set-up and output checks stay out;
they stay in memory until ``layer_stats`` reduces them.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# Functions and methods traced, by module.  Configuration accessors such as
# enumeration.default_workers are left out: they do no work and would double
# the span count of every kernel call.
TRACED = {
    "cli": ["run"],
    "reports": ["serialize_report"],
    "circle": [
        "major_arc_report", "singular_series", "singular_series_local",
        "singular_integral", "oscillatory_integral", "weighted_solution_count",
        "weighted_exponential_sum", "complete_sum_mod_q", "OscillatoryIntegrator.value",
    ],
    "bounds": ["deligne_check", "decay_fit", "conjecture_gap_report"],
    "geometry": ["estimate_s", "critical_count"],
    "zeta": ["count_zeros_mod", "count_order_ge", "poincare_coeffs", "fourier_crosscheck"],
    "charsums": [
        "exp_sum_composite", "exp_sum_pruned", "exp_sum_naive", "exp_sum_direct",
        "finite_field_sum",
    ],
    "enumeration": [
        "residue_histogram", "common_zero_points", "count_common_zeros",
        "eval_points_mod", "eval_box_exact",
    ],
    "polynomials": ["parse_polynomial", "Polynomial.shift_scale"],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _histogram_points(args, kwargs):
    return {"points": _arg(args, kwargs, 1, "grid") ** _arg(args, kwargs, 0, "f").n}


def _zero_locus_points(args, kwargs):
    polys = _arg(args, kwargs, 0, "polys")
    return {"points": _arg(args, kwargs, 1, "grid") ** polys[0].n * len(polys)}


# Named counts taken from a traced call's arguments or result.
COUNTS = {
    "charsums.exp_sum_pruned": lambda a, k, r: {"fibers": r.fiber_count or 0},
    "circle.singular_integral": lambda a, k, r: {"panels": getattr(r, "panels", 0)},
    "enumeration.residue_histogram": lambda a, k, r: _histogram_points(a, k),
    "enumeration.common_zero_points": lambda a, k, r: _zero_locus_points(a, k),
    "enumeration.count_common_zeros": lambda a, k, r: _zero_locus_points(a, k),
    "reports.serialize_report": lambda a, k, r: {"bytes": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job = None
        self._local = threading.local()

    def _wrap(self, name, fn):
        spans, local, clock = self.spans, self._local, time.perf_counter_ns
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), 0, stack[-1] if stack else None, self.job]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[name][key] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of the TRACED callables in loaded expsums modules."""
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"expsums.{mod_name}")
            for name in names:
                label = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(label, cls.__dict__[meth]))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(label, original)
                for mod in list(sys.modules.values()):
                    if mod is None or not (mod.__name__ == "expsums" or mod.__name__.startswith("expsums.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def layer_stats(self) -> dict[str, float]:
        """Per traced name: calls, self_s and its named counts."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        stats: dict[str, float] = defaultdict(float)
        for span in self.spans:
            name = span[0]
            covered = _covered_ns([(c[1], c[2]) for c in children.get(id(span), ())], span[1], span[2])
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += (span[2] - span[1] - covered) / 1e9
        for name, counts in self.counts.items():
            for key, value in counts.items():
                stats[f"{name}.{key}"] += value
        return dict(stats)

    def top_level_ns(self, start_ns: int, end_ns: int) -> int:
        """Time in [start_ns, end_ns] covered by spans that have no parent."""
        return _covered_ns([(s[1], s[2]) for s in self.spans if s[3] is None], start_ns, end_ns)


def _covered_ns(intervals, lo, hi) -> int:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
