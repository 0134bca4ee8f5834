"""The bench tracer (perfbench/spans.py) patches expsums functions by name,
and its Tracer.install raises AttributeError on a name that no longer
exists, which breaks every traced bench run.  This reads the TRACED table
from the file, without importing or installing the tracer, and checks
that each name still resolves and that the arguments its counters read
keep their positions."""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_table() -> dict[str, list[str]]:
    for node in ast.parse(SPANS.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_every_traced_name_resolves():
    table = _traced_table()
    assert table
    missing = []
    for mod_name, names in table.items():
        module = importlib.import_module(f"expsums.{mod_name}")
        for name in names:
            obj = module
            for part in name.split("."):  # "Class.method" entries resolve on the class
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{name}")
    assert not missing, f"perfbench/spans.py traces names that do not resolve: {missing}"


def test_points_counters_read_leading_arguments():
    # the tracer's "points" counters read f or polys at position 0 and grid
    # at position 1 (spans._histogram_points, spans._zero_locus_points)
    enumeration = importlib.import_module("expsums.enumeration")
    leading = {
        "residue_histogram": ["f", "grid"],
        "common_zero_points": ["polys", "grid"],
        "count_common_zeros": ["polys", "grid"],
    }
    for name, want in leading.items():
        params = list(inspect.signature(getattr(enumeration, name)).parameters)
        assert params[:2] == want, (name, params)
