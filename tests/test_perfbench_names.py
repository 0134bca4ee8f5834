"""The bench (perfbench/) calls expsums by name: its tracer (spans.py)
patches functions by name, and Tracer.install raises AttributeError on a
name that no longer exists, which breaks every traced bench run; its
worker (worker.py) builds and checks every workload through the package's
public names.  This reads both files with ast, without importing them,
and checks that each name still resolves and that the arguments the
tracer's counters read keep their positions."""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKER = SPANS.with_name("worker.py")


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
            if "." in name:  # Tracer.install reads a method from its class's own __dict__
                cls_name, meth = name.split(".")
                obj = vars(getattr(module, cls_name, object)).get(meth)
            else:
                obj = getattr(module, name, None)
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


def _resolve(module_name: str, name: str):
    """expsums.<module_name>.<name>, importing it if it is a submodule."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def test_every_worker_name_resolves():
    tree = ast.parse(WORKER.read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "expsums":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "expsums":
            for alias in node.names:
                obj = _resolve(node.module, alias.name)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(obj):
                    modules[alias.asname or alias.name] = obj
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert {alias for alias, _ in reads} == set(modules), "a module the worker imports is unread"
    missing += [f"{alias}.{attr}" for alias, attr in sorted(reads)
                if not hasattr(modules[alias], attr)]
    assert not missing, f"perfbench/worker.py uses names that do not resolve: {missing}"
