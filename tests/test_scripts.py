"""Smoke tests: every invocation listed in a script's docstring runs, and
the report scripts print the CLI's reports, refusals included."""

import ast
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from expsums.cli import EXIT_BUDGET, EXIT_PRECONDITION, _build_parser, _subparsers, build_config, run

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("decay_grid.py", "density_table.py", "major_arc_demo.py")


def _invocations(name: str) -> list[list[str]]:
    doc = ast.get_docstring(ast.parse((ROOT / "scripts" / name).read_text()))
    out = []
    for line in doc.splitlines():
        if line.strip().startswith(f"python scripts/{name}"):
            out.append([sys.executable] + shlex.split(line, comments=True)[1:])
    return out


CASES = [cmd for name in SCRIPTS for cmd in _invocations(name)]


def test_every_script_lists_an_invocation():
    assert {Path(cmd[1]).name for cmd in CASES} == set(SCRIPTS)


@pytest.mark.parametrize("cmd", CASES, ids=[" ".join(c[1:]) for c in CASES])
def test_documented_invocation_runs(cmd):
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert "Traceback" not in done.stderr


def _script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, f"scripts/{name}", *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, argv, code, line", [
    ("density_table.py", ["--poly", "x1^3+x2^3+x3^3", "--p", "101", "--max-m", "5", "--crosscheck"],
     EXIT_BUDGET, "error: zero-count enumeration needs 1061520150601 points, budget is 100000000"),
    ("decay_grid.py", ["--poly", "x1^3+x2^3", "--primes", "7,4", "--max-m", "2"],
     EXIT_PRECONDITION, "error: 4 is not prime"),
    ("decay_grid.py", ["--poly", "x1^3+x2^3", "--primes", "7,x"],
     EXIT_PRECONDITION, "error: bad prime list '7,x'"),
    ("decay_grid.py", ["--self-test"], EXIT_PRECONDITION,
     "error: --out and --self-test are not table flags; run expsums verify"),
    ("density_table.py", ["--poly", "x1^2", "--out", "report.json"], EXIT_PRECONDITION,
     "error: --out is not a table flag; run expsums zeta for a report file"),
], ids=["budget", "composite-prime", "bad-prime-list", "self-test", "out"])
def test_refusal_is_one_error_line(name, argv, code, line, monkeypatch):
    # the scripts printed a traceback and exited 1 for the first two; passed
    # through, --self-test's report has no fits and --out would write nothing
    monkeypatch.delenv("IGUSA_BUDGET", raising=False)
    done = _script(name, *argv)
    assert (done.returncode, done.stderr.splitlines(), done.stdout) == (code, [line], "")


IDEALS = next(a.choices for a in _subparsers(_build_parser())["zeta"]._actions if a.dest == "ideal")


@pytest.mark.parametrize("ideal", IDEALS)
def test_density_table_prints_the_zeta_counts(ideal):
    argv = ["--poly", "x1^2+x2^3", "--p", "3", "--max-m", "3", "--ideal", ideal]
    done = _script("density_table.py", *argv)
    assert done.returncode == 0, done.stderr
    counts = [int(line.split()[1]) for line in done.stdout.splitlines()[2:]]
    _, report = run(build_config(["zeta", *argv]))
    assert counts == [row["count"] for row in report["result"]["entries"]]
