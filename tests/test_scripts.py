"""Smoke tests: every invocation listed in a script's docstring runs."""

import ast
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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
