"""Every script in demos/ runs to completion, and the README's library quick
start gives the results its comments state."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irreducia.cli import render_factorization
from irreducia.poly import parse_poly

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # run the README's Python block line by line, keeping each expression's
    # value under its comment, and check the values the comments state
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1]
    block = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    said = {}
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            said[comment.strip()] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert said["'eisenstein_generalized'"] == "eisenstein_generalized"
    assert said["{'p': 2, 'k': 2, 'j': 3}"] == {"p": 2, "k": 2, "j": 3}
    assert render_factorization(said["(2z+1)(3z+1)"]) == "(2z+1)(3z+1)"
    assert said["4 + 4z + z^3"] == parse_poly("4 + 4z + z^3")
