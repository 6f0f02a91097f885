"""Every script in demos/ runs to completion against the package in src/,
every function that perfbench/spans.py traces exists in it, and no module of
it imports a name that it never uses."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_every_traced_target_resolves():
    # spans.py is read and executed here, never imported: no cache file is written.
    path = ROOT / "perfbench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans)
    missing = []
    for module, attr, _, _ in spans["TARGETS"]:
        owner = importlib.import_module(f"maxsurf.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert not missing


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((ROOT / "src" / "maxsurf").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):  # "import a.b" binds a
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused
