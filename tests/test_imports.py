"""The drawing path runs without networkx, which only the tests use, and
no module imports a name it never uses."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fewslopes import draw_onebend, draw_straight, draw_twobend, verify_drawing
from fewslopes.families import gen_random_triangulation

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.name for p in (SRC / "fewslopes").glob("*.py") if p.name != "__init__.py")


def test_import_leaves_networkx_unloaded():
    probe = "import sys, fewslopes; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("draw", [draw_straight, draw_onebend, draw_twobend])
def test_pipelines_draw_and_verify_without_networkx(monkeypatch, draw):
    # a None entry makes every `import networkx` raise ImportError
    monkeypatch.setitem(sys.modules, "networkx", None)
    assert verify_drawing(draw(gen_random_triangulation(20, 3))).ok


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    tree = ast.parse((SRC / "fewslopes" / name).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
