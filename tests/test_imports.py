"""The drawing path runs without networkx, which only the tests use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fewslopes import draw_onebend, draw_straight, draw_twobend, verify_drawing
from fewslopes.families import gen_random_triangulation

SRC = Path(__file__).resolve().parents[1] / "src"


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
