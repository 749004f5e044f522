import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def empty_vertex_step(monkeypatch):
    """Make every vertex step's g table end one above f's level, so the
    step meets a really empty intersection, whatever kernel it runs."""
    engine = importlib.import_module("polybase.decompose")  # the module, not the function
    mirror = engine._mirror_values

    def raised(*args):
        g_values = mirror(*args)
        g_values[-1] += 1
        return g_values

    monkeypatch.setattr(engine, "_mirror_values", raised)
