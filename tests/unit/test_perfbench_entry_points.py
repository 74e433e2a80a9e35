"""The traced benchmark run resolves every entry point it wraps.

``perfbench/tracing.py`` names driver, runtime and engine methods by
string; renaming or removing one of them would only surface as a crash
of ``perfbench/run.py --trace 1``.  This pins every name to the code.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()
ENTRY_POINTS = [
    *_tracing.SIM_ENTRY_POINTS,
    *_tracing.DAEMON_ENTRY_POINTS,
    *_tracing.CLIENT_ENTRY_POINTS,
]


@pytest.mark.parametrize(
    "module_name,path,layer", ENTRY_POINTS, ids=[f"{m}:{p}" for m, p, _ in ENTRY_POINTS]
)
def test_entry_point_resolves(module_name, path, layer):
    assert layer in _tracing.LAYER_INDEX
    target = importlib.import_module(module_name)
    for name in path.split("."):
        target = getattr(target, name)
    assert callable(target)
