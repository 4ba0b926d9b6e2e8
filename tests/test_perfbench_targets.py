"""The benchmark tracer's targets exist in the library.

``perfbench/tracer.py`` names each traced function by module and attribute
path, and skips a name it cannot find without an error. A rename or deletion
in the library would then drop that layer's metrics from the benchmark
unnoticed, so every target must resolve here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize(
    "module,path", [pytest.param(module, path, id=layer) for layer, module, path, _ in _targets()]
)
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
