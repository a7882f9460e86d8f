"""The benchmark tracer wraps library functions by name; deleting or
renaming one of them breaks the harness, not the library's own tests."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracer.LAYERS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
