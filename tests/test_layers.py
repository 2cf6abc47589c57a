"""Every layer the benchmark traces still exists in the package.

``perfbench/layers.py`` names package functions by module and attribute
path; a traced benchmark run wraps each of them and crashes on a name that
no longer resolves.  This guard catches such a deletion in well under a
second, without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import kippenhahn
import kippenhahn.cli  # noqa: F401  (``cli.main`` is a traced layer)

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    busy_on = _load_layers().BUSY_ON
    assert busy_on
    missing = []
    for module_name, qualname in busy_on:
        target = importlib.import_module(f"{kippenhahn.__name__}.{module_name}")
        for part in qualname.split("."):
            target = getattr(target, part, None)
            if target is None:
                break
        if not callable(target):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, f"traced layers that no longer resolve: {missing}"
