"""Every layer the benchmark traces, and every name the package exports,
still exists.

``perfbench/layers.py`` names package functions by module and attribute
path; a traced benchmark run wraps each of them and crashes on a name that
no longer resolves.  This guard catches such a deletion in well under a
second, without running the benchmark.  The export guard does the same for
each submodule's ``__all__`` and the names ``kippenhahn/__init__.py``
imports.  A third guard scans the test modules for imported names they
never use.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import kippenhahn
import kippenhahn.cli  # noqa: F401  (``cli.main`` is a traced layer)

TESTS = Path(__file__).resolve().parent
LAYERS_PY = TESTS.parent / "perfbench" / "layers.py"


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


def test_public_names_resolve_and_are_listed():
    dangling, unlisted = [], []
    for info in pkgutil.iter_modules(kippenhahn.__path__):
        module = importlib.import_module(f"{kippenhahn.__name__}.{info.name}")
        dangling += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    init = ast.parse(Path(kippenhahn.__file__).read_text())
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"{kippenhahn.__name__}.{node.module}")
            unlisted += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not alias.name.startswith("_") and alias.name not in module.__all__
            ]
    assert not dangling, f"names in __all__ that do not resolve: {dangling}"
    assert not unlisted, f"names kippenhahn imports but __all__ omits: {unlisted}"


def test_test_modules_use_every_import():
    unused = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, f"test modules import names they never use: {unused}"
