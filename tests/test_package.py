"""Package surface: the public export list stays in step with the modules,
no module of the package or of the tests imports a name it never reads, and
only flux_model asks what a freeze hook can do."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import hetflux


def test_every_export_resolves_once():
    counts = Counter(hetflux.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in hetflux.__all__ if not hasattr(hetflux, name)] == []
    # Model-only setup lives on the model (FluxModel.curve), not in signatures.
    callables = {}
    for name in hetflux.__all__:
        obj = getattr(hetflux, name)
        if inspect.isclass(obj):
            if issubclass(obj, Exception):
                continue
            for attr, raw in vars(obj).items():
                if inspect.isfunction(raw) or isinstance(raw, classmethod):
                    callables[f"{name}.{attr}"] = getattr(obj, attr)
        if callable(obj):
            callables[name] = obj
    takes_curve = [name for name, fn in callables.items()
                   if "curve" in inspect.signature(fn).parameters]
    assert takes_curve == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_an_unused_name():
    # __init__.py re-exports by import, so it is the one module exempt.
    src = Path(hetflux.__file__).parent
    paths = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unused = {
        f"{path.parent.name}/{path.name}": names
        for path in paths
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_only_flux_model_asks_what_an_object_offers():
    # frozen_flux completes every freeze hook, so no other module needs a
    # hasattr fork on what a frozen flux (or anything else) can do.
    src = Path(hetflux.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py")) if path.name != "flux_model.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "hasattr"
    ]
    assert calls == []
