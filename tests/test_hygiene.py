"""Dead-code checks on the package source, with the standard-library `ast`:
every import is used, and every private module-level name is referenced.
And the benchmark's tracer, read the same way, names only functions that
exist."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kobalab"
TRACER = PACKAGE.parent.parent / "perfbench" / "tracing.py"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree) -> set:
    """The names a module reads: bare names, and the root name of each
    dotted access."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _references(tree) -> set:
    """The names a module reads, the attributes it takes and the names it
    imports from other modules."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", [name for name in MODULES if name != "__init__.py"])
def test_no_unused_imports(name):
    # the package's __init__ re-exports what it imports
    tree = MODULES[name]
    used = _loaded(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"{name} imports unused names: {unused}"


def test_every_private_module_level_name_is_referenced():
    referenced = set().union(*(_references(tree) for tree in MODULES.values()))
    unreferenced = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [f"{name}: {d}" for d in defined
                             if d.startswith("_") and not d.startswith("__")
                             and d not in referenced]
    assert not unreferenced, f"private names nothing references: {unreferenced}"


def test_every_traced_function_exists():
    # the tracer wraps each layer's functions by their `module.function`
    # names and reports a name it cannot find as missing, so a moved or
    # renamed function would leave its layer empty without failing there;
    # the tracer's source is only read
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    layers, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    names = sorted({name for functions in layers.values() for name in functions})
    assert names
    missing = []
    for name in names:
        module, function = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module("kobalab." + module), function, None)):
            missing.append(name)
    assert not missing, f"traced functions that kobalab does not define: {missing}"
