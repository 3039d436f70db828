"""Source hygiene that no installed linter covers: every import and every definition is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sepmonad"

# The input formats the tests build matrices and fields from; no module
# of the package needs them.
TEST_INPUT_FORMATS = {"Matrix.from_rows", "GF"}


def _unread_imports(path):
    """Names that ``path`` imports, at any depth, but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    # __init__.py imports to re-export, so it is the one module left out
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unread = [f"{p.name}:{line}: {name}" for p in modules for line, name in _unread_imports(p)]
    assert unread == []


def _definitions(tree):
    """(qualified name, line) of every function, method and class, dunders aside."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((f"{prefix}{name}", child.lineno))
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _read_names(path):
    """Every name ``path`` reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_definition_is_read():
    # a definition whose only readers are its tests is dead code;
    # __init__.py's re-exports do not count as reads, perfbench's reads do
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    readers = modules + sorted((ROOT / "perfbench").glob("*.py"))
    assert len(readers) > len(modules) > 5
    read = set().union(*map(_read_names, readers))
    unread = [f"{p.name}:{line}: {name}"
              for p in modules
              for name, line in _definitions(ast.parse(p.read_text(encoding="utf-8")))
              if name.rsplit(".", 1)[-1] not in read and name not in TEST_INPUT_FORMATS]
    assert unread == []
