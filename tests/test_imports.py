"""Source hygiene that no installed linter covers: every import is read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sepmonad"


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
