"""Static checks over the package source: no module keeps an import it does
not use."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spikedrive"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads and
    does not list in ``__all__``; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    src = ("from __future__ import annotations\nimport os\nimport sys\n"
           "from .a import b, c as d\n__all__ = ['b']\nprint(sys.argv)\n")
    assert unused_imports(src) == ["line 2: os", "line 4: d"]
