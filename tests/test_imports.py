"""Every module under `src/bbadapt/` and `tests/` uses each name it imports.

A name counts as used when the module reads it anywhere, or lists it in
`__all__` (a re-export). `from __future__ import ...` binds no name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "bbadapt").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never uses, each as `name (line N)`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_what_it_should():
    source = "from __future__ import annotations\nimport os, a.b\nfrom c import d as e, f\n__all__ = ['f']\na.b.x\n"
    assert unused_imports(source) == ["os (line 2)", "e (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
