"""`src/bbadapt/` opens a file for writing exactly once: inside
`write_atomically`, in text mode, with `encoding="utf-8"`. So every file a
run leaves behind goes through the atomic path, and its bytes do not
depend on the locale.

A call of `open(file, mode)`, `fdopen(fd, mode)` or a `path.open(mode)`
method reads only when its mode is a string literal holding none of "w",
"a", "x" and "+"; no mode means "r". Every other such call, and every
`write_text` and `write_bytes` call, counts as a write.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "bbadapt").glob("*.py"))


def _literal(node) -> str:
    return repr(node.value) if isinstance(node, ast.Constant) else "?"


def writing_opens(source: str) -> list[str]:
    """Each call in `source` that may write a file, with its mode and
    encoding, after the name of the innermost function holding it."""
    found = []

    def visit(node, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in ("write_text", "write_bytes"):
                found.append(f"{function}: {name}")
            elif name in ("open", "fdopen"):
                keywords = {kw.arg: kw.value for kw in node.keywords}
                at = 0 if name == "open" and isinstance(node.func, ast.Attribute) else 1  # path.open(mode)
                mode = keywords.get("mode", node.args[at] if len(node.args) > at else ast.Constant("r"))
                known = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                if not (known and not set("wax+") & set(mode.value)):
                    encoding = _literal(keywords.get("encoding"))
                    found.append(f"{function}: {name} mode={_literal(mode)} encoding={encoding}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_what_it_should():
    source = (
        "open('a')\nopen('a', 'rb')\nopen('a', mode='w')\n"
        "def f(p, m):\n    p.open('ab')\n    p.open()\n    open(p, m)\n"
        "    def g():\n        open(p, 'r+', encoding='utf-8')\n"
        "    os.fdopen(3, 'r')\n    os.fdopen(3, 'w')\n    p.write_text('x')\n"
    )
    assert writing_opens(source) == [
        "<module>: open mode='w' encoding=?",
        "f: open mode='ab' encoding=?",
        "f: open mode=? encoding=?",
        "g: open mode='r+' encoding='utf-8'",
        "f: fdopen mode='w' encoding=?",
        "f: write_text",
    ]


def test_every_file_is_written_by_write_atomically_in_utf8():
    found = [f"{path.name} {call}" for path in MODULES for call in writing_opens(path.read_text())]
    assert found == ["nets.py write_atomically: open mode='w' encoding='utf-8'"]
