"""Every import in the package and its tests is read somewhere.

An import nothing reads costs load time and misstates what a module
depends on.  ``__init__.py`` files import to re-export, so they are
skipped; an import statement marked ``# noqa: F401`` is deliberate
(e.g. one made for its side effect).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = (ROOT / "src" / "repro", ROOT / "tests")


def _annotation_names(tree: ast.AST) -> set:
    """Names read inside string annotations (``x: "Engine"``)."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                }
    return names


def _exported_names(tree: ast.Module) -> set:
    """Names listed in a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            }
    return names


def unused_imports(path: pathlib.Path) -> list:
    """``(line, name)`` of every import ``path`` never reads."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(
            "noqa: F401" in line
            for line in lines[node.lineno - 1 : node.end_lineno]
        ):
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    read |= _annotation_names(tree) | _exported_names(tree)
    return [(line, name) for line, name in imported if name not in read]


def test_no_unused_imports():
    findings = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted(top.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert findings == [], "unused imports:\n" + "\n".join(findings)


def test_scanner_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Optional\n"
        "import numpy as np\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(module) == [(1, "os"), (3, "List")]
