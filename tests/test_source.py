"""Static checks on the package source, standing in for a linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads.

    An import line marked ``# noqa`` is exempt, as are ``__future__``
    imports; ``import a.b`` binds, and is read as, ``a``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport sys  # noqa\nfrom math import inf, pi\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "inf")]


def test_no_module_imports_a_name_it_does_not_use():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found
