"""Static checks on the package source, standing in for a linter."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


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


def by_module(check, exempt=()) -> dict:
    """``check``'s findings in each package module not in ``exempt``, by path."""
    return {
        name: found
        for path in sorted(SRC.rglob("*.py"))
        if (name := path.relative_to(SRC).as_posix()) not in exempt
        if (found := check(path.read_text(encoding="utf-8")))
    }


def test_no_module_imports_a_name_it_does_not_use():
    assert not by_module(unused_imports)


def private_imports(source: str) -> list:
    """(line, name) of every ``_``-prefixed name, dunders aside, that the
    module imports from the package, by a relative or a ``tempboost`` import."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "tempboost")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_private_imports_are_found():
    source = "from .a import b, _c\nfrom . import _d, __all__\nfrom tempboost.e import _f\n"
    assert private_imports(source + "from numpy import _g\n") == [(1, "_c"), (2, "_d"), (3, "_f")]


def test_no_module_imports_a_private_name_from_another():
    assert not by_module(private_imports)


def _names_read(nodes) -> set:
    """Names the nodes read as a variable or an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in nodes
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_definitions(sources, readers=()) -> list:
    """Names of the module-level functions and classes that no live code reads.

    Code reads a name as a variable or an attribute; a string, such as a
    docstring, does not.  A definition is live when code outside the dead
    definitions reads its name, so what only dead code reads is dead too.
    ``readers`` are more sources, whose own definitions are not checked.
    """
    statements = [node for text in sources for node in ast.parse(text).body]
    defined = [node for node in statements if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    outside = _names_read(ast.parse(text) for text in readers)
    dead: set = set()
    while True:
        read = outside | _names_read(node for node in statements if node not in dead)
        newly = {node for node in defined if node.name not in read} - dead
        if not newly:
            return sorted(node.name for node in dead)
        dead |= newly


def test_unread_definitions_are_found():
    source = (
        "def a():\n    return b()\n\n"
        "def b():\n    \"\"\"Not c.\"\"\"\n\n"
        "def c():\n    return D\n\n"
        "class D:\n    pass\n"
    )
    assert unread_definitions([source], readers=["import m\nm.c()\n"]) == ["a", "b"]


def test_the_program_reads_every_definition_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))]
    readers = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.rglob("*.py"))]
    assert unread_definitions(sources, readers) == []


def test_the_tests_read_every_test_helper():
    names = ("oracles.py", "paper_math.py")
    helpers = [(TESTS / name).read_text(encoding="utf-8") for name in names]
    readers = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("test_*.py"))]
    assert unread_definitions(helpers, readers) == []


def csv_imports(source: str) -> list:
    """Lines that import the ``csv`` module, whole or by name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "csv")
    ]


def test_csv_imports_are_found():
    source = "import csv\nimport os, csv as c\nfrom csv import writer\nfrom .csvish import csv\n"
    assert csv_imports(source) == [1, 2, 3]


# numpy's text readers and writers, which parse or write CSV as the csv module does
NUMPY_TEXT_IO = {"loadtxt", "genfromtxt", "fromstring", "savetxt"}


def numpy_text_io(source: str) -> list:
    """Lines that call a name in ``NUMPY_TEXT_IO``, as an attribute, as in
    ``np.loadtxt(...)``, or bare, as after ``from numpy import loadtxt``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in NUMPY_TEXT_IO
    ]


def test_numpy_text_io_calls_are_found():
    source = (
        "import numpy as np\nfrom numpy import genfromtxt\na = np.loadtxt(f, delimiter=',')\n"
        "b = genfromtxt(f)\nnp.savetxt(f, a)\nc = np.fromstring(s, sep=',')\nd = np.frombuffer(s)\n"
    )
    assert numpy_text_io(source) == [3, 4, 5, 6]


def test_only_dataio_reads_or_writes_csv():
    assert not by_module(csv_imports, {"tempboost/dataio.py"})
    assert not by_module(numpy_text_io, {"tempboost/dataio.py"})


# numpy names backed by BLAS, whose sum order depends on the BLAS library
# and its thread count, so that their bits do not reproduce from the seed
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}
# ``latent @ mix`` generates the benchmark's wideband CSV; changing it
# would change the benchmark's input
BLAS_EXEMPT = {"tempboost/synthetic.py"}


def blas_uses(source: str) -> list:
    """(line, what) of every BLAS-backed numpy use in the source: the ``@``
    operator, and a name in ``BLAS_NAMES`` read as an attribute, as in
    ``np.dot`` or ``x.dot``, or imported from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                parts = set(f"{module}.{alias.name}".split("."))
                if "numpy" in parts and parts & BLAS_NAMES:
                    found.append((node.lineno, alias.name))
    return sorted(found)


def test_blas_uses_are_found():
    source = (
        "import numpy as np\nfrom numpy import dot\nimport numpy.linalg\n"
        "a = np.dot(x, y)\nb = x @ y\nb @= y\nc = x.dot(y)\nd = np.linalg.norm(x)\n"
        "e = np.add.reduce(x * y)\nf = np.cumsum(x)\n"
    )
    assert blas_uses(source) == [
        (2, "dot"), (3, "numpy.linalg"), (4, "dot"), (5, "@"), (6, "@"), (7, "dot"), (8, "linalg")
    ]


def test_no_module_outside_the_generators_calls_blas():
    assert not by_module(blas_uses, BLAS_EXEMPT)
