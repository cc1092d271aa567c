"""Every statement in a function of the package runs on small experiment grids, or is exempt."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

from oracles import cells
from tempboost import dataio
from tempboost.dataio import Column, Dataset, save_csv
from tempboost.experiment import RunSpec, main, run
from tempboost.synthetic import make_mixed_table, make_wideband

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tempboost"
# (function, the first line of a statement, or None for all of the function):
# why no grid runs it.  Exempting a compound statement exempts the ones in it.
EXEMPT = {
    ("booster.Ensemble.decision_scores", None): "perfbench's tracer wraps it",
    ("experiment._pin_malloc_thresholds", "return"): "off Linux, or without mallopt",
    ("experiment._fork", "try:"): "runs in the forked cell process",
    ("synthetic.make_margin_blobs", None): "generates the tall benchmark's data",
}


def unreached(source: str, module: str, ran: set) -> list:
    """``(function, heads)`` of each statement in a function of ``source`` with
    no line in ``ran``: any line of a simple statement, the header of a compound one.

    ``heads`` are the stripped first lines of the statement and of the ones
    around it in its function.  Raises, except handlers and docstrings are
    error handling and documentation, and left out; a ``try`` counts through
    the statements in it.
    """
    text, found = source.splitlines(), []

    def visit(nodes, scope, function, heads):
        for node in nodes:
            if isinstance(node, ast.Raise) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            ):
                continue
            head = (*heads, text[node.lineno - 1].strip())
            body = getattr(node, "body", None)
            end = max(body[0].lineno, node.lineno + 1) if body else node.end_lineno + 1
            missed = ran.isdisjoint(range(node.lineno, end))
            if function and missed and not isinstance(node, ast.Try):
                found.append((function, head))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{node.name}"
                visit(node.body, name, name if isinstance(node, ast.FunctionDef) else None, ())
            elif function:  # not into a try's handlers
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, ()), scope, function, head)

    visit(ast.parse(source).body, module, None, ())
    return found


def lines_run(call, files) -> set:
    """``(filename, line)`` of each line of ``files`` that ``call()`` runs."""
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename in files else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return ran


def uncovered_and_stale(missed, exempt) -> tuple:
    """The ``missed`` statements no exemption covers, and the exemptions that cover none."""

    def covers(key, miss):
        return key[0] == miss[0] and key[1] in (None, *miss[1])

    uncovered = [miss for miss in missed if not any(covers(key, miss) for key in exempt)]
    return uncovered, [key for key in exempt if not any(covers(key, miss) for miss in missed)]


SAMPLE = (
    "def f(x):\n"
    '    """Documented."""\n'
    "    if x is None:\n"
    "        raise ValueError(x)\n"
    "    if x > 0:\n"
    "        return 1\n"
    "    try:\n"
    "        return 1 / x\n"
    "    except ZeroDivisionError:\n"
    "        return 0\n"
)


def test_an_unreached_statement_is_found_and_a_raise_is_not():
    namespace: dict = {}
    exec(compile(SAMPLE, "<sample>", "exec"), namespace)
    ran = {line for _, line in lines_run(lambda: namespace["f"](-2), {"<sample>"})}
    assert unreached(SAMPLE, "m", ran) == [("m.f", ("if x > 0:", "return 1"))]


def test_an_exemption_that_covers_no_unreached_statement_is_stale():
    missed = [("m.f", ("if x > 0:", "return 1"))]
    exempt = {("m.f", "if x > 0:"): "", ("m.f", "return 1 / x"): "", ("m.g", None): ""}
    assert uncovered_and_stale(missed, exempt) == ([], [("m.f", "return 1 / x"), ("m.g", None)])
    assert uncovered_and_stale(missed, {}) == (missed, [])


def test_every_statement_runs_on_the_grids_or_is_exempt(tmp_path):
    names = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    files = {importlib.import_module(f"tempboost.{name}").__file__: name for name in names}
    grid = dict(folds=2, t_values=(0.0, 0.6, 0.995, 1.0, 1.1), rounds=5, tree_nodes=7)
    wideband, mixed = tmp_path / "wideband.csv", tmp_path / "mixed.csv"
    small, doubles = tmp_path / "small.csv", tmp_path / "doubles.csv"
    late = tmp_path / "late.csv"

    def grids():
        save_csv(make_wideband(m=120), wideband)
        # a level with a comma makes save_csv quote it, so that the C reader
        # declines this file to csv.reader; it reads the unquoted wideband one
        table = make_mixed_table(m=400)
        color = table.columns[0]
        dark = np.where(cells(color) == "red", "red, dark", cells(color))
        columns = (Column(color.name, color.kind, dark), *table.columns[1:])
        save_csv(Dataset(columns, table.labels, table.label_name), mixed)
        run(RunSpec(str(wideband), out_dir=str(tmp_path / "a"), **grid))
        run(RunSpec(str(mixed), "class", noise=0.1, out_dir=str(tmp_path / "b"), **grid))
        # 5 and 6 folds: the t-test's series at 4 and 5 degrees of freedom
        for folds in (5, 6):
            tiny = dict(folds=folds, t_values=(0.0, 1.0), rounds=1, tree_nodes=3)
            run(RunSpec(str(wideband), out_dir=str(tmp_path / f"f{folds}"), **tiny))
        # test folds of 8 rows: t=0 errs by 1/8 more than t=1 in every fold,
        # a gap without spread, and t=0.6 by gaps whose p-value is below TTEST_ALPHA
        save_csv(make_wideband(m=32, seed=0), small)
        verdicts = dict(folds=4, t_values=(0.0, 0.6, 1.0), rounds=3, tree_nodes=3, seed=1)
        run(RunSpec(str(small), out_dir=str(tmp_path / "verdicts"), **verdicts))
        # each value and level once, so that every root run is a single entry;
        # on a training fold holding both, x's best cut lies between 1.0 and
        # the next double, and their midpoint rounds onto 1.0
        x = [0.1, 0.2, 0.97, 0.98, 0.99, 1.0, 1.0000000000000002, 1.01, 1.02, 1.03, 5.0, 6.0]
        y = [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1]
        rows = (f"{v!r},{level},{label}\n" for v, level, label in zip(x, "abcdefghijkl", y))
        doubles.write_text("x,c,y\n" + "".join(rows), encoding="utf-8")
        tiny = dict(folds=3, t_values=(1.0,), rounds=1, tree_nodes=3)
        run(RunSpec(str(doubles), out_dir=str(tmp_path / "doubles"), **tiny))
        # a column of numbers for more than a block of the text, then of words:
        # numpy refuses the words, and csv.reader reads the file again with
        # that column read as text
        rng = np.random.default_rng(3)
        m = 3000
        level = np.where(np.arange(m) < m - 100, (np.arange(m) % 5).astype(str), "late")
        columns = (Column("x", "numeric", rng.normal(size=m)), Column("c", "categorical", level))
        save_csv(Dataset(columns, np.where(rng.random(m) < 0.5, 1, -1)), late)
        assert late.read_text(encoding="utf-8").index("late") > dataio.BLOCK_CHARS
        tiny = dict(folds=2, t_values=(1.0,), rounds=1, tree_nodes=3)
        run(RunSpec(str(late), out_dir=str(tmp_path / "late"), **tiny))
        # the command line and the fan-out's side of run in this process; the
        # forked child runs its cells where this trace does not see them
        fanned = ["--folds", "2", "--t", "1", "--iters", "1", "--jobs", "2"]
        main(["--data", str(wideband), *fanned, "--out", str(tmp_path / "c")])
        # a 1-node tree predicts 0 once the classes balance: a cell fails, main exits 2
        stump = ["--folds", "2", "--t", "1", "--iters", "2", "--tree-nodes", "1"]
        assert main(["--data", str(small), *stump, "--out", str(tmp_path / "d")]) == 2

    ran = lines_run(grids, files)
    missed = []
    for file, name in files.items():
        source = Path(file).read_text(encoding="utf-8")
        missed += unreached(source, name, {line for f, line in ran if f == file})
    assert uncovered_and_stale(missed, EXEMPT) == ([], [])
