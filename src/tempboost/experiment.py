"""Cross-validated benchmark harness with per-round traces.

For every (fold, temperature) cell the harness injects label noise into
the training split only, boosts tempered-loss trees, and evaluates the
plain and the clamped model on the untouched test fold after every round.
It emits a flat ``trace.csv``, a per-temperature ``summary.csv`` with
paired t-test verdicts against t=1, tidy per-panel plot data, and a
``manifest.json`` recording the run's settings and what decides its bits:
the input file's sha256, the Python and numpy versions, the SIMD
extensions numpy found, and each cell's status.  The same options on the
same file and environment rerun it.
The t-test's p-value is the closed-form Student-t tail for integer
degrees of freedom (Abramowitz & Stegun 26.7.3 and 26.7.4), so the
harness needs numpy alone.

A process takes each fold's training and test Datasets once and shares
them between the fold's cells that it runs, so every temperature trains on
the same rows and, with label noise, on the same noisy labels: the noise is
drawn once per fold from a stream derived from (seed, fold).  Tree
induction draws no random numbers, so a cell depends only on its fold and
temperature; results do not depend on execution order, and --jobs N runs
the cells in N processes, this one and N - 1 forked children, each taking
the next cell of the fold-major grid from a shared counter.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import operator
import os
import pickle
import signal
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .booster import ScoreFold, boost
from .booster import zero_one_error  # noqa: F401  perfbench wraps experiment.zero_one_error
from .dataio import TABLE_ERRORS, Dataset, inject_label_noise, load_csv, stratified_folds, write_csv
from .errors import TempBoostError
from .talgebra import TemperConfig
from .tree import TreeWeakLearner

PLOT_PANELS = (
    "test_err_unclamped",
    "test_err_clamped",
    "min_codensity",
    "max_codensity",
)


@dataclass(frozen=True)
class RunSpec:
    """Everything one benchmark run depends on."""

    data_path: str
    label_column: str = "last"
    t_values: tuple = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1)
    rounds: int = 20
    tree_nodes: int = 15
    folds: int = 10
    noise: float = 0.0
    seed: int = 0
    jobs: int = 1
    out_dir: str = "results"

    def __post_init__(self):
        for name in ("rounds", "tree_nodes", "folds", "jobs", "seed"):  # numpy's integers too
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        object.__setattr__(self, "t_values", tuple(TemperConfig(t).t for t in self.t_values))
        if not self.t_values:
            raise ValueError("t_values names no temperature in [0, 2)")
        if len(set(self.t_values)) < len(self.t_values):  # -0.0 == 0.0 repeats too
            raise ValueError(f"t_values repeats a temperature: {self.t_values}")
        if self.rounds < 1:
            raise ValueError("need at least one boosting round")
        if self.folds < 2:
            raise ValueError("need at least two folds")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError("noise rate must lie in [0, 1)")
        if self.jobs < 1 or (self.jobs > 1 and not hasattr(os, "fork")):
            raise ValueError(f"jobs must be positive, and 1 where os.fork is missing: {self.jobs}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.tree_nodes < 1 or self.tree_nodes % 2 == 0:
            raise ValueError(f"tree_nodes must be odd and at least 1, got {self.tree_nodes}")


class TraceRow(NamedTuple):
    fold: int
    t: float
    j: int
    train_err: float
    test_err_unclamped: float
    test_err_clamped: float  # nan, written as an empty cell, at t >= 1: no clamped model
    min_codensity: float
    max_codensity: float
    rho: float
    mu: float
    alpha: float
    z: float


TRACE_FIELDS = TraceRow._fields


class CellStatus(NamedTuple):
    fold: int
    t: float
    status: str
    error: str
    noise_flips: int


@dataclass
class RunResult:
    out_dir: Path
    rows: list
    cells: list = field(default_factory=list)

    @property
    def failed_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.status != "ok")


def _run_cell(fold: int, train: Dataset, test: Dataset, noise_flips: int, t: float, spec: RunSpec):
    """One (fold, temperature) cell on the fold's shared Datasets; returns (rows, status)."""
    rows: list = []
    cfg = TemperConfig(t)
    test_fold = ScoreFold(test.m, cfg)

    def on_round(record, weights):
        # the record's fields by name, the training errors among them
        row = {k: v for k, v in vars(record).items() if k in TRACE_FIELDS}
        row.update(fold=fold, t=t, j=len(rows) + 1)
        test_fold.add(record.alpha * record.hypothesis.predict(test))
        row["test_err_unclamped"], row["test_err_clamped"] = test_fold.errors(test.labels)
        rows.append(TraceRow(**row))

    try:
        boost(train, TreeWeakLearner(spec.tree_nodes), spec.rounds, cfg, on_round=on_round)
    except TempBoostError as exc:  # anything else is a programming error: it propagates
        return rows, CellStatus(fold, t, "failed", f"{type(exc).__name__}: {exc}", noise_flips)
    return rows, CellStatus(fold, t, "ok", "", noise_flips)


_FOLD_STREAM_TAG = 0x5F01D  # keeps the fold stream apart from the (seed, fold) noise streams


def _splits(data: Dataset, spec: RunSpec):
    """Each fold's ``(train_idx, test_idx)``.  Every row's fold is drawn now, and a
    bad fold count raises here; a fold's index arrays are made when it is reached."""
    stream = np.random.SeedSequence(entropy=(spec.seed, _FOLD_STREAM_TAG))
    return stratified_folds(data, spec.folds, stream)


def _take_fold(data: Dataset, spec: RunSpec, fold: int, train_idx, test_idx):
    train = data.take(train_idx)
    noisy = inject_label_noise(train, spec.noise, np.random.SeedSequence(entropy=(spec.seed, fold)))
    return fold, noisy, data.take(test_idx), int(np.sum(noisy.labels != train.labels))


def _run_cells(data: Dataset, spec: RunSpec, splits, pull) -> dict:
    """``{cell: (rows, status)}`` for each index ``pull()`` returns inside the fold-major
    grid, ascending; a fold is taken from ``splits`` at its first cell."""
    outcomes, fold = {}, (-1,)
    while (cell := pull()) < spec.folds * len(spec.t_values):
        f, k = divmod(cell, len(spec.t_values))
        if f != fold[0]:  # the last fold freed, and any run by other processes skipped
            skip, fold = f - fold[0] - 1, None
            fold = _take_fold(data, spec, f, *next(itertools.islice(splits, skip, None)))
        outcomes[cell] = _run_cell(*fold, spec.t_values[k], spec)
    return outcomes


def _pull(counter) -> int:
    with counter:  # the next cell index, shared by the run's processes
        counter.value += 1
        return counter.value - 1


def _fork(cells) -> tuple:
    """``(pid, receiving end)`` of a child that sends ``cells()``, or what it raised,
    and leaves through ``os._exit``, with status 1 if it sent nothing."""
    receive, send = multiprocessing.Pipe(duplex=False)
    if pid := os.fork():
        send.close()  # so that the receiving end ends when the child does
        return pid, receive
    try:
        try:
            sent = cells()
        except BaseException as exc:  # raised again in the parent
            sent = exc
            try:  # as itself if it survives a pickle, else by its type and message
                pickle.loads(pickle.dumps(exc))
            except Exception:
                sent = RuntimeError(f"{type(exc).__name__}: {exc}")
        send.send(sent)
        os._exit(0)
    finally:
        os._exit(1)


def _reap(pid: int, receive) -> dict:
    """What child ``pid`` sent, once it has ended; raises what it raised."""
    with receive:
        try:
            sent = receive.recv()
        except Exception:  # nothing, or less than a whole pickle
            sent = None
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if sent is None:
        raise ChildProcessError(f"a cell process ended with exit status {status} before reporting")
    if isinstance(sent, BaseException):
        raise sent
    return sent


# glibc <malloc.h>: M_MMAP_THRESHOLD (-3) at 32 MiB, M_TRIM_THRESHOLD (-1) at 64 MiB
_MALLOC_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process; elsewhere a no-op."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # a C library without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_THRESHOLDS:
        mallopt(param, value)


class RunInputError(Exception):
    """The table would not load or split into folds, or the output directory not be made."""


def run(spec: RunSpec) -> RunResult:
    """Execute the whole grid and write results under ``spec.out_dir``.

    In order: load the table and hash its file, split its folds, make the
    output directory and run the cells.  ``TABLE_ERRORS`` in the first three
    raise a ``RunInputError``.

    ``min(jobs, cells)`` processes run the cells, this one and forked
    children, each taking the next (fold, t) of the fold-major grid from a
    shared counter; one job counts with a plain iterator and forks nothing.
    A process makes a fold's index arrays, Datasets and column block at its
    first cell of that fold, from the fold draw made before any fork, and
    frees them at its next fold; a cell keeps a tree and a trace row per
    round, no array of the fold's rows.  A child's exception is raised
    here, by type and message if it does not survive a pickle; a child that
    ends without reporting raises ``ChildProcessError``; on any error every
    child is killed and reaped first.

    Allocator policy: on Linux the run first pins glibc's mmap and trim
    thresholds (``_MALLOC_THRESHOLDS``) in this process, for the rest of the
    process; forked children inherit them.  glibc starts both at 128 KiB and
    raises them only after freeing a large mapped block, so the split search's
    per-leaf temporaries of about 130 KB would otherwise be unmapped, or
    trimmed from the heap, after each split and faulted in again at the
    next.  Up to 64 MiB of freed heap may stay resident instead.
    """
    _pin_malloc_thresholds()
    out_dir = Path(spec.out_dir)
    try:
        data = load_csv(spec.data_path, spec.label_column)
        sha256 = _file_sha256(spec.data_path)  # the file as loaded, were it changed later
        splits = _splits(data, spec)
        out_dir.mkdir(parents=True, exist_ok=True)
    except TABLE_ERRORS as exc:  # a mkdir's OSError and a fold's ValueError too
        raise RunInputError(exc) from exc
    grid = spec.folds * len(spec.t_values)
    workers = min(spec.jobs, grid)  # never a process without a cell
    pull = itertools.count().__next__
    if workers > 1:
        pull = functools.partial(_pull, multiprocessing.get_context("fork").Value("i", 0))
    run_cells = functools.partial(_run_cells, data, spec, splits, pull)
    children: dict = {}  # pid -> the receiving end of its pipe
    try:
        children.update(_fork(run_cells) for _ in range(workers - 1))
        outcomes = run_cells()
        while children:
            outcomes.update(_reap(*children.popitem()))
    except BaseException:  # no child outlives the run
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    outcomes = [outcomes[cell] for cell in range(grid)]

    # sorted by (fold, t, j), the leading fields, which no two rows share
    rows = sorted(row for cell_rows, _ in outcomes for row in cell_rows)
    cells = [status for _, status in outcomes]
    write_csv(out_dir / "trace.csv", TRACE_FIELDS, rows)
    _write_summary(out_dir / "summary.csv", rows, spec)
    emit_plots(rows, out_dir)
    _write_manifest(out_dir / "manifest.json", spec, data, sha256, cells)
    return RunResult(out_dir=out_dir, rows=rows, cells=cells)


def _two_sided_p(statistic: float, df: int) -> float:
    """P(|T| >= |statistic|) for Student's t with ``df`` >= 1 integer degrees of freedom.

    The closed form of Abramowitz & Stegun 26.7.3 (odd ``df``) and 26.7.4
    (even ``df``) for A(t|df) = P(|T| < t), with theta = atan(|t|/sqrt(df)):
    odd,  A = 2/pi (theta + sin(theta) sum_{k<(df-1)/2} c_k cos^(2k+1)(theta)),
          c_0 = 1, c_k = c_{k-1} 2k/(2k+1), and A = 2 theta/pi at df = 1;
    even, A = sin(theta) sum_{k<df/2} c_k cos^(2k)(theta),
          c_0 = 1, c_k = c_{k-1} (2k-1)/(2k).
    """
    theta = math.atan(abs(statistic) / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    term = series = 1.0
    if df % 2:
        for k in range(1, (df - 1) // 2):
            term *= cos2 * (2 * k) / (2 * k + 1)
            series += term
        if df > 1:
            theta += math.sin(theta) * math.cos(theta) * series
        return 1.0 - 2.0 / math.pi * theta
    for k in range(1, df // 2):
        term *= cos2 * (2 * k - 1) / (2 * k)
        series += term
    return 1.0 - math.sin(theta) * series


TTEST_ALPHA = 0.1  # the p-value below which paired_ttest calls a difference


def paired_ttest(errors_a, errors_b) -> str:
    """Two-sided paired Student t-test verdict on per-fold errors.

    "better" means the first sequence has significantly lower error,
    p < ``TTEST_ALPHA``, "worse" the opposite, "equivalent" otherwise.
    The p-value is ``_two_sided_p`` at folds - 1 degrees of freedom, the
    Abramowitz & Stegun 26.7.3/26.7.4 closed form.  With no spread in the
    differences there is no test: equal sequences are "equivalent", and
    otherwise the sign of the mean difference decides.
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length per-fold error vectors")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return "equivalent"
        return "better" if mean < 0 else "worse"
    statistic = mean / (sd / math.sqrt(diff.size))
    if _two_sided_p(statistic, diff.size - 1) >= TTEST_ALPHA:
        return "equivalent"
    return "better" if mean < 0 else "worse"


SUMMARY_FIELDS = (
    "t",
    "folds",
    "mean_test_err_unclamped",
    "std_test_err_unclamped",
    "mean_test_err_clamped",
    "std_test_err_clamped",
    "vs_reference_unclamped",
    "vs_reference_clamped",
)


def _mean_std(values) -> list:
    mean = float(np.mean(values)) if values else math.nan
    return [mean, float(np.std(values, ddof=1)) if len(values) > 1 else math.nan]


def _write_summary(path: Path, rows, spec: RunSpec) -> None:
    """Per temperature: the mean and spread of the final test errors over
    folds, and paired t-test verdicts of both models against t=1's plain one."""
    final: dict = {}  # t -> fold -> the cell's last row, since rows are sorted by (fold, t, j)
    for row in rows:
        final.setdefault(row.t, {})[row.fold] = row
    reference = final.get(1.0, {})
    lines = []
    for t in spec.t_values:
        cells = final.get(t, {})
        plain = [row.test_err_unclamped for row in cells.values()]
        clamped = [row.test_err_clamped for row in cells.values()]
        clamped = [e for e in clamped if not math.isnan(e)]  # none at t >= 1
        verdicts = ["", ""]
        shared = sorted(set(cells) & set(reference)) if t != 1.0 else []
        if len(shared) >= 2:
            ref_errs = [reference[f].test_err_unclamped for f in shared]
            verdicts[0] = paired_ttest([cells[f].test_err_unclamped for f in shared], ref_errs)
            if clamped:
                verdicts[1] = paired_ttest([cells[f].test_err_clamped for f in shared], ref_errs)
        lines.append([t, len(plain), *_mean_std(plain), *_mean_std(clamped), *verdicts])
    write_csv(path, SUMMARY_FIELDS, lines)


def emit_plots(rows, out_dir: Path) -> None:
    """Tidy per-panel CSVs in the existing ``out_dir``: columns (t, j, mean over folds).

    One file per plotted quantity; any plotting tool can consume them.
    With no rows, as when every cell failed, each file is its header alone.
    """
    for panel in PLOT_PANELS:
        groups: dict = {}
        for row in rows:
            value = getattr(row, panel)
            if not math.isnan(value):
                groups.setdefault((row.t, row.j), []).append(value)
        means = ((t, j, float(np.mean(groups[(t, j)]))) for (t, j) in sorted(groups))
        write_csv(out_dir / f"plot_{panel}.csv", ("t", "j", "mean"), means)


def _file_sha256(path) -> str:
    """The file's sha256, read in chunks so that no copy of the whole file is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: Path, spec: RunSpec, data: Dataset, sha256: str, cells) -> None:
    manifest = {
        "library_version": __version__,
        "spec": asdict(spec),
        "dataset": {
            "path": spec.data_path,
            "sha256": sha256,
            "m": data.m,
            "d": data.d,
        },
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            # numpy picks its loops by CPU at run time, and their last bits differ
            "simd": np.show_config(mode="dicts")["SIMD Extensions"],
            "cpu_count": os.cpu_count(),
        },
        "cells": [cell._asdict() for cell in cells],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _temperatures(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def main(argv=None) -> int:
    # an option left out keeps RunSpec's default; each dest is a RunSpec field
    parser = argparse.ArgumentParser(
        prog="tempboost-experiment",
        description="Cross-validated tempered-boosting benchmark over a temperature grid.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--data", dest="data_path", required=True, help="CSV with a header row")
    parser.add_argument("--label-col", dest="label_column", help="label column name, or 'last'")
    parser.add_argument(
        "--t", dest="t_values", type=_temperatures, help="comma-separated temperatures in [0, 2)"
    )
    parser.add_argument("--iters", dest="rounds", type=int, help="boosting rounds per cell")
    parser.add_argument("--tree-nodes", type=int, help="nodes per weak tree (odd)")
    parser.add_argument("--folds", type=int, help="stratified CV folds")
    parser.add_argument("--noise", type=float, help="training label-flip rate")
    parser.add_argument("--seed", type=int, help="master seed (u64)")
    parser.add_argument("--jobs", type=int, help="parallel cells")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    try:
        spec = RunSpec(**vars(parser.parse_args(argv)))
    except ValueError as exc:  # an invalid setting: exit 2 before any cell runs
        parser.error(str(exc))
    try:
        result = run(spec)
    except RunInputError as exc:  # a bad setting's exit and error line, without the usage
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    print(f"wrote {result.out_dir / 'trace.csv'} ({len(result.rows)} rows)")
    if result.failed_cells:
        print(f"{result.failed_cells} cell(s) failed; see manifest.json", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
