"""Measuring child process of the benchmark.

``python3 worker.py <mode> <job-json>`` runs one step and prints one JSON
object on its last stdout line.  ``run.py`` starts it with ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``.  Modes:

- ``generate``: write a workload's CSV from its seed;
- ``setup``: time ``import tempboost`` + ``load_csv`` + ``stratified_folds``
  (only meaningful in a fresh process, so nothing else is imported first),
  then run the calibration loop once;
- ``grid``: repeat ``experiment.run`` untraced until the time budget is spent,
  with the calibration loop between repetitions;
- ``traced``: untraced repetitions at ``--jobs 1`` and at ``--jobs 2``, then three
  pairs of an untraced and a traced repetition at ``--jobs 1``; the pair
  with the median overhead gives the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from multiprocessing import get_context
from pathlib import Path


CALIBRATION_LOOPS = 90
# The calibration loop takes this long at the reference machine speed.
CALIBRATION_REF_S = 0.15


def calibrate() -> float:
    """Seconds taken by a fixed loop shaped like the split search.

    For 30 columns of 140 rows: a stable sort, a prefix sum, the distinct-value
    boundaries and a Python loop that builds one tuple per candidate, the mix
    of small numpy calls and interpreter work that dominates a grid.  It
    imports only numpy, so no change to the package moves it; the ratio of
    its time to ``CALIBRATION_REF_S`` tracks how fast the machine is running.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    columns = [rng.normal(size=140) for _ in range(30)]
    weights = rng.random(140)
    weights /= weights.sum()
    start = 0.0
    for loop in range(CALIBRATION_LOOPS + 1):
        if loop == 1:  # the first pass only warms caches
            start = time.perf_counter()
        best = None
        for j, x in enumerate(columns):
            order = np.argsort(x, kind="stable")
            v = x[order]
            mass = np.cumsum(weights[order])[np.flatnonzero(v[:-1] < v[1:])]
            gains = mass * (1.0 - mass)
            for i in np.flatnonzero(gains > 0).tolist():
                candidate = (float(gains[i]), j, float(v[i]))
                if best is None or candidate[0] > best[0]:
                    best = candidate
    return time.perf_counter() - start


def _generate(job):
    from tempboost.dataio import save_csv
    from workloads import generate

    save_csv(generate(job["data"], job["m"], job["seed"]), job["csv"])
    return {}


def _setup(job):
    start = time.perf_counter()
    import tempboost
    from tempboost.dataio import load_csv, stratified_folds

    data = load_csv(job["csv"])
    stratified_folds(data, job["folds"], job["seed"])
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "calib_s": calibrate(), "version": tempboost.__version__}


def _spec(job, jobs, out_dir):
    from tempboost.experiment import RunSpec

    grid = dict(job["grid"])
    grid["t_values"] = tuple(grid["t_values"])
    return RunSpec(
        data_path=job["csv"], seed=job["seed"], jobs=jobs, out_dir=str(out_dir), **grid
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _one_run(spec, run=None):
    """One timed ``experiment.run``; a run that raises fails all its cells."""
    from tempboost import experiment

    run = run or experiment.run
    cells = len(spec.t_values) * spec.folds
    start = time.perf_counter()
    try:
        result = run(spec)
    except Exception as exc:  # recorded and reported, never hidden
        return {
            "wall_s": time.perf_counter() - start,
            "cells": cells,
            "errors": [f"{type(exc).__name__}: {exc}"] * cells,
            "sha256": None,
        }
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cells": cells,
        "errors": [c.error for c in result.cells if c.status != "ok"],
        "sha256": _sha256(Path(spec.out_dir) / "trace.csv"),
        "check": _check_outputs(spec, result),
        "rows": len(result.rows),
        "test_err_final": _final_mean(result.rows, "test_err_unclamped"),
        "test_err_clamped_final": _final_mean(result.rows, "test_err_clamped"),
    }


def _final_mean(rows, attr):
    """Mean over cells of ``attr`` at each cell's last round (NaN cells skipped)."""
    last: dict = {}
    for row in rows:
        key = (row.fold, row.t)
        if key not in last or row.j > last[key].j:
            last[key] = row
    values = [getattr(r, attr) for r in last.values() if not math.isnan(getattr(r, attr))]
    return sum(values) / len(values) if values else math.nan


def _check_outputs(spec, result) -> list:
    """Problems found in the written outputs; empty when they are sound."""
    problems = []
    out = Path(spec.out_dir)
    for name in ("trace.csv", "summary.csv", "manifest.json"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    if len(result.cells) != spec.folds * len(spec.t_values):
        problems.append(f"{len(result.cells)} cells, expected {spec.folds * len(spec.t_values)}")
    per_cell: dict = {}
    for row in result.rows:
        per_cell.setdefault((row.fold, row.t), []).append(row.j)
        for attr in ("train_err", "test_err_unclamped"):
            if not 0.0 <= getattr(row, attr) <= 1.0:
                problems.append(f"{attr}={getattr(row, attr)} outside [0, 1]")
        clamped = row.test_err_clamped
        if (row.t < 1.0) != (not math.isnan(clamped)) or not (
            math.isnan(clamped) or 0.0 <= clamped <= 1.0
        ):
            problems.append(f"bad clamped error {clamped} at t={row.t}")
        if not 0.0 <= row.min_codensity <= row.max_codensity <= 1.0:
            problems.append(f"co-density range {row.min_codensity}..{row.max_codensity}")
    for key, js in per_cell.items():
        if sorted(js) != list(range(1, len(js) + 1)):
            problems.append(f"cell {key} has rounds {sorted(js)}")
    mean_err = _final_mean(result.rows, "test_err_unclamped")
    if not mean_err < 0.5:
        problems.append(f"final test error {mean_err} is no better than chance")
    return problems[:10]


def _calibrate_one(_):
    return calibrate()


def _repeat(job, jobs, seconds, min_reps, out_dir):
    """Untraced repetitions of the grid until ``seconds`` have passed.

    A calibration runs before the first repetition and after each one; each
    repetition records the mean of the two around it as ``calib_s``.  A grid
    fanned out over ``jobs`` processes is calibrated with ``jobs`` loops run
    at once in as many processes, so that every core it uses is measured.
    """
    spec = _spec(job, jobs, out_dir)
    reps = []
    with contextlib.ExitStack() as stack:
        measure = calibrate
        if jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(jobs, mp_context=get_context("spawn")))
            measure = functools.partial(_mean_of_parallel_calibrations, pool, jobs)
            measure()  # starts the workers outside the timed samples
        calib = [measure()]
        deadline = time.perf_counter() + seconds
        while len(reps) < min_reps or time.perf_counter() < deadline:
            reps.append(_one_run(spec))
            calib.append(measure())
            reps[-1]["calib_s"] = (calib[-2] + calib[-1]) / 2.0
    return {"spec": asdict(spec), "reps": reps}


def _mean_of_parallel_calibrations(pool, jobs) -> float:
    return sum(pool.map(_calibrate_one, range(jobs))) / jobs


def _peak_rss_mb() -> float:
    """Largest ru_maxrss of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _versions():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _grid(job):
    out = _repeat(job, job["jobs"], job["seconds"], job["min_reps"], Path(job["out"]))
    out["peak_rss_mb"] = _peak_rss_mb()
    out["versions"] = _versions()
    return out


TRACED_REPS = 3  # the traced repetition with the median wall time gives the layers


def _traced(job):
    """Untraced repetitions at jobs 1 and 2, then (untraced, traced) pairs.

    Each pair runs back to back, so the ratio of its two wall times measures
    the tracing overhead under the same machine conditions.
    """
    from tempboost import experiment
    from tracer import Tracer, layer_metrics

    half = job["seconds"] / 2.0
    out = Path(job["out"])
    serial = _repeat(job, 1, half, job["min_reps"], out / "jobs1")
    fanned = _repeat(job, 2, half, job["min_reps"], out / "jobs2")
    spec = _spec(job, 1, out / "traced")
    pairs = []
    for _ in range(TRACED_REPS):
        plain = _one_run(spec)
        with Tracer() as tracer:
            traced = _one_run(spec, tracer.span("experiment.run")(experiment.run))
        pairs.append((plain, traced, tracer.spans))
    pairs.sort(key=lambda pair: pair[1]["wall_s"] / pair[0]["wall_s"])
    spans = pairs[len(pairs) // 2][2]
    return {
        "serial": serial,
        "fanned": fanned,
        "pairs": [(plain, traced) for plain, traced, _ in pairs],
        "layers": layer_metrics(spans, 0),
        "spans": len(spans),
        "versions": _versions(),
    }


MODES = {"generate": _generate, "setup": _setup, "grid": _grid, "traced": _traced}


def main(argv) -> int:
    mode, job = argv[0], json.loads(argv[1])
    print(json.dumps(MODES[mode](job)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
