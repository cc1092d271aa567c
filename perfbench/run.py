"""Cross-validated grid benchmark for tempboost.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wideband [--seed N] [--seconds S] [--trace 0|1]

The workload's CSV is generated from the seed, then ``experiment.run`` is
repeated over the workload's grid in a measuring child process until
``--seconds`` have passed.  With ``--trace 0`` the end-to-end metrics listed in
``BENCHMARK.json`` are reported; with ``--trace 1`` the child also repeats the
grid at ``--jobs 2``, then runs it in back-to-back pairs, untraced and with
spans recorded around the package's public functions, and the per-layer
metrics are reported instead.
Every repetition's ``trace.csv`` must hash identically, and ``wideband-j2``
must reproduce ``wideband``.

End-to-end times are medians taken at reference speed: a fixed calibration
loop (``worker.calibrate``) runs next to every timed sample, and each sample
is scaled by ``CALIBRATION_REF_S / calibration time``.  On a shared host the
machine's speed drifts by 20-40% over minutes; the scaling removes most of
that drift, while any change to the package moves the sample and not the
loop.  Raw wall times are printed alongside.

Human-readable lines (provenance, hashes, failed cells, metrics) come first;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any error in the harness exits non-zero without
that line.  This file uses only the standard library: everything that
imports tempboost runs in ``worker.py`` children, started with ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1`` so that ``--jobs 2`` does not start
more BLAS threads than there are cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import CALIBRATION_REF_S  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

SETUP_REPS = 5  # fresh processes per run; setup_s is their median
MIN_REPS = 3  # grid repetitions per run, even when --seconds is already spent
TIME_LIMIT_S = 170.0  # the whole run, children included
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Children:
    """Starts worker processes and kills any that outlive the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = dict(os.environ, **BLAS_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
        )
        self.env = env

    @staticmethod
    def _kill(proc):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group has already exited
            pass
        proc.communicate()

    def call(self, mode: str, job: dict) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError(f"time limit reached before {mode}")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode, json.dumps(job)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # so a timeout can kill pool workers too
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            self._kill(proc)
            raise HarnessError(f"{mode} child exceeded the time limit") from None
        except BaseException:  # interrupted: leave no worker behind
            self._kill(proc)
            raise
        if proc.returncode != 0:
            raise HarnessError(f"{mode} child exited {proc.returncode}:\n{err.strip()}")
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise HarnessError(f"{mode} child printed no result:\n{err.strip()}") from None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _reference(workload: str, seed: int):
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def _declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class Report:
    """Collects checks, cell counts and metrics, then prints them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.problems: list = []
        self.attempted = 0
        self.errors: list = []
        self.hashes: list = []

    def add_reps(self, label: str, reps):
        for rep in reps:
            self.attempted += rep["cells"]
            self.errors.extend(rep["errors"])
            self.hashes.append((label, rep["sha256"]))
            for problem in rep.get("check", []):
                self.problems.append(f"{label}: {problem}")

    def check_hashes(self):
        distinct = {h for _, h in self.hashes}
        if None in distinct or len(distinct) != 1:
            self.problems.append(
                "trace.csv differs between runs: "
                + ", ".join(f"{label}={str(h)[:12]}" for label, h in self.hashes)
            )
        digest = self.hashes[0][1]
        print(f"trace.csv sha256 {digest} over {len(self.hashes)} runs "
              f"({'identical' if len(distinct) == 1 else 'NOT identical'})")
        reference = _reference(self.workload, self.seed)
        if reference is None:
            print(f"reference for seed {self.seed}: none stored")
        else:
            verdict = "match" if reference == digest else f"MISMATCH (stored {reference})"
            print(f"reference for seed {self.seed}: {verdict}")

    def finish(self, metrics: dict, declared: dict) -> dict:
        failed = len(self.errors)
        print(f"failed cells: {failed}/{self.attempted} "
              f"(failed_cell_frac = {failed / max(self.attempted, 1)})")
        kinds = Counter(error.split(":", 1)[0] for error in self.errors)
        for kind, n in sorted(kinds.items()):
            print(f"  failed with {kind}: {n}")
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}")
        missing = set(declared) ^ set(metrics)
        if missing:
            raise HarnessError(f"metrics not matching BENCHMARK.json: {sorted(missing)}")
        for name, unit in declared.items():
            print(f"{name} = {metrics[name]} {unit}")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
        }


def _at_ref(time_s: float, calib_s: float) -> float:
    """A time measured next to a calibration loop, rescaled to reference speed."""
    return time_s * CALIBRATION_REF_S / calib_s


def _ref_median(reps) -> float:
    return statistics.median(_at_ref(rep["wall_s"], rep["calib_s"]) for rep in reps)


def _samples(label: str, values) -> None:
    print(f"{label} ({len(values)}): {', '.join(f'{v:.4f}' for v in values)}")


def _end_to_end(children, job, report, workload, seconds) -> tuple:
    # Set-ups both before and after the grid, so that their median sees the
    # same machine conditions as the grid repetitions.
    setups = [children.call("setup", job) for _ in range(SETUP_REPS // 2)]
    measured = children.call("grid", dict(job, jobs=workload.jobs, seconds=seconds))
    setups += [children.call("setup", job) for _ in range(SETUP_REPS - len(setups))]
    report.add_reps(workload.name, measured["reps"])
    if workload.same_trace_as:
        other = WORKLOADS[workload.same_trace_as]
        check = children.call("grid", dict(job, jobs=other.jobs, seconds=0, min_reps=1))
        report.add_reps(other.name, check["reps"])
    report.check_hashes()
    reps = measured["reps"]
    _samples("set-up wall s", [s["setup_s"] for s in setups])
    _samples("set-up calibration s", [s["calib_s"] for s in setups])
    _samples("grid wall s", [rep["wall_s"] for rep in reps])
    _samples("grid calibration s", [rep["calib_s"] for rep in reps])
    first = reps[0]
    # Reported, not bounded (reasons in metrics.json): raw wall times follow the
    # host's speed from run to run, and the final test errors, fixed at a seed,
    # move by up to ~20% from seed to seed.
    print(f"grid_wall_s = {statistics.median(rep['wall_s'] for rep in reps)} s "
          "(median raw wall time)")
    for name in ("test_err_final", "test_err_clamped_final"):
        print(f"{name} = {first.get(name)} ratio (mean over cells, last round)")
    grid_s = _ref_median(reps)
    return measured, {
        "setup_s": statistics.median(_at_ref(s["setup_s"], s["calib_s"]) for s in setups),
        "grid_s": grid_s,
        "rounds_per_s": first.get("rows", 0) / grid_s,
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def _per_layer(children, job, report, seconds) -> tuple:
    measured = children.call("traced", dict(job, seconds=seconds))
    serial_reps, fanned_reps = measured["serial"]["reps"], measured["fanned"]["reps"]
    pairs = measured["pairs"]
    report.add_reps("jobs1", serial_reps)
    report.add_reps("jobs2", fanned_reps)
    report.add_reps("untraced", [plain for plain, _ in pairs])
    report.add_reps("traced", [traced for _, traced in pairs])
    report.check_hashes()
    serial, fanned = _ref_median(serial_reps), _ref_median(fanned_reps)
    print(f"medians at reference speed: jobs1 {serial:.4f} s ({len(serial_reps)} reps), "
          f"jobs2 {fanned:.4f} s ({len(fanned_reps)} reps)")
    ratios = [traced["wall_s"] / plain["wall_s"] for plain, traced in pairs]
    _samples("traced / untraced wall, back to back", ratios)
    print(f"{measured['spans']} spans in the traced run of the median pair")
    metrics = dict(measured["layers"])
    metrics["experiment.jobs2_speedup"] = serial / fanned
    metrics["experiment.jobs2_efficiency"] = serial / fanned / 2.0
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return measured, metrics


def run(argv=None, workloads=None) -> dict:
    """Run one benchmark invocation and return the result object."""
    workloads = workloads or WORKLOADS
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"data and RunSpec seed (default {DEFAULT_SEED}; "
                             f"held out for confirming claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0, help="grid measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    declared = _declared_metrics(bool(args.trace))

    work = ROOT / ".perfbench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        children = Children(deadline)
        job = {
            "data": workload.data,
            "m": workload.m,
            "seed": args.seed,
            "csv": str(work / "data.csv"),
            "grid": workload.grid,
            "folds": workload.grid["folds"],
            "min_reps": MIN_REPS,
            "out": str(work / "out"),
        }
        children.call("generate", job)
        report = Report(workload.name, args.seed)
        if args.trace:
            measured, metrics = _per_layer(children, job, report, args.seconds)
            spec = measured["serial"]["spec"]
        else:
            measured, metrics = _end_to_end(children, job, report, workload, args.seconds)
            spec = measured["spec"]
        versions = measured["versions"]
        print(f"workload {workload.name}: {workload.why}")
        print(f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
              f"python={versions['python']} numpy={versions['numpy']} scipy={versions['scipy']}")
        print(f"commit {_git_commit()}, seed {args.seed}, trace {args.trace}, "
              f"blas {' '.join(f'{k}={v}' for k, v in BLAS_ENV.items())} (measuring processes)")
        print(f"RunSpec: {json.dumps(spec, sort_keys=True)}")
        return report.finish(metrics, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run(argv)
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
