"""The cross-validated grid end to end, pinned by its trace hash."""

import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing.connection
import os
import pickle
import platform
import select
import signal
import struct
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from oracles import predict, row_of
from tempboost import booster, experiment, tree
from tempboost.booster import Ensemble
from tempboost.dataio import CATEGORICAL, MAX_BINS, Column, Dataset, save_csv
from tempboost.errors import BoundViolatedError
from tempboost.experiment import RunSpec, _two_sided_p, main, paired_ttest, run
from tempboost.synthetic import make_mixed_table, make_wideband
from tempboost.tree import DecisionTree

# numpy picks its SIMD code at run time (NEP 38), and its array exp, log
# and power give other last bits where AVX-512 is found than where it is
# not, enough to flip some splits; so each grid is pinned once per family.
FOUND = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
SIMD_FAMILY = "avx512" if any(f.startswith(("AVX512", "X86_V4")) for f in FOUND) else "portable"
# sha256 of trace.csv for the grids below.  Every tree, weight update and
# prediction feeds it, so a change that alters results has to change this
# pin and say why.  Last changed when the trace lost its m_dagger column,
# the count of weights switched off at 0, which leveraging's bound on mu
# keeps at 0; every other column kept its bits.
SMOKE_TRACE_SHA256 = {
    "avx512": "baa8aaab364754a2f3d447ae8060296cc6bb6061f9da2f1115d2f8d683f7320f",
    "portable": "2da67bbe6eb6d88c93b8a5ee19262268bc6588ac6b86c4f5e57c1d158b1ba4a1",
}
CATEGORICAL_TRACE_SHA256 = {
    "avx512": "ddaf580ad5fca05ee4577b9a971342dbafbef335dca5f06742aabcb1bef9334c",
    "portable": "2a85f6df2b0b65180e03db83c7c2d4d6fcc5d4b9c1c18d84801412effce9bcb6",
}
# sha256 of the other outputs of the same grids: the summary and the plot data.
SMOKE_OUTPUT_SHA256 = {
    "avx512": {
        "summary.csv": "630018203e7f7bf2573c88e417c71f2ff5ddf4a7b9722abe9bd0f2c443dbc1fe",
        "plot_test_err_unclamped.csv": "fbd50681deb6b0dd8541ff3988dd58615023c064e0236ecc5532ff6ea765cc39",
        "plot_test_err_clamped.csv": "4e12a909191698a24b0d542e210756363b62e7c00d0357a5a3567d765c7f71b2",
        "plot_min_codensity.csv": "29275fa978738df0787adc0b0843d94b11828765893308116a323e71ef59b052",
        "plot_max_codensity.csv": "718d00740d2d71e0df1606d987a0ed96fa181d4fee8836c1c034ee3978c6c56c",
    },
}
CATEGORICAL_OUTPUT_SHA256 = {
    "avx512": {
        "summary.csv": "98047f1e5010940a48b38a5051decc0d1c88afc81c0849e1d87cde05ad856128",
        "plot_test_err_unclamped.csv": "d05eda6dfadc8fb515e6ec24249085f71b84e6c385c7a02437609d34bb67e817",
        "plot_test_err_clamped.csv": "bfa5919e8b568ca9cf66feab62b83147a21b20dd338d6a0533d2826f82cff733",
        "plot_min_codensity.csv": "a1639dfb2110124c0584cf60df0f43259466e87f7e848dd0a689c39a172de308",
        "plot_max_codensity.csv": "9d698f74544e0afddddb6e2b47dafd9bd05c8d4157b166158cd381598a89b827",
    },
}
# on the portable path only the co-density plots move
SMOKE_OUTPUT_SHA256["portable"] = {
    **SMOKE_OUTPUT_SHA256["avx512"],
    "plot_min_codensity.csv": "40e9d3d235c1b677769e038743a82afc22010fede98f7e694c77c7d71c7b1fd9",
    "plot_max_codensity.csv": "0f7ce84b3d700771553548f93b80d7f1727e835f7f762712c0baf9c3e6ee32ab",
}
CATEGORICAL_OUTPUT_SHA256["portable"] = {
    **CATEGORICAL_OUTPUT_SHA256["avx512"],
    "plot_max_codensity.csv": "73d5a26bb3966b67615a15fe5008df1fd8533ef1e52c26e10f506b2aa8f14836",
}


def run_grid(tmp_path, data, **grid):
    path = tmp_path / "data.csv"
    save_csv(data, path)
    spec = RunSpec(data_path=str(path), seed=3, out_dir=str(tmp_path / "out"), **grid)
    result = run(spec)
    trace = (tmp_path / "out" / "trace.csv").read_bytes()
    return result, hashlib.sha256(trace).hexdigest()


def read_manifest(out_dir) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def as_json(spec: RunSpec) -> dict:
    """The spec as its manifest block reads back: tuples become lists."""
    return json.loads(json.dumps(dataclasses.asdict(spec)))


def output_digests(out_dir, names) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def test_smoke_grid_trace_is_pinned(tmp_path):
    # 139 training rows: every numeric column has fewer than MAX_BINS
    # distinct values, so every midpoint is a candidate.
    result, digest = run_grid(
        tmp_path, make_wideband(seed=11), t_values=(0.5, 1.0), rounds=2, folds=3
    )
    assert result.failed_cells == 0
    assert len(result.rows) == 3 * 2 * 2
    assert digest == SMOKE_TRACE_SHA256[SIMD_FAMILY]
    pins = SMOKE_OUTPUT_SHA256[SIMD_FAMILY]
    assert output_digests(result.out_dir, pins) == pins


def test_smoke_grid_is_pinned_without_avx512_too(tmp_path):
    # NPY_DISABLE_CPU_FEATURES sends numpy on an AVX-512 x86 host down the
    # portable path; it acts only at numpy's import, so a child runs the test
    code = (
        "import pathlib, sys, test_experiment as t\n"
        "t.test_smoke_grid_trace_is_pinned(pathlib.Path(sys.argv[1]))\n"
        "print(t.SIMD_FAMILY)\n"
    )
    paths = (Path(experiment.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "portable"


def test_categorical_grid_trace_is_pinned(tmp_path):
    # Two categorical and two numeric columns; the 400 training rows give
    # each numeric column more than MAX_BINS distinct values, so the binned
    # candidates are searched next to the categorical prefix scan.
    result, digest = run_grid(
        tmp_path, make_mixed_table(m=600, seed=11), t_values=(0.5, 1.0), rounds=3, folds=3
    )
    assert result.failed_cells == 0
    assert len(result.rows) == 3 * 2 * 3
    assert digest == CATEGORICAL_TRACE_SHA256[SIMD_FAMILY]
    pins = CATEGORICAL_OUTPUT_SHA256[SIMD_FAMILY]
    assert output_digests(result.out_dir, pins) == pins


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_per_round_test_errors_are_those_of_the_rowwise_prefix_ensembles(t, monkeypatch):
    data = make_mixed_table(m=120, seed=4)
    spec = RunSpec(data_path="data.csv", t_values=(t,), rounds=4, folds=2, seed=3)
    fold, train, test, flips = experiment._take_fold(data, spec, 0, experiment._folds(data, spec))
    ensembles = []
    real_boost = experiment.boost

    def recording_boost(*args, **kwargs):
        result = real_boost(*args, **kwargs)
        ensembles.append(result[0])
        return result

    monkeypatch.setattr(experiment, "boost", recording_boost)
    rows, status = experiment._run_cell(fold, train, test, flips, t, spec)
    assert status.status == "ok" and [row.j for row in rows] == [1, 2, 3, 4]
    (ensemble,) = ensembles

    def rowwise_error(prefix, clamped):
        labels = [predict(prefix, row_of(test, i), clamped)[1] for i in range(test.m)]
        return float(np.mean(np.array(labels) != test.labels))

    for row in rows:
        prefix = Ensemble(ensemble.members[: row.j], ensemble.cfg)
        assert row.test_err_unclamped == rowwise_error(prefix, clamped=False)
        if t < 1.0:
            assert row.test_err_clamped == rowwise_error(prefix, clamped=True)
        else:
            assert math.isnan(row.test_err_clamped)


def test_high_cardinality_column_runs_every_cell(tmp_path):
    # 70 levels once overflowed the subset sampler, failing every cell.
    rng = np.random.default_rng(70)
    level = rng.integers(0, 70, size=600)
    offset = rng.uniform(-1.0, 1.0, size=70)
    labels = np.where(offset[level] + 0.5 * rng.normal(size=600) > 0, 1, -1)
    names = np.array([f"level{k:02d}" for k in range(70)])
    data = Dataset((Column("code", CATEGORICAL, names[level]),), labels)
    result, _ = run_grid(tmp_path, data, t_values=(0.5,), rounds=2, folds=2)
    assert result.failed_cells == 0
    assert len(result.rows) == 2 * 2


def test_each_tree_predicts_the_test_fold_once(tmp_path, monkeypatch):
    # on_round predicts the test fold; boost takes the training predictions
    # from tree growth, and its training errors and risk-bound check reuse
    # its running scores.  The three test folds partition the 120 rows, so
    # predictions on them come to 120 rows per temperature and round.
    calls = {"trees": 0, "predicted": []}
    induce_tree, predict = tree.induce_tree, DecisionTree.predict

    def counting_induce(*args, **kwargs):
        calls["trees"] += 1
        return induce_tree(*args, **kwargs)

    def counting_predict(self, data):
        calls["predicted"].append(data.m)
        return predict(self, data)

    monkeypatch.setattr(tree, "induce_tree", counting_induce)
    monkeypatch.setattr(DecisionTree, "predict", counting_predict)
    result, _ = run_grid(
        tmp_path, make_mixed_table(m=120, seed=11), t_values=(0.5, 1.0), rounds=3, folds=3
    )
    assert result.failed_cells == 0
    assert calls["trees"] == len(result.rows) == 3 * 2 * 3
    assert len(calls["predicted"]) == calls["trees"]
    assert sum(calls["predicted"]) == 2 * 3 * 120


@pytest.mark.parametrize(
    "field, value",
    [
        ("tree_nodes", 4),
        ("tree_nodes", 0),
        ("tree_nodes", -1),
        ("t_values", (0.5, 0.5)),
        ("t_values", (0.0, -0.0)),
        ("t_values", (0.9999999995, 1.0)),  # within CLASSIC_TOLERANCE, stored as 1.0
        ("seed", -1),  # SeedSequence takes no negative entropy
        ("noise", 1.0),
    ],
)
def test_run_spec_rejects_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        RunSpec(data_path="data.csv", **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("rounds", 2.5),  # these three raised an untyped TypeError after the load
        ("folds", 2.5),
        ("jobs", 1.5),
        ("seed", 1.5),  # numpy's TypeError
        ("tree_nodes", 3.0),  # ran as 3 nodes
        ("rounds", True),  # ran as one round
    ],
)
def test_run_spec_rejects_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        RunSpec(data_path="data.csv", **{field: value})
    spec = RunSpec(data_path="data.csv", **{field: np.int64(3)})  # kept, as a Python int
    assert type(getattr(spec, field)) is int and getattr(spec, field) == 3


@pytest.mark.parametrize("t_values", [(-0.5,), (0.5, 2.0), (math.nan,), ()])
def test_run_spec_rejects_a_temperature_outside_zero_to_two(t_values):
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        RunSpec(data_path="data.csv", t_values=t_values)


@pytest.mark.parametrize(
    "option, value, msg",
    [("--tree-nodes", "4", "tree_nodes"), ("--t", "-0.5", "[0, 2)"), ("--seed", "-1", "seed")],
    ids=["tree_nodes", "t_values", "seed"],
)
def test_cli_rejects_a_bad_setting_before_any_cell(tmp_path, monkeypatch, capsys, option, value, msg):
    path = tmp_path / "data.csv"
    save_csv(make_mixed_table(m=60, seed=1), path)
    started = []
    monkeypatch.setattr(experiment, "run", started.append)
    with pytest.raises(SystemExit) as exit_info:
        main(["--data", str(path), option, value, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert msg in capsys.readouterr().err
    assert not started and not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["out_is_a_file", "too_many_folds", "no_label", "no_data"])
def test_cli_rejects_bad_input_or_output_before_any_cell(tmp_path, monkeypatch, capsys, case):
    path, out = tmp_path / "data.csv", tmp_path / "out"
    save_csv(make_mixed_table(m=32, seed=1), path)
    if case == "out_is_a_file":
        out.write_text("")
    options, msg = {
        "out_is_a_file": ([], "File exists"),
        "too_many_folds": (["--folds", "40"], "fewer than 40 examples"),
        "no_label": (["--label-col", "nope"], "no column named 'nope'"),
        "no_data": (["--data", str(tmp_path / "missing.csv")], "No such file or directory"),
    }[case]
    boosted = []
    monkeypatch.setattr(experiment, "boost", lambda *args, **kwargs: boosted.append(args))
    with pytest.raises(SystemExit) as exit_info:
        main(["--data", str(path), "--out", str(out), *options])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    # one line, as argparse words a bad setting, and nothing made or run
    assert err.startswith("tempboost-experiment: error: ") and err.count("\n") == 1
    assert msg in err and not boosted and not out.is_dir()


def test_every_temperature_of_a_fold_trains_on_the_same_noisy_labels(tmp_path, monkeypatch):
    labels = []
    real_boost = experiment.boost

    def recording_boost(train, *args, **kwargs):
        labels.append(train.labels)
        return real_boost(train, *args, **kwargs)

    monkeypatch.setattr(experiment, "boost", recording_boost)
    t_values = (0.0, 0.5, 1.0, 1.5)
    result, _ = run_grid(
        tmp_path, make_mixed_table(m=200, seed=5), t_values=t_values, rounds=1, folds=2, noise=0.2
    )
    assert result.failed_cells == 0
    per_fold = len(t_values)  # one job runs the cells fold by fold
    for fold in range(2):
        cells = result.cells[fold * per_fold : (fold + 1) * per_fold]
        assert {cell.fold for cell in cells} == {fold}
        assert len({cell.noise_flips for cell in cells}) == 1 and cells[0].noise_flips > 0
        first = labels[fold * per_fold]
        for other in labels[fold * per_fold + 1 : (fold + 1) * per_fold]:
            assert np.array_equal(other, first)


def test_traces_do_not_depend_on_jobs_and_the_manifest_records_the_spec(tmp_path):
    # 2 folds of 600 rows: the numeric training columns hold 300 distinct
    # values, above MAX_BINS, so the binned candidates run, with label noise.
    grid = dict(t_values=(0.0, 0.6, 1.0), rounds=2, folds=2, noise=0.1)
    data = make_mixed_table(m=600, seed=8)
    assert np.unique(data.columns[2].values).size // 2 > MAX_BINS
    one = tmp_path / "jobs1"
    one.mkdir()
    result, digest = run_grid(one, data, **grid)
    assert result.failed_cells == 0
    assert sum(cell.noise_flips for cell in result.cells) > 0
    two = tmp_path / "jobs2"
    two.mkdir()
    assert run_grid(two, data, jobs=2, **grid)[1] == digest
    expected = RunSpec(str(one / "data.csv"), seed=3, out_dir=str(one / "out"), **grid)
    assert read_manifest(one / "out")["spec"] == as_json(expected)


def test_the_cell_loop_runs_each_cell_as_run_cell_does_and_sorts_each_fold_once(monkeypatch):
    data = make_mixed_table(m=200, seed=5)
    spec = RunSpec("data.csv", t_values=(0.0, 0.6, 1.0, 1.5), rounds=2, folds=3, noise=0.1, seed=3)
    ids = experiment._folds(data, spec)
    folds = [experiment._take_fold(data, spec, fold, ids) for fold in range(spec.folds)]
    expected = [experiment._run_cell(*fold, t, spec) for fold in folds for t in spec.t_values]
    assert sum(status.noise_flips for _, status in expected) > 0
    built, taken = [], []
    block, take = Dataset.column_block, experiment._take_fold

    def counting_block(self):
        built.append(self)
        return block.func(self)

    def recording_take(*args):
        taken.append(take(*args))
        return taken[-1]

    counting = functools.cached_property(counting_block)
    counting.__set_name__(Dataset, "column_block")
    monkeypatch.setattr(Dataset, "column_block", counting)
    monkeypatch.setattr(experiment, "_take_fold", recording_take)
    # every cell, as one process pulls them; then cells 1, 2 and 9 to 11, as one of
    # several processes might: fold 1, whose every cell the others ran, is never made;
    # then cells 5 to 7, from inside fold 1, which take fold 1 alone
    for pulled in (range(12), [1, 2, 9, 10, 11], [5, 6, 7]):
        built.clear()
        taken.clear()
        pull = iter([*pulled, 12, 13]).__next__  # 12 is the first index past the grid
        got = experiment._run_cells(data, spec, ids, pull)
        assert repr(got) == repr({cell: expected[cell] for cell in pulled})  # nan, -0.0
        assert [fold for fold, *_ in taken] == sorted({cell // 4 for cell in pulled})
        assert len(built) == len(taken)
        assert all(dataset is train for dataset, (_, train, _, _) in zip(built, taken))


def no_child_is_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_fewer_cells_than_jobs_fork_one_child_per_cell_past_the_first(tmp_path, monkeypatch):
    forks, contexts = [], []
    fork, get_context = os.fork, experiment.multiprocessing.get_context
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(
        experiment.multiprocessing, "get_context", lambda *a: contexts.append(a) or get_context(*a)
    )
    data = make_mixed_table(m=60, seed=1)
    grid = dict(t_values=(0.5,), rounds=1, folds=2)
    result, digest = run_grid(tmp_path, data, jobs=1, **grid)  # no fork, no shared counter
    assert result.failed_cells == 0 and forks == contexts == []
    result, fanned = run_grid(tmp_path, data, jobs=8, **grid)
    assert result.failed_cells == 0 and len(result.cells) == 2 and fanned == digest
    assert forks == [1] and contexts == [("fork",)]  # min(jobs, cells) - 1 children
    assert no_child_is_left()


def test_more_processes_than_cores_run_every_cell_exactly_once(tmp_path, monkeypatch):
    data = make_mixed_table(m=120, seed=2)
    grid = dict(t_values=(0.0, 0.5, 1.0, 1.5), rounds=1, tree_nodes=3, folds=6)
    _, digest = run_grid(tmp_path, data, **grid)
    log, real = tmp_path / "cells.log", experiment._run_cell

    def logged(fold, train, test, noise_flips, t, spec):
        with open(log, "a", encoding="utf-8") as handle:  # one short append per cell
            handle.write(f"{fold},{t}\n")
        return real(fold, train, test, noise_flips, t, spec)

    monkeypatch.setattr(experiment, "_run_cell", logged)
    jobs = (os.cpu_count() or 1) + 2  # at most the grid's 24 cells run at once
    result, fanned = run_grid(tmp_path, data, jobs=jobs, **grid)
    # a lost update of the shared counter would run some cell twice
    expected = [f"{fold},{t}" for fold in range(6) for t in grid["t_values"]]
    assert sorted(log.read_text(encoding="utf-8").splitlines()) == sorted(expected)
    assert fanned == digest and result.failed_cells == 0 and no_child_is_left()


@contextlib.contextmanager
def forked_cells(monkeypatch, in_child=None, in_parent=None):
    """``_run_cell`` patched: a forked child calls ``in_child`` at its first cell,
    and this process waits for that before it calls ``in_parent`` at each of its own."""
    parent, (started, starting) = os.getpid(), os.pipe()
    real, first = experiment._run_cell, [True]

    def patched(*args):
        if os.getpid() == parent:
            select.select([started], [], [], 60)  # until a child has started a cell
            in_parent and in_parent()
        elif first:  # the child's own copy of the flag: its first cell only
            first.clear()
            os.write(starting, b"x")
            in_child and in_child()
        return real(*args)

    monkeypatch.setattr(experiment, "_run_cell", patched)
    try:
        yield
    finally:
        os.close(started)
        os.close(starting)


class HoldsALock(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()  # pickled with the instance's dict, and unpicklable


class TwoArguments(Exception):
    def __init__(self, code, detail):  # pickled as its one message, which this rejects
        super().__init__(f"{code}: {detail}")


def raising(error, *args):
    def act():
        raise error(*args)

    return act


@pytest.mark.parametrize(
    "where, act, raised, message",
    [
        ("in_child", raising(LookupError, "error in a child"), LookupError, "error in a child"),
        ("in_parent", raising(LookupError, "beside a child"), LookupError, "beside a child"),
        # an error that does not survive a pickle comes back by its type and message
        ("in_child", raising(HoldsALock, "no pickle"), RuntimeError, "HoldsALock: no pickle"),
        ("in_child", raising(TwoArguments, 7, "no load"), RuntimeError, "TwoArguments: 7: no load"),
    ],
)
def test_a_programming_error_in_any_process_propagates_and_no_child_outlives_it(
    tmp_path, monkeypatch, where, act, raised, message
):
    # a child that errs sends its exception back; one that runs on is killed
    acts = {"in_child": functools.partial(time.sleep, 20), where: act}
    start = time.monotonic()
    with forked_cells(monkeypatch, **acts), pytest.raises(raised, match=f"^{message}$"):
        grid = dict(t_values=(0.5, 1.0), rounds=1, folds=2, jobs=2)
        run_grid(tmp_path, make_mixed_table(m=60, seed=1), **grid)
    assert no_child_is_left() and time.monotonic() - start < 10


def test_a_child_that_dies_without_reporting_fails_the_run_with_its_status(tmp_path, monkeypatch):
    with forked_cells(monkeypatch, in_child=lambda: os.kill(os.getpid(), signal.SIGKILL)):
        with pytest.raises(ChildProcessError, match="exit status -9 before reporting"):
            grid = dict(t_values=(0.5, 1.0), rounds=1, folds=2, jobs=2)
            run_grid(tmp_path, make_mixed_table(m=60, seed=1), **grid)
    assert no_child_is_left()


def test_a_child_that_dies_partway_through_its_send_fails_the_run_with_its_status(
    tmp_path, monkeypatch
):
    def truncated(connection, sent):  # a length header and half the pickle, then the end
        payload = pickle.dumps(sent)
        header = struct.pack("!i", len(payload))  # as Connection.send frames it
        os.write(connection.fileno(), header + payload[: len(payload) // 2])
        os._exit(3)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", truncated)
    with pytest.raises(ChildProcessError, match="exit status 3 before reporting"):
        grid = dict(t_values=(0.5, 1.0), rounds=1, folds=2, jobs=2)
        run_grid(tmp_path, make_mixed_table(m=60, seed=1), **grid)
    assert no_child_is_left()


def test_without_os_fork_a_run_takes_one_job(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        RunSpec(data_path="data.csv", jobs=2)
    with pytest.raises(SystemExit) as exit_info:
        main(["--data", "data.csv", "--jobs", "2", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2 and "os.fork" in capsys.readouterr().err
    assert RunSpec(data_path="data.csv", jobs=1).jobs == 1


def test_a_fold_counts_the_training_labels_its_noise_flipped():
    data = make_mixed_table(m=200, seed=5)
    spec = RunSpec("data.csv", folds=2, noise=0.3, seed=3)
    folds = experiment._folds(data, spec)
    _, noisy, test, flips = experiment._take_fold(data, spec, 0, folds)
    assert test.labels.tolist() == data.labels[folds == 0].tolist()
    assert 0 < flips == int(np.sum(noisy.labels != data.labels[folds != 0])) < noisy.m // 2


@pytest.mark.parametrize("change", ["rewrite", "delete"])
def test_the_manifest_hashes_the_table_as_the_run_loaded_it(tmp_path, monkeypatch, change):
    path, out = tmp_path / "data.csv", tmp_path / "out"
    save_csv(make_mixed_table(m=60, seed=1), path)
    loaded = hashlib.sha256(path.read_bytes()).hexdigest()
    real = experiment._run_cell

    def changing(*args):  # every cell, at --jobs 1 in this process
        if change == "rewrite":
            path.write_text("x,y\n1,a\n2,b\n", encoding="utf-8")
        else:
            path.unlink(missing_ok=True)
        return real(*args)

    monkeypatch.setattr(experiment, "_run_cell", changing)
    result = run(RunSpec(str(path), t_values=(0.5,), rounds=1, folds=2, out_dir=str(out)))
    assert result.failed_cells == 0 and path.exists() == (change == "rewrite")
    assert read_manifest(out)["dataset"]["sha256"] == loaded


def test_every_cli_flag_sets_its_run_spec_field(tmp_path):
    path = tmp_path / "data.csv"
    data = make_mixed_table(m=80, seed=1)
    save_csv(data, path)
    out = tmp_path / "out"
    argv = ["--data", str(path), "--label-col", data.label_name, "--t", "0.5,1.5", "--iters", "2"]
    argv += ["--tree-nodes", "3", "--folds", "2", "--noise", "0.1", "--seed", "7"]
    argv += ["--jobs", "2", "--out", str(out)]
    assert main(argv) == 0
    expected = RunSpec(
        data_path=str(path),
        label_column=data.label_name,
        t_values=(0.5, 1.5),
        rounds=2,
        tree_nodes=3,
        folds=2,
        noise=0.1,
        seed=7,
        jobs=2,
        out_dir=str(out),
    )
    assert read_manifest(out)["spec"] == as_json(expected)
    defaults = RunSpec(data_path=str(path))
    for name in (f.name for f in dataclasses.fields(RunSpec) if f.name != "data_path"):
        assert getattr(expected, name) != getattr(defaults, name), name


def test_cli_defaults_are_the_run_spec_defaults(tmp_path, monkeypatch):
    specs = []

    def fake_run(spec):
        specs.append(spec)
        return experiment.RunResult(out_dir=tmp_path, rows=[], cells=[])

    monkeypatch.setattr(experiment, "run", fake_run)
    assert main(["--data", "data.csv"]) == 0
    assert specs == [RunSpec(data_path="data.csv")]


def test_a_programming_error_propagates_out_of_the_run(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("injected programming error")

    monkeypatch.setattr(tree, "_best_split", broken)
    with pytest.raises(ValueError, match="injected programming error"):
        run_grid(tmp_path, make_mixed_table(m=60, seed=1), t_values=(0.5, 1.0), rounds=1, folds=2)


def test_a_typed_failure_fails_only_its_cells(tmp_path, monkeypatch):
    real = booster.leveraging

    def violated_at_half(rho, r_max, cfg, z_product, m):
        if cfg.t == 0.5:
            raise BoundViolatedError("leveraging bound violated; numerical failure")
        return real(rho, r_max, cfg, z_product, m)

    monkeypatch.setattr(booster, "leveraging", violated_at_half)
    result, _ = run_grid(
        tmp_path, make_mixed_table(m=60, seed=1), t_values=(0.5, 1.0), rounds=2, folds=2
    )
    failed = [cell for cell in result.cells if cell.status == "failed"]
    assert [cell.t for cell in failed] == [0.5, 0.5]
    assert all(cell.error.startswith("BoundViolatedError: leveraging") for cell in failed)
    assert {row.t for row in result.rows} == {1.0}


OUTPUTS = ("trace.csv", "summary.csv", *(f"plot_{panel}.csv" for panel in experiment.PLOT_PANELS))


def test_a_t_within_the_tolerance_of_one_runs_as_t_one(tmp_path):
    path, out = tmp_path / "data.csv", tmp_path / "out"
    save_csv(make_wideband(m=120), path)
    argv = ["--data", str(path), "--folds", "2", "--t", "0.9999999995,0.5", "--iters", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    assert all((out / name).exists() for name in OUTPUTS)
    summary = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    # t is 1 in every output, and the summary compares t = 0.5 against it
    assert [row[0] for row in summary] == ["1.0", "0.5"] and summary[1][-2] != ""
    assert [cell["t"] for cell in read_manifest(out)["cells"]] == [1.0, 0.5] * 2


def test_a_t_near_two_fails_only_its_cells_once_the_initial_weight_leaves_the_doubles(
    tmp_path, capsys
):
    # at t = 1.99 the initial weight m^(-100) is 0 from about m = 1900 rows on
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    save_csv(make_wideband(m=4000, d=5, seed=1), big)  # two training folds of 2000 rows
    save_csv(make_wideband(m=1000, d=5, seed=1), small)
    argv = ["--folds", "2", "--t", "1.99,0.5", "--iters", "3", "--tree-nodes", "3"]
    assert main(["--data", str(big), *argv, "--out", str(tmp_path / "big")]) == 2
    assert "2 cell(s) failed" in capsys.readouterr().err
    assert all((tmp_path / "big" / name).exists() for name in OUTPUTS)
    cells = read_manifest(tmp_path / "big")["cells"]
    assert [(cell["t"], cell["status"]) for cell in cells] == [(1.99, "failed"), (0.5, "ok")] * 2
    assert all(cell["error"].startswith("WeightUnderflowError") for cell in cells[::2])
    assert main(["--data", str(small), *argv, "--out", str(tmp_path / "small")]) == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_whose_every_cell_fails_still_writes_every_output(tmp_path, capsys, jobs):
    # one constant column: no tree splits, so every cell's first hypothesis is
    # degenerate, in a pool worker as in this process
    path = tmp_path / "constant.csv"
    path.write_text("x,y\n" + "".join(f"1.0,{(-1) ** i}\n" for i in range(20)))
    out = tmp_path / "out"
    argv = ["--data", str(path), "--folds", "2", "--t", "0.5,1.0", "--iters", "2"]
    argv += ["--jobs", str(jobs)]
    assert main([*argv, "--out", str(out)]) == 2
    assert "4 cell(s) failed" in capsys.readouterr().err
    assert (out / "trace.csv").read_text().splitlines() == [",".join(experiment.TRACE_FIELDS)]
    summary = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in summary[1:]] == [["0.5", "0"], ["1.0", "0"]]
    for panel in experiment.PLOT_PANELS:
        assert (out / f"plot_{panel}.csv").read_text().splitlines() == ["t,j,mean"]
    cells = read_manifest(out)["cells"]
    assert len(cells) == 4 and all(cell["status"] == "failed" for cell in cells)
    assert all(cell["error"].startswith("DegenerateHypothesisError") for cell in cells)


def test_manifest_records_the_environment_and_rebuilds_the_spec(tmp_path):
    result, _ = run_grid(tmp_path, make_wideband(seed=11), t_values=(1.0,), rounds=1, folds=2)
    manifest = read_manifest(result.out_dir)
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": np.show_config(mode="dicts")["SIMD Extensions"],
        "cpu_count": os.cpu_count(),
    }
    data = tmp_path / "data.csv"
    assert manifest["dataset"]["sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    expected = RunSpec(
        str(data), t_values=(1.0,), rounds=1, folds=2, seed=3, out_dir=str(result.out_dir)
    )
    assert manifest["spec"] == as_json(expected)
    assert RunSpec(**manifest["spec"]) == expected


def test_importing_the_harness_loads_no_scipy():
    code = "import sys, tempboost.experiment; print([m for m in sys.modules if 'scipy' in m])"
    src = str(Path(experiment.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("has_mallopt", [True, False])
def test_each_run_pins_the_malloc_thresholds(tmp_path, monkeypatch, has_mallopt):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = types.SimpleNamespace(mallopt=mallopt) if has_mallopt else types.SimpleNamespace()
    monkeypatch.setattr(experiment.sys, "platform", "linux")
    monkeypatch.setattr(experiment.ctypes, "CDLL", lambda name: libc)
    result, _ = run_grid(tmp_path, make_wideband(seed=11), t_values=(1.0,), rounds=1, folds=2)
    assert result.failed_cells == 0
    if has_mallopt:  # M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 64 MiB
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int
    else:
        assert calls == []


def test_the_summary_spread_is_the_sample_standard_deviation_over_folds():
    assert experiment._mean_std([1.0, 3.0]) == [2.0, math.sqrt(2.0)]  # ddof=1 from two folds
    assert repr(experiment._mean_std([1.0])) == "[1.0, nan]"
    assert repr(experiment._mean_std([])) == "[nan, nan]"


class TestPairedTTest:
    def test_a_consistent_gap_is_significant_either_way(self):
        low = [0.10, 0.12, 0.11, 0.10, 0.13]
        high = [0.30, 0.31, 0.29, 0.30, 0.33]
        assert paired_ttest(low, high) == "better"
        assert paired_ttest(high, low) == "worse"

    def test_a_gap_within_the_spread_is_equivalent(self):
        assert paired_ttest([0.1, 0.4, 0.2, 0.3], [0.3, 0.2, 0.1, 0.35]) == "equivalent"

    def test_the_p_value_threshold_decides(self):
        # at 2 degrees of freedom t = -2.65 gives p = 0.118, t = -3.46 gives p = 0.074
        a = [0.1, 0.2, 0.3]
        assert paired_ttest(a, [0.2, 0.25, 0.5]) == "equivalent"
        assert paired_ttest(a, [0.2, 0.25, 0.45]) == "better"

    def test_without_spread_the_sign_of_the_gap_decides(self):
        # dyadic errors, so every difference is exactly 0.25
        a, b = [0.5, 0.25, 0.75], [0.25, 0.0, 0.5]
        assert paired_ttest(a, a) == "equivalent"
        assert paired_ttest(b, a) == "better"
        assert paired_ttest(a, b) == "worse"

    @pytest.mark.parametrize(
        "a, b", [([0.1, 0.2], [0.1, 0.2, 0.3]), ([0.1], [0.2]), ([[0.1, 0.2]], [[0.2, 0.1]])]
    )
    def test_needs_equal_length_fold_vectors_of_at_least_two(self, a, b):
        with pytest.raises(ValueError, match="equal-length per-fold"):
            paired_ttest(a, b)

    def test_tail_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        # below about 1e-5 scipy's own tail loses digits; see the next test
        ts = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 150)))
        for df in range(1, 61):
            want = 2.0 * stats.t.sf(ts, df)
            got = np.array([_two_sided_p(sign * t, df) for t in ts for sign in (1, -1)])
            np.testing.assert_allclose(got, np.repeat(want, 2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 59])
    def test_tail_near_zero_follows_the_density(self, df):
        # 1 - p = 2 t f(0) + O(t^3), f(0) = Gamma((df+1)/2) / (sqrt(df pi) Gamma(df/2))
        t = 1e-9
        log_ratio = math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
        density = math.exp(log_ratio) / math.sqrt(df * math.pi)
        assert 1.0 - _two_sided_p(t, df) == pytest.approx(2 * t * density, rel=1e-6)
