"""The cross-validated grid end to end, pinned by its trace hash."""

import hashlib

import numpy as np
import pytest

from tempboost import experiment, tree
from tempboost.dataio import CATEGORICAL, Column, Dataset, save_csv
from tempboost.experiment import RunSpec, main, run
from tempboost.synthetic import make_mixed_table, make_wideband
from tempboost.tree import DecisionTree

# sha256 of trace.csv for the grids below.  Every tree, weight update and
# prediction feeds it, so a change that alters results has to change this
# pin and say why.
SMOKE_TRACE_SHA256 = "3921ea689eea7523c9aca601cb639ee8736bb096aaa308faa877676d57e7c5f2"
CATEGORICAL_TRACE_SHA256 = "90e3ef0d8fe443caf0902c4dac6c32199f8bd04284facabe87bbf6fed6c4166b"


def run_grid(tmp_path, data, **grid):
    path = tmp_path / "data.csv"
    save_csv(data, path)
    spec = RunSpec(data_path=str(path), seed=3, out_dir=str(tmp_path / "out"), **grid)
    result = run(spec)
    trace = (tmp_path / "out" / "trace.csv").read_bytes()
    return result, hashlib.sha256(trace).hexdigest()


def test_smoke_grid_trace_is_pinned(tmp_path):
    # 139 training rows x 60 columns exceed the default split_cap at the
    # root, so the sampled search runs as well as the exhaustive one.
    result, digest = run_grid(
        tmp_path, make_wideband(seed=11), t_values=(0.5, 1.0), rounds=2, folds=3
    )
    assert result.failed_cells == 0
    assert len(result.rows) == 3 * 2 * 2
    assert digest == SMOKE_TRACE_SHA256


def test_categorical_grid_trace_is_pinned(tmp_path):
    # Two categorical and two numeric columns; the cap of 150 is below the
    # root's ~400 numeric thresholds, so sampled and exhaustive numeric
    # search both run next to the categorical prefix scan.
    result, digest = run_grid(
        tmp_path,
        make_mixed_table(m=300, seed=11),
        t_values=(0.5, 1.0),
        rounds=3,
        folds=3,
        split_cap=150,
    )
    assert result.failed_cells == 0
    assert len(result.rows) == 3 * 2 * 3
    assert digest == CATEGORICAL_TRACE_SHA256


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


def test_each_tree_predicts_train_and_test_once(tmp_path, monkeypatch):
    # boost predicts the training fold, on_round the test fold; the training
    # errors and the risk-bound check reuse boost's running scores.
    calls = {"trees": 0, "predict": 0}
    induce_tree, predict = tree.induce_tree, DecisionTree.predict

    def counting_induce(*args, **kwargs):
        calls["trees"] += 1
        return induce_tree(*args, **kwargs)

    def counting_predict(self, data):
        calls["predict"] += 1
        return predict(self, data)

    monkeypatch.setattr(tree, "induce_tree", counting_induce)
    monkeypatch.setattr(DecisionTree, "predict", counting_predict)
    result, _ = run_grid(
        tmp_path, make_mixed_table(m=120, seed=11), t_values=(0.5, 1.0), rounds=3, folds=2
    )
    assert result.failed_cells == 0
    assert calls["trees"] == len(result.rows) == 2 * 2 * 3
    assert calls["predict"] == 2 * calls["trees"]


@pytest.mark.parametrize(
    "field, value",
    [("split_cap", -1), ("split_cap", 0), ("tree_nodes", 4), ("tree_nodes", 0), ("tree_nodes", -1)],
)
def test_run_spec_rejects_bad_tree_settings(field, value):
    with pytest.raises(ValueError, match=field):
        RunSpec(data_path="data.csv", **{field: value})


def test_cli_rejects_negative_split_cap_before_any_cell(tmp_path, monkeypatch, capsys):
    path = tmp_path / "data.csv"
    save_csv(make_mixed_table(m=60, seed=1), path)
    started = []
    monkeypatch.setattr(experiment, "run", started.append)
    with pytest.raises(SystemExit) as exit_info:
        main(["--data", str(path), "--split-cap", "-1", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "split_cap" in capsys.readouterr().err
    assert not started and not (tmp_path / "out").exists()
