"""Tests of the benchmark harness itself (not part of the package's test suite).

Run from the root of a checkout with:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import CATEGORY_LEVELS, WORKLOADS, make_graded_table  # noqa: E402

SMALL_GRID = dict(folds=2, t_values=(0.0, 1.0), rounds=2, tree_nodes=3)
REDUCED = {
    name: replace(w, m={"wideband": 80, "tall": 400, "categorical": 200}[w.data], grid=SMALL_GRID)
    for name, w in WORKLOADS.items()
}


def _declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[section]


def test_benchmark_json_names_every_workload():
    assert [(w["name"], w["why"]) for w in _declared("workloads")] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize(
    "workload, trace", [("wideband-j2", 0), ("tall", 0), ("categorical", 1)]
)
def test_reduced_grid_prints_every_metric(workload, trace, capsys):
    result = bench.run(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        workloads=REDUCED,
    )
    printed = capsys.readouterr().out
    assert result["correct"], printed
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"\n{metric['name']} = " in printed
        line = printed.split(f"\n{metric['name']} = ", 1)[1].split("\n", 1)[0]
        assert line.endswith(f" {metric['unit']}")
    assert "trace.csv sha256" in printed and "(identical)" in printed


def _small_spec(tmp_path):
    from tempboost.dataio import save_csv
    from tempboost.experiment import RunSpec
    from tempboost.synthetic import make_mixed_table

    csv_path = tmp_path / "mixed.csv"
    save_csv(make_mixed_table(m=120, seed=1), csv_path)
    return RunSpec(
        str(csv_path), t_values=(0.0, 1.0), rounds=2, tree_nodes=3, folds=2,
        out_dir=str(tmp_path / "out"),
    )


def _originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer._targets()]


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    from tempboost import experiment

    originals = _originals()
    spec = _small_spec(tmp_path)
    with tracer.Tracer() as tr:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        tr.span("experiment.run")(experiment.run)(spec)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    layers = tracer.layer_metrics(tr.spans, 0)
    assert layers["booster.rounds"] == 2 * 2 * 2
    assert layers["tree.induce_tree.calls"] == 8
    assert layers["dataio.take.s"] > 0 and layers["cpe_loss.bayes_risk.points"] > 0


def test_tracer_restores_attributes_when_the_run_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_self_time_subtracts_children():
    spans = [
        ["run", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 6.0, 0, 0],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_graded_table_is_deterministic_per_seed():
    first, again, other = (make_graded_table(m=400, seed=s) for s in (7, 7, 8))
    assert np.array_equal(first.labels, again.labels)
    for a, b in zip(first.columns, again.columns):
        assert a.name == b.name and a.kind == b.kind
        assert np.array_equal(a.values, b.values)
    assert not np.array_equal(first.columns[-1].values, other.columns[-1].values)
    grade = first.columns[-1]
    assert grade.kind == "categorical" and len(set(grade.values)) == CATEGORY_LEVELS
    assert 0 < np.mean(first.labels > 0) < 1
