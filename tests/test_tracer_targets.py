"""The benchmark's tracer wraps names that must still exist in tempboost,
and its counters read what those names return."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tempboost import experiment  # noqa: E402
from tempboost.dataio import save_csv  # noqa: E402
from tempboost.experiment import RunSpec  # noqa: E402
from tempboost.synthetic import make_mixed_table  # noqa: E402
from tracer import Tracer, _targets, layer_metrics  # noqa: E402


def test_every_wrapped_attribute_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _targets()
        if attr not in vars(owner)
    ]
    assert not missing


def test_a_traced_grid_counts_one_round_and_one_tree_per_trace_row(tmp_path):
    # as the benchmark's traced run: a span around run, the root of the metrics
    path = tmp_path / "data.csv"
    save_csv(make_mixed_table(m=120, seed=1), path)
    spec = RunSpec(
        data_path=str(path), t_values=(0.0, 1.0), rounds=2, tree_nodes=3, folds=2,
        out_dir=str(tmp_path / "out"),
    )
    with Tracer() as tracer:
        result = tracer.span("experiment.run")(experiment.run)(spec)
    layers = layer_metrics(tracer.spans, 0)
    assert result.failed_cells == 0 and len(result.rows) == 2 * 2 * 2
    assert layers["booster.rounds"] == layers["tree.induce_tree.calls"] == len(result.rows)
    assert layers["tree.splits"] == len(result.rows)  # every 3-node tree split once
    # each round predicts its cell's test fold, and the folds' test rows are the table's
    assert layers["tree.predict.rows"] == 2 * 2 * 120
    assert [span[4] for span in tracer.spans if span[0] == "dataio.load_csv"] == [120]
