"""Span tracing from outside the program, for the traced per-layer run.

``Tracer`` installs wrappers on public attributes that ``tempboost`` calls
through (module globals such as ``tempboost.tree.bayes_risk`` and methods
such as ``DecisionTree.predict``).  Each call records a span
(name, start, end, parent, count) in memory; nothing is written until the
caller asks for the spans.  ``uninstall`` puts every original object back,
and the context manager does so even when the traced code raises.

Private helpers such as ``tree._best_split`` are deliberately not wrapped:
their time shows up as the self time of the public function around them.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import numpy as np


def _first_arg_size(args, result):
    return int(np.size(args[0]))


def _data_rows(args, result):
    return int(args[1].m)  # (self, data)


def _result_rows(args, result):
    return int(result.m)


def _tree_splits(args, result):
    return (result.n_nodes - 1) // 2


def _boost_rounds(args, result):
    return len(result[1])  # boost returns (ensemble, trace)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped attribute."""
    from tempboost import booster, experiment, tree
    from tempboost.booster import Ensemble
    from tempboost.dataio import Dataset
    from tempboost.tree import DecisionTree

    return (
        (experiment, "boost", "booster.boost", _boost_rounds),
        (experiment, "load_csv", "dataio.load_csv", _result_rows),
        (experiment, "stratified_folds", "dataio.stratified_folds", None),
        (experiment, "emit_plots", "experiment.emit_plots", None),
        (experiment, "zero_one_error", "booster.zero_one_error", None),
        (tree, "induce_tree", "tree.induce_tree", _tree_splits),
        (tree, "bayes_risk", "cpe_loss.bayes_risk", _first_arg_size),
        (tree, "co_density", "weights.co_density", None),
        (DecisionTree, "predict", "tree.predict", _data_rows),
        (Dataset, "take", "dataio.take", None),
        (booster, "tempered_update", "weights.tempered_update", None),
        (booster, "co_density", "weights.co_density", None),
        (booster, "confidence_bounds", "booster.confidence_bounds", None),
        (booster, "edge", "booster.edge", None),
        (booster, "leveraging", "booster.leveraging", None),
        (booster, "zero_one_error", "booster.zero_one_error", None),
        (booster, "log_t", "talgebra.log_t", None),
        (booster, "power_mean", "talgebra.power_mean", None),
        (Ensemble, "decision_scores", "booster.decision_scores", None),
    )


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, count]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def span(self, name: str, count=None):
        """Wrap a callable so that each call records one span."""

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                record = [name, time.perf_counter(), 0.0, parent, 0]
                self.spans.append(record)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        record[4] = count(args, result)
                    return result
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()

            return wrapper

        return decorate

    def install(self):
        for owner, attr, name, count in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, count)(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list:
    """Per-span duration minus the time covered by its direct children.

    Calls are nested and single-threaded, so children never overlap and
    their summed durations are exactly the covered part of the parent.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, root: int) -> dict:
    """Per-layer metrics of one traced ``experiment.run``.

    ``root`` is the index of the span the benchmark opened around ``run``.
    """
    s = defaultdict(float)  # summed self time per span name
    calls = defaultdict(int)
    counts = defaultdict(int)
    total = defaultdict(float)  # summed duration per span name
    cells = []  # one boost span per cell
    for (name, start, end, _, count), own in zip(spans, self_times(spans)):
        s[name] += own
        calls[name] += 1
        counts[name] += count
        total[name] += end - start
        if name == "booster.boost":
            cells.append(end - start)

    run_s = spans[root][2] - spans[root][1]
    splits = counts["tree.induce_tree"]
    predict_rows = counts["tree.predict"]
    outside = sum(
        total[name]
        for name in ("dataio.load_csv", "dataio.stratified_folds", "dataio.take", "booster.boost")
    )
    return {
        "tree.induce_tree.s": s["tree.induce_tree"],
        "tree.induce_tree.calls": calls["tree.induce_tree"],
        "tree.splits": splits,
        "tree.s_per_split": s["tree.induce_tree"] / max(splits, 1),
        "tree.predict.s": s["tree.predict"],
        "tree.predict.rows": predict_rows,
        "tree.predict.ns_per_row": 1e9 * s["tree.predict"] / max(predict_rows, 1),
        "cpe_loss.bayes_risk.s": s["cpe_loss.bayes_risk"],
        "cpe_loss.bayes_risk.calls": calls["cpe_loss.bayes_risk"],
        "cpe_loss.bayes_risk.points": counts["cpe_loss.bayes_risk"],
        "weights.tempered_update.s": s["weights.tempered_update"],
        "weights.tempered_update.calls": calls["weights.tempered_update"],
        "weights.co_density.s": s["weights.co_density"],
        "weights.co_density.calls": calls["weights.co_density"],
        "booster.boost.self_s": s["booster.boost"],
        "booster.rounds": counts["booster.boost"],
        "booster.confidence_bounds.s": s["booster.confidence_bounds"],
        "booster.edge.s": s["booster.edge"],
        "booster.leveraging.s": s["booster.leveraging"],
        "booster.decision_scores.s": s["booster.decision_scores"],
        "booster.zero_one_error.s": s["booster.zero_one_error"],
        "talgebra.kernels.s": s["talgebra.log_t"] + s["talgebra.power_mean"],
        "talgebra.kernels.calls": calls["talgebra.log_t"] + calls["talgebra.power_mean"],
        "dataio.load_csv.s": s["dataio.load_csv"],
        "dataio.load_csv.rows_per_s": counts["dataio.load_csv"] / total["dataio.load_csv"]
        if total["dataio.load_csv"] > 0
        else 0.0,
        "dataio.stratified_folds.s": s["dataio.stratified_folds"],
        "dataio.take.s": s["dataio.take"],
        "experiment.cell.s_p50": statistics.median(cells) if cells else 0.0,
        "experiment.cell.s_p90": _p90(cells),
        # run minus load, folds and the cells (take + boost)
        "experiment.outputs.s": run_s - outside,
    }


def _p90(values) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
