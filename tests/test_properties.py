"""The whole harness on random tables: it returns, and fails only typed.

Tables mix normal, few-valued, constant and extreme numeric columns
(±1e308, the least subnormal, ±0.0) with categorical columns of up to 300
levels, under random temperatures (1 ± 1e-7, 1 ± 5e-10 and 1.999 among
them), tree sizes, folds and label noise.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from paper_math import leaves
from tempboost import errors, tree as tree_module
from tempboost.dataio import CATEGORICAL, NUMERIC, Column, Dataset, save_csv
from tempboost.experiment import RunSpec, run
from tempboost.talgebra import TemperConfig

EXTREMES = np.array([1e308, -1e308, 5e-324, 0.0, -0.0, 1.0])
# both edges of the range: t within CLASSIC_TOLERANCE of 1, which counts as 1,
# and t near 2, whose initial weight m^(-1/(2-t)) leaves the doubles
TEMPERATURES = (
    0.0, 0.3, 0.9, 1 - 1e-7, 1 - 5e-10, 1.0, 1 + 5e-10, 1 + 1e-7, 1.1, 1.5, 1.9, 1.999
)
KINDS = ("normal", "few", "constant", "extreme", "categorical")
TYPED = {
    name
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.TempBoostError)
}


def random_column(kind, m, levels, rng, name):
    if kind == "normal":
        return Column(name, NUMERIC, rng.normal(size=m))
    if kind == "few":
        return Column(name, NUMERIC, rng.integers(0, 3, size=m).astype(float))
    if kind == "constant":
        return Column(name, NUMERIC, np.full(m, rng.normal()))
    if kind == "extreme":
        return Column(name, NUMERIC, rng.choice(EXTREMES, size=m))
    return Column(name, CATEGORICAL, np.array([f"L{k}" for k in rng.integers(0, levels, m)]))


@st.composite
def grids(draw):
    folds = draw(st.integers(2, 4))
    m = draw(st.integers(max(6, 2 * folds), 120))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    levels = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = tuple(random_column(k, m, levels, rng, f"c{j}") for j, k in enumerate(kinds))
    labels = np.where(rng.random(m) < draw(st.floats(0.2, 0.8)), 1, -1)
    labels[: 2 * folds] = [1, -1] * folds  # each class fills every fold
    # distinct as TemperConfig stores them, or RunSpec rejects the repeat
    stored = st.lists(
        st.sampled_from(TEMPERATURES), min_size=1, max_size=3, unique_by=lambda t: TemperConfig(t).t
    )
    spec = dict(
        t_values=tuple(draw(stored)),
        rounds=draw(st.integers(1, 3)),
        tree_nodes=draw(st.sampled_from((1, 3, 7, 15))),
        folds=folds,
        noise=draw(st.sampled_from((0.0, 0.1, 0.3))),
        seed=draw(st.integers(0, 1000)),
    )
    return Dataset(columns, labels), spec


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(grids())
def test_every_grid_runs_and_fails_only_typed(grid):
    data, spec = grid
    real_induce = tree_module.induce_tree

    def checked_induce(*args):
        found = real_induce(*args)
        for leaf in leaves(found):  # the admissibility contract
            assert leaf.stats.m_pos > 0 and leaf.stats.m_neg > 0
        return found

    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(
        tree_module, "induce_tree", checked_induce
    ):
        save_csv(data, Path(scratch) / "data.csv")
        result = run(RunSpec(data_path=str(Path(scratch) / "data.csv"), out_dir=scratch, **spec))
    for cell in result.cells:
        assert cell.status == "ok" or cell.error.split(":")[0] in TYPED
