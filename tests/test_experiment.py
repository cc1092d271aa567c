"""The cross-validated grid end to end, pinned by its trace hash."""

import hashlib

from tempboost.dataio import save_csv
from tempboost.experiment import RunSpec, run
from tempboost.synthetic import make_wideband

# sha256 of trace.csv for the grid below.  Every tree, weight update and
# prediction feeds it, so a change that alters results has to change this
# pin and say why.
SMOKE_TRACE_SHA256 = "3921ea689eea7523c9aca601cb639ee8736bb096aaa308faa877676d57e7c5f2"


def test_smoke_grid_trace_is_pinned(tmp_path):
    # 139 training rows x 60 columns exceed the default split_cap at the
    # root, so the sampled search runs as well as the exhaustive one.
    path = tmp_path / "wideband.csv"
    save_csv(make_wideband(seed=11), path)
    spec = RunSpec(
        data_path=str(path),
        t_values=(0.5, 1.0),
        rounds=2,
        folds=3,
        seed=3,
        out_dir=str(tmp_path / "out"),
    )
    result = run(spec)
    assert result.failed_cells == 0
    assert len(result.rows) == 3 * 2 * 2
    trace = (tmp_path / "out" / "trace.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == SMOKE_TRACE_SHA256
