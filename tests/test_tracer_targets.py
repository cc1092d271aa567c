"""The benchmark's tracer wraps names that must still exist in tempboost."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import _targets  # noqa: E402


def test_every_wrapped_attribute_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _targets()
        if attr not in vars(owner)
    ]
    assert not missing
