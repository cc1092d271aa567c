"""Exception types shared across the library."""


class TempBoostError(Exception):
    """Base class for tempered-boosting specific failures."""


class AllZeroError(TempBoostError):
    """Every unnormalized weight clamped to zero; nothing to normalize."""


class WeightOverflowError(TempBoostError):
    """One or more weights hit the infinite branch of the deformed
    exponential (t > 1) or overflowed (t = 1) before normalization."""

    def __init__(self, count: int):
        super().__init__(f"{count} weight(s) became infinite before normalization")
        self.count = count


class EdgeSaturatedError(TempBoostError):
    """|edge| is at (or beyond) 1 up to the saturation cap; the leveraging
    coefficient would be infinite at t=1 and sits on the domain boundary of
    the deformed logarithm otherwise."""


class DegenerateHypothesisError(TempBoostError):
    """Weak hypothesis has zero margin on every supported example."""


class SingleClassError(TempBoostError, ValueError):
    """Training rows hold one class, a class's weights all switched off, or
    a leaf's posterior rounds to 0 or 1 after a split of uneven weights."""


class ZeroWeightError(TempBoostError, ValueError):
    """A zero weight at t >= 1, where switched-off examples cannot exist."""


class BoundViolatedError(TempBoostError, RuntimeError):
    """A guaranteed bound (on mu, or on the training risk) failed numerically."""
