"""Exception types shared across the library."""


class TempBoostError(Exception):
    """Base class for tempered-boosting specific failures."""


class WeightOverflowError(TempBoostError):
    """One or more weights hit the infinite branch of the deformed
    exponential (t > 1) or overflowed (t = 1) before normalization."""


class WeightUnderflowError(TempBoostError):
    """An updated weight is not positive: clamped to 0 by the deformed
    exponential (t < 1), or rounded to 0."""


class EdgeSaturatedError(TempBoostError):
    """|edge| is at (or beyond) 1 up to the saturation cap; the leveraging
    coefficient would be infinite at t=1 and sits on the domain boundary of
    the deformed logarithm otherwise."""


class DegenerateHypothesisError(TempBoostError):
    """Weak hypothesis has zero margin on every example."""


class SingleClassError(TempBoostError, ValueError):
    """Training rows hold one class, or a leaf's posterior rounds to 0 or 1
    after a split of uneven weights."""


class BoundViolatedError(TempBoostError, RuntimeError):
    """A guaranteed bound (on mu, or on the training risk) failed numerically."""
