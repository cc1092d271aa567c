"""Exception types shared across the library."""


class TempBoostError(Exception):
    """Base class for tempered-boosting specific failures."""


class CollinearError(TempBoostError):
    """Margin vector is collinear with the weight vector at t=0, where the
    normalizer loses strict convexity and the projection is not unique."""


class NoMixedSignsError(TempBoostError):
    """Margins carry a single sign on the support, so the projection
    objective has its minimum at infinity."""


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
    """Training rows hold one class, or a class's weights all switched off."""


class ZeroWeightError(TempBoostError, ValueError):
    """A zero weight at t >= 1, where switched-off examples cannot exist."""


class BoundViolatedError(TempBoostError, RuntimeError):
    """A guaranteed bound (on mu, or on the training risk) failed numerically."""
