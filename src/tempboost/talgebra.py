"""Tempered (t-deformed) arithmetic and the tempered Bayes risk.

``TemperConfig`` carries the temperature t and is the one check of its
range, [0, 2).  The deformed logarithm

    log_t(z) = (z^(1-t) - 1) / (1 - t)

recovers ln in the limit t -> 1; ``booster.leveraging`` takes the weight
update's coefficient from it, one float at a time, away from t = 1.  Near
1, where (z^(1-t) - 1)/(1-t) cancels, ``TemperConfig`` stores a t within
CLASSIC_TOLERANCE of 1 as 1, and every layer uses the exact classical forms.

The two-point power mean M_q underlies the Bayes risk, the per-round
guarantee factor and the leveraging coefficient.  Its arithmetic is one
kernel, ``_ordered_power_mean``, which checks nothing; its two entry
points here each make one check before calling it: ``power_mean``, for
two positive floats, and ``bayes_risk``, for two arrays of class masses.
Boosting's temperatures give q = 1 - t in (-1, 1].

The pointwise Bayes risk of the tempered class-probability-estimation loss

    L_t(v) = 2 v (1 - v) / M_(1-t)(v, 1 - v)

is Gini impurity 4v(1-v) at t=0, Matusita 2 sqrt(v(1-v)) at t=1 and the
empirical risk 2 min(v, 1-v) at t=-inf, and it flattens to 1 as t -> 2.
M_q is 1-homogeneous, so a mass r = P + N at posterior P / r risks
r L_t(P / r) = 2PN / M_(1-t)(P, N), which ``bayes_risk`` computes from the
class masses.  Trees score splits only at t in [0, 2); the losses
themselves, and the family's t < 0, live in ``tests/paper_math.py``,
which hands ``bayes_risk`` such a t as a ``CPETemperature``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLASSIC_TOLERANCE = 1e-9

_SMALL_EXPONENT = 1e-2  # the power mean switches to expm1/log1p below this |q|


@dataclass(frozen=True)
class TemperConfig:
    """Temperature parameter driving every deformed operation.

    ``t`` must lie in [0, 2), where boosting is defined; this is the one
    range check, and a nan fails it.  A t within ``CLASSIC_TOLERANCE`` of 1
    is stored as 1.0: every layer then agrees on which runs are classic.  The
    CPE-loss family's t < 0 is paper mathematics only the tests run.
    """

    t: float

    def __post_init__(self):
        t = float(self.t)
        if not 0.0 <= t < 2.0:  # a nan fails too
            raise ValueError(f"temperature must lie in [0, 2), got {self.t}")
        object.__setattr__(self, "t", 1.0 if abs(t - 1.0) < CLASSIC_TOLERANCE else t)

    @property
    def t_star(self) -> float:
        """The conjugate exponent 1 / (2 - t)."""
        return 1.0 / (2.0 - self.t)

    def is_classic(self) -> bool:
        """True when t is 1 and ops use exact ln/exp forms."""
        return self.t == 1.0

    @property
    def clamp_delta(self) -> float:
        """Clamp 1/(1-t) of the clamped model for t < 1; +inf otherwise."""
        if self.t < 1.0:
            return 1.0 / (1.0 - self.t)
        return math.inf


def log_t(z: float, cfg: TemperConfig) -> float:
    """Deformed logarithm (z^(1-t) - 1)/(1-t) of a float z > 0, for t != 1.

    ``leveraging``, its caller, takes the t = 1 limit in closed form.
    """
    if not z > 0:  # a nan fails too
        raise ValueError("log_t requires strictly positive input")
    arr = np.array([z], dtype=float)  # numpy's log and expm1, not libm's
    om = 1.0 - cfg.t
    out = np.expm1(om * np.log(arr)) / om
    return float(out[0])


def _ordered_power_mean(lo, hi, q: float):
    """M_q(lo, hi) for 0 <= lo <= hi and a non-nan q, unchecked.

    The one kernel of the power mean, whose operands its two entry points
    below check: ``power_mean`` two positive floats, ``bayes_risk`` two
    nonnegative arrays.  Call it under ``np.errstate`` with over ignored,
    since at q < 0 a subnormal lo overflows hi / lo to inf, whose q-th
    power is 0, and with divide and invalid ignored too where an operand
    can be 0: where the operand factored out is 0 the result is 0, or nan
    for 0/0.  An array result is computed in place in lo or hi.
    """
    buf = lo if isinstance(lo, np.ndarray) else None  # a numpy scalar gets a new one
    if abs(q) < CLASSIC_TOLERANCE:  # the q -> 0 limit, where the forms below divide by q
        return np.sqrt(np.multiply(lo, hi, out=buf), out=buf)
    if abs(q) < _SMALL_EXPONENT:
        out = np.log(np.divide(lo, hi, out=buf), out=buf)
        out *= q
        out = np.expm1(out, out=buf)
        out /= 2.0
        out = np.log1p(out, out=buf)
        out /= q
        out = np.exp(out, out=buf)
        out *= hi
        return out
    base, other = (hi, lo) if q > 0 else (lo, hi)
    out = np.divide(other, base, out=None if buf is None else other)
    out **= q
    out += 1.0
    out /= 2.0
    out **= 1.0 / q
    out *= base
    return out


def power_mean(a: float, b: float, q: float) -> float:
    """Two-point power mean ((a^q + b^q)/2)^(1/q) of two floats a, b > 0.

    The geometric mean at q=0.  Computed in numpy-scalar arithmetic, whose
    pow is libm's.  Factoring out the operand that keeps the ratio's q-th
    power at most 1 keeps extreme exponents from overflowing.  For
    |q| < 1e-2 the form ((1 + r^q)/2)^(1/q) cancels (relative error about
    eps/|q|), so it is evaluated as exp(log1p(expm1(q ln r)/2)/q) instead.
    An operand that is not positive, or nan, raises ``ValueError``.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if not lo > 0:  # a nan fails too
        raise ValueError("power_mean requires positive operands")
    with np.errstate(over="ignore"):  # at q < 0 a subnormal lo overflows hi / lo
        return float(_ordered_power_mean(lo, hi, q))


def bayes_risk(pos, neg, cfg: TemperConfig):
    """Bayes risk 2 pos neg / M_(1-t)(pos, neg) of the class masses pos and neg.

    r L_t(pos / r) for r = pos + neg: 4 pos neg / r at t=0, 2 sqrt(pos neg)
    at t=1, and zero whenever either mass is zero.  Concave, which makes
    tree-splitting gains nonnegative.  Accurate while 2 pos neg is a normal
    double.  Reads only ``cfg.t``.  ``pos`` and ``neg`` are float arrays of
    one shape, such as the real and imaginary parts of the split search's
    block; neither is written to.  A negative or nan mass raises
    ``ValueError``: the one check that the kernel relies on.
    """
    lo = np.minimum(pos, neg)
    if not lo.min() >= 0:  # a nan fails too
        raise ValueError("class masses must be nonnegative")
    numerator = np.multiply(2.0, pos)
    numerator *= neg
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = _ordered_power_mean(lo, np.maximum(pos, neg), 1.0 - cfg.t)
        out = np.divide(numerator, mean, out=mean)
    # a zero numerator gives 0 over a positive mean and nan over a zero one
    return np.fmax(out, 0.0, out=out)
