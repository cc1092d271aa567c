"""Scalar kernel for tempered (t-deformed) arithmetic.

``TemperConfig`` carries the temperature t and is the one check of its
range, [0, 2).  The deformed logarithm

    log_t(z) = (z^(1-t) - 1) / (1 - t)

recovers ln in the limit t -> 1; ``booster.leveraging`` takes the weight
update's coefficient from it, one float at a time.  The two-point power
mean M_q underlies the Bayes risk, the per-round guarantee factor and the
leveraging coefficient.  Its arithmetic is one kernel,
``_ordered_power_mean``, which assumes nonnegative operands and checks
nothing; its two entry points, ``power_mean`` here and
``cpe_loss.bayes_risk``, each make the one nonnegativity check before
calling it.  The kernel's finite form attains the limits q = +-inf (the
max and the min) exactly: r^(+-inf) is 0 or 1, and x^0 = 1.

The t = 1 limit is dispatched to the exact classical forms whenever
|t - 1| < CLASSIC_TOLERANCE, because evaluating (z^(1-t) - 1)/(1-t) there
is catastrophically cancellative.
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
    range check, and a nan fails it.  The CPE-loss family's t < 0 is paper
    mathematics that only the tests run (``tests/paper_math.py``).
    """

    t: float

    def __post_init__(self):
        t = float(self.t)
        if not 0.0 <= t < 2.0:  # a nan fails too
            raise ValueError(f"temperature must lie in [0, 2), got {self.t}")
        object.__setattr__(self, "t", t)

    @property
    def t_star(self) -> float:
        """The conjugate exponent 1 / (2 - t)."""
        return 1.0 / (2.0 - self.t)

    def is_classic(self) -> bool:
        """True when t is (numerically) 1 and ops use exact ln/exp forms."""
        return abs(self.t - 1.0) < CLASSIC_TOLERANCE

    @property
    def clamp_delta(self) -> float:
        """Clamp 1/(1-t) of the clamped model for t < 1; +inf otherwise."""
        if self.t < 1.0 and not self.is_classic():
            return 1.0 / (1.0 - self.t)
        return math.inf


def log_t(z: float, cfg: TemperConfig) -> float:
    """Deformed logarithm (z^(1-t) - 1)/(1-t) of a float z > 0; natural log at t=1."""
    if not z > 0:  # a nan fails too
        raise ValueError("log_t requires strictly positive input")
    arr = np.array([z], dtype=float)  # numpy's log and expm1, not libm's
    if cfg.is_classic():
        out = np.log(arr)
    else:
        om = 1.0 - cfg.t
        out = np.expm1(om * np.log(arr)) / om
    return float(out[0])


def _ordered_power_mean(lo, hi, q: float):
    """M_q(lo, hi) for 0 <= lo <= hi and a non-nan q, unchecked.

    The one kernel of the power mean: ``power_mean`` and
    ``cpe_loss.bayes_risk`` check that the operands are nonnegative before
    calling it.  Call it under ``np.errstate`` with divide, invalid and over
    ignored: where the operand factored out is 0 the result is 0, or nan
    for 0/0, and at q < 0 a subnormal lo overflows hi / lo to inf, whose
    q-th power is 0.  An array result is computed in place in lo or hi.
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


def power_mean(a, b, q: float):
    """Two-point power mean ((a^q + b^q)/2)^(1/q) for a, b >= 0.

    Floats or arrays, broadcast together; two floats give a float,
    computed in scalar arithmetic, since numpy's vectorised pow can differ
    from libm's in the last bit.  Limits: geometric mean at q=0, max at
    q=+inf, min at q=-inf, and 0 for q < 0 when either operand is 0, or
    for any q when both are.  Factoring out the operand that keeps the
    ratio's q-th power at most 1 keeps extreme exponents from overflowing.
    For |q| < 1e-2 the form ((1 + r^q)/2)^(1/q) cancels (relative error
    about eps/|q|), so it is evaluated as exp(log1p(expm1(q ln r)/2)/q)
    instead.  A negative operand raises ``ValueError``; this is the check
    the unchecked kernel ``_ordered_power_mean`` relies on.  Neither ``a``
    nor ``b`` is written to.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    if scalar:  # numpy scalars, not 0-d arrays: their pow is libm's
        a, b = a[()], b[()]
    lo = np.minimum(a, b)
    if (lo < 0).any():
        raise ValueError("power_mean requires nonnegative operands")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _ordered_power_mean(lo, np.maximum(a, b), q)
    if abs(q) >= CLASSIC_TOLERANCE and np.isnan(out).any():
        # the kernel's 0/0 where the operand factored out is 0
        base = np.maximum(a, b) if q > 0 else np.minimum(a, b)
        out = np.where(base > 0, out, 0.0)
    return float(out) if scalar else out
