"""Scalar kernel for tempered (t-deformed) arithmetic.

The deformed logarithm/exponential pair

    log_t(z) = (z^(1-t) - 1) / (1 - t),      exp_t(z) = [1 + (1-t) z]_+^(1/(1-t)),

with [x]_+ = max(0, x), recovers ln/exp in the limit t -> 1.  The pair is
mutually inverse on one side only: exp_t(log_t(z)) = z for z > 0, while
log_t(exp_t(z)) truncates at -1/(1-t) for t < 1 (at 1/(t-1) from above for
t > 1).  The deformed product satisfies exp_t(a+b) = exp_t(a) (x)_t exp_t(b).

All functions accept floats or numpy arrays and return matching shapes.
The t = 1 limit is dispatched to the exact classical forms whenever
|t - 1| < CLASSIC_TOLERANCE, because evaluating (z^(1-t) - 1)/(1-t) there
is catastrophically cancellative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLASSIC_TOLERANCE = 1e-9

_SMALL_EXPONENT = 1e-2  # power_mean switches to expm1/log1p below this |q|


@dataclass(frozen=True)
class TemperConfig:
    """Temperature parameter driving every deformed operation.

    ``t`` must be < 2 (the co-simplex power 2 - t must stay positive).
    Boosting operations additionally require t in [0, 2); the CPE-loss
    family accepts any t in [-inf, 2).  Range policing beyond t < 2 is
    left to the callers.
    """

    t: float

    def __post_init__(self):
        t = float(self.t)
        if math.isnan(t) or t >= 2.0:
            raise ValueError(f"temperature must satisfy t < 2, got {self.t}")
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


def _prepare(z):
    arr = np.asarray(z, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0, arr.shape


def _finish(out, scalar, shape):
    if scalar:
        return float(out[0])
    return out.reshape(shape)


def _require_finite_t(cfg: TemperConfig, op: str) -> float:
    if not math.isfinite(cfg.t):
        raise ValueError(f"{op} requires a finite temperature, got t={cfg.t}")
    return cfg.t


def log_t(z, cfg: TemperConfig):
    """Deformed logarithm (z^(1-t) - 1)/(1-t); natural log at t=1.

    Domain is z > 0.
    """
    t = _require_finite_t(cfg, "log_t")
    arr, scalar, shape = _prepare(z)
    if arr.size == 0 or np.any(arr <= 0) or np.any(np.isnan(arr)):
        raise ValueError("log_t requires strictly positive input")
    if cfg.is_classic():
        out = np.log(arr)
    else:
        om = 1.0 - t
        out = np.expm1(om * np.log(arr)) / om
    return _finish(out, scalar, shape)


def exp_t(z, cfg: TemperConfig):
    """Deformed exponential [1 + (1-t) z]_+^(1/(1-t)); exp at t=1.

    Total on the reals.  For t < 1 the clamp produces exact zeros on the
    branch 1 + (1-t) z <= 0; for t > 1 that branch diverges and the
    function returns the +inf sentinel instead (callers count occurrences).
    """
    t = _require_finite_t(cfg, "exp_t")
    arr, scalar, shape = _prepare(z)
    if cfg.is_classic():
        with np.errstate(over="ignore"):
            out = np.exp(arr)
    else:
        om = 1.0 - t
        base = 1.0 + om * arr
        out = np.empty_like(arr)
        good = base > 0
        with np.errstate(over="ignore"):
            out[good] = np.exp(np.log1p(om * arr[good]) / om)
        out[~good] = 0.0 if t < 1 else np.inf
    return _finish(out, scalar, shape)


def t_product(a, b, cfg: TemperConfig):
    """Deformed product [a^(1-t) + b^(1-t) - 1]_+^(1/(1-t)) on a, b >= 0.

    1 is the unit; the ordinary product at t=1.  Satisfies
    exp_t(x + y) = t_product(exp_t(x), exp_t(y)).
    """
    t = _require_finite_t(cfg, "t_product")
    arr_a, scalar_a, shape_a = _prepare(a)
    arr_b, scalar_b, shape_b = _prepare(b)
    if np.any(arr_a < 0) or np.any(arr_b < 0):
        raise ValueError("t_product requires nonnegative operands")
    arr_a, arr_b = np.broadcast_arrays(arr_a, arr_b)
    if cfg.is_classic():
        out = arr_a * arr_b
    else:
        om = 1.0 - t
        out = np.empty_like(arr_a, dtype=float)
        if t < 1:
            bracket = arr_a**om + arr_b**om - 1.0
            good = bracket > 0
            with np.errstate(over="ignore"):
                out[good] = bracket[good] ** (1.0 / om)
            out[~good] = 0.0
        else:
            # A zero operand annihilates (its power diverges, the outer
            # negative exponent sends the product to the zero limit).
            zero = (arr_a == 0) | (arr_b == 0)
            with np.errstate(divide="ignore"):
                bracket = np.where(zero, np.inf, arr_a**om + arr_b**om - 1.0)
            good = bracket > 0
            out[good & ~zero] = bracket[good & ~zero] ** (1.0 / om)
            out[~good] = np.inf
            out[zero] = 0.0
    scalar = scalar_a and scalar_b
    return _finish(out, scalar, shape_a if not scalar_a else shape_b)


def t_minus(a, b, cfg: TemperConfig):
    """Deformed subtraction (a - b) / (1 + (1-t) b); plain a - b at t=1.

    Inverts the deformed exponential ratio:
    exp_t(u) / exp_t(v) = exp_t(t_minus(u, v)) wherever both sides are
    finite and positive.
    """
    t = _require_finite_t(cfg, "t_minus")
    arr_a, scalar_a, shape_a = _prepare(a)
    arr_b, scalar_b, shape_b = _prepare(b)
    arr_a, arr_b = np.broadcast_arrays(arr_a, arr_b)
    if cfg.is_classic():
        out = arr_a - arr_b
    else:
        denom = 1.0 + (1.0 - t) * arr_b
        if np.any(denom == 0.0):
            raise ValueError("t_minus undefined where 1 + (1-t) b = 0")
        out = (arr_a - arr_b) / denom
    scalar = scalar_a and scalar_b
    return _finish(out, scalar, shape_a if not scalar_a else shape_b)


def _over(ufunc, x, *args):
    """``ufunc(x, *args)``, written over ``x`` when it is an array; a numpy
    scalar cannot be written to, so it gets a new one."""
    return ufunc(x, *args, out=x if isinstance(x, np.ndarray) else None)


def power_mean(a, b, q: float):
    """Two-point power mean ((a^q + b^q)/2)^(1/q) for a, b >= 0.

    Floats or arrays, broadcast together; two floats give a float,
    computed in scalar arithmetic, since numpy's vectorised pow can differ
    from libm's in the last bit.  Limits: geometric mean at q=0, max at
    q=+inf, min at q=-inf, and 0 for q < 0 when either operand is 0.
    Factoring out the operand that keeps the ratio's q-th power at most 1
    keeps extreme exponents from overflowing.  For |q| < 1e-2 the form
    ((1 + r^q)/2)^(1/q) cancels (relative error about eps/|q|), so it is
    evaluated as exp(log1p(expm1(q ln r)/2)/q) instead.  Arrays are
    computed in place in the min/max temporaries, never in ``a`` or ``b``.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    if scalar:  # numpy scalars, not 0-d arrays: their pow is libm's
        a, b = a[()], b[()]
    lo = np.minimum(a, b)
    if (lo < 0).any():
        raise ValueError("power_mean requires nonnegative operands")
    if q == -math.inf:
        out = lo
    elif q == math.inf:
        out = np.maximum(a, b)
    elif abs(q) < CLASSIC_TOLERANCE:
        # the q -> 0 limit, where the forms below divide by q
        out = _over(np.sqrt, a * b)
    else:
        hi = np.maximum(a, b)
        base, other = (hi, lo) if q > 0 else (lo, hi)
        empty = ~(base > 0)
        # at q < 0 a subnormal lo overflows other / base to inf, and inf**q = 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if abs(q) < _SMALL_EXPONENT:
                out = _over(np.log, _over(np.divide, lo, hi))
                out *= q
                out = _over(np.expm1, out)
                out /= 2.0
                out = _over(np.log1p, out)
                out /= q
                out = _over(np.exp, out)
                out *= hi
            else:
                out = _over(np.divide, other, base)
                out **= q
                out += 1.0
                out /= 2.0
                out **= 1.0 / q
                out *= base
        if scalar:
            return 0.0 if empty else float(out)
        # where base is 0 the forms above give 0 already, or nan for 0/0
        if np.isnan(out).any():
            out[empty] = 0.0
    return float(out) if scalar else out
