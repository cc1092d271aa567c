"""The tempered family of class-probability-estimation losses.

The positive partial loss

    l_pos(u) = ((1 - u) / M_(1-t)(u, 1 - u))^(2-t),

with M_q the two-point power mean, defines a symmetric CPE loss
(l_neg(u) = l_pos(1 - u)) that is strictly proper for every t in
(-inf, 2) and proper at t = -inf, where it degenerates to twice the 0/1
partial loss, 2 * [u <= 1/2].  Its pointwise Bayes risk

    L_t(v) = 2 v (1 - v) / M_(1-t)(v, 1 - v)

interpolates the classical tree-splitting criteria: Gini impurity
4v(1-v) at t=0, Matusita 2 sqrt(v(1-v)) at t=1, and the empirical risk
2 min(v, 1-v) at t=-inf; as t -> 2 it flattens to the constant 1.  For a
fixed v the map t -> L_t(v) is nondecreasing, so any target value in
[2 min(v, 1-v), 1] is reached by bisection over t.

t = -inf is represented by the float -inf with explicit limit branches
(the limits have closed forms; a merely large negative float would
overflow the powers instead of attaining them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .talgebra import TemperConfig, power_mean

_DEFAULT_U_STEP = 1e-4


def _mean_power(a: np.ndarray, b: np.ndarray, q: float) -> np.ndarray:
    """Vectorized two-point power mean with the limit branches."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if q == math.inf:
        return np.maximum(a, b)
    if q == -math.inf:
        return np.minimum(a, b)
    if q == 0.0:
        return np.sqrt(a * b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    out = np.zeros(np.broadcast(a, b).shape)
    if q > 0:
        nz = hi > 0
        ratio = np.divide(lo, hi, out=np.zeros_like(out), where=nz)
        out[nz] = (hi * ((1.0 + ratio**q) / 2.0) ** (1.0 / q))[nz]
    else:
        nz = lo > 0
        ratio = np.divide(hi, lo, out=np.ones_like(out), where=nz)
        out[nz] = (lo * ((1.0 + ratio**q) / 2.0) ** (1.0 / q))[nz]
    return out


def _prepare_unit(z, name: str):
    arr = np.asarray(z, dtype=float)
    flat = np.atleast_1d(arr)
    if np.any(flat < 0) or np.any(flat > 1) or np.any(np.isnan(flat)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return flat, arr.ndim == 0, arr.shape


def _finish(out, scalar, shape):
    return float(out[0]) if scalar else out.reshape(shape)


def partial_loss_pos(u, cfg: TemperConfig):
    """Partial loss charged to the positive class at posterior guess u.

    Zero at u=1, nonincreasing on [0, 1]; diverges at u=0 for t >= 1.
    At t=-inf it is exactly 2 * [u <= 1/2].
    """
    arr, scalar, shape = _prepare_unit(u, "posterior guess")
    t = cfg.t
    if t == -math.inf:
        out = 2.0 * (arr <= 0.5)
        return _finish(out, scalar, shape)
    mean = _mean_power(arr, 1.0 - arr, 1.0 - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ((1.0 - arr) / mean) ** (2.0 - t)
    out[arr == 1.0] = 0.0  # settles the 0/0 at the right endpoint for t >= 1
    return _finish(out, scalar, shape)


def partial_loss_neg(u, cfg: TemperConfig):
    """Partial loss charged to the negative class; the mirror of l_pos."""
    arr, scalar, shape = _prepare_unit(u, "posterior guess")
    out = np.atleast_1d(partial_loss_pos(1.0 - arr, cfg))
    return _finish(out, scalar, shape)


def _weighted(weight: np.ndarray, value: np.ndarray) -> np.ndarray:
    # No mass, no charge: the product is skipped where the weight is 0, so
    # 0 * inf at the endpoints is never evaluated.
    out = np.zeros(np.broadcast(weight, value).shape)
    return np.multiply(weight, value, out=out, where=weight != 0.0)


def pointwise_risk(u, v, cfg: TemperConfig):
    """Conditional risk v l_pos(u) + (1-v) l_neg(u) of guess u at truth v."""
    u_arr, u_scalar, u_shape = _prepare_unit(u, "posterior guess")
    v_arr, v_scalar, v_shape = _prepare_unit(v, "ground truth")
    u_arr, v_arr = np.broadcast_arrays(u_arr, v_arr)
    pos = np.atleast_1d(partial_loss_pos(u_arr, cfg))
    neg = np.atleast_1d(partial_loss_pos(1.0 - u_arr, cfg))
    out = _weighted(v_arr, pos) + _weighted(1.0 - v_arr, neg)
    scalar = u_scalar and v_scalar
    return _finish(out, scalar, u_shape if not u_scalar else v_shape)


def bayes_risk(v, cfg: TemperConfig):
    """Minimum conditional risk 2v(1-v)/M_(1-t)(v, 1-v) at posterior v.

    Gini at t=0, Matusita at t=1, twice the min-class mass at t=-inf;
    zero at v in {0, 1} for every t.  Concave in v, which is what makes
    top-down tree-splitting gains nonnegative.
    """
    arr, scalar, shape = _prepare_unit(v, "posterior")
    t = cfg.t
    if t == -math.inf:
        out = 2.0 * np.minimum(arr, 1.0 - arr)
        return _finish(out, scalar, shape)
    numerator = 2.0 * arr * (1.0 - arr)
    mean = _mean_power(arr, 1.0 - arr, 1.0 - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(numerator == 0.0, 0.0, numerator / mean)
    return _finish(out, scalar, shape)


@dataclass(frozen=True)
class CpeLoss:
    """Bundles a temperature with the loss family's callables."""

    cfg: TemperConfig

    def partial_pos(self, u):
        return partial_loss_pos(u, self.cfg)

    def partial_neg(self, u):
        return partial_loss_neg(u, self.cfg)

    def pointwise_risk(self, u, v):
        return pointwise_risk(u, v, self.cfg)

    def bayes_risk(self, v):
        return bayes_risk(v, self.cfg)


@dataclass(frozen=True)
class PropernessReport:
    """Outcome of the grid properness check."""

    t: float
    strict: bool
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def check_strict_properness(cfg: TemperConfig, v_grid=None, u_grid=None) -> PropernessReport:
    """Verify on a grid that the truth v minimizes the conditional risk.

    For finite t the minimizer must be unique: the set of grid points
    attaining the minimum must span at most 3 grid steps and sit within
    one step of v.  At t = -inf only properness is required (v attains the
    minimum, uniqueness waived).  Returns the violations found.
    """
    if u_grid is None:
        n = int(round(1.0 / _DEFAULT_U_STEP))
        u_grid = np.arange(1, n) / n
    else:
        u_grid = np.asarray(u_grid, dtype=float)
    if v_grid is None:
        v_grid = np.arange(1, 100) / 100.0
    else:
        v_grid = np.asarray(v_grid, dtype=float)
    if np.any(u_grid <= 0) or np.any(u_grid >= 1) or np.any(v_grid <= 0) or np.any(v_grid >= 1):
        raise ValueError("grids must lie strictly inside (0, 1)")

    step = float(np.max(np.diff(np.sort(u_grid)))) if u_grid.size > 1 else 1.0
    strict = cfg.t != -math.inf
    violations = []
    for v in v_grid:
        risks = pointwise_risk(u_grid, float(v), cfg)
        best = np.flatnonzero(risks == risks.min())
        if strict:
            span = u_grid[best.max()] - u_grid[best.min()]
            nearest = u_grid[best[np.argmin(np.abs(u_grid[best] - v))]]
            if span > 3 * step + 1e-12:
                violations.append((float(v), f"minimizer spans {span:.2e}"))
            elif abs(nearest - v) > step + 1e-12:
                violations.append((float(v), f"argmin {nearest} away from truth"))
        else:
            # The step loss charges both classes at exactly u = 1/2 (its
            # finite-t limit there is 1, not 2), so properness is checked
            # as: a minimizer sits within one grid step of the truth.
            nearest = float(np.min(np.abs(u_grid[best] - v)))
            if nearest > step + 1e-12:
                violations.append((float(v), "no minimizer near the truth"))
    return PropernessReport(cfg.t, strict, tuple(violations))


def _bayes_risk_at(u: float, t: float) -> float:
    if t == -math.inf:
        return 2.0 * min(u, 1.0 - u)
    if t == 2.0:
        return 1.0  # harmonic-mean limit: the risk flattens to a constant
    return 2.0 * u * (1.0 - u) / power_mean(u, 1.0 - u, 1.0 - t)


def bayes_risk_coverage(u: float, z: float, tol: float = 1e-9) -> float:
    """Temperature t for which the Bayes risk at posterior u equals z.

    Well-defined for z in [2 min(u, 1-u), 1]; the endpoints map to -inf
    and 2.  Uses monotone bisection in t.
    """
    u = float(u)
    z = float(z)
    if not 0.0 < u < 1.0:
        raise ValueError("posterior must lie strictly inside (0, 1)")
    floor = 2.0 * min(u, 1.0 - u)
    if z < floor - 1e-12 or z > 1.0 + 1e-12:
        raise ValueError(f"target {z} outside the attainable [{floor}, 1]")
    if z <= floor + 1e-14:
        return -math.inf
    if z >= 1.0 - 1e-14:
        return 2.0

    lo = -16.0
    while _bayes_risk_at(u, lo) > z:
        lo *= 2.0
        if lo < -1e18:
            return -math.inf
    hi = 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = _bayes_risk_at(u, mid)
        if abs(value - z) <= tol:
            return mid
        if value < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
