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

M_q is 1-homogeneous, so a mass r = P + N at posterior P / r risks
r L_t(P / r) = 2PN / M_(1-t)(P, N).  ``bayes_risk`` computes that from
the class masses P and N; L_t(v) is the case P = v, N = 1 - v.

t = -inf is represented by the float -inf with explicit limit branches
(the limits have closed forms; a merely large negative float would
overflow the powers instead of attaining them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .talgebra import TemperConfig, _finish, _prepare, power_mean

_DEFAULT_U_STEP = 1e-4


def _prepare_unit(z, name: str):
    flat, scalar, shape = _prepare(z)
    if flat.size and not (flat.min() >= 0 and flat.max() <= 1):  # a nan fails both
        raise ValueError(f"{name} must lie in [0, 1]")
    return flat, scalar, shape


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
    mean = power_mean(arr, 1.0 - arr, 1.0 - t)
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


def bayes_risk(pos, neg, cfg: TemperConfig):
    """Bayes risk 2 pos neg / M_(1-t)(pos, neg) of the class masses pos and neg.

    r L_t(pos / r) for r = pos + neg (see the module notes): 4 pos neg / r
    at t=0, 2 sqrt(pos neg) at t=1, 2 min(pos, neg) at t=-inf, and zero
    whenever either mass is zero.  Concave, which makes tree-splitting
    gains nonnegative.  Accurate while 2 pos neg is a normal double; a
    negative or nan mass raises ``ValueError``.  Floats or arrays,
    broadcast together; neither input is written to.
    """
    pos, neg = np.broadcast_arrays(np.asarray(pos, dtype=float), np.asarray(neg, dtype=float))
    scalar, shape = pos.ndim == 0, pos.shape
    pos, neg = np.atleast_1d(pos, neg)
    if pos.size and not (pos.min() >= 0 and neg.min() >= 0):  # a nan fails too
        raise ValueError("class masses must be nonnegative")
    t = cfg.t
    if t == -math.inf:
        out = np.minimum(pos, neg)
        out *= 2.0
        return _finish(out, scalar, shape)
    numerator = np.multiply(2.0, pos)
    numerator *= neg
    mean = power_mean(pos, neg, 1.0 - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(numerator, mean, out=mean)
    # a zero numerator gives 0 over a positive mean and nan over a zero one
    np.fmax(out, 0.0, out=out)
    return _finish(out, scalar, shape)


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
    while bayes_risk(u, 1.0 - u, TemperConfig(lo)) > z:
        lo *= 2.0
        if lo < -1e18:
            return -math.inf
    hi = 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = bayes_risk(u, 1.0 - u, TemperConfig(mid))
        if abs(value - z) <= tol:
            return mid
        if value < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
