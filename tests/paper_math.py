"""Paper mathematics that the experiment does not run, checked against ``oracles.py``.

The deformed exponential, product and subtraction, the tempered
exponential loss, the exact entropy projection onto q~.u = 0, the partial
losses of the tempered CPE family with their properness and coverage
checks, and the leaves of a tree.  Private helpers come from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from tempboost.errors import TempBoostError
from tempboost.talgebra import CLASSIC_TOLERANCE, TemperConfig, _ordered_power_mean, bayes_risk
from tempboost.weights import TemWeights, _margins


class CPETemperature(NamedTuple):
    """A CPE-family temperature t in [-inf, 2), unchecked; ``TemperConfig`` takes [0, 2)."""

    t: float


def scalar_bayes_risk(pos: float, neg: float, cfg) -> float:
    """``bayes_risk`` of two float class masses, scored as one-entry arrays."""
    return float(bayes_risk(np.array([pos], dtype=float), np.array([neg], dtype=float), cfg)[0])


def _prepare(z):
    arr = np.asarray(z, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0, arr.shape


def _finish(out, scalar, shape):
    return float(out[0]) if scalar else out.reshape(shape)


# ---------------------------------------------------------------------------
# deformed exponential, product and subtraction


def exp_t(z, cfg: TemperConfig):
    """Deformed exponential [1 + (1-t) z]_+^(1/(1-t)); exp at t=1.

    Total on the reals.  For t < 1 the clamp produces exact zeros on the
    branch 1 + (1-t) z <= 0; for t > 1 that branch diverges and the
    function returns the +inf sentinel instead.  The inverse of
    ``talgebra.log_t`` on one side only: exp_t(log_t(z)) = z for z > 0,
    while log_t(exp_t(z)) truncates at -1/(1-t) for t < 1 (at 1/(t-1) from
    above for t > 1).
    """
    t = cfg.t
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


def t_product(a: float, b: float, cfg: TemperConfig) -> float:
    """Deformed product [a^(1-t) + b^(1-t) - 1]_+^(1/(1-t)) of floats a, b >= 0.

    1 is the unit; the ordinary product at t=1.  Satisfies
    exp_t(x + y) = t_product(exp_t(x), exp_t(y)).  Above t = 1 a zero
    operand annihilates (its power diverges, and the outer negative
    exponent sends the product to the zero limit), and a bracket at or
    below 0 diverges.
    """
    if a < 0 or b < 0:
        raise ValueError("t_product requires nonnegative operands")
    if cfg.is_classic():
        return a * b
    om = 1.0 - cfg.t
    if om < 0 and (a == 0 or b == 0):
        return 0.0
    with np.errstate(over="ignore"):  # numpy scalars: an overflow is inf, not an error
        bracket = np.float64(a) ** om + np.float64(b) ** om - 1.0
        if bracket <= 0:
            return 0.0 if om > 0 else math.inf
        return float(bracket ** (1.0 / om))


def t_minus(a: float, b: float, cfg: TemperConfig) -> float:
    """Deformed subtraction (a - b) / (1 + (1-t) b) of floats; plain a - b at t=1.

    Inverts the deformed exponential ratio:
    exp_t(u) / exp_t(v) = exp_t(t_minus(u, v)) wherever both sides are
    finite and positive.
    """
    if cfg.is_classic():
        return a - b
    denom = 1.0 + (1.0 - cfg.t) * b
    if denom == 0.0:
        raise ValueError("t_minus undefined where 1 + (1-t) b = 0")
    return (a - b) / denom


def tempered_exp_loss(margins, cfg: TemperConfig) -> float:
    """Mean of exp_t(-margin)^(2-t); upper-bounds the 0/1 risk for t <= 2.

    At t=1 this is the exponential loss the classic AdaBoost minimizes.
    """
    margins = np.asarray(margins, dtype=float)
    with np.errstate(over="ignore"):
        values = exp_t(-margins, cfg) ** (2.0 - cfg.t)
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# exact entropy projection onto a single linear constraint


class CollinearError(TempBoostError):
    """Margin vector is collinear with the weight vector at t=0, where the
    normalizer loses strict convexity and the projection is not unique."""


class NoMixedSignsError(TempBoostError):
    """Margins carry a single sign on the support, so the projection
    objective has its minimum at infinity."""


_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 80


def clamped_update(weights: TemWeights, u: np.ndarray, mu: float):
    """``tempered_update`` with the paper's clamp, on plain arrays: (q', Z_t).

    q' = exp_t(log_t q - mu u) / Z_t, where Z_t is the (2-t)-norm of the
    numerator.  Below t = 1 a bracket q^(1-t) - (1-t) mu u at or below 0 is
    clamped to 0: the exact projection does switch weights off, while
    ``tempered_update`` never reaches the clamp.  Returns None when a weight
    diverges (t > 1), or when the (2-t)-th powers sum to 0 or overflow.
    """
    if weights.cfg.is_classic():
        with np.errstate(over="ignore"):
            w = weights.q * np.exp(-mu * u)
        w_pow, co = w, 1.0
    else:
        om, co = 1.0 - weights.cfg.t, 2.0 - weights.cfg.t
        bracket = weights.q_om - om * mu * u
        if om < 0 and np.any(bracket <= 0):
            return None
        bracket = np.maximum(bracket, 0.0)
        w, w_pow = bracket ** (1.0 / om), bracket ** (co / om)
    total = w_pow.sum()
    if not 0.0 < total < math.inf:
        return None
    z = total ** (1.0 / co)
    return w / z, z


def solve_projection(weights: TemWeights, u):
    """Entropy projection of ``weights`` onto {q~ on co-simplex : q~.u = 0}.

    The projection has the form of ``clamped_update`` at the coefficient
    mu* minimizing the strictly convex normalizer Z_t(mu); since
    dZ_t/dmu = -Z_t^t (q~(mu).u), mu* is the root of the monotone
    constraint value G(mu) = q~(mu).u, found by sign bisection.  The
    starting bracket 1/(R |1-t|) + 1 (R the largest |u_i|/q_i^(1-t)) is
    doubled until G changes sign.  Returns (mu*, the projected weights as a
    plain array, which may hold zeros below t = 1).
    """
    cfg = weights.cfg
    t = cfg.t
    q = weights.q
    u = _margins(u, weights.m)
    if abs(t) < CLASSIC_TOLERANCE:
        # Strict convexity of Z_0 fails exactly when u is collinear with q.
        cos = abs(float(np.dot(u, q)))
        norms = float(np.linalg.norm(u) * np.linalg.norm(q))
        if norms > 0 and cos >= (1.0 - 1e-12) * norms:
            raise CollinearError("margins collinear with weights at t = 0")
    if not (np.any(u > 0) and np.any(u < 0)):
        raise NoMixedSignsError("margins need both signs; minimum is at infinity")

    def g(mu: float) -> float:
        """q~(mu) . u for the normalized update."""
        if cfg.is_classic():
            # the log-sum-exp shift keeps large |mu| from overflowing
            logs = np.log(q) - mu * u
            w = np.exp(logs - logs.max())
            return float(np.dot(w, u) / w.sum())
        update = clamped_update(weights, u, mu)
        if update is None:
            # Divergent branch (t > 1): mass concentrates on components
            # whose margin opposes mu, so the constraint takes mu's
            # opposite sign.
            return -math.copysign(1.0, mu)
        return float(np.dot(update[0], u))

    g0 = g(0.0)
    if abs(g0) <= _BISECT_TOL:
        return 0.0, clamped_update(weights, u, 0.0)[0]

    if cfg.is_classic():
        radius = 1.0
    else:
        r_max = float(np.max(np.abs(u) / weights.q_om))
        radius = 1.0 / (r_max * abs(1.0 - t)) + 1.0
    lo, hi = -radius, radius
    for _ in range(200):
        if g(lo) > 0:
            break
        lo *= 2.0
    else:
        raise NoMixedSignsError("failed to bracket the projection from below")
    for _ in range(200):
        if g(hi) < 0:
            break
        hi *= 2.0
    else:
        raise NoMixedSignsError("failed to bracket the projection from above")

    for _ in range(_BISECT_MAX_ITER):
        mu = 0.5 * (lo + hi)
        value = g(mu)
        if abs(value) <= _BISECT_TOL:
            break
        if value > 0:
            lo = mu
        else:
            hi = mu
    return mu, clamped_update(weights, u, mu)[0]


# ---------------------------------------------------------------------------
# partial losses of the tempered CPE family, properness and coverage

def _prepare_unit(z, name: str):
    flat, scalar, shape = _prepare(z)
    if flat.size and not (flat.min() >= 0 and flat.max() <= 1):  # a nan fails both
        raise ValueError(f"{name} must lie in [0, 1]")
    return flat, scalar, shape


def partial_loss_pos(u, cfg: CPETemperature):
    """Partial loss ((1 - u) / M_(1-t)(u, 1 - u))^(2-t) charged to the
    positive class at posterior guess u.

    The negative class is charged l_pos(1 - u).  Zero at u=1,
    nonincreasing on [0, 1]; diverges at u=0 for t >= 1.  At t=-inf it is
    exactly 2 * [u <= 1/2].
    """
    arr, scalar, shape = _prepare_unit(u, "posterior guess")
    t = cfg.t
    if t == -math.inf:
        out = 2.0 * (arr <= 0.5)
        return _finish(out, scalar, shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # u and 1 - u are never both 0, so the kernel's 0/0 cannot arise
        mean = _ordered_power_mean(np.minimum(arr, 1.0 - arr), np.maximum(arr, 1.0 - arr), 1.0 - t)
        out = ((1.0 - arr) / mean) ** (2.0 - t)
    out[arr == 1.0] = 0.0  # settles the 0/0 at the right endpoint for t >= 1
    return _finish(out, scalar, shape)


def _weighted(weight: np.ndarray, value: np.ndarray) -> np.ndarray:
    # No mass, no charge: the product is skipped where the weight is 0, so
    # 0 * inf at the endpoints is never evaluated.
    out = np.zeros(np.broadcast(weight, value).shape)
    return np.multiply(weight, value, out=out, where=weight != 0.0)


def pointwise_risk(u, v, cfg: CPETemperature):
    """Conditional risk v l_pos(u) + (1-v) l_pos(1-u) of guess u at truth v."""
    u_arr, u_scalar, u_shape = _prepare_unit(u, "posterior guess")
    v_arr, v_scalar, v_shape = _prepare_unit(v, "ground truth")
    u_arr, v_arr = np.broadcast_arrays(u_arr, v_arr)
    pos = np.atleast_1d(partial_loss_pos(u_arr, cfg))
    neg = np.atleast_1d(partial_loss_pos(1.0 - u_arr, cfg))
    out = _weighted(v_arr, pos) + _weighted(1.0 - v_arr, neg)
    scalar = u_scalar and v_scalar
    return _finish(out, scalar, u_shape if not u_scalar else v_shape)


@dataclass(frozen=True)
class PropernessReport:
    """Outcome of the grid properness check."""

    strict: bool
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def check_strict_properness(cfg: CPETemperature, v_grid=None) -> PropernessReport:
    """Verify on a grid of truths v that v minimizes the conditional risk.

    The guesses u are the grid of step 1e-4 inside (0, 1).  For finite t
    the minimizer must be unique: the set of grid points attaining the
    minimum must span at most 3 grid steps and sit within one step of v.
    At t = -inf only properness is required (v attains the minimum,
    uniqueness waived).  Returns the violations found.
    """
    u_grid = np.arange(1, 10_000) / 10_000
    if v_grid is None:
        v_grid = np.arange(1, 100) / 100.0
    else:
        v_grid = np.asarray(v_grid, dtype=float)
    if np.any(v_grid <= 0) or np.any(v_grid >= 1):
        raise ValueError("truths must lie strictly inside (0, 1)")

    step = float(np.max(np.diff(u_grid)))
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
    return PropernessReport(strict, tuple(violations))


def bayes_risk_coverage(u: float, z: float, tol: float = 1e-9) -> float:
    """Temperature t for which the Bayes risk at posterior u equals z.

    Well-defined for z in [2 min(u, 1-u), 1]; the endpoints map to -inf
    and 2.  Uses monotone bisection in t: for a fixed u the Bayes risk is
    nondecreasing in t.
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
    while scalar_bayes_risk(u, 1.0 - u, CPETemperature(lo)) > z:
        lo *= 2.0
        if lo < -1e18:
            return -math.inf
    hi = 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = scalar_bayes_risk(u, 1.0 - u, CPETemperature(mid))
        if abs(value - z) <= tol:
            return mid
        if value < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# trees


def leaves(tree) -> list:
    """The leaf ``Node``s of a DecisionTree, left to right."""
    found = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.predicate is None:
            found.append(node)
        else:
            stack.extend((node.right, node.left))
    return found
