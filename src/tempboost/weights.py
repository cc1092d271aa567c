"""Tempered exponential measures on the co-simplex.

Boosting weights live on the co-simplex {q >= 0 : sum_i q_i^(2-t) = 1}:
the (2-t)-th power of the measure is normalized, not the measure itself.
The ordinary probability vector p = q^(2-t) is called the co-density.
This module provides construction, the tempered relative entropy, the
multiplicative weight update with its exact normalizer, and the solver for
the entropy projection onto a single linear constraint q'u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroError,
    CollinearError,
    NoMixedSignsError,
    WeightOverflowError,
    ZeroWeightError,
)
from .talgebra import CLASSIC_TOLERANCE, TemperConfig

COSIMPLEX_TOLERANCE = 1e-9

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 80


@dataclass(frozen=True)
class TemWeights:
    """A weight vector on the co-simplex.

    Weights can hit exact zero through the clamp in the deformed exponential
    when t < 1 (an example "too well classified" switches off) and may later
    revive; ``dagger_indices`` lists the switched-off examples.

    ``q_om`` is q^(1-t), read-only, computed once here for the round's
    ``booster.confidence_bounds`` and the ``tempered_update`` that follows
    it; a zero weight gives +inf at t > 1.
    """

    q: np.ndarray
    cfg: TemperConfig

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("weights must form a nonempty 1-d vector")
        if not math.isfinite(self.cfg.t):
            raise ValueError("co-simplex weights require a finite temperature")
        if not np.all(np.isfinite(q)) or np.any(q < 0):
            raise ValueError("weights must be finite and nonnegative")
        p = q ** (2.0 - self.cfg.t)
        residual = abs(np.sum(p) - 1.0)
        if residual > COSIMPLEX_TOLERANCE:
            raise ValueError(
                f"not on the co-simplex: |sum q^(2-t) - 1| = {residual:.3e}"
            )
        with np.errstate(divide="ignore"):  # 0^(1-t) = inf for t > 1
            q_om = q ** (1.0 - self.cfg.t)
        for array in (q, p, q_om):
            array.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_co_density", p)
        object.__setattr__(self, "q_om", q_om)

    @property
    def m(self) -> int:
        return self.q.size

    def dagger_indices(self) -> np.ndarray:
        return np.flatnonzero(self.q == 0.0)


def uniform_init(m: int, cfg: TemperConfig) -> TemWeights:
    """Uniform co-simplex weights q_i = 1/m^(1/(2-t))."""
    if m < 1:
        raise ValueError("need at least one example")
    q = np.full(m, m ** (-cfg.t_star))
    return TemWeights(q, cfg)


def co_density(weights: TemWeights) -> np.ndarray:
    """Map co-simplex weights to their probability vector p = q^(2-t).

    ``TemWeights`` computed p, read-only, when it checked that p sums to 1.
    """
    return weights._co_density


def _check_pair(q_new: TemWeights, q_old: TemWeights):
    if q_new.m != q_old.m:
        raise ValueError("weight vectors differ in length")
    if q_new.cfg != q_old.cfg:
        raise ValueError("weight vectors carry different temperatures")


def tempered_relative_entropy(q_new: TemWeights, q_old: TemWeights) -> float:
    """Bregman divergence generated by z log_t z - log_(t-1) z.

    sum_i q'_i (log_t q'_i - log_t q_i) - log_(t-1) q'_i + log_(t-1) q_i,
    which becomes the classical relative entropy at t=1.  Zero entries in
    q_new are fine (z log_t z -> 0); zero entries in q_old are not.
    """
    _check_pair(q_new, q_old)
    if q_old.dagger_indices().size:
        raise ValueError("reference weights must be strictly positive")
    qn, qo = q_new.q, q_old.q
    t = q_new.cfg.t
    if q_new.cfg.is_classic():
        ratio_term = np.zeros_like(qn)
        pos = qn > 0
        ratio_term[pos] = qn[pos] * np.log(qn[pos] / qo[pos])
        return float(np.sum(ratio_term - qn + qo))
    om = 1.0 - t
    co = 2.0 - t
    # q' log_t q' evaluated as (q'^(2-t) - q')/(1-t): finite at q' = 0.
    entropy_term = (qn**co - qn) / om
    cross_term = qn * (qo**om - 1.0) / om
    tail = (qo**co - qn**co) / co
    return float(np.sum(entropy_term - cross_term + tail))


def _margins(u, m: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (m,):
        raise ValueError("margin vector length must match the weights")
    if not np.all(np.isfinite(u)):
        raise ValueError("margins must be finite")
    return u


def _unnormalized(weights: TemWeights, u: np.ndarray, mu: float):
    """The update w = exp_t(log_t q - mu u) before normalization, and Z_t.

    Z_t is the (2-t)-norm of w.  Raises WeightOverflowError when a weight
    overflows (t = 1) or lands on the divergent branch of exp_t (t > 1),
    and AllZeroError when every weight is clamped to zero (t < 1).
    """
    cfg = weights.cfg
    t = cfg.t
    if cfg.is_classic():
        with np.errstate(over="ignore"):
            w = weights.q * np.exp(-mu * u)
        infinite = ~np.isfinite(w)
        if np.any(infinite):
            raise WeightOverflowError(int(infinite.sum()))
        w_pow, co = w, 1.0
    else:
        om, co = 1.0 - t, 2.0 - t
        # exp_t(log_t q - mu u) fused: [q^(1-t) - (1-t) mu u]_+^(1/(1-t))
        bracket = weights.q_om - om * mu * u
        nonpositive = bracket <= 0  # clamped to 0 for t < 1, divergent for t > 1
        if t > 1 and np.any(nonpositive):
            raise WeightOverflowError(int(nonpositive.sum()))
        np.copyto(bracket, 0.0, where=nonpositive)
        w, w_pow = bracket ** (1.0 / om), bracket ** (co / om)
    total = w_pow.sum()
    if total == 0.0:
        raise AllZeroError("all weights vanished before normalization")
    return w, total ** (1.0 / co)


def tempered_update(weights: TemWeights, u, mu: float):
    """Multiplicative update q'_i = exp_t(log_t q_i - mu u_i) / Z_t.

    Z_t is the (2-t)-norm of the unnormalized vector, which puts q' back on
    the co-simplex exactly.  Returns (new weights, Z_t).  For t >= 1 a zero
    input weight is an error (it cannot revive); for t > 1 any component on
    the divergent branch raises WeightOverflowError with the count.
    """
    cfg = weights.cfg
    u = _margins(u, weights.m)
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("update coefficient must be finite")
    if cfg.t >= 1.0 - CLASSIC_TOLERANCE and weights.dagger_indices().size:
        raise ZeroWeightError("zero weights cannot revive for t >= 1")
    w, z = _unnormalized(weights, u, mu)
    return TemWeights(w / z, cfg), float(z)


def _constraint_value(weights: TemWeights, u: np.ndarray, mu: float):
    """q~(mu) . u for the normalized update; None when a weight diverges
    (t > 1) or every weight is clamped to zero (t < 1)."""
    if weights.cfg.is_classic():
        # the log-sum-exp shift keeps large |mu| from overflowing
        q = weights.q
        support = q > 0
        logs = np.log(q[support]) - mu * u[support]
        logs -= logs.max()
        w = np.exp(logs)
        return float(np.dot(w, u[support]) / w.sum())
    try:
        w, z = _unnormalized(weights, u, mu)
    except (AllZeroError, WeightOverflowError):
        return None
    return float(np.dot(w, u) / z)


def solve_projection(weights: TemWeights, u):
    """Entropy projection of ``weights`` onto {q~ on co-simplex : q~.u = 0}.

    The projection has the form of tempered_update at the coefficient mu*
    minimizing the strictly convex normalizer Z_t(mu); since
    dZ_t/dmu = -Z_t^t (q~(mu).u), mu* is the root of the monotone
    constraint value G(mu) = q~(mu).u, found by sign bisection.  The
    starting bracket 1/(R |1-t|) + 1 (R the largest |u_i|/q_i^(1-t) on the
    support) is doubled until G changes sign.  Returns (mu*, projected
    weights).
    """
    cfg = weights.cfg
    t = cfg.t
    q = weights.q
    u = _margins(u, weights.m)
    if t >= 1.0 - CLASSIC_TOLERANCE and weights.dagger_indices().size:
        raise ZeroWeightError("zero weights cannot revive for t >= 1")

    support = q > 0
    us = u[support]
    qs = q[support]
    if abs(t) < CLASSIC_TOLERANCE:
        # Strict convexity of Z_0 fails exactly when u is collinear with q.
        cos = abs(float(np.dot(u, q)))
        norms = float(np.linalg.norm(u) * np.linalg.norm(q))
        if norms > 0 and cos >= (1.0 - 1e-12) * norms:
            raise CollinearError("margins collinear with weights at t = 0")
    if not (np.any(us > 0) and np.any(us < 0)):
        raise NoMixedSignsError(
            "margins need both signs on the support; minimum is at infinity"
        )

    def g(mu: float) -> float:
        value = _constraint_value(weights, u, mu)
        if value is None:
            # Divergent branch (t > 1): mass concentrates on components
            # whose margin opposes mu, so the constraint takes mu's
            # opposite sign.
            return -math.copysign(1.0, mu)
        return value

    g0 = g(0.0)
    if abs(g0) <= _BISECT_TOL:
        projected, _ = tempered_update(weights, u, 0.0)
        return 0.0, projected

    if cfg.is_classic():
        radius = 1.0
    else:
        r_max = float(np.max(np.abs(us) / qs ** (1.0 - t)))
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

    mu = 0.5 * (lo + hi)
    for _ in range(_BISECT_MAX_ITER):
        mu = 0.5 * (lo + hi)
        value = g(mu)
        if abs(value) <= _BISECT_TOL:
            break
        if value > 0:
            lo = mu
        else:
            hi = mu
    projected, _ = tempered_update(weights, u, mu)
    return mu, projected
