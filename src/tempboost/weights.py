"""Tempered exponential measures on the co-simplex.

Boosting weights live on the co-simplex {q >= 0 : sum_i q_i^(2-t) = 1}:
the (2-t)-th power of the measure is normalized, not the measure itself.
The ordinary probability vector p = q^(2-t) is called the co-density.
This module provides construction and the multiplicative weight update
with its exact normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroError, WeightOverflowError, ZeroWeightError
from .talgebra import TemperConfig

COSIMPLEX_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TemWeights:
    """A weight vector on the co-simplex.

    Weights can hit exact zero through the clamp in the deformed exponential
    when t < 1 (an example "too well classified" switches off) and may later
    revive.

    Computed once here, read-only, for the round's ``booster`` steps and the
    ``tempered_update`` that follows them: ``dagger`` lists the switched-off
    examples, and ``q_om`` is q^(1-t), where a zero weight gives +inf at
    t > 1.
    """

    q: np.ndarray
    cfg: TemperConfig

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("weights must form a nonempty 1-d vector")
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
        dagger = np.flatnonzero(q == 0.0)
        for array in (q, p, q_om, dagger):
            array.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_co_density", p)
        object.__setattr__(self, "q_om", q_om)
        object.__setattr__(self, "dagger", dagger)

    @property
    def m(self) -> int:
        return self.q.size


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
            raise WeightOverflowError(
                f"{infinite.sum()} weight(s) became infinite before normalization"
            )
        w_pow, co = w, 1.0
    else:
        om, co = 1.0 - t, 2.0 - t
        # exp_t(log_t q - mu u) fused: [q^(1-t) - (1-t) mu u]_+^(1/(1-t))
        bracket = weights.q_om - om * mu * u
        nonpositive = bracket <= 0  # clamped to 0 for t < 1, divergent for t > 1
        if t > 1 and np.any(nonpositive):
            raise WeightOverflowError(
                f"{nonpositive.sum()} weight(s) became infinite before normalization"
            )
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
    the divergent branch raises WeightOverflowError, which names the count.
    """
    cfg = weights.cfg
    u = _margins(u, weights.m)
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("update coefficient must be finite")
    if math.isinf(cfg.clamp_delta) and weights.dagger.size:
        raise ZeroWeightError("zero weights cannot revive for t >= 1")
    w, z = _unnormalized(weights, u, mu)
    return TemWeights(w / z, cfg), float(z)
