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

from .errors import WeightOverflowError, WeightUnderflowError
from .talgebra import TemperConfig

COSIMPLEX_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TemWeights:
    """A weight vector on the co-simplex, every weight strictly positive.

    No weight reaches exp_t's clamp at 0 for t < 1: ``leveraging`` bounds
    the coefficient so that every update bracket stays positive.

    Computed once here, read-only, for the round's ``booster`` steps and the
    ``tempered_update`` that follows them: ``q_om`` is q^(1-t).
    """

    q: np.ndarray
    cfg: TemperConfig

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("weights must form a nonempty 1-d vector")
        if not (q.min() > 0 and q.max() < math.inf):  # a nan fails too
            raise ValueError("weights must be finite and positive")
        p = q ** (2.0 - self.cfg.t)
        residual = abs(np.sum(p) - 1.0)
        if residual > COSIMPLEX_TOLERANCE:
            raise ValueError(
                f"not on the co-simplex: |sum q^(2-t) - 1| = {residual:.3e}"
            )
        q_om = q ** (1.0 - self.cfg.t)
        for array in (q, p, q_om):
            array.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_co_density", p)
        object.__setattr__(self, "q_om", q_om)

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
    if not (u.min() > -math.inf and u.max() < math.inf):  # a nan fails too
        raise ValueError("margins must be finite")
    return u


def tempered_update(weights: TemWeights, u, mu: float):
    """Multiplicative update q'_i = exp_t(log_t q_i - mu u_i) / Z_t.

    Z_t is the (2-t)-norm of the unnormalized vector, which puts q' back on
    the co-simplex exactly.  Returns (new weights, Z_t).  Raises, naming the
    count, WeightOverflowError when a weight overflows or lands on the
    divergent branch of exp_t (t > 1), and WeightUnderflowError when one is
    not positive: clamped to 0 by exp_t (t < 1, a coefficient beyond
    ``leveraging``'s bound), or rounded to 0.
    """
    cfg = weights.cfg
    t = cfg.t
    u = _margins(u, weights.m)
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError("update coefficient must be finite")
    if cfg.is_classic():
        with np.errstate(over="ignore"):
            w = weights.q * np.exp(-mu * u)
        w_pow, co = w, 1.0
    else:
        om, co = 1.0 - t, 2.0 - t
        # exp_t(log_t q - mu u) fused: (q^(1-t) - (1-t) mu u)^(1/(1-t))
        bracket = weights.q_om - om * mu * u
        # exp_t diverges at a bracket <= 0 for t > 1, and clamps it to 0 for t < 1
        lowest = bracket.min()
        if t > 1 and lowest <= 0:
            raise WeightOverflowError(
                f"{np.count_nonzero(bracket <= 0)} weight(s) became infinite before normalization"
            )
        if lowest <= 0:
            raise WeightUnderflowError(
                f"{np.count_nonzero(bracket <= 0)} weight(s) became 0 before normalization"
            )
        with np.errstate(over="ignore"):
            w, w_pow = bracket ** (1.0 / om), bracket ** (co / om)
    if not (w.max() < math.inf and w_pow.max() < math.inf):  # a nan fails too
        raise WeightOverflowError(
            f"{np.count_nonzero(~(np.isfinite(w) & np.isfinite(w_pow)))} weight(s)"
            " became infinite before normalization"
        )
    z = w_pow.sum() ** (1.0 / co)
    q = w / z
    if q.min() == 0.0:  # q >= 0, and holds no nan beside a 0
        raise WeightUnderflowError(f"{np.count_nonzero(q == 0.0)} weight(s) underflowed to 0")
    return TemWeights(q, cfg), float(z)
