"""The Bayes risk of the tempered class-probability-estimation losses.

The tempered CPE loss charges ((1 - u) / M_(1-t)(u, 1 - u))^(2-t) to the
positive class at posterior guess u, with M_q the two-point power mean,
and mirrors it for the negative class; it is strictly proper for every t
in (-inf, 2).  Its pointwise Bayes risk

    L_t(v) = 2 v (1 - v) / M_(1-t)(v, 1 - v)

interpolates the classical tree-splitting criteria: Gini impurity
4v(1-v) at t=0, Matusita 2 sqrt(v(1-v)) at t=1, and the empirical risk
2 min(v, 1-v) at t=-inf; as t -> 2 it flattens to the constant 1.

M_q is 1-homogeneous, so a mass r = P + N at posterior P / r risks
r L_t(P / r) = 2PN / M_(1-t)(P, N).  ``bayes_risk`` computes that from
the class masses P and N; L_t(v) is the case P = v, N = 1 - v.

Trees score splits only at boosting temperatures, t in [0, 2).  The
family's t < 0 and t = -inf live in ``tests/paper_math.py``, which hands
``bayes_risk`` such a t as a ``CPETemperature``.
"""

from __future__ import annotations

import numpy as np

from .talgebra import TemperConfig, _ordered_power_mean


def bayes_risk(pos, neg, cfg: TemperConfig):
    """Bayes risk 2 pos neg / M_(1-t)(pos, neg) of the class masses pos and neg.

    r L_t(pos / r) for r = pos + neg (see the module notes): 4 pos neg / r
    at t=0, 2 sqrt(pos neg) at t=1, and zero whenever either mass is zero.
    Concave, which makes tree-splitting gains nonnegative.  Accurate while
    2 pos neg is a normal double.  Reads only ``cfg.t``.  Floats or arrays,
    broadcast together; a float is scored with the array arithmetic.
    Neither input is written to.  A negative or nan mass raises
    ``ValueError``: the one check that the unchecked power-mean kernel
    ``talgebra._ordered_power_mean`` relies on.
    """
    pos, neg = np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)
    if pos.shape != neg.shape:
        pos, neg = np.broadcast_arrays(pos, neg)
    scalar = pos.ndim == 0
    if scalar:
        pos, neg = pos.reshape(1), neg.reshape(1)
    lo = np.minimum(pos, neg)
    if lo.size and not lo.min() >= 0:  # a nan fails too
        raise ValueError("class masses must be nonnegative")
    numerator = np.multiply(2.0, pos)
    numerator *= neg
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = _ordered_power_mean(lo, np.maximum(pos, neg), 1.0 - cfg.t)
        out = np.divide(numerator, mean, out=mean)
    # a zero numerator gives 0 over a positive mean and nan over a zero one
    np.fmax(out, 0.0, out=out)
    return float(out[0]) if scalar else out
