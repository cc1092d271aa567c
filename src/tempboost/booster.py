"""Tempered boosting of real-valued weak hypotheses.

The loop generalizes AdaBoost by maintaining its example weights on the
co-simplex instead of the probability simplex.  Per round it computes a
normalized edge rho_j from the current weights, a closed-form weight-update
coefficient mu_j, a distinct leveraging coefficient alpha_j for the model
(they coincide only at t=1), applies the multiplicative weight update and
records the normalizer Z_tj.  The per-round factor

    K_t(z) = (1 - z^2) / M_(1-t)(1 - z, 1 + z)

drives the guarantee: the training 0/1 risk of both the plain and the
progressively clamped model is at most prod_j K_t(rho_j) for t in [0, 1].
The paper's bound has one more factor per round, for the weights that the
update switches off at 0; it is 1 here, because ``leveraging``'s bound on
mu keeps every weight positive.

Each round yields one ``IterationRecord``: the weak hypothesis, the edge
rho, the confidence bound R, mu, alpha, Z, the co-density range, and the
training 0/1 errors of the plain and the clamped model.  The records are
also the ensemble's members.  Those errors come from running training
scores built from the training predictions each round receives, and
``boost`` checks the guarantee against them at every round, from the running
product of the rounds' factors.

A weak hypothesis is any object with ``predict(data) -> ndarray`` over a
Dataset; a weak learner is a callable ``learner(weights, data) ->
(hypothesis, predictions)``, the predictions being the hypothesis's on
``data``, one per row.  ``boost`` uses them as given and never predicts
on the training rows itself: a tree learner has them from growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import BoundViolatedError, DegenerateHypothesisError, EdgeSaturatedError
from .errors import SingleClassError
from .talgebra import TemperConfig, log_t, power_mean
from .weights import TemWeights, co_density, tempered_update, uniform_init

RHO_CAP = 1e-12


@dataclass(frozen=True)
class IterationRecord:
    """One boosting round: its hypothesis, which makes the record an
    ``Ensemble`` member, and the figures for traces and the bound.

    ``alpha`` is the member's leveraging coefficient, under which the
    weights unravel into a clamped sum of margins, m^(1-t*) (prod Z)^(1-t)
    mu.  ``train_err`` and ``train_err_clamped`` are the training 0/1
    errors of the plain and the clamped model after this round (the latter
    nan unless t < 1).
    """

    hypothesis: object
    rho: float
    r_max: float
    mu: float
    alpha: float
    z: float
    min_codensity: float
    max_codensity: float
    train_err: float
    train_err_clamped: float


@dataclass(frozen=True)
class Ensemble:
    """Ordered weak hypotheses with leveraging coefficients.

    A member is any object with ``hypothesis`` and ``alpha``, such as
    ``boost``'s round records.  Member order is part of the contract: the
    clamped score folds the members in training order through a doubly
    clamped running sum at delta = 1/(1-t), so permuting them changes
    clamped predictions.
    """

    members: tuple
    cfg: TemperConfig

    def decision_scores(self, data: Dataset, clamped: bool = False) -> np.ndarray:
        """Scores of every row of ``data``; clamped uses the running fold."""
        if not self.members:
            raise ValueError("empty ensemble")
        if clamped and math.isinf(self.cfg.clamp_delta):
            raise ValueError("clamped prediction requires t < 1")
        fold = ScoreFold(data.m, self.cfg)
        for member in self.members:
            fold.add(member.alpha * member.hypothesis.predict(data))
        return fold.clamped if clamped else fold.scores


class ScoreFold:
    """Running scores of an ensemble's members, folded in training order.

    ``scores`` is the plain sum of the contributions alpha_j h_j.  For
    t < 1, ``clamped`` is the progressively clamped model: its running sum
    is clipped to [-delta, delta], delta = 1/(1-t), after every addition,
    so member order matters.  For t >= 1 there is no clamped model and
    ``clamped`` is None.
    """

    def __init__(self, m: int, cfg: TemperConfig):
        self.delta = cfg.clamp_delta
        self.scores = np.zeros(m)
        self.clamped = np.zeros(m) if self.delta < math.inf else None

    def add(self, contribution: np.ndarray) -> None:
        self.scores += contribution
        if self.clamped is not None:
            self.clamped += contribution
            np.clip(self.clamped, -self.delta, self.delta, out=self.clamped)

    def errors(self, labels: np.ndarray):
        """0/1 errors of the plain and the clamped model; the latter nan for t >= 1."""
        plain = zero_one_error(self.scores, labels)
        if self.clamped is None:
            return plain, math.nan
        return plain, zero_one_error(self.clamped, labels)


def zero_one_error(scores: np.ndarray, labels: np.ndarray) -> float:
    """Empirical 0/1 risk of sign(scores) against +/-1 labels, sign(0)=+1."""
    wrong = (np.asarray(scores) >= 0) != (np.asarray(labels) > 0)
    return float(np.count_nonzero(wrong) / wrong.size)


def confidence_bounds(weights: TemWeights, u) -> float:
    """Largest weight-normalized confidence R = max_i |u_i| / q_i^(1-t)."""
    magnitude = np.abs(u)
    if not np.any(magnitude > 0):
        raise DegenerateHypothesisError("all margins are zero")
    return float(np.max(magnitude / weights.q_om))


def edge(weights: TemWeights, u, r_max: float) -> float:
    """Normalized correlation sum_i q_i u_i / R of margins and weights, in [-1, 1]."""
    if r_max <= 0:
        raise DegenerateHypothesisError("degenerate hypothesis: R = 0")
    # a numpy reduction, not BLAS np.dot, whose bits depend on its thread count
    return float(np.clip(np.add.reduce(weights.q * u) / r_max, -1.0, 1.0))


def leveraging(rho: float, r_max: float, cfg: TemperConfig, z_product: float, m: int):
    """Closed-form update coefficient mu and model coefficient alpha.

    mu = -(1/R) log_t((1 - rho) / M_(1-t)(1 - rho, 1 + rho)), which is the
    AdaBoost coefficient (1/2R) ln((1+rho)/(1-rho)) at t=1.  The model
    coefficient rescales it by m^(1-t*) (prod of past Z)^(1-t): past
    normalizers progressively dampen the leverage of later hypotheses.
    For t in [0, 1) this gives |mu| < 1/(R (1-t)) strictly, which keeps
    every bracket q_i^(1-t) - (1-t) mu u_i of the weight update positive.
    """
    if abs(rho) > 1.0 - RHO_CAP:
        raise EdgeSaturatedError(f"|edge| = {abs(rho)} is saturated")
    if cfg.is_classic():
        mu = math.log((1.0 + rho) / (1.0 - rho)) / (2.0 * r_max)
        return mu, mu
    t = cfg.t
    mean = power_mean(1.0 - rho, 1.0 + rho, 1.0 - t)
    mu = -log_t((1.0 - rho) / mean, cfg) / r_max
    if t < 1.0 and not abs(mu) < 1.0 / (r_max * (1.0 - t)):
        raise BoundViolatedError("leveraging bound violated; numerical failure")
    alpha = m ** (1.0 - cfg.t_star) * z_product ** (1.0 - t) * mu
    return mu, alpha


def kt_bound(rho: float, cfg: TemperConfig) -> float:
    """Per-round guarantee factor (1 - z^2) / M_(1-t)(1-z, 1+z).

    Equals sqrt(1 - z^2) at t=1 and 1 - z^2 at t=0, and is dominated by
    exp(-z^2 (2-t) / 2) on t in [0, 1].
    """
    if not abs(rho) < 1.0:  # a nan fails too
        raise ValueError(f"edge must lie in (-1, 1), got {rho}")
    return (1.0 - rho * rho) / power_mean(1.0 - rho, 1.0 + rho, 1.0 - cfg.t)


def boost(data: Dataset, weak_learner, rounds: int, cfg: TemperConfig, on_round=None):
    """Run the tempered boosting loop for ``rounds`` iterations.

    Starts from uniform co-simplex weights; per round requests a weak
    hypothesis with its predictions h(x_i) on ``data``, computes margins
    u_i = y_i h(x_i), the confidence bound, the edge, the closed-form
    coefficients, and the weight update.  Returns (ensemble, trace): the
    trace lists the rounds' records, and the ensemble's members are those
    same records.  A saturated edge (a perfect hypothesis) stops the
    loop and returns the partial ensemble; weak-learner failures propagate.

    ``on_round(record, weights)``, when given, runs after every round with
    its record and the freshly updated weights.
    For t <= 1 every round's training errors (plain, clamped) are checked
    against the guarantee prod_j K_t(rho_j) over the rounds so far; the
    first round above it raises ``BoundViolatedError``.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    labels = data.labels.astype(float)
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise SingleClassError("training data must contain both classes")

    weights = uniform_init(data.m, cfg)
    z_product = bound = 1.0
    trace = []
    fold = ScoreFold(data.m, cfg)
    for j in range(1, rounds + 1):
        hypothesis, h = weak_learner(weights, data)
        h = np.asarray(h, dtype=float)
        if h.shape != labels.shape or not np.isfinite(h).all():
            raise ValueError(f"a weak learner must predict {data.m} finite values, got {h.shape}")
        u = labels * h
        r_max = confidence_bounds(weights, u)
        rho = edge(weights, u, r_max)
        try:
            mu, alpha = leveraging(rho, r_max, cfg, z_product, data.m)
        except EdgeSaturatedError:
            break
        weights, z = tempered_update(weights, u, mu)
        z_product *= z
        p = co_density(weights)
        fold.add(alpha * h)
        train_err, train_err_clamped = errs = fold.errors(labels)
        if cfg.t <= 1.0:
            bound *= kt_bound(rho, cfg)
            if max(errs) > bound + 1e-9:  # max(x, nan) is x: a nan clamped error passes
                raise BoundViolatedError(f"risk guarantee violated at round {j}: {errs} > {bound}")
        record = IterationRecord(
            hypothesis=hypothesis,
            rho=rho,
            r_max=r_max,
            mu=mu,
            alpha=alpha,
            z=z,
            min_codensity=float(p.min()),
            max_codensity=float(p.max()),
            train_err=train_err,
            train_err_clamped=train_err_clamped,
        )
        trace.append(record)
        if on_round is not None:
            on_round(record, weights)

    return Ensemble(tuple(trace), cfg), trace

