"""Tempered boosting of real-valued weak hypotheses.

The loop generalizes AdaBoost by maintaining its example weights on the
co-simplex instead of the probability simplex.  Per round it computes a
normalized edge rho_j from the current weights, a closed-form weight-update
coefficient mu_j, a distinct leveraging coefficient alpha_j for the model
(they coincide only at t=1), applies the multiplicative weight update and
records the normalizer Z_tj.  The per-round factor

    K_t(z) = (1 - z^2) / M_(1-t)(1 - z, 1 + z)

drives the guarantee: the training 0/1 risk of both the plain and the
progressively clamped model is at most
prod_j (1 + m_dagger_j q_dagger_j^(2-t)) K_t(rho_j) for t in [0, 1].

Each round yields an ``IterationRecord``: the edge rho, the confidence
bound R, the switched-off count m_dagger and surrogate weight q_dagger,
mu, alpha, Z, the co-density range, and the training 0/1 errors of the
plain and the clamped model.  Those errors come from running training
scores built from the one prediction per tree the round makes anyway, and
``boost`` checks the guarantee on exit from the last of them.

A weak hypothesis is any object with ``predict(data) -> ndarray`` over a
Dataset; a weak learner is a callable ``learner(weights, data) ->
hypothesis``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import BoundViolatedError, DegenerateHypothesisError, EdgeSaturatedError
from .errors import SingleClassError, ZeroWeightError
from .talgebra import TemperConfig, log_t, power_mean
from .weights import TemWeights, co_density, tempered_update, uniform_init

RHO_CAP = 1e-12


@dataclass(frozen=True)
class IterationRecord:
    """Everything one boosting round produces, for traces and bounds.

    ``alpha`` is also the coefficient under which the weights unravel into
    a clamped sum of margins, m^(1-t*) (prod Z)^(1-t) mu.  ``train_err`` and
    ``train_err_clamped`` are the training 0/1 errors of the plain and the
    clamped model after this round (the latter nan unless t < 1).
    """

    rho: float
    r_max: float
    q_dagger: float
    m_dagger: int
    mu: float
    alpha: float
    z: float
    min_codensity: float
    max_codensity: float
    train_err: float
    train_err_clamped: float


@dataclass(frozen=True)
class EnsembleMember:
    hypothesis: object
    alpha: float


@dataclass(frozen=True)
class Ensemble:
    """Ordered weak hypotheses with leveraging coefficients.

    Member order is part of the contract: the clamped score folds the
    members in training order through a doubly clamped running sum at
    delta = 1/(1-t), so permuting members changes clamped predictions.
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
    return float(np.mean((np.asarray(scores) >= 0) != (np.asarray(labels) > 0)))


def confidence_bounds(weights: TemWeights, u):
    """Largest weight-normalized confidence R and the surrogate weight.

    R = max over supported i of |u_i| / q_i^(1-t).  Switched-off examples
    get the surrogate (max_dagger |u_i| / R)^(1/(1-t)), which is
    homogeneous to a weight; it is 0 when no weight is switched off.
    """
    t = weights.cfg.t
    u = np.asarray(u, dtype=float)
    support = weights.q > 0
    magnitude = np.abs(u[support])
    if not np.any(magnitude > 0):
        raise DegenerateHypothesisError("all supported margins are zero")
    r_max = float(np.max(magnitude / weights.q_om[support]))
    dagger = weights.dagger
    if dagger.size == 0:
        return r_max, 0.0
    if math.isinf(weights.cfg.clamp_delta):
        raise ZeroWeightError("switched-off weights are undefined for t >= 1")
    top = float(np.max(np.abs(u[dagger])))
    return r_max, (top / r_max) ** (1.0 / (1.0 - t))


def edge(weights: TemWeights, u, r_max: float, q_dagger: float) -> float:
    """Normalized correlation between margins and weights, in [-1, 1].

    Switched-off entries enter through the surrogate weight, and the
    normalizer (1 + m_dagger q_dagger^(2-t)) R keeps the value in [-1, 1].
    """
    if r_max <= 0:
        raise DegenerateHypothesisError("degenerate hypothesis: R = 0")
    t = weights.cfg.t
    u = np.asarray(u, dtype=float)
    q_eff = np.array(weights.q)
    dagger = weights.dagger
    q_eff[dagger] = q_dagger
    scale = (1.0 + dagger.size * q_dagger ** (2.0 - t)) * r_max
    # a numpy reduction, not BLAS np.dot, whose bits depend on its thread count
    return float(np.clip(np.add.reduce(q_eff * u) / scale, -1.0, 1.0))


def leveraging(rho: float, r_max: float, cfg: TemperConfig, z_product: float, m: int):
    """Closed-form update coefficient mu and model coefficient alpha.

    mu = -(1/R) log_t((1 - rho) / M_(1-t)(1 - rho, 1 + rho)), which is the
    AdaBoost coefficient (1/2R) ln((1+rho)/(1-rho)) at t=1.  The model
    coefficient rescales it by m^(1-t*) (prod of past Z)^(1-t): past
    normalizers progressively dampen the leverage of later hypotheses.
    For t in [0, 1) this gives |mu| < 1/(R (1-t)) strictly.
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
    if cfg.is_classic():
        return math.sqrt(1.0 - rho * rho)
    return (1.0 - rho * rho) / power_mean(1.0 - rho, 1.0 + rho, 1.0 - cfg.t)


def risk_bound(trace, cfg: TemperConfig) -> float:
    """Guaranteed training-risk bound prod_j (1 + m+ q+^(2-t)) K_t(rho_j)."""
    bound = 1.0
    for record in trace:
        factor = 1.0 + record.m_dagger * record.q_dagger ** (2.0 - cfg.t)
        bound *= factor * kt_bound(record.rho, cfg)
    return bound


def boost(data: Dataset, weak_learner, rounds: int, cfg: TemperConfig, on_round=None):
    """Run the tempered boosting loop for ``rounds`` iterations.

    Starts from uniform co-simplex weights; per round requests a weak
    hypothesis, computes margins u_i = y_i h(x_i), the confidence bound,
    the edge, the closed-form coefficients, and the weight update.  Returns
    (ensemble, trace).  A saturated edge (a perfect hypothesis) stops the
    loop and returns the partial ensemble; weak-learner failures propagate.

    ``on_round(member, record, weights)``, when given, runs after every
    round with the freshly updated weights; a truthy return stops early.
    For t <= 1 the training-risk guarantee is checked on exit against
    the last round's training errors.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    labels = data.labels.astype(float)
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise SingleClassError("training data must contain both classes")

    weights = uniform_init(data.m, cfg)
    z_product = 1.0
    members = []
    trace = []
    fold = ScoreFold(data.m, cfg)
    for _ in range(rounds):
        hypothesis = weak_learner(weights, data)
        h = np.asarray(hypothesis.predict(data), dtype=float)
        u = labels * h
        m_dagger = weights.dagger.size
        r_max, q_dagger = confidence_bounds(weights, u)
        rho = edge(weights, u, r_max, q_dagger)
        try:
            mu, alpha = leveraging(rho, r_max, cfg, z_product, data.m)
        except EdgeSaturatedError:
            break
        weights, z = tempered_update(weights, u, mu)
        z_product *= z
        p = co_density(weights)
        fold.add(alpha * h)
        train_err, train_err_clamped = fold.errors(labels)
        member = EnsembleMember(hypothesis, alpha)
        record = IterationRecord(
            rho=rho,
            r_max=r_max,
            q_dagger=q_dagger,
            m_dagger=m_dagger,
            mu=mu,
            alpha=alpha,
            z=z,
            min_codensity=float(p.min()),
            max_codensity=float(p.max()),
            train_err=train_err,
            train_err_clamped=train_err_clamped,
        )
        members.append(member)
        trace.append(record)
        if on_round is not None and on_round(member, record, weights):
            break

    if trace and cfg.t <= 1.0:
        _check_guarantee(trace, cfg)
    return Ensemble(tuple(members), cfg), trace


def _check_guarantee(trace, cfg: TemperConfig):
    """Training-risk bound of the last round, for the plain and the clamped
    model; a nan error (no clamped model) never exceeds the bound."""
    bound = risk_bound(trace, cfg) + 1e-9
    for model, err in (("", trace[-1].train_err), ("clamped ", trace[-1].train_err_clamped)):
        if err > bound:
            raise BoundViolatedError(f"{model}risk guarantee violated: {err} > {bound}")
