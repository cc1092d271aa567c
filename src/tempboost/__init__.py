"""Boosting with tempered exponential measures.

A numpy toolkit for boosting where the example weights live on the
co-simplex {q >= 0 : sum q^(2-t) = 1} instead of the probability simplex.
The temperature t in [0, 2) deforms every ingredient -- logarithm,
exponential, product, weight update, leveraging coefficients -- and t=1
recovers the classic AdaBoost exactly.  The same machinery yields a
strictly proper family of class-probability losses (Gini at t=0, Matusita
at t=1) used here to induce decision-tree weak learners, plus a
cross-validation harness over temperature grids.

Import the submodules directly, e.g. ``from tempboost.booster import boost``;
importing the package itself loads nothing else.
"""

__version__ = "0.1.0"
