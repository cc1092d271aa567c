"""Boosting with tempered exponential measures.

A numpy toolkit for boosting where the example weights live on the
co-simplex {q >= 0 : sum q^(2-t) = 1} instead of the probability simplex.
The temperature t in [0, 2) deforms the weight update and the leveraging
coefficients through the deformed logarithm and exponential, and t=1
recovers the classic AdaBoost exactly.  The same temperature sets the
Bayes risk of a strictly proper family of class-probability losses (Gini
at t=0, Matusita at t=1), which induces the decision-tree weak learners,
and a cross-validation harness runs the whole over temperature grids.

Import the submodules directly, e.g. ``from tempboost.booster import boost``;
importing the package itself loads nothing else.
"""

__version__ = "0.1.0"
