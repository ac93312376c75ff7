"""Ordinary least squares with the paper's goodness-of-fit statistics.

Thin, dependency-light linear algebra: the model matrix is small (at most
a few hundred observations by tens of features), so one
``numpy.linalg.lstsq`` call fits a model exactly.  :func:`fit_ols` is the
only least-squares solver: the variable searches
(:mod:`repro.core.selection`, :mod:`repro.core.ridge`) screen their
candidates with an orthogonalized score and take every winner, score and
final model from a :func:`fit_ols` refit.  The adjusted coefficient of
determination (R-bar-squared) is the paper's model-selection criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegressionResult:
    """A fitted multiple-linear-regression model ``y ~ X @ coef + z``."""

    #: Per-feature coefficients (the paper's x_i / y_j).
    coefficients: np.ndarray
    #: Intercept (the paper's z).
    intercept: float
    #: Coefficient of determination on the training set.
    r2: float
    #: Adjusted coefficient of determination (R-bar-squared).
    adjusted_r2: float
    #: Number of training observations.
    n_observations: int

    @property
    def n_features(self) -> int:
        """Number of explanatory variables in the model."""
        return int(self.coefficients.size)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for a feature matrix (n_obs, n_features)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"feature matrix must be (n, {self.n_features}), got {X.shape}"
            )
        return X @ self.coefficients + self.intercept


def r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    """Plain coefficient of determination."""
    y = np.asarray(y, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def adjusted_r_squared(r2: float, n_observations: int, n_features: int) -> float:
    """R-bar-squared: penalizes adding explanatory variables.

    Follows the standard definition the paper uses for model selection;
    undefined (returns ``-inf``) when there are no residual degrees of
    freedom.
    """
    dof = n_observations - n_features - 1
    if dof <= 0:
        return float("-inf")
    return 1.0 - (1.0 - r2) * (n_observations - 1) / dof


def fit_ols(X: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Fit ``y = X @ coef + z`` by least squares.

    Columns are equilibrated to unit norm before solving — counter-based
    features span many orders of magnitude (an instruction count vs. a
    ratio counter), which would otherwise destroy the conditioning of
    the normal equations.  Degenerate (constant or collinear) columns
    are handled by the minimum-norm solution of
    :func:`numpy.linalg.lstsq`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1 or y.size != X.shape[0]:
        raise ValueError(
            f"y must be 1-D with {X.shape[0]} entries, got shape {y.shape}"
        )
    if X.shape[0] < 2:
        raise ValueError("need at least two observations")
    norms = np.linalg.norm(X, axis=0)
    norms = np.where(norms == 0.0, 1.0, norms)
    design = np.column_stack([X / norms, np.ones(X.shape[0])])
    solution, *_ = np.linalg.lstsq(design, y, rcond=None)
    coefficients, intercept = solution[:-1] / norms, float(solution[-1])
    predicted = design @ solution
    r2 = r_squared(y, predicted)
    return RegressionResult(
        coefficients=coefficients,
        intercept=intercept,
        r2=r2,
        adjusted_r2=adjusted_r_squared(r2, X.shape[0], X.shape[1]),
        n_observations=X.shape[0],
    )
