"""Ridge regression and backward elimination — modeling alternatives.

The paper leaves "building a more sophisticated model" to future work and
justifies forward selection only by its R-bar-squared saturation.  These
two alternatives bound the design space from both sides:

* **Ridge** keeps *all* counters but shrinks coefficients (L2), trading
  the interpretability of a 10-variable model for robustness to the
  collinear counter sets (sub-partition counters are near-duplicates);
  the penalty is chosen by generalized cross-validation (GCV).
* **Backward elimination** starts from everything and drops the least
  useful variable while adjusted R² improves — the classical alternative
  to the paper's forward method, and a check that the greedy direction
  does not matter much here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.regression import (
    RegressionResult,
    fit_ols,
    r_squared,
)
from repro.core.selection import (
    COLLAPSE_RTOL,
    centered_design,
    deflate,
    refit_best,
    screened_scores,
)


@dataclass(frozen=True)
class RidgeResult:
    """A fitted ridge model on standardized features."""

    coefficients: np.ndarray
    intercept: float
    #: Chosen L2 penalty.
    alpha: float
    #: Per-feature standardization parameters.
    means: np.ndarray
    scales: np.ndarray
    #: Training fit quality.
    r2: float
    #: GCV score of the chosen alpha.
    gcv: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for a raw (unstandardized) feature matrix."""
        X = np.asarray(X, dtype=float)
        Z = (X - self.means) / self.scales
        return Z @ self.coefficients + self.intercept


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales = np.where(scales == 0.0, 1.0, scales)
    return (X - means) / scales, means, scales


def fit_ridge(
    X: np.ndarray,
    y: np.ndarray,
    alphas: Sequence[float] | None = None,
) -> RidgeResult:
    """Ridge regression with the penalty chosen by GCV.

    The intercept is unpenalized (features are centred); the GCV score
    is ``n * RSS / (n - tr(H))**2`` with H the ridge hat matrix.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or y.size != X.shape[0]:
        raise ValueError("X must be (n, p) and y (n,)")
    if alphas is None:
        alphas = np.logspace(-4, 4, 17)
    Z, means, scales = _standardize(X)
    y_mean = float(np.mean(y))
    yc = y - y_mean
    n, p = Z.shape
    # Economy SVD makes the alpha sweep O(np^2 + sweep * p).
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    Uty = U.T @ yc

    best: tuple[float, float, np.ndarray] | None = None
    for alpha in alphas:
        shrink = s / (s**2 + alpha)
        coef = Vt.T @ (shrink * Uty)
        fitted = Z @ coef
        rss = float(np.sum((yc - fitted) ** 2))
        eff_dof = float(np.sum(s**2 / (s**2 + alpha)))
        denom = max(n - eff_dof, 1e-9)
        gcv = n * rss / denom**2
        if best is None or gcv < best[0]:
            best = (gcv, float(alpha), coef)
    assert best is not None
    gcv, alpha, coef = best
    fitted = Z @ coef + y_mean
    return RidgeResult(
        coefficients=coef,
        intercept=y_mean,
        alpha=alpha,
        means=means,
        scales=scales,
        r2=r_squared(y, fitted),
        gcv=gcv,
    )


@dataclass(frozen=True)
class BackwardEliminationResult:
    """Outcome of backward elimination."""

    selected: tuple[int, ...]
    selected_names: tuple[str, ...]
    #: Adjusted R² after each *drop* (starting from the full model).
    history: tuple[float, ...]
    model: RegressionResult

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict from a full feature matrix."""
        return self.model.predict(
            np.asarray(X, dtype=float)[:, list(self.selected)]
        )


def _drop_one_screen(
    Z: np.ndarray, selected: list[int], y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Screened scores and collapse flags of dropping each selected column.

    ``Z`` is :func:`~repro.core.selection.centered_design`.  The selected
    columns are orthogonalized in order by the forward screen's CGS2
    step, giving ``X̂ = QR``; dropping column ``j`` costs
    ``(zᵀy)² / zᵀz`` of the residual sum of squares, where ``z`` is its
    part orthogonal to the others, with ``zᵀz = 1 / ‖row j of R⁻¹‖²``
    and ``zᵀy / zᵀz = (R⁻¹ Qᵀy)_j``.  A column that collapses while the
    basis is built makes ``R`` singular, so every candidate counts as
    collapsed and is refit.
    """
    m = len(selected)
    W = Z[:, selected + [-1]]
    R = np.zeros((m, m + 1))
    for k in range(m):
        norm = float(np.linalg.norm(W[:, k]))
        if norm**2 <= COLLAPSE_RTOL:
            return np.zeros(m), np.ones(m, dtype=bool)
        R[k, k] = norm
        R[k, k + 1 :] = deflate(W[:, k + 1 :], W[:, k] / norm)
    R_inv = np.linalg.inv(R[:, :m])
    zz = 1.0 / np.einsum("ij,ij->i", R_inv, R_inv)
    beta = R_inv @ R[:, m]
    sse = W[:, m] @ W[:, m] + beta**2 * zz
    return screened_scores(sse, y, m - 1), zz <= COLLAPSE_RTOL


def backward_eliminate(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    min_features: int = 1,
) -> BackwardEliminationResult:
    """Drop variables while adjusted R-bar-squared improves.

    Starts from all non-degenerate columns; at each step removes the
    variable whose removal yields the best adjusted R², stopping when no
    removal improves it (or ``min_features`` is reached).  Each step
    screens every removal at once and refits only the near-best and
    collapsed ones, by the rule and constants of
    :func:`~repro.core.selection.forward_select`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[1] != len(feature_names):
        raise ValueError(
            f"{X.shape[1]} columns but {len(feature_names)} names"
        )
    selected = [j for j in range(X.shape[1]) if np.ptp(X[:, j]) > 0.0]
    if not selected:
        raise ValueError("all features are degenerate")
    current = fit_ols(X[:, selected], y)
    history = [current.adjusted_r2]
    Z = centered_design(X, y)
    while len(selected) > min_features:
        if X.shape[0] - len(selected) <= 0:
            break  # no residual degrees of freedom: every score is -inf
        screened, collapsed = _drop_one_screen(Z, selected, y)
        score, j, model = refit_best(
            selected,
            screened,
            collapsed,
            lambda j: fit_ols(X[:, [k for k in selected if k != j]], y),
        )
        if score <= current.adjusted_r2:
            break
        selected.remove(j)
        current = model
        history.append(score)
    return BackwardEliminationResult(
        selected=tuple(selected),
        selected_names=tuple(feature_names[j] for j in selected),
        history=tuple(history),
        model=current,
    )
