"""Forward selection of explanatory variables.

The paper: *"We use the forward selection method to find an 'optimal'
model that maximizes the adjusted coefficient of determination by
allowing at most 10 independent variables to be used."*

Greedy algorithm: starting from the empty model, repeatedly add the
feature whose inclusion yields the highest adjusted R-bar-squared; stop
when no feature improves it or when the cap is reached.

Each step is a *screen, then verify*.  The screen scores every candidate
at once: the columns are scaled to unit norm (as :func:`fit_ols` does),
centered against the intercept, and kept orthogonal to the selected
basis by one rank-1 Gram-Schmidt update per selection, applied twice
(CGS2); a candidate ``z`` then gains ``(zᵀr)² / zᵀz`` of the residual
sum of squares.  The verify step refits with :func:`fit_ols`, in
ascending column order under the strict ``>`` rule, every candidate
screened within :data:`SCREEN_RTOL` of the best and every candidate
whose orthogonalized norm has collapsed (:data:`COLLAPSE_RTOL`), whose
screened score round-off decides.  The winner, the stop rule and the
final model all come from :func:`fit_ols`, so the result is exactly that
of refitting every candidate at every step, for a few refits per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.regression import RegressionResult, fit_ols

#: Candidates screened within this share of ``max(1, |best|)`` of the
#: step's best score are refit with :func:`fit_ols`.
SCREEN_RTOL = 1e-6

#: A candidate whose orthogonalized squared norm is at most this share
#: of its unit norm has collapsed: its screened score is round-off.
COLLAPSE_RTOL = 1e-8


@dataclass(frozen=True)
class ForwardSelectionResult:
    """Outcome of a forward-selection run."""

    #: Indices of the selected columns, in selection order.
    selected: tuple[int, ...]
    #: Names of the selected columns, in selection order.
    selected_names: tuple[str, ...]
    #: Adjusted R-bar-squared after each selection step.
    history: tuple[float, ...]
    #: Final fitted model over the selected columns.
    model: RegressionResult

    @property
    def adjusted_r2(self) -> float:
        """Adjusted R-bar-squared of the final model."""
        return self.model.adjusted_r2

    def design_matrix(self, X: np.ndarray) -> np.ndarray:
        """Project a full feature matrix onto the selected columns."""
        return np.asarray(X, dtype=float)[:, list(self.selected)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict from a *full* feature matrix (selection applied here)."""
        return self.model.predict(self.design_matrix(X))


def deflate(Z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthogonalize the columns of ``Z`` against unit vector ``q``.

    One rank-1 classical Gram-Schmidt step applied twice (CGS2), in
    place, so orthogonality holds to ulp level; returns the summed
    projection coefficients ``qᵀZ``.
    """
    first = q @ Z
    Z -= np.outer(q, first)
    second = q @ Z
    Z -= np.outer(q, second)
    return first + second


def centered_design(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``[X̂ | y]`` with unit-norm columns, centered against the intercept.

    The last column is the target, so one :func:`deflate` keeps the
    candidates and the residual orthogonal to the basis together.
    """
    n, p = X.shape
    norms = np.linalg.norm(X, axis=0)
    Z = np.empty((n, p + 1))
    np.divide(X, np.where(norms == 0.0, 1.0, norms), out=Z[:, :p])
    Z[:, p] = y
    deflate(Z, np.full(n, 1.0 / np.sqrt(n)))
    return Z


def screened_scores(
    sse: np.ndarray, y: np.ndarray, n_features: int
) -> np.ndarray:
    """Adjusted R-bar-squared of models with residual sums ``sse``.

    Mirrors :func:`~repro.core.regression.r_squared` and
    :func:`~repro.core.regression.adjusted_r_squared`; a constant target
    scores every candidate alike, so all of them are verified.
    """
    n = y.size
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return np.zeros_like(sse)
    return 1.0 - sse / ss_tot * (n - 1) / (n - n_features - 1)


def refit_best(
    candidates: Sequence[int],
    screened: np.ndarray,
    collapsed: np.ndarray,
    fit: Callable[[int], RegressionResult],
) -> tuple[float, int, RegressionResult]:
    """Refit the near-best and collapsed candidates; keep the best.

    ``candidates`` are in ascending order, aligned with ``screened`` and
    ``collapsed``.  The refits run in that order and a later candidate
    wins only with a strictly higher :func:`fit_ols` score, exactly as
    refitting every candidate would decide.
    """
    verify = collapsed | ~np.isfinite(screened)
    trusted = screened[~verify]
    if trusted.size:
        top = float(trusted.max())
        verify |= screened >= top - SCREEN_RTOL * max(1.0, abs(top))
    best: tuple[float, int, RegressionResult] | None = None
    for j in np.asarray(candidates)[verify]:
        model = fit(int(j))
        if best is None or model.adjusted_r2 > best[0]:
            best = (model.adjusted_r2, int(j), model)
    assert best is not None, "no candidate to verify"
    return best


def forward_select(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    max_features: int = 10,
) -> ForwardSelectionResult:
    """Greedy forward selection maximizing adjusted R-bar-squared.

    Parameters
    ----------
    X:
        Full feature matrix, shape (n_obs, n_features).
    y:
        Target vector.
    feature_names:
        One name per column of ``X`` (used for reporting).
    max_features:
        The paper's cap on explanatory variables (10; Figs. 7-8 sweep
        5-20).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[1] != len(feature_names):
        raise ValueError(
            f"{X.shape[1]} columns but {len(feature_names)} feature names"
        )
    if max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")

    n = X.shape[0]
    selected: list[int] = []
    history: list[float] = []
    best_model: RegressionResult | None = None
    best_score = float("-inf")
    # Constant columns add nothing and are never candidates.
    remaining = np.ptp(X, axis=0) != 0.0
    Z = centered_design(X, y)

    while remaining.any() and len(selected) < max_features:
        if n - len(selected) - 2 <= 0:
            break  # no residual degrees of freedom: every score is -inf
        candidates = np.flatnonzero(remaining)
        r = Z[:, -1]
        zz = np.einsum("ij,ij->j", Z, Z)[candidates]
        collapsed = zz <= COLLAPSE_RTOL
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(collapsed, 0.0, (r @ Z)[candidates] ** 2 / zz)
        screened = screened_scores(r @ r - gain, y, len(selected) + 1)
        score, j, model = refit_best(
            candidates,
            screened,
            collapsed,
            lambda j: fit_ols(X[:, selected + [j]], y),
        )
        if score <= best_score:
            break  # no improvement: stop early as the paper's method does
        selected.append(j)
        remaining[j] = False
        history.append(score)
        best_model = model
        best_score = score
        norm = float(np.linalg.norm(Z[:, j]))
        if norm > 0.0:
            deflate(Z, Z[:, j] / norm)

    if best_model is None:
        # All features degenerate: fall back to the intercept-only model
        # expressed over the first column (coefficient will be ~0).
        selected = [0]
        best_model = fit_ols(X[:, [0]], y)
        history = [best_model.adjusted_r2]

    return ForwardSelectionResult(
        selected=tuple(selected),
        selected_names=tuple(feature_names[j] for j in selected),
        history=tuple(history),
        model=best_model,
    )
