"""Forward-selection tests (with property-based checks).

``forward_select`` and ``backward_eliminate`` screen every candidate at
once and refit only the near-winners.  The per-candidate loops below
refit every candidate at every step; they are the oracles the screened
searches must match exactly, on designs built to defeat the screen.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.core.selection as selection
from repro.core.regression import fit_ols
from repro.core.ridge import backward_eliminate
from repro.core.selection import forward_select


def _forward_oracle(X, y, max_features):
    """Forward selection refitting every candidate at every step."""
    selected, history = [], []
    best_model, best_score = None, float("-inf")
    remaining = set(range(X.shape[1]))
    while remaining and len(selected) < max_features:
        step_best = None
        for j in sorted(remaining):
            if np.ptp(X[:, j]) == 0.0:
                continue
            model = fit_ols(X[:, selected + [j]], y)
            if step_best is None or model.adjusted_r2 > step_best[0]:
                step_best = (model.adjusted_r2, j, model)
        if step_best is None:
            break
        score, j, model = step_best
        if score <= best_score:
            break
        selected.append(j)
        remaining.discard(j)
        history.append(score)
        best_model, best_score = model, score
    if best_model is None:
        selected = [0]
        best_model = fit_ols(X[:, [0]], y)
        history = [best_model.adjusted_r2]
    return tuple(selected), tuple(history), best_model


def _backward_oracle(X, y, min_features):
    """Backward elimination refitting every removal at every step."""
    selected = [j for j in range(X.shape[1]) if np.ptp(X[:, j]) > 0.0]
    current = fit_ols(X[:, selected], y)
    history = [current.adjusted_r2]
    while len(selected) > min_features:
        step_best = None
        for j in selected:
            model = fit_ols(X[:, [k for k in selected if k != j]], y)
            if step_best is None or model.adjusted_r2 > step_best[0]:
                step_best = (model.adjusted_r2, j, model)
        score, j, model = step_best
        if score <= current.adjusted_r2:
            break
        selected.remove(j)
        current = model
        history.append(score)
    return tuple(selected), tuple(history), current


@st.composite
def _adversarial_designs(draw):
    """(X, y) built to make screened scores disagree with refits.

    Scaled copies spanning +-6 decades, sums of columns whose scales
    differ by up to 16 decades, noisy copies, constant columns, exact,
    noisy and constant targets, over 3 to 60 observations.
    """
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = st.floats(-6.0, 6.0)
    columns = []
    for kind in draw(
        st.lists(
            st.sampled_from(["random", "copy", "noisy", "sum", "constant"]),
            min_size=1,
            max_size=12,
        )
    ):
        if kind == "constant":
            columns.append(np.full(n, draw(st.sampled_from([0.0, 1.0, 3.7, -2e5]))))
        elif kind == "random" or not columns:
            columns.append(rng.normal(size=n) * 10.0 ** draw(decades))
        elif kind in ("copy", "noisy"):
            source = columns[draw(st.integers(0, len(columns) - 1))]
            column = source * 10.0 ** draw(decades)
            if kind == "noisy":
                column += rng.normal(size=n) * 10.0 ** draw(decades)
            columns.append(column)
        else:
            a = columns[draw(st.integers(0, len(columns) - 1))]
            b = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(
                a * 10.0 ** draw(st.floats(-8.0, 8.0))
                + b * 10.0 ** draw(st.floats(-8.0, 8.0))
            )
    X = np.column_stack(columns)
    target = draw(st.sampled_from(["constant", "exact", "noisy"]))
    if target == "constant":
        y = np.full(n, draw(st.sampled_from([0.0, 0.1, 3.7, -2e5])))
    elif target == "exact":
        y = 2.0 * X[:, draw(st.integers(0, X.shape[1] - 1))] + 1.0
    else:
        y = X[:, :3].sum(axis=1) + rng.normal(size=n) * 10.0 ** draw(
            st.floats(-12.0, 1.0)
        )
    return X, y


def _assert_same_search(found, expected):
    selected, history, model = expected
    assert found.selected == selected
    assert found.history == history
    assert np.array_equal(found.model.coefficients, model.coefficients)
    assert found.model.intercept == model.intercept


def _signal_problem(seed=0, n=80, relevant=3, noise_features=10):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, relevant + noise_features))
    coef = np.concatenate([rng.uniform(2, 5, relevant), np.zeros(noise_features)])
    y = X @ coef + rng.normal(scale=0.5, size=n)
    names = [f"f{i}" for i in range(X.shape[1])]
    return X, y, names, relevant


class TestForwardSelect:
    def test_finds_relevant_features_first(self):
        X, y, names, relevant = _signal_problem()
        result = forward_select(X, y, names, max_features=relevant)
        assert set(result.selected) == set(range(relevant))

    def test_respects_cap(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=2)
        assert len(result.selected) == 2

    def test_history_strictly_increasing(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=10)
        diffs = np.diff(result.history)
        assert np.all(diffs > 0)

    def test_stops_when_no_improvement(self):
        """Pure-noise extra features should not be selected up to the cap."""
        X, y, names, relevant = _signal_problem(noise_features=20)
        result = forward_select(X, y, names, max_features=15)
        # The adjusted R² penalty halts selection well before 15.
        assert len(result.selected) < 15

    def test_selected_names_align(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=3)
        assert result.selected_names == tuple(names[i] for i in result.selected)

    def test_skips_constant_columns(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.full(50, 5.0), rng.normal(size=50)])
        y = 2 * X[:, 1] + 1
        result = forward_select(X, y, ["const", "real"], max_features=2)
        assert 0 not in result.selected

    def test_all_constant_falls_back(self):
        X = np.ones((20, 3))
        y = np.arange(20.0)
        result = forward_select(X, y, ["a", "b", "c"], max_features=2)
        assert result.model is not None
        _assert_same_search(result, _forward_oracle(X, y, 2))
        assert result.selected == (0,)

    def test_no_residual_dof_stops_like_the_oracle(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            X = rng.normal(size=(n, 6))
            y = rng.normal(size=n)
            result = forward_select(X, y, list("abcdef"), max_features=6)
            _assert_same_search(result, _forward_oracle(X, y, 6))
            assert len(result.selected) <= max(1, n - 2)
        # Two observations leave no dof at any size: intercept fallback.
        two = forward_select(X[:2], y[:2], list("abcdef"))
        assert two.selected == (0,)
        assert two.history == (float("-inf"),)

    def test_refits_only_near_winners(self, monkeypatch):
        X, y, names, _ = _signal_problem(noise_features=40)
        calls = []

        def counting_fit(*args):
            calls.append(1)
            return fit_ols(*args)

        monkeypatch.setattr(selection, "fit_ols", counting_fit)
        result = forward_select(X, y, names, max_features=10)
        _assert_same_search(result, _forward_oracle(X, y, 10))
        # The oracle refits 43 candidates at the first step alone.
        assert len(calls) <= 2 * (len(result.selected) + 1)

    def test_predict_uses_full_matrix(self):
        X, y, names, _ = _signal_problem()
        result = forward_select(X, y, names, max_features=3)
        predicted = result.predict(X)
        assert predicted.shape == y.shape

    def test_name_count_mismatch_rejected(self):
        X, y, names, _ = _signal_problem()
        with pytest.raises(ValueError):
            forward_select(X, y, names[:-1])

    def test_bad_cap_rejected(self):
        X, y, names, _ = _signal_problem()
        with pytest.raises(ValueError):
            forward_select(X, y, names, max_features=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(min_value=1, max_value=6))
    def test_invariants_hold_on_random_problems(self, seed, cap):
        X, y, names, _ = _signal_problem(seed=seed)
        result = forward_select(X, y, names, max_features=cap)
        # Unique selections, within cap, history length matches.
        assert len(set(result.selected)) == len(result.selected)
        assert len(result.selected) <= cap
        assert len(result.history) == len(result.selected)
        # Final model is fit over exactly the selected columns.
        assert result.model.n_features == len(result.selected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_greedy_prefix_property(self, seed):
        """A cap-k run selects a prefix of the cap-(k+2) run."""
        X, y, names, _ = _signal_problem(seed=seed)
        small = forward_select(X, y, names, max_features=2)
        big = forward_select(X, y, names, max_features=4)
        assert big.selected[: len(small.selected)] == small.selected


class TestScreenMatchesOracle:
    """Screened searches pick, score and fit exactly as full refits do."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_adversarial_designs(), st.integers(1, 20))
    def test_forward_select_matches_oracle(self, design, cap):
        X, y = design
        names = [f"f{i}" for i in range(X.shape[1])]
        expected = _forward_oracle(X, y, cap)
        _assert_same_search(forward_select(X, y, names, max_features=cap), expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_adversarial_designs(), st.integers(1, 3))
    def test_backward_eliminate_matches_oracle(self, design, floor):
        X, y = design
        assume(np.any(np.ptp(X, axis=0) > 0.0))  # else rejected up front
        names = [f"f{i}" for i in range(X.shape[1])]
        expected = _backward_oracle(X, y, floor)
        _assert_same_search(
            backward_eliminate(X, y, names, min_features=floor), expected
        )

    def test_collapsed_candidate_is_refit(self):
        """A near-constant column centers to round-off; only a refit
        can score it, and without one the screen stops a step early."""
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 20))
        X = np.column_stack([a, b, a * 1e-3, 1.8e13 + 0.05 * c])
        y = -2e5 + 0.002 * (a + 0.01 * rng.normal(size=20))
        result = forward_select(X, y, list("abcd"), max_features=4)
        _assert_same_search(result, _forward_oracle(X, y, 4))
        assert result.selected == (0, 1)

    def test_backward_no_residual_dof_stops_like_the_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        result = backward_eliminate(X, y, list("abcdef"))
        _assert_same_search(result, _backward_oracle(X, y, 1))
        assert result.history == (float("-inf"),)
