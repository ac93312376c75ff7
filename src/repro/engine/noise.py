"""Deterministic noise helpers for the simulated measurements."""

from __future__ import annotations

import numpy as np


def lognormal_sigma(cv: float) -> float:
    """Log-space sigma of a unit-median factor with coefficient ``cv``."""
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    return float(np.sqrt(np.log1p(cv**2)))


def lognormal_factor(rng: np.random.Generator, cv: float) -> float:
    """A multiplicative noise factor with unit median.

    Parameters
    ----------
    rng:
        Deterministic generator from :func:`repro.rng.stream`.
    cv:
        Approximate coefficient of variation; 0 returns exactly 1.
    """
    if cv == 0:
        return 1.0
    return float(np.exp(rng.normal(0.0, lognormal_sigma(cv))))
