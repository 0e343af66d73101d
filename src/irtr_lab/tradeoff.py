"""Information-regret and estimation-error tradeoff relations.

The two normalized square-root information regrets of any measurement obey

    delta1^2 + delta2^2 + 2 sqrt(1 - c^2) delta1 delta2 >= c^2

where c is the incompatibility coefficient of the parameter pair.  The same
inequality restated for the error covariance of nu repeated experiments
bounds the per-parameter efficiencies gamma_j = 1/(nu e_jj qf_jj).  All
residuals returned here are nonnegative exactly when the point or budget is
feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBudgetError, raise_first_failure
from .psf_core import pow_squares

# Residuals below this are bound violations, not roundoff.
RESIDUAL_FLOOR = -1e-9


@dataclass(frozen=True)
class TradeoffPoint:
    """A pair of NSR information regrets, both dimensionless in [0, 1]."""

    delta1: float
    delta2: float

    def __post_init__(self):
        raise_first_failure(delta_range_checks(self.delta1, self.delta2), "")


def delta_range_checks(delta1, delta2, error=ValueError):
    """Checks, raising ``error``, that each delta1, then each delta2, lies in [0, 1] to 1e-12."""
    # `~(...)` fails a NaN; numpy's comparisons give flags `~` negates, of Python floats too.
    return [
        (error, f"{name} = {{!r}} is outside [0, 1]",
         ~(np.greater_equal(delta, -1e-12) & np.less_equal(delta, 1.0 + 1e-12)), delta)
        for name, delta in (("delta1", delta1), ("delta2", delta2))
    ]


@dataclass(frozen=True)
class ErrorBudget:
    """Target error covariance diagonals for nu repetitions.

    ``e11``/``e22`` carry length^2, ``qf11``/``qf22`` the matching QFIM
    diagonals in length^-2.
    """

    nu: int
    e11: float
    e22: float
    qf11: float
    qf22: float

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be a positive integer")
        for name in ("e11", "e22", "qf11", "qf22"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


def _check_coefficient(c_tilde: float) -> float:
    if not (0.0 <= c_tilde <= 1.0):
        raise ValueError("c_tilde must lie in [0, 1]")
    return c_tilde


def irtr_residual(point: TradeoffPoint, c_tilde: float) -> float:
    """Slack of the regret tradeoff at ``point``; >= 0 means feasible."""
    _check_coefficient(c_tilde)
    cross = 2.0 * math.sqrt(max(1.0 - c_tilde**2, 0.0))
    # x * x, not x**2: float ** goes through pow, which can be 1 ulp off.
    return (
        point.delta1 * point.delta1
        + point.delta2 * point.delta2
        + cross * point.delta1 * point.delta2
        - c_tilde**2
    )


def irtr_frontier(c_tilde: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary of the regret tradeoff, sampled at n points: columns (delta1, delta2).

    delta1 runs uniformly over [0, c_tilde]; delta2 is the nonnegative root
    of the boundary quadratic,

        delta2 = c_tilde sqrt(1 - delta1^2) - delta1 sqrt(1 - c_tilde^2),

    which satisfies the residual identically.  Pairs below the curve are
    infeasible for every measurement.  Each point meets ``TradeoffPoint``'s
    range checks; the first point outside raises its error.
    """
    _check_coefficient(c_tilde)
    if not c_tilde > 0.0:
        raise ValueError("the frontier is empty at c_tilde = 0")
    if n < 2:
        raise ValueError("n must be at least 2")
    tail = math.sqrt(max(1.0 - c_tilde**2, 0.0))
    delta1 = c_tilde * np.arange(n) / (n - 1)
    delta2 = c_tilde * np.sqrt(1.0 - pow_squares(delta1)) - delta1 * tail
    delta2 = np.where(delta2 < 0.0, 0.0, delta2)
    raise_first_failure(delta_range_checks(delta1, delta2), "")
    return delta1, delta2


def error_tradeoff_residual(budget: ErrorBudget, c_tilde: float) -> float:
    """Slack of the error-covariance tradeoff; >= 0 means the budget is allowed.

    Efficiencies gamma_j = 1/(nu e_jj qf_jj) must individually satisfy the
    single-parameter bound gamma_j <= 1; jointly they must keep

        gamma1 + gamma2 - 2 sqrt(1 - c^2) sqrt((1-gamma1)(1-gamma2))

    below 2 - c^2.
    """
    _check_coefficient(c_tilde)
    gamma1 = 1.0 / (budget.nu * budget.e11 * budget.qf11)
    gamma2 = 1.0 / (budget.nu * budget.e22 * budget.qf22)
    for gamma in (gamma1, gamma2):
        if gamma > 1.0 + 1e-12:
            raise InfeasibleBudgetError(
                f"efficiency {gamma!r} exceeds the single-parameter bound"
            )
    gamma1 = min(gamma1, 1.0)
    gamma2 = min(gamma2, 1.0)
    cross = 2.0 * math.sqrt(max(1.0 - c_tilde**2, 0.0))
    joint = gamma1 + gamma2 - cross * math.sqrt((1.0 - gamma1) * (1.0 - gamma2))
    return (2.0 - c_tilde**2) - joint


def small_separation_error_bound(nu: int, e11: float, e22: float, kappa: float) -> float:
    """Slack of the vanishing-separation error bound; >= 0 means feasible.

    In the limit of coincident sources the tradeoff forces
    1/(4 nu kappa e11) + 1/(nu kappa e22) <= 1 regardless of measurement.
    """
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    for name, value in (("e11", e11), ("e22", e22), ("kappa", kappa)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive")
    return 1.0 - 1.0 / (4.0 * nu * kappa * e11) - 1.0 / (nu * kappa * e22)
