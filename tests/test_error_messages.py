"""Exact error types and messages of the scalar checks that run through a column route.

``OverlapIntegrals``, ``SourceGeometry``, ``c_tilde_from_overlaps``,
``TradeoffPoint`` and ``irtr_frontier`` each validate through a one-column
call of the check that a sweep runs on its columns.  These pins hold the text
a caller of the scalar API sees: no ``row i: `` prefix, and each value
printed as a Python float, whatever float type it was given as.
"""

import math

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import tradeoff
from irtr_lab.state_model import c_tilde_from_overlaps


def frontier_with_roots_of_two(monkeypatch):
    # Roots of 2 for sqrt(1 - delta1^2) put the first point at delta2 = 2 c_tilde = 1.8.
    with monkeypatch.context() as patch:
        patch.setattr(tradeoff.np, "sqrt", lambda values: np.full(len(values), 2.0))
        lab.irtr_frontier(0.9, 5)


CASES = {
    "overlaps-finite": (
        lambda _: lab.OverlapIntegrals(0.25, math.nan, 0.0, 0.5),
        lab.ConsistencyError,
        "overlap integrals must be finite, got (0.25, nan, 0.0, 0.5)",
    ),
    "overlaps-finite-float64": (
        lambda _: lab.OverlapIntegrals(np.float64("nan"), 0.0, 0.0, 0.5),
        lab.ConsistencyError,
        "overlap integrals must be finite, got (nan, 0.0, 0.0, 0.5)",
    ),
    "overlaps-kappa": (
        lambda _: lab.OverlapIntegrals(0.0, 0.0, 0.0, 0.0),
        lab.ConsistencyError,
        "kappa must be positive",
    ),
    "overlaps-delta": (
        lambda _: lab.OverlapIntegrals(0.25, 0.0, 0.0, 1.5),
        lab.ConsistencyError,
        "|delta| cannot exceed 1",
    ),
    "overlaps-fisher": (
        lambda _: lab.OverlapIntegrals(0.25, 0.6, 0.0, 0.5),
        lab.ConsistencyError,
        "kappa - gamma^2 must be nonnegative",
    ),
    "overlaps-beta": (
        lambda _: lab.OverlapIntegrals(0.25, 0.3, 0.25, 0.5),
        lab.ConsistencyError,
        "beta^2 cannot exceed kappa*(kappa - gamma^2)",
    ),
    "geometry-theta1": (
        lambda _: lab.SourceGeometry(-math.inf, 1.0),
        ValueError,
        "theta1 must be finite, got -inf",
    ),
    "geometry-theta2": (
        lambda _: lab.SourceGeometry(0.0, np.float64("nan")),
        ValueError,
        "theta2 must be finite, got nan",
    ),
    "geometry-separation": (
        lambda _: lab.SourceGeometry(0.0, -1.0),
        ValueError,
        "separation theta2 must be strictly positive",
    ),
    # kappa - gamma^2 = 0 passes the overlap checks but leaves c_tilde undefined.
    "c_tilde-degenerate": (
        lambda _: c_tilde_from_overlaps(lab.OverlapIntegrals(0.25, 0.5, 0.0, 0.3)),
        lab.DegenerateStateError,
        "kappa - gamma^2 must be positive to define c_tilde",
    ),
    # beta^2 within the overlap checks' 1e-9 kappa^2 slack, c_tilde beyond its 1e-9.
    "c_tilde-above-one": (
        lambda _: c_tilde_from_overlaps(lab.OverlapIntegrals(0.25, 0.4999, 0.004999755, 0.3)),
        lab.DegenerateStateError,
        "c_tilde = 1.0000010013001575 above 1: overlap scalars are inconsistent",
    ),
    "tradeoff-delta1": (
        lambda _: lab.TradeoffPoint(-0.1, 1.2),
        ValueError,
        "delta1 = -0.1 is outside [0, 1]",
    ),
    "tradeoff-delta2": (
        lambda _: lab.TradeoffPoint(0.5, np.float64(1.2)),
        ValueError,
        "delta2 = 1.2 is outside [0, 1]",
    ),
    "frontier-delta2": (
        frontier_with_roots_of_two,
        ValueError,
        "delta2 = 1.8 is outside [0, 1]",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_scalar_checks_raise_their_pinned_error(case, monkeypatch):
    call, error, message = CASES[case]
    with pytest.raises(Exception) as raised:
        call(monkeypatch)
    assert type(raised.value) is error
    assert str(raised.value) == message
