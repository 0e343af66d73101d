"""Tests for the information-regret tradeoff relations.

The frontier closed form is cross-checked against a bisection solver written
here in the test, so the two routes share nothing but the residual function.
"""

import math

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import tradeoff


def bisect_frontier_delta2(c_tilde, delta1):
    """Largest infeasible-to-feasible crossing of the residual in delta2."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = lab.irtr_residual(lab.TradeoffPoint(delta1, mid), c_tilde)
        if value < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTradeoffPoint:
    def test_accepts_unit_interval(self):
        lab.TradeoffPoint(0.0, 1.0)
        lab.TradeoffPoint(0.5, 0.5)

    @pytest.mark.parametrize("pair", [(-0.1, 0.5), (0.5, 1.2), (2.0, 2.0)])
    def test_rejects_out_of_range(self, pair):
        with pytest.raises(ValueError):
            lab.TradeoffPoint(*pair)


class TestIrtrResidual:
    def test_full_incompatibility_corner_is_tight(self):
        assert lab.irtr_residual(lab.TradeoffPoint(1.0, 0.0), 1.0) == 0.0
        assert lab.irtr_residual(lab.TradeoffPoint(0.0, 1.0), 1.0) == 0.0

    def test_zero_incompatibility_never_binds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            point = lab.TradeoffPoint(*rng.uniform(0.0, 1.0, size=2))
            assert lab.irtr_residual(point, 0.0) >= 0.0

    def test_infeasible_point_goes_negative(self):
        # Both regrets far below what c_tilde = 0.5 permits.
        value = lab.irtr_residual(lab.TradeoffPoint(0.13, 0.13), 0.5)
        assert value < 0.0

    def test_increasing_in_each_regret(self):
        c_tilde = 0.7
        base = lab.irtr_residual(lab.TradeoffPoint(0.3, 0.4), c_tilde)
        assert lab.irtr_residual(lab.TradeoffPoint(0.35, 0.4), c_tilde) > base
        assert lab.irtr_residual(lab.TradeoffPoint(0.3, 0.45), c_tilde) > base

    def test_weaker_coefficient_relaxes_the_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            point = lab.TradeoffPoint(*rng.uniform(0.0, 1.0, size=2))
            weak, strong = sorted(rng.uniform(0.0, 1.0, size=2))
            assert lab.irtr_residual(point, weak) >= lab.irtr_residual(point, strong)

    @pytest.mark.parametrize("c_tilde", [-0.1, 1.1])
    def test_rejects_coefficient_outside_unit_interval(self, c_tilde):
        with pytest.raises(ValueError):
            lab.irtr_residual(lab.TradeoffPoint(0.5, 0.5), c_tilde)

    def test_squares_are_correctly_rounded(self):
        # Python's float ** 2 goes through pow, 1 ulp off x * x at this value;
        # numpy arrays square exactly, and the batched rows must match.
        x = 0.5402238995537649
        assert lab.irtr_residual(lab.TradeoffPoint(x, 0.0), 0.0) == x * x
        assert lab.irtr_residual(lab.TradeoffPoint(0.0, x), 0.0) == x * x


def frontier_points(c_tilde, n):
    """``irtr_frontier``'s columns as ``TradeoffPoint``s."""
    delta1, delta2 = lab.irtr_frontier(c_tilde, n)
    return [lab.TradeoffPoint(*point) for point in zip(delta1.tolist(), delta2.tolist())]


class TestIrtrFrontier:
    @pytest.mark.parametrize("c_tilde", [0.2, 0.5, 0.9, 1.0])
    def test_every_point_sits_on_the_boundary(self, c_tilde):
        for point in frontier_points(c_tilde, 64):
            assert abs(lab.irtr_residual(point, c_tilde)) <= 1e-12

    def test_endpoints_are_exact(self):
        points = frontier_points(0.37, 16)
        assert points[0].delta1 == 0.0 and points[0].delta2 == 0.37
        assert points[-1].delta1 == 0.37 and points[-1].delta2 == 0.0

    def test_monotone_exchange(self):
        points = frontier_points(0.8, 128)
        d1 = [p.delta1 for p in points]
        d2 = [p.delta2 for p in points]
        assert all(b > a for a, b in zip(d1, d1[1:]))
        assert all(b < a for a, b in zip(d2, d2[1:]))

    def test_full_incompatibility_is_unit_circle(self):
        for point in frontier_points(1.0, 32):
            np.testing.assert_allclose(
                point.delta1**2 + point.delta2**2, 1.0, atol=1e-14
            )

    @pytest.mark.parametrize("c_tilde", [0.2, 0.5, 0.9, 1.0])
    def test_matches_bisection_solver(self, c_tilde):
        for point in frontier_points(c_tilde, 9):
            if point.delta2 == 0.0:
                continue
            solved = bisect_frontier_delta2(c_tilde, point.delta1)
            assert abs(solved - point.delta2) <= 1e-10

    @pytest.mark.parametrize("c_tilde", [1e-9, 0.37, 1.0])
    @pytest.mark.parametrize("n", [2, 9, 512])
    def test_columns_equal_the_per_point_formula(self, c_tilde, n):
        # The frontier as it was computed one TradeoffPoint at a time.
        tail = math.sqrt(max(1.0 - c_tilde**2, 0.0))
        delta1 = [c_tilde * index / (n - 1) for index in range(n)]
        delta2 = [max(c_tilde * math.sqrt(1.0 - d**2) - d * tail, 0.0) for d in delta1]
        columns = lab.irtr_frontier(c_tilde, n)
        assert [column.shape for column in columns] == [(n,), (n,)]
        assert columns[0].tobytes() == np.array(delta1).tobytes()
        assert columns[1].tobytes() == np.array(delta2).tobytes()

    def test_a_point_outside_the_unit_interval_raises_as_a_tradeoff_point(self, monkeypatch):
        # Squares of -3 put every point's delta2 beyond 1, the first at
        # 2 c_tilde = 1.8: it raises, unnamed, with TradeoffPoint's check.
        monkeypatch.setattr(tradeoff, "pow_squares", lambda values: np.full(len(values), -3.0))
        with pytest.raises(ValueError) as stacked:
            lab.irtr_frontier(0.9, 5)
        assert type(stacked.value) is ValueError
        assert str(stacked.value) == "delta2 = 1.8 is outside [0, 1]"
        checks = tradeoff.delta_range_checks([0.5, -0.1, 1.2], [0.5, 0.5, 2.0])
        flags = [check[2].tolist() for check in checks]
        assert flags == [[False, True, True], [False, False, True]]

    def test_rejects_degenerate_requests(self):
        with pytest.raises(ValueError):
            lab.irtr_frontier(0.0, 16)
        with pytest.raises(ValueError):
            lab.irtr_frontier(0.5, 1)


class TestErrorTradeoff:
    def test_balanced_budget_on_the_boundary(self):
        budget = lab.ErrorBudget(nu=1, e11=2.0, e22=2.0, qf11=1.0, qf22=1.0)
        assert lab.error_tradeoff_residual(budget, 1.0) == 0.0

    def test_overambitious_budget_goes_negative(self):
        budget = lab.ErrorBudget(nu=1, e11=2.0, e22=5.0 / 3.0, qf11=1.0, qf22=1.0)
        value = lab.error_tradeoff_residual(budget, 1.0)
        np.testing.assert_allclose(value, -0.1, atol=1e-12)

    def test_zero_incompatibility_allows_saturating_both(self):
        budget = lab.ErrorBudget(nu=1, e11=1.0, e22=1.0, qf11=1.0, qf22=1.0)
        value = lab.error_tradeoff_residual(budget, 0.0)
        np.testing.assert_allclose(value, 0.0, atol=1e-12)

    def test_below_quantum_limit_raises(self):
        budget = lab.ErrorBudget(nu=1, e11=0.5, e22=2.0, qf11=1.0, qf22=1.0)
        with pytest.raises(lab.InfeasibleBudgetError):
            lab.error_tradeoff_residual(budget, 0.5)

    def test_more_repetitions_relax_the_budget(self):
        tight = lab.ErrorBudget(nu=1, e11=2.0, e22=2.0, qf11=1.0, qf22=1.0)
        relaxed = lab.ErrorBudget(nu=10, e11=2.0, e22=2.0, qf11=1.0, qf22=1.0)
        assert lab.error_tradeoff_residual(
            relaxed, 0.9
        ) > lab.error_tradeoff_residual(tight, 0.9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0, "e11": 1.0, "e22": 1.0, "qf11": 1.0, "qf22": 1.0},
            {"nu": 1, "e11": 0.0, "e22": 1.0, "qf11": 1.0, "qf22": 1.0},
            {"nu": 1, "e11": 1.0, "e22": -1.0, "qf11": 1.0, "qf22": 1.0},
            {"nu": 1, "e11": 1.0, "e22": 1.0, "qf11": 0.0, "qf22": 1.0},
        ],
    )
    def test_budget_validation(self, kwargs):
        with pytest.raises(ValueError):
            lab.ErrorBudget(**kwargs)


class TestSmallSeparationErrorBound:
    def test_exactly_balanced_budget(self):
        value = lab.small_separation_error_bound(nu=1, e11=2.0, e22=8.0, kappa=0.25)
        np.testing.assert_allclose(value, 0.0, atol=1e-15)

    def test_many_repetitions(self):
        value = lab.small_separation_error_bound(nu=100, e11=1.0, e22=1.0, kappa=0.25)
        np.testing.assert_allclose(value, 0.95, rtol=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lab.small_separation_error_bound(nu=0, e11=1.0, e22=1.0, kappa=0.25)
        with pytest.raises(ValueError):
            lab.small_separation_error_bound(nu=1, e11=1.0, e22=1.0, kappa=0.0)


class TestMeasurementsSatisfyTheBound:
    @pytest.mark.parametrize("theta2", [0.2, 1.0, 3.0])
    def test_direct_imaging_and_mode_sorting(self, theta2):
        psf = lab.gaussian_psf(1.0)
        geo = lab.SourceGeometry(0.7, theta2)
        overlaps = lab.gaussian_overlap_integrals(1.0, theta2)
        fisher = lab.qfim(overlaps)
        c_tilde = lab.incompatibility(overlaps).c_tilde
        for model in (
            lab.direct_imaging_model(psf, geo),
            lab.spade_model(1.0, geo),
        ):
            report = lab.regret_report(lab.fim(model), fisher)
            point = lab.TradeoffPoint(report.delta1, report.delta2)
            assert lab.irtr_residual(point, c_tilde) >= -1e-9
