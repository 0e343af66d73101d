"""Tests for the PSF layer.

The Gaussian closed forms double as quadrature oracles: every overlap the
composite Gauss-Legendre rule produces is checked against them, and the
frozen numeric values below were computed independently from the analytic
expressions before these tests were written.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import psf_core
from irtr_lab.errors import failure_flags
from irtr_lab.psf_core import (
    USER_DEFINED,
    block_size,
    displaced_overlaps,
    quadrature_grid,
    quadrature_ladder,
)

# Closed-form references for sigma = 1 (kappa = 1/4 regardless of theta2).
GAMMA_SIGMA1_SEP2 = -0.3032653298563167
DELTA_SIGMA1_SEP2 = 0.6065306597126334
BETA_SIGMA1_SEP1 = 0.16546816923461163


class TestGaussianPsf:
    def test_unit_norm(self):
        psf = lab.gaussian_psf(1.0)
        assert lab.check_normalization(psf) < 1e-13

    def test_unit_norm_other_widths(self):
        for sigma in (0.3, 2.5):
            assert lab.check_normalization(lab.gaussian_psf(sigma)) < 1e-13

    def test_derivative_matches_finite_difference(self):
        psf = lab.gaussian_psf(0.7)
        x = np.linspace(-2.0, 2.0, 41)
        h = 1e-6
        fd = (psf.amplitude(x + h) - psf.amplitude(x - h)) / (2.0 * h)
        np.testing.assert_allclose(psf.amplitude_derivative(x), fd, atol=1e-8)

    @pytest.mark.parametrize("sigma", [0.6, 1.0, 2.3])
    def test_joint_evaluation_is_bitwise_the_separate_one(self, sigma):
        # Out to 40 sigma, where products such as psi * psi' underflow to zero.
        psf = lab.gaussian_psf(sigma)
        x = np.linspace(-40.0 * sigma, 40.0 * sigma, 200_001)
        amplitude, derivative = psf.amplitude_and_derivative(x)
        # psi and psi' each with its own exponential, as the PSF computed them
        # before the joint form.
        norm = (2.0 * np.pi * sigma**2) ** -0.25
        inv_2s2, inv_4s2 = 1.0 / (2.0 * sigma**2), 1.0 / (4.0 * sigma**2)
        envelope = norm * np.exp(-(x**2) * inv_4s2)
        separate = -x * inv_2s2 * norm * np.exp(-(x**2) * inv_4s2)
        np.testing.assert_array_equal(amplitude, envelope)
        np.testing.assert_array_equal(psf.amplitude(x), envelope)
        np.testing.assert_array_equal(derivative, separate)
        np.testing.assert_array_equal(psf.amplitude_derivative(x), separate)
        assert amplitude[0] * derivative[0] == 0.0 < amplitude[0]

    def test_far_out_amplitude_is_zero_without_an_overflow_warning(self):
        # x^2 overflows to inf beyond |x| ~ 1.3e154; the envelope takes its limit 0.
        psf = lab.gaussian_psf(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psf.amplitude(np.array([1e200])).tolist() == [0.0]
            assert psf.amplitude_derivative(np.array([-1e200])).tolist() == [0.0]

    def test_evaluation_into_given_arrays_is_bitwise_the_allocating_one(self):
        gaussian = lab.gaussian_psf(0.8)
        fields = lab.PointSpreadFunction(
            gaussian.kind, gaussian.sigma, gaussian.amplitude, gaussian.amplitude_derivative
        )
        x = np.linspace(-40.0, 40.0, 3003).reshape(3, -1)
        for psf in (gaussian, fields):
            out = (np.full_like(x, np.nan), np.full_like(x, np.nan))
            assert psf.amplitude_and_derivative(x, out=out) is out
            for given, allocated in zip(out, psf.amplitude_and_derivative(x)):
                np.testing.assert_array_equal(given, allocated)

    def test_peak_value(self):
        psf = lab.gaussian_psf(1.0)
        expected = (2.0 * math.pi) ** -0.25
        np.testing.assert_allclose(psf.amplitude(0.0), expected, rtol=1e-15)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            lab.gaussian_psf(0.0)
        with pytest.raises(ValueError):
            lab.gaussian_psf(-1.0)


class TestSourceGeometry:
    def test_midpoint_convention(self):
        geo = lab.SourceGeometry(theta1=0.6, theta2=1.0)
        np.testing.assert_allclose(geo.x1, 0.1, rtol=1e-15)
        np.testing.assert_allclose(geo.x2, 1.1, rtol=1e-15)

    def test_centered_pair_is_exact_in_floats(self):
        # At theta1 = 0 the positions are +-theta2/2 bitwise; the aligned
        # mode-sorting identities later rely on this.
        for theta2 in (0.05, 0.1, 1.3, 7.0):
            geo = lab.SourceGeometry(0.0, theta2)
            assert geo.x1 == -0.5 * theta2
            assert geo.x2 == 0.5 * theta2

    def test_separation_recovered_for_generic_centers(self):
        for theta1 in (0.1, 3.7, -2.3):
            geo = lab.SourceGeometry(theta1, 0.05)
            np.testing.assert_allclose(geo.x2 - geo.x1, 0.05, rtol=1e-12)

    def test_separation_must_be_positive(self):
        with pytest.raises(ValueError):
            lab.SourceGeometry(0.0, 0.0)
        with pytest.raises(ValueError):
            lab.SourceGeometry(0.0, -1.0)

    @pytest.mark.parametrize(
        "theta1, theta2, field",
        [
            (0.0, math.inf, "theta2"),
            (0.0, math.nan, "theta2"),
            (math.inf, 1.0, "theta1"),
            (-math.inf, 1.0, "theta1"),
            (math.nan, 1.0, "theta1"),
        ],
    )
    def test_coordinates_must_be_finite(self, theta1, theta2, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            lab.SourceGeometry(theta1, theta2)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0.0, math.nan), "theta2 must be finite, got nan"),
            ((math.inf, 1.0), "theta1 must be finite, got inf"),
            ((math.nan, -1.0), "theta1 must be finite, got nan"),
            ((0.0, 0.0), "separation theta2 must be strictly positive"),
            ((2.0, -1.0), "separation theta2 must be strictly positive"),
        ],
    )
    def test_sweep_points_raise_the_first_failing_points_error(self, bad, message):
        # One mask over the sweep, the first failing point's first failing
        # check, unnamed, as a single geometry raises it.
        with pytest.raises(ValueError) as stacked:
            psf_core.sweep_points([(0.0, 1.0), bad, (math.nan, 0.0)])
        assert type(stacked.value) is ValueError
        assert str(stacked.value) == message
        assert psf_core.sweep_points([]).shape == (0, 2)

    def test_sweep_points_place_the_sources_as_geometries_do(self):
        points = [(0.6, 1.0), (0.0, 0.05), (-2.3, 7.0), (3.7, 1e-3)]
        positions = psf_core.source_positions(points)
        for (theta1, theta2), (x1, x2) in zip(points, positions.tolist()):
            geometry = lab.SourceGeometry(theta1, theta2)
            assert (x1, x2) == (geometry.x1, geometry.x2)


class TestQuadratureSpec:
    def test_defaults(self):
        quad = lab.QuadratureSpec()
        assert quad.truncation_radius == 12.0
        assert quad.panel_count == 32
        assert quad.nodes_per_panel == 32
        assert quad.abs_tolerance == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"truncation_radius": 7.9},
            {"truncation_radius": float("nan")},
            {"truncation_radius": float("inf")},
            {"panel_count": 0},
            {"panel_count": 32.0},
            {"panel_count": True},
            {"nodes_per_panel": 0},
            {"nodes_per_panel": 2.5},
            {"abs_tolerance": 0.0},
            {"abs_tolerance": float("nan")},
            {"abs_tolerance": float("inf")},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            lab.QuadratureSpec(**kwargs)

    def test_accepts_numpy_integer_counts(self):
        quad = lab.QuadratureSpec(panel_count=np.int64(16), nodes_per_panel=np.int32(8))
        assert (quad.panel_count, quad.nodes_per_panel) == (16, 8)

    def test_grid_weights_sum_to_length(self):
        x, w = quadrature_grid(-3.0, 5.0, 4, 16)
        np.testing.assert_allclose(w.sum(), 8.0, rtol=1e-14)
        assert x.shape == w.shape == (64,)
        assert np.all(np.diff(x) > 0.0)

    def test_grid_integrates_polynomial_exactly(self):
        # Degree 2n-1 = 31 polynomials are exact per panel; check x^8.
        x, w = quadrature_grid(0.0, 2.0, 2, 16)
        np.testing.assert_allclose((x**8) @ w, 2.0**9 / 9.0, rtol=1e-14)

    @pytest.mark.parametrize(
        "lo, hi, panel_count, nodes_per_panel",
        [(-3.0, 5.0, 4, 16), (-12.5, 12.5, 32, 32), (-12.0, 13.7, 64, 32), (0.0, 1e-3, 1, 5)],
    )
    def test_grid_matches_fresh_leggauss_bitwise(self, lo, hi, panel_count, nodes_per_panel):
        base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
        edges = np.linspace(lo, hi, panel_count + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        for _ in range(2):  # the second call is served from the cached rule
            x, w = quadrature_grid(lo, hi, panel_count, nodes_per_panel)
            assert np.array_equal(x, (mid[:, None] + half[:, None] * base_x).ravel())
            assert np.array_equal(w, (half[:, None] * base_w).ravel())

    def test_grid_into_given_arrays_is_bitwise_the_allocating_one(self):
        lo, hi = np.zeros(3), np.array([12.5, 13.0, 20.0])
        x, w = quadrature_grid(lo, hi, 4, 8)
        # Rows that are contiguous but not adjacent, as in a reflected grid.
        buffers = np.full((2, 3, 2 * x.shape[1]), np.nan)
        out = (buffers[0][:, x.shape[1] :], buffers[1][:, x.shape[1] :])
        assert quadrature_grid(lo, hi, 4, 8, out=out) is out
        np.testing.assert_array_equal(out[0], x)
        np.testing.assert_array_equal(out[1], w)
        assert np.isnan(buffers[:, :, : x.shape[1]]).all()

    def test_cached_rule_is_read_only(self):
        nodes, weights = psf_core._gauss_legendre(32)
        for array in (nodes, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        x, w = quadrature_grid(-1.0, 1.0, 1, 32)
        assert x.flags.writeable and w.flags.writeable

    def test_float_node_count_is_rejected_after_int_rule_is_cached(self):
        quadrature_grid(-1.0, 1.0, 1, 32)
        with pytest.raises(TypeError):
            quadrature_grid(-1.0, 1.0, 1, 32.0)

    def test_sweep_builds_each_rule_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_leggauss(n):
            calls.append(n)
            return np.polynomial.legendre.leggauss(n)

        monkeypatch.setattr(psf_core, "leggauss", counting_leggauss)
        psf_core._gauss_legendre.cache_clear()
        try:
            config = lab.ExperimentConfig(
                figure_id="fig2",
                theta2_grid=tuple(np.linspace(0.1, 8.0, 20)),
                output_dir=str(tmp_path),
            )
            lab.run_fig2(config)
        finally:
            psf_core._gauss_legendre.cache_clear()
        assert calls == [config.quad.nodes_per_panel]


class TestOverlapIntegralsContainer:
    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            lab.OverlapIntegrals(kappa=0.0, gamma=0.0, beta=0.0, delta=0.0)

    def test_rejects_delta_above_one(self):
        with pytest.raises(ValueError):
            lab.OverlapIntegrals(kappa=0.25, gamma=0.0, beta=0.0, delta=1.5)

    def test_rejects_gamma_square_above_kappa(self):
        with pytest.raises(ValueError):
            lab.OverlapIntegrals(kappa=0.25, gamma=0.6, beta=0.0, delta=0.5)

    def test_rejects_beta_outside_cauchy_schwarz(self):
        # beta^2 <= kappa (kappa - gamma^2) must hold for any real PSF.
        with pytest.raises(ValueError):
            lab.OverlapIntegrals(kappa=0.25, gamma=0.3, beta=0.25, delta=0.5)

    def test_accepts_boundary_values(self):
        lab.OverlapIntegrals(kappa=0.25, gamma=0.0, beta=0.25, delta=1.0)
        lab.OverlapIntegrals(kappa=0.25, gamma=0.5, beta=0.0, delta=0.0)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_square_is_inf(self):
        # kappa = 2.5e159, whose square overflows: the checks' square is inf,
        # quietly, and the column passes.
        overlaps = lab.gaussian_overlap_integrals(1e-80, 1e-80)
        assert overlaps.kappa == 2.5e159
        columns = np.array([dataclasses.astuple(overlaps)]).T
        assert not failure_flags(psf_core.overlap_checks(columns)).any()

    @pytest.mark.filterwarnings("error")
    def test_float64_closed_form_arguments_give_python_floats_quietly(self):
        # numpy scalars in, Python floats out: the checks square and multiply
        # kappa = 2.5e159 in arrays that go quietly to inf, not in numpy
        # scalars that warn on overflow.
        overlaps = lab.gaussian_overlap_integrals(np.float64(1e-80), np.float64(1e-80))
        fields = dataclasses.astuple(overlaps)
        assert [type(field) for field in fields] == [float] * 4
        assert overlaps.kappa == 2.5e159
        assert fields == dataclasses.astuple(lab.gaussian_overlap_integrals(1e-80, 1e-80))

    @pytest.mark.parametrize("field", ["kappa", "gamma", "beta", "delta"])
    def test_rejects_non_finite_values(self, field):
        values = dict(kappa=0.25, gamma=0.0, beta=0.25, delta=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(lab.ConsistencyError, match="must be finite"):
                lab.OverlapIntegrals(**{**values, field: bad})


class TestStackedOverlapChecks:
    """``_settle`` runs the overlap checks on columns, naming the first failing row."""

    # A row breaking each of the checks in turn, and its message.
    broken = {
        "finite": (
            (0.25, math.nan, 0.0, 0.5),
            "overlap integrals must be finite, got (0.25, nan, 0.0, 0.5)",
        ),
        "kappa": ((0.0, 0.0, 0.0, 0.0), "kappa must be positive"),
        "delta": ((0.25, 0.0, 0.0, 1.5), "|delta| cannot exceed 1"),
        "fisher": ((0.25, 0.6, 0.0, 0.5), "kappa - gamma^2 must be nonnegative"),
        "beta": ((0.25, 0.3, 0.25, 0.5), "beta^2 cannot exceed kappa*(kappa - gamma^2)"),
    }
    good = dataclasses.astuple(lab.gaussian_overlap_integrals(1.0, 0.7))
    quad = lab.QuadratureSpec()

    def settle(self, columns, final):
        """``_settle`` on sweep rows 10, 11, ... with int psi^2 = 1 and no drift."""
        count = columns.shape[1]
        overlaps = np.full((4, 10 + count), np.nan)
        integrals = np.vstack([np.ones(count), columns])
        rows, window = np.arange(10, 10 + count), np.zeros(10 + count)
        settle = (rows, integrals, np.zeros(count), window, window, self.quad, "row {}: ", final)
        return overlaps, psf_core._settle(overlaps, *settle)

    @pytest.mark.parametrize("check", list(broken))
    def test_the_dataclass_error_names_the_first_failing_row(self, check):
        values, message = self.broken[check]
        with pytest.raises(lab.ConsistencyError) as single:
            lab.OverlapIntegrals(*values)
        assert str(single.value) == message
        # Every later row fails a check too; row 12 is the first.
        columns = np.array([self.good, self.good, values, *(v for v, _ in self.broken.values())]).T
        with pytest.raises(lab.IrtrLabError) as stacked:
            self.settle(columns, final=True)
        assert type(stacked.value) is lab.ConsistencyError
        assert str(stacked.value) == "row 12: " + message

    def test_rows_failing_below_the_top_pair_are_left_to_climb(self):
        columns = np.array([self.good, *(v for v, _ in self.broken.values()), self.good]).T
        overlaps, passed = self.settle(columns, final=False)
        assert passed.tolist() == [True, False, False, False, False, False, True]
        assert overlaps[:, [10, 16]].T.tolist() == [list(self.good)] * 2
        assert np.isnan(overlaps[:, 11:16]).all()

    def test_a_row_failing_the_overlap_checks_climbs(self, monkeypatch, rung_log):
        # Row 1's gamma is made to break kappa - gamma^2 >= 0 on every pass
        # but the last: its drift and total still pass, and it climbs to the
        # top pair, while rows 0 and 2 settle on (4, 8) as they do alone.
        psf = lab.gaussian_psf(1.0)
        points = [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        singles = [lab.overlap_integrals(psf, lab.SourceGeometry(*p)) for p in points]
        original, final_values = psf_core._settle, {}

        def corrupting(overlaps, rows, integrals, *rest):
            integrals, final = integrals.copy(), rest[-1]
            if final:
                final_values.update(zip(rows.tolist(), integrals[1:].T.tolist()))
            else:
                integrals[2, rows == 1] = 1.0
            return original(overlaps, rows, integrals, *rest)

        monkeypatch.setattr(psf_core, "_settle", corrupting)
        overlaps = psf_core.overlap_columns(psf, points)
        assert rung_log[-1].tolist() == [1, 3, 1]
        assert overlaps[:, 1].tolist() == final_values[1]
        for row in (0, 2):
            assert overlaps[:, row].tolist() == list(dataclasses.astuple(singles[row]))


class TestNonFiniteIntegrands:
    """A PSF that turns to NaN beyond 30 sigma fails the checks instead of passing NaN on."""

    gaussian = lab.gaussian_psf(1.0)

    def psf(self, kind):
        def masked(values):
            return lambda x: np.where(abs(x) < 30.0, values(x), np.nan)

        amplitude, derivative = self.gaussian.amplitude, self.gaussian.amplitude_derivative
        return lab.PointSpreadFunction(kind, 1.0, masked(amplitude), masked(derivative))

    @pytest.mark.parametrize("kind", [psf_core.GAUSSIAN, USER_DEFINED])
    def test_overlaps_raise_a_nan_drift(self, kind):
        psf = self.psf(kind)
        with pytest.raises(lab.ConvergenceError, match="^quadrature drift nan"):
            lab.overlap_integrals(psf, lab.SourceGeometry(0.0, 40.0))
        # Only the widest separation samples the NaN region.
        points = [(0.0, theta2) for theta2 in (0.5, 4.0, 40.0, 1.0)]
        with pytest.raises(lab.ConvergenceError, match="^row 2: quadrature drift nan"):
            psf_core.overlap_columns(psf, points)
        with pytest.raises(lab.ConvergenceError, match="^row 2: quadrature drift nan"):
            lab.overlaps_and_direct_fims(psf, points)

    def test_displaced_overlaps_raise_a_nan_drift(self):
        with pytest.raises(lab.ConvergenceError, match="^quadrature drift nan"):
            displaced_overlaps(self.psf(USER_DEFINED), 40.0)


class TestGaussianClosedForms:
    def test_kappa_quarter_inverse_sigma_squared(self):
        for sigma in (0.5, 1.0, 3.0):
            ov = lab.gaussian_overlap_integrals(sigma, 1.0)
            np.testing.assert_allclose(ov.kappa, 0.25 / sigma**2, rtol=1e-15)

    def test_frozen_values_sigma1(self):
        ov = lab.gaussian_overlap_integrals(1.0, 2.0)
        np.testing.assert_allclose(ov.gamma, GAMMA_SIGMA1_SEP2, rtol=1e-15)
        np.testing.assert_allclose(ov.delta, DELTA_SIGMA1_SEP2, rtol=1e-15)
        ov1 = lab.gaussian_overlap_integrals(1.0, 1.0)
        np.testing.assert_allclose(ov1.beta, BETA_SIGMA1_SEP1, rtol=1e-15)

    def test_beta_changes_sign_at_two_sigma(self):
        # beta is proportional to (4 sigma^2 - theta2^2).
        assert lab.gaussian_overlap_integrals(1.0, 2.0).beta == 0.0
        assert lab.gaussian_overlap_integrals(1.0, 1.9).beta > 0.0
        assert lab.gaussian_overlap_integrals(1.0, 2.1).beta < 0.0

    def test_scaling_with_sigma(self):
        # theta2/sigma fixed: kappa, beta scale as 1/sigma^2 and gamma as 1/sigma.
        ov1 = lab.gaussian_overlap_integrals(1.0, 0.8)
        ov2 = lab.gaussian_overlap_integrals(2.0, 1.6)
        np.testing.assert_allclose(ov2.kappa, ov1.kappa / 4.0, rtol=1e-14)
        np.testing.assert_allclose(ov2.gamma, ov1.gamma / 2.0, rtol=1e-14)
        np.testing.assert_allclose(ov2.beta, ov1.beta / 4.0, rtol=1e-14)
        np.testing.assert_allclose(ov2.delta, ov1.delta, rtol=1e-14)


class TestOverlapQuadrature:
    @pytest.mark.parametrize(
        "theta2", [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, *np.geomspace(1e-3, 40.0, 25).tolist()]
    )
    def test_matches_closed_forms(self, theta2):
        # Every rung of the ladder a separation settles on is within tolerance.
        psf = lab.gaussian_psf(1.0)
        quad_ov = lab.overlap_integrals(psf, lab.SourceGeometry(0.0, theta2))
        closed = lab.gaussian_overlap_integrals(1.0, theta2)
        np.testing.assert_allclose(quad_ov.kappa, closed.kappa, atol=1e-12)
        np.testing.assert_allclose(quad_ov.gamma, closed.gamma, atol=1e-12)
        np.testing.assert_allclose(quad_ov.beta, closed.beta, atol=1e-12)
        np.testing.assert_allclose(quad_ov.delta, closed.delta, atol=1e-12)

    @pytest.mark.parametrize("theta1", [0.0, 1.0, 5.0])
    def test_translation_invariance(self, theta1):
        psf = lab.gaussian_psf(1.0)
        base = lab.overlap_integrals(psf, lab.SourceGeometry(0.0, 1.3))
        moved = lab.overlap_integrals(psf, lab.SourceGeometry(theta1, 1.3))
        for name in ("kappa", "gamma", "beta", "delta"):
            np.testing.assert_allclose(
                getattr(moved, name), getattr(base, name), atol=1e-13
            )

    def test_overlaps_depend_on_the_separation_alone(self):
        psf = lab.gaussian_psf(1.0)
        for theta2 in (0.05, 1.3, 9.0):
            base = lab.overlap_integrals(psf, lab.SourceGeometry(0.0, theta2))
            for theta1 in (-7.0, 1.0, 5.0, 40.0):
                assert lab.overlap_integrals(psf, lab.SourceGeometry(theta1, theta2)) == base

    def test_nonunit_sigma(self):
        psf = lab.gaussian_psf(0.6)
        quad_ov = lab.overlap_integrals(psf, lab.SourceGeometry(0.2, 0.9))
        closed = lab.gaussian_overlap_integrals(0.6, 0.9)
        np.testing.assert_allclose(quad_ov.kappa, closed.kappa, atol=1e-11)
        np.testing.assert_allclose(quad_ov.gamma, closed.gamma, atol=1e-11)
        np.testing.assert_allclose(quad_ov.beta, closed.beta, atol=1e-11)
        np.testing.assert_allclose(quad_ov.delta, closed.delta, atol=1e-11)

    def test_unconverged_quadrature_raises(self):
        psf = lab.gaussian_psf(1.0)
        coarse = lab.QuadratureSpec(
            truncation_radius=8.0, panel_count=1, nodes_per_panel=2, abs_tolerance=1e-12
        )
        with pytest.raises(lab.ConvergenceError):
            lab.overlap_integrals(psf, lab.SourceGeometry(0.0, 1.0), coarse)

    def test_psf_from_four_fields_evaluates_separately_to_the_same_overlaps(self):
        psf = lab.gaussian_psf(0.8)
        fields = lab.PointSpreadFunction(
            psf.kind, psf.sigma, psf.amplitude, psf.amplitude_derivative
        )
        assert fields.joint is None
        for geometry in (lab.SourceGeometry(0.0, 0.05), lab.SourceGeometry(-0.4, 2.9)):
            assert lab.overlap_integrals(fields, geometry) == lab.overlap_integrals(
                psf, geometry
            )

    def test_unnormalized_psf_raises(self):
        base = lab.gaussian_psf(1.0)
        scaled = lab.PointSpreadFunction(
            kind="user_defined",
            sigma=1.0,
            amplitude=lambda x: 1.1 * base.amplitude(x),
            amplitude_derivative=lambda x: 1.1 * base.amplitude_derivative(x),
        )
        with pytest.raises(lab.NormalizationError):
            lab.overlap_integrals(scaled, lab.SourceGeometry(0.0, 1.0))


class TestFoldedOverlaps:
    """Even PSFs fold the overlaps onto the centroid half-window, in stacked blocks."""

    psf = lab.gaussian_psf(1.0)
    separations = np.geomspace(3e-6, 60.0, 40)

    def test_only_psfs_known_to_be_even_fold(self):
        x = np.linspace(-10.0, 10.0, 2001)
        user = lab.user_psf_from_samples(x, self.psf.amplitude(x))
        fields = lab.PointSpreadFunction(
            self.psf.kind, 1.0, self.psf.amplitude, self.psf.amplitude_derivative
        )
        assert self.psf.even and fields.even and not user.even
        # Derived from the kind, not a field a caller could set.
        assert "even" not in {field.name for field in dataclasses.fields(fields)}

    # Rules and the widest separation each one converges at.
    rules = [
        (lab.QuadratureSpec(), 400.0),
        (lab.QuadratureSpec(panel_count=7, nodes_per_panel=24, abs_tolerance=1e-10), 60.0),
        (lab.QuadratureSpec(panel_count=24, nodes_per_panel=16), 60.0),
    ]

    def test_the_ladder_doubles_up_to_the_top_pair(self):
        ladders = {
            1: (1, 2), 2: (1, 2), 3: (2, 4), 4: (2, 4), 6: (3, 6), 7: (4, 8), 8: (4, 8),
            12: (6, 12), 16: (4, 8, 16), 24: (6, 12, 24), 32: (4, 8, 16, 32), 33: (17, 34),
            64: (4, 8, 16, 32, 64),
        }
        for panel_count, ladder in ladders.items():
            assert quadrature_ladder(lab.QuadratureSpec(panel_count=panel_count)) == ladder

    @pytest.mark.parametrize("quad, widest", rules)
    @pytest.mark.parametrize("block_samples", [1, 1100, psf_core.BLOCK_SAMPLES])
    def test_stacked_rows_equal_single_calls(
        self, quad, widest, block_samples, monkeypatch, rung_log
    ):
        monkeypatch.setattr(psf_core, "BLOCK_SAMPLES", block_samples)
        points = [
            (0.3 * index - 4.0, theta2)
            for index, theta2 in enumerate(np.geomspace(3e-6, widest, 100).tolist())
        ]
        singles = [
            list(dataclasses.astuple(lab.overlap_integrals(self.psf, lab.SourceGeometry(*p), quad)))
            for p in points
        ]
        single_rungs = np.concatenate(rung_log)
        lengths = (1, 2, 4, 6, len(points))
        # With smaller blocks, the sweep spans blocks of its first pass and ends in a ragged one.
        size = block_size(quad, quadrature_ladder(quad)[0])
        assert block_samples == 16384 or size == 1 or len(points) % size
        for length in lengths:
            for start in range(0, len(points), length):
                chunk = slice(start, start + length)
                columns = psf_core.overlap_columns(self.psf, points[chunk], quad)
                assert columns.T.tolist() == singles[chunk]
                # Each row settles on its own rung, whatever rows share its blocks.
                np.testing.assert_array_equal(rung_log[-1], single_rungs[chunk])
        # Rows of different rungs share the sweep wherever the ladder has more than one pair.
        assert len(set(single_rungs.tolist())) == len(quadrature_ladder(quad)) - 1

    def test_folded_and_full_window_routes_agree(self):
        # The same Gaussian under a kind not known to be even is integrated
        # over the full window [X1 - R sigma, X2 + R sigma].
        full = lab.PointSpreadFunction(
            USER_DEFINED, 1.0, self.psf.amplitude, self.psf.amplitude_derivative
        )
        for theta2 in self.separations:
            geometry = lab.SourceGeometry(0.0, float(theta2))
            folded = lab.overlap_integrals(self.psf, geometry)
            window = lab.overlap_integrals(full, geometry)
            for name in ("kappa", "gamma", "beta", "delta"):
                assert abs(getattr(folded, name) - getattr(window, name)) <= 4e-15

    @pytest.mark.parametrize(
        "odd, nodes, converged, unconverged", [(1, 32, 1.0, 10.0), (3, 16, 1.0, 5.0)]
    )
    def test_odd_panel_count_is_refined_as_the_next_even_one(
        self, odd, nodes, converged, unconverged
    ):
        # ceil(P/2) panels against 2 ceil(P/2): even P = 1 compares one panel
        # with two, so a rule too coarse for a wide window raises.
        odd_quad = lab.QuadratureSpec(panel_count=odd, nodes_per_panel=nodes)
        even_quad = dataclasses.replace(odd_quad, panel_count=odd + 1)
        geometry = lab.SourceGeometry(0.0, converged)
        assert lab.overlap_integrals(self.psf, geometry, odd_quad) == lab.overlap_integrals(
            self.psf, geometry, even_quad
        )
        messages = []
        for quad in (odd_quad, even_quad):
            with pytest.raises(lab.ConvergenceError, match="^quadrature drift") as raised:
                lab.overlap_integrals(self.psf, lab.SourceGeometry(0.0, unconverged), quad)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_stacked_drift_failure_names_its_sweep_row(self):
        # 64 samples per geometry on the top pass of this rule: the first failing
        # geometry, two rows past the first block, lies in the second.
        quad = lab.QuadratureSpec(panel_count=4, nodes_per_panel=16)
        size = block_size(quad, quadrature_ladder(quad)[-1])
        assert size == psf_core.BLOCK_SAMPLES // 64
        separations = [*np.linspace(0.1, 1.0, size + 2).tolist(), 5.0, 10.0]
        with pytest.raises(lab.ConvergenceError) as single:
            lab.overlap_integrals(self.psf, lab.SourceGeometry(0.0, separations[size + 2]), quad)
        with pytest.raises(lab.ConvergenceError) as stacked:
            psf_core.overlap_columns(self.psf, [(0.0, theta2) for theta2 in separations], quad)
        assert str(stacked.value) == f"row {size + 2}: " + str(single.value)

    def test_a_row_that_climbs_is_named_by_its_sweep_row(self, rung_log):
        # Rows settle on rungs 1, 2 and 3; the failing row is the second of the
        # rows left on the top pass, six rows into the sweep.
        separations = (0.1, 1.0, 150.0, 4.0, 300.0, 8.0, 1000.0, 2000.0)
        points = [(0.0, theta2) for theta2 in separations]
        psf_core.overlap_columns(self.psf, points[:6])
        assert rung_log[-1].tolist() == [1, 1, 2, 1, 3, 1]
        with pytest.raises(lab.ConvergenceError) as single:
            lab.overlap_integrals(self.psf, lab.SourceGeometry(*points[6]))
        with pytest.raises(lab.ConvergenceError) as stacked:
            psf_core.overlap_columns(self.psf, points)
        assert str(stacked.value) == "row 6: " + str(single.value)
        # The top pair is the rule every row took before the ladder: the same message.
        assert str(single.value) == (
            "quadrature drift 1.374e-03 exceeds tolerance 1.000e-12 on [-512, 512]"
        )

    def test_a_row_climbs_past_pairs_that_fail_its_checks(self, rung_log):
        # At 150 sigma the pair (4, 8) drifts beyond tolerance; (8, 16) agrees.
        geometry = lab.SourceGeometry(0.0, 150.0)
        coarse = lab.QuadratureSpec(panel_count=8)
        assert quadrature_ladder(coarse) == (4, 8)
        with pytest.raises(lab.ConvergenceError, match="^quadrature drift"):
            lab.overlap_integrals(self.psf, geometry, coarse)
        settled = lab.overlap_integrals(self.psf, geometry)
        assert rung_log[-1].tolist() == [2]
        top = lab.QuadratureSpec(panel_count=16)
        assert settled == lab.overlap_integrals(self.psf, geometry, top)
        closed = lab.gaussian_overlap_integrals(1.0, 150.0)
        for name in ("kappa", "gamma", "beta", "delta"):
            assert abs(getattr(settled, name) - getattr(closed, name)) <= 1e-12


    def test_near_coincident_separations_start_on_the_top_pair(self, monkeypatch):
        # Below NEAR_COINCIDENCE sigma a row runs the top pair only, the rule
        # every row took before the ladder, so its overlaps are that rule's;
        # the rest of this scan runs the pair (4, 8) and settles there.
        quad = lab.QuadratureSpec()
        separations = np.geomspace(1e-5, 0.03, 1500)
        near = separations < psf_core.NEAR_COINCIDENCE
        first = psf_core.first_passes(self.psf, separations, quad)
        np.testing.assert_array_equal(first, np.where(near, 2, 0))
        taken, original = np.zeros((4, separations.size), bool), psf_core.overlap_passes

        def recording(*args, **kwargs):
            for index, rows, *block in original(*args, **kwargs):
                taken[index, rows] = True
                yield index, rows, *block

        monkeypatch.setattr(psf_core, "overlap_passes", recording)
        overlaps = psf_core.overlap_columns(self.psf, [(0.0, t) for t in separations], quad)
        assert (taken[:, near].T == [False, False, True, True]).all()
        assert (taken[:, ~near].T == [True, True, False, False]).all()
        # eta3^2 = kappa + beta - gamma^2/(1 - delta) cancels near coincidence,
        # and the overlaps' rounding, times about 4/theta2^2, can leave it
        # negative: the top pair's do at a few separations below 0.007 sigma,
        # and none of the separations above NEAR_COINCIDENCE does.
        degenerate = []
        for theta2, column in zip(separations.tolist(), overlaps.T.tolist()):
            try:
                lab.incompatibility(lab.OverlapIntegrals(*column))
            except lab.DegenerateStateError:
                degenerate.append(theta2)
        assert max(degenerate, default=0.0) < psf_core.NEAR_COINCIDENCE


class TestDisplacedOverlaps:
    def test_reduces_to_named_overlaps_at_separation(self):
        psf = lab.gaussian_psf(1.0)
        closed = lab.gaussian_overlap_integrals(1.0, 1.4)
        a, b, c = displaced_overlaps(psf, 1.4)
        np.testing.assert_allclose(a, closed.delta, atol=1e-12)
        np.testing.assert_allclose(b, closed.gamma, atol=1e-12)
        np.testing.assert_allclose(c, closed.beta, atol=1e-12)

    def test_zero_shift(self):
        psf = lab.gaussian_psf(1.0)
        a, b, c = displaced_overlaps(psf, 0.0)
        np.testing.assert_allclose(a, 1.0, atol=1e-13)
        np.testing.assert_allclose(b, 0.0, atol=1e-13)
        np.testing.assert_allclose(c, 0.25, atol=1e-13)

    def test_negative_shift_symmetry(self):
        # For an even PSF: a is even in s, b is odd, c is even.
        psf = lab.gaussian_psf(1.0)
        ap, bp, cp = displaced_overlaps(psf, 0.9)
        am, bm, cm = displaced_overlaps(psf, -0.9)
        np.testing.assert_allclose(am, ap, atol=1e-12)
        np.testing.assert_allclose(bm, -bp, atol=1e-12)
        np.testing.assert_allclose(cm, cp, atol=1e-12)


class TestUserDefinedPsf:
    def _gaussian_samples(self, step=0.01, half_width=10.0):
        x = np.arange(-half_width, half_width + step / 2, step)
        return x, lab.gaussian_psf(1.0).amplitude(x)

    def test_round_trip_overlaps(self):
        x, y = self._gaussian_samples()
        user = lab.user_psf_from_samples(x, y)
        quad = lab.QuadratureSpec(abs_tolerance=1e-8)
        ov = lab.overlap_integrals(user, lab.SourceGeometry(0.0, 1.0), quad)
        closed = lab.gaussian_overlap_integrals(1.0, 1.0)
        np.testing.assert_allclose(ov.kappa, closed.kappa, atol=1e-8)
        np.testing.assert_allclose(ov.gamma, closed.gamma, atol=1e-8)
        np.testing.assert_allclose(ov.beta, closed.beta, atol=1e-8)
        np.testing.assert_allclose(ov.delta, closed.delta, atol=1e-8)

    def test_spline_overlaps_are_pinned(self):
        # Values from the two-spline evaluation; a spline PSF has no joint form.
        x, y = self._gaussian_samples()
        user = lab.user_psf_from_samples(x, y)
        assert user.joint is None
        quad = lab.QuadratureSpec(abs_tolerance=1e-8)
        assert lab.overlap_integrals(user, lab.SourceGeometry(0.3, 1.7), quad) == (
            lab.OverlapIntegrals(
                kappa=0.24999999983775467,
                gamma=-0.2961420295309079,
                beta=0.04834083137533297,
                delta=0.6968047754974769,
            )
        )

    def test_default_sigma_is_rms_width(self):
        x, y = self._gaussian_samples()
        user = lab.user_psf_from_samples(x, y)
        np.testing.assert_allclose(user.sigma, 1.0, atol=1e-6)
        assert user.kind == "user_defined"

    def test_explicit_derivative_samples(self):
        x, y = self._gaussian_samples()
        dy = lab.gaussian_psf(1.0).amplitude_derivative(x)
        user = lab.user_psf_from_samples(x, y, derivative=dy)
        probe = np.linspace(-3.0, 3.0, 17)
        np.testing.assert_allclose(
            user.amplitude_derivative(probe),
            lab.gaussian_psf(1.0).amplitude_derivative(probe),
            atol=1e-9,
        )

    def test_finite_difference_derivative_accuracy(self):
        x, y = self._gaussian_samples()
        user = lab.user_psf_from_samples(x, y)
        probe = np.linspace(-3.0, 3.0, 17)
        np.testing.assert_allclose(
            user.amplitude_derivative(probe),
            lab.gaussian_psf(1.0).amplitude_derivative(probe),
            atol=1e-7,
        )

    def test_zero_outside_sample_window(self):
        x, y = self._gaussian_samples(half_width=5.0)
        user = lab.user_psf_from_samples(x, y)
        np.testing.assert_allclose(user.amplitude([-7.0, 6.0, 100.0]), 0.0)
        np.testing.assert_allclose(
            user.amplitude_derivative([-7.0, 6.0, 100.0]), 0.0
        )

    @pytest.mark.parametrize(
        "positions, amplitudes",
        [
            ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),  # too few samples
            ([0.0, 1.0, 1.5, 3.0, 4.0], [1.0] * 5),  # nonuniform spacing
            ([0.0, 1.0, 1.0, 2.0, 3.0], [1.0] * 5),  # not strictly increasing
            ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 1.0, 1.0, 1.0]),
        ],
    )
    def test_rejects_bad_sample_grids(self, positions, amplitudes):
        with pytest.raises(ValueError):
            lab.user_psf_from_samples(positions, amplitudes)

    def test_rejects_all_zero_amplitudes(self):
        x = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(ValueError):
            lab.user_psf_from_samples(x, np.zeros_like(x))

    def test_load_from_file(self, tmp_path):
        x, y = self._gaussian_samples(step=0.02)
        path = tmp_path / "psf.txt"
        header = "# position amplitude\n"
        body = "\n".join(f"{xi:.17g} {yi:.17g}" for xi, yi in zip(x, y))
        path.write_text(header + body + "\n")
        user = lab.load_user_psf(path)
        np.testing.assert_allclose(user.sigma, 1.0, atol=1e-5)
        probe = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(
            user.amplitude(probe),
            lab.gaussian_psf(1.0).amplitude(probe),
            atol=1e-9,
        )

    def test_load_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 2.0\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError):
            lab.load_user_psf(path)
