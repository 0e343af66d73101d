"""Tests for the PSF layer.

The Gaussian closed forms double as quadrature oracles: every overlap the
composite Gauss-Legendre rule produces is checked against them, and the
frozen numeric values below were computed independently from the analytic
expressions before these tests were written.
"""

import math

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import psf_core
from irtr_lab.psf_core import displaced_overlaps, quadrature_grid

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
            {"panel_count": 0},
            {"nodes_per_panel": 0},
            {"abs_tolerance": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            lab.QuadratureSpec(**kwargs)

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
    @pytest.mark.parametrize("theta2", [0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_matches_closed_forms(self, theta2):
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
