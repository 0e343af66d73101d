"""Tests for the measurement models and the classical-information pipeline.

Independent oracles used here: scipy's Poisson pmf for the mode-sorting
probabilities, the Gaussian closed-form QFIM for regret baselines, and
direct Gauss-Legendre sums for mode orthonormality.
"""

import math

import numpy as np
import pytest
from scipy.stats import poisson

import irtr_lab as lab
from irtr_lab.measurements import CONTINUUM_GRID, DISCRETE_MODES, SUBSPACE_PROJECTORS
from irtr_lab.psf_core import quadrature_grid


def gaussian_setup(theta1, theta2, sigma=1.0):
    psf = lab.gaussian_psf(sigma)
    geo = lab.SourceGeometry(theta1, theta2)
    fisher = lab.qfim(lab.gaussian_overlap_integrals(sigma, theta2))
    return psf, geo, fisher


class TestProbabilityModelContainer:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                outcome_kind="histogram",
                probabilities=[1.0],
                dp_dtheta1=[0.0],
                dp_dtheta2=[0.0],
            )

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                outcome_kind=DISCRETE_MODES,
                probabilities=[1.1, -0.1],
                dp_dtheta1=[0.0, 0.0],
                dp_dtheta2=[0.0, 0.0],
            )

    def test_rejects_mass_deficit(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                outcome_kind=DISCRETE_MODES,
                probabilities=[0.5, 0.4],
                dp_dtheta1=[0.0, 0.0],
                dp_dtheta2=[0.0, 0.0],
            )

    def test_truncated_mass_completes_the_budget(self):
        model = lab.ProbabilityModel(
            outcome_kind=DISCRETE_MODES,
            probabilities=[0.6, 0.4 - 1e-12],
            dp_dtheta1=[0.0, 0.0],
            dp_dtheta2=[0.0, 0.0],
            truncated_mass=1e-12,
        )
        assert model.truncated_mass == 1e-12

    def test_rejects_derivative_drift(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                outcome_kind=DISCRETE_MODES,
                probabilities=[0.5, 0.5],
                dp_dtheta1=[0.1, 0.1],
                dp_dtheta2=[0.0, 0.0],
            )

    @pytest.mark.parametrize(
        "probabilities, dp_dtheta1, weights",
        [
            ([math.nan, math.nan], [0.0, 0.0], None),
            ([0.5, math.nan], [0.0, 0.0], None),
            ([0.5, math.inf], [0.0, 0.0], None),
            ([0.5, 0.5], [math.nan, 0.0], None),
            ([0.5, 0.5], [math.inf, 0.0], None),
            ([0.5, 0.5], [0.0, 0.0], [1.0, math.nan]),
        ],
    )
    def test_rejects_non_finite_entries(self, probabilities, dp_dtheta1, weights):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                outcome_kind=CONTINUUM_GRID if weights else DISCRETE_MODES,
                probabilities=probabilities,
                dp_dtheta1=dp_dtheta1,
                dp_dtheta2=[0.0, 0.0],
                weights=weights,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                outcome_kind=DISCRETE_MODES,
                probabilities=[0.5, 0.5],
                dp_dtheta1=[0.0, 0.0, 0.0],
                dp_dtheta2=[0.0, 0.0],
            )


class TestDirectImaging:
    def test_unit_mass_and_kind(self):
        psf, geo, _ = gaussian_setup(0.0, 1.0)
        model = lab.direct_imaging_model(psf, geo)
        assert model.outcome_kind == CONTINUUM_GRID
        np.testing.assert_allclose(
            np.sum(model.weights * model.probabilities), 1.0, atol=1e-12
        )

    def test_fisher_matrix_symmetric_psd(self):
        psf, geo, _ = gaussian_setup(0.4, 0.8)
        matrix = lab.fim(lab.direct_imaging_model(psf, geo))
        assert matrix.shape == (2, 2)
        np.testing.assert_allclose(matrix, matrix.T)
        assert np.all(np.linalg.eigvalsh(matrix) >= 0.0)

    def test_small_separation_loses_the_separation(self):
        psf, geo, fisher = gaussian_setup(0.0, 0.1)
        report = lab.regret_report(lab.fim(lab.direct_imaging_model(psf, geo)), fisher)
        assert report.delta2 >= 0.9
        assert report.delta1 <= 0.05

    def test_large_separation_recovers_both(self):
        psf, geo, fisher = gaussian_setup(0.0, 8.0)
        report = lab.regret_report(lab.fim(lab.direct_imaging_model(psf, geo)), fisher)
        assert report.delta1 <= 0.1
        assert report.delta2 <= 0.1

    def test_approaches_qfim_at_large_separation(self):
        psf, geo, fisher = gaussian_setup(0.0, 8.0)
        matrix = lab.fim(lab.direct_imaging_model(psf, geo))
        for j in range(2):
            np.testing.assert_allclose(
                matrix[j, j], fisher.matrix[j, j], rtol=0.05
            )


class TestDirectImagingPixelated:
    def test_unit_mass_discrete_kind(self):
        psf, geo, _ = gaussian_setup(0.0, 1.0)
        model = lab.direct_imaging_pixelated_model(psf, geo, 0.25)
        assert model.outcome_kind == DISCRETE_MODES
        assert model.weights is None
        np.testing.assert_allclose(np.sum(model.probabilities), 1.0, atol=1e-12)

    def test_fine_pixels_approach_continuum(self):
        psf, geo, _ = gaussian_setup(0.0, 1.0)
        fine = lab.fim(lab.direct_imaging_pixelated_model(psf, geo, 0.05))
        continuum = lab.fim(lab.direct_imaging_model(psf, geo))
        np.testing.assert_allclose(fine, continuum, rtol=1e-3)

    def test_coarse_pixels_lose_information(self):
        psf, geo, fisher = gaussian_setup(0.0, 1.0)
        coarse = lab.fim(lab.direct_imaging_pixelated_model(psf, geo, 1.0))
        continuum = lab.fim(lab.direct_imaging_model(psf, geo))
        assert coarse[0, 0] < continuum[0, 0]
        assert coarse[1, 1] < continuum[1, 1]
        report = lab.regret_report(coarse, fisher)
        assert 0.0 <= report.delta1 <= 1.0
        assert 0.0 <= report.delta2 <= 1.0

    def test_rejects_nonpositive_bin_width(self):
        psf, geo, _ = gaussian_setup(0.0, 1.0)
        with pytest.raises(ValueError):
            lab.direct_imaging_pixelated_model(psf, geo, 0.0)

    def test_truncation_radius_does_not_move_the_pixels(self):
        # R is a numerical window: 12, 12.3 and 12.5 sigma all need 13 pixels
        # of 1 sigma on each side of the centroid, so the detector and its
        # Fisher information must be the same, bit for bit.
        psf, geo, _ = gaussian_setup(0.0, 0.1)
        matrices = [
            lab.fim(
                lab.direct_imaging_pixelated_model(
                    psf, geo, 1.0, lab.QuadratureSpec(truncation_radius=radius)
                )
            )
            for radius in (12.0, 12.3, 12.5)
        ]
        for matrix in matrices[1:]:
            np.testing.assert_array_equal(matrix, matrices[0])


class TestSpadeModel:
    def test_aligned_keeps_full_separation_information(self):
        for sigma in (1.0, 2.0):
            geo = lab.SourceGeometry(0.0, 0.1 * sigma)
            matrix = lab.fim(lab.spade_model(sigma, geo))
            assert abs(matrix[1, 1] - 0.25 / sigma**2) <= 1e-8

    def test_aligned_centroid_derivative_is_exactly_zero(self):
        # x1 = -x2 bitwise at theta1 = 0, so the two sources' contributions
        # cancel term by term, not merely to rounding.
        model = lab.spade_model(1.0, lab.SourceGeometry(0.0, 0.3))
        assert np.all(model.dp_dtheta1 == 0.0)

    def test_probabilities_are_poisson_mixture(self):
        geo = lab.SourceGeometry(1.0, 0.6)
        model = lab.spade_model(1.0, geo)
        q = np.arange(model.probabilities.size)
        mixture = 0.5 * (
            poisson.pmf(q, (geo.x1 / 2.0) ** 2) + poisson.pmf(q, (geo.x2 / 2.0) ** 2)
        )
        np.testing.assert_allclose(model.probabilities, mixture, atol=1e-14)

    def test_far_field_single_poisson_limit(self):
        # Nearly coincident sources far off axis: outcome distribution tends
        # to one Poisson with mean (theta1 / 2 sigma)^2 = 25.
        model = lab.spade_model(1.0, lab.SourceGeometry(10.0, 1e-3))
        q = np.arange(model.probabilities.size)
        np.testing.assert_allclose(model.probabilities, poisson.pmf(q, 25.0), atol=1e-6)

    def test_explicit_cutoff_matches_adaptive(self):
        geo = lab.SourceGeometry(1.0, 0.6)
        adaptive = lab.spade_model(1.0, geo)
        explicit = lab.spade_model(1.0, geo, mode_cutoff=adaptive.probabilities.size - 1)
        np.testing.assert_array_equal(explicit.probabilities, adaptive.probabilities)
        np.testing.assert_array_equal(explicit.dp_dtheta1, adaptive.dp_dtheta1)
        np.testing.assert_array_equal(explicit.dp_dtheta2, adaptive.dp_dtheta2)

    def test_tail_bounds_are_reported(self):
        model = lab.spade_model(1.0, lab.SourceGeometry(1.0, 0.6))
        assert 0.0 < model.truncated_mass < 1e-14
        assert 0.0 < model.fisher_tail_bound <= 1e-13

    def test_undersized_cutoff_raises(self):
        with pytest.raises(lab.CutoffError):
            lab.spade_model(1.0, lab.SourceGeometry(10.0, 0.5), mode_cutoff=5)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            lab.spade_model(0.0, lab.SourceGeometry(0.0, 1.0))

    def test_outcome_kind(self):
        model = lab.spade_model(1.0, lab.SourceGeometry(0.0, 0.5))
        assert model.outcome_kind == DISCRETE_MODES


class TestHermiteGaussianModes:
    def test_orthonormal(self):
        sigma = 1.0
        x, w = quadrature_grid(-16.0, 16.0, 32, 32)
        modes = np.stack(
            [lab.hermite_gaussian_wavefunction(q, sigma, x) for q in range(11)]
        )
        gram = (modes * w) @ modes.T
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-8)

    def test_lowest_mode_is_the_psf(self):
        x = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_allclose(
            lab.hermite_gaussian_wavefunction(0, 1.3, x),
            lab.gaussian_psf(1.3).amplitude(x),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("q", range(6))
    def test_displaced_psf_overlap_identity(self, q):
        # <phi_q | psi(. - X)> = exp(-a^2/2) a^q / sqrt(q!) with a = X/2 sigma.
        sigma, shift = 1.0, 1.0
        a = shift / (2.0 * sigma)
        x, w = quadrature_grid(-14.0, 15.0, 40, 32)
        phi = lab.hermite_gaussian_wavefunction(q, sigma, x)
        psi = lab.gaussian_psf(sigma).amplitude(x - shift)
        expected = math.exp(-0.5 * a * a) * a**q / math.sqrt(math.factorial(q))
        np.testing.assert_allclose((phi * psi) @ w, expected, atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lab.hermite_gaussian_wavefunction(-1, 1.0, 0.0)
        with pytest.raises(ValueError):
            lab.hermite_gaussian_wavefunction(2, 0.0, 0.0)


class TestHaarRandomOrthogonal:
    def test_matrix_is_orthogonal(self):
        meas = lab.haar_random_orthogonal(11)
        residual = meas.matrix.T @ meas.matrix - np.eye(4)
        assert np.max(np.abs(residual)) <= 1e-12

    def test_integer_seed_reproducible(self):
        first = lab.haar_random_orthogonal(123)
        second = lab.haar_random_orthogonal(123)
        np.testing.assert_array_equal(first.matrix, second.matrix)
        assert first.seed == 123

    def test_different_seeds_differ(self):
        a = lab.haar_random_orthogonal(1).matrix
        b = lab.haar_random_orthogonal(2).matrix
        assert np.max(np.abs(a - b)) > 1e-3

    def test_generator_stream_tagging(self):
        rng = np.random.default_rng(5)
        assert lab.haar_random_orthogonal(rng).seed == -1
        rng = np.random.default_rng(5)
        tagged = lab.haar_random_orthogonal(rng, seed=42)
        assert tagged.seed == 42

    def test_both_determinant_signs_occur(self):
        signs = {
            float(np.sign(np.linalg.det(lab.haar_random_orthogonal(s).matrix)))
            for s in range(20)
        }
        assert signs == {1.0, -1.0}

    def test_first_entry_second_moment(self):
        # Haar columns are uniform on S^3, so E[O_00^2] = 1/4.
        rng = np.random.default_rng(2026)
        draws = 10_000
        total = 0.0
        for _ in range(draws):
            total += lab.haar_random_orthogonal(rng).matrix[0, 0] ** 2
        assert abs(total / draws - 0.25) < 0.0075

    def test_other_dimensions(self):
        meas = lab.haar_random_orthogonal(0, dim=2)
        assert meas.matrix.shape == (2, 2)
        with pytest.raises(ValueError):
            lab.haar_random_orthogonal(0, dim=1)

    def test_container_rejects_nonorthogonal(self):
        with pytest.raises(ValueError):
            lab.ProjectiveMeasurement4(matrix=np.eye(4) * 1.001, seed=0)


class TestProjectiveModel:
    def test_identity_measurement_reads_rho_diagonal(self):
        overlaps = lab.gaussian_overlap_integrals(1.0, 1.0)
        state = lab.build_state_model(overlaps)
        model = lab.projective_model(
            state, lab.ProjectiveMeasurement4(matrix=np.eye(4), seed=0)
        )
        assert model.outcome_kind == SUBSPACE_PROJECTORS
        np.testing.assert_allclose(model.probabilities, np.diag(state.rho), atol=1e-15)
        # The centroid SLD is purely off-diagonal, so identity outcomes carry
        # no centroid information; the separation derivative has the closed
        # form (-gamma/2, gamma/2, 0, 0).
        np.testing.assert_allclose(model.dp_dtheta1, 0.0, atol=1e-15)
        np.testing.assert_allclose(
            model.dp_dtheta2,
            [-overlaps.gamma / 2.0, overlaps.gamma / 2.0, 0.0, 0.0],
            atol=1e-15,
        )

    def test_probabilities_never_negative(self):
        state = lab.build_state_model(lab.gaussian_overlap_integrals(1.0, 0.05))
        for seed in range(50):
            model = lab.projective_model(state, lab.haar_random_orthogonal(seed))
            assert np.all(model.probabilities >= 0.0)

    def test_row_permutation_permutes_outcomes(self):
        state = lab.build_state_model(lab.gaussian_overlap_integrals(1.0, 1.0))
        base = lab.haar_random_orthogonal(9)
        order = [2, 0, 3, 1]
        permuted = lab.ProjectiveMeasurement4(matrix=base.matrix[order], seed=9)
        first = lab.projective_model(state, base)
        second = lab.projective_model(state, permuted)
        np.testing.assert_allclose(
            second.probabilities, first.probabilities[order], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            second.dp_dtheta1, first.dp_dtheta1[order], rtol=0, atol=1e-15
        )

    def test_dimension_mismatch_raises(self):
        state = lab.build_state_model(lab.gaussian_overlap_integrals(1.0, 1.0))
        with pytest.raises(ValueError):
            lab.projective_model(
                state, lab.haar_random_orthogonal(0, dim=2)
            )


class TestFisherInformation:
    def test_zero_derivatives_give_zero_information(self):
        model = lab.ProbabilityModel(
            outcome_kind=DISCRETE_MODES,
            probabilities=[0.25] * 4,
            dp_dtheta1=[0.0] * 4,
            dp_dtheta2=[0.0] * 4,
        )
        np.testing.assert_array_equal(lab.fim(model), np.zeros((2, 2)))

    def test_hand_computed_two_outcome_value(self):
        model = lab.ProbabilityModel(
            outcome_kind=DISCRETE_MODES,
            probabilities=[0.5, 0.5, 1e-18],
            dp_dtheta1=[0.05, -0.05, 0.0],
            dp_dtheta2=[0.1, -0.1, 0.0],
        )
        expected = np.array([[0.01, 0.02], [0.02, 0.04]])
        np.testing.assert_allclose(lab.fim(model), expected, rtol=1e-14)

    def test_divergent_excluded_outcome_raises(self):
        model = lab.ProbabilityModel(
            outcome_kind=DISCRETE_MODES,
            probabilities=[0.5, 0.5, 0.0],
            dp_dtheta1=[0.05, -0.1, 0.05],
            dp_dtheta2=[0.1, -0.1, 0.0],
        )
        with pytest.raises(lab.DegenerateOutcomeError):
            lab.fim(model)

    def test_weighted_continuum_matches_plain_sum(self):
        psf, geo, _ = gaussian_setup(0.0, 1.0)
        model = lab.direct_imaging_model(psf, geo)
        keep = model.probabilities > 1e-15 * np.max(model.probabilities)
        expected = np.zeros((2, 2))
        grads = (model.dp_dtheta1, model.dp_dtheta2)
        for j in range(2):
            for k in range(2):
                expected[j, k] = np.sum(
                    model.weights[keep]
                    * grads[j][keep]
                    * grads[k][keep]
                    / model.probabilities[keep]
                )
        np.testing.assert_allclose(lab.fim(model), expected, rtol=1e-14)

    def test_odd_outcome_count_with_dropped_outcome_matches_plain_sum(self):
        probabilities = np.array([0.1, 0.0, 0.25, 0.3, 0.35])
        dp1 = np.array([0.2, 0.0, -0.05, 0.1, -0.25])
        dp2 = np.array([-0.3, 0.0, 0.2, 0.15, -0.05])
        model = lab.ProbabilityModel(
            outcome_kind=DISCRETE_MODES,
            probabilities=probabilities,
            dp_dtheta1=dp1,
            dp_dtheta2=dp2,
        )
        keep = probabilities > 0.0
        grads = (dp1[keep], dp2[keep])
        expected = np.array(
            [[np.sum(gj * gk / probabilities[keep]) for gk in grads] for gj in grads]
        )
        np.testing.assert_allclose(lab.fim(model), expected, rtol=1e-14)

    @pytest.mark.parametrize("theta1", [0.0, 0.37, 2.0])
    @pytest.mark.parametrize("bin_width", [None, 0.05, 0.25, 0.3, 1.0])
    def test_parity_makes_the_cross_term_exactly_zero(self, theta1, bin_width):
        # For an even PSF, p is even and dp/dtheta1 odd about the centroid,
        # so F12 vanishes; the mirror-paired sum must give 0.0, not roundoff.
        psf = lab.gaussian_psf(1.0)
        for theta2 in np.logspace(-3.0, 1.0, 40):
            geo = lab.SourceGeometry(theta1, float(theta2))
            if bin_width is None:
                model = lab.direct_imaging_model(psf, geo)
            else:
                model = lab.direct_imaging_pixelated_model(psf, geo, bin_width)
            matrix = lab.fim(model)
            assert matrix[0, 1] == 0.0, (theta2, matrix[0, 1])
            assert matrix[1, 0] == 0.0, (theta2, matrix[1, 0])


class TestRegretReport:
    def setup_method(self):
        self.qfim = lab.qfim(lab.gaussian_overlap_integrals(1.0, 1.0))

    def test_perfect_measurement_has_zero_regret(self):
        report = lab.regret_report(self.qfim.matrix.copy(), self.qfim)
        assert report.delta1 == 0.0 and report.delta2 == 0.0
        np.testing.assert_array_equal(report.regret, np.zeros((2, 2)))

    def test_uninformative_measurement_has_unit_regret(self):
        report = lab.regret_report(np.zeros((2, 2)), self.qfim)
        np.testing.assert_allclose([report.delta1, report.delta2], 1.0, rtol=1e-15)

    def test_accepts_plain_arrays(self):
        report = lab.regret_report(np.zeros((2, 2)), self.qfim.matrix)
        np.testing.assert_allclose(report.delta1, 1.0, rtol=1e-15)

    def test_roundoff_overshoot_clamps_to_zero(self):
        overshoot = self.qfim.matrix + 5e-10 * np.eye(2)
        report = lab.regret_report(overshoot, self.qfim)
        assert report.delta1 == 0.0 and report.delta2 == 0.0

    def test_diagonal_violation_raises(self):
        overshoot = self.qfim.matrix + 5e-9 * np.eye(2)
        with pytest.raises(lab.BoundViolationError):
            lab.regret_report(overshoot, self.qfim)

    def test_eigenvalue_violation_raises(self):
        skew = self.qfim.matrix + np.array([[0.0, 2e-3], [2e-3, 0.0]])
        with pytest.raises(lab.BoundViolationError):
            lab.regret_report(skew, self.qfim)

    def test_rejects_bad_qfim(self):
        with pytest.raises(ValueError):
            lab.regret_report(np.zeros((2, 2)), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            lab.regret_report(np.zeros((3, 3)), self.qfim)

    def test_delta_definition(self):
        # Half the information in each channel: delta_j = sqrt(1/2).
        half = 0.5 * self.qfim.matrix
        report = lab.regret_report(half, self.qfim)
        np.testing.assert_allclose(
            [report.delta1, report.delta2], math.sqrt(0.5), rtol=1e-12
        )
