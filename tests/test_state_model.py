"""Tests for the 4-dimensional state model, QFIM, and incompatibility scalars.

Frozen reference numbers were evaluated from the Gaussian closed forms
(independently of the code under test) and pinned here, so regressions in
either the quadrature or the matrix assembly surface as value drift.
"""

import math

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import psf_core, state_model
from irtr_lab.measurements import overlaps_and_direct_fims
from irtr_lab.psf_core import overlap_columns
from irtr_lab.state_model import c_tilde_column, c_tilde_from_overlaps, qfim_stack

DELTA_SIGMA1_SEP2 = 0.6065306597126334
F11_SIGMA1_SEP2 = 0.6321205588285577  # 1 - exp(-1)
C_TILDE_SEP_2SQRT2 = 0.43076821214066247
C_TILDE_SEP_001 = 0.9999749998437526
C_TILDE_SEP_01 = 0.9974984401102688
C_TILDE_SEP_8 = 0.005031943948705249
COMMUTATOR_SIGMA1_SEP1 = 0.6618726769384465  # 4 |beta(1, 1)|


def model_for(theta2, sigma=1.0):
    return lab.build_state_model(lab.gaussian_overlap_integrals(sigma, theta2))


class TestBuildStateModel:
    def test_rho_eigenvalues_at_sep2(self):
        model = model_for(2.0)
        expected = [
            0.5 * (1.0 - DELTA_SIGMA1_SEP2),
            0.5 * (1.0 + DELTA_SIGMA1_SEP2),
            0.0,
            0.0,
        ]
        np.testing.assert_allclose(np.diag(model.rho), expected, rtol=1e-14)

    def test_rho_is_diagonal_unit_trace(self):
        model = model_for(0.7)
        np.testing.assert_allclose(model.rho, np.diag(np.diag(model.rho)))
        np.testing.assert_allclose(np.trace(model.rho), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("theta2", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_sld_second_moments_reproduce_qfim(self, theta2):
        # tr(L_j^2 rho) must equal the QFIM diagonal; this ties the matrix
        # assembly to the scalar route through an independent identity.
        overlaps = lab.gaussian_overlap_integrals(1.0, theta2)
        model = lab.build_state_model(overlaps)
        fisher = lab.qfim(overlaps).matrix
        np.testing.assert_allclose(
            np.trace(model.L1 @ model.L1 @ model.rho), fisher[0, 0], rtol=1e-12
        )
        np.testing.assert_allclose(
            np.trace(model.L2 @ model.L2 @ model.rho), fisher[1, 1], rtol=1e-12
        )

    @pytest.mark.parametrize("theta2", [0.1, 1.0, 4.0])
    def test_sld_cross_moment_vanishes(self, theta2):
        model = model_for(theta2)
        mixed = model.L1 @ model.L2 + model.L2 @ model.L1
        assert abs(np.trace(mixed @ model.rho)) < 1e-14

    def test_slds_are_symmetric(self):
        model = model_for(1.3)
        np.testing.assert_allclose(model.L1, model.L1.T)
        np.testing.assert_allclose(model.L2, model.L2.T)

    def test_coincident_sources_raise(self):
        overlaps = lab.OverlapIntegrals(
            kappa=0.25, gamma=0.0, beta=0.0, delta=1.0 - 1e-13
        )
        with pytest.raises(lab.DegenerateStateError):
            lab.build_state_model(overlaps)

    def test_inconsistent_scalars_raise(self):
        # Passes the container's Cauchy-Schwarz slack but gives eta3^2 < 0.
        overlaps = lab.OverlapIntegrals(
            kappa=0.25, gamma=0.3, beta=-0.071, delta=0.5
        )
        with pytest.raises(lab.DegenerateStateError):
            lab.build_state_model(overlaps)


class TestStateModelContainer:
    def test_rejects_asymmetric_sld(self):
        model = model_for(1.0)
        bad = model.L1.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(ValueError):
            lab.StateModel4(
                rho=model.rho, L1=bad, L2=model.L2, eta3=model.eta3, eta4=model.eta4
            )

    def test_rejects_wrong_trace(self):
        model = model_for(1.0)
        with pytest.raises(ValueError):
            lab.StateModel4(
                rho=2.0 * model.rho,
                L1=model.L1,
                L2=model.L2,
                eta3=model.eta3,
                eta4=model.eta4,
            )

    def test_rejects_negative_norms(self):
        model = model_for(1.0)
        with pytest.raises(ValueError):
            lab.StateModel4(
                rho=model.rho, L1=model.L1, L2=model.L2, eta3=-0.1, eta4=model.eta4
            )


class TestQfim:
    def test_centroid_information_at_sep2(self):
        fisher = lab.qfim(lab.gaussian_overlap_integrals(1.0, 2.0)).matrix
        np.testing.assert_allclose(fisher[0, 0], F11_SIGMA1_SEP2, rtol=1e-13)

    @pytest.mark.parametrize("theta2", [0.05, 0.5, 2.0, 6.0])
    def test_separation_information_independent_of_separation(self, theta2):
        fisher = lab.qfim(lab.gaussian_overlap_integrals(1.0, theta2)).matrix
        np.testing.assert_allclose(fisher[1, 1], 0.25, rtol=1e-14)

    def test_diagonal(self):
        fisher = lab.qfim(lab.gaussian_overlap_integrals(1.0, 0.8)).matrix
        assert fisher[0, 1] == 0.0 and fisher[1, 0] == 0.0

    def test_quadrature_route_agrees(self):
        psf = lab.gaussian_psf(1.0)
        quad_f = lab.qfim(lab.overlap_integrals(psf, lab.SourceGeometry(0.0, 1.0)))
        closed_f = lab.qfim(lab.gaussian_overlap_integrals(1.0, 1.0))
        np.testing.assert_allclose(quad_f.matrix, closed_f.matrix, atol=1e-11)

    def test_container_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            lab.Qfim(matrix=np.diag([0.0, 0.25]))
        with pytest.raises(ValueError):
            lab.Qfim(matrix=np.diag([1.0, -0.25]))


class TestIncompatibility:
    def test_matches_closed_form_route(self):
        for theta2 in (0.1, 1.0, 2.8, 5.0):
            quad_c = lab.incompatibility(
                lab.gaussian_overlap_integrals(1.0, theta2)
            ).c_tilde
            closed_c = lab.gaussian_incompatibility(1.0, theta2)
            np.testing.assert_allclose(quad_c, closed_c, atol=1e-12)

    def test_frozen_values(self):
        np.testing.assert_allclose(
            lab.gaussian_incompatibility(1.0, 2.0 * math.sqrt(2.0)),
            C_TILDE_SEP_2SQRT2,
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            lab.gaussian_incompatibility(1.0, 0.01), C_TILDE_SEP_001, rtol=1e-13
        )
        np.testing.assert_allclose(
            lab.gaussian_incompatibility(1.0, 0.1), C_TILDE_SEP_01, rtol=1e-13
        )
        np.testing.assert_allclose(
            lab.gaussian_incompatibility(1.0, 8.0), C_TILDE_SEP_8, rtol=1e-13
        )

    def test_c_tilde_needs_no_state_model(self):
        for theta2 in (0.1, 1.0, 2.8, 5.0):
            overlaps = lab.gaussian_overlap_integrals(1.0, theta2)
            direct = c_tilde_from_overlaps(overlaps)
            assert direct == lab.incompatibility(overlaps).c_tilde
        # eta3^2 cancels to a negative here, so no state model can be built;
        # c_tilde never needed one.
        overlaps = lab.gaussian_overlap_integrals(1.0, 1e-3)
        with pytest.raises(lab.DegenerateStateError):
            lab.build_state_model(overlaps)
        expected = lab.gaussian_incompatibility(1.0, 1e-3)
        assert abs(c_tilde_from_overlaps(overlaps) - expected) <= 1e-12

    def test_commutator_expectation_vanishes_for_real_psf(self):
        rng = np.random.default_rng(20240817)
        for theta2 in rng.uniform(0.05, 8.0, size=20):
            coeffs = lab.incompatibility(lab.gaussian_overlap_integrals(1.0, theta2))
            assert coeffs.c == 0.0

    def test_degenerate_centroid_information_raises(self):
        overlaps = lab.OverlapIntegrals(kappa=0.25, gamma=0.5, beta=0.0, delta=0.3)
        with pytest.raises(lab.DegenerateStateError):
            lab.incompatibility(overlaps)

    def test_container_enforces_ordering(self):
        with pytest.raises(ValueError):
            lab.IncompatibilityCoefficients(c_tilde=0.2, c=0.5)
        with pytest.raises(ValueError):
            lab.IncompatibilityCoefficients(c_tilde=1.5, c=0.0)


class TestGaussianIncompatibility:
    def test_exactly_zero_at_two_sigma(self):
        assert lab.gaussian_incompatibility(1.0, 2.0) == 0.0
        assert lab.gaussian_incompatibility(0.5, 1.0) == 0.0

    def test_approaches_one_at_small_separation(self):
        assert 1.0 - lab.gaussian_incompatibility(1.0, 1e-6) < 1e-12

    def test_overflow_guard_returns_zero(self):
        assert lab.gaussian_incompatibility(1.0, 53.0) == 0.0

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            lab.gaussian_incompatibility(0.0, 1.0)
        with pytest.raises(ValueError):
            lab.gaussian_incompatibility(1.0, 0.0)


class TestCommutatorQuantity:
    @pytest.mark.parametrize("theta2", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_equals_four_beta(self, theta2):
        overlaps = lab.gaussian_overlap_integrals(1.0, theta2)
        value = lab.commutator_quantity(lab.build_state_model(overlaps))
        np.testing.assert_allclose(value, 4.0 * abs(overlaps.beta), atol=1e-12)

    def test_frozen_value_sep1(self):
        value = lab.commutator_quantity(model_for(1.0))
        np.testing.assert_allclose(value, COMMUTATOR_SIGMA1_SEP1, rtol=1e-12)

    @pytest.mark.parametrize("theta2", [0.3, 1.0, 2.5])
    def test_normalized_form_recovers_c_tilde(self, theta2):
        # Dividing by 2 sqrt(F11 F22) must reproduce c_tilde exactly: the
        # two quantities are computed through unrelated code paths.
        overlaps = lab.gaussian_overlap_integrals(1.0, theta2)
        fisher = lab.qfim(overlaps).matrix
        normalized = lab.commutator_quantity(lab.build_state_model(overlaps)) / (
            2.0 * math.sqrt(fisher[0, 0] * fisher[1, 1])
        )
        np.testing.assert_allclose(
            normalized, lab.incompatibility(overlaps).c_tilde, atol=1e-12
        )


class TestVerifySld:
    @pytest.mark.parametrize("theta2", [0.5, 1.0, 2.0, 4.0])
    def test_defining_equation_residual_small(self, theta2):
        psf = lab.gaussian_psf(1.0)
        residual = lab.verify_sld(psf, lab.SourceGeometry(0.0, theta2))
        assert residual < 1e-6

    def test_off_center_geometry(self):
        psf = lab.gaussian_psf(1.0)
        assert lab.verify_sld(psf, lab.SourceGeometry(2.0, 1.0)) < 1e-6

    def test_residual_scales_as_h_squared(self):
        psf = lab.gaussian_psf(1.0)
        geo = lab.SourceGeometry(0.0, 1.0)
        coarse = lab.verify_sld(psf, geo, h=1e-3)
        fine = lab.verify_sld(psf, geo, h=1e-4)
        ratio = coarse / fine
        assert 50.0 < ratio < 200.0

    def test_step_size_window(self):
        psf = lab.gaussian_psf(1.0)
        geo = lab.SourceGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            lab.verify_sld(psf, geo, h=1e-8)
        with pytest.raises(ValueError):
            lab.verify_sld(psf, geo, h=1e-2)


class TestBasisCoefficients:
    """``verify_sld``'s Gram-Schmidt expansion, its generators sampled here on a quadrature grid."""

    @pytest.mark.parametrize("theta1, theta2", [(0.0, 1.0), (0.3, 1.2), (0.0, 2.0)])
    def test_gram_matrix_is_identity(self, theta1, theta2):
        psf, quad = lab.gaussian_psf(1.0), lab.QuadratureSpec()
        geometry = lab.SourceGeometry(theta1, theta2)
        overlaps = lab.overlap_integrals(psf, geometry, quad)
        coeffs = state_model._basis_coefficients(overlaps)
        # The first basis function is the normalized difference of the sources.
        root = math.sqrt(2.0 * (1.0 - overlaps.delta))
        np.testing.assert_allclose(coeffs[0], np.array([1.0, -1.0, 0.0, 0.0]) / root, rtol=1e-15)
        radius = quad.truncation_radius * psf.sigma
        lo, hi = geometry.x1 - radius, geometry.x2 + radius
        x, w = psf_core.quadrature_grid(lo, hi, quad.panel_count, quad.nodes_per_panel)
        a1, d1 = psf.amplitude_and_derivative(x - geometry.x1)
        a2, d2 = psf.amplitude_and_derivative(x - geometry.x2)
        functions = coeffs @ np.stack([a1, a2, -d1, -d2])
        np.testing.assert_allclose((functions * w) @ functions.T, np.eye(4), atol=1e-8)


class TestOverlapColumns:
    """A sweep's overlap columns, QFIM stack and c_tilde column, bit for bit."""

    @pytest.mark.parametrize("sigma", [1.0, 0.6])
    @pytest.mark.parametrize("block_samples", [1100, psf_core.BLOCK_SAMPLES])
    def test_columns_equal_the_scalar_route(self, sigma, block_samples, monkeypatch):
        monkeypatch.setattr(psf_core, "BLOCK_SAMPLES", block_samples)
        psf, quad = lab.gaussian_psf(sigma), lab.QuadratureSpec()
        # 301 separations end in a ragged block on every pass they take, from
        # the near-coincident ones on the top pair to the widest on (4, 8).
        ratios = np.geomspace(3e-6, 60.0, 301)
        points = [(0.1 * index - 7.0, sigma * ratio) for index, ratio in enumerate(ratios)]
        for count in psf_core.quadrature_ladder(quad):
            size = psf_core.block_size(quad, count)
            assert size == 1 or len(points) % size
        geometries = [lab.SourceGeometry(*point) for point in points]
        # One call per geometry: each row settles in its own one-row block.
        singles = [lab.overlap_integrals(psf, geometry, quad) for geometry in geometries]
        fields = np.array([[o.kappa, o.gamma, o.beta, o.delta] for o in singles]).T
        overlaps = overlap_columns(psf, points, quad)
        fused, _ = overlaps_and_direct_fims(psf, points, quad)
        assert overlaps.tobytes() == fields.tobytes()
        assert fused.tobytes() == fields.tobytes()
        # The QFIMs and c_tilde of each row by their formulas, in Python floats.
        rows = fields.T.tolist()
        quantum = [[[4.0 * (kappa - gamma**2), 0.0], [0.0, kappa]] for kappa, gamma, _, _ in rows]
        assert qfim_stack(overlaps).tobytes() == np.array(quantum).tobytes()
        c_tilde = [
            min(abs(beta) / math.sqrt(kappa * (kappa - gamma**2)), 1.0)
            for kappa, gamma, beta, _ in rows
        ]
        assert c_tilde_column(overlaps).tobytes() == np.array(c_tilde).tobytes()

    def test_c_tilde_errors_name_their_row(self):
        good = lab.gaussian_overlap_integrals(1.0, 0.7)
        good = [good.kappa, good.gamma, good.beta, good.delta]
        # kappa - gamma^2 = 0 passes the overlap checks but leaves c_tilde
        # undefined; beta just beyond Cauchy-Schwarz puts c_tilde above 1.
        cases = [
            ([0.25, 0.5, 0.0, 0.3], "kappa - gamma^2 must be positive to define c_tilde"),
            (
                [0.25, 0.0, 0.25 * (1.0 + 1e-6), 0.3],
                "c_tilde = 1.000001 above 1: overlap scalars are inconsistent",
            ),
        ]
        for bad, message in cases:
            with pytest.raises(lab.DegenerateStateError) as stacked:
                c_tilde_column(np.array([good, good, bad, bad]).T)
            assert str(stacked.value) == "row 2: " + message
            with pytest.raises(lab.DegenerateStateError) as unnamed:
                c_tilde_column(np.array([bad]).T, label="")
            assert str(unnamed.value) == message
