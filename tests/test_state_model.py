"""Tests for the 4-dimensional state model, QFIM, and incompatibility scalars.

Frozen reference numbers were evaluated from the Gaussian closed forms
(independently of the code under test) and pinned here, so regressions in
either the quadrature or the matrix assembly surface as value drift.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import psf_core, state_model
from irtr_lab.errors import failure_flags
from irtr_lab.measurements import born_coefficients, overlaps_and_direct_fims
from irtr_lab.psf_core import overlap_columns
from irtr_lab.state_model import (
    c_tilde_column,
    c_tilde_from_overlaps,
    qfim_stack,
    state_checks,
    state_stacks,
)

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
    def test_holds_rho_and_the_two_slds(self):
        assert [field.name for field in dataclasses.fields(lab.StateModel4)] == ["rho", "L1", "L2"]

    @pytest.mark.parametrize("name", ["rho", "L1", "L2"])
    def test_rejects_an_asymmetric_matrix(self, name):
        model = model_for(1.0)
        fields = dict(rho=model.rho, L1=model.L1, L2=model.L2)
        fields[name] = fields[name].copy()
        fields[name][0, 1] += 1e-6
        with pytest.raises(ValueError, match=f"^{name} must be symmetric$"):
            lab.StateModel4(**fields)

    def test_rejects_wrong_trace(self):
        model = model_for(1.0)
        with pytest.raises(ValueError, match="^rho must have unit trace$"):
            lab.StateModel4(rho=2.0 * model.rho, L1=model.L1, L2=model.L2)

    @pytest.mark.parametrize("name", ["rho", "L1", "L2"])
    def test_rejects_a_matrix_that_is_not_4x4(self, name):
        model = model_for(1.0)
        fields = dict(rho=model.rho, L1=model.L1, L2=model.L2)
        fields[name] = np.eye(3)
        with pytest.raises(ValueError, match=f"^{name} must be a 4x4 real matrix$"):
            lab.StateModel4(**fields)


def state_columns():
    """Seeded overlaps: 600 by quadrature and 150 closed-form in [2e-3, 60] sigma, then 5 edges."""
    rng = np.random.default_rng(36)
    theta2 = np.exp(rng.uniform(np.log(2e-3), np.log(60.0), 600))
    points = np.stack([np.zeros(600), theta2], axis=1)
    quadrature = overlap_columns(lab.gaussian_psf(1.0), points)
    overlaps = [lab.OverlapIntegrals(*column) for column in quadrature.T.tolist()]
    for sigma in (0.37, 1.0, 2.3):
        for ratio in np.exp(rng.uniform(np.log(2e-3), np.log(60.0), 50)).tolist():
            overlaps.append(lab.gaussian_overlap_integrals(sigma, ratio * sigma))
    # Coincident, collapsed derivative directions (eta3 or eta4 = 0), eta3^2 < 0.
    edges = [(0.25, 0.0, 0.25, 1.0), (0.25, 0.0, 0.0, 1.0 - 1e-13), (0.25, 0.0, 0.25, 0.5),
             (0.25, 0.0, -0.25, 0.5), (0.25, 0.3, -0.071, 0.5)]
    return overlaps + [lab.OverlapIntegrals(*edge) for edge in edges]


class TestStateStacks:
    """The column route of the state model, bit for bit its one-column route."""

    def test_one_column_route_keeps_its_bits(self):
        # A digest, taken before the state model had a column route, of each
        # column's rho, L1, L2, Born-rule coefficients and basis expansion,
        # or of the error each raised.
        digest, errors = hashlib.sha256(), 0
        for overlaps in state_columns():
            try:
                state = lab.build_state_model(overlaps)
                born = born_coefficients(state.rho[None], state.L1[None], state.L2[None])
                for values in (state.rho, state.L1, state.L2, born):
                    digest.update(np.ascontiguousarray(values).tobytes())
            except lab.DegenerateStateError as error:
                errors += 1
                digest.update(str(error).encode())
            try:
                digest.update(state_model._basis_coefficients(overlaps).tobytes())
            except lab.DegenerateStateError as error:
                digest.update(str(error).encode())
        expected = "628997252c48ec8a12a6c718814dfdd4dfd442da4a09d896b3f7f986addc35b1"
        assert (digest.hexdigest(), errors) == (expected, 8)

    def test_stacks_equal_each_columns_state_model(self):
        overlaps = []
        for candidate in state_columns():
            try:
                lab.build_state_model(candidate)
                overlaps.append(candidate)
            except lab.DegenerateStateError:
                pass
        columns = np.array([dataclasses.astuple(o) for o in overlaps]).T
        rho, L1, L2, eta3, eta4 = state_stacks(columns)
        born = born_coefficients(rho, L1, L2)
        for k, column in enumerate(overlaps):
            state = lab.build_state_model(column)
            assert [rho[k].tobytes(), L1[k].tobytes(), L2[k].tobytes()] == [
                state.rho.tobytes(), state.L1.tobytes(), state.L2.tobytes()]
            alone = born_coefficients(state.rho[None], state.L1[None], state.L2[None])
            assert born[..., k : k + 1].tobytes() == alone.tobytes()
            one = state_stacks(psf_core.overlap_column(column), label="")
            assert (eta3[k], eta4[k]) == (one[3][0], one[4][0])

    def test_state_errors_name_their_row(self):
        good = dataclasses.astuple(lab.gaussian_overlap_integrals(1.0, 0.7))
        cases = [
            ([0.25, 0.0, 0.0, 1.0 - 1e-13], "1 - delta = 1.000e-13: sources are effectively "
             "coincident"),
            ([0.25, 0.3, -0.071, 0.5], "negative squared norms eta3^2 = -1.000e-03, "
             "eta4^2 = 2.610e-01: overlap scalars are mutually inconsistent"),
        ]
        for bad, message in cases:
            with pytest.raises(lab.DegenerateStateError) as stacked:
                state_stacks(np.array([good, good, bad, bad]).T)
            assert str(stacked.value) == "row 2: " + message
            with pytest.raises(lab.DegenerateStateError) as unnamed:
                lab.build_state_model(lab.OverlapIntegrals(*bad))
            assert str(unnamed.value) == message

    def test_state_checks_flag_each_row(self):
        rho, L1, L2, _, _ = state_stacks(np.array([dataclasses.astuple(
            lab.gaussian_overlap_integrals(1.0, t)) for t in (0.5, 1.0, 2.0)]).T)
        L2[1, 0, 3] += 1e-6
        rho[2] *= 2.0
        flags = failure_flags(state_checks(rho, L1, L2))
        assert flags.tolist() == [[False] * 3, [False] * 3, [False, True, False],
                                  [False, False, True]]


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
        with pytest.raises(ValueError, match="^matrix must be 2x2$"):
            lab.Qfim(matrix=np.eye(3))


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

    @pytest.mark.parametrize("sigma", [1e-80, 1e-150])
    def test_c_tilde_where_kappa_times_kappa_overflows(self, sigma):
        # kappa = 1 / (4 sigma^2) is 2.5e159 or more: kappa (kappa - gamma^2)
        # is past the float range, while the roots of its factors are not.  The
        # suite turns warnings into errors, so an overflow warning would fail.
        overlaps = lab.gaussian_overlap_integrals(sigma, sigma)
        expected = lab.gaussian_incompatibility(sigma, sigma)
        assert abs(c_tilde_from_overlaps(overlaps) - expected) <= 1e-12

    @pytest.mark.parametrize("sigma", [1e-80, 1e-150])
    def test_c_where_qfim_product_overflows(self, sigma):
        # F00 F11 is past the float range here, so c's scale is the product of
        # their roots; an overflow warning would be an error in this suite.
        coefficients = lab.incompatibility(lab.gaussian_overlap_integrals(sigma, sigma))
        expected = lab.gaussian_incompatibility(sigma, sigma)
        assert abs(coefficients.c_tilde - expected) <= 1e-12
        assert coefficients.c == 0.0

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
        a1, d1 = psf.evaluate(x - geometry.x1)
        a2, d2 = psf.evaluate(x - geometry.x2)
        functions = coeffs @ np.stack([a1, a2, -d1, -d2])
        np.testing.assert_allclose((functions * w) @ functions.T, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("beta", [-0.25, 0.25])
    def test_collapsed_derivative_directions_raise(self, beta):
        # beta = -+kappa with gamma = 0 makes eta3, or eta4, exactly 0.
        overlaps = lab.OverlapIntegrals(kappa=0.25, gamma=0.0, beta=beta, delta=0.5)
        message = "^derivative directions collapse onto the sources$"
        with pytest.raises(lab.DegenerateStateError, match=message):
            state_model._basis_coefficients(overlaps)


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
        quantum = [
            [[4.0 * (kappa - gamma * gamma), 0.0], [0.0, kappa]] for kappa, gamma, _, _ in rows
        ]
        assert qfim_stack(overlaps).tobytes() == np.array(quantum).tobytes()
        c_tilde = [
            min(abs(beta) / math.sqrt(kappa * (kappa - gamma * gamma)), 1.0)
            for kappa, gamma, beta, _ in rows
        ]
        assert c_tilde_column(overlaps).tobytes() == np.array(c_tilde).tobytes()

    def test_gamma_is_squared_as_a_product(self):
        # Python's gamma**2 goes through pow, which glibc's leaves 1 ulp off
        # gamma * gamma here; kappa - gamma^2 is exact, so the ulp would show.
        gamma = -0.014098487321536901
        overlaps = lab.OverlapIntegrals(kappa=2e-4, gamma=gamma, beta=1e-6, delta=0.5)
        column = psf_core.overlap_column(overlaps)
        quarter = 2e-4 - gamma * gamma
        assert qfim_stack(column)[0, 0, 0] == 4.0 * quarter
        assert qfim_stack(column).tobytes() == lab.qfim(overlaps).matrix[None].tobytes()
        assert c_tilde_column(column)[0] == 1e-6 / math.sqrt(2e-4 * quarter)
        assert c_tilde_from_overlaps(overlaps) == c_tilde_column(column)[0]
        # A gamma^2 past the float range is inf, without a warning.
        column[1] = 1e200
        assert qfim_stack(column)[0, 0, 0] == -math.inf
        with pytest.raises(lab.DegenerateStateError, match="kappa - gamma"):
            c_tilde_column(column)

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
