"""Tests for the measurement models and the classical-information pipeline.

Independent oracles used here: scipy's Poisson pmf for the mode-sorting
probabilities, the Gaussian closed-form QFIM for regret baselines, and
direct Gauss-Legendre sums for mode orthonormality.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson

import irtr_lab as lab
from irtr_lab import measurements, psf_core
from irtr_lab.measurements import (
    CONTINUUM_GRID,
    DISCRETE_MODES,
    SUBSPACE_PROJECTORS,
    haar_random_bases,
    projective_regrets_and_checks,
    regret_rows,
    spade_cutoff,
    spawned_pools,
)
from irtr_lab.errors import failure_flags, raise_first_failure
from irtr_lab.experiments import DEFAULT_SEPARATION_GRID
from irtr_lab.psf_core import USER_DEFINED, quadrature_grid


def points(geometries):
    """The (theta1, theta2) points of ``geometries``, as the sweep routes take them."""
    return [(g.theta1, g.theta2) for g in geometries]


def overlap_fields(overlaps):
    """The (4, n) columns (kappa, gamma, beta, delta) of a list of ``OverlapIntegrals``."""
    return np.array([[o.kappa, o.gamma, o.beta, o.delta] for o in overlaps]).reshape(-1, 4).T


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


class TestStackedModels:
    """A stack of models is checked and reduced row by row, like single models."""

    psf = lab.gaussian_psf(1.0)
    geometries = [lab.SourceGeometry(*pair) for pair in ((0.0, 0.2), (0.7, 1.1), (0.0, 4.0))]
    # Two outcomes carry the mass; the third has probability 0.
    good = ([0.5, 0.5, 0.0], [0.05, -0.05, 0.0], [0.1, -0.1, 0.0])
    divergent = ([0.5, 0.5, 0.0], [0.05, -0.1, 0.05], [0.1, -0.1, 0.0])

    def discrete_stack(self, *rows):
        return lab.ProbabilityModel(DISCRETE_MODES, *(np.array(field) for field in zip(*rows)))

    def test_direct_imaging_fims_name_the_failing_sweep_row(self):
        # A PSF not known to be even takes the scalar route.  With this rule its
        # overlaps pass at every separation, but the direct-imaging FIM first
        # drifts beyond tolerance at theta2 = 4, row 4, and from theta2 = 8 on
        # the total of its coarser pass misses 1.
        psf = lab.PointSpreadFunction(
            USER_DEFINED, 1.0, self.psf.amplitude, self.psf.amplitude_derivative
        )
        quad = lab.QuadratureSpec(panel_count=6, nodes_per_panel=12, abs_tolerance=1e-6)
        geometries = [lab.SourceGeometry(0.0, theta2) for theta2 in (0.5, 1, 2, 3, 4, 6, 8, 12)]
        assert len(lab.overlap_integrals(psf, geometries, quad)) == len(geometries)
        for geometry in geometries[:4]:
            lab.fim(lab.direct_imaging_model(psf, geometry, quad))
        cases = (
            (geometries, 4, lab.ConvergenceError, "direct-imaging F11 drift 1.245e-06 "),
            (geometries[6:], 0, lab.ConsistencyError, "total probability 0.99999"),
        )
        for sweep, row, error, text in cases:
            with pytest.raises(lab.IrtrLabError) as single:
                lab.direct_imaging_model(psf, sweep[row], quad)
            with pytest.raises(lab.IrtrLabError) as stacked:
                measurements.overlaps_and_direct_fims(psf, points(sweep), quad)
            assert type(stacked.value) is type(single.value) is error
            assert str(stacked.value) == f"row {row}: " + str(single.value)
            assert str(single.value).startswith(text)

    def test_bad_total_names_its_row(self):
        singles = [lab.direct_imaging_model(self.psf, geometry) for geometry in self.geometries]
        names = ("probabilities", "dp_dtheta1", "dp_dtheta2", "weights")
        fields = {name: np.stack([getattr(single, name) for single in singles]) for name in names}
        stacked = lab.ProbabilityModel(CONTINUUM_GRID, **fields)
        probabilities = stacked.probabilities.copy()
        probabilities[1] *= 1.01
        with pytest.raises(ValueError, match=r"^row 1: total probability"):
            dataclasses.replace(stacked, probabilities=probabilities)
        with pytest.raises(ValueError, match=r"^total probability"):
            dataclasses.replace(singles[1], probabilities=probabilities[1])

    def test_derivative_on_a_dropped_outcome_names_its_row(self):
        stacked = self.discrete_stack(self.good, self.divergent, self.good)
        with pytest.raises(lab.DegenerateOutcomeError, match=r"^row 1: .*dp_dtheta1"):
            lab.fim(stacked)
        with pytest.raises(lab.DegenerateOutcomeError, match=r"^an outcome .*dp_dtheta1"):
            lab.fim(lab.ProbabilityModel(DISCRETE_MODES, *self.divergent))

    def test_first_failing_row_wins_whatever_its_check(self):
        drifting = ([0.5, 0.5, 0.0], [0.1, 0.1, 0.0], [0.0, 0.0, 0.0])
        negative = ([1.1, -0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^row 1: sum of dp_dtheta1"):
            self.discrete_stack(self.good, drifting, negative)
        with pytest.raises(ValueError, match=r"^row 1: probabilities must be nonnegative"):
            self.discrete_stack(self.good, negative, drifting)

    def test_spade_rows_equal_the_single_models(self):
        # theta1 = -+0.15 at theta2 = 0.3 has a source on the axis (alpha = 0).
        geometries = [lab.SourceGeometry(t1, 0.3) for t1 in (-2.0, -0.15, 0.0, 0.15, 3.1)]
        for sigma, cutoff in ((1.0, 40), (0.37, 300)):
            stacked = lab.spade_model(sigma, points(geometries), cutoff)
            fisher = lab.fim(stacked)
            assert fisher.shape == (5, 2, 2)
            for row, geometry in enumerate(geometries):
                single = lab.spade_model(sigma, geometry, cutoff)
                for name in ("probabilities", "dp_dtheta1", "dp_dtheta2"):
                    stacked_row = getattr(stacked, name)[row]
                    np.testing.assert_array_equal(stacked_row, getattr(single, name))
                assert stacked.truncated_mass[row] == single.truncated_mass
                assert stacked.fisher_tail_bound[row] == single.fisher_tail_bound
                np.testing.assert_array_equal(fisher[row], lab.fim(single))

    def test_stacked_spade_model_needs_an_explicit_cutoff(self):
        pair = [(-0.8, 0.5), (0.8, 0.5)]
        with pytest.raises(ValueError, match="needs an explicit mode_cutoff"):
            lab.spade_model(1.0, pair)

    def test_failing_spade_row_names_its_row(self):
        near, far = lab.SourceGeometry(0.0, 0.5), lab.SourceGeometry(10.0, 0.5)
        cutoff = spade_cutoff(1.0, near)
        message = rf"^row 1: cutoff {cutoff} leaves truncated mass"
        with pytest.raises(lab.CutoffError, match=message):
            lab.spade_model(1.0, points([near, far, far]), mode_cutoff=cutoff)

    def test_discrete_rows_equal_the_single_models(self):
        fisher = lab.fim(self.discrete_stack(self.good, self.good))
        single = lab.fim(lab.ProbabilityModel(DISCRETE_MODES, *self.good))
        np.testing.assert_array_equal(fisher, [single, single])


class TestOverlapsAndDirectFims:
    """An even PSF's direct-imaging FIMs climb the overlaps' ladder of half-grid passes."""

    psf = lab.gaussian_psf(1.0)
    # Rules and the widest separation each one converges at.
    rules = [
        (lab.QuadratureSpec(), 400.0),
        (lab.QuadratureSpec(panel_count=7, nodes_per_panel=24, abs_tolerance=1e-10), 40.0),
        (lab.QuadratureSpec(panel_count=24, nodes_per_panel=16), 40.0),
    ]
    quads = [quad for quad, _ in rules]

    @staticmethod
    def sweep(widest, count=100):
        return [
            lab.SourceGeometry(0.3 * index - 4.0, float(theta2))
            for index, theta2 in enumerate(np.geomspace(1e-3, widest, count))
        ]

    @staticmethod
    def assert_rows_equal_the_scalar_routes(psf, quad, geometries, lengths):
        singles = [lab.overlap_integrals(psf, geometry, quad) for geometry in geometries]
        models = [lab.direct_imaging_model(psf, geometry, quad) for geometry in geometries]
        fishers = np.array([lab.fim(model) for model in models])
        # Calls of one geometry, of blocks and a ragged block, and of the whole sweep.
        for length in (*lengths, len(geometries)):
            for start in range(0, len(geometries), length):
                chunk = slice(start, start + length)
                overlaps, fused = measurements.overlaps_and_direct_fims(
                    psf, points(geometries[chunk]), quad
                )
                assert overlaps.tobytes() == overlap_fields(singles[chunk]).tobytes()
                np.testing.assert_array_equal(fused, fishers[chunk])
                # Bit for bit, down to the sign of each zero.
                assert fused.tobytes() == fishers[chunk].tobytes()
        return models

    @pytest.mark.parametrize("quad, widest", rules)
    @pytest.mark.parametrize("block_samples", [1, 1100, psf_core.BLOCK_SAMPLES])
    def test_rows_equal_the_scalar_routes(
        self, quad, widest, block_samples, monkeypatch, rung_log
    ):
        monkeypatch.setattr(psf_core, "BLOCK_SAMPLES", block_samples)
        geometries = self.sweep(widest)
        # With smaller blocks, the sweep spans blocks of its first pass and ends in a ragged one.
        size = psf_core.block_size(quad, psf_core.quadrature_ladder(quad)[0])
        assert block_samples == 16384 or size == 1 or len(geometries) % size
        models = self.assert_rows_equal_the_scalar_routes(self.psf, quad, geometries, (1, 7, 37))
        # The scalar models settled on rungs of every pair of the ladder (the
        # finer pass of each pair), and in the whole-sweep call each row
        # climbed to the higher of its overlap and FIM rungs, no further.
        ladder = psf_core.quadrature_ladder(quad)
        panels = [model.probabilities.size // (2 * quad.nodes_per_panel) for model in models]
        fim_rungs = np.array([ladder.index(count) for count in panels])
        assert set(fim_rungs.tolist()) == set(range(1, len(ladder)))
        lab.overlap_integrals(self.psf, geometries, quad)
        overlap_rungs = rung_log[-1]
        np.testing.assert_array_equal(rung_log[-2], np.maximum(overlap_rungs, fim_rungs))

    def test_a_psf_not_known_to_be_even_takes_the_scalar_route(self, monkeypatch):
        psf = lab.PointSpreadFunction(
            USER_DEFINED, 1.0, self.psf.amplitude, self.psf.amplitude_derivative
        )
        for quad, block_samples in itertools.product(self.quads, (1, psf_core.BLOCK_SAMPLES)):
            monkeypatch.setattr(psf_core, "BLOCK_SAMPLES", block_samples)
            self.assert_rows_equal_the_scalar_routes(psf, quad, self.sweep(40.0)[::9], (1, 5))

    @pytest.mark.parametrize("quad, widest", rules)
    def test_f12_is_exactly_zero(self, quad, widest):
        sweep = points(self.sweep(widest))
        _, fishers = measurements.overlaps_and_direct_fims(self.psf, sweep, quad)
        assert np.all(fishers[:, 0, 1] == 0.0) and np.all(fishers[:, 1, 0] == 0.0)
        assert not np.signbit(fishers[:, [0, 1], [1, 0]]).any()
        assert np.all(fishers[:, [0, 1], [0, 1]] > 0.0)

    def test_an_empty_sweep_has_no_rows(self):
        user = lab.PointSpreadFunction(
            USER_DEFINED, 1.0, self.psf.amplitude, self.psf.amplitude_derivative
        )
        for psf in (self.psf, user):
            assert lab.overlap_integrals(psf, []) == []
            overlaps, fishers = measurements.overlaps_and_direct_fims(psf, [])
            assert overlaps.shape == (4, 0) and fishers.shape == (0, 2, 2)

    def test_overlap_checks_of_every_row_run_first(self, monkeypatch):
        # This rule's ladder is one pair, on 2 and 4 half-window panels.  The
        # direct-imaging total on 2 misses 1 by ~1e-7 for theta2 <= 1 while the
        # overlaps pass; from theta2 = 2 on the overlap drift check fails.
        quad = lab.QuadratureSpec(panel_count=4, nodes_per_panel=10, abs_tolerance=1e-6)
        assert psf_core.quadrature_ladder(quad) == (2, 4)
        geometries = [lab.SourceGeometry(0.0, theta2) for theta2 in (0.1, 0.5, 1.0, 4.0)]
        with pytest.raises(ValueError, match="^total probability") as single:
            lab.fim(lab.direct_imaging_model(self.psf, geometries[2], quad))
        with pytest.raises(lab.ConvergenceError) as drift:
            lab.overlap_integrals(self.psf, geometries[3], quad)
        # Two geometries per block on the top pass, then one, then all four:
        # row 3's overlap check wins over the model checks of rows 0 to 2.
        for block_samples, size in ((80, 2), (1, 1), (psf_core.BLOCK_SAMPLES, 409)):
            monkeypatch.setattr(psf_core, "BLOCK_SAMPLES", block_samples)
            assert psf_core.block_size(quad, 4) == size
            with pytest.raises(lab.ConvergenceError) as fused:
                measurements.overlaps_and_direct_fims(self.psf, points(geometries), quad)
            assert str(fused.value) == "row 3: " + str(drift.value)
            # Without it, the first row's model check.
            with pytest.raises(ValueError, match=r"^row 0: total probability 0\.99999"):
                measurements.overlaps_and_direct_fims(self.psf, points(geometries[:3]), quad)
        with pytest.raises(ValueError, match=r"^row 0: total probability") as fused:
            measurements.overlaps_and_direct_fims(self.psf, points(geometries[2:3]), quad)
        # The doubled half-grid sum equals the reflected grid's to rounding.
        fused_total = float(str(fused.value).split()[4])
        single_total = float(str(single.value).split()[2])
        assert fused_total == pytest.approx(single_total, rel=1e-15, abs=0.0)

    def test_a_row_whose_coarse_passes_miss_the_total_climbs(self, rung_log):
        # At 150 sigma the model on 1, 2 or 4 half-window panels misses total
        # probability 1, so the pair (4, 8) fails; (8, 16) passes every check.
        theta2 = 150.0
        window = psf_core.centroid_half_window(self.psf, theta2, lab.QuadratureSpec())
        for panels, total in ((1, "1.12"), (2, "1.0003"), (4, "0.99999989")):
            positions, weights = measurements._reflected(*quadrature_grid(0.0, window, panels, 32))
            fields = measurements._intensity_and_derivatives(self.psf, theta2, positions)
            with pytest.raises(lab.ConsistencyError, match=f"^total probability {total}"):
                lab.ProbabilityModel(CONTINUUM_GRID, *fields, weights=weights)
        geometry = lab.SourceGeometry(0.0, theta2)
        model = lab.direct_imaging_model(self.psf, geometry)
        assert model.probabilities.size == 2 * 16 * 32
        _, fishers = measurements.overlaps_and_direct_fims(self.psf, points([geometry]))
        assert rung_log[-1].tolist() == [2]
        assert fishers[0].tobytes() == lab.fim(model).tobytes()
        quantum = lab.qfim(lab.gaussian_overlap_integrals(1.0, theta2)).matrix
        np.testing.assert_allclose(np.diag(fishers[0]), np.diag(quantum), rtol=1e-12)

    def test_near_coincident_fims_take_the_top_pair(self):
        # Like their overlaps, rows below NEAR_COINCIDENCE sigma run the top
        # pair, (16, 32), and its FIM drift check passes there.
        separations = np.geomspace(1e-5, 0.03, 1500)
        geometries = [lab.SourceGeometry(0.0, float(theta2)) for theta2 in separations]
        _, fishers = measurements.overlaps_and_direct_fims(self.psf, points(geometries))
        for theta2, panels in ((1e-5, 32), (0.0199, 32), (0.0201, 8), (0.03, 8)):
            model = lab.direct_imaging_model(self.psf, lab.SourceGeometry(0.0, theta2))
            assert model.probabilities.size == 2 * panels * 32
        for row in (0, -1):
            model = lab.direct_imaging_model(self.psf, geometries[row])
            assert fishers[row].tobytes() == lab.fim(model).tobytes()

    def test_psf_values_are_read_not_written(self):
        # A PSF's callables may hand back arrays the caller must not write to.
        def read_only(function):
            def evaluate(x):
                values = function(x)
                values.flags.writeable = False
                return values

            return evaluate

        plain = lab.PointSpreadFunction(
            USER_DEFINED, 1.0, self.psf.amplitude, self.psf.amplitude_derivative
        )
        guarded = dataclasses.replace(
            plain,
            amplitude=read_only(plain.amplitude),
            amplitude_derivative=read_only(plain.amplitude_derivative),
        )
        geometry = lab.SourceGeometry(0.3, 1.0)
        for model in (lab.direct_imaging_model, measurements.direct_imaging_pixelated_model):
            arguments = (geometry, 0.25) if model is not lab.direct_imaging_model else (geometry,)
            expected = lab.fim(model(plain, *arguments))
            assert lab.fim(model(guarded, *arguments)).tobytes() == expected.tobytes()

    def test_fim_drift_beyond_tolerance_names_its_row(self):
        # On 4 and 8 half-window panels of 16 nodes the overlaps converge over
        # the default grid, but the direct-imaging F11 first drifts by more than
        # 1e-12 x QFIM11 at theta2 = 2.45, row 48.
        quad = lab.QuadratureSpec(panel_count=8, nodes_per_panel=16)
        geometries = [lab.SourceGeometry(0.0, theta2) for theta2 in DEFAULT_SEPARATION_GRID]
        assert len(lab.overlap_integrals(self.psf, geometries, quad)) == len(geometries)
        measurements.overlaps_and_direct_fims(self.psf, points(geometries[:48]), quad)
        with pytest.raises(lab.ConvergenceError) as single:
            lab.direct_imaging_model(self.psf, geometries[48], quad)
        with pytest.raises(lab.ConvergenceError) as stacked:
            measurements.overlaps_and_direct_fims(self.psf, points(geometries), quad)
        assert str(stacked.value) == "row 48: " + str(single.value)
        assert str(single.value) == (
            "direct-imaging F11 drift 6.757e-13 exceeds abs_tolerance x QFIM11 = 6.654e-13"
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

    @pytest.mark.parametrize("mean", [1e-9, 0.3, 40.0])
    def test_tail_bounds_of_a_source_on_the_axis(self, mean):
        # alpha = 0 is the point mass at q = 0, so it adds no tail at any cutoff,
        # even where Q-2 or Q-1 is negative and the tail of a source off the axis is 1.
        cutoffs = np.arange(6)
        on_axis = measurements._tail_bounds(1.0, [0.0, mean], cutoffs)
        both = measurements._tail_bounds(1.0, [mean, mean], cutoffs)
        for half, full in zip(on_axis, both):
            np.testing.assert_array_equal(half, 0.5 * full)
        assert both[1][0] == 2.0 * (mean + 1.0)

    def test_undersized_cutoff_raises(self):
        with pytest.raises(lab.CutoffError):
            lab.spade_model(1.0, lab.SourceGeometry(10.0, 0.5), mode_cutoff=5)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            lab.spade_model(0.0, lab.SourceGeometry(0.0, 1.0))

    def test_rejects_a_negative_cutoff(self):
        with pytest.raises(ValueError, match="^mode_cutoff must be nonnegative$"):
            lab.spade_model(1.0, lab.SourceGeometry(0.0, 1.0), mode_cutoff=-1)

    def test_outcome_kind(self):
        model = lab.spade_model(1.0, lab.SourceGeometry(0.0, 0.5))
        assert model.outcome_kind == DISCRETE_MODES


def linear_scan_cutoff(sigma, geometry):
    """(cutoff, mass bound, Fisher bound) of the adaptive rule by a scan from Q = 2 up.

    This is the rule as first written, the reference for its bisection: the
    bounds of every Q up to 512 come from one call, and the first Q that meets
    both criteria wins.
    """
    alphas = np.array([geometry.x1, geometry.x2]) / (2.0 * sigma)
    means = alphas * alphas
    cutoffs = np.arange(2, 513)
    mass, fisher = measurements._tail_bounds(sigma, means, cutoffs)
    met = (mass < 1e-14) & (fisher <= 1e-13 / sigma**2)
    if not met.any():
        raise lab.CutoffError("no cutoff up to 512 meets the truncation criteria")
    first = int(met.argmax())
    return int(cutoffs[first]), mass[first], fisher[first]


class TestAdaptiveCutoff:
    """The bisected cutoff rule against the linear scan it replaced."""

    @pytest.mark.parametrize("sigma", [0.37, 1.0, 2.3])
    def test_bisection_is_the_linear_scan(self, sigma):
        # The sweep's cutoffs are bisected together; each model bisects its own.
        geometries = []
        for ratio2 in np.geomspace(1e-4, 8.0, 9):
            theta2 = float(ratio2) * sigma
            # theta1 = -+theta2/2 puts one source on the axis, where alpha = 0.
            theta1s = [float(r) * sigma for r in np.linspace(-30.0, 30.0, 121)]
            for theta1 in [*theta1s, -0.5 * theta2, 0.5 * theta2]:
                geometries.append(lab.SourceGeometry(theta1, theta2))
        assert len(geometries) == 9 * 123
        for geometry, stacked in zip(geometries, spade_cutoff(sigma, points(geometries)).tolist()):
            cutoff, mass, fisher = linear_scan_cutoff(sigma, geometry)
            model = lab.spade_model(sigma, geometry)
            assert stacked == cutoff
            assert model.probabilities.size == cutoff + 1
            assert (model.truncated_mass, model.fisher_tail_bound) == (mass, fisher)

    def test_stacked_cutoffs_are_the_single_ones(self):
        # A 500-point misalignment sweep at theta2 = 0.1 sigma.
        sweep = [lab.SourceGeometry(r, 0.1) for r in np.linspace(-20.0, 20.0, 500).tolist()]
        assert spade_cutoff(1.0, points(sweep)).tolist() == [spade_cutoff(1.0, g) for g in sweep]

    @pytest.mark.parametrize("sigma", [0.37, 1.0, 2.3])
    def test_stacked_cutoffs_with_a_source_on_the_axis(self, sigma):
        # theta1 = -+theta2/2 puts one source at alpha = 0.
        theta2s = [float(r) * sigma for r in np.geomspace(1e-4, 8.0, 9)]
        sweep = [lab.SourceGeometry(s * 0.5 * t, t) for t in theta2s for s in (-1.0, 1.0)]
        assert all(0.0 in (geometry.x1, geometry.x2) for geometry in sweep)
        assert spade_cutoff(sigma, points(sweep)).tolist() == [
            spade_cutoff(sigma, g) for g in sweep
        ]

    def test_no_cutoff_raises_as_the_linear_scan(self):
        geometry = lab.SourceGeometry(60.0, 0.5)
        with pytest.raises(lab.CutoffError) as scanned:
            linear_scan_cutoff(1.0, geometry)
        def in_a_sweep(sigma, far):
            near = lab.SourceGeometry(1.0, 0.5)
            return spade_cutoff(sigma, points([near, far, near]))

        # A sweep names the failing row; the scalar routes keep the scan's text.
        for route, label in ((spade_cutoff, ""), (lab.spade_model, ""), (in_a_sweep, "row 1: ")):
            with pytest.raises(lab.CutoffError) as bisected:
                route(1.0, geometry)
            assert str(bisected.value) == label + str(scanned.value)

    def test_explicit_cutoff_below_the_mass_criterion_raises(self):
        geometry = lab.SourceGeometry(3.0, 0.5)
        cutoff = spade_cutoff(1.0, geometry)
        lab.spade_model(1.0, geometry, mode_cutoff=cutoff)
        with pytest.raises(lab.CutoffError, match=r"^cutoff 6 leaves truncated mass bound"):
            lab.spade_model(1.0, geometry, mode_cutoff=6)

    def test_cli_import_leaves_scipy_special_unloaded(self):
        # scipy.special is imported on first SPADE use, not with the package.
        source = str(Path(lab.__file__).resolve().parents[1])
        code = (
            "import sys, irtr_lab.cli; print('scipy.special' in sys.modules); "
            "irtr_lab.spade_model(1.0, irtr_lab.SourceGeometry(0.0, 1.0)); "
            "print('scipy.special' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": source},
        )
        assert result.stdout.split() == ["False", "True"]


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


class TestHaarRandomBases:
    def test_basis_k_is_the_scalar_draw_from_stream_k(self):
        streams = np.random.SeedSequence(8).spawn(300)
        bases = haar_random_bases(spawned_pools(8, (), 0, 300))
        assert bases.shape == (300, 4, 4)
        for basis, stream in zip(bases, streams):
            expected = lab.haar_random_orthogonal(np.random.default_rng(stream)).matrix
            np.testing.assert_array_equal(basis, expected)
            # The layout fixes the summation order of everything downstream.
            assert basis.strides == expected.strides

    # One- and two-word seeds, each side of a word boundary, and the largest.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("prefix", [(), (0,), (7,)])
    # Samples on each side of the runners' 512-sample block boundary.
    @pytest.mark.parametrize("first", [0, 511, 512])
    @pytest.mark.parametrize("count", [1, 513])
    def test_bases_follow_numpy_seed_sequence(self, seed, prefix, first, count):
        parent = np.random.SeedSequence(seed, spawn_key=prefix)
        children = parent.spawn(first + count)[first:]
        pools = spawned_pools(seed, prefix, first, count)
        np.testing.assert_array_equal(pools, [child.pool for child in children])
        bases = haar_random_bases(pools)
        for basis, child in zip(bases, children):
            expected = lab.haar_random_orthogonal(np.random.default_rng(child)).matrix
            np.testing.assert_array_equal(basis, expected)
            assert basis.strides == expected.strides

    def test_prefix_array_gives_each_prefix_its_children(self):
        # The custom runner's layout: point p's sample k is spawn(4)[p].spawn(5)[k].
        pools = spawned_pools(11, np.arange(4)[:, np.newaxis], 0, 5)
        assert pools.shape == (4, 5, 4) and pools.dtype == np.uint32
        for point, parent in enumerate(np.random.SeedSequence(11).spawn(4)):
            np.testing.assert_array_equal(pools[point], [c.pool for c in parent.spawn(5)])

    @pytest.mark.parametrize("shape", [(0,), (1, 0), (3, 0), (2, 1), (2, 3, 1)])
    def test_prefix_array_keeps_its_leading_axes(self, shape):
        # Empty prefixes too: fig5's [()] is one prefix, the root's children.
        prefixes = np.arange(np.prod(shape), dtype=np.int64).reshape(shape) + 4
        pools = spawned_pools(9, prefixes, 2, 3)
        assert pools.shape == (*shape[:-1], 3, 4) and pools.dtype == np.uint32
        for index in np.ndindex(shape[:-1]):
            prefix = tuple(prefixes[index].tolist())
            children = [np.random.SeedSequence(9, spawn_key=(*prefix, k)) for k in (2, 3, 4)]
            np.testing.assert_array_equal(pools[index], [child.pool for child in children])

    def test_seed_wider_than_the_pool(self):
        seed, prefix = 2**130 + 3, (2, 9)
        children = np.random.SeedSequence(seed, spawn_key=prefix).spawn(3)
        np.testing.assert_array_equal(
            spawned_pools(seed, prefix, 0, 3), [child.pool for child in children]
        )

    @pytest.mark.parametrize(
        "seed, prefix, first, count",
        [
            (0, (2**32,), 0, 1),
            (0, (-1,), 0, 1),
            (0, (1.5,), 0, 1),
            (0, (), 2**32, 1),
            (0, (), 2**32 - 1, 2),
            (0, (), -1, 1),
            (-1, (), 0, 1),
            (1.0, (), 0, 1),
        ],
    )
    def test_rejects_keys_beyond_one_word(self, seed, prefix, first, count):
        with pytest.raises(ValueError):
            spawned_pools(seed, prefix, first, count)

    def test_last_one_word_index(self):
        child = np.random.SeedSequence(5, spawn_key=(2**32 - 1,))
        np.testing.assert_array_equal(spawned_pools(5, (), 2**32 - 1, 1), [child.pool])


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
                # Correctly rounded, so the mirror-image terms of F12 cancel exactly.
                expected[j, k] = math.fsum(
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


class TestRegretRows:
    """The stacked regret step against ``regret_report`` -> ``irtr_residual``."""

    quanta = [
        lab.qfim(lab.overlap_integrals(lab.gaussian_psf(1.0), lab.SourceGeometry(*pair)))
        for pair in ((0.0, 0.05), (0.4, 1.0), (0.0, 3.0))
    ]

    @staticmethod
    def scalar(fisher, quantum, c_tilde):
        report = lab.regret_report(fisher, quantum)
        point = lab.TradeoffPoint(report.delta1, report.delta2)
        return report.delta1, report.delta2, lab.irtr_residual(point, c_tilde)

    def assert_rows_are_the_scalar_route(self, fishers, quanta, c_tildes, **shared):
        rows = regret_rows(fishers, **shared) if shared else regret_rows(
            fishers, np.array([q.matrix for q in quanta]), c_tildes
        )
        assert rows.shape == (3, len(fishers))
        for k, (fisher, quantum, c_tilde) in enumerate(zip(fishers, quanta, c_tildes)):
            assert tuple(rows[:, k]) == self.scalar(fisher, quantum, c_tilde)

    def test_one_qfim_and_c_tilde_per_row(self):
        rng = np.random.default_rng(4)
        quanta = self.quanta * 4
        c_tildes = rng.uniform(0.0, 1.0, len(quanta)).tolist()
        # Up to 36 % of each QFIM entry: delta1^2 + delta2^2 >= 1.28 >= c_tilde^2.
        fishers = rng.uniform(0.0, 0.6, (len(quanta), 2, 2)) ** 2 * [q.matrix for q in quanta]
        fishers = (fishers + fishers.transpose(0, 2, 1)) / 2
        self.assert_rows_are_the_scalar_route(fishers, quanta, c_tildes)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_c_tilde_is_squared_as_the_scalar_route_squares_it(self, per_row):
        # Squaring this c_tilde as x * x instead of x**2 moves the residuals of
        # f = 0.8, 0.85, 0.9 and 0.95 by 1 ulp; f = 0.95 falls below the floor.
        c_tilde, quantum = 0.5402238995537649, self.quanta[1]
        fishers = np.array([f * quantum.matrix for f in np.linspace(0.05, 0.95, 19)])
        shared = {} if per_row else {"quantum": quantum, "c_tilde": c_tilde}
        self.assert_rows_are_the_scalar_route(
            fishers[:18], [quantum] * 18, [c_tilde] * 18, **shared
        )
        residual = self.scalar(fishers[18], quantum, c_tilde)[2]
        text = f"row 18: IRTR residual {residual:.3e} is negative beyond tolerance"
        with pytest.raises(lab.BoundViolationError, match=f"^{text}$"):
            regret_rows(fishers, np.array([quantum.matrix] * 19), [c_tilde] * 19)

    def test_a_shared_c_tilde_is_squared_as_a_column_of_it(self):
        # The stacked step squares a shared c_tilde once, before broadcasting it.
        quantum = self.quanta[1].matrix
        fishers = np.array([f * quantum for f in np.linspace(0.05, 0.95, 19)])
        c_tildes = [0.0, 0.5402238995537649, 1.0, *np.random.default_rng(6).uniform(size=40)]
        for c_tilde in c_tildes:
            shared, shared_checks = measurements._regrets_and_checks(fishers, quantum, c_tilde)
            column, column_checks = measurements._regrets_and_checks(
                fishers, quantum, [c_tilde] * len(fishers)
            )
            assert shared.tobytes() == column.tobytes()
            assert np.array_equal(failure_flags(shared_checks), failure_flags(column_checks))

    def test_shared_qfim_and_c_tilde(self):
        quantum = self.quanta[0]
        fishers = np.array([np.diag([f, 1.0 - f]) * quantum.matrix for f in (0.0, 0.3, 1.0)])
        self.assert_rows_are_the_scalar_route(
            fishers, [quantum] * 3, [0.9] * 3, quantum=quantum.matrix, c_tilde=0.9
        )

    def test_rejects_a_single_matrix(self):
        quantum = self.quanta[0].matrix
        with pytest.raises(ValueError, match="fishers a stack of them"):
            regret_rows(0.5 * quantum, quantum, 0.5)

    def test_failing_row_in_the_middle_is_named(self):
        fishers = np.array([0.5 * q.matrix for q in self.quanta * 2])
        fishers[3] = 1.5 * fishers[3]
        fishers[4] = 3.0 * fishers[4]
        quanta = np.array([q.matrix for q in self.quanta * 2])
        with pytest.raises(lab.BoundViolationError, match=r"^row 4: regret eigenvalue"):
            regret_rows(fishers, quanta, 0.5)
        fishers[2] = 2.5 * fishers[2]
        with pytest.raises(lab.BoundViolationError, match=r"^row 2: regret eigenvalue"):
            regret_rows(fishers, quanta, 0.5)


def givens(i, j, angle):
    """Rotation by ``angle`` in the (i, j) plane of the 4-dimensional subspace."""
    rotation = np.eye(4)
    rotation[i, i] = rotation[j, j] = math.cos(angle)
    rotation[i, j], rotation[j, i] = -math.sin(angle), math.sin(angle)
    return rotation


class TestProjectiveRegrets:
    """The batch against the scalar route it must reproduce, at theta2 = sigma.

    rho has rank 2, so G02(eps) G13(eps) turns outcomes 2 and 3 by eps into
    its null space; that is where ``fim``'s drop-or-raise rule decides.
    """

    overlaps = lab.overlap_integrals(
        lab.gaussian_psf(1.0), lab.SourceGeometry(0.0, 1.0), lab.QuadratureSpec()
    )
    state = lab.build_state_model(overlaps)
    quantum = lab.qfim(overlaps)
    c_tilde = lab.incompatibility(overlaps).c_tilde

    def scalar(self, basis):
        model = lab.projective_model(self.state, lab.ProjectiveMeasurement4(basis, 0))
        report = lab.regret_report(lab.fim(model), self.quantum)
        point = lab.TradeoffPoint(report.delta1, report.delta2)
        return report.delta1, report.delta2, lab.irtr_residual(point, self.c_tilde)

    def batch(self, *bases, c_tilde=None, first_sample=0):
        c_tilde = self.c_tilde if c_tilde is None else c_tilde
        rows, checks = projective_regrets_and_checks(
            self.state, np.stack(bases), self.quantum, c_tilde
        )
        raise_first_failure(checks, "sample {}: ", first_sample)
        return rows

    @staticmethod
    def near_null(eps):
        return givens(0, 2, eps) @ givens(1, 3, eps)

    def test_near_null_outcomes_are_bitwise_equal(self):
        basis = self.near_null(1e-3)
        assert tuple(self.batch(basis)[:, 0]) == self.scalar(basis)

    def test_divergent_outcome_raises_on_both_routes(self):
        basis = self.near_null(1e-8)
        with pytest.raises(lab.DegenerateOutcomeError):
            self.scalar(basis)
        with pytest.raises(lab.DegenerateOutcomeError, match="sample 0: .*dp_dtheta2"):
            self.batch(basis)

    def test_dropped_outcome_agrees_with_the_scalar_route(self):
        basis = self.near_null(1e-10)
        model = lab.projective_model(self.state, lab.ProjectiveMeasurement4(basis, 0))
        # Both routes drop outcomes 2 and 3 and so lose part of F22, which
        # is 0.25 here (the QFIM value) in exact arithmetic.
        assert lab.fim(model)[1, 1] == pytest.approx(0.220051, abs=1e-6)
        assert tuple(self.batch(basis)[:, 0]) == self.scalar(basis)

    def test_haar_bases_are_bitwise_equal(self):
        bases = [lab.haar_random_orthogonal(seed).matrix for seed in range(40)]
        rows = self.batch(*bases)
        for k, basis in enumerate(bases):
            assert tuple(rows[:, k]) == self.scalar(basis)

    def test_error_names_the_first_failing_sample(self):
        good = lab.haar_random_orthogonal(0).matrix
        skewed = 1.001 * good
        divergent = self.near_null(1e-8)
        with pytest.raises(ValueError, match="sample 1: basis is not orthogonal"):
            self.batch(good, skewed, divergent)
        with pytest.raises(lab.DegenerateOutcomeError, match="sample 1: "):
            self.batch(good, divergent, skewed)
        with pytest.raises(lab.DegenerateOutcomeError, match="sample 12: "):
            self.batch(good, divergent, first_sample=11)

    def test_coefficient_outside_the_unit_interval_raises(self):
        basis = lab.haar_random_orthogonal(0).matrix
        with pytest.raises(ValueError):
            lab.irtr_residual(lab.TradeoffPoint(*self.scalar(basis)[:2]), 1.1)
        with pytest.raises(ValueError, match="sample 0: c_tilde"):
            self.batch(basis, c_tilde=1.1)

    def test_errors_carry_the_scalar_routes_text(self):
        good = lab.haar_random_orthogonal(0).matrix
        cases = [(1.001 * good, self.c_tilde), (self.near_null(1e-8), self.c_tilde)]
        for basis, c_tilde in [*cases, (good, 1.1)]:
            with pytest.raises((ValueError, lab.IrtrLabError)) as scalar:
                model = lab.projective_model(self.state, lab.ProjectiveMeasurement4(basis, 0))
                report = lab.regret_report(lab.fim(model), self.quantum)
                lab.irtr_residual(lab.TradeoffPoint(report.delta1, report.delta2), c_tilde)
            with pytest.raises(scalar.type) as batch:
                self.batch(basis, c_tilde=c_tilde, first_sample=5)
            assert str(batch.value) == f"sample 5: {scalar.value}"

    def test_an_earlier_sample_fails_first_whatever_its_check(self):
        # At c_tilde = 1 the first Haar basis (delta1^2 + delta2^2 = 0.90)
        # falls below the residual floor, its last check; sample 1 fails
        # fim's drop rule, an earlier check.  The scalar route meets sample 0
        # first.
        good = lab.haar_random_orthogonal(0).matrix
        with pytest.raises(lab.BoundViolationError, match="sample 0: IRTR residual"):
            self.batch(good, self.near_null(1e-8), c_tilde=1.0)
