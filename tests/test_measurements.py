"""Tests for the measurement models and the classical-information pipeline.

Independent oracles used here: scipy's Poisson pmf for the mode-sorting
probabilities, scipy's ``gammaln`` for the log-factorial table, the Gaussian
closed-form QFIM for regret baselines, and direct Gauss-Legendre sums for mode
orthonormality.
"""

import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import poisson

import irtr_lab as lab
from irtr_lab import experiments, measurements, psf_core
from irtr_lab.measurements import (
    born_coefficients,
    haar_random_bases,
    projective_regrets_and_checks,
    regret_rows,
    spade_cutoff,
)
from irtr_lab.errors import failure_flags, raise_first_failure
from irtr_lab.experiments import DEFAULT_SEPARATION_GRID
from irtr_lab.psf_core import USER_DEFINED, quadrature_grid


def points(geometries):
    """The (theta1, theta2) points of ``geometries``, as the sweep routes take them."""
    return [(g.theta1, g.theta2) for g in geometries]


def sweep_cutoffs(sigma, points):
    """The adaptive SPADE cutoffs of (theta1, theta2) ``points``, bisected together."""
    sources = measurements.spade_sources(sigma, psf_core.sweep_points(points))
    return measurements.adaptive_cutoffs(sigma, sources)


def overlap_fields(overlaps):
    """The (4, n) columns (kappa, gamma, beta, delta) of a list of ``OverlapIntegrals``."""
    return np.array([[o.kappa, o.gamma, o.beta, o.delta] for o in overlaps]).reshape(-1, 4).T


def state_coefficients(state):
    """The ``born_coefficients`` of one ``StateModel4``, as a stack of one."""
    return born_coefficients(state.rho[None], state.L1[None], state.L2[None])


def spy(function, calls):
    """``function``, appending its name to ``calls`` at each call."""

    def recording(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)

    return recording


def gaussian_setup(theta1, theta2, sigma=1.0):
    psf = lab.gaussian_psf(sigma)
    geo = lab.SourceGeometry(theta1, theta2)
    fisher = lab.qfim(lab.gaussian_overlap_integrals(sigma, theta2))
    return psf, geo, fisher


class TestProbabilityModelContainer:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                probabilities=[1.1, -0.1],
                dp_dtheta1=[0.0, 0.0],
                dp_dtheta2=[0.0, 0.0],
            )

    def test_rejects_mass_deficit(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                probabilities=[0.5, 0.4],
                dp_dtheta1=[0.0, 0.0],
                dp_dtheta2=[0.0, 0.0],
            )

    def test_truncated_mass_completes_the_budget(self):
        model = lab.ProbabilityModel(
            probabilities=[0.6, 0.4 - 1e-12],
            dp_dtheta1=[0.0, 0.0],
            dp_dtheta2=[0.0, 0.0],
            truncated_mass=1e-12,
        )
        assert model.truncated_mass == 1e-12

    def test_rejects_derivative_drift(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
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
                probabilities=probabilities,
                dp_dtheta1=dp_dtheta1,
                dp_dtheta2=[0.0, 0.0],
                weights=weights,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            lab.ProbabilityModel(
                probabilities=[0.5, 0.5],
                dp_dtheta1=[0.0, 0.0, 0.0],
                dp_dtheta2=[0.0, 0.0],
            )
        with pytest.raises(ValueError, match="^weights must match the probability shape$"):
            lab.ProbabilityModel([0.5, 0.5], [0.0, 0.0], [0.0, 0.0], weights=[1.0, 1.0, 1.0])


class TestDirectImaging:
    def test_unit_mass(self):
        psf, geo, _ = gaussian_setup(0.0, 1.0)
        model = lab.direct_imaging_model(psf, geo)
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


def stack(*rows):
    """(probabilities, dp_dtheta1, dp_dtheta2) of single models' ``rows``, as (rows, n) arrays."""
    return [np.array(field) for field in zip(*rows)]


def raise_stacked(checks):
    """Raise the first failing row's error of stacked ``checks``, as a sweep names it."""
    raise_first_failure(checks, "row {}: ")


class TestStackedModels:
    """A stack of models is checked and reduced row by row, like single models."""

    psf = lab.gaussian_psf(1.0)
    geometries = [lab.SourceGeometry(*pair) for pair in ((0.0, 0.2), (0.7, 1.1), (0.0, 4.0))]
    # Two outcomes carry the mass; the third has probability 0.
    good = ([0.5, 0.5, 0.0], [0.05, -0.05, 0.0], [0.1, -0.1, 0.0])
    divergent = ([0.5, 0.5, 0.0], [0.05, -0.1, 0.05], [0.1, -0.1, 0.0])

    def test_direct_imaging_fims_name_the_failing_sweep_row(self):
        # A PSF not known to be even takes the scalar route.  With this rule its
        # overlaps pass at every separation, but the direct-imaging FIM first
        # drifts beyond tolerance at theta2 = 4, row 4, and from theta2 = 8 on
        # the total of its coarser pass misses 1.
        psf = lab.PointSpreadFunction(USER_DEFINED, 1.0, self.psf.evaluate)
        quad = lab.QuadratureSpec(panel_count=6, nodes_per_panel=12, abs_tolerance=1e-6)
        geometries = [lab.SourceGeometry(0.0, theta2) for theta2 in (0.5, 1, 2, 3, 4, 6, 8, 12)]
        assert psf_core.overlap_columns(psf, points(geometries), quad).shape == (4, 8)
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
        names = ("probabilities", "dp_dtheta1", "dp_dtheta2")
        probabilities, *derivatives = (
            np.stack([getattr(single, name) for single in singles]) for name in names
        )
        weights = np.stack([single.weights for single in singles])
        probabilities[1] *= 1.01
        with pytest.raises(ValueError) as stacked:
            raise_stacked(measurements._model_checks(probabilities, derivatives, weights))
        with pytest.raises(ValueError, match=r"^total probability") as single:
            dataclasses.replace(singles[1], probabilities=probabilities[1])
        assert str(stacked.value) == "row 1: " + str(single.value)

    def test_derivative_on_a_dropped_outcome_names_its_row(self):
        probabilities, *derivatives = stack(self.good, self.divergent, self.good)
        _, checks = measurements._fisher_information(probabilities, derivatives)
        with pytest.raises(lab.DegenerateOutcomeError) as stacked:
            raise_stacked(checks)
        with pytest.raises(lab.DegenerateOutcomeError, match=r"^an outcome .*dp_dtheta1") as single:
            lab.fim(lab.ProbabilityModel(*self.divergent))
        assert str(stacked.value) == "row 1: " + str(single.value)

    def test_first_failing_row_wins_whatever_its_check(self):
        drifting = ([0.5, 0.5, 0.0], [0.1, 0.1, 0.0], [0.0, 0.0, 0.0])
        negative = ([1.1, -0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        for rows, message in (
            ((self.good, drifting, negative), r"^row 1: sum of dp_dtheta1"),
            ((self.good, negative, drifting), r"^row 1: probabilities must be nonnegative"),
        ):
            probabilities, *derivatives = stack(*rows)
            with pytest.raises(ValueError, match=message):
                raise_stacked(measurements._model_checks(probabilities, derivatives))

    def test_spade_rows_equal_the_single_models(self):
        # theta1 = -+0.15 at theta2 = 0.3 has a source on the axis (alpha = 0).
        geometries = [lab.SourceGeometry(t1, 0.3) for t1 in (-2.0, -0.15, 0.0, 0.15, 3.1)]
        for sigma, cutoff in ((1.0, 40), (0.37, 300)):
            sources = measurements.spade_sources(sigma, points(geometries))
            cutoffs = np.full(len(geometries), cutoff)
            fields = measurements._spade_fields(sigma, sources, cutoffs)
            mass, fisher_tail = measurements._tail_bounds(sigma, sources[2], sources[3], cutoffs)
            # Blocks of two rows, the last one ragged.
            fishers = measurements.spade_fims(sigma, sources, cutoffs, 2)
            for row, geometry in enumerate(geometries):
                single = lab.spade_model(sigma, geometry, cutoff)
                for field, name in zip(fields, ("probabilities", "dp_dtheta1", "dp_dtheta2")):
                    np.testing.assert_array_equal(field[row], getattr(single, name))
                assert mass[row] == single.truncated_mass
                assert fisher_tail[row] == single.fisher_tail_bound
                assert fishers[row].tobytes() == lab.fim(single).tobytes()

    def test_padded_spade_rows_pair_their_own_outcomes(self):
        # One cutoff per row, padded to the largest: cutoff 0 leaves no pair,
        # cutoff 1 one pair, and the adaptive cutoffs mix odd and even counts.
        sweep = [lab.SourceGeometry(t1, 0.4) for t1 in np.linspace(-5.0, 5.0, 198)]
        geometries = [lab.SourceGeometry(0.0, 1e-8), lab.SourceGeometry(0.0, 1e-4), *sweep]
        cutoffs = np.array([0, 1, *sweep_cutoffs(1.0, points(sweep)).tolist()])
        assert {cutoff % 2 for cutoff in cutoffs[2:].tolist()} == {0, 1}
        sources = measurements.spade_sources(1.0, points(geometries))
        mass, _ = measurements._tail_bounds(1.0, sources[2], sources[3], cutoffs)
        # The padded block in sweep order, whose lengths are not sorted.
        probabilities, *derivatives = measurements._spade_fields(1.0, sources, cutoffs)
        assert probabilities.shape == (200, cutoffs.max() + 1)
        fishers = measurements.spade_fims(1.0, sources, cutoffs, 64)

        def checked_sums(probabilities, derivatives, mass, lengths=None):
            # The total probability and the two derivative sums the model checks print.
            checks = measurements._model_checks(probabilities, derivatives, 1.0, mass, lengths)
            return [check[3] for check in checks[1:]]

        sums = checked_sums(probabilities, derivatives, mass, cutoffs + 1)
        padded, _ = measurements._fisher_information(probabilities, derivatives, 1.0, cutoffs + 1)
        for row, (geometry, cutoff) in enumerate(zip(geometries, cutoffs.tolist())):
            single = lab.spade_model(1.0, geometry, cutoff)
            fields = (single.probabilities, single.dp_dtheta1, single.dp_dtheta2)
            for values, own_values in zip((probabilities, *derivatives), fields):
                own, padding = np.split(values[row], [cutoff + 1])
                np.testing.assert_array_equal(own, own_values)
                assert not padding.any()
            assert mass[row] == single.truncated_mass
            assert [values[row] for values in sums] == checked_sums(
                fields[0], fields[1:], single.truncated_mass
            )
            assert padded[row].tobytes() == fishers[row].tobytes() == lab.fim(single).tobytes()

    def test_a_model_holds_one_row_of_outcomes(self):
        # A stack of models is checked by _model_checks and _fisher_information,
        # each row over its own outcomes; a row without a kept outcome is zero.
        rows = ([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]], np.zeros((2, 3)), np.zeros((2, 3)))
        for fields in (rows, [values[0][0] for values in rows]):
            with pytest.raises(ValueError, match="^probabilities and derivatives must be 1-D"):
                lab.ProbabilityModel(*fields)
        lengths = np.array([2, 1])
        probabilities, *derivatives = (np.asarray(values) for values in rows)
        raise_stacked(measurements._model_checks(probabilities, derivatives, lengths=lengths))
        fishers, _ = measurements._fisher_information(probabilities, derivatives, lengths=lengths)
        assert fishers.tobytes() == np.zeros((2, 2, 2)).tobytes()

    def test_failing_spade_row_names_its_row(self):
        near, far = lab.SourceGeometry(0.0, 0.5), lab.SourceGeometry(10.0, 0.5)
        cutoff = spade_cutoff(1.0, near)
        with pytest.raises(lab.CutoffError) as single:
            lab.spade_model(1.0, far, mode_cutoff=cutoff)
        sources = measurements.spade_sources(1.0, points([near, far, far]))
        with pytest.raises(lab.CutoffError) as stacked:
            measurements.spade_fims(1.0, sources, np.full(3, cutoff), 2)
        assert str(stacked.value) == "row 1: " + str(single.value)
        assert str(single.value).startswith(f"cutoff {cutoff} leaves truncated mass")

    def test_discrete_rows_equal_the_single_models(self):
        probabilities, *derivatives = stack(self.good, self.good)
        fishers, checks = measurements._fisher_information(probabilities, derivatives)
        raise_stacked(checks)
        single = lab.fim(lab.ProbabilityModel(*self.good))
        np.testing.assert_array_equal(fishers, [single, single])


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
        psf_core.overlap_columns(self.psf, points(geometries), quad)
        overlap_rungs = rung_log[-1]
        np.testing.assert_array_equal(rung_log[-2], np.maximum(overlap_rungs, fim_rungs))

    def test_a_psf_not_known_to_be_even_takes_the_scalar_route(self, monkeypatch):
        psf = lab.PointSpreadFunction(USER_DEFINED, 1.0, self.psf.evaluate)
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
        user = lab.PointSpreadFunction(USER_DEFINED, 1.0, self.psf.evaluate)
        for psf in (self.psf, user):
            assert psf_core.overlap_columns(psf, []).shape == (4, 0)
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
                lab.ProbabilityModel(*fields, weights=weights)
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
        # A PSF's evaluator may hand back arrays of its own, which the caller
        # must not write to; given ``out``, it writes the caller's arrays.
        plain = lab.PointSpreadFunction(USER_DEFINED, 1.0, self.psf.evaluate)

        def read_only(x, out=None):
            values = plain.evaluate(x, out)
            if out is None:
                for value in values:
                    value.flags.writeable = False
            return values

        guarded = dataclasses.replace(plain, evaluate=read_only)
        geometry = lab.SourceGeometry(0.3, 1.0)
        for model in (lab.direct_imaging_model, measurements.direct_imaging_pixelated_model):
            arguments = (geometry, 0.25) if model is not lab.direct_imaging_model else (geometry,)
            expected = lab.fim(model(plain, *arguments))
            assert lab.fim(model(guarded, *arguments)).tobytes() == expected.tobytes()
        assert lab.overlap_integrals(guarded, geometry) == lab.overlap_integrals(plain, geometry)
        shifted = [psf_core.displaced_overlaps(psf, 0.7) for psf in (guarded, plain)]
        assert shifted[0] == shifted[1]
        assert lab.check_normalization(guarded) == lab.check_normalization(plain)

    def test_a_pass_settles_once_over_all_its_blocks(self, monkeypatch):
        # 800 separations run in 7 blocks of 128 on 4 panels and 13 of 64 on 8,
        # where all of them settle: the FIMs, then the overlaps, of the second
        # pass settle in one call each over all its rows, not one per block,
        # and the first pass has nothing to settle.  One row makes as many calls.
        calls, blocks, original = [], [], psf_core.overlap_passes
        for module, name in ((psf_core, "_settle"), (measurements, "_fim_drift_checks")):
            monkeypatch.setattr(module, name, spy(getattr(module, name), calls))

        def recording(*args, **kwargs):
            for block in original(*args, **kwargs):
                blocks.append(block[0])
                yield block

        monkeypatch.setattr(psf_core, "overlap_passes", recording)
        monkeypatch.setattr(measurements, "overlap_passes", recording)
        geometries = [lab.SourceGeometry(0.0, theta2) for theta2 in np.linspace(0.05, 8.0, 800)]
        for count, passes in ((800, [0] * 7 + [1] * 13), (1, [0, 1])):
            calls.clear(), blocks.clear()
            measurements.overlaps_and_direct_fims(self.psf, points(geometries[:count]))
            assert blocks == passes
            assert calls == ["_fim_drift_checks", "_settle"]
            calls.clear()
            psf_core.overlap_columns(self.psf, points(geometries[:count]))
            assert calls == ["_settle"]

    @staticmethod
    def crafted_block():
        """Twelve half-grid rows of nine outcomes in ascending u, each a variant of row 0.

        Row 0 is valid: total probability 1, derivative sums 0 and a dropped
        last outcome whose dp_dtheta1, 1.8e-12, is below 1e-9 x the largest,
        0.5.  The largest |dp_dtheta2| is 0.4.
        """
        w = np.full(9, 1 / 16)
        a = np.array([1.0] * 8 + [2.0**-30])
        d1 = np.array([0.1, -0.3, 0.2, 0.45, -0.25, 0.05, -0.15, -0.1, 2.0**-10])
        d2 = np.array([-0.2, 0.1, 0.3, -0.35, 0.15, 0.05, -0.05, 0.0, 2.0**-10])
        rows = [[w, a.copy(), d1.copy(), a.copy(), d2.copy()] for _ in range(12)]
        rows[1][1][3] = np.nan  # A NaN amplitude.
        rows[2][4][3] = np.inf  # An inf derivative on a kept outcome.
        for row, factor in ((3, 1 + 2.0**-32), (4, 1 + 2.0**-36)):  # Mass off by 4.7e-10, 2.9e-11.
            rows[row][1] *= factor
            rows[row][3] *= factor
        for row, tail in ((5, 0.3), (6, 0.25)):  # A dropped |dp_dtheta1| of 5.6e-10, 4.7e-10.
            rows[row][2][8] = rows[row][4][8] = tail
        rows[7][1][:] = rows[7][3][:] = 0.0  # No kept outcome.
        rows[8][1][:] = rows[8][3][:] = 0.0
        rows[8][2][2] = np.inf  # No kept outcome, and 0 x inf = NaN.
        rows[9][4][8] = np.inf  # An inf derivative on a dropped outcome.
        # The dp_dtheta2 sum 5e-9, within 1e-8 x max(1, 0.4), and 1.5e-8, beyond it.
        rows[10][2][0] += 8e-8
        rows[11][2][0] += 2.4e-7
        w, a1, d1, a2, d2 = (np.array(field) for field in zip(*rows))
        return [np.empty_like(w), w, a1, d1, a2, d2, np.empty_like(w), np.empty_like(w)]

    def test_crafted_blocks_keep_the_model_and_fim_verdicts(self):
        # Pinned from the chain this routine replaced (p, dp/dtheta1 and
        # dp/dtheta2 in descending u, the model checks and fim's, each row's
        # sums counted for both halves), run on this block.
        with np.errstate(all="ignore"):
            fishers, valid = measurements._mirrored_fims(*self.crafted_block())
        expected_valid = [True, False, False, False, True, False, True, False, False, False]
        expected_valid += [True, False]
        diagonals = [
            (0.0475, 0.03375000000000001),
            (0.0, 0.0),  # The NaN peak keeps no outcome.
            (math.inf, math.inf),
            (0.0475, 0.03375),
            (0.0475, 0.03375),
            (0.0475, 0.03375000000000001),
            (0.0475, 0.03375000000000001),
            (0.0, 0.0),
            (0.0, 0.0),
            (math.nan, math.nan),
            (0.0474999980000008, 0.03375000150000021),
            (0.0474999940000072, 0.033750004500001804),
        ]
        assert valid.tolist() == expected_valid
        np.testing.assert_array_equal(fishers, [np.diag(pair) for pair in diagonals])
        # Every zero is +0.0: F12, and each row without a kept outcome.
        assert not np.signbit(fishers[fishers == 0.0]).any()

    def test_fim_drift_beyond_tolerance_names_its_row(self):
        # On 4 and 8 half-window panels of 16 nodes the overlaps converge over
        # the default grid, but the direct-imaging F11 first drifts by more than
        # 1e-12 x QFIM11 at theta2 = 2.45, row 48.
        quad = lab.QuadratureSpec(panel_count=8, nodes_per_panel=16)
        geometries = [lab.SourceGeometry(0.0, theta2) for theta2 in DEFAULT_SEPARATION_GRID]
        assert psf_core.overlap_columns(self.psf, points(geometries), quad).shape == (4, 160)
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
    def test_unit_mass_without_weights(self):
        psf, geo, _ = gaussian_setup(0.0, 1.0)
        model = lab.direct_imaging_pixelated_model(psf, geo, 0.25)
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
        on_axis = tail_bounds(1.0, [0.0, mean], cutoffs)
        both = tail_bounds(1.0, [mean, mean], cutoffs)
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

    def test_rejects_a_cutoff_that_is_not_an_integer(self):
        # 30.9 once ran at cutoff 30, and '30' was read as 30.
        geometry = lab.SourceGeometry(0.0, 0.1)
        for cutoff in (30.9, 30.0, "30", True, np.array(30)):
            with pytest.raises(ValueError, match="^mode_cutoff must be an integer$"):
                lab.spade_model(1.0, geometry, mode_cutoff=cutoff)
        model = lab.spade_model(1.0, geometry, mode_cutoff=30)
        numpy_cutoff = lab.spade_model(1.0, geometry, mode_cutoff=np.uint8(30))
        assert model.probabilities.size == numpy_cutoff.probabilities.size == 31
        assert lab.fim(model).tobytes() == lab.fim(numpy_cutoff).tobytes()


def tail_bounds(sigma, means, cutoffs):
    """``measurements._tail_bounds`` of the two Poisson means ``means``, given their logs."""
    means = np.asarray(means, dtype=float)
    with np.errstate(divide="ignore"):  # log 0 is -inf, for a source on the axis.
        return measurements._tail_bounds(sigma, means, np.log(means), cutoffs)


def reference_tail_bounds(sigma, means, cutoff):
    """The (mass, Fisher) tail bounds of ``_tail_bounds`` at one cutoff, in Python floats."""

    def beyond(mean, k):  # The Poisson(mean) mass beyond k, or its bound 1.
        if mean == 0.0:
            return 0.0
        if k < 0 or mean >= k + 2:
            return 1.0
        first = math.exp((k + 1) * math.log(mean) - mean - math.lgamma(k + 2))
        return first / (1.0 - mean / (k + 2))

    mass = 0.5 * sum(beyond(mean, cutoff) for mean in means)
    fisher = sum(mean * beyond(mean, cutoff - 2) + beyond(mean, cutoff - 1) for mean in means)
    return mass, fisher / sigma**2


def reference_meets(sigma, means, cutoff, slack):
    """Whether ``cutoff`` meets both truncation criteria, each bound scaled by ``slack``."""
    mass, fisher = reference_tail_bounds(sigma, means, cutoff)
    return mass < 1e-14 * slack and fisher <= 1e-13 / sigma**2 * slack


def linear_scan_cutoff(sigma, geometry):
    """(cutoff, mass bound, Fisher bound) of the adaptive rule by a scan from Q = 2 up.

    This is the rule as first written, the reference for its bisection: the
    bounds of every Q up to 512 come from one call, and the first Q that meets
    both criteria wins.
    """
    alphas = np.array([geometry.x1, geometry.x2]) / (2.0 * sigma)
    means = alphas * alphas
    cutoffs = np.arange(2, 513)
    mass, fisher = tail_bounds(sigma, means, cutoffs)
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
        for geometry, stacked in zip(geometries, sweep_cutoffs(sigma, points(geometries)).tolist()):
            cutoff, mass, fisher = linear_scan_cutoff(sigma, geometry)
            model = lab.spade_model(sigma, geometry)
            assert stacked == cutoff
            assert model.probabilities.size == cutoff + 1
            assert (model.truncated_mass, model.fisher_tail_bound) == (mass, fisher)

    @pytest.mark.parametrize("sigma, seed", [(0.37, 1), (1.0, 2), (2.3, 3)])
    def test_bisection_is_the_linear_scan_on_seeded_points(self, sigma, seed):
        # 667 seeded points per sigma: theta1 uniform in [-60, 60] sigma and
        # theta2 log-uniform in [1e-4, 10] sigma; every eighth point puts a
        # source on the axis (mu = 0).  Far points have no cutoff.
        rng = np.random.default_rng(seed)
        theta2 = sigma * np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 667))
        theta1 = sigma * rng.uniform(-60.0, 60.0, 667)
        theta1[::8] = 0.5 * theta2[::8] * rng.choice([-1.0, 1.0], len(theta1[::8]))
        sweep = np.stack([theta1, theta2], axis=1)
        scans = []
        for point in sweep.tolist():
            try:
                scans.append(linear_scan_cutoff(sigma, lab.SourceGeometry(*point)))
            except lab.CutoffError:
                scans.append(None)
        found = [row for row, scan in enumerate(scans) if scan is not None]
        missing = [row for row, scan in enumerate(scans) if scan is None]
        sources = measurements.spade_sources(sigma, sweep[found])
        assert len(found) > 300 and len(missing) > 100
        assert np.count_nonzero(sources[2] == 0.0) > 30
        # The rows with a cutoff, bisected together, take the scan's cutoffs,
        # and the stacked bounds at them are the scan's, bit for bit: the
        # (2, n) means against (n,) cutoffs and the (2,) means against (k,).
        cutoffs = sweep_cutoffs(sigma, sweep[found])
        assert cutoffs.tolist() == [scans[row][0] for row in found]
        mass, fisher = measurements._tail_bounds(sigma, sources[2], sources[3], cutoffs)
        assert mass.tolist() == [scans[row][1] for row in found]
        assert fisher.tolist() == [scans[row][2] for row in found]
        # The rule itself, term by term in Python floats: each cutoff meets
        # both criteria and the one below it does not, up to near-ties.
        for row, cutoff, means in zip(found, cutoffs.tolist(), sources[2].T.tolist()):
            reference = reference_tail_bounds(sigma, means, cutoff)
            assert np.allclose(reference, scans[row][1:], rtol=1e-9, atol=0.0)
            assert reference_meets(sigma, means, cutoff, 1.0 + 1e-9)
            assert cutoff == 2 or not reference_meets(sigma, means, cutoff - 1, 1.0 - 1e-9)
        alphas = psf_core.source_positions(sweep[missing]) / (2.0 * sigma)
        for means in (alphas * alphas).tolist():
            assert not reference_meets(sigma, means, 512, 1.0 - 1e-9)
        # The whole sweep names its first row without a cutoff.
        message = f"^row {missing[0]}: no cutoff up to 512 meets the truncation criteria$"
        with pytest.raises(lab.CutoffError, match=message):
            sweep_cutoffs(sigma, sweep)

    def test_stacked_cutoffs_are_the_single_ones(self):
        # A 500-point misalignment sweep at theta2 = 0.1 sigma.
        sweep = [lab.SourceGeometry(r, 0.1) for r in np.linspace(-20.0, 20.0, 500).tolist()]
        assert sweep_cutoffs(1.0, points(sweep)).tolist() == [spade_cutoff(1.0, g) for g in sweep]

    @pytest.mark.parametrize("sigma", [0.37, 1.0, 2.3])
    def test_stacked_cutoffs_with_a_source_on_the_axis(self, sigma):
        # theta1 = -+theta2/2 puts one source at alpha = 0.
        theta2s = [float(r) * sigma for r in np.geomspace(1e-4, 8.0, 9)]
        sweep = [lab.SourceGeometry(s * 0.5 * t, t) for t in theta2s for s in (-1.0, 1.0)]
        assert all(0.0 in (geometry.x1, geometry.x2) for geometry in sweep)
        assert sweep_cutoffs(sigma, points(sweep)).tolist() == [
            spade_cutoff(sigma, g) for g in sweep
        ]

    def test_no_cutoff_raises_as_the_linear_scan(self):
        geometry = lab.SourceGeometry(60.0, 0.5)
        with pytest.raises(lab.CutoffError) as scanned:
            linear_scan_cutoff(1.0, geometry)
        def in_a_sweep(sigma, far):
            near = lab.SourceGeometry(1.0, 0.5)
            return sweep_cutoffs(sigma, points([near, far, near]))

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
        # Neither the package nor a SPADE model imports scipy.special.
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
        assert result.stdout.split() == ["False", "False"]

    def test_spade_runs_load_no_scipy(self, tmp_path):
        # The log-factorial table is built on first SPADE use, not at import,
        # and no runner imports any scipy module.
        source = str(Path(lab.__file__).resolve().parents[1])
        code = (
            "import sys; from irtr_lab import cli, measurements; "
            "print(len(measurements._LOG_GAMMA)); "
            f"cli.main(['fig4', '--grid', '0:2:0.5', '--out', {str(tmp_path / 'fig4')!r}]); "
            "cli.main(['custom', '--theta1-grid', '0,1', '--theta2-grid', '0.5', "
            "'--measurements', 'direct,spade,random', '--n-random', '4', "
            f"'--out', {str(tmp_path / 'custom')!r}]); "
            "print(len(measurements._LOG_GAMMA)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": source},
        )
        # cli.main prints the paths it wrote between the first line and the last two.
        lines = result.stdout.splitlines()
        assert [lines[0], *lines[-2:]] == ["0", str(measurements._MODE_CAP + 3), "[]"]
        assert (tmp_path / "fig4" / "fig4.csv").exists()
        assert (tmp_path / "custom" / "custom.csv").exists()


class TestLogGammaTable:
    """The log-factorial table against scipy.special.gammaln, bit for bit."""

    @staticmethod
    def assert_is_gammaln(arguments, values):
        expected = gammaln(np.asarray(arguments, dtype=float))
        assert np.asarray(values).view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_adaptive_range(self, monkeypatch):
        monkeypatch.setattr(measurements, "_LOG_GAMMA", np.empty(0))
        arguments = np.arange(measurements._MODE_CAP + 3)
        values = measurements._log_gamma(arguments)
        assert len(measurements._LOG_GAMMA) == measurements._MODE_CAP + 3
        assert values[0] == math.inf
        self.assert_is_gammaln(arguments, values)

    def test_branch_edges(self, monkeypatch):
        # cephes multiplies out (n-1)! below 13 and sums a short series below 1000.
        monkeypatch.setattr(measurements, "_LOG_GAMMA", np.empty(0))
        edges = np.array([12, 13, 999, 1000, 1001])
        self.assert_is_gammaln(edges, measurements._log_gamma(edges))
        assert len(measurements._LOG_GAMMA) == 1002
        # Above 1e8 it drops the series; a table that long would hold 800 MB,
        # so that branch is checked on _lgam alone.
        large = [10**8, 10**8 + 1, 2 * 10**8 + 7, 10**12]
        self.assert_is_gammaln(large, [measurements._lgam(n) for n in large])

    def test_refuses_negative_arguments(self, monkeypatch):
        # A negative index would read log Gamma(_MODE_CAP + 2) from the table's end.
        monkeypatch.setattr(measurements, "_LOG_GAMMA", np.empty(0))
        measurements._log_gamma(np.arange(measurements._MODE_CAP + 3))
        for arguments in (np.array([-1]), np.array([[3, -2], [0, 1]])):
            with pytest.raises(ValueError, match="nonnegative integers only"):
                measurements._log_gamma(arguments)

    def test_grows_for_an_explicit_cutoff_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(measurements, "_LOG_GAMMA", np.empty(0))
        lab.spade_model(1.0, lab.SourceGeometry(0.0, 1.0), mode_cutoff=measurements._MODE_CAP)
        assert len(measurements._LOG_GAMMA) == measurements._MODE_CAP + 3
        lab.spade_model(1.0, lab.SourceGeometry(0.0, 1.0), mode_cutoff=3000)
        # The tail bounds read up to Q + 2.
        assert len(measurements._LOG_GAMMA) == 3003
        self.assert_is_gammaln(np.arange(3003), measurements._LOG_GAMMA)


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
            lab.gaussian_psf(1.3).evaluate(x)[0],
            rtol=1e-14,
        )

    @pytest.mark.parametrize("q", range(6))
    def test_displaced_psf_overlap_identity(self, q):
        # <phi_q | psi(. - X)> = exp(-a^2/2) a^q / sqrt(q!) with a = X/2 sigma.
        sigma, shift = 1.0, 1.0
        a = shift / (2.0 * sigma)
        x, w = quadrature_grid(-14.0, 15.0, 40, 32)
        phi = lab.hermite_gaussian_wavefunction(q, sigma, x)
        psi = lab.gaussian_psf(sigma).evaluate(x - shift)[0]
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

    def test_different_seeds_differ(self):
        a = lab.haar_random_orthogonal(1).matrix
        b = lab.haar_random_orthogonal(2).matrix
        assert np.max(np.abs(a - b)) > 1e-3

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

    def test_container_rejects_a_matrix_that_is_not_an_orthogonal_basis(self):
        with pytest.raises(ValueError):
            lab.ProjectiveMeasurement4(matrix=np.eye(4) * 1.001)
        for matrix in (np.eye(4)[:3], np.ones(4)):
            with pytest.raises(ValueError, match="^matrix must be square$"):
                lab.ProjectiveMeasurement4(matrix)
        assert [field.name for field in dataclasses.fields(lab.ProjectiveMeasurement4)] == [
            "matrix"
        ]

    def test_container_rejects_a_nan_matrix(self):
        with pytest.raises(lab.ConsistencyError, match="^basis is not orthogonal within 1e-12$"):
            lab.ProjectiveMeasurement4(np.full((4, 4), np.nan))


def assert_component_major(bases):
    """The stack is one (row, entry, sample) array, so each entry runs along the samples."""
    assert bases.transpose(1, 2, 0).flags.c_contiguous


def assert_scalar_draws(bases, rng):
    """Each basis is the scalar route's next draw from ``rng``; the stack is component-major."""
    for basis in bases:
        expected = lab.haar_random_orthogonal(rng).matrix
        np.testing.assert_array_equal(basis, expected)
    assert_component_major(bases)


@functools.lru_cache(maxsize=None)
def scalar_stream_draws(seed, spawn_key, count):
    """The scalar route's first ``count`` bases from one stream, stacked."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    return np.stack([lab.haar_random_orthogonal(rng).matrix for _ in range(count)])


# Normals at the edges of a QR; those of the second tuple vanish to NaN.
DEGENERATE_CASES = ("repeated column", "dependent to 1e-13")
FAILING_CASES = ("zero column", "all zero", "column scaled by 1e-200", "NaN entry")


def degenerate_normal(normal, case):
    """A copy of ``normal`` made degenerate as ``case`` names."""
    normal = normal.copy()
    if case == "zero column":
        normal[:, 1] = 0.0
    elif case == "repeated column":
        normal[:, 1] = normal[:, 0]
    elif case == "dependent to 1e-13":
        normal[:, 1] = normal[:, 0] + 1e-13 * normal[:, 1]
    elif case == "all zero":
        normal[:] = 0.0
    elif case == "column scaled by 1e-200":
        normal[:, 0] *= 1e-200
    elif case == "NaN entry":
        normal[1, 1] = np.nan
    return normal


class FixedNormals:
    """Stands in for a Generator whose next ``standard_normal`` draw is ``normal``."""

    def __init__(self, normal):
        self.normal = normal

    def standard_normal(self, shape):
        assert shape == self.normal.shape
        return self.normal.copy()


class TestHaarRandomBases:
    def test_basis_k_is_the_scalar_draw_k_from_the_stream(self):
        normals = np.random.default_rng(8).standard_normal((300, 4, 4))
        bases = haar_random_bases(normals)
        assert bases.shape == (300, 4, 4)
        assert_scalar_draws(bases, np.random.default_rng(8))

    @pytest.mark.parametrize(
        "count", [0, 1, 511, 512, 513, *(experiments._SAMPLE_BLOCK + k for k in (-1, 0, 1))]
    )
    def test_counts_about_one_block(self, count):
        bases = haar_random_bases(np.random.default_rng(1).standard_normal((count, 4, 4)))
        assert bases.shape == (count, 4, 4)
        assert_scalar_draws(bases, np.random.default_rng(1))

    # One- and two-word seeds, each side of a word boundary, and the largest;
    # the root stream and two spawned children's.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("spawn_key", [(), (0,), (7,)])
    # A block boundary on each side of 512 samples and of the runners' block.
    @pytest.mark.parametrize("first", [0, 511, 512, experiments._SAMPLE_BLOCK - 1])
    @pytest.mark.parametrize("count", [1, 513])
    def test_blocks_of_any_size_are_the_scalar_draws(self, seed, spawn_key, first, count):
        # numpy fills a block as it draws one normal at a time, so the bases
        # do not depend on where the blocks of one stream begin.
        stream = np.random.SeedSequence(seed, spawn_key=spawn_key)
        expected = scalar_stream_draws(seed, spawn_key, experiments._SAMPLE_BLOCK + 513)
        for sizes in ([first, count], [1] * 5, [3, 1024, 2], [first + count]):
            rng = np.random.default_rng(stream)
            normals = np.concatenate([rng.standard_normal((size, 4, 4)) for size in sizes])
            bases = haar_random_bases(normals)
            np.testing.assert_array_equal(bases, expected[: sum(sizes)])
            assert_component_major(bases)

    def test_the_bases_are_haar(self):
        # Haar columns are uniform on S^3: each O_ij has mean 0 and variance
        # 1/4, O_ij^2 is Beta(1/2, 3/2), of variance 1/16, and det O is +1 or
        # -1 with equal odds; each within 5 standard errors.  The sign fold is
        # what centres the diagonal and balances the determinant.  (A
        # transposed Haar matrix is Haar too: the bitwise tests pin the layout.)
        count = 20_000
        bases = haar_random_bases(np.random.default_rng(2026).standard_normal((count, 4, 4)))
        assert np.all(np.abs(np.mean(bases, axis=0)) <= 5.0 * math.sqrt(0.25 / count))
        assert np.all(np.abs(np.mean(bases**2, axis=0) - 0.25) <= 5.0 * math.sqrt(1 / 16 / count))
        positive = np.count_nonzero(np.linalg.det(bases) > 0.0) / count
        assert abs(positive - 0.5) <= 5.0 * math.sqrt(0.25 / count)

    def test_the_bases_are_lapacks_sign_folded_q(self):
        # numpy's QR with the R-diagonal signs folded into Q is the oracle:
        # any QR with a positive R diagonal gives the same Q up to rounding.
        rng = np.random.default_rng(31)
        for _ in range(20):
            normals = rng.standard_normal((10_000, 4, 4))
            q_factor, r_factor = np.linalg.qr(normals)
            signs = np.sign(np.diagonal(r_factor, axis1=1, axis2=2))[:, np.newaxis, :]
            oracle = (q_factor * signs).transpose(0, 2, 1)
            assert np.max(np.abs(haar_random_bases(normals) - oracle)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_small_dimensions_through_the_scalar_route(self, dim):
        rng, oracle_rng = np.random.default_rng(dim), np.random.default_rng(dim)
        for _ in range(200):
            basis = lab.haar_random_orthogonal(rng, dim=dim).matrix
            q_factor, r_factor = np.linalg.qr(oracle_rng.standard_normal((dim, dim)))
            oracle = (q_factor * np.sign(np.diag(r_factor))).T
            assert basis.shape == (dim, dim)
            assert np.max(np.abs(basis - oracle)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("case", DEGENERATE_CASES + FAILING_CASES)
    def test_degenerate_normals_give_a_basis_or_a_consistency_error(self, dim, case):
        # On both routes alike: a basis that passes the orthogonality check,
        # orthogonal by an independent product too, or a ConsistencyError.
        # A repeated column leaves rounding noise, which may normalize to an
        # orthogonal column (dim 3) or cancel exactly to NaN (dims 2 and 4).
        normal = degenerate_normal(np.random.default_rng(dim).standard_normal((dim, dim)), case)
        bases = haar_random_bases(normal[np.newaxis])
        products = measurements._entry_products(bases)
        failed = failure_flags([measurements._orthogonality_check(products)])[0, 0]
        if case != "repeated column":
            assert failed == (case in FAILING_CASES)
        if failed:
            with pytest.raises(lab.ConsistencyError, match="^basis is not orthogonal within 1e-12$"):
                lab.haar_random_orthogonal(FixedNormals(normal), dim=dim)
        else:
            basis = lab.haar_random_orthogonal(FixedNormals(normal), dim=dim).matrix
            assert basis.tobytes() == np.ascontiguousarray(bases[0]).tobytes()
            for gram in (basis @ basis.T, basis.T @ basis):
                assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12
        if dim == 4:
            # The runners' route, the basis between two good draws.
            good = np.random.default_rng(0).standard_normal((2, 4, 4))
            state = lab.build_state_model(lab.gaussian_overlap_integrals(1.0, 1.0))
            stack = haar_random_bases(np.stack([good[0], normal, good[1]]))
            rows, checks = projective_regrets_and_checks(
                state_coefficients(state), stack, np.eye(2), 0.5
            )
            assert failure_flags(checks)[0].tolist() == [False, failed, False]


class TestProjectiveModel:
    def test_identity_measurement_reads_rho_diagonal(self):
        overlaps = lab.gaussian_overlap_integrals(1.0, 1.0)
        state = lab.build_state_model(overlaps)
        model = lab.projective_model(state, lab.ProjectiveMeasurement4(matrix=np.eye(4)))
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
        permuted = lab.ProjectiveMeasurement4(matrix=base.matrix[order])
        first = lab.projective_model(state, base)
        second = lab.projective_model(state, permuted)
        np.testing.assert_allclose(
            second.probabilities, first.probabilities[order], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            second.dp_dtheta1, first.dp_dtheta1[order], rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("theta2", [0.006, 1.0, 12.0])
    def test_stacked_fields_are_the_row_sums(self, theta2):
        # The stacked Born rule stores its fields outcome-major; sample k's
        # equal, bit for bit, the scalar route's on basis k, and they stay
        # within 1e-15 of the BLAS products and each row's .sum(axis=-1).
        state = lab.build_state_model(lab.gaussian_overlap_integrals(1.0, theta2))
        bases = haar_random_bases(np.random.default_rng(3).standard_normal((1100, 4, 4)))
        products = measurements._entry_products(bases)
        fields = measurements._born_rule(state_coefficients(state), products)
        expected = [bases**2 @ np.diag(state.rho)]
        for sld in (state.L1, state.L2):
            d_rho = 0.5 * (sld @ state.rho + state.rho @ sld)
            expected.append(((bases @ d_rho) * bases).sum(axis=-1))
        for field, row_major in zip(fields, expected):
            assert field.shape == (1100, 4) and field.T.flags.c_contiguous
            assert np.max(np.abs(field - row_major)) <= 1e-15
        for k, basis in enumerate(bases):
            model = lab.projective_model(state, lab.ProjectiveMeasurement4(basis))
            scalar = (model.probabilities, model.dp_dtheta1, model.dp_dtheta2)
            assert [field[k].tobytes() for field in fields] == [x.tobytes() for x in scalar]

    def test_a_coefficient_zero_for_some_bases_leaves_their_fields(self):
        # Bases 0-2 take one state's coefficients, with three of them set to
        # 0.0 or -0.0, and bases 3-5 another's.  Those pairs still run for the
        # block, as 0.0 terms for bases 0-2, whose fields stay their own.
        bases = haar_random_bases(np.random.default_rng(5).standard_normal((6, 4, 4)))
        products = measurements._entry_products(bases)
        first, second = (
            state_coefficients(lab.build_state_model(lab.gaussian_overlap_integrals(1.0, t)))
            for t in (0.3, 2.0)
        )
        assert first[0, 0] and first[1, 1] and first[2, 2]
        first[0, 0], first[1, 1], first[2, 2] = 0.0, -0.0, 0.0
        mixed = np.repeat(np.concatenate([first, second], axis=-1), 3, axis=-1)
        fields = measurements._born_rule(mixed, products)
        for k in range(6):
            alone = measurements._born_rule(first if k < 3 else second, products[..., k : k + 1])
            assert [field[k].tobytes() for field in fields] == [f[0].tobytes() for f in alone]

    def test_dimension_mismatch_raises(self):
        state = lab.build_state_model(lab.gaussian_overlap_integrals(1.0, 1.0))
        with pytest.raises(ValueError):
            lab.projective_model(
                state, lab.haar_random_orthogonal(0, dim=2)
            )


class TestFisherInformation:
    def test_zero_derivatives_give_zero_information(self):
        model = lab.ProbabilityModel(
            probabilities=[0.25] * 4,
            dp_dtheta1=[0.0] * 4,
            dp_dtheta2=[0.0] * 4,
        )
        np.testing.assert_array_equal(lab.fim(model), np.zeros((2, 2)))

    def test_hand_computed_two_outcome_value(self):
        model = lab.ProbabilityModel(
            probabilities=[0.5, 0.5, 1e-18],
            dp_dtheta1=[0.05, -0.05, 0.0],
            dp_dtheta2=[0.1, -0.1, 0.0],
        )
        expected = np.array([[0.01, 0.02], [0.02, 0.04]])
        np.testing.assert_allclose(lab.fim(model), expected, rtol=1e-14)

    def test_divergent_excluded_outcome_raises(self):
        model = lab.ProbabilityModel(
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

    # F11 not a number, F12 not a number, and an infinite F11.
    @pytest.mark.parametrize("fisher, lowest", [
        ([[math.nan, 0.0], [0.0, 0.1]], "nan"),
        ([[0.1, math.nan], [math.nan, 0.1]], "nan"),
        ([[math.inf, 0.0], [0.0, 0.1]], "-inf"),
    ])
    def test_non_finite_fim_raises(self, fisher, lowest):
        text = f"^regret eigenvalue {lowest} is negative beyond tolerance$"
        with pytest.raises(lab.BoundViolationError, match=text):
            lab.regret_report(np.array(fisher), self.qfim)

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
        # Squaring this c_tilde as pow's x**2 instead of x * x moves the residuals
        # of f = 0.8, 0.85, 0.9 and 0.95 by 1 ulp; f = 0.95 falls below the floor.
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

    def test_c_tilde_is_squared_as_a_product(self):
        # FIM = QFIM leaves no regret, so the residual is -c_tilde^2; through
        # glibc's pow this c_tilde**2 is 1 ulp off c_tilde * c_tilde.
        c_tilde, quantum = 0.5284744105594529, self.quanta[1]
        rows, _ = measurements._regrets_and_checks(quantum.matrix[None], quantum, c_tilde)
        assert rows[:, 0].tolist() == [0.0, 0.0, -(c_tilde * c_tilde)]

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

    def test_non_finite_fim_raises_as_the_scalar_route(self):
        quantum = self.quanta[1].matrix
        for entry in ((0, 0), (0, 1), (1, 1)):
            for value in (math.nan, math.inf, -math.inf):
                fisher = 0.5 * quantum
                fisher[entry] = fisher[entry[::-1]] = value
                with pytest.raises(lab.BoundViolationError) as scalar:
                    lab.regret_report(fisher, quantum)
                fishers = np.array([0.5 * quantum, fisher, fisher])
                with pytest.raises(lab.BoundViolationError, match="^row 1: regret eigenvalue"):
                    regret_rows(fishers, quantum, 0.5)
                with pytest.raises(lab.BoundViolationError) as stacked:
                    regret_rows(fisher[None], quantum, 0.5)
                assert str(stacked.value) == f"row 0: {scalar.value}"

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


class TestLowestEigenvalue:
    """The regret check's lower eigenvalue against ``np.linalg.eigvalsh``."""

    @staticmethod
    def symmetric(a, b, c):
        """Symmetric 2x2 matrices [[a, b], [b, c]], stacked along axis 0."""
        return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)

    @staticmethod
    def assert_parity(matrices):
        lowest = measurements._lowest_eigenvalue(matrices)
        expected = np.linalg.eigvalsh(matrices)[:, 0]
        scale = np.max(np.abs(matrices), axis=(1, 2))
        assert np.all(np.abs(lowest - expected) <= 1e-15 * scale)
        # The regret check at each matrix's own scale flags the same rows.
        np.testing.assert_array_equal(lowest < -1e-6 * scale, expected < -1e-6 * scale)

    def test_random_matrices(self):
        rng = np.random.default_rng(28)
        entries = rng.standard_normal((3, 100_000))
        self.assert_parity(self.symmetric(*entries))
        # Each matrix at its own scale, from 1e-300 to 1e300.
        self.assert_parity(self.symmetric(*entries * 10.0 ** rng.uniform(-300, 300, 100_000)))

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
    def test_crafted_matrices(self, scale):
        rng = np.random.default_rng(29)
        a, c = rng.standard_normal((2, 1000))
        zero = np.zeros(1000)
        # Rank one u u^T, and each of its entries moved by an ulp or two.
        u = rng.standard_normal((2, 1000))
        rank_one = (u[0] * u[0], u[0] * u[1], u[1] * u[1])
        nudged = [np.nextafter(x, rng.choice([-np.inf, np.inf], 1000)) for x in rank_one]
        for matrices in (
            self.symmetric(a, zero, c),  # diagonal
            self.symmetric(a, c, a),  # equal diagonals
            self.symmetric(a, a, zero),
            self.symmetric(*rank_one),
            self.symmetric(*nudged),
        ):
            self.assert_parity(scale * matrices)


def givens(i, j, angle):
    """Rotation by ``angle`` in the (i, j) plane of the 4-dimensional subspace."""
    rotation = np.eye(4)
    rotation[i, i] = rotation[j, j] = math.cos(angle)
    rotation[i, j], rotation[j, i] = -math.sin(angle), math.sin(angle)
    return rotation


def scalar_projective_row(state, basis, quantum, c_tilde):
    """(delta1, delta2, irtr_residual) of one basis through the scalar route."""
    model = lab.projective_model(state, lab.ProjectiveMeasurement4(basis))
    report = lab.regret_report(lab.fim(model), quantum)
    point = lab.TradeoffPoint(report.delta1, report.delta2)
    return report.delta1, report.delta2, lab.irtr_residual(point, c_tilde)


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
        return scalar_projective_row(self.state, basis, self.quantum, self.c_tilde)

    def batch(self, *bases, c_tilde=None, first_sample=0):
        c_tilde = self.c_tilde if c_tilde is None else c_tilde
        rows, checks = projective_regrets_and_checks(
            state_coefficients(self.state), np.stack(bases), self.quantum, c_tilde
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
        model = lab.projective_model(self.state, lab.ProjectiveMeasurement4(basis))
        # Both routes drop outcomes 2 and 3 and so lose part of F22, which
        # is 0.25 here (the QFIM value) in exact arithmetic.
        assert lab.fim(model)[1, 1] == pytest.approx(0.220051, abs=1e-6)
        assert tuple(self.batch(basis)[:, 0]) == self.scalar(basis)

    def test_haar_bases_are_bitwise_equal(self):
        bases = [lab.haar_random_orthogonal(seed).matrix for seed in range(40)]
        rows = self.batch(*bases)
        for k, basis in enumerate(bases):
            assert tuple(rows[:, k]) == self.scalar(basis)
        # Both extremes of the separation range and stacks on either side of
        # the runners' sample block; each stack is a prefix of the same draws.
        block = experiments._SAMPLE_BLOCK
        for seed, theta2 in enumerate((0.006, 0.05, 1.0, 6.0, 12.0)):
            overlaps = lab.overlap_integrals(
                lab.gaussian_psf(1.0), lab.SourceGeometry(0.0, theta2), lab.QuadratureSpec()
            )
            state, quantum = lab.build_state_model(overlaps), lab.qfim(overlaps)
            c_tilde = lab.incompatibility(overlaps).c_tilde
            normals = np.random.default_rng(seed).standard_normal((block + 1, 4, 4))
            bases = haar_random_bases(normals)
            # The scalar route draws its own bases, one at a time, from the same stream.
            rng = np.random.default_rng(seed)
            draws = (lab.haar_random_orthogonal(rng).matrix for _ in range(block + 1))
            expected = [scalar_projective_row(state, basis, quantum, c_tilde) for basis in draws]
            for count in (1, 3, block - 1, block + 1):
                rows, checks = projective_regrets_and_checks(
                    state_coefficients(state), bases[:count], quantum, c_tilde
                )
                raise_first_failure(checks, "sample {}: ")
                assert list(zip(*rows.tolist())) == expected[:count]

    def test_a_nan_basis_fails_the_orthogonality_check(self):
        # The orthogonality check comes first, so it names the basis; the
        # probability total, NaN too, is not the error raised.
        good = lab.haar_random_orthogonal(0).matrix
        bad = good.copy()
        bad[2, 1] = np.nan
        with pytest.raises(lab.ConsistencyError, match="^sample 1: basis is not orthogonal"):
            self.batch(good, bad)
        with pytest.raises(lab.ConsistencyError, match="^sample 0: basis is not orthogonal"):
            self.batch(np.full((4, 4), np.nan))

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
        # 1e200 squares past the float range, to inf and without a warning.
        for c_tilde in (1.1, 1e200):
            with pytest.raises(ValueError):
                lab.irtr_residual(lab.TradeoffPoint(*self.scalar(basis)[:2]), c_tilde)
            with pytest.raises(ValueError, match="sample 0: c_tilde"):
                self.batch(basis, c_tilde=c_tilde)

    def test_errors_carry_the_scalar_routes_text(self):
        good = lab.haar_random_orthogonal(0).matrix
        # The last bound is a thousandth of the QFIM, far below this basis's
        # FIM: its regret eigenvalue fails.
        cases = [
            (1.001 * good, self.quantum, self.c_tilde),
            (self.near_null(1e-8), self.quantum, self.c_tilde),
            (good, self.quantum, 1.1),
            (good, 1e-3 * self.quantum.matrix, self.c_tilde),
        ]
        for basis, quantum, c_tilde in cases:
            with pytest.raises((ValueError, lab.IrtrLabError)) as scalar:
                scalar_projective_row(self.state, basis, quantum, c_tilde)
            with pytest.raises(scalar.type) as batch:
                rows, checks = projective_regrets_and_checks(
                    state_coefficients(self.state), basis[None], quantum, c_tilde
                )
                raise_first_failure(checks, "sample {}: ", 5)
            assert str(batch.value) == f"sample 5: {scalar.value}"
        assert str(scalar.value).startswith("regret eigenvalue ")

    def test_an_earlier_sample_fails_first_whatever_its_check(self):
        # At c_tilde = 1 the first Haar basis (delta1^2 + delta2^2 = 0.90)
        # falls below the residual floor, its last check; sample 1 fails
        # fim's drop rule, an earlier check.  The scalar route meets sample 0
        # first.
        good = lab.haar_random_orthogonal(0).matrix
        with pytest.raises(lab.BoundViolationError, match="sample 0: IRTR residual"):
            self.batch(good, self.near_null(1e-8), c_tilde=1.0)
