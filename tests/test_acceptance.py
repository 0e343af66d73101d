"""Acceptance suite.

One test per acceptance criterion, numbered, each printing a single
PASS/FAIL line with the measured worst case next to its tolerance.  Run
with -v (or -s) to see one line per criterion.
"""

import math

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab.experiments import inclusive_grid


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="module")
def unit_psf():
    return lab.gaussian_psf(1.0)


@pytest.fixture(scope="module")
def bound_sweep(unit_psf):
    """Regret data shared by the quantum-bound and tradeoff criteria.

    20 random geometries evaluated for direct imaging and mode sorting,
    plus 10^4 Haar-random projective measurements at theta2 = 0.1 sigma.
    Each record is (delta1, delta2, c_tilde, min regret eigenvalue).
    """
    records = []
    rng = np.random.default_rng(20260822)
    for _ in range(20):
        geometry = lab.SourceGeometry(
            float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.05, 8.0))
        )
        overlaps = lab.overlap_integrals(unit_psf, geometry)
        quantum = lab.qfim(overlaps)
        c_tilde = lab.incompatibility(overlaps).c_tilde
        for model in (
            lab.direct_imaging_model(unit_psf, geometry),
            lab.spade_model(1.0, geometry),
        ):
            fisher = lab.fim(model)
            lowest = float(np.linalg.eigvalsh(quantum.matrix - fisher)[0])
            summary = lab.regret_report(fisher, quantum)
            records.append((summary.delta1, summary.delta2, c_tilde, lowest))

    geometry = lab.SourceGeometry(0.0, 0.1)
    overlaps = lab.overlap_integrals(unit_psf, geometry)
    state = lab.build_state_model(overlaps)
    quantum = lab.qfim(overlaps)
    c_tilde = lab.incompatibility(overlaps).c_tilde
    haar_rng = np.random.default_rng(np.random.SeedSequence(7))
    for index in range(10_000):
        measurement = lab.haar_random_orthogonal(haar_rng)
        fisher = lab.fim(lab.projective_model(state, measurement))
        lowest = float(np.linalg.eigvalsh(quantum.matrix - fisher)[0])
        summary = lab.regret_report(fisher, quantum)
        records.append((summary.delta1, summary.delta2, c_tilde, lowest))
    return records


def test_criterion_01_incompatibility_routes_agree(unit_psf):
    worst = 0.0
    for ratio in inclusive_grid(0.1, 8.0, 0.05):
        closed = lab.gaussian_incompatibility(1.0, ratio)
        quadrature = lab.incompatibility(
            lab.overlap_integrals(unit_psf, lab.SourceGeometry(0.0, ratio))
        ).c_tilde
        worst = max(worst, abs(closed - quadrature))
    report(
        1,
        worst <= 1e-8,
        f"closed-form vs quadrature c_tilde on [0.1, 8] grid: worst {worst:.3e} <= 1e-8",
    )


def test_criterion_02_point_values_and_commutator_expectation(unit_psf):
    at_two_sigma = lab.incompatibility(
        lab.overlap_integrals(unit_psf, lab.SourceGeometry(0.0, 2.0))
    ).c_tilde
    near_zero = lab.incompatibility(
        lab.overlap_integrals(unit_psf, lab.SourceGeometry(0.0, 0.01))
    ).c_tilde
    rng = np.random.default_rng(99)
    worst_c = 0.0
    for theta2 in rng.uniform(0.05, 8.0, size=20):
        coeffs = lab.incompatibility(
            lab.overlap_integrals(unit_psf, lab.SourceGeometry(0.0, float(theta2)))
        )
        worst_c = max(worst_c, abs(coeffs.c))
    ok = at_two_sigma <= 1e-10 and near_zero >= 0.9999 and worst_c <= 1e-12
    report(
        2,
        ok,
        f"c_tilde(2 sigma) = {at_two_sigma:.3e} <= 1e-10, "
        f"c_tilde(0.01 sigma) = {near_zero:.6f} >= 0.9999, "
        f"|c| worst {worst_c:.3e} <= 1e-12 over 20 random separations",
    )


def test_criterion_03_commutator_trace_norm_identity(unit_psf):
    worst = 0.0
    for ratio in (0.1, 0.5, 1.0, 2.0, 4.0):
        overlaps = lab.overlap_integrals(unit_psf, lab.SourceGeometry(0.0, ratio))
        value = lab.commutator_quantity(lab.build_state_model(overlaps))
        worst = max(worst, abs(value - 4.0 * abs(overlaps.beta)))
    report(
        3,
        worst <= 1e-9,
        f"tr|sqrt(rho)[L1,L2]sqrt(rho)| vs 4|beta|: worst {worst:.3e} <= 1e-9",
    )


def test_criterion_04_sld_defining_equation(unit_psf):
    worst = 0.0
    for ratio in (0.5, 1.0, 2.0, 4.0):
        residual = lab.verify_sld(
            unit_psf, lab.SourceGeometry(0.0, ratio), h=1e-5
        )
        worst = max(worst, residual)
    report(
        4,
        worst <= 1e-6,
        f"SLD finite-difference residual at h = 1e-5 sigma: worst {worst:.3e} <= 1e-6",
    )


def test_criterion_05_aligned_mode_sorting_is_separation_optimal(unit_psf):
    geometry = lab.SourceGeometry(0.0, 0.1)
    fisher = lab.fim(lab.spade_model(1.0, geometry))
    quantum = lab.qfim(lab.overlap_integrals(unit_psf, geometry))
    gap = abs(fisher[1, 1] - 0.25)
    delta2 = lab.regret_report(fisher, quantum).delta2
    ok = gap <= 1e-8 and delta2 <= 1e-6
    report(
        5,
        ok,
        f"aligned SPADE at theta2 = 0.1 sigma: |F22 - 1/4| = {gap:.3e} <= 1e-8, "
        f"delta2 = {delta2:.3e} <= 1e-6",
    )


def test_criterion_06_far_field_centroid_information():
    fisher = lab.fim(lab.spade_model(1.0, lab.SourceGeometry(5.0, 0.01)))
    deviation = abs(fisher[0, 0] - 1.0)
    report(
        6,
        deviation <= 0.01,
        f"SPADE at theta1 = 5 sigma, theta2 = 0.01 sigma: F11 = {fisher[0, 0]:.6f} "
        f"within 1% of 1/sigma^2",
    )


def test_criterion_07_quantum_bound_holds(bound_sweep):
    worst = min(record[3] for record in bound_sweep)
    report(
        7,
        worst >= -1e-9,
        f"min regret eigenvalue over direct imaging, SPADE, and 10^4 Haar draws: "
        f"{worst:.3e} >= -1e-9",
    )


def test_criterion_08_tradeoff_relation_holds(bound_sweep):
    worst = math.inf
    for delta1, delta2, c_tilde, _ in bound_sweep:
        residual = lab.irtr_residual(lab.TradeoffPoint(delta1, delta2), c_tilde)
        worst = min(worst, residual)
    report(
        8,
        worst >= -1e-9,
        f"irtr_residual over all {len(bound_sweep)} regret pairs: "
        f"worst {worst:.3e} >= -1e-9",
    )


def test_criterion_09_rayleigh_curse_regimes(unit_psf):
    def deltas(ratio):
        geometry = lab.SourceGeometry(0.0, ratio)
        summary = lab.regret_report(
            lab.fim(lab.direct_imaging_model(unit_psf, geometry)),
            lab.qfim(lab.overlap_integrals(unit_psf, geometry)),
        )
        return summary.delta1, summary.delta2

    _, close_d2 = deltas(0.1)
    far_d1, far_d2 = deltas(8.0)
    ok = close_d2 >= 0.9 and far_d1 <= 0.1 and far_d2 <= 0.1
    report(
        9,
        ok,
        f"direct imaging: delta2(0.1 sigma) = {close_d2:.3f} >= 0.9; "
        f"deltas(8 sigma) = ({far_d1:.3f}, {far_d2:.3f}) <= 0.1",
    )


def test_criterion_10_misalignment_exchanges_the_regrets(unit_psf):
    quantum = lab.qfim(lab.overlap_integrals(unit_psf, lab.SourceGeometry(0.0, 0.1)))
    delta1s, delta2s = [], []
    for ratio in inclusive_grid(0.0, 3.0, 0.05):
        geometry = lab.SourceGeometry(ratio, 0.1)
        summary = lab.regret_report(lab.fim(lab.spade_model(1.0, geometry)), quantum)
        delta1s.append(summary.delta1)
        delta2s.append(summary.delta2)
    drops = np.diff(delta1s)
    rises = np.diff(delta2s)
    ok = bool(np.all(drops <= 1e-12) and np.all(rises >= -1e-12))
    report(
        10,
        ok,
        f"SPADE over theta1 in [0, 3 sigma]: delta1 non-increasing "
        f"(max step {drops.max():.3e}), delta2 non-decreasing "
        f"(min step {rises.min():.3e})",
    )


def test_criterion_11_frontier_matches_bisection():
    def bisect(c_tilde, delta1):
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if lab.irtr_residual(lab.TradeoffPoint(delta1, mid), c_tilde) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    worst_residual = 0.0
    worst_gap = 0.0
    for c_tilde in (0.2, 0.5, 0.9, 1.0):
        delta1, delta2 = lab.irtr_frontier(c_tilde, 33)
        for point in map(lab.TradeoffPoint, delta1.tolist(), delta2.tolist()):
            worst_residual = max(
                worst_residual, abs(lab.irtr_residual(point, c_tilde))
            )
            if point.delta2 > 0.0:
                worst_gap = max(
                    worst_gap, abs(bisect(c_tilde, point.delta1) - point.delta2)
                )
    ok = worst_residual <= 1e-12 and worst_gap <= 1e-10
    report(
        11,
        ok,
        f"frontier residual worst {worst_residual:.3e} <= 1e-12, "
        f"bisection gap worst {worst_gap:.3e} <= 1e-10",
    )


def test_criterion_12_seeded_runs_are_reproducible(tmp_path):
    def run(name, seed):
        config = lab.ExperimentConfig(
            figure_id="fig5",
            n_random=256,
            seed=seed,
            frontier_samples=64,
            output_dir=str(tmp_path / name),
        )
        samples, frontier, _ = lab.run_fig5(config)
        return samples.read_bytes(), frontier.read_bytes()

    first = run("first", seed=5)
    second = run("second", seed=5)
    other = run("other", seed=6)
    ok = (
        first[0] == second[0]
        and first[1] == second[1]
        and other[0] != first[0]
        and other[1] == first[1]
    )
    report(
        12,
        ok,
        "fig5 reruns: same seed byte-identical, new seed changes samples "
        "but not the frontier",
    )
