"""Measurement probability models, Fisher information, and regret reports.

Three measurement families are covered:

* direct imaging: the photon position is recorded, giving the intensity
  density p(x) = (psi(x - X1)^2 + psi(x - X2)^2) / 2 on a quadrature grid;
* spatial-mode demultiplexing (SPADE): the photon is sorted into
  Hermite-Gaussian modes matched to a Gaussian PSF of width sigma, giving a
  discrete distribution over the mode index;
* random projective measurements: an orthogonal basis of the 4-dimensional
  subspace carrying the state, drawn from the Haar measure.

Each model carries the outcome probabilities together with their derivatives
with respect to centroid and separation, from which ``fim`` computes the
classical Fisher information matrix and ``regret_report`` the normalized
square-root information regrets against the quantum bound.  These single
models are the reference route.  The stacked routes, each bit for bit equal
to it and keeping its checks, are ``regret_rows`` for FIMs,
``projective_regrets_and_checks`` for projective measurements, ``spade_model``
for (theta1, theta2) points, and ``overlaps_and_direct_fims`` for a sweep's
overlap columns and direct-imaging FIMs, for an even PSF from the same
passes' half-grid samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolationError,
    ConsistencyError,
    ConvergenceError,
    CutoffError,
    DegenerateOutcomeError,
    raise_first_failure,
)
from .psf_core import (
    PointSpreadFunction,
    QuadratureSpec,
    SourceGeometry,
    centroid_half_window,
    first_passes,
    folded_integrals,
    overlap_columns,
    overlap_passes,
    pow_squares,
    quadrature_grid,
    quadrature_ladder,
    source_positions,
    sweep_points,
)
from .state_model import Qfim, StateModel4
from .tradeoff import RESIDUAL_FLOOR, delta_range_checks

CONTINUUM_GRID = "continuum_grid"
DISCRETE_MODES = "discrete_modes"
SUBSPACE_PROJECTORS = "subspace_projectors"

_OUTCOME_KINDS = (CONTINUUM_GRID, DISCRETE_MODES, SUBSPACE_PROJECTORS)

# Cap on the adaptive SPADE cutoff; mass criterion per the module contract.
_MODE_CAP = 512
_MASS_TOLERANCE = 1e-14


@dataclass(frozen=True)
class ProbabilityModel:
    """Outcome probabilities and their parameter derivatives.

    For ``continuum_grid`` models the probabilities are density samples and
    ``weights`` holds the matching quadrature weights; sums below mean
    weighted sums.  Discrete models leave ``weights`` as None.
    ``truncated_mass`` and ``fisher_tail_bound`` report upper bounds on what
    a mode cutoff discarded (zero where no truncation happens).
    Arrays of shape (m, n) stack m models of n outcomes, each row checked on
    its own (with its own ``truncated_mass``, if that is an array of m);
    an error names the first failing row.
    """

    outcome_kind: str
    probabilities: np.ndarray
    dp_dtheta1: np.ndarray
    dp_dtheta2: np.ndarray
    weights: np.ndarray | None = None
    truncated_mass: float = 0.0
    fisher_tail_bound: float = 0.0

    def __post_init__(self):
        if self.outcome_kind not in _OUTCOME_KINDS:
            raise ValueError(f"unknown outcome_kind {self.outcome_kind!r}")
        for name in ("probabilities", "dp_dtheta1", "dp_dtheta2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        shape = self.probabilities.shape
        if self.dp_dtheta1.shape != shape or self.dp_dtheta2.shape != shape:
            raise ValueError("probabilities and derivatives must share one shape")
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != shape:
                raise ValueError("weights must match the probability shape")
            object.__setattr__(self, "weights", weights)
        weights = self.weights if self.weights is not None else 1.0
        derivatives = (self.dp_dtheta1, self.dp_dtheta2)
        checks = _model_checks(self.probabilities, derivatives, weights, self.truncated_mass)
        raise_first_failure(checks, "row {}: " if self.probabilities.ndim > 1 else "")


def _model_checks(probabilities, derivatives, weights=1.0, truncated_mass=0.0, mirrored=False):
    """``ProbabilityModel``'s checks of each row, in the order a row meets them."""
    # A mirrored row is the left half of a mirror-symmetric one: its sums count each
    # term twice, but odd dp_dtheta1's terms cancel in pairs (NaN stays NaN).
    counts = (2.0, 0.0, 2.0) if mirrored else (1.0, 1.0, 1.0)

    # Weighted sums and the largest |derivative| without a block-sized temporary.
    def total(values, count):
        return count * (np.vecdot(weights, values) if np.ndim(weights) else values.sum(axis=-1))

    # Written as `~(... <= tol)` so that a NaN or inf anywhere fails the check.
    mass = total(probabilities, counts[0]) + truncated_mass
    negative, off = np.any(probabilities < 0.0, axis=-1), ~(abs(mass - 1.0) <= 1e-10)
    checks = [
        (ConsistencyError, "probabilities must be nonnegative", negative),
        (ConsistencyError, "total probability {!r} deviates from 1", off, mass),
    ]
    for name, derivative, count in zip(("dp_dtheta1", "dp_dtheta2"), derivatives, counts[1:]):
        drift = total(derivative, count)
        largest = np.max(derivative, axis=-1, initial=1.0)
        scale = np.maximum(largest, -np.min(derivative, axis=-1, initial=-1.0))
        bounded = (abs(drift) <= 1e-8 * scale) & (scale < math.inf)
        checks.append((ConsistencyError, f"sum of {name} = {{!r}} is not 0", ~bounded, drift))
    return checks


@dataclass(frozen=True)
class ProjectiveMeasurement4:
    """Orthogonal measurement on the 4-dimensional state subspace.

    Rows of ``matrix`` are the measurement vectors in the orthonormal basis
    of the state model; ``seed`` is a provenance tag only.
    """

    matrix: np.ndarray
    seed: int

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        raise_first_failure([_orthogonality_check(matrix)], "")
        object.__setattr__(self, "matrix", matrix)


def _orthogonality_check(matrices):
    """The check that each square matrix of a stack is orthogonal."""
    product = np.swapaxes(matrices, -1, -2) @ matrices - np.eye(matrices.shape[-1])
    skew = np.max(np.abs(product), axis=(-2, -1))
    return ConsistencyError, "basis is not orthogonal within 1e-12", skew > 1e-12


@dataclass(frozen=True)
class RegretReport:
    """Classical-vs-quantum information accounting for one measurement."""

    fim: np.ndarray
    qfim: np.ndarray
    regret: np.ndarray
    delta1: float
    delta2: float


def direct_imaging_model(
    psf: PointSpreadFunction,
    geometry: SourceGeometry,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityModel:
    """Continuum position-measurement model on a quadrature grid.

    Positions are measured from the centroid, with the sources at -+theta2/2;
    the Fisher information does not depend on that choice of origin.  The
    grid is a composite Gauss-Legendre half-grid on [0, theta2/2 + R sigma]
    whose nodes and weights are reflected bitwise, so outcome i and outcome
    n-1-i are mirror images.  The half-grid climbs the passes of
    ``quadrature_ladder(quad)`` from ``first_passes``, and the model is the
    finer pass's of the first pair of passes (h, 2h) whose models both pass
    their own and ``fim``'s checks and whose F_jj drift by at most
    ``abs_tolerance`` times QFIM_jj, the QFIM of the finer pass's kappa and
    gamma.  At the top pair a failure raises: the coarser pass's, the finer
    pass's, then the drift's (ConvergenceError).
    """
    window = centroid_half_window(psf, geometry.theta2, quad)
    counts, previous = quadrature_ladder(quad), None
    for index in range(int(first_passes(psf, geometry.theta2, quad)), len(counts)):
        half_x, half_w = quadrature_grid(0.0, window, counts[index], quad.nodes_per_panel)
        positions, weights = _reflected(half_x, half_w)
        amplitudes = _amplitudes(psf, geometry.theta2, positions)
        if psf.even:  # The sweep's folded sums, over the right half.
            right = [a[half_x.size :] for a in amplitudes]
            kappa, gamma = folded_integrals(*right, half_w, np.empty(half_w.shape))[1:3]
        else:
            a1, d1, a2, _ = amplitudes
            kappa, gamma = np.vecdot(d1 * d1, weights), np.vecdot(d1 * a2, weights)
        try:
            model = ProbabilityModel(CONTINUUM_GRID, *_fields(*amplitudes), weights=weights)
            fisher = fim(model)
        except (ConsistencyError, DegenerateOutcomeError):
            if index >= len(counts) - 2:  # A pass of the top pair.
                raise
            previous = None
            continue
        if previous is not None:
            checks = _fim_drift_checks(fisher, previous, kappa, gamma, quad)
            if index == len(counts) - 1 or not any(check[2] for check in checks):
                raise_first_failure(checks, "")
                return model
        previous = fisher


def _fim_drift_checks(fishers, previous, kappa, gamma, quad):
    """The checks that each F_jj drifts from ``previous`` by at most abs_tolerance x QFIM_jj.

    The QFIM diagonals are 4 (kappa - gamma^2) and kappa, from ``kappa`` and
    ``gamma``, shaped like the FIMs' diagonals' first axes.
    """
    drift = np.abs(np.diagonal(fishers, 0, -2, -1) - np.diagonal(previous, 0, -2, -1))
    bounds = [quad.abs_tolerance * 4.0 * (kappa - gamma * gamma), quad.abs_tolerance * kappa]
    message = "direct-imaging F{0}{0} drift {{:.3e}} exceeds abs_tolerance x QFIM{0}{0} = {{:.3e}}"
    return [
        # Written as `~(... <= bound)` so that a NaN drift fails the check.
        (ConvergenceError, message.format(j + 1), ~(drift[..., j] <= bound), drift[..., j], bound)
        for j, bound in enumerate(bounds)
    ]


def overlaps_and_direct_fims(psf, points, quad=QuadratureSpec()):
    """A sweep's (4, n) overlap columns and (n, 2, 2) direct-imaging FIMs, from one pass.

    ``points`` are (theta1, theta2) pairs.  The overlaps are
    ``overlap_columns(psf, points, quad)`` and row i of the FIMs
    ``fim(direct_imaging_model(psf, SourceGeometry(*points[i]), quad))``, bit
    for bit; a failed check raises that route's error, naming its sweep row.
    The overlaps' checks of every row run first, then the model and FIM
    checks.  A PSF not known to be even takes the scalar route.  For an even
    PSF each pass of the overlaps' ladder (``overlap_passes``) also gives the
    FIMs of its rows, from the same half-grid samples, in descending u (the
    reflected grid's left half), each outcome standing for its mirror image
    too: F11 and F22 sum doubled products and F12 is 0.0, as ``fim`` pairs the
    reflected grid; the model checks' sums equal its own to rounding.  A row's
    FIM takes the first pair of passes whose checks pass, its drift bound from
    the pass's own kappa and gamma.  A row whose FIM fails at the top pair
    runs its scalar route, which raises that route's error.
    """
    points = sweep_points(points)
    fishers = np.empty((len(points), 2, 2))
    if not psf.even:
        overlaps = overlap_columns(psf, points, quad)
        for row in range(len(points)):
            fishers[row] = _direct_fim(psf, points, row, quad)
        return overlaps, fishers
    overlaps, wanted = np.empty((4, len(points))), np.ones(len(points), bool)
    # Each row's FIM on its latest pass, and whether that pass met its checks.
    previous, passed = np.zeros_like(fishers), np.zeros(len(points), bool)
    blocks = overlap_passes(psf, points, quad, overlaps, wanted, spare=2)
    for _, rows, integrals, (x, w, a1, d1, a2, d2, *fields) in blocks:
        # The fields, in descending u, land in x and the spare arrays and the
        # weights in a2, all in order in memory; a1, d1 and d2 are fim's work.
        amplitudes = (a[:, ::-1] for a in (a1, d1, a2, d2))
        probabilities, *derivatives = _fields(*amplitudes, (x, *fields))
        weights = a2
        weights[...] = w[:, ::-1]
        checks = _model_checks(probabilities, derivatives, weights, mirrored=True)
        fisher, fisher_checks = _fisher_information(
            probabilities, derivatives, weights, (a1, d1, d2), mirrored=True
        )
        valid = ~np.any([check[2] for check in checks + fisher_checks], axis=0)
        drift_checks = _fim_drift_checks(fisher, previous[rows], *integrals[1:3], quad)
        drifted = np.any([check[2] for check in drift_checks], axis=0)
        settled = wanted[rows] & passed[rows] & valid & ~drifted
        fishers[rows[settled]], wanted[rows[settled]] = fisher[settled], False
        previous[rows], passed[rows] = fisher, valid
    for row in np.flatnonzero(wanted).tolist():
        fishers[row] = _direct_fim(psf, points, row, quad)
    return overlaps, fishers


def _direct_fim(psf, points, row, quad):
    """``fim(direct_imaging_model(...))`` of one sweep row, an error naming the row."""
    try:
        return fim(direct_imaging_model(psf, SourceGeometry(*points[row].tolist()), quad))
    except (ConsistencyError, ConvergenceError, DegenerateOutcomeError) as error:
        raise type(error)(f"row {row}: {error}") from None


def direct_imaging_pixelated_model(
    psf: PointSpreadFunction,
    geometry: SourceGeometry,
    bin_width: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityModel:
    """Direct imaging with finite pixels of width ``bin_width``.

    Each outcome is the photon count in one pixel; probabilities integrate
    the intensity over the pixel with a per-pixel Gauss rule.  The pixel
    edges sit at +-k ``bin_width`` about the centroid, with as many pixels
    on each side as it takes to cover the window theta2/2 + R sigma, so the
    layout is mirror-symmetric and R, being a numerical window, does not
    move the detector.  Each left-half pixel is summed in the mirrored node
    order of its right-half twin.
    """
    if not bin_width > 0.0:
        raise ValueError("bin_width must be positive")
    half_count = math.ceil(centroid_half_window(psf, geometry.theta2, quad) / bin_width)
    half_x, half_w = quadrature_grid(
        0.0, half_count * bin_width, half_count, quad.nodes_per_panel
    )
    rows = (half_count, quad.nodes_per_panel)
    positions, weights = _reflected(half_x.reshape(rows), half_w.reshape(rows))
    fields = _intensity_and_derivatives(psf, geometry.theta2, positions)
    return ProbabilityModel(DISCRETE_MODES, *((weights * values).sum(axis=1) for values in fields))


def _reflected(nodes, weights):
    """Extend a half-grid on [0, w] to [-w, w] by a bitwise reflection.

    Entries along axis 0 (nodes, or a 2-D grid's rows) are reversed and nodes
    negated, so entry i of the result mirrors entry n-1-i; a row's nodes keep
    their order, so each mirrored row runs in the mirrored order of its twin.
    """
    return (
        np.concatenate([-np.flip(nodes, 0), nodes]),
        np.concatenate([np.flip(weights, 0), weights]),
    )


def _intensity_and_derivatives(psf, theta2, offsets):
    """p = (a1^2 + a2^2) / 2, dp/dtheta1 and dp/dtheta2 at ``offsets``."""
    return _fields(*_amplitudes(psf, theta2, offsets))


def _amplitudes(psf, theta2, offsets):
    """psi, psi' of each source at ``offsets``, in four arrays of their own."""
    # Offsets from the centroid: source j sits at -+theta2/2, so for an even
    # PSF p is even and dp/dtheta1 odd, bit for bit.
    half = 0.5 * theta2
    amplitudes = [np.empty(np.shape(offsets)) for _ in range(4)]
    psf.amplitude_and_derivative(offsets + half, out=amplitudes[:2])
    psf.amplitude_and_derivative(offsets - half, out=amplitudes[2:])
    return amplitudes


def _fields(amp1, damp1, amp2, damp2, out=None):
    """p, dp/dtheta1, dp/dtheta2 from psi, psi' of each source, into the three arrays ``out``.

    The four inputs are overwritten; ``out`` may reuse amp1 and amp2, as it does by default.
    """
    if out is None:
        out = amp1, amp2, np.empty(np.shape(amp1))
    probabilities, dp_dtheta1, dp_dtheta2 = out
    # d(x - X_j)/dtheta1 = -1 for both sources; for theta2 the two sources
    # move apart, so the signs split.
    work1, work2 = np.multiply(amp1, damp1, out=damp1), np.multiply(amp2, damp2, out=damp2)
    np.add(np.square(amp1, out=amp1), np.square(amp2, out=amp2), out=probabilities)
    np.multiply(probabilities, 0.5, out=probabilities)
    np.negative(np.add(work1, work2, out=dp_dtheta1), out=dp_dtheta1)
    np.multiply(np.subtract(work1, work2, out=dp_dtheta2), 0.5, out=dp_dtheta2)
    return probabilities, dp_dtheta1, dp_dtheta2


def _gammaln(x):
    """``scipy.special.gammaln``, imported on use.

    scipy.special dominates the package's import time and only SPADE needs it.
    """
    from scipy.special import gammaln

    return gammaln(x)


def _mode_weights(modes: np.ndarray, alpha: np.ndarray):
    """w(q, alpha) = alpha^(2q) exp(-alpha^2) / q! and dw/dalpha for a column of alphas.

    The weights are computed in logs for stability, a row per alpha.  A row
    with alpha = 0 is the point mass at q = 0 with every derivative 0.
    """
    # math.log, one alpha at a time: numpy's SIMD log can differ from it in the
    # last bit on some CPUs, which would move the last digits of the CSVs.
    log_alpha = [[math.log(abs(a)) if a else 0.0] for a in alpha[:, 0].tolist()]
    weights = np.exp(2.0 * modes * np.array(log_alpha) - alpha * alpha - _gammaln(modes + 1.0))
    # d/dalpha [alpha^(2q) e^(-alpha^2)/q!] = w * 2 (q/alpha - alpha).
    zero = alpha[:, 0] == 0.0
    slopes = weights * 2.0 * (modes / np.where(zero[:, None], 1.0, alpha) - alpha)
    weights[zero], slopes[zero] = modes == 0, 0.0
    return weights, slopes


def _tail_bounds(sigma, means, cutoffs):
    """(truncated mass bound, Fisher tail bound) of SPADE models cut at ``cutoffs``.

    ``means`` holds the two Poisson means alpha_j^2 of a model along its last
    axis; its other axes broadcast against ``cutoffs``.  The Poisson(mean)
    mass beyond Q is bounded by a geometric series whose terms shrink by at
    least mean/(Q+2), and 1 where that ratio is not below 1.  Per mode, every
    FIM entry is bounded by sum_j w_j (q - mu_j)^2 / (mu_j sigma^2); the tail
    of that series is bounded by mu_j times the mass beyond Q-2 plus the mass
    beyond Q-1 (the Poisson factorial moments).
    """
    means = np.asarray(means, dtype=float)[..., np.newaxis, :]
    # Poisson tails beyond Q, Q-2 and Q-1 for both means: shape (..., 3, 2).
    beyond = np.asarray(cutoffs)[..., np.newaxis, np.newaxis] + np.array([[0], [-2], [-1]])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = means / (beyond + 2.0)
        log_first = (beyond + 1.0) * np.log(means) - means - _gammaln(beyond + 2.0)
        tails = np.exp(log_first) / (1.0 - ratio)
    tails = np.where(means == 0.0, 0.0, np.where((beyond < 0) | (ratio >= 1.0), 1.0, tails))
    mass, below_2, below_1 = tails[..., 0, :], tails[..., 1, :], tails[..., 2, :]
    fisher = means[..., 0, :] * below_2 + below_1
    return 0.5 * (mass[..., 0] + mass[..., 1]), (fisher[..., 0] + fisher[..., 1]) / sigma**2


def _source_alphas(sigma, geometry):
    """alpha_j = X_j / 2 sigma, a row per point, and whether ``geometry`` is a stack of points."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    stacked = not isinstance(geometry, SourceGeometry)
    points = geometry if stacked else [(geometry.theta1, geometry.theta2)]
    return source_positions(points) / (2.0 * sigma), stacked


def spade_cutoff(sigma: float, geometry: SourceGeometry | np.ndarray) -> int | np.ndarray:
    """The adaptive SPADE cutoff of ``spade_model(sigma, geometry)``.

    It is the smallest cutoff Q >= 2 whose truncated mass bound is below
    1e-14 and whose Fisher tail bound is at most 1e-13/sigma^2; a
    CutoffError is raised when no Q up to 512 meets both.  Each Poisson tail
    bound is 1 while the mean is at least Q + 2 and only shrinks after that,
    so every cutoff above one that meets both criteria meets them too, and
    bisection finds the smallest.  (n, 2) (theta1, theta2) points give an
    array of their cutoffs, bisected together: each row takes the midpoints
    its own bisection would, and the first row without a cutoff raises the
    same error, naming that row.
    """
    alphas, stacked = _source_alphas(sigma, geometry)
    with np.errstate(over="ignore"):  # An inf mean has no cutoff, as a huge one has none.
        means = alphas * alphas
    low, high = np.full(len(means), 2), np.full(len(means), _MODE_CAP + 1)
    while (low < high).any():
        # A converged row evaluates its accepted cutoff again and keeps it.
        active, middle = low < high, (low + high) // 2
        mass, fisher = _tail_bounds(sigma, means, middle)
        met = (mass < _MASS_TOLERANCE) & (fisher <= 1e-13 / sigma**2)
        high = np.where(active & met, middle, high)
        low = np.where(active & ~met, middle + 1, low)
    message = f"no cutoff up to {_MODE_CAP} meets the truncation criteria"
    raise_first_failure([(CutoffError, message, low > _MODE_CAP)], "row {}: " if stacked else "")
    return low if stacked else int(low[0])


def spade_model(
    sigma: float,
    geometry: SourceGeometry | np.ndarray,
    mode_cutoff: int | None = None,
) -> ProbabilityModel:
    """Hermite-Gaussian mode-sorting model for a Gaussian PSF of width sigma.

    The outcome is the mode index q = 0..Q.  With ``mode_cutoff=None`` the
    cutoff Q is the smallest one whose discarded mass is below 1e-14 and
    whose discarded Fisher information is at most 1e-13/sigma^2
    (``spade_cutoff``); an explicit cutoff must satisfy the mass criterion
    or a CutoffError is raised.  The model reports both tail bounds.
    (n, 2) (theta1, theta2) points and an explicit cutoff give a stacked
    model, row i equal bit for bit to the model of ``SourceGeometry(*points[i])``
    alone; the tail bounds of all rows are evaluated together, one pair per
    row, and an error names the first failing row.
    """
    alphas, stacked = _source_alphas(sigma, geometry)
    if mode_cutoff is None:
        if stacked:
            raise ValueError("a stacked SPADE model needs an explicit mode_cutoff")
        mode_cutoff = spade_cutoff(sigma, geometry)
    cutoff = int(mode_cutoff)
    if cutoff < 0:
        raise ValueError("mode_cutoff must be nonnegative")
    with np.errstate(over="ignore"):  # An inf mean's tail bounds are 1, as a huge one's.
        means = alphas * alphas
    mass_tail, fisher_tail = _tail_bounds(sigma, means, cutoff)
    message = f"cutoff {cutoff} leaves truncated mass bound {{:.3e}}"
    checks = [(CutoffError, message, ~(mass_tail < _MASS_TOLERANCE), mass_tail)]
    raise_first_failure(checks, "row {}: " if stacked else "")

    modes = np.arange(cutoff + 1)
    weights_1, slope_1 = _mode_weights(modes, alphas[:, :1])
    weights_2, slope_2 = _mode_weights(modes, alphas[:, 1:])
    fields = {
        "probabilities": 0.5 * (weights_1 + weights_2),
        # alpha_j = X_j / 2 sigma, so dalpha/dtheta1 = 1/2sigma for both and
        # dalpha/dtheta2 = -+ 1/4sigma.
        "dp_dtheta1": (slope_1 + slope_2) / (4.0 * sigma),
        "dp_dtheta2": (slope_2 - slope_1) / (8.0 * sigma),
    }
    if not stacked:
        fields = {name: values[0] for name, values in fields.items()}
        mass_tail, fisher_tail = float(mass_tail[0]), float(fisher_tail[0])
    return ProbabilityModel(
        outcome_kind=DISCRETE_MODES,
        truncated_mass=mass_tail,
        fisher_tail_bound=fisher_tail,
        **fields,
    )


def hermite_gaussian_wavefunction(q: int, sigma: float, x) -> np.ndarray:
    """Evaluate the q-th Hermite-Gaussian mode of characteristic length sigma.

    Uses the normalized three-term recurrence, so the 1/sqrt(2^q q!) factor
    never appears explicitly and the evaluation stays stable for large q.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    scaled = x / (math.sqrt(2.0) * sigma)
    previous = np.zeros_like(scaled)
    current = np.ones_like(scaled)
    for k in range(q):
        previous, current = current, (
            scaled * math.sqrt(2.0 / (k + 1.0)) * current
            - math.sqrt(k / (k + 1.0)) * previous
        )
    envelope = (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-(x**2) / (4.0 * sigma**2))
    return current * envelope


def haar_random_orthogonal(rng_stream, dim: int = 4, seed: int | None = None):
    """Draw a Haar-distributed orthogonal measurement basis.

    ``rng_stream`` is either an integer seed or a numpy Generator.  The
    construction is QR of a standard-normal matrix with the R-diagonal signs
    folded into Q, which makes the distribution exactly Haar.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if isinstance(rng_stream, (int, np.integer)):
        tag = int(rng_stream) if seed is None else int(seed)
        rng = np.random.default_rng(int(rng_stream))
    else:
        tag = -1 if seed is None else int(seed)
        rng = rng_stream
    normal = rng.standard_normal((dim, dim))
    q_factor, r_factor = np.linalg.qr(normal)
    oriented = q_factor * np.sign(np.diag(r_factor))
    return ProjectiveMeasurement4(matrix=oriented.T, seed=tag)


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(constant, multiplier):
    """SeedSequence's word hash; each call advances the shared hash constant."""

    def hashmix(value):
        nonlocal constant
        value = value ^ constant
        constant = constant * multiplier & _MASK32
        value = value * constant & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = ((_MIX_LEFT * x & _MASK32) - (_MIX_RIGHT * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def spawned_pools(seed: int, spawn_prefix, first: int, count: int) -> np.ndarray:
    """Entropy pools of ``SeedSequence(seed, spawn_key=(*prefix, first + k))``, k < count.

    Returns uint32 words of shape (..., count, 4), row k equal to that child's
    ``pool``.  ``spawn_prefix`` is one prefix (a sequence of ints) or an array
    (..., L) of prefixes; ``(p,)`` names the children of ``spawn()[p]``.
    The seed's words are mixed once, as Python ints; each spawn-key word is
    mixed into every child's pool by the same few numpy ops.  Each spawn-key
    entry must fit one 32-bit word.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError("seed must be a nonnegative integer")
    prefix = np.asarray(spawn_prefix, dtype=object)
    words = [entry for entry in prefix.flat if isinstance(entry, (int, np.integer))]
    if len(words) < prefix.size or not all(0 <= word <= _MASK32 for word in words):
        raise ValueError("spawn prefix entries must be integers below 2**32")
    if not 0 <= first <= first + count <= _MASK32 + 1:
        raise ValueError("spawn indices must lie in [0, 2**32)")
    # The seed's 32-bit words, low first, padded to the pool size as numpy
    # pads entropy followed by a spawn key.
    seed, entropy = int(seed), []
    while seed or not entropy:
        entropy.append(seed & _MASK32)
        seed >>= 32
    entropy += [0] * (4 - len(entropy))
    key = np.moveaxis(prefix.astype(np.uint32), -1, 0)[..., np.newaxis]
    entropy += [*key, np.arange(first, first + count, dtype=np.uint32)]
    hashmix = _hashmix(_MIX_INIT, _MIX_MULT)
    pool = [hashmix(word) for word in entropy[:4]]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = _mix(pool[target], hashmix(pool[source]))
    for word in entropy[4:]:
        for target in range(4):
            pool[target] = _mix(pool[target], hashmix(word))
    return np.stack([np.broadcast_to(word, (*prefix.shape[:-1], count)) for word in pool], -1)


def haar_random_bases(pools) -> np.ndarray:
    """Haar-random 4x4 bases stacked along axis 0, basis k seeded by pool ``pools[k]``.

    With ``pools = spawned_pools(seed, prefix, first, count)`` basis k equals
    ``haar_random_orthogonal(np.random.default_rng(child))`` bit for bit, for
    ``child = SeedSequence(seed, spawn_key=prefix).spawn(first + count)[first + k]``.
    Each pool gives the PCG64 state the child would give, by
    ``generate_state(4, np.uint64)`` on all pools at once and PCG64's 128-bit
    seeding step; one Generator set to each state in turn fills one buffer,
    and the stacked QR factors it one matrix at a time.
    """
    pools = np.asarray(pools, dtype=np.uint32)
    hashmix = _hashmix(_STATE_INIT, _STATE_MULT)
    halves = np.stack([hashmix(pools[:, i % 4]) for i in range(8)], axis=-1)
    halves = halves.astype(np.uint64)
    seeds = halves[:, 0::2] | halves[:, 1::2] << 32
    generator = np.random.Generator(np.random.PCG64(0))
    bits, pcg = generator.bit_generator, {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    normal = np.empty((len(pools), 4, 4))
    # The seed words become Python ints 64 samples at a time, which keeps
    # their small objects within the arenas already in use: converting a
    # whole block at once raised the peak RSS of repeated sweeps by about 1 %.
    for first in range(0, len(pools), 64):
        chunk = zip(normal[first : first + 64], seeds[first : first + 64].tolist())
        for sample, (state_high, state_low, sequence_high, sequence_low) in chunk:
            # PCG64's seeding: the increment from the sequence words, then one
            # LCG step from 0, the state words added, and one more step.
            increment = ((sequence_high << 64 | sequence_low) << 1 | 1) & _MASK128
            start = (state_high << 64 | state_low) + increment
            pcg["state"], pcg["inc"] = (start * _PCG64_MULT + increment) & _MASK128, increment
            bits.state = state
            generator.standard_normal(out=sample)
    q_factor, r_factor = np.linalg.qr(normal)
    q_factor *= np.sign(np.diagonal(r_factor, axis1=1, axis2=2))[:, np.newaxis, :]
    return q_factor.transpose(0, 2, 1)


def projective_model(
    state: StateModel4, meas: ProjectiveMeasurement4
) -> ProbabilityModel:
    """Born-rule probabilities of an orthogonal measurement on the subspace."""
    if meas.matrix.shape != state.rho.shape:
        raise ValueError("measurement dimension does not match the state")
    return ProbabilityModel(SUBSPACE_PROJECTORS, *_born_rule(state, meas.matrix))


def _born_rule(state, basis):
    """Probabilities and their two derivatives for one basis or a stack of them."""
    # rho is diagonal, so p(k) = sum_m O[k,m]^2 rho[m,m] is a sum of
    # nonnegative terms and never goes negative by roundoff.
    probabilities = basis**2 @ np.diag(state.rho)

    def derivative(sld):
        d_rho = 0.5 * (sld @ state.rho + state.rho @ sld)
        return ((basis @ d_rho) * basis).sum(axis=-1)

    return probabilities, derivative(state.L1), derivative(state.L2)


def fim(model: ProbabilityModel) -> np.ndarray:
    """Classical Fisher information matrix of a probability model.

    Outcomes with probability below 1e-15 of the maximum are excluded from
    the sum; such an outcome must also carry a negligible derivative
    (below 1e-9 of the maximum derivative magnitude), otherwise the model
    sits at a formally divergent point and a DegenerateOutcomeError is
    raised rather than returning something arbitrary.  A stacked model gives
    one matrix per row, and an error names the first failing row.

    The sum adds outcome i to outcome n-1-i before adding the pairs up.  For
    the mirror-symmetric direct-imaging models this makes every term that
    parity makes odd cancel exactly, so F12 of an even PSF is exactly 0.0;
    for any other model it is only a summation order.
    """
    weights = model.weights if model.weights is not None else 1.0
    derivatives = (model.dp_dtheta1, model.dp_dtheta2)
    matrices, checks = _fisher_information(model.probabilities, derivatives, weights)
    raise_first_failure(checks, "row {}: " if model.probabilities.ndim > 1 else "")
    return matrices


def _fisher_information(probabilities, derivatives, weights=1.0, buffers=None, mirrored=False):
    """``fim``'s matrices of each row, and its drop-or-raise checks of each row.

    ``buffers``, three arrays shaped like ``probabilities``, hold the work;
    by default they are allocated.  ``mirrored`` is as in ``_model_checks``.
    """
    if buffers is None:
        buffers = [np.empty(probabilities.shape) for _ in range(3)]
    inverse_p, scaled, product = buffers
    peak = np.max(probabilities, axis=-1, keepdims=True, initial=0.0)
    keep = probabilities > 1e-15 * peak
    checks = []
    for index, derivative in enumerate(derivatives, start=1):
        magnitude = np.abs(derivative, out=product)
        worst = np.max(magnitude, axis=-1, where=~keep, initial=0.0)
        checks.append((
            DegenerateOutcomeError,
            f"an outcome with vanishing probability has dp_dtheta{index} "
            "= {:.3e}; the Fisher information diverges there",
            worst > 1e-9 * np.max(magnitude, axis=-1, initial=0.0),
            worst,
        ))
    # Dropped outcomes get a zero weight in place, which keeps the mirror
    # positions of the kept ones.
    inverse_p.fill(0.0)
    np.divide(weights, probabilities, out=inverse_p, where=keep)
    d1, d2 = derivatives
    np.multiply(inverse_p, d1, out=scaled)
    half = probabilities.shape[-1] // 2

    def total(left, right):
        np.multiply(left, right, out=product)
        if mirrored:  # The mirror image's product is the same: the pair doubles it.
            return np.add(product, product, out=product).sum(axis=-1)
        paired = (product[..., :half] + product[..., ::-1][..., :half]).sum(axis=-1)
        return paired + product[..., half] if probabilities.shape[-1] % 2 else paired

    totals = np.array([
        total(scaled, d1),
        np.zeros(probabilities.shape[:-1]) if mirrored else total(scaled, d2),  # Pairs cancel.
        total(np.multiply(inverse_p, d2, out=scaled), d2),
    ])
    matrices = totals[[0, 1, 1, 2]].T.reshape(*totals.shape[1:], 2, 2)
    # A row without any kept outcome is exactly zero (not -0.0).
    matrices[~keep.any(axis=-1)] = 0.0
    return matrices, checks


def regret_report(fim_matrix, qfim_value) -> RegretReport:
    """Information regret of a measurement against the quantum bound.

    Negative regret diagonals within -1e-9 are roundoff and clamped to 0;
    anything more negative, or a regret eigenvalue below -1e-6, means the
    classical information exceeded the quantum bound and raises
    BoundViolationError.
    """
    fim_matrix = np.asarray(fim_matrix, dtype=float)
    qfim_matrix = qfim_value.matrix if isinstance(qfim_value, Qfim) else np.asarray(
        qfim_value, dtype=float
    )
    if fim_matrix.shape != (2, 2) or qfim_matrix.shape != (2, 2):
        raise ValueError("fim and qfim must be 2x2 matrices")
    if not (qfim_matrix[0, 0] > 0.0 and qfim_matrix[1, 1] > 0.0):
        raise ValueError("qfim diagonal must be positive")

    regret = qfim_matrix - fim_matrix
    # Tolerances are absolute at unit scale and grow with the QFIM so that
    # roundoff in large-information regimes is not misread as a violation.
    scale = max(1.0, float(np.max(np.abs(qfim_matrix))))
    lowest = float(np.linalg.eigvalsh(regret)[0])
    if lowest < -1e-6 * scale:
        raise BoundViolationError(
            f"regret eigenvalue {lowest:.3e} is negative beyond tolerance"
        )

    deltas = []
    for j in range(2):
        if regret[j, j] < -1e-9 * scale:
            raise BoundViolationError(
                f"diagonal regret {regret[j, j]:.3e} is negative beyond tolerance"
            )
        if regret[j, j] < 0.0:
            regret[j, j] = 0.0
        deltas.append(math.sqrt(regret[j, j] / qfim_matrix[j, j]))

    return RegretReport(
        fim=fim_matrix,
        qfim=qfim_matrix,
        regret=regret,
        delta1=deltas[0],
        delta2=deltas[1],
    )


def regret_rows(fishers, quantum, c_tilde) -> np.ndarray:
    """Rows (delta1, delta2, irtr_residual) of an (n, 2, 2) stack of FIMs.

    ``quantum`` is one QFIM or one per row, ``c_tilde`` one coefficient or one
    per row.  Column k equals, bit for bit, ``regret_report`` -> ``irtr_residual``
    for row k.  Every check of that route is kept, plus ``RESIDUAL_FLOOR``; a
    failure raises the route's error, naming the first failing row.
    """
    rows, checks = _regrets_and_checks(fishers, quantum, c_tilde)
    raise_first_failure(checks, "row {}: ")
    return rows


def _regrets_and_checks(fishers, quantum, c_tilde):
    """The rows of ``regret_rows`` and its checks, in the order a row meets them."""
    fishers = np.asarray(fishers, dtype=float)
    quantum = np.asarray(quantum.matrix if isinstance(quantum, Qfim) else quantum, dtype=float)
    if fishers.ndim != 3 or fishers.shape[1:] != (2, 2) or quantum.shape[-2:] != (2, 2):
        raise ValueError("fishers and quantum must be 2x2 matrices, fishers a stack of them")
    quantum = np.broadcast_to(quantum, fishers.shape)
    c_tilde = np.asarray(c_tilde, dtype=float)
    # Squared as irtr_residual squares it, once per coefficient, then broadcast.
    squares = np.broadcast_to(pow_squares(c_tilde), len(fishers))
    c_tilde = np.broadcast_to(c_tilde, len(fishers))

    regret = quantum - fishers
    bound = quantum[:, [0, 1], [0, 1]].T
    # Tolerances as in regret_report: absolute at unit scale, growing with the QFIM.
    scale = np.maximum(1.0, np.max(np.abs(quantum), axis=(1, 2)))
    lowest = np.linalg.eigvalsh(regret)[:, 0]
    diagonals = regret[:, [0, 1], [0, 1]].T
    delta1, delta2 = np.sqrt(np.where(diagonals < 0.0, 0.0, diagonals) / bound)
    cross = 2.0 * np.sqrt(np.maximum(1.0 - squares, 0.0))
    residual = delta1 * delta1 + delta2 * delta2 + cross * delta1 * delta2 - squares

    checks = [
        (ConsistencyError, "qfim diagonal must be positive", ~np.all(bound > 0.0, axis=0)),
        (BoundViolationError, "regret eigenvalue {:.3e} is negative beyond tolerance",
         lowest < -1e-6 * scale, lowest),
        *((BoundViolationError, "diagonal regret {:.3e} is negative beyond tolerance",
           diagonal < -1e-9 * scale, diagonal) for diagonal in diagonals),
        *delta_range_checks(delta1, delta2, ConsistencyError),
        (ConsistencyError, "c_tilde must lie in [0, 1]", ~((0.0 <= c_tilde) & (c_tilde <= 1.0))),
        (BoundViolationError, "IRTR residual {:.3e} is negative beyond tolerance",
         residual < RESIDUAL_FLOOR, residual),
    ]
    return np.stack([delta1, delta2, residual]), checks


def projective_regrets_and_checks(state: StateModel4, bases, quantum: Qfim, c_tilde: float):
    """Rows (delta1, delta2, irtr_residual) of stacked projective measurements, and their checks.

    Column k of the (3, n) rows equals, bit for bit, ``projective_model`` ->
    ``fim`` -> ``regret_report`` -> ``irtr_residual`` for basis k.  Every check
    of that route is kept, in the order a sample meets them:
    ``raise_first_failure`` raises the error the route would raise first.
    """
    bases = np.asarray(bases, dtype=float)
    probabilities, *derivatives = _born_rule(state, bases)
    fishers, fisher_checks = _fisher_information(probabilities, derivatives)
    rows, regret_checks = _regrets_and_checks(fishers, quantum, c_tilde)
    # All stages' checks are raised together, so the first failing sample wins.
    checks = [_orthogonality_check(bases), *_model_checks(probabilities, derivatives)]
    return rows, checks + fisher_checks + regret_checks
