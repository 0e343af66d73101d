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
models, one geometry each, are the reference route.  The sweep routes, each
bit for bit equal to it and keeping its checks, are ``regret_rows`` for FIMs,
``projective_regrets_and_checks`` for projective measurements,
``adaptive_cutoffs`` and ``spade_fims`` for a sweep's SPADE cutoffs and FIMs
from its ``spade_sources``, each model at its own cutoff and padded with
zeros to the largest of its block, and ``overlaps_and_direct_fims`` for a
sweep's overlap columns and direct-imaging FIMs, for an even PSF from the
same passes' half-grid samples.
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
    failure_flags,
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
    a mode cutoff discarded (zero where no truncation happens).  A model is
    one 1-D array of outcomes; a sweep's models run stacked through
    ``_model_checks`` and ``_fisher_information`` (``spade_fims``).
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
        if len(shape) != 1 or self.dp_dtheta1.shape != shape or self.dp_dtheta2.shape != shape:
            raise ValueError("probabilities and derivatives must be 1-D arrays of one shape")
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != shape:
                raise ValueError("weights must match the probability shape")
            object.__setattr__(self, "weights", weights)
        weights = self.weights if self.weights is not None else 1.0
        derivatives = (self.dp_dtheta1, self.dp_dtheta2)
        checks = _model_checks(self.probabilities, derivatives, weights, self.truncated_mass)
        raise_first_failure(checks, "")


def _model_checks(probabilities, derivatives, weights=1.0, truncated_mass=0.0, lengths=None):
    """``ProbabilityModel``'s checks of each row, in the order a row meets them.

    Row i has only its first ``lengths[i]`` outcomes (by default all of them)
    and exact zeros past them, so its sums equal those of its outcomes alone.
    """
    # Weighted sums and the largest |derivative| without a block-sized temporary;
    # unweighted rows are small, and their three sums go stacked.
    fields = (probabilities, *derivatives)
    if np.ndim(weights):
        sums = [np.vecdot(weights, values) for values in fields]
    else:
        sums = _row_sums(np.stack(fields), lengths)

    # Written as `~(... <= tol)` so that a NaN or inf anywhere fails the check.
    mass = sums[0] + truncated_mass
    negative, off = np.any(probabilities < 0.0, axis=-1), ~(abs(mass - 1.0) <= 1e-10)
    checks = [
        (ConsistencyError, "probabilities must be nonnegative", negative),
        (ConsistencyError, "total probability {!r} deviates from 1", off, mass),
    ]
    names = ("dp_dtheta1", "dp_dtheta2")
    for name, derivative, drift in zip(names, derivatives, sums[1:]):
        largest = np.max(derivative, axis=-1, initial=1.0)
        scale = np.maximum(largest, -np.min(derivative, axis=-1, initial=-1.0))
        bounded = (abs(drift) <= 1e-8 * scale) & (scale < math.inf)
        checks.append((ConsistencyError, f"sum of {name} = {{!r}} is not 0", ~bounded, drift))
    return checks


def _row_sums(values, lengths=None):
    """Each row's sum over its first ``lengths[i]`` entries (by default all of them).

    Rows run along the second-to-last axis.  Each run of rows of one length
    is summed as one slice, in the order numpy sums a row of that length
    alone: its pairwise order depends on the length, so zeros past it would
    move the last bit.  Rows sorted by length make one run per length.
    """
    if lengths is None:
        return values.sum(axis=-1)
    sums = np.empty(values.shape[:-1])
    for rows, length in _runs(lengths):
        sums[..., rows] = values[..., rows, :length].sum(axis=-1)
    return sums


def _paired_sums(products, lengths=None):
    """``fim``'s sums of ``products`` along the last axis, each row over its own outcomes.

    In a row of n outcomes (``lengths[r]``, by default all), outcome i pairs
    with n-1-i, the n // 2 pairs sum as one slice, and an odd row's middle
    outcome comes last.  Rows run along the second-to-last axis; each run of
    one length (``_runs``) is one slice, its mirror that slice reversed.
    """
    if lengths is None:
        half = products.shape[-1] // 2
        paired = (products[..., :half] + products[..., ::-1][..., :half]).sum(axis=-1)
        return paired + products[..., half] if products.shape[-1] % 2 else paired
    sums = np.empty(products.shape[:-1])
    for rows, length in _runs(lengths):
        sums[..., rows] = _paired_sums(products[..., rows, :length])
    return sums


def _runs(lengths):
    """Each run of equal ``lengths`` as (rows, length), ``rows`` a slice."""
    bounds = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), len(lengths)]
    return [(slice(a, b), int(lengths[a])) for a, b in zip(bounds, bounds[1:]) if a < b]


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
        raise_first_failure([_orthogonality_check(_entry_products(matrix))], "")
        object.__setattr__(self, "matrix", matrix)


def _ordered_sum(terms):
    """The sum along axis 0, halves added pairwise: elementwise, so in one order for any stack."""
    while len(terms) > 1:
        half = len(terms) // 2
        paired = terms[:half] + terms[half : 2 * half]
        if len(terms) % 2:
            paired[-1] += terms[-1]
        terms = paired
    return terms[0]


def _pairs(dim):
    """The entries (i, j), i <= j, of a dim x dim upper triangle, row by row."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _entry_products(matrices):
    """Products O[k, i] O[k, j] of a d x d matrix, or an (n, d, d) stack, as (pairs, d, n)."""
    dim = matrices.shape[-1]
    rows = np.reshape(matrices, (-1, dim, dim)).transpose(1, 2, 0)
    products = np.empty((len(_pairs(dim)), dim, rows.shape[-1]))
    for product, (i, j) in zip(products, _pairs(dim)):
        np.multiply(rows[:, i], rows[:, j], out=product)
    return products


def _orthogonality_check(products):
    """The check that each matrix of ``_entry_products`` is orthogonal.

    Entry (i, j) of O^T O sums pair (i, j)'s products over the rows.
    """
    identity = [float(i == j) for i, j in _pairs(products.shape[1])]
    gram = _ordered_sum(np.swapaxes(products, 0, 1)) - np.array(identity)[:, np.newaxis]
    skew = np.max(np.abs(gram), axis=0)
    # Written as `~(... <= tol)` so that a NaN entry fails the check.
    return ConsistencyError, "basis is not orthogonal within 1e-12", ~(skew <= 1e-12)


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
    FIMs of its rows, and whether they meet the model and FIM checks, from
    the same half-grid samples, in their buffers (``_mirrored_fims``).  A
    row's FIM takes the first pair of passes whose checks pass, its drift
    bound from the pass's own kappa and gamma.  A row whose FIM fails at the
    top pair runs its scalar route, which raises that route's error.
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
    blocks, parts = overlap_passes(psf, points, quad, overlaps, wanted, spare=2), []
    for _, rows, integrals, samples, last in blocks:
        parts.append((rows, *_mirrored_fims(*samples), integrals[1:3].T))
        if not last:
            continue
        # The pass's FIMs settle before the next pass picks the rows still
        # wanted: a wanted row whose last two passes met their checks settles
        # unless it drifts.
        rows, fisher, valid, kappa_gamma = map(np.concatenate, zip(*parts))
        parts = []
        settled = wanted[rows] & passed[rows] & valid
        if settled.any():
            drift_checks = _fim_drift_checks(fisher, previous[rows], *kappa_gamma.T, quad)
            settled &= ~np.any([check[2] for check in drift_checks], axis=0)
            fishers[rows[settled]], wanted[rows[settled]] = fisher[settled], False
        previous[rows], passed[rows] = fisher, valid
    for row in np.flatnonzero(wanted).tolist():
        fishers[row] = _direct_fim(psf, points, row, quad)
    return overlaps, fishers


def _mirrored_fims(x, w, a1, d1, a2, d2, spare1, spare2):
    """The (m, 2, 2) FIMs of a block of half-grid rows, and which rows meet every check.

    The arguments are ``overlap_passes``'s samples, m rows in ascending u, and
    two spare arrays of their shape; all but ``w`` are overwritten.  Row i's
    FIM is ``fim``'s of its reflected grid's model and its flag is set if that
    model passes its own and ``fim``'s checks.  The row's half, read in
    descending u, is the reflected grid's left half, each outcome standing for
    its mirror image too: the total and the dp_dtheta2 sum are doubled, the
    dp_dtheta1 sum (odd) cancels, F11 and F22 double the half's sums and F12
    is 0.0, as ``fim``'s pairing gives.  The checks' sums equal the full
    grid's to rounding.  p = (a1^2 + a2^2) / 2 is never negative, so it has
    no sign check.
    """
    # The fields in ascending u, in place, then a reversed copy of each, with
    # the weights, in order in memory: the sums run in the scalar route's order.
    work1, work2 = np.multiply(a1, d1, out=d1), np.multiply(a2, d2, out=d2)
    np.add(np.square(a1, out=a1), np.square(a2, out=a2), out=a1)
    probabilities = np.multiply(a1[:, ::-1], 0.5, out=a2)
    dp_dtheta1 = np.negative(np.add(work1, work2, out=x)[:, ::-1], out=spare1)
    dp_dtheta2 = np.multiply(np.subtract(work1, work2, out=d1)[:, ::-1], 0.5, out=spare2)
    weights, inverse_p, magnitude = d2, a1, x
    np.copyto(weights, w[:, ::-1])

    mass = 2.0 * np.vecdot(weights, probabilities)
    drift = [0.0 * np.vecdot(weights, dp_dtheta1), 2.0 * np.vecdot(weights, dp_dtheta2)]
    # Written as `~(... <= tol)` so that a NaN or inf anywhere fails the checks.
    failed = ~(abs(mass - 1.0) <= 1e-10)
    peak = np.max(probabilities, axis=-1, keepdims=True, initial=0.0)
    keep = probabilities > 1e-15 * peak
    for derivative, total in zip((dp_dtheta1, dp_dtheta2), drift):
        largest = np.max(np.abs(derivative, out=magnitude), axis=-1, initial=0.0)
        scale = np.maximum(largest, 1.0)
        failed |= ~((abs(total) <= 1e-8 * scale) & (scale < math.inf))
        np.copyto(magnitude, 0.0, where=keep)
        failed |= np.max(magnitude, axis=-1, initial=0.0) > 1e-9 * largest

    with np.errstate(all="ignore"):  # Dropped outcomes may divide by 0 or a subnormal.
        np.divide(weights, probabilities, out=inverse_p)
    np.copyto(inverse_p, 0.0, where=~keep)
    fishers = np.zeros((len(probabilities), 2, 2))
    for j, derivative in enumerate((dp_dtheta1, dp_dtheta2)):
        # Doubling the sum doubles each term exactly, as the mirror pairs do.
        product = np.multiply(np.multiply(inverse_p, derivative, out=x), derivative, out=x)
        fishers[:, j, j] = 2.0 * product.sum(axis=-1)
    # A row without any kept outcome is exactly zero (not -0.0 or NaN).
    fishers[~((0.0 < peak[:, 0]) & (peak[:, 0] < math.inf))] = 0.0
    return fishers, ~failed


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


def _fields(amp1, damp1, amp2, damp2):
    """p, dp/dtheta1, dp/dtheta2 from psi, psi' of each source; the four inputs are overwritten."""
    probabilities, dp_dtheta1, dp_dtheta2 = amp1, amp2, np.empty(np.shape(amp1))
    # d(x - X_j)/dtheta1 = -1 for both sources; for theta2 the two sources
    # move apart, so the signs split.
    work1, work2 = np.multiply(amp1, damp1, out=damp1), np.multiply(amp2, damp2, out=damp2)
    np.add(np.square(amp1, out=amp1), np.square(amp2, out=amp2), out=probabilities)
    np.multiply(probabilities, 0.5, out=probabilities)
    np.negative(np.add(work1, work2, out=dp_dtheta1), out=dp_dtheta1)
    np.multiply(np.subtract(work1, work2, out=dp_dtheta2), 0.5, out=dp_dtheta2)
    return probabilities, dp_dtheta1, dp_dtheta2


# cephes ``lgam``'s series coefficients for 13 <= x < 1000, and log sqrt(2 pi).
_LGAM_SERIES = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_SQRT_2PI = 0.91893853320467274178
# log Gamma(n) at n = 0, 1, ...: built at first use by ``_log_gamma``.
_LOG_GAMMA = np.empty(0)


def _lgam(n: int) -> float:
    """log Gamma(n) at an integer n >= 0, inf at 0: cephes ``lgam`` on integers.

    This is the routine behind ``scipy.special.gammaln``, ported step for
    step with ``math.log`` (see ``_mode_weights``); the tests check it against
    scipy bit for bit.  Below 13 cephes takes the log of (n-1)!, which a
    double holds exactly there.
    """
    if n < 13:
        return math.log(float(math.factorial(n - 1))) if n else math.inf
    x = float(n)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        return q + (series + 0.0833333333333333333333) / x
    series = _LGAM_SERIES[0]
    for coefficient in _LGAM_SERIES[1:]:
        series = series * p + coefficient
    return q + series / x


def _log_gamma(n: np.ndarray) -> np.ndarray:
    """log Gamma at the nonnegative integers ``n``, gathered from one table of ``_lgam``.

    The table covers the adaptive cutoffs' range, 0 ... _MODE_CAP + 2, from
    its first use, and grows to the largest ``n`` asked for beyond it.
    """
    global _LOG_GAMMA
    if np.min(n, initial=0) < 0:  # A negative index would read the table from its end.
        raise ValueError("log Gamma is tabulated at nonnegative integers only")
    try:
        return _LOG_GAMMA[n]
    except IndexError:
        built, top = len(_LOG_GAMMA), max(int(n.max()), _MODE_CAP + 2)
        # A cutoff too large to allocate fails here, before any entry is computed.
        try:
            table = np.empty(top + 1)
        except ValueError:  # Too many entries for numpy to shape at all.
            message = "the log-factorial table would exceed numpy's largest array"
            raise MemoryError(message) from None
        table[:built] = _LOG_GAMMA
        table[built:] = [_lgam(k) for k in range(built, top + 1)]
        _LOG_GAMMA = table
    return _LOG_GAMMA[n]


def _mode_weights(modes, alpha, log_alpha, cutoffs):
    """w(q, alpha) = alpha^(2q) exp(-alpha^2) / q! and dw/dalpha for columns of alphas.

    The weights are computed in logs for stability, a row per alpha, from
    ``log_alpha``, the alphas' log |alpha| (``spade_sources``); ``alpha`` may
    stack columns, one per source.  A row with alpha = 0 is the point mass at
    q = 0 with every derivative 0.  Modes past a row's cutoff are padding:
    both are exactly 0 there, and no such mode is divided by alpha.
    """
    weights = np.exp(2.0 * modes * log_alpha - alpha * alpha - _log_gamma(modes + 1))
    # d/dalpha [alpha^(2q) e^(-alpha^2)/q!] = w * 2 (q/alpha - alpha).
    zero, past = alpha == 0.0, modes > cutoffs[:, np.newaxis]
    undivided = zero | past
    slopes = weights * 2.0 * (modes / np.where(undivided, 1.0, alpha) - alpha)
    np.copyto(weights, modes == 0, where=zero)
    np.copyto(weights, 0.0, where=past)
    np.copyto(slopes, 0.0, where=undivided)
    return weights, slopes


def _tail_bounds(sigma, means, log_means, cutoffs):
    """(truncated mass bound, Fisher tail bound) of SPADE models cut at ``cutoffs``.

    ``means`` holds the two Poisson means alpha_j^2 of a model along its first
    axis, and ``log_means`` their logs (``spade_sources``); their other axes,
    the rows', broadcast against ``cutoffs`` and come last in every
    operation.  The Poisson(mean) mass beyond Q is bounded by a geometric
    series whose terms shrink by at least mean/(Q+2), and 1 where that ratio
    is not below 1.  Per mode, every FIM entry is bounded by
    sum_j w_j (q - mu_j)^2 / (mu_j sigma^2); the tail of that series is
    bounded by mu_j times the mass beyond Q-2 plus the mass beyond Q-1 (the
    Poisson factorial moments).
    """
    cutoffs = np.asarray(cutoffs)
    rows = max(means.ndim - 1, cutoffs.ndim)
    # Axes: the tails beyond Q, Q-2 and Q-1, the two sources, then the rows'.
    shape = (2,) + (1,) * (rows + 1 - means.ndim) + means.shape[1:]
    means, log_means = np.reshape(means, shape), np.reshape(log_means, shape)
    offsets = np.array([0, -2, -1]).reshape(3, 1, *(1,) * rows)
    beyond = cutoffs + offsets
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = means / (beyond + 2.0)
        # log Gamma(beyond + 2) in uint64, where a cutoff near 2**63 does not wrap.
        factorials = _log_gamma(cutoffs.astype(np.uint64) + (offsets + 2).astype(np.uint64))
        # The first term's log, then the series' sum, in place.
        tails = (beyond + 1.0) * log_means
        tails -= means
        tails -= factorials
        np.exp(tails, out=tails)
        tails /= 1.0 - ratio
    np.copyto(tails, 1.0, where=(beyond < 0) | (ratio >= 1.0))
    np.copyto(tails, 0.0, where=means == 0.0)
    mass, below_2, below_1 = tails
    fisher = means * below_2 + below_1
    return 0.5 * (mass[0] + mass[1]), (fisher[0] + fisher[1]) / sigma**2


def spade_sources(sigma, points):
    """(alpha, log |alpha|, mean, log mean) of each point's two sources, as a (4, 2, n) array.

    ``points`` are (theta1, theta2) points that ``sweep_points`` has checked.
    alpha_j = X_j / 2 sigma, and its square is the Poisson mean of source j's
    mode weights; log |alpha| is 0.0 where alpha is 0.  They are all that the
    cutoff rule and the mode weights read of a point, so a sweep forms them once.
    """
    alphas = source_positions(points).T / (2.0 * sigma)
    # An inf mean has no cutoff, as a huge one has none; log 0 is -inf.
    with np.errstate(over="ignore", divide="ignore"):
        means = alphas * alphas
        log_means = np.log(means)
    # math.log, one alpha at a time: numpy's SIMD log can differ from it in the
    # last bit on some CPUs, which would move the last digits of the CSVs.
    magnitudes = np.where(alphas == 0.0, 1.0, np.abs(alphas)).ravel().tolist()
    log_alphas = np.reshape(list(map(math.log, magnitudes)), alphas.shape)
    return np.stack([alphas, log_alphas, means, log_means])


def _checked_sources(sigma, geometry):
    """``spade_sources`` of ``geometry``'s one point, sigma checked here."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return spade_sources(sigma, [(geometry.theta1, geometry.theta2)])


def spade_cutoff(sigma: float, geometry: SourceGeometry) -> int:
    """The adaptive SPADE cutoff of ``spade_model(sigma, geometry)``.

    It is the smallest cutoff Q >= 2 whose truncated mass bound is below
    1e-14 and whose Fisher tail bound is at most 1e-13/sigma^2; a
    CutoffError is raised when no Q up to 512 meets both.  Each Poisson tail
    bound is 1 while the mean is at least Q + 2 and only shrinks after that,
    so every cutoff above one that meets both criteria meets them too, and
    bisection finds the smallest.  A sweep's cutoffs are ``adaptive_cutoffs``.
    """
    return int(adaptive_cutoffs(sigma, _checked_sources(sigma, geometry), "")[0])


def adaptive_cutoffs(sigma, sources, label="row {}: "):
    """``spade_cutoff`` of each row of ``spade_sources(sigma, points)``, bisected together.

    Each row takes the midpoints its own bisection would, and the first row
    without a cutoff raises the CutoffError, named by ``label``.
    """
    means, log_means = sources[2], sources[3]
    low, high = np.full(means.shape[-1], 2), np.full(means.shape[-1], _MODE_CAP + 1)
    while (low < high).any():
        # A converged row evaluates its accepted cutoff again and keeps it.
        active, middle = low < high, (low + high) // 2
        mass, fisher = _tail_bounds(sigma, means, log_means, middle)
        met = (mass < _MASS_TOLERANCE) & (fisher <= 1e-13 / sigma**2)
        high = np.where(active & met, middle, high)
        low = np.where(active & ~met, middle + 1, low)
    message = f"no cutoff up to {_MODE_CAP} meets the truncation criteria"
    raise_first_failure([(CutoffError, message, low > _MODE_CAP)], label)
    return low


def spade_model(
    sigma: float,
    geometry: SourceGeometry,
    mode_cutoff: int | None = None,
) -> ProbabilityModel:
    """Hermite-Gaussian mode-sorting model for a Gaussian PSF of width sigma.

    The outcome is the mode index q = 0..Q.  With ``mode_cutoff=None`` the
    cutoff Q is the smallest one whose discarded mass is below 1e-14 and
    whose discarded Fisher information is at most 1e-13/sigma^2
    (``spade_cutoff``); an explicit cutoff must be a nonnegative integer
    (ValueError) that meets the mass criterion (CutoffError).  The model
    reports both tail bounds.  A sweep's SPADE FIMs are ``spade_fims``.
    """
    sources = _checked_sources(sigma, geometry)
    if mode_cutoff is None:
        mode_cutoff = adaptive_cutoffs(sigma, sources, "")[0]
    elif not np.issubdtype(type(mode_cutoff), np.integer):
        raise ValueError("mode_cutoff must be an integer")
    if mode_cutoff < 0:
        raise ValueError("mode_cutoff must be nonnegative")
    cutoffs = np.array([mode_cutoff], dtype=int)
    mass_tail, fisher_tail = _tail_bounds(sigma, sources[2], sources[3], cutoffs)
    raise_first_failure([_mass_check(cutoffs, mass_tail)], "")
    fields = (values[0] for values in _spade_fields(sigma, sources, cutoffs))
    tails = dict(truncated_mass=float(mass_tail[0]), fisher_tail_bound=float(fisher_tail[0]))
    return ProbabilityModel(DISCRETE_MODES, *fields, **tails)


def _mass_check(cutoffs, mass_tail):
    """The check that each row's truncated mass bound is below 1e-14."""
    message = "cutoff {:.0f} leaves truncated mass bound {:.3e}"
    return CutoffError, message, ~(mass_tail < _MASS_TOLERANCE), cutoffs, mass_tail


def _spade_fields(sigma, sources, cutoffs):
    """p, dp/dtheta1, dp/dtheta2 of ``spade_sources`` rows to the largest cutoff, 0 past theirs."""
    modes = np.arange(cutoffs.max(initial=0) + 1)
    # Both sources' weights together, a (rows, modes) slab each.
    weights, slopes = _mode_weights(
        modes, sources[0, ..., np.newaxis], sources[1, ..., np.newaxis], cutoffs
    )
    return (
        0.5 * (weights[0] + weights[1]),
        # alpha_j = X_j / 2 sigma, so dalpha/dtheta1 = 1/2sigma for both and
        # dalpha/dtheta2 = -+ 1/4sigma.
        (slopes[0] + slopes[1]) / (4.0 * sigma),
        (slopes[1] - slopes[0]) / (8.0 * sigma),
    )


def spade_fims(sigma, sources, cutoffs, block):
    """(n, 2, 2) FIMs of the SPADE models of ``spade_sources`` rows at ``cutoffs``.

    Row i's FIM is, bit for bit, ``fim(spade_model(sigma, SourceGeometry(*point),
    cutoffs[i]))``, with every check of that route.  The rows' tail bounds
    are evaluated together.  The rows then run in stable cutoff order,
    ``block`` at a time, each block one stacked model padded to its largest
    cutoff: its cutoffs are near-equal, and each run of one cutoff sums as one
    slice (``_row_sums``).  The first failing row in sweep order raises its
    route's error, named by its row; it alone runs again for the message.
    """
    mass_tail, _ = _tail_bounds(sigma, sources[2], sources[3], cutoffs)
    order = np.argsort(cutoffs, kind="stable")
    fishers, failed = np.empty((len(cutoffs), 2, 2)), np.zeros(len(cutoffs), bool)
    for first in range(0, len(cutoffs), block):
        rows = order[first : first + block]
        fishers[rows], checks = _spade_block(sigma, sources, cutoffs, mass_tail, rows)
        failed[rows] = failure_flags(checks).any(axis=0)
    if failed.any():
        row = int(failed.argmax())
        _, checks = _spade_block(sigma, sources, cutoffs, mass_tail, [row])
        raise_first_failure(checks, "row {}: ", row)
    return fishers


def _spade_block(sigma, sources, cutoffs, mass_tail, rows):
    """The FIMs of ``rows`` as one stacked model, and each row's checks in its route's order.

    The checks are the mass criterion, the model's, then ``fim``'s.
    """
    sources, cutoffs, mass_tail = sources[..., rows], cutoffs[rows], mass_tail[rows]
    mass_check = _mass_check(cutoffs, mass_tail)
    # A row that fails the mass criterion fails that check first, as the route
    # raises it before any mode: it takes mode 0 alone, however large its
    # cutoff, and may overflow there, as a row at an inf mean does.
    kept = np.where(mass_check[2], 0, cutoffs)
    with np.errstate(all="ignore"):
        probabilities, *derivatives = _spade_fields(sigma, sources, kept)
        checks = _model_checks(probabilities, derivatives, 1.0, mass_tail, kept + 1)
        fishers, fisher_checks = _fisher_information(probabilities, derivatives, lengths=kept + 1)
    return fishers, [mass_check, *checks, *fisher_checks]


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

    ``rng_stream`` is either an integer seed or a numpy Generator.  The basis
    is ``haar_random_bases`` of one ``standard_normal((dim, dim))`` draw.
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
    return ProjectiveMeasurement4(matrix=haar_random_bases(normal[np.newaxis])[0], seed=tag)


def haar_random_bases(normals) -> np.ndarray:
    """Haar-random d x d bases stacked along axis 0, basis k from the normals ``normals[k]``.

    Row i is column i of Q from a QR of the normals with R's diagonal positive,
    so exactly Haar (Mezzadri, Notices AMS 54, 592 (2007)).  Classical
    Gram-Schmidt, each column made orthogonal to the earlier ones twice, runs
    elementwise over a (row, entry, sample) array, of which the bases are
    views: the same Q as LAPACK's up to rounding, and basis k is, bit for bit,
    the basis of ``normals[k]`` alone.  A column that vanishes comes out NaN.
    """
    columns = np.ascontiguousarray(np.transpose(normals, (2, 1, 0)))
    bases = np.full_like(columns, np.nan)
    for i, vector in enumerate(columns):
        earlier = bases[:i]
        for _ in range(2 if i else 0):
            dots = _ordered_sum(np.swapaxes(earlier * vector, 0, 1))
            vector = vector - _ordered_sum(dots[:, np.newaxis] * earlier)
        norm = np.sqrt(_ordered_sum(vector * vector))
        np.divide(vector, norm, out=bases[i], where=norm > 0.0)
    return bases.transpose(2, 0, 1)


def projective_model(
    state: StateModel4, meas: ProjectiveMeasurement4
) -> ProbabilityModel:
    """Born-rule probabilities of an orthogonal measurement on the subspace."""
    if meas.matrix.shape != state.rho.shape:
        raise ValueError("measurement dimension does not match the state")
    fields = _born_rule(born_coefficients(state), _entry_products(meas.matrix))
    return ProbabilityModel(SUBSPACE_PROJECTORS, *(field[0] for field in fields))


def born_coefficients(state: StateModel4) -> np.ndarray:
    """The (3, pairs) coefficients of p, dp/dtheta1 and dp/dtheta2 in a basis's entry products.

    Row K is rho or (L_j rho + rho L_j) / 2: entry (i, j) of its upper
    triangle (``_pairs``), doubled off the diagonal.
    """
    derivatives = (0.5 * (sld @ state.rho + state.rho @ sld) for sld in (state.L1, state.L2))
    forms = [state.rho.tolist(), *(d_rho.tolist() for d_rho in derivatives)]
    pairs = _pairs(len(state.rho))
    return np.array([[(1.0 if i == j else 2.0) * form[i][j] for i, j in pairs] for form in forms])


def _born_rule(coefficients, products):
    """Probabilities and their two derivatives from the ``_entry_products`` of n bases.

    ``coefficients`` are ``born_coefficients``, for all the bases or (3, pairs,
    n) for each.  Each field is O_k^T K O_k for row k: K's coefficients times
    O[k, i] O[k, j], summed in pair order over the pairs whose coefficient is
    not 0 for some basis.  A 0.0 term leaves a finite sum as it is, so each
    basis's field is the one it has alone.  rho is diagonal, so p is never
    negative.  The fields are (n, d) views of contiguous (d, n) arrays,
    outcome-major, so that sums over a sample's outcomes run elementwise over
    the samples.
    """
    coefficients = np.reshape(coefficients, (*np.shape(coefficients)[:2], -1))
    fields = []
    for form, terms in zip(coefficients, coefficients.any(axis=-1).tolist()):
        field = np.zeros(products.shape[1:])
        for product, coefficient, term in zip(products, form, terms):
            if term:
                field += coefficient * product
        fields.append(field.T)
    return fields


def fim(model: ProbabilityModel) -> np.ndarray:
    """Classical Fisher information matrix of a probability model.

    Outcomes with probability below 1e-15 of the maximum are excluded from
    the sum; such an outcome must also carry a negligible derivative
    (below 1e-9 of the maximum derivative magnitude), otherwise the model
    sits at a formally divergent point and a DegenerateOutcomeError is
    raised rather than returning something arbitrary.

    The sum adds outcome i to outcome n-1-i before adding the pairs up.  For
    the mirror-symmetric direct-imaging models this makes every term that
    parity makes odd cancel exactly, so F12 of an even PSF is exactly 0.0;
    for any other model it is only a summation order.
    """
    weights = model.weights if model.weights is not None else 1.0
    derivatives = (model.dp_dtheta1, model.dp_dtheta2)
    matrix, checks = _fisher_information(model.probabilities, derivatives, weights)
    raise_first_failure(checks, "")
    return matrix


def _fisher_information(probabilities, derivatives, weights=1.0, lengths=None):
    """``fim``'s matrices of each row, and its drop-or-raise checks of each row.

    ``lengths`` are as in ``_model_checks``.
    """
    inverse_p, scaled, product = (np.empty_like(probabilities) for _ in range(3))
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
    products = [scaled * d1, scaled * d2, np.multiply(inverse_p, d2, out=scaled) * d2]
    totals = _paired_sums(np.stack(products), lengths)
    matrices = totals[[0, 1, 1, 2]].T.reshape(*totals.shape[1:], 2, 2)
    # A row without any kept outcome is exactly zero (not -0.0).
    matrices[~keep.any(axis=-1)] = 0.0
    return matrices, checks


def regret_report(fim_matrix, qfim_value) -> RegretReport:
    """Information regret of a measurement against the quantum bound.

    Negative regret diagonals within -1e-9 are roundoff and clamped to 0;
    anything more negative, or a regret eigenvalue below -1e-6 (or not a
    number, as from a non-finite FIM), means the classical information
    exceeded the quantum bound and raises BoundViolationError.
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
    lowest = float(_lowest_eigenvalue(regret))
    if not lowest >= -1e-6 * scale:
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


def _lowest_eigenvalue(matrices):
    """The lower eigenvalue of each symmetric 2x2 matrix, from its lower triangle.

    It is (a + c)/2 - hypot((a - c)/2, b) as elementwise arithmetic, within
    1e-15 of the largest |entry| of ``np.linalg.eigvalsh``'s.  Halving first
    keeps the sum finite up to the float range.  A non-finite entry gives
    NaN or -inf.
    """
    a, b, c = matrices[..., 0, 0], matrices[..., 1, 0], matrices[..., 1, 1]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        return (0.5 * a + 0.5 * c) - np.hypot(0.5 * a - 0.5 * c, b)


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
    # Tolerances as in regret_report: absolute at unit scale, growing with the QFIM.
    absolute = np.abs(quantum)
    scale = np.maximum(
        np.maximum(absolute[..., 0, 0], absolute[..., 0, 1]),
        np.maximum(absolute[..., 1, 0], absolute[..., 1, 1]),
    )
    scale = np.broadcast_to(np.maximum(1.0, scale), len(fishers))
    quantum = np.broadcast_to(quantum, fishers.shape)
    c_tilde = np.asarray(c_tilde, dtype=float)
    # Squared once per coefficient, then broadcast; a square past the float range is inf.
    with np.errstate(over="ignore"):
        squares = np.broadcast_to(c_tilde * c_tilde, len(fishers))
    c_tilde = np.broadcast_to(c_tilde, len(fishers))

    regret = quantum - fishers
    bound = quantum[:, [0, 1], [0, 1]].T
    lowest = _lowest_eigenvalue(regret)
    diagonals = regret[:, [0, 1], [0, 1]].T
    delta1, delta2 = np.sqrt(np.where(diagonals < 0.0, 0.0, diagonals) / bound)
    cross = 2.0 * np.sqrt(np.maximum(1.0 - squares, 0.0))
    residual = delta1 * delta1 + delta2 * delta2 + cross * delta1 * delta2 - squares

    checks = [
        (ConsistencyError, "qfim diagonal must be positive", ~np.all(bound > 0.0, axis=0)),
        # Written as `~(... >= tol)` so that a NaN eigenvalue fails the check.
        (BoundViolationError, "regret eigenvalue {:.3e} is negative beyond tolerance",
         ~(lowest >= -1e-6 * scale), lowest),
        *((BoundViolationError, "diagonal regret {:.3e} is negative beyond tolerance",
           diagonal < -1e-9 * scale, diagonal) for diagonal in diagonals),
        *delta_range_checks(delta1, delta2, ConsistencyError),
        (ConsistencyError, "c_tilde must lie in [0, 1]", ~((0.0 <= c_tilde) & (c_tilde <= 1.0))),
        (BoundViolationError, "IRTR residual {:.3e} is negative beyond tolerance",
         residual < RESIDUAL_FLOOR, residual),
    ]
    return np.stack([delta1, delta2, residual]), checks


def projective_regrets_and_checks(coefficients, bases, quantum, c_tilde):
    """Rows (delta1, delta2, irtr_residual) of stacked projective measurements, and their checks.

    ``coefficients`` are the state's ``born_coefficients``, or (3, pairs, n)
    for each basis; ``quantum`` is one QFIM or one per basis, and ``c_tilde``
    one coefficient or one per basis.  Column k of the (3, n) rows equals, bit
    for bit, ``projective_model`` -> ``fim`` -> ``regret_report`` ->
    ``irtr_residual`` for basis k.  Every check of that route is kept, in the
    order a sample meets them: ``raise_first_failure`` raises the error the
    route would raise first.
    """
    products = _entry_products(np.asarray(bases, dtype=float))
    probabilities, *derivatives = _born_rule(coefficients, products)
    fishers, fisher_checks = _fisher_information(probabilities, derivatives)
    rows, regret_checks = _regrets_and_checks(fishers, quantum, c_tilde)
    # All stages' checks are raised together, so the first failing sample wins.
    checks = [_orthogonality_check(products), *_model_checks(probabilities, derivatives)]
    return rows, checks + fisher_checks + regret_checks
