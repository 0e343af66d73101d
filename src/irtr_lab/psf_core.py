"""Point-spread functions, quadrature, and the four overlap integrals.

A normalized real point-spread function (PSF) psi, displaced to the source
positions X1 = theta1 - theta2/2 and X2 = theta1 + theta2/2, fixes the
one-photon image-plane state of two equally bright incoherent sources.
Everything computed downstream (quantum and classical Fisher information,
incompatibility coefficients, measurement regrets) is a function of four
overlap integrals of the displaced PSFs:

    kappa = int psi'(x)^2 dx
    gamma = int psi'(x) psi(x - theta2) dx
    beta  = int psi'(x) psi'(x - theta2) dx
    delta = int psi(x)  psi(x - theta2) dx

Integrals are evaluated with composite Gauss-Legendre quadrature on a window
covering both sources out to ``truncation_radius`` (R) characteristic
lengths: [-W, W] about the centroid, W = theta2/2 + R sigma.  For a PSF known
to be even (``PointSpreadFunction.even``: the Gaussian) each integrand is
folded onto the centroid half-window [0, W], with a_j, d_j = psi, psi' at
u +- theta2/2 in centroid coordinates u:

    int psi^2: a1^2 + a2^2      kappa: d1^2 + d2^2      gamma: d1 a2 - d2 a1
    beta:      2 d1 d2          delta: 2 a1 a2

and each geometry climbs a ladder of passes on h, 2h, 4h, ... panels of the
half-window (``quadrature_ladder``), up to 2 ceil(P/2), P = ``panel_count``,
which caps the ladder.  A geometry takes the finer value of the first pair of
passes (h, 2h) whose checks pass: the two must agree to ``abs_tolerance``,
int psi^2 must be 1 within 10x that, and the overlaps must be consistent.  A
failure at the top pair, (ceil(P/2), 2 ceil(P/2)), raises.  Separations below
``NEAR_COINCIDENCE`` sigma start on the top pair (``first_passes``).  The rung
depends on theta2/sigma and the rule alone, so the overlaps do too, bit for
bit, and a sweep runs each pass over blocks of the geometries still climbing
(``overlap_passes``), whose samples also give the direct-imaging FIMs, which
settle on the same ladder by checks of their own.  A sweep's overlaps are
(4, n) columns (``overlap_columns``) of (theta1, theta2) points, checked by
``sweep_points`` and ``overlap_checks``, which ``SourceGeometry`` and
``OverlapIntegrals`` run on their one point and column.  Any other PSF is
integrated over the full window on P and 2P panels, with the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConsistencyError, ConvergenceError, NormalizationError, raise_first_failure

GAUSSIAN = "gaussian"
USER_DEFINED = "user_defined"


@dataclass(frozen=True)
class PointSpreadFunction:
    """Real normalized amplitude response of the imaging system.

    ``sigma`` is the characteristic length of the PSF and serves as the unit
    of all lengths (quadrature windows, mode scales, default grids).
    ``joint``, if given, returns both callables' values from one call, sharing
    work; ``joint(x, out)`` writes them into the pair of arrays ``out`` instead.
    """

    kind: str
    sigma: float
    amplitude: Callable[[np.ndarray], np.ndarray]
    amplitude_derivative: Callable[[np.ndarray], np.ndarray]
    joint: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def even(self) -> bool:
        """psi(-x) = psi(x) is known to hold; ``overlap_integrals`` then folds its integrals."""
        return self.kind == GAUSSIAN

    def amplitude_and_derivative(self, x, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(psi(x), psi'(x)), from ``joint`` when the PSF has one.

        ``out``, a pair of arrays shaped like ``x``, receives the values and is returned.
        """
        if self.joint is not None:
            return self.joint(x, out)
        values = self.amplitude(x), self.amplitude_derivative(x)
        if out is None:
            return values
        for target, value in zip(out, values):
            target[...] = value
        return out


@dataclass(frozen=True)
class SourceGeometry:
    """Centroid and separation of the two point sources, in length units."""

    theta1: float
    theta2: float

    def __post_init__(self):
        sweep_points([(self.theta1, self.theta2)])

    @property
    def x1(self) -> float:
        return self.theta1 - 0.5 * self.theta2

    @property
    def x2(self) -> float:
        # Anchored to x1 so that x2 - x1 equals theta2 exactly.
        return self.x1 + self.theta2


def sweep_points(points) -> np.ndarray:
    """The (n, 2) float array of checked (theta1, theta2) ``points``.

    Both coordinates must be finite and theta2 positive (theta2 = 0 makes the
    state rank-1 and the 4D basis degenerate); the first failing point raises.
    """
    points = np.array(points, dtype=float).reshape(len(points), 2)
    theta1, theta2 = points.T
    raise_first_failure(
        [
            (ValueError, "theta1 must be finite, got {!r}", ~np.isfinite(theta1), theta1),
            (ValueError, "theta2 must be finite, got {!r}", ~np.isfinite(theta2), theta2),
            (ValueError, "separation theta2 must be strictly positive", ~(theta2 > 0.0)),
        ],
        "",
    )
    return points


def source_positions(points) -> np.ndarray:
    """(n, 2) positions (X1, X2) of (theta1, theta2) ``points``, as ``SourceGeometry``'s.

    The points are not checked again: ``sweep_points`` has checked them.
    """
    theta1, theta2 = np.asarray(points, dtype=float).T
    x1 = theta1 - 0.5 * theta2
    return np.stack([x1, x1 + theta2], axis=1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre settings.

    ``panel_count`` (P) caps the panels that span the integration window: an
    even PSF's half-window climbs by doublings to 2 ceil(P/2) panels and takes
    the first pair of passes whose checks pass (``quadrature_ladder``).  The
    default cap (32 panels, radius 12) keeps panels near one sigma wide for
    the largest default separations; every default separation settles on 4
    and 8.  ``abs_tolerance`` bounds the drift of the overlaps between the
    passes of a pair, and that of each direct-imaging F_jj as a fraction of
    QFIM_jj.
    """

    truncation_radius: float = 12.0
    panel_count: int = 32
    nodes_per_panel: int = 32
    abs_tolerance: float = 1e-12

    def __post_init__(self):
        if not 8.0 <= self.truncation_radius < math.inf:
            raise ValueError("truncation_radius must be finite and at least 8 sigma")
        counts = (self.panel_count, self.nodes_per_panel)
        if not all(np.issubdtype(type(count), np.integer) for count in counts):
            raise ValueError("panel_count and nodes_per_panel must be integers")
        if self.panel_count < 1 or self.nodes_per_panel < 1:
            raise ValueError("panel_count and nodes_per_panel must be positive")
        if not 0.0 < self.abs_tolerance < math.inf:
            raise ValueError("abs_tolerance must be positive and finite")


@dataclass(frozen=True)
class OverlapIntegrals:
    """The four scalars (kappa, gamma, beta, delta) defined in the module docstring."""

    kappa: float
    gamma: float
    beta: float
    delta: float

    def __post_init__(self):
        raise_first_failure(overlap_checks(overlap_column(self)), "")


def overlap_column(overlaps) -> np.ndarray:
    """The (4, 1) column (kappa, gamma, beta, delta) of one set of ``overlaps``."""
    fields = (overlaps.kappa, overlaps.gamma, overlaps.beta, overlaps.delta)
    return np.array(fields, dtype=float).reshape(4, 1)


def overlap_checks(overlaps):
    """The overlap checks of each column of (4, n) ``overlaps`` (kappa, gamma, beta, delta).

    They come in the order a column meets them; ``OverlapIntegrals`` runs them
    on its own one column.
    """
    kappa, gamma, beta, delta = overlaps
    with np.errstate(invalid="ignore", over="ignore"):
        fisher_11 = kappa - gamma * gamma
        bound = kappa * np.where(fisher_11 < 0.0, 0.0, fisher_11) + 1e-9 * (kappa * kappa)
        return [
            (ConsistencyError, "overlap integrals must be finite, got ({!r}, {!r}, {!r}, {!r})",
             ~np.isfinite(overlaps).all(axis=0), *overlaps),
            (ConsistencyError, "kappa must be positive", ~(kappa > 0.0)),
            (ConsistencyError, "|delta| cannot exceed 1", abs(delta) > 1.0 + 1e-12),
            (ConsistencyError, "kappa - gamma^2 must be nonnegative", fisher_11 < -1e-9 * kappa),
            (ConsistencyError, "beta^2 cannot exceed kappa*(kappa - gamma^2)",
             beta * beta > bound),
        ]


def gaussian_psf(sigma: float = 1.0) -> PointSpreadFunction:
    """Gaussian PSF psi(x) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2)."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    inv_4s2 = 1.0 / (4.0 * sigma**2)
    inv_2s2 = 1.0 / (2.0 * sigma**2)

    def joint(x, out=None):
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty_like(x), np.empty_like(x)
        amplitude, slope = out
        # psi' = -x / (2 sigma^2) * norm * e and psi = norm * e share the
        # envelope e = exp(-x^2 / 4 sigma^2), held in the amplitude array until
        # psi' has used it.  Far out, x^2 overflows to inf and e takes its limit 0.
        with np.errstate(over="ignore"):
            np.exp(np.multiply(np.square(x, out=amplitude), -inv_4s2, out=amplitude), out=amplitude)
        np.multiply(np.multiply(x, -inv_2s2, out=slope), norm, out=slope)
        np.multiply(slope, amplitude, out=slope)
        np.multiply(amplitude, norm, out=amplitude)
        return out

    def amplitude(x):
        return joint(x)[0]

    def derivative(x):
        return joint(x)[1]

    return PointSpreadFunction(GAUSSIAN, float(sigma), amplitude, derivative, joint)


# Bounded because nodes_per_panel is user input; a run uses a single rule.
_GAUSS_LEGENDRE_CACHE_SIZE = 8


# leggauss solves an eigenproblem on every call; a sweep reuses one rule thousands of times.
# typed=True keeps 32.0 from being served the rule cached for 32: leggauss rejects it.
@lru_cache(maxsize=_GAUSS_LEGENDRE_CACHE_SIZE, typed=True)
def _gauss_legendre(nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only by all callers."""
    nodes, weights = leggauss(nodes_per_panel)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def quadrature_grid(lo, hi, panel_count: int, nodes_per_panel: int, out=None):
    """Nodes and weights of composite Gauss-Legendre quadrature on [lo, hi].

    1-D arrays ``lo``, ``hi`` stack one grid per interval, each bit for bit its own.
    ``out``, a pair of arrays of the result's shape with contiguous rows,
    receives the nodes and weights and is returned.
    """
    return _panel_nodes(*_panels(lo, hi, panel_count), nodes_per_panel, out)


def _panels(lo, hi, panel_count: int):
    """Half-widths and midpoints of the ``panel_count`` panels of [lo, hi], a row per interval."""
    edges = np.linspace(lo, hi, panel_count + 1).T
    return 0.5 * np.diff(edges), 0.5 * (edges[..., :-1] + edges[..., 1:])


def _panel_nodes(half, mid, nodes_per_panel: int, out=None):
    """``quadrature_grid``'s nodes and weights on the panels of ``_panels``."""
    base_x, base_w = _gauss_legendre(nodes_per_panel)
    if out is None:
        shape = (*mid.shape[:-1], mid.shape[-1] * nodes_per_panel)
        out = np.empty(shape), np.empty(shape)
    # Contiguous rows split into panels as views, so the writes land in ``out``.
    x, w = (array.reshape(*mid.shape, nodes_per_panel) for array in out)
    np.add(mid[..., None], np.multiply(half[..., None], base_x, out=x), out=x)
    np.multiply(half[..., None], base_w, out=w)
    return out


def centroid_half_window(psf: PointSpreadFunction, theta2, quad: QuadratureSpec):
    """Half-width theta2/2 + R sigma of the window about the centroid (per theta2)."""
    return 0.5 * theta2 + quad.truncation_radius * psf.sigma


def _refined_batch(evaluate, lo, hi, quad):
    """Integrate a batch of products at the panel count and at twice it.

    ``evaluate(x)`` returns an (m, n) array of integrand samples; the result
    is the length-m vector of integrals at doubled panel count and its
    largest drift from the single-count values.
    """
    results = []
    for panels in (quad.panel_count, 2 * quad.panel_count):
        x, w = quadrature_grid(lo, hi, panels, quad.nodes_per_panel)
        results.append(np.asarray(evaluate(x)) @ w)
    coarse, fine = results
    return fine, np.max(np.abs(fine - coarse))


def _drift_check(drift, lo, hi, quad):
    """The refinement check of a drift (one per row) on its window [lo, hi]."""
    message = (
        f"quadrature drift {{:.3e}} exceeds tolerance {quad.abs_tolerance:.3e} on [{{:g}}, {{:g}}]"
    )
    # Written as `~(... <= tol)` so that a NaN drift fails the check.
    return ConvergenceError, message, ~(drift <= quad.abs_tolerance), drift, lo, hi


# Samples per stacked (geometries, samples) array: each pass of a sweep's folded
# overlaps, and of the direct-imaging FIMs formed from their samples, works in
# blocks of this many: 128 geometries on 4 half-window panels of 32 nodes, 16
# on 32.  Smaller blocks pay more overhead per block; larger ones hold
# more memory for little gain.
BLOCK_SAMPLES = 16384


def quadrature_ladder(quad: QuadratureSpec) -> tuple[int, ...]:
    """Half-window panel counts of an even PSF's passes, ascending.

    Each pass doubles the one before; the top pair is (ceil(P/2), 2 ceil(P/2)),
    P = ``panel_count``, and the pairs below halve it while it stays an integer
    of at least 4.  Wider panels leave errors near 1e-15 in the overlaps, which
    the state model's eta3^2 amplifies by about 4/theta2^2 near coincidence.
    """
    counts = [(quad.panel_count + 1) // 2]
    while counts[0] % 2 == 0 and counts[0] >= 8:
        counts.insert(0, counts[0] // 2)
    return (*counts, 2 * counts[-1])


# Separations below this many sigma start on the top pair of the ladder.  Near
# coincidence eta3^2 = kappa + beta - gamma^2 / (1 - delta) shrinks as theta2^4
# while an error in delta enters it times about 4 sigma^2 / theta2^2, so the
# coarser pairs' overlaps leave it negative (a DegenerateStateError) at some
# separations below 0.0075 sigma where the top pair's do not.
NEAR_COINCIDENCE = 0.02


def first_passes(psf: PointSpreadFunction, theta2, quad: QuadratureSpec) -> np.ndarray:
    """Index into ``quadrature_ladder(quad)`` of the first pass of each separation.

    It is 0, or the top pair's coarser pass below ``NEAR_COINCIDENCE`` sigma.
    """
    top = len(quadrature_ladder(quad)) - 2
    return np.where(np.asarray(theta2) < NEAR_COINCIDENCE * psf.sigma, top, 0)


def block_size(quad: QuadratureSpec, panels: int) -> int:
    """Geometries per stacked block of a pass on ``panels`` half-window panels."""
    return max(1, BLOCK_SAMPLES // (panels * quad.nodes_per_panel))


def folded_integrals(a1, d1, a2, d2, w, work):
    """(int psi^2, kappa, gamma, beta, delta) of the folded integrands, a column per row.

    a_j, d_j are psi, psi' at u +- theta2/2 on a half-window grid of weights
    ``w``, a row per geometry (or one 1-D row); ``work``, of their shape, is
    overwritten.
    """

    # A dot product per row (BLAS where available): as accurate as the
    # full-window route's matrix product, which a plain running sum is not.
    def integral(u, v):
        return np.vecdot(np.multiply(u, v, out=work), w)

    return np.array([
        integral(a1, a1) + integral(a2, a2),
        integral(d1, d1) + integral(d2, d2),
        integral(d1, a2) - integral(d2, a1),
        2.0 * integral(d1, d2),
        2.0 * integral(a1, a2),
    ])


def overlap_passes(psf, points, quad, overlaps, wanted, label="row {}: ", spare=0):
    """Yield (pass, rows, integrals, samples, last) for each block of each pass of an
    even PSF's ladder.

    Pass k runs on ``quadrature_ladder(quad)[k]`` panels of the half-window
    [0, W], W = theta2/2 + R sigma, for the rows (ascending indices into the
    (n, 2) array of (theta1, theta2) ``points``) still climbing as it starts,
    each from its first pass (``first_passes``) on: a row climbs while its
    overlaps are unsettled or its entry of ``wanted``, a mask the caller
    updates as it goes, is set.  ``integrals`` are the block's
    ``folded_integrals`` on this pass.  ``samples`` are its (x, w, a1, d1,
    a2, d2), a row per geometry in ascending u, x free for reuse, then
    ``spare`` arrays of their shape.  ``last`` marks the pass's last block:
    the caller settles its own rows of the pass before it resumes the
    generator, which then settles the pass's overlaps and picks the next
    pass's rows.  Row i's overlaps go to column i of the (4, n) ``overlaps``
    from the first pair of passes whose checks pass (``_settle``); at the
    top pair a failure raises, the first failing row named by ``label``.
    u -> -u maps a1 <-> a2 and d1 <-> -d2, which folds each integral over
    [-W, W] onto [0, W].  A pass's panels, drift and settling are computed
    once, over all its rows; its blocks only sample and integrate.  Every
    block-sized array lives in buffers allocated once per call: blocks that
    allocate their own leave the heap top free after each block, and glibc
    then trims it and faults it back in on the next block, at a cost set by
    the process's heap history.
    """
    theta1, theta2 = points.T
    window = centroid_half_window(psf, theta2, quad)
    with np.errstate(over="ignore"):  # The bounds only label errors: +-inf will do.
        lo, hi = theta1 - window, theta1 + window
    counts, nodes = quadrature_ladder(quad), quad.nodes_per_panel
    first = first_passes(psf, theta2, quad)
    length = max(min(block_size(quad, count), len(theta2)) * count for count in counts) * nodes
    buffers = [np.empty(length) for _ in range(6 + spare)]
    # A row's first pass has no drift to check; zeros keep its drift finite.
    unsettled, previous = np.ones(len(theta2), dtype=bool), np.zeros((5, len(theta2)))
    for index, count in enumerate(counts):
        climbing = np.flatnonzero((unsettled | wanted) & (first <= index))
        if not climbing.size:
            continue
        half_widths, midpoints = _panels(0.0, window[climbing], count)
        halves, integrals = 0.5 * theta2[climbing, np.newaxis], np.empty((5, climbing.size))
        size = block_size(quad, count)
        for start in range(0, climbing.size, size):
            block = slice(start, start + size)
            rows = climbing[block]
            samples = [buffer[: rows.size * count * nodes] for buffer in buffers]
            samples = [sample.reshape(rows.size, -1) for sample in samples]
            x, w, a1, d1, a2, d2 = samples[:6]
            _panel_nodes(half_widths[block], midpoints[block], nodes, out=(x, w))
            psf.amplitude_and_derivative(np.add(x, halves[block], out=a2), out=(a1, d1))
            psf.amplitude_and_derivative(np.subtract(x, halves[block], out=x), out=(a2, d2))
            integrals[:, block] = folded_integrals(a1, d1, a2, d2, w, x)
            yield index, rows, integrals[:, block], samples, start + size >= climbing.size
        # Rows past their first pass settle on the pair this pass closes.
        open_rows = unsettled[climbing] & (first[climbing] < index)
        if open_rows.any():
            rows, settling = climbing[open_rows], integrals[:, open_rows]
            drift = np.max(np.abs(settling - previous[:, rows]), axis=0)
            final = index == len(counts) - 1
            settled = _settle(overlaps, rows, settling, drift, lo, hi, quad, label, final)
            unsettled[rows[settled]] = False
        previous[:, climbing] = integrals


def _settle(overlaps, rows, integrals, drift, lo, hi, quad, label, final):
    """Store the overlaps of each row whose checks pass; return the mask of those rows.

    ``integrals`` has rows (int psi^2, kappa, gamma, beta, delta) and a column
    per entry of ``rows``, ``drift`` each column's largest drift from the
    coarser pass; ``lo`` and ``hi`` are the windows of all rows.  A row meets
    the drift check, the normalization check, then ``overlap_checks``, and
    its overlaps go to column ``rows[i]`` of the (4, n) ``overlaps``.  When
    ``final``, the first failing row raises its error, named by ``label``.
    """
    norm = integrals[0]
    checks = [
        _drift_check(drift, lo[rows], hi[rows], quad),
        (
            NormalizationError,
            "int psi^2 = {!r} deviates from 1 beyond 10x quadrature tolerance",
            ~(abs(norm - 1.0) <= 10.0 * quad.abs_tolerance),
            norm,
        ),
        *overlap_checks(integrals[1:]),
    ]
    if final:
        raise_first_failure(checks, label, rows)
    passed = ~np.any([check[2] for check in checks], axis=0)
    overlaps[:, rows[passed]] = integrals[1:, passed]
    return passed


def overlap_columns(psf: PointSpreadFunction, points, quad=QuadratureSpec(), label="row {}: "):
    """(4, n) columns (kappa, gamma, beta, delta) of (theta1, theta2) ``points``, by quadrature.

    For an even PSF (``psf.even``) the folded integrands of the module
    docstring are integrated over the centroid half-window [0, W],
    W = theta2/2 + R sigma, on the passes of ``quadrature_ladder(quad)``, and
    the overlaps are the finer values of the first pair of passes whose checks
    pass, so they depend on theta2 alone, bit for bit.  Any other PSF is
    integrated over the full window [X1 - R sigma, X2 + R sigma] on P and 2P
    panels (P = ``panel_count``).  The two rules of the pair must agree to
    ``abs_tolerance`` (ConvergenceError), int psi^2 must be 1 within 10x that
    (NormalizationError), and the overlaps must pass ``overlap_checks``
    (ConsistencyError).  The points are checked first (``sweep_points``);
    at the top pair the first failing row raises its error, named by ``label``.
    """
    points = sweep_points(points)
    overlaps = np.empty((4, len(points)))
    if psf.even:
        wanted = np.zeros(len(points), dtype=bool)
        for _ in overlap_passes(psf, points, quad, overlaps, wanted, label):
            pass
    elif len(points):
        radius = quad.truncation_radius * psf.sigma
        sources = source_positions(points)
        lo, hi = sources[:, 0] - radius, sources[:, 1] + radius
        columns = [
            _refined_batch(_products(psf, *pair), lo[row], hi[row], quad)
            for row, pair in enumerate(sources.tolist())
        ]
        integrals = np.array([column[0] for column in columns]).T
        drift = np.array([column[1] for column in columns])
        _settle(overlaps, np.arange(len(points)), integrals, drift, lo, hi, quad, label, True)
    return overlaps


def overlap_integrals(
    psf: PointSpreadFunction,
    geometry: SourceGeometry,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OverlapIntegrals:
    """The ``overlap_columns`` of ``geometry``'s one point, as ``OverlapIntegrals``."""
    column = overlap_columns(psf, [(geometry.theta1, geometry.theta2)], quad, "")
    return OverlapIntegrals(*column[:, 0].tolist())


def _products(psf, x1, x2):
    """``_refined_batch``'s ``evaluate`` for the full-window integrands of sources at x1, x2.

    They are a1^2, d1^2, d1 a2, d1 d2 and a1 a2, with a_j, d_j = psi, psi' at
    x - X_j: int psi^2, kappa, gamma, beta and delta.
    """

    def evaluate(x):
        a1, d1 = psf.amplitude_and_derivative(x - x1)
        a2, d2 = psf.amplitude_and_derivative(x - x2)
        products = np.empty((5, x.size))
        for out, left, right in zip(products, (a1, d1, d1, d1, a1), (a1, d1, a2, d2, a2)):
            np.multiply(left, right, out=out)
        return products

    return evaluate


def displaced_overlaps(
    psf: PointSpreadFunction,
    shift: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float, float]:
    """Overlap integrals of the PSF with a copy displaced by ``shift``.

    Returns (int psi(x) psi(x-s) dx, int psi'(x) psi(x-s) dx,
    int psi'(x) psi'(x-s) dx).  Used by the SLD verifier, which needs
    cross-overlaps at arbitrary displacements, not just theta2.
    """
    lo = min(0.0, shift) - quad.truncation_radius * psf.sigma
    hi = max(0.0, shift) + quad.truncation_radius * psf.sigma

    def evaluate(x):
        a0, d0 = psf.amplitude_and_derivative(x)
        a_s, d_s = psf.amplitude_and_derivative(x - shift)
        return np.stack([a0 * a_s, d0 * a_s, d0 * d_s])

    (a, b, c), drift = _refined_batch(evaluate, lo, hi, quad)
    raise_first_failure([_drift_check(drift, lo, hi, quad)], "")
    return float(a), float(b), float(c)


def gaussian_overlap_integrals(sigma: float, theta2: float) -> OverlapIntegrals:
    """Closed-form overlaps for the Gaussian PSF.

    kappa = 1/(4 sigma^2)
    gamma = -(theta2 / 4 sigma^2) exp(-theta2^2 / 8 sigma^2)
    beta  = kappa (1 - theta2^2 / 4 sigma^2) exp(-theta2^2 / 8 sigma^2)
    delta = exp(-theta2^2 / 8 sigma^2)

    The delta closed form is validated against the quadrature path in the
    test suite rather than taken on faith.  All four are Python floats,
    whatever float type sigma and theta2 are.
    """
    if not (sigma > 0.0 and theta2 > 0.0):
        raise ValueError("sigma and theta2 must be positive")
    envelope = float(np.exp(-(theta2**2) / (8.0 * sigma**2)))
    kappa = float(1.0 / (4.0 * sigma**2))
    # beta as kappa (1 - u): 16 sigma^4 would leave the normal floats for sigma below 1e-77.
    return OverlapIntegrals(
        kappa=kappa,
        gamma=float(-(theta2 / (4.0 * sigma**2)) * envelope),
        beta=float(kappa * (1.0 - theta2**2 / (4.0 * sigma**2)) * envelope),
        delta=envelope,
    )


def check_normalization(
    psf: PointSpreadFunction, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Return |int psi^2 dx - 1| on the symmetric truncation window."""
    radius = quad.truncation_radius * psf.sigma
    x, w = quadrature_grid(-radius, radius, quad.panel_count, quad.nodes_per_panel)
    return float(abs(psf.amplitude(x) ** 2 @ w - 1.0))


# 4th-order finite-difference stencils (interior central, one-sided edges).
_FD_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FD_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _finite_difference_derivative(values: np.ndarray, step: float) -> np.ndarray:
    n = values.size
    out = np.empty(n)
    out[2:-2] = np.convolve(values, _FD_INTERIOR[::-1], mode="valid")
    out[0] = _FD_EDGE0 @ values[:5]
    out[1] = _FD_EDGE1 @ values[:5]
    out[-1] = -(_FD_EDGE0 @ values[-1:-6:-1])
    out[-2] = -(_FD_EDGE1 @ values[-1:-6:-1])
    return out / step


def _clamped_spline(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Cubic interpolant that returns 0 outside the sample window."""
    # Imported here: scipy.interpolate dominates the package's import time,
    # and only user-defined PSFs need it.
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(x, y, extrapolate=False)
    lo, hi = x[0], x[-1]

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        inside = (t >= lo) & (t <= hi)
        if np.any(inside):
            out[inside] = spline(t[inside])
        return out

    return evaluate


def user_psf_from_samples(
    positions,
    amplitudes,
    sigma: float | None = None,
    derivative=None,
) -> PointSpreadFunction:
    """Build a PSF from amplitude samples on a uniform grid.

    Parameters
    ----------
    positions, amplitudes:
        Uniformly spaced sample positions (strictly increasing) and the real
        amplitude at each.  The grid should cover the PSF support; the
        amplitude is treated as 0 outside of it.
    sigma:
        Characteristic length.  Defaults to the RMS width of the intensity
        |psi|^2, which reproduces sigma for a Gaussian.
    derivative:
        Optional samples of psi' on the same grid.  When omitted the
        derivative is formed by 4th-order finite differences.
    """
    x = np.asarray(positions, dtype=float)
    y = np.asarray(amplitudes, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("positions and amplitudes must be 1-D arrays of equal length")
    if x.size < 5:
        raise ValueError("need at least 5 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")
    steps = np.diff(x)
    if np.any(steps <= 0.0):
        raise ValueError("positions must be strictly increasing")
    step = steps.mean()
    if np.max(np.abs(steps - step)) > 1e-8 * step:
        raise ValueError("positions must be uniformly spaced")

    if derivative is None:
        dy = _finite_difference_derivative(y, step)
    else:
        dy = np.asarray(derivative, dtype=float)
        if dy.shape != y.shape:
            raise ValueError("derivative samples must match amplitude samples")

    if sigma is None:
        weight = y**2
        total = np.trapezoid(weight, x)
        if not total > 0.0:
            raise ValueError("amplitude samples are identically zero")
        mean = np.trapezoid(x * weight, x) / total
        variance = np.trapezoid((x - mean) ** 2 * weight, x) / total
        sigma = float(np.sqrt(variance))
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")

    return PointSpreadFunction(
        USER_DEFINED, float(sigma), _clamped_spline(x, y), _clamped_spline(x, dy)
    )


def load_user_psf(path, sigma: float | None = None) -> PointSpreadFunction:
    """Load a PSF from a two-column text file.

    The format is whitespace-separated ``x  psi(x)`` rows with strictly
    increasing, uniformly spaced x; lines starting with '#' are comments.
    """
    data = np.loadtxt(path, comments="#", dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (x, psi)")
    return user_psf_from_samples(data[:, 0], data[:, 1], sigma=sigma)
