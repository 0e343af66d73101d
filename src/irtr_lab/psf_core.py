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

on 2 ceil(P/2) panels and again on ceil(P/2), P = ``panel_count``, so the
overlaps depend on theta2 alone, bit for bit, and a sweep is evaluated in
stacked blocks of geometries (``overlap_blocks``), whose ceil(P/2)-panel
samples also give the direct-imaging FIMs.  Any other PSF is integrated over
the full window on P and 2P panels.  Either way the two values must agree to
``abs_tolerance`` or a ConvergenceError is raised.
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
        for name, value in (("theta1", self.theta1), ("theta2", self.theta2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.theta2 > 0.0:
            # theta2 = 0 makes the state rank-1 and the 4D basis degenerate.
            raise ValueError("separation theta2 must be strictly positive")

    @property
    def x1(self) -> float:
        return self.theta1 - 0.5 * self.theta2

    @property
    def x2(self) -> float:
        # Anchored to x1 so that x2 - x1 equals theta2 exactly.
        return self.x1 + self.theta2


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre settings.

    ``panel_count`` panels span the integration window, so the default pair
    (32 panels, radius 12) keeps panels near one sigma wide for the largest
    default separations and finer elsewhere.
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
        if not self.abs_tolerance > 0.0:
            raise ValueError("abs_tolerance must be positive")


@dataclass(frozen=True)
class OverlapIntegrals:
    """The four scalars (kappa, gamma, beta, delta) defined in the module docstring."""

    kappa: float
    gamma: float
    beta: float
    delta: float

    def __post_init__(self):
        values = (self.kappa, self.gamma, self.beta, self.delta)
        if not all(map(math.isfinite, values)):
            raise ConsistencyError(f"overlap integrals must be finite, got {values!r}")
        if not self.kappa > 0.0:
            raise ConsistencyError("kappa must be positive")
        if abs(self.delta) > 1.0 + 1e-12:
            raise ConsistencyError("|delta| cannot exceed 1")
        fisher_11 = self.kappa - self.gamma**2
        if fisher_11 < -1e-9 * self.kappa:
            raise ConsistencyError("kappa - gamma^2 must be nonnegative")
        if self.beta**2 > self.kappa * max(fisher_11, 0.0) + 1e-9 * self.kappa**2:
            raise ConsistencyError("beta^2 cannot exceed kappa*(kappa - gamma^2)")


def gaussian_psf(sigma: float = 1.0) -> PointSpreadFunction:
    """Gaussian PSF psi(x) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2)."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    inv_4s2 = 1.0 / (4.0 * sigma**2)
    inv_2s2 = 1.0 / (2.0 * sigma**2)

    def amplitude(x):
        x = np.asarray(x, dtype=float)
        return norm * np.exp(-(x**2) * inv_4s2)

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
    base_x, base_w = _gauss_legendre(nodes_per_panel)
    edges = np.linspace(lo, hi, panel_count + 1).T
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
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


# Samples per stacked (geometries, samples) array: a sweep's folded overlaps,
# and the direct-imaging FIMs formed from their samples, work in blocks of this
# many, 16 geometries at the default quadrature.  Smaller blocks pay more
# overhead per block; larger ones hold more memory for little gain.
BLOCK_SAMPLES = 16384


def block_size(quad: QuadratureSpec) -> int:
    """Geometries per stacked block, each 2 ceil(P/2) n samples in the refined rule."""
    return max(1, BLOCK_SAMPLES // (2 * ((quad.panel_count + 1) // 2) * quad.nodes_per_panel))


def _folded_blocks(psf, theta2, window, quad):
    """Yield (first row, integrals, drift, samples) for each block of an even PSF's separations.

    ``integrals`` has rows (int psi^2, kappa, gamma, beta, delta) and a
    column per theta2 of the block, ``drift`` each column's largest drift,
    ``samples`` are as in ``overlap_blocks``.  u -> -u maps a1 <-> a2 and
    d1 <-> -d2, which folds each integral over [-W, W] onto [0, W],
    W = ``window``.  Every block-sized array lives in buffers allocated once
    per sweep: blocks that allocate their own leave the heap top free after
    each block, and glibc then trims it and faults it back in on the next
    block, at a cost set by the process's heap history.
    """
    size, nodes = min(block_size(quad), len(theta2)), quad.nodes_per_panel
    panels = (quad.panel_count + 1) // 2
    # Nodes (shifted in place, then products), weights, a1, d1, a2 (first u + theta2/2), d2.
    buffers = [np.empty(size * 2 * panels * nodes) for _ in range(6)]
    for first in range(0, len(theta2), size):
        half = 0.5 * theta2[first : first + size, np.newaxis]
        results = []
        for count in (2 * panels, panels):
            x, w, a1, d1, a2, d2 = (
                buffer[: half.size * count * nodes].reshape(half.size, -1) for buffer in buffers
            )
            quadrature_grid(0.0, window[first : first + size], count, nodes, out=(x, w))
            psf.amplitude_and_derivative(np.add(x, half, out=a2), out=(a1, d1))
            psf.amplitude_and_derivative(np.subtract(x, half, out=x), out=(a2, d2))

            # A dot product per row (BLAS where available): as accurate as the
            # full-window route's matrix product, which a plain running sum is not.
            def integral(u, v):
                return np.vecdot(np.multiply(u, v, out=x), w)

            results.append((
                integral(a1, a1) + integral(a2, a2),
                integral(d1, d1) + integral(d2, d2),
                integral(d1, a2) - integral(d2, a1),
                2.0 * integral(d1, d2),
                2.0 * integral(a1, a2),
            ))
        # The coarse rule ran last, in the first half of each buffer: the second halves are spare.
        spare = (buffer[w.size : 2 * w.size].reshape(w.shape) for buffer in buffers)
        fine, coarse = np.array(results)
        yield first, fine, np.max(np.abs(fine - coarse), axis=0), (w, a1, d1, a2, d2, *spare)


def _full_window_blocks(psf, geometries, lo, hi, quad):
    """Yield (row, integrals, drift, None) for each geometry of any PSF, on [lo, hi] of its row.

    ``integrals`` is the column (int psi^2, kappa, gamma, beta, delta).
    """
    for row, geometry in enumerate(geometries):

        def evaluate(x):
            a1, d1 = psf.amplitude_and_derivative(x - geometry.x1)
            a2, d2 = psf.amplitude_and_derivative(x - geometry.x2)
            products = np.empty((5, x.size))
            for out, left, right in zip(products, (a1, d1, d1, d1, a1), (a1, d1, a2, d2, a2)):
                np.multiply(left, right, out=out)
            return products

        integrals, drift = _refined_batch(evaluate, lo[row], hi[row], quad)
        yield row, integrals[:, np.newaxis], np.array([drift]), None


def overlap_blocks(psf, geometries, quad=QuadratureSpec(), label="row {}: "):
    """Yield (first row, overlaps, samples) for each block of a sweep, after its checks.

    A failed check raises as in ``overlap_integrals``, ``label`` naming the row.
    An even PSF's ``samples`` are the block's (w, a1, d1, a2, d2) of the
    ceil(P/2)-panel rule, a row per geometry in ascending u, then six spare
    arrays of their shape, all reused by the next block; other PSFs give None.
    """
    if not geometries:  # An empty sweep has no blocks.
        return
    if psf.even:
        theta1, theta2 = np.array([(g.theta1, g.theta2) for g in geometries]).T
        window = centroid_half_window(psf, theta2, quad)
        with np.errstate(over="ignore"):  # The bounds only label errors: +-inf will do.
            lo, hi = theta1 - window, theta1 + window
        blocks = _folded_blocks(psf, theta2, window, quad)
    else:
        radius = quad.truncation_radius * psf.sigma
        lo = np.array([g.x1 - radius for g in geometries])
        hi = np.array([g.x2 + radius for g in geometries])
        blocks = _full_window_blocks(psf, geometries, lo, hi, quad)
    for first, integrals, drift, samples in blocks:
        rows = slice(first, first + len(drift))
        norm = integrals[0]
        raise_first_failure(
            [
                _drift_check(drift, lo[rows], hi[rows], quad),
                (
                    NormalizationError,
                    "int psi^2 = {!r} deviates from 1 beyond 10x quadrature tolerance",
                    ~(abs(norm - 1.0) <= 10.0 * quad.abs_tolerance),
                    norm,
                ),
            ],
            label,
            first,
        )
        overlaps = []
        for row, values in enumerate(integrals[1:].T.tolist(), first):
            try:
                overlaps.append(OverlapIntegrals(*values))
            except ConsistencyError as error:
                raise ConsistencyError(label.format(row) + str(error)) from None
        yield first, overlaps, samples


def overlap_integrals(
    psf: PointSpreadFunction,
    geometry: SourceGeometry | list[SourceGeometry],
    quad: QuadratureSpec = QuadratureSpec(),
) -> OverlapIntegrals | list[OverlapIntegrals]:
    """Compute (kappa, gamma, beta, delta) by quadrature.

    For an even PSF (``psf.even``) the folded integrands of the module
    docstring are integrated over the centroid half-window [0, W],
    W = theta2/2 + R sigma, on 2 ceil(P/2) panels and on ceil(P/2)
    (P = ``panel_count``), so the overlaps depend on theta2 alone, bit for
    bit.  Any other PSF is integrated over the full window
    [X1 - R sigma, X2 + R sigma] on P and 2P panels.  The two rules must
    agree to ``abs_tolerance`` (ConvergenceError), and int psi^2 must be 1
    within 10x that (NormalizationError).

    A sequence of geometries gives a list, element i equal bit for bit to
    ``overlap_integrals(psf, geometry[i], quad)``: an even PSF's geometries
    are evaluated in stacked blocks of ``block_size(quad)``, and an error
    names the first failing row.
    """
    stacked = not isinstance(geometry, SourceGeometry)
    geometries = list(geometry) if stacked else [geometry]
    blocks = overlap_blocks(psf, geometries, quad, "row {}: " if stacked else "")
    overlaps = [overlap for _, block, _ in blocks for overlap in block]
    return overlaps if stacked else overlaps[0]


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
    beta  = -(theta2^2 - 4 sigma^2) / (16 sigma^4) exp(-theta2^2 / 8 sigma^2)
    delta = exp(-theta2^2 / 8 sigma^2)

    The delta closed form is validated against the quadrature path in the
    test suite rather than taken on faith.
    """
    if not (sigma > 0.0 and theta2 > 0.0):
        raise ValueError("sigma and theta2 must be positive")
    envelope = np.exp(-(theta2**2) / (8.0 * sigma**2))
    return OverlapIntegrals(
        kappa=1.0 / (4.0 * sigma**2),
        gamma=-(theta2 / (4.0 * sigma**2)) * envelope,
        beta=-(theta2**2 - 4.0 * sigma**2) / (16.0 * sigma**4) * envelope,
        delta=float(envelope),
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
