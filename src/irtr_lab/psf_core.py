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
covering both sources out to ``truncation_radius`` characteristic lengths.
Each result is recomputed with the panel count doubled; the two values must
agree to ``abs_tolerance`` or a ConvergenceError is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, NormalizationError

GAUSSIAN = "gaussian"
USER_DEFINED = "user_defined"


@dataclass(frozen=True)
class PointSpreadFunction:
    """Real normalized amplitude response of the imaging system.

    ``sigma`` is the characteristic length of the PSF and serves as the unit
    of all lengths (quadrature windows, mode scales, default grids).
    ``joint``, if given, returns both callables' values from one call, sharing work.
    """

    kind: str
    sigma: float
    amplitude: Callable[[np.ndarray], np.ndarray]
    amplitude_derivative: Callable[[np.ndarray], np.ndarray]
    joint: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def amplitude_and_derivative(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(psi(x), psi'(x)), from ``joint`` when the PSF has one."""
        if self.joint is None:
            return self.amplitude(x), self.amplitude_derivative(x)
        return self.joint(x)


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
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if abs(self.delta) > 1.0 + 1e-12:
            raise ValueError("|delta| cannot exceed 1")
        fisher_11 = self.kappa - self.gamma**2
        if fisher_11 < -1e-9 * self.kappa:
            raise ValueError("kappa - gamma^2 must be nonnegative")
        if self.beta**2 > self.kappa * max(fisher_11, 0.0) + 1e-9 * self.kappa**2:
            raise ValueError("beta^2 cannot exceed kappa*(kappa - gamma^2)")


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

    def joint(x):
        x = np.asarray(x, dtype=float)
        envelope = np.exp(-(x**2) * inv_4s2)
        return norm * envelope, -x * inv_2s2 * norm * envelope

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


def quadrature_grid(lo, hi, panel_count: int, nodes_per_panel: int):
    """Nodes and weights of composite Gauss-Legendre quadrature on [lo, hi].

    1-D arrays ``lo``, ``hi`` stack one grid per interval, each bit for bit its own.
    """
    base_x, base_w = _gauss_legendre(nodes_per_panel)
    edges = np.linspace(lo, hi, panel_count + 1).T
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    x = (mid[..., None] + half[..., None] * base_x).reshape(*mid.shape[:-1], -1)
    w = (half[..., None] * base_w).reshape(x.shape)
    return x, w


def _refined_batch(evaluate, lo, hi, quad):
    """Integrate a batch of products with a doubling-refinement check.

    ``evaluate(x)`` returns an (m, n) array of integrand samples; the result
    is the length-m vector of integrals at doubled panel count, accepted only
    if it agrees with the single-count value to ``abs_tolerance``.
    """
    results = []
    for panels in (quad.panel_count, 2 * quad.panel_count):
        x, w = quadrature_grid(lo, hi, panels, quad.nodes_per_panel)
        results.append(np.asarray(evaluate(x)) @ w)
    coarse, fine = results
    drift = np.max(np.abs(fine - coarse))
    if drift > quad.abs_tolerance:
        raise ConvergenceError(
            f"quadrature drift {drift:.3e} exceeds tolerance {quad.abs_tolerance:.3e} "
            f"on [{lo:g}, {hi:g}]"
        )
    return fine


def overlap_integrals(
    psf: PointSpreadFunction,
    geometry: SourceGeometry,
    quad: QuadratureSpec = QuadratureSpec(),
) -> OverlapIntegrals:
    """Compute (kappa, gamma, beta, delta) by quadrature.

    The window covers [X1 - R sigma, X2 + R sigma]; the four integrals are
    evaluated as products of the displaced PSFs, so translation invariance
    (dependence on theta2 only) holds up to quadrature error and is
    property-tested rather than assumed.
    """
    lo = geometry.x1 - quad.truncation_radius * psf.sigma
    hi = geometry.x2 + quad.truncation_radius * psf.sigma

    def evaluate(x):
        a1, d1 = psf.amplitude_and_derivative(x - geometry.x1)
        a2, d2 = psf.amplitude_and_derivative(x - geometry.x2)
        products = np.empty((5, x.size))
        for out, left, right in zip(products, (a1, d1, d1, d1, a1), (a1, d1, a2, d2, a2)):
            np.multiply(left, right, out=out)
        return products

    norm, kappa, gamma, beta, delta = _refined_batch(evaluate, lo, hi, quad)
    if abs(norm - 1.0) > 10.0 * quad.abs_tolerance:
        raise NormalizationError(
            f"int psi^2 = {norm!r} deviates from 1 beyond 10x quadrature tolerance"
        )
    return OverlapIntegrals(
        kappa=float(kappa), gamma=float(gamma), beta=float(beta), delta=float(delta)
    )


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

    a, b, c = _refined_batch(evaluate, lo, hi, quad)
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
