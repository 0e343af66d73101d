"""Four-dimensional state representation, SLDs, QFIM, and incompatibility.

For two equally bright incoherent sources the one-photon density operator
rho = (|psi_1><psi_1| + |psi_2><psi_2|)/2 and its derivatives with respect to
centroid and separation live in the span of psi_1, psi_2 and their spatial
derivatives.  Gram-Schmidt on those four functions yields an orthonormal
basis in which

    rho = diag((1 - delta)/2, (1 + delta)/2, 0, 0)

and both symmetric logarithmic derivatives (SLDs) are sparse real matrices
assembled from the overlap scalars and the two Gram-Schmidt norms eta3, eta4
with

    eta3^2 = kappa + beta - gamma^2 / (1 - delta)
    eta4^2 = kappa - beta - gamma^2 / (1 + delta).

The QFIM is diag(4 kappa - 4 gamma^2, kappa).  Two incompatibility
coefficients are exposed: c_tilde (from the off-diagonal SLD overlap beta)
and c (from the expectation of the SLD commutator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, raise_first_failure
from .psf_core import (
    OverlapIntegrals,
    PointSpreadFunction,
    QuadratureSpec,
    SourceGeometry,
    displaced_overlaps,
    overlap_column,
    overlap_integrals,
)


@dataclass(frozen=True)
class StateModel4:
    """Density matrix and SLDs in the 4-dimensional orthonormal basis."""

    rho: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    eta3: float
    eta4: float

    def __post_init__(self):
        for name in ("rho", "L1", "L2"):
            matrix = np.asarray(getattr(self, name), dtype=float)
            if matrix.shape != (4, 4):
                raise ValueError(f"{name} must be a 4x4 real matrix")
            if not np.array_equal(matrix, matrix.T):
                raise ValueError(f"{name} must be symmetric")
            object.__setattr__(self, name, matrix)
        if abs(np.trace(self.rho) - 1.0) > 1e-12:
            raise ValueError("rho must have unit trace")
        if self.eta3 < 0.0 or self.eta4 < 0.0:
            raise ValueError("eta3 and eta4 must be nonnegative")


@dataclass(frozen=True)
class Qfim:
    """2x2 quantum Fisher information matrix, ordered (centroid, separation)."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (2, 2):
            raise ValueError("matrix must be 2x2")
        if not (matrix[0, 0] > 0.0 and matrix[1, 1] > 0.0):
            raise ValueError("QFIM diagonal entries must be positive")
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class IncompatibilityCoefficients:
    """The two incompatibility coefficients, both dimensionless in [0, 1]."""

    c_tilde: float
    c: float

    def __post_init__(self):
        for name in ("c_tilde", "c"):
            value = getattr(self, name)
            if not (-1e-12 <= value <= 1.0 + 1e-9):
                raise ValueError(f"{name} = {value!r} is outside [0, 1]")
        if self.c > self.c_tilde + 1e-12:
            raise ValueError("c cannot exceed c_tilde")


def _gram_schmidt_norms(overlaps: OverlapIntegrals) -> tuple[float, float]:
    one_minus = 1.0 - overlaps.delta
    one_plus = 1.0 + overlaps.delta
    if one_minus <= 1e-12:
        raise DegenerateStateError(
            f"1 - delta = {one_minus:.3e}: sources are effectively coincident"
        )
    eta3_sq = overlaps.kappa + overlaps.beta - overlaps.gamma * overlaps.gamma / one_minus
    eta4_sq = overlaps.kappa - overlaps.beta - overlaps.gamma * overlaps.gamma / one_plus
    # Severe cancellation makes tiny negatives possible at small separations.
    floor = -1e-12 * max(1.0, overlaps.kappa)
    if eta3_sq < floor or eta4_sq < floor:
        raise DegenerateStateError(
            f"negative squared norms eta3^2 = {eta3_sq:.3e}, eta4^2 = {eta4_sq:.3e}: "
            "overlap scalars are mutually inconsistent"
        )
    return math.sqrt(max(eta3_sq, 0.0)), math.sqrt(max(eta4_sq, 0.0))


def build_state_model(overlaps: OverlapIntegrals) -> StateModel4:
    """Assemble rho and the two SLD matrices from the overlap scalars."""
    eta3, eta4 = _gram_schmidt_norms(overlaps)
    gamma, delta = overlaps.gamma, overlaps.delta
    one_minus = 1.0 - delta
    one_plus = 1.0 + delta

    rho = np.diag([0.5 * one_minus, 0.5 * one_plus, 0.0, 0.0])

    sld_centroid = np.zeros((4, 4))
    sld_centroid[0, 1] = sld_centroid[1, 0] = 2.0 * gamma * delta / math.sqrt(
        one_minus * one_plus
    )
    sld_centroid[0, 3] = sld_centroid[3, 0] = 2.0 * eta4 / math.sqrt(one_minus)
    sld_centroid[1, 2] = sld_centroid[2, 1] = 2.0 * eta3 / math.sqrt(one_plus)

    sld_separation = np.zeros((4, 4))
    sld_separation[0, 0] = -gamma / one_minus
    sld_separation[1, 1] = gamma / one_plus
    sld_separation[0, 2] = sld_separation[2, 0] = -eta3 / math.sqrt(one_minus)
    sld_separation[1, 3] = sld_separation[3, 1] = -eta4 / math.sqrt(one_plus)

    return StateModel4(rho=rho, L1=sld_centroid, L2=sld_separation, eta3=eta3, eta4=eta4)


def qfim(overlaps: OverlapIntegrals) -> Qfim:
    """QFIM diag(4 kappa - 4 gamma^2, kappa) for (centroid, separation): ``qfim_stack``'s."""
    return Qfim(qfim_stack(overlap_column(overlaps))[0])


def qfim_stack(overlaps) -> np.ndarray:
    """(n, 2, 2) QFIMs diag(4 kappa - 4 gamma^2, kappa) of (4, n) overlap columns."""
    kappa, gamma = overlaps[:2]
    stack = np.zeros((kappa.size, 2, 2))
    with np.errstate(over="ignore"):  # A square past the float range is inf.
        stack[:, 0, 0] = 4.0 * (kappa - gamma * gamma)
    stack[:, 1, 1] = kappa
    return stack


def c_tilde_column(overlaps, label="row {}: ") -> np.ndarray:
    """c_tilde = |beta| / sqrt(kappa (kappa - gamma^2)) of each column of (4, n) overlaps.

    No state model is needed.  kappa - gamma^2 must be positive and c_tilde
    at most 1 + 1e-9; the first failing row raises its error, named by
    ``label``.  Values just above 1 are clamped to 1.
    """
    kappa, gamma, beta, _ = overlaps
    with np.errstate(over="ignore"):  # A square or product past the float range is inf.
        centroid_quarter = kappa - gamma * gamma
        degenerate = centroid_quarter <= 0.0
        quarter = np.where(degenerate, 1.0, centroid_quarter)
        product = kappa * quarter
    # Where the product overflows, its roots multiply: sqrt(kappa) sqrt(kappa - gamma^2).
    roots = np.where(np.isfinite(product), np.sqrt(product), np.sqrt(kappa) * np.sqrt(quarter))
    c_tilde = abs(beta) / roots
    raise_first_failure(
        [
            (DegenerateStateError, "kappa - gamma^2 must be positive to define c_tilde",
             degenerate),
            (DegenerateStateError, "c_tilde = {!r} above 1: overlap scalars are inconsistent",
             c_tilde > 1.0 + 1e-9, c_tilde),
        ],
        label,
    )
    return np.where(c_tilde > 1.0, 1.0, c_tilde)


def c_tilde_from_overlaps(overlaps: OverlapIntegrals) -> float:
    """c_tilde of one set of overlaps: ``c_tilde_column``'s, its errors unnamed."""
    return float(c_tilde_column(overlap_column(overlaps), label="")[0])


def incompatibility(overlaps: OverlapIntegrals) -> IncompatibilityCoefficients:
    """Compute c_tilde and c.

    The two coefficients follow independent routes: c_tilde from the overlap
    scalars directly, c from the expectation of the SLD commutator.  For a
    real PSF c vanishes.
    """
    c_tilde = c_tilde_from_overlaps(overlaps)
    model = build_state_model(overlaps)
    f00, f11 = qfim(overlaps).matrix.diagonal().tolist()
    # Where the product overflows, its roots multiply, as in c_tilde_column.
    product = f00 * f11
    root = math.sqrt(product) if math.isfinite(product) else math.sqrt(f00) * math.sqrt(f11)
    scale = 2.0 * root

    commutator = model.L1 @ model.L2 - model.L2 @ model.L1
    c = float(abs(np.trace(commutator @ model.rho))) / scale
    return IncompatibilityCoefficients(c_tilde=c_tilde, c=c)


def gaussian_incompatibility(sigma: float, theta2: float) -> float:
    """Closed-form c_tilde for the Gaussian PSF.

    c_tilde^2 = (1 - u)^2 / (exp(u) - u) with u = theta2^2 / 4 sigma^2.
    This route never touches the overlap integrals and cross-validates the
    quadrature path.
    """
    if not (sigma > 0.0 and theta2 > 0.0):
        raise ValueError("sigma and theta2 must be positive")
    u = theta2**2 / (4.0 * sigma**2)
    if u > 700.0:
        # exp(u) overflows; the true value is below double-precision tiny.
        return 0.0
    return math.sqrt((1.0 - u) ** 2 / (math.exp(u) - u))


def commutator_quantity(model: StateModel4) -> float:
    """Trace norm of sqrt(rho) [L1, L2] sqrt(rho).

    The conjugated commutator is real antisymmetric, so its absolute
    eigenvalues are its singular values; summing those avoids complex
    arithmetic.
    """
    sqrt_rho = np.diag(np.sqrt(np.diag(model.rho)))
    commutator = model.L1 @ model.L2 - model.L2 @ model.L1
    singular_values = np.linalg.svd(sqrt_rho @ commutator @ sqrt_rho, compute_uv=False)
    return float(np.sum(singular_values))


def _basis_coefficients(overlaps: OverlapIntegrals) -> np.ndarray:
    """Expansion of the orthonormal basis over (psi_1, psi_2, -psi_1', -psi_2').

    Row m gives basis function m as a combination of the four generating
    functions, following Gram-Schmidt in the order (difference, sum,
    derivative sum, derivative difference).
    """
    eta3, eta4 = _gram_schmidt_norms(overlaps)
    if eta3 == 0.0 or eta4 == 0.0:
        raise DegenerateStateError("derivative directions collapse onto the sources")
    delta, gamma = overlaps.delta, overlaps.gamma
    root_minus = math.sqrt(2.0 * (1.0 - delta))
    root_plus = math.sqrt(2.0 * (1.0 + delta))

    coeffs = np.zeros((4, 4))
    coeffs[0] = np.array([1.0, -1.0, 0.0, 0.0]) / root_minus
    coeffs[1] = np.array([1.0, 1.0, 0.0, 0.0]) / root_plus
    coeffs[2] = (
        np.array([0.0, 0.0, 1.0, 1.0]) / math.sqrt(2.0)
        - (gamma / math.sqrt(1.0 - delta)) * coeffs[0]
    ) / eta3
    coeffs[3] = (
        np.array([0.0, 0.0, 1.0, -1.0]) / math.sqrt(2.0)
        + (gamma / math.sqrt(1.0 + delta)) * coeffs[1]
    ) / eta4
    return coeffs


def _projected_density(
    psf: PointSpreadFunction,
    reference_positions: tuple[float, float],
    coeffs: np.ndarray,
    source_positions: tuple[float, float],
    quad: QuadratureSpec,
) -> np.ndarray:
    """Density matrix of sources at arbitrary positions, expressed in the
    fixed orthonormal basis anchored at ``reference_positions``."""
    rho = np.zeros((4, 4))
    for x_source in source_positions:
        generator_overlaps = np.empty(4)
        for index, x_ref in enumerate(reference_positions):
            amp, damp, _ = displaced_overlaps(psf, x_source - x_ref, quad)
            generator_overlaps[index] = amp
            generator_overlaps[index + 2] = -damp
        components = coeffs @ generator_overlaps
        rho += 0.5 * np.outer(components, components)
    return rho


def verify_sld(
    psf: PointSpreadFunction,
    geometry: SourceGeometry,
    quad: QuadratureSpec = QuadratureSpec(),
    h: float | None = None,
) -> float:
    """Residual of the SLD defining equation d(rho)/d(theta_j) = (L_j rho + rho L_j)/2.

    The density matrix at parameters displaced by +-h is re-expressed in the
    basis anchored at ``geometry`` through fresh overlap quadratures, and the
    central finite difference is compared against the SLD prediction.
    Returns the larger of the two Frobenius-norm residuals; it scales as
    O(h^2) plus quadrature error.
    """
    if h is None:
        h = 1e-5 * psf.sigma
    if not (1e-7 * psf.sigma <= h <= 1e-3 * psf.sigma):
        raise ValueError("h must lie in [1e-7 sigma, 1e-3 sigma]")

    overlaps = overlap_integrals(psf, geometry, quad)
    model = build_state_model(overlaps)
    coeffs = _basis_coefficients(overlaps)
    reference = (geometry.x1, geometry.x2)

    residuals = []
    for sld, shifts in (
        (model.L1, ((h, 0.0), (-h, 0.0))),
        (model.L2, ((0.0, h), (0.0, -h))),
    ):
        displaced = []
        for d_theta1, d_theta2 in shifts:
            shifted = SourceGeometry(
                theta1=geometry.theta1 + d_theta1,
                theta2=geometry.theta2 + d_theta2,
            )
            displaced.append(
                _projected_density(psf, reference, coeffs, (shifted.x1, shifted.x2), quad)
            )
        derivative = (displaced[0] - displaced[1]) / (2.0 * h)
        predicted = 0.5 * (sld @ model.rho + model.rho @ sld)
        residuals.append(np.linalg.norm(derivative - predicted, "fro"))
    return float(max(residuals))
