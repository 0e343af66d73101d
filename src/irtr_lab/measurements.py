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
square-root information regrets against the quantum bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import BoundViolationError, CutoffError, DegenerateOutcomeError
from .psf_core import (
    PointSpreadFunction,
    QuadratureSpec,
    SourceGeometry,
    quadrature_grid,
)
from .state_model import Qfim, StateModel4

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
        arrays = {}
        for name in ("probabilities", "dp_dtheta1", "dp_dtheta2"):
            arrays[name] = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arrays[name])
        shape = arrays["probabilities"].shape
        if any(a.shape != shape for a in arrays.values()):
            raise ValueError("probabilities and derivatives must share one shape")
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != shape:
                raise ValueError("weights must match the probability shape")
            object.__setattr__(self, "weights", weights)
        if np.any(arrays["probabilities"] < 0.0):
            raise ValueError("probabilities must be nonnegative")
        weights = self.weights if self.weights is not None else 1.0
        # Written as `not ... <= tol` so that a NaN or inf anywhere fails the check.
        total = float(np.sum(weights * arrays["probabilities"])) + self.truncated_mass
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"total probability {total!r} deviates from 1")
        for name in ("dp_dtheta1", "dp_dtheta2"):
            drift = float(np.sum(weights * arrays[name]))
            scale = max(1.0, float(np.max(np.abs(arrays[name]), initial=0.0)))
            if not abs(drift) <= 1e-8 * scale < math.inf:
                raise ValueError(f"sum of {name} = {drift!r} is not 0")


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
        residual = matrix.T @ matrix - np.eye(matrix.shape[0])
        if np.max(np.abs(residual)) > 1e-12:
            raise ValueError("matrix is not orthogonal within 1e-12")
        object.__setattr__(self, "matrix", matrix)


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
    (``ceil(panel_count / 2)`` panels) whose nodes and weights are reflected
    bitwise, so outcome i and outcome n-1-i are mirror images.
    """
    positions, weights = _reflected(
        *quadrature_grid(
            0.0,
            _half_window(psf, geometry, quad),
            (quad.panel_count + 1) // 2,
            quad.nodes_per_panel,
        )
    )
    return ProbabilityModel(
        outcome_kind=CONTINUUM_GRID,
        weights=weights,
        **_intensity_and_derivatives(psf, geometry, positions),
    )


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
    half_count = math.ceil(_half_window(psf, geometry, quad) / bin_width)
    half_x, half_w = quadrature_grid(
        0.0, half_count * bin_width, half_count, quad.nodes_per_panel
    )
    rows = (half_count, quad.nodes_per_panel)
    positions, weights = _reflected(half_x.reshape(rows), half_w.reshape(rows))
    fields = _intensity_and_derivatives(psf, geometry, positions)
    per_bin = {name: (weights * values).sum(axis=1) for name, values in fields.items()}
    return ProbabilityModel(outcome_kind=DISCRETE_MODES, **per_bin)


def _half_window(psf, geometry, quad):
    return 0.5 * geometry.theta2 + quad.truncation_radius * psf.sigma


def _reflected(nodes, weights):
    """Extend a half-grid on [0, w] to [-w, w] by a bitwise reflection.

    Rows are reversed and nodes negated, so entry i of the result mirrors
    entry n-1-i; within a 2-D row the node order is mirrored as well.
    """
    return (
        np.concatenate([-nodes[::-1], nodes]),
        np.concatenate([weights[::-1], weights]),
    )


def _intensity_and_derivatives(psf, geometry, offsets):
    # Offsets from the centroid: source j sits at -+theta2/2, so for an even
    # PSF p is even and dp/dtheta1 odd in the offset, bit for bit.
    half = 0.5 * geometry.theta2
    amp1 = psf.amplitude(offsets + half)
    amp2 = psf.amplitude(offsets - half)
    damp1 = psf.amplitude_derivative(offsets + half)
    damp2 = psf.amplitude_derivative(offsets - half)
    return {
        "probabilities": 0.5 * (amp1**2 + amp2**2),
        # d(x - X_j)/dtheta1 = -1 for both sources; for theta2 the two
        # sources move apart, so the signs split.
        "dp_dtheta1": -(amp1 * damp1 + amp2 * damp2),
        "dp_dtheta2": 0.5 * (amp1 * damp1 - amp2 * damp2),
    }


def _mode_weights(modes: np.ndarray, alpha: float) -> np.ndarray:
    """w(q, alpha) = alpha^(2q) exp(-alpha^2) / q!, stable in logs."""
    if alpha == 0.0:
        return (modes == 0).astype(float)
    log_w = (
        2.0 * modes * math.log(abs(alpha))
        - alpha * alpha
        - gammaln(modes + 1.0)
    )
    return np.exp(log_w)


def _mode_weight_alpha_derivative(
    modes: np.ndarray, alpha: float, weights: np.ndarray
) -> np.ndarray:
    # d/dalpha [alpha^(2q) e^(-alpha^2)/q!] = w * 2 (q/alpha - alpha); the
    # q/alpha term is absent at alpha = 0 where every derivative vanishes.
    if alpha == 0.0:
        return np.zeros_like(weights)
    return weights * 2.0 * (modes / alpha - alpha)


def _poisson_tail_bound(mean: float, cutoff: int) -> float:
    """Upper bound on the Poisson(mean) mass beyond ``cutoff``."""
    if mean == 0.0:
        return 0.0
    if cutoff < 0 or mean / (cutoff + 2.0) >= 1.0:
        return 1.0
    log_first = (cutoff + 1.0) * math.log(mean) - mean - gammaln(cutoff + 2.0)
    # Geometric comparison: successive terms shrink by at least mean/(Q+2).
    return math.exp(log_first) / (1.0 - mean / (cutoff + 2.0))


def _fisher_tail_bound(sigma: float, means: tuple[float, float], cutoff: int) -> float:
    """Upper bound on any FIM entry's truncation error beyond ``cutoff``.

    Per mode, every entry is bounded by sum_i w_i (q - mu_i)^2 / (mu_i sigma^2);
    the tail of that series has the closed-form bound below via the Poisson
    factorial moments.
    """
    total = 0.0
    for mean in means:
        if mean == 0.0:
            continue
        total += mean * _poisson_tail_bound(mean, cutoff - 2) + _poisson_tail_bound(
            mean, cutoff - 1
        )
    return total / sigma**2


def spade_model(
    sigma: float,
    geometry: SourceGeometry,
    mode_cutoff: int | None = None,
) -> ProbabilityModel:
    """Hermite-Gaussian mode-sorting model for a Gaussian PSF of width sigma.

    The outcome is the mode index q = 0..Q.  With ``mode_cutoff=None`` the
    cutoff Q grows until the discarded mass is below 1e-14 and the discarded
    Fisher information is below 1e-13/sigma^2; an explicit cutoff must
    satisfy the mass criterion or a CutoffError is raised.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    alphas = (geometry.x1 / (2.0 * sigma), geometry.x2 / (2.0 * sigma))
    means = tuple(a * a for a in alphas)

    def bounds(cutoff):
        mass = 0.5 * sum(_poisson_tail_bound(mean, cutoff) for mean in means)
        return mass, _fisher_tail_bound(sigma, means, cutoff)

    if mode_cutoff is None:
        for cutoff in range(2, _MODE_CAP + 1):
            mass_tail, fisher_tail = bounds(cutoff)
            if mass_tail < _MASS_TOLERANCE and fisher_tail <= 1e-13 / sigma**2:
                break
        else:
            raise CutoffError(
                f"no cutoff up to {_MODE_CAP} meets the truncation criteria"
            )
    else:
        cutoff = int(mode_cutoff)
        if cutoff < 0:
            raise ValueError("mode_cutoff must be nonnegative")
        mass_tail, fisher_tail = bounds(cutoff)
        if not mass_tail < _MASS_TOLERANCE:
            raise CutoffError(
                f"cutoff {cutoff} leaves truncated mass bound {mass_tail:.3e}"
            )

    modes = np.arange(cutoff + 1)
    weights_1 = _mode_weights(modes, alphas[0])
    weights_2 = _mode_weights(modes, alphas[1])
    slope_1 = _mode_weight_alpha_derivative(modes, alphas[0], weights_1)
    slope_2 = _mode_weight_alpha_derivative(modes, alphas[1], weights_2)
    return ProbabilityModel(
        outcome_kind=DISCRETE_MODES,
        probabilities=0.5 * (weights_1 + weights_2),
        # alpha_j = X_j / 2 sigma, so dalpha/dtheta1 = 1/2sigma for both and
        # dalpha/dtheta2 = -+ 1/4sigma.
        dp_dtheta1=(slope_1 + slope_2) / (4.0 * sigma),
        dp_dtheta2=(slope_2 - slope_1) / (8.0 * sigma),
        truncated_mass=mass_tail,
        fisher_tail_bound=fisher_tail,
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


def projective_model(
    state: StateModel4, meas: ProjectiveMeasurement4
) -> ProbabilityModel:
    """Born-rule probabilities of an orthogonal measurement on the subspace."""
    basis = meas.matrix
    if basis.shape != state.rho.shape:
        raise ValueError("measurement dimension does not match the state")
    # rho is diagonal, so p(k) = sum_m O[k,m]^2 rho[m,m] is a sum of
    # nonnegative terms and never goes negative by roundoff.
    probabilities = basis**2 @ np.diag(state.rho)

    def derivative(sld):
        d_rho = 0.5 * (sld @ state.rho + state.rho @ sld)
        return ((basis @ d_rho) * basis).sum(axis=1)

    return ProbabilityModel(
        outcome_kind=SUBSPACE_PROJECTORS,
        probabilities=probabilities,
        dp_dtheta1=derivative(state.L1),
        dp_dtheta2=derivative(state.L2),
    )


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
    probabilities = model.probabilities
    weights = model.weights if model.weights is not None else 1.0
    peak = float(np.max(probabilities, initial=0.0))
    keep = probabilities > 1e-15 * peak

    derivatives = (model.dp_dtheta1, model.dp_dtheta2)
    if not np.all(keep):
        for index, derivative in enumerate(derivatives, start=1):
            scale = float(np.max(np.abs(derivative), initial=0.0))
            worst = float(np.max(np.abs(derivative[~keep]), initial=0.0))
            if worst > 1e-9 * scale:
                raise DegenerateOutcomeError(
                    f"an outcome with vanishing probability has dp_dtheta{index} "
                    f"= {worst:.3e}; the Fisher information diverges there"
                )
    if not np.any(keep):
        return np.zeros((2, 2))

    # Dropped outcomes get a zero weight in place, which keeps the mirror
    # positions of the kept ones.
    inverse_p = np.divide(
        weights, probabilities, out=np.zeros_like(probabilities), where=keep
    )
    d1, d2 = derivatives
    scaled = inverse_p * d1
    products = np.stack([scaled * d1, scaled * d2, inverse_p * d2 * d2]).reshape(3, -1)
    count = products.shape[1]
    half = count // 2
    totals = (products[:, :half] + products[:, ::-1][:, :half]).sum(axis=1)
    if count % 2:
        totals += products[:, half]
    f11, f12, f22 = totals
    return np.array([[f11, f12], [f12, f22]])


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
