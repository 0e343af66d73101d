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
square-root information regrets against the quantum bound.  ``regret_rows``
does the same for a stack of FIMs, and ``projective_regrets`` for a stack of
projective measurements, bit for bit equal to that route and with its checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, CutoffError, DegenerateOutcomeError
from .psf_core import (
    PointSpreadFunction,
    QuadratureSpec,
    SourceGeometry,
    quadrature_grid,
)
from .state_model import Qfim, StateModel4
from .tradeoff import RESIDUAL_FLOOR

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
        _raise_first_failure(checks, "row {}: " if self.probabilities.ndim > 1 else "")


def _model_checks(probabilities, derivatives, weights=1.0, truncated_mass=0.0):
    """``ProbabilityModel``'s checks of each row, in the order a row meets them."""
    # Written as `~(... <= tol)` so that a NaN or inf anywhere fails the check.
    total = np.sum(weights * probabilities, axis=-1) + truncated_mass
    negative, off = np.any(probabilities < 0.0, axis=-1), ~(abs(total - 1.0) <= 1e-10)
    checks = [
        (ValueError, "probabilities must be nonnegative", negative),
        (ValueError, "total probability {!r} deviates from 1", off, total),
    ]
    for name, derivative in zip(("dp_dtheta1", "dp_dtheta2"), derivatives):
        drift = np.sum(weights * derivative, axis=-1)
        scale = np.max(np.abs(derivative), axis=-1, initial=1.0)
        bounded = (abs(drift) <= 1e-8 * scale) & (scale < math.inf)
        checks.append((ValueError, f"sum of {name} = {{!r}} is not 0", ~bounded, drift))
    return checks


def _raise_first_failure(checks, label, first=0):
    """Raise the error of the first failing row's first failing check.

    ``checks`` lists (error type, message, flags[, values]) in the order one
    row meets them, with a flag (and a value, which fills the message) per row;
    ``label``, given the row number plus ``first``, prefixes the message.
    """
    failed = np.array([check[2] for check in checks]).reshape(len(checks), -1)
    if failed.any():
        row = int(failed.any(axis=0).argmax())
        error, message, _, *values = checks[int(failed[:, row].argmax())]
        cells = (float(np.atleast_1d(value)[row]) for value in values)
        raise error(label.format(first + row) + message.format(*cells))


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
        _raise_first_failure([_orthogonality_check(matrix)], "")
        object.__setattr__(self, "matrix", matrix)


def _orthogonality_check(matrices):
    """The check that each square matrix of a stack is orthogonal."""
    product = np.swapaxes(matrices, -1, -2) @ matrices - np.eye(matrices.shape[-1])
    skew = np.max(np.abs(product), axis=(-2, -1))
    return ValueError, "basis is not orthogonal within 1e-12", skew > 1e-12


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
    geometry: SourceGeometry | list[SourceGeometry],
    quad: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityModel:
    """Continuum position-measurement model on a quadrature grid.

    Positions are measured from the centroid, with the sources at -+theta2/2;
    the Fisher information does not depend on that choice of origin.  The
    grid is a composite Gauss-Legendre half-grid on [0, theta2/2 + R sigma]
    (``ceil(panel_count / 2)`` panels) whose nodes and weights are reflected
    bitwise, so outcome i and outcome n-1-i are mirror images.
    A sequence of geometries gives a stacked model, row i equal bit for bit
    to the model of ``geometry[i]`` alone.
    """
    stacked = not isinstance(geometry, SourceGeometry)
    theta2 = np.array([g.theta2 for g in geometry]) if stacked else geometry.theta2
    positions, weights = _reflected(
        *quadrature_grid(
            0.0,
            _half_window(psf, theta2, quad),
            (quad.panel_count + 1) // 2,
            quad.nodes_per_panel,
        )
    )
    fields = _intensity_and_derivatives(psf, theta2, positions)
    return ProbabilityModel(outcome_kind=CONTINUUM_GRID, weights=weights, **fields)


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
    half_count = math.ceil(_half_window(psf, geometry.theta2, quad) / bin_width)
    half_x, half_w = quadrature_grid(
        0.0, half_count * bin_width, half_count, quad.nodes_per_panel
    )
    rows = (half_count, quad.nodes_per_panel)
    positions, weights = _reflected(half_x.reshape(rows), half_w.reshape(rows), axis=0)
    fields = _intensity_and_derivatives(psf, geometry.theta2, positions)
    per_bin = {name: (weights * values).sum(axis=1) for name, values in fields.items()}
    return ProbabilityModel(outcome_kind=DISCRETE_MODES, **per_bin)


def _half_window(psf, theta2, quad):
    return 0.5 * theta2 + quad.truncation_radius * psf.sigma


def _reflected(nodes, weights, axis=-1):
    """Extend a half-grid on [0, w] to [-w, w] by a bitwise reflection.

    Entries along ``axis`` are reversed and nodes negated, so entry i of the
    result mirrors entry n-1-i; with ``axis=0`` the order within each row is mirrored too.
    """
    return (
        np.concatenate([-np.flip(nodes, axis), nodes], axis),
        np.concatenate([np.flip(weights, axis), weights], axis),
    )


def _intensity_and_derivatives(psf, theta2, offsets):
    # Offsets from the centroid (a row per stacked theta2): source j sits at
    # -+theta2/2, so for an even PSF p is even and dp/dtheta1 odd, bit for bit.
    half = 0.5 * np.expand_dims(theta2, -1)
    amp1, damp1 = psf.amplitude_and_derivative(offsets + half)
    amp2, damp2 = psf.amplitude_and_derivative(offsets - half)
    return {
        "probabilities": 0.5 * (amp1**2 + amp2**2),
        # d(x - X_j)/dtheta1 = -1 for both sources; for theta2 the two
        # sources move apart, so the signs split.
        "dp_dtheta1": -(amp1 * damp1 + amp2 * damp2),
        "dp_dtheta2": 0.5 * (amp1 * damp1 - amp2 * damp2),
    }


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


def _source_alphas(sigma, geometries):
    """alpha_j = X_j / 2 sigma of each geometry's two sources, a row per geometry."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return np.array([(g.x1, g.x2) for g in geometries], dtype=float) / (2.0 * sigma)


def spade_cutoff(
    sigma: float, geometry: SourceGeometry | list[SourceGeometry]
) -> int | np.ndarray:
    """The adaptive SPADE cutoff of ``spade_model(sigma, geometry)``.

    It is the smallest cutoff Q >= 2 whose truncated mass bound is below
    1e-14 and whose Fisher tail bound is at most 1e-13/sigma^2; a
    CutoffError is raised when no Q up to 512 meets both.  Each Poisson tail
    bound is 1 while the mean is at least Q + 2 and only shrinks after that,
    so every cutoff above one that meets both criteria meets them too, and
    bisection finds the smallest.  A sequence of geometries gives an array
    of their cutoffs, bisected together: each row takes the midpoints its
    own bisection would, and one without a cutoff raises the same error.
    """
    stacked = not isinstance(geometry, SourceGeometry)
    alphas = _source_alphas(sigma, geometry if stacked else [geometry])
    means = alphas * alphas
    low, high = np.full(len(means), 2), np.full(len(means), _MODE_CAP + 1)
    while (low < high).any():
        # A converged row evaluates its accepted cutoff again and keeps it.
        active, middle = low < high, (low + high) // 2
        mass, fisher = _tail_bounds(sigma, means, middle)
        met = (mass < _MASS_TOLERANCE) & (fisher <= 1e-13 / sigma**2)
        high = np.where(active & met, middle, high)
        low = np.where(active & ~met, middle + 1, low)
    if (low > _MODE_CAP).any():
        raise CutoffError(f"no cutoff up to {_MODE_CAP} meets the truncation criteria")
    return low if stacked else int(low[0])


def spade_model(
    sigma: float,
    geometry: SourceGeometry | list[SourceGeometry],
    mode_cutoff: int | None = None,
) -> ProbabilityModel:
    """Hermite-Gaussian mode-sorting model for a Gaussian PSF of width sigma.

    The outcome is the mode index q = 0..Q.  With ``mode_cutoff=None`` the
    cutoff Q is the smallest one whose discarded mass is below 1e-14 and
    whose discarded Fisher information is at most 1e-13/sigma^2
    (``spade_cutoff``); an explicit cutoff must satisfy the mass criterion
    or a CutoffError is raised.  The model reports both tail bounds.
    A sequence of geometries and an explicit cutoff give a stacked model,
    row i equal bit for bit to the model of ``geometry[i]`` alone; the tail
    bounds of all rows are evaluated together, one pair per row, and an
    error names the first failing row.
    """
    stacked = not isinstance(geometry, SourceGeometry)
    alphas = _source_alphas(sigma, geometry if stacked else [geometry])
    if mode_cutoff is None:
        if stacked:
            raise ValueError("a stacked SPADE model needs an explicit mode_cutoff")
        mode_cutoff = spade_cutoff(sigma, geometry)
    cutoff = int(mode_cutoff)
    if cutoff < 0:
        raise ValueError("mode_cutoff must be nonnegative")
    mass_tail, fisher_tail = _tail_bounds(sigma, alphas * alphas, cutoff)
    message = f"cutoff {cutoff} leaves truncated mass bound {{:.3e}}"
    checks = [(CutoffError, message, ~(mass_tail < _MASS_TOLERANCE), mass_tail)]
    _raise_first_failure(checks, "row {}: " if stacked else "")

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


def haar_random_bases(streams) -> np.ndarray:
    """Haar-random 4x4 bases stacked along axis 0, basis k drawn from ``streams[k]``.

    Basis k equals ``haar_random_orthogonal(np.random.default_rng(streams[k]))``
    bit for bit: the normals fill one buffer stream by stream, and the stacked
    QR factors it one matrix at a time.
    """
    normal = np.empty((len(streams), 4, 4))
    for sample, stream in zip(normal, streams):
        np.random.default_rng(stream).standard_normal(out=sample)
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
    _raise_first_failure(checks, "row {}: " if model.probabilities.ndim > 1 else "")
    return matrices


def _fisher_information(probabilities, derivatives, weights=1.0):
    """``fim``'s matrices of each row, and its drop-or-raise checks of each row."""
    peak = np.max(probabilities, axis=-1, keepdims=True, initial=0.0)
    keep = probabilities > 1e-15 * peak
    checks = []
    for index, derivative in enumerate(derivatives, start=1):
        magnitude = np.abs(derivative)
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
    inverse_p = np.divide(weights, probabilities, out=np.zeros_like(probabilities), where=keep)
    d1, d2 = derivatives
    scaled = inverse_p * d1
    products = np.stack([scaled * d1, scaled * d2, inverse_p * d2 * d2])
    half = products.shape[-1] // 2
    totals = (products[..., :half] + products[..., ::-1][..., :half]).sum(axis=-1)
    if products.shape[-1] % 2:
        totals += products[..., half]
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
    _raise_first_failure(checks, "row {}: ")
    return rows


def _regrets_and_checks(fishers, quantum, c_tilde):
    """The rows of ``regret_rows`` and its checks, in the order a row meets them."""
    fishers = np.asarray(fishers, dtype=float)
    quantum = np.asarray(quantum.matrix if isinstance(quantum, Qfim) else quantum, dtype=float)
    if fishers.ndim != 3 or fishers.shape[1:] != (2, 2) or quantum.shape[-2:] != (2, 2):
        raise ValueError("fishers and quantum must be 2x2 matrices, fishers a stack of them")
    quantum = np.broadcast_to(quantum, fishers.shape)
    c_tilde = np.broadcast_to(np.asarray(c_tilde, dtype=float), len(fishers))

    regret = quantum - fishers
    bound = quantum[:, [0, 1], [0, 1]].T
    # Tolerances as in regret_report: absolute at unit scale, growing with the QFIM.
    scale = np.maximum(1.0, np.max(np.abs(quantum), axis=(1, 2)))
    lowest = np.linalg.eigvalsh(regret)[:, 0]
    diagonals = regret[:, [0, 1], [0, 1]].T
    delta1, delta2 = deltas = np.sqrt(np.where(diagonals < 0.0, 0.0, diagonals) / bound)
    # Squared as irtr_residual squares it: a float's ** goes through pow,
    # which can be 1 ulp away from numpy's x * x.
    squares = np.array([value**2 for value in c_tilde.tolist()])
    cross = 2.0 * np.sqrt(np.maximum(1.0 - squares, 0.0))
    residual = delta1 * delta1 + delta2 * delta2 + cross * delta1 * delta2 - squares

    checks = [
        (ValueError, "qfim diagonal must be positive", ~np.all(bound > 0.0, axis=0)),
        (BoundViolationError, "regret eigenvalue {:.3e} is negative beyond tolerance",
         lowest < -1e-6 * scale, lowest),
        *((BoundViolationError, "diagonal regret {:.3e} is negative beyond tolerance",
           diagonal < -1e-9 * scale, diagonal) for diagonal in diagonals),
        *((ValueError, f"delta{index} = {{!r}} is outside [0, 1]",
           ~((-1e-12 <= delta) & (delta <= 1.0 + 1e-12)), delta)
          for index, delta in enumerate(deltas, start=1)),
        (ValueError, "c_tilde must lie in [0, 1]", ~((0.0 <= c_tilde) & (c_tilde <= 1.0))),
        (BoundViolationError, "IRTR residual {:.3e} is negative beyond tolerance",
         residual < RESIDUAL_FLOOR, residual),
    ]
    return np.stack([delta1, delta2, residual]), checks


def projective_regrets(
    state: StateModel4, bases, quantum: Qfim, c_tilde: float, first_sample: int = 0
) -> np.ndarray:
    """Rows (delta1, delta2, irtr_residual) of stacked projective measurements.

    Column k of the (3, n) result equals, bit for bit, ``projective_model`` ->
    ``fim`` -> ``regret_report`` -> ``irtr_residual`` for basis k.  Every check
    of that route is kept; a failure raises the error the route would raise
    first, naming the sample ``first_sample + k``.
    """
    bases = np.asarray(bases, dtype=float)
    probabilities, *derivatives = _born_rule(state, bases)
    fishers, fisher_checks = _fisher_information(probabilities, derivatives)
    rows, regret_checks = _regrets_and_checks(fishers, quantum, c_tilde)
    # All stages' checks are raised together, so the first failing sample wins.
    checks = [_orthogonality_check(bases), *_model_checks(probabilities, derivatives)]
    _raise_first_failure(checks + fisher_checks + regret_checks, "sample {}: ", first_sample)
    return rows
