"""Deterministic experiment runners producing the figure datasets.

Each ``run_figN`` function sweeps one scenario and returns its tables; one
scaffold does the rest of every run.  It checks the figure, fills in the
figure's default sweep from ``SWEEPS``, writes one CSV per table (17
significant digits, '#'-prefixed key=value metadata lines before the
header), and finishes with a JSON manifest carrying the resolved
configuration and the checksum and size of the bytes it wrote.  Identical
configuration and seed give byte-identical CSVs: the random samples of each
(theta1, theta2) point draw in turn from that point's own numpy Generator,
seeded from ``seed``.  fig2 to fig5 and custom name their (theta1,
theta2) points and measurements, and one kernel, ``_sweep``, evaluates
them: the overlaps of each distinct separation as (4, n) columns (with the
direct-imaging FIMs from their own samples, by ``overlaps_and_direct_fims``),
their QFIM stack and c_tilde column, then one stacked regret step per
measurement: ``regret_rows`` over the direct-imaging or SPADE FIMs (from one
stacked model per block of points in cutoff order, each row at its own mode
cutoff and padded to the block's largest), ``projective_regrets_and_checks``
over blocks of Haar-random bases in sweep order, each sample with its
separation's Born-rule coefficients.  From the quadrature to the CSV writer,
which formats each column by its dtype, a sweep is columns of arrays, the
frontier tables too (``irtr_frontier``): the only per-row objects are the
state models, one per separation, that the random samples' coefficients
come from.

Runs compute in units of sigma, on ``gaussian_psf()`` and points at the
grid ratios: ``sigma`` is a label, written to the CSVs and the manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, raise_first_failure
from .measurements import (
    adaptive_cutoffs,
    born_coefficients,
    haar_random_bases,
    overlaps_and_direct_fims,
    projective_regrets_and_checks,
    regret_rows,
    spade_fims,
    spade_sources,
)
from .psf_core import (
    QuadratureSpec,
    gaussian_psf,
    overlap_columns,
    sweep_points,
)
from .state_model import c_tilde_column, gaussian_incompatibility, qfim_stack, state_stacks
from .tradeoff import irtr_frontier

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "custom")
MEASUREMENT_NAMES = ("direct", "spade", "random")

# Flag-free below-threshold c_tilde means the inequality carries no content.
_NO_CONSTRAINT_THRESHOLD = 1e-10
# Random samples per batch, so batch memory does not grow with n_random.
_SAMPLE_BLOCK = 1024
# SPADE rows per padded model, so its memory does not grow with the sweep.
_SPADE_BLOCK = 128


def inclusive_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Uniform grid including both endpoints (stop adjusted to the step).

    Value k is start + k step, k = 0 .. round((stop - start) / step), as
    Python floats; a grid too large to allocate raises ConfigError.
    """
    if not np.isfinite([start, stop, step]).all():
        raise ConfigError("grid start, stop and step must be finite")
    if not step > 0.0:
        raise ConfigError("grid step must be positive")
    steps = (stop - start) / step
    if steps < -0.5:
        raise ConfigError("grid stop must not precede start")
    # numpy refuses the largest counts, but np.arange(n) is empty for some n near 2**63.
    count = round(steps) + 1 if steps < 2.0**62 else math.inf
    try:
        return tuple((start + np.arange(count) * step).tolist())
    except (MemoryError, ValueError) as error:
        raise ConfigError(f"grid of {steps + 1:.3g} values is too large: {error}") from None


DEFAULT_SEPARATION_GRID = inclusive_grid(0.05, 8.0, 0.05)
DEFAULT_MISALIGNMENT_GRID = inclusive_grid(0.0, 5.0, 0.05)
DEFAULT_PANELS = (0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)

# Figure -> (config field its primary sweep sets, value when left unset).
# The CLI's --grid addresses the same field.
SWEEPS = {
    "fig1": ("theta2_grid", DEFAULT_SEPARATION_GRID),
    "fig2": ("theta2_grid", DEFAULT_SEPARATION_GRID),
    "fig3": ("panels", DEFAULT_PANELS),
    "fig4": ("theta1_grid", DEFAULT_MISALIGNMENT_GRID),
}


def _validated_grid(name: str, values, positive: bool) -> tuple[float, ...]:
    grid = np.fromiter(values, dtype=float)
    if not grid.size:
        raise ConfigError(f"{name} must not be empty")
    if not np.isfinite(grid).all():
        raise ConfigError(f"{name} must contain finite values")
    if not (grid[1:] > grid[:-1]).all():
        raise ConfigError(f"{name} must be strictly increasing")
    if positive and not grid[0] > 0.0:
        raise ConfigError(f"{name} values must be positive")
    return tuple(grid.tolist())


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one run, in units of sigma; ``sigma`` itself is only recorded."""

    figure_id: str
    sigma: float = 1.0
    theta1_grid: tuple[float, ...] | None = None
    theta2_grid: tuple[float, ...] | None = None
    panels: tuple[float, ...] = DEFAULT_PANELS
    n_random: int = 10_000
    seed: int = 0
    mode_cutoff: int | None = None
    output_dir: str = "."
    quad: QuadratureSpec = QuadratureSpec()
    measurements: tuple[str, ...] = MEASUREMENT_NAMES
    frontier_samples: int = 512
    theta2_over_sigma: float = 0.1

    def __post_init__(self):
        if self.figure_id not in FIGURES:
            raise ConfigError(f"unknown figure_id {self.figure_id!r}")
        if not 0.0 < self.sigma < np.inf:
            raise ConfigError("sigma must be positive and finite")
        for name, positive in (("theta1_grid", False), ("theta2_grid", True), ("panels", True)):
            if getattr(self, name) is not None:
                grid = _validated_grid(name, getattr(self, name), positive)
                object.__setattr__(self, name, grid)
        for name in ("n_random", "seed", "frontier_samples", "mode_cutoff"):
            value = getattr(self, name)
            adaptive = name == "mode_cutoff" and value is None
            if not (adaptive or np.issubdtype(type(value), np.integer)):
                raise ConfigError(f"{name} must be an integer")
        if not 1 <= self.n_random < 2**32:
            # A point's samples share one stream, so this is not a seeding limit: it
            # keeps the accepted range, and 2**32 samples would need 96 GiB a point.
            raise ConfigError("n_random must be at least 1 and below 2**32")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        if self.mode_cutoff is not None and not 0 <= self.mode_cutoff < 2**63:
            # The SPADE models hold their cutoffs as int64.
            raise ConfigError("mode_cutoff must be adaptive or nonnegative and below 2**63")
        chosen = tuple(self.measurements)
        if not 0 < len(chosen) == len(set(MEASUREMENT_NAMES).intersection(chosen)):
            raise ConfigError(f"measurements must be distinct names from {MEASUREMENT_NAMES}")
        object.__setattr__(self, "measurements", chosen)
        if self.frontier_samples < 2:
            raise ConfigError("frontier_samples must be at least 2")
        if not 0.0 < self.theta2_over_sigma < np.inf:
            raise ConfigError("theta2_over_sigma must be positive and finite")
        object.__setattr__(self, "output_dir", str(self.output_dir))


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# The CSV writer works on arrays.  Each cell is a fixed slot of bytes, zero
# bytes where it has no character; a table is its rows' slots with "," and
# "\n" between them, and its text is those bytes without the zeros.  A float
# cell holds "%.17g" % x: for 1e-11 <= |x| < 1e17 its 17 correctly rounded
# digits come from integer arithmetic, as in Adams, "Ryu revisited: printf
# floating point conversion" (OOPSLA 2019), and Python formats the others.
_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_K_LOW = -11  # The fast route's decimal exponents k = floor(log10 |x|): -11 ... 16.
# The biased binary exponent of 1e-11: 2**-37 <= 1e-11 < 2**-36.
_EXPONENT_LOW = 986


def _ceil_power_of_ten(j: int) -> float:
    """The smallest double at or above 10**j."""
    value = 10.0**j if j >= 0 else 1.0 / 10**-j
    numerator, denominator = value.as_integer_ratio()
    if j < 0 and numerator * 10**-j < denominator:
        value = math.nextafter(value, math.inf)
    return value


def _scale_tables():
    """k, m 5**p's scale and shift for each binary exponent of the fast route and each k step.

    Row 2 (E - _EXPONENT_LOW) + step is |x| in [2**E, 2**(E+1)), biased E:
    there k = floor(log10 |x|) is k0 = floor((E - 1023) log10 2) plus step,
    1 where |x| >= 10**(k0 + 1) (``thresholds``).  With p = 16 - k, N =
    round(|x| 10**p) is 2m 5**p scaled by 2**-(1060 + k - E), the doubled
    mantissa keeping every shift at 1 or more; a shift past 0 goes into the
    scale, exactly.  Rows of a k outside -11 ... 16 are never read.
    """
    exponent = np.arange(_EXPONENT_LOW, 1080)  # 2**56 <= 1e17 < 2**57.
    low = (exponent - 1023) * 78913 >> 18
    powers = np.array([_ceil_power_of_ten(j) for j in range(_K_LOW - 1, 19)])
    k = (low[:, None] + [0, 1]).ravel()
    shift = 1060 + k - exponent.repeat(2)
    fives = np.array([5**p for p in range(16 - _K_LOW + 1)], _U64)
    scale = np.where(k >= _K_LOW, fives[np.clip(16 - k, 0, 16 - _K_LOW)], _U64(0))
    scale <<= np.maximum(1 - shift, 0).astype(_U64)
    shift = np.maximum(shift, 1).astype(_U64)
    halves = (_U64(1) << shift - _U64(1)) - _U64(1)
    return powers[low + 2 - _K_LOW], k, scale & _MASK32, scale >> _U64(32), shift, halves


_THRESHOLDS, _K_ROWS, _SCALE_LOW, _SCALE_HIGH, _SHIFTS, _HALVES = _scale_tables()
_FAST_LOW = _ceil_power_of_ten(_K_LOW)


def _digit_table():
    """The 4 ASCII digits of 0 ... 9999 as uint32 words, then the same with trailing zeros as 0."""
    digits = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    nonzero = np.zeros((), bool)  # Whether a digit from each place on is not 0.
    for place in (3, 2, 1, 0):
        digit = np.arange(10, dtype=np.uint8).reshape([-1 if p == place else 1 for p in range(4)])
        nonzero = nonzero | (digit != 0)
        digits[0, ..., place] = digit + 48
        digits[1, ..., place] = (digit + 48) * nonzero
    return digits.view(np.uint32).ravel()


_DIGITS = _digit_table()


def _slot_tables():
    """Each layout code's slot constants, and its masks of the digits kept in place and shifted.

    A slot is 32 bytes: the sign, 5 lead bytes ("0." and the zeros of 1e-4
    <= |x| < 0.1), a spare byte, 18 body bytes (the 17 digits and the point
    where it goes) and 4 exponent bytes, then zeros.  The 17 digits arrive
    in bytes 7 ... 23; the shifted copy, one byte on, fills the body past
    the point.  A cell's code is 4 (k + 11) + 2 has_fraction + negative.
    Integer digits that lost their trailing zeros get them back from the
    constants' "0" bits.
    """
    tables = []
    for k in range(_K_LOW, 17):
        for fraction in (0, 1):
            constants, keep, shift = bytearray(32), bytearray(32), bytearray(32)
            keep[7:24] = b"\xff" * 17
            if -4 <= k < 0:
                lead = b"0." + b"0" * (-k - 1)
                constants[1 : 1 + len(lead)] = lead
            else:
                point = k + 1 if k >= 0 else 1
                if k < 0:
                    constants[25:29] = b"e-%02d" % -k
                constants[7 : 7 + point] = b"0" * point
                if fraction and point < 17:
                    constants[7 + point] = 46
                    keep[7 + point :] = bytes(25 - point)
                    shift[8 + point : 25] = b"\xff" * (17 - point)
            negative = bytearray(constants)
            negative[0] = 45
            tables += [constants, keep, shift, negative, keep, shift]
    return np.frombuffer(b"".join(tables), np.uint8).reshape(-1, 3, 32).transpose(1, 0, 2).copy()


_SLOT_CONSTANTS, _SLOT_KEEP, _SLOT_SHIFT = _slot_tables()
# The digit after a layout's point, whose being nonzero decides the point (0: unused).
_FRACTION_DIGIT = np.array([k + 1 if 0 <= k < 16 else int(k < -4) for k in range(_K_LOW, 17)])
_FLOAT_WIDTH = _SLOT_CONSTANTS.shape[1]
# Float cells per kernel call, so its temporaries do not grow with the run.
_CELL_BLOCK = 2048


def _digit_groups(values, out):
    """Fill the (n, groups) ``out`` with the last 4-digit groups of uint64 ``values``, in order."""
    for column in range(out.shape[1] - 1, -1, -1):
        quotient = values // _U64(10_000)
        out[:, column] = values - quotient * _U64(10_000)
        values = quotient
    return out


def _decimal_digits(magnitude):
    """N and k of ``magnitude`` in [1e-11, 1e17): "%.17e" reads N / 10**16 "e" k.

    N = round(|x| 10**(16 - k)), ties to even, and 10**16 <= N < 10**17:
    where |x| rounds up to 10**(k + 1), N is 10**16 and k one more.
    """
    bits = magnitude.view(_U64)
    row = (bits >> _U64(52)).astype(np.intp) - _EXPONENT_LOW
    row = 2 * row + (magnitude >= _THRESHOLDS[row])
    mantissa = (bits << _U64(1)) & _U64(2**53 - 2) | _U64(2**53)
    # 2m scale in (high, low) uint64 limbs: 2m < 2**54 and scale < 2**63 in
    # 32-bit halves, so the two cross products sum below 2**64.
    scale_low, scale_high = _SCALE_LOW[row], _SCALE_HIGH[row]
    m_low, m_high = mantissa & _MASK32, mantissa >> _U64(32)
    cross = m_low * scale_high + m_high * scale_low
    product = m_low * scale_low
    low = product + (cross << _U64(32))
    high = m_high * scale_high + (cross >> _U64(32)) + (low < product)
    # Ties to even: add half the last place less one, and the kept last bit.
    shift = _SHIFTS[row]
    rounded = low + _HALVES[row] + ((low >> shift) & _U64(1))
    high += rounded < low
    number = high << (_U64(64) - shift) | rounded >> shift
    carry = number == _U64(10**17)
    number -= carry * _U64(9 * 10**16)
    return number, _K_ROWS[row] + carry


def _float_slots(values):
    """Slots of "%.17g" % x for a block of float64 ``values``, (n, _FLOAT_WIDTH) uint8."""
    magnitude = np.abs(values)
    fast = (magnitude >= _FAST_LOW) & (magnitude < 1e17)
    np.copyto(magnitude, 1.0, where=~fast)
    number, k = _decimal_digits(magnitude)
    # The digits' 4-byte words, at slot words 1 ... 5 (digits in bytes 7 ...
    # 23), from the table half that writes trailing zeros as 0 bytes where
    # every later group is 0.
    words = np.full((len(values), 8), 10_000)
    _digit_groups(number, words[:, 1:6])
    words[:, 5] += 10_000
    ending = np.flatnonzero(words[:, 5] == 10_000)
    if ending.size:  # The last group is 0: so may be the groups before it.
        trailing, ends = np.ones(ending.size, bool), words[ending]
        for column in (4, 3, 2):
            trailing &= ends[:, column + 1] == 10_000
            ends[:, column] += trailing * 10_000
        words[ending] = ends
    digits = _DIGITS.take(words).view(np.uint8).ravel()
    del words
    layout = k - _K_LOW
    after_point = np.arange(7, digits.size, _FLOAT_WIDTH) + _FRACTION_DIGIT[layout]
    code = 4 * layout + 2 * (digits.take(after_point) != 0) + (values < 0)
    slots = _SLOT_CONSTANTS.take(code, axis=0)
    masked = _SLOT_KEEP.take(code, axis=0)
    masked &= digits.reshape(masked.shape)
    slots |= masked
    # The copy one byte on: byte i of the flat slots takes digit byte i - 1.
    flat, masked = slots.ravel(), np.take(_SLOT_SHIFT, code, axis=0, out=masked).ravel()
    masked[1:] &= digits[:-1]
    flat |= masked
    others = np.flatnonzero(~fast)
    if others.size:
        texts = b"".join((b"%.17g" % x).ljust(_FLOAT_WIDTH, b"\0") for x in values[others].tolist())
        slots[others] = np.frombuffer(texts, np.uint8).reshape(-1, _FLOAT_WIDTH)
    return slots


def _integer_slots(values):
    """Slots of int64 ``values``: the sign, then as many digits as the widest cell's."""
    values = np.asarray(values, dtype=np.int64)
    negative, magnitude = values < 0, values.astype(_U64)
    magnitude[negative] = ~magnitude[negative] + _U64(1)
    width = len(str(int(magnitude.max(initial=0))))
    groups = _digit_groups(magnitude, np.empty((len(values), -(-width // 4)), np.intp))
    slots = np.empty((len(values), width + 1), np.uint8)
    slots[:, 0] = 45 * negative
    slots[:, 1:] = _DIGITS.take(groups).view(np.uint8)[:, -width:]
    # Leading zeros become 0 bytes, all but the last digit's.
    seen = np.zeros(len(values), bool)
    for column in range(1, width):
        seen |= slots[:, column] != 48
        slots[:, column] *= seen
    return slots


def _text_slots(values):
    """Slots of strings: their UTF-8 bytes, padded with 0 bytes.

    ASCII text is its code points, as bytes; other text goes through
    ``np.char.encode``.
    """
    values = np.asarray(values, dtype=str)
    points = values.view(np.uint32).reshape(len(values), values.itemsize // 4)
    if points.max(initial=0) < 128:
        return points.astype(np.uint8)
    encoded = np.char.encode(values, "utf-8")
    return encoded.view(np.uint8).reshape(len(encoded), encoded.itemsize)


def _encode_csvs(tables) -> list:
    """Each ``(metadata, columns)`` table's CSV bytes, as an iterator of pieces per table.

    Each column's cells are one slot array, by its dtype (float, integer or
    string).  The float cells of all the tables are formatted together,
    ``_CELL_BLOCK`` at a time, before any piece is made.  A table's pieces
    are its metadata and header lines, then its rows in chunks of about
    ``_CELL_BLOCK`` cells, so no piece grows with the table.
    """
    arrays = [[np.asarray(column) for column in columns.values()] for _, columns in tables]
    floats = [array for table in arrays for array in table if array.dtype.kind == "f"]
    values = np.concatenate([np.empty(0), *floats])
    cells = np.empty((len(values), _FLOAT_WIDTH), np.uint8)
    for first in range(0, len(values), _CELL_BLOCK):
        block = slice(first, first + _CELL_BLOCK)
        cells[block] = _float_slots(values[block])
    makers, pieces, first = {"i": _integer_slots, "U": _text_slots}, [], 0
    for (metadata, columns), table in zip(tables, arrays):
        slots = []
        for array in table:
            if array.dtype.kind == "f":
                slots.append(cells[first : first + len(array)])
                first += len(array)
            else:
                slots.append(makers[array.dtype.kind](array))
        pieces.append(_csv_pieces(metadata, list(columns), slots))
    return pieces


def _csv_pieces(metadata, names, slots):
    """The metadata and header lines, then the bytes of the rows of ``slots``, a chunk at a time."""
    lines = [f"# {key}={_format_cell(value)}" for key, value in metadata]
    lines.append(",".join(names))
    yield ("\n".join(lines) + "\n").encode("utf-8")
    step = max(1, _CELL_BLOCK // len(slots))
    separators = np.full((step, len(slots)), 44, np.uint8)
    separators[:, -1] = 10
    for first in range(0, len(slots[0]), step):
        count, parts = min(step, len(slots[0]) - first), []
        for index, cells in enumerate(slots):
            parts += [cells[first : first + count], separators[:count, index : index + 1]]
        yield np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _config_echo(config: ExperimentConfig) -> dict:
    """The config's fields, ``quad`` as a dict; shallow, so the grids are not copied."""
    mode_cutoff = "adaptive" if config.mode_cutoff is None else config.mode_cutoff
    return {**vars(config), "quad": vars(config.quad), "mode_cutoff": mode_cutoff}


RUNNERS = {}


def _runner(figure: str):
    """Register ``compute(config, psf) -> (tables, extras)`` as ``figure``'s runner.

    The public runner keeps the name and docstring of ``compute`` and the
    signature ``(config) -> list[Path]``; ``_run`` does the rest of the run.
    """

    def register(compute):
        def run(config: ExperimentConfig) -> list[Path]:
            return _run(figure, compute, config)

        run.__name__ = run.__qualname__ = compute.__name__
        run.__doc__ = compute.__doc__
        RUNNERS[figure] = run
        return run

    return register


def _run(figure: str, compute, config: ExperimentConfig) -> list[Path]:
    """Compute ``figure``'s tables, write them and the manifest, return the paths.

    Each table is ``(file name, metadata, columns)``, ``columns`` a dict from
    header name to that column's values (a 1-d array or sequence), in order.
    The CSVs come back in table order, then ``manifest.json``.  Checksums are
    taken of the bytes as they are written.  Nothing is written, and the
    output directory is not created, until every table has been computed.
    """
    if config.figure_id != figure:
        raise ConfigError(f"config names figure {config.figure_id!r}, expected {figure!r}")
    if figure in SWEEPS:
        field, default = SWEEPS[figure]
        if getattr(config, field) is None:
            config = dataclasses.replace(config, **{field: default})
    started = time.perf_counter()
    tables, extras = compute(config, gaussian_psf())
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, files = [], {}
    encoded = _encode_csvs([([("figure", figure), *meta], columns) for _, meta, columns in tables])
    for (name, _, _), pieces in zip(tables, encoded):
        path, digest, size = out_dir / name, hashlib.sha256(), 0
        with path.open("wb") as handle:
            for piece in pieces:
                handle.write(piece)
                digest.update(piece)
                size += len(piece)
        paths.append(path)
        files[name] = {"sha256": digest.hexdigest(), "bytes": size}
    from . import __version__

    # What was run, with what inputs, and the checksums of what it wrote.
    manifest = {
        "version": __version__,
        "figure": figure,
        "seed": config.seed,
        "wall_time_seconds": round(time.perf_counter() - started, 6),
        "config": _config_echo(config),
        "files": files,
        "extras": extras,
    }
    manifest_path = out_dir / "manifest.json"
    # One line: json's C encoder takes no indent.
    manifest_path.write_text(json.dumps(manifest, sort_keys=True) + "\n", "utf-8")
    return [*paths, manifest_path]


def _sweep(config, psf, points, measurements, seeds=None):
    """c_tilde of each (theta1, theta2) point and its (3, points, rows) regrets.

    The regrets are delta1, delta2 and irtr_residual; a point's rows are
    direct imaging, SPADE, then the random samples, of those named in
    ``measurements``.  Random sample k of point p is the k-th basis that
    ``haar_random_orthogonal(rng)`` draws from the point's stream, ``rng =
    default_rng(seeds[p])``, whatever ``n_random`` is and wherever a block
    boundary falls.  The overlaps, the QFIM, the state model and the
    direct-imaging FIM depend on theta2 alone, bit for bit, so each distinct
    separation is evaluated once, at its first point, as a column of the
    sweep's overlaps; an overlap, direct-imaging or c_tilde error names its row
    among them.  The random samples run in sweep order, in blocks that may span
    points and separations; a block takes its normals from each point it
    covers in turn, as numpy fills them one draw at a time, and each sample
    its separation's Born-rule coefficients, QFIM and c_tilde.  The first
    failing sample in the sweep raises, numbered within its point.
    """
    points = sweep_points(points)
    _, first, separation = np.unique(points[:, 1], return_index=True, return_inverse=True)
    overlaps, fishers = _overlaps(config, psf, points[first], "direct" in measurements)
    quanta, tildes = qfim_stack(overlaps), c_tilde_column(overlaps)
    quantum, c_tilde = quanta[separation], tildes[separation].tolist()
    blocks = []
    if "direct" in measurements:
        blocks.append(regret_rows(fishers[separation], quantum, c_tilde)[..., None])
    if "spade" in measurements:
        blocks.append(regret_rows(_spade_fims(config, points), quantum, c_tilde)[..., None])
    if "random" in measurements:
        count, total = config.n_random, len(points) * config.n_random
        coefficients = born_coefficients(*state_stacks(overlaps)[:3])
        try:
            randoms = np.empty((3, total))
        except MemoryError as error:
            raise ConfigError(f"n_random {count} is too large: {error}") from None
        streams, gathered = [np.random.default_rng(seed) for seed in seeds], None
        for k in range(0, total, _SAMPLE_BLOCK):
            stop = min(k + _SAMPLE_BLOCK, total)
            covered = range(k // count, (stop - 1) // count + 1)
            normals = np.empty((stop - k, 4, 4))
            # Each point the block covers fills its part from its own stream.
            for point in covered:
                part = slice(max(k, point * count) - k, min(stop, point * count + count) - k)
                streams[point].standard_normal(out=normals[part])
            # A block within one separation takes its values once and
            # broadcasts them; one across separations gathers each sample's.
            at = separation[covered.start : covered.stop]
            if (at == at[0]).all():
                at = slice(at[0], at[0] + 1)
                forms = coefficients[..., at]
            else:
                # Into one buffer for all such blocks: a block-sized array of
                # its own would be freed and faulted back in block by block.
                if gathered is None:
                    gathered = np.empty((*coefficients.shape[:2], _SAMPLE_BLOCK))
                at, forms = separation[np.arange(k, stop) // count], gathered[..., : stop - k]
                np.take(coefficients, at, axis=-1, out=forms, mode="clip")
            randoms[:, k:stop], checks = projective_regrets_and_checks(
                forms, haar_random_bases(normals), quanta[at], tildes[at]
            )
            raise_first_failure(checks, "sample {}: ", np.arange(k, stop) % count)
        blocks.append(randoms.reshape(3, len(points), count))
    return c_tilde, np.concatenate(blocks, axis=-1)


def _overlaps(config, psf, points, direct=False):
    """The (4, n) overlap columns of ``points``, and their direct-imaging FIMs if ``direct``.

    A quadrature rule too large to allocate raises ConfigError.
    """
    try:
        if direct:
            return overlaps_and_direct_fims(psf, points, config.quad)
        return overlap_columns(psf, points, config.quad), None
    except MemoryError as error:
        quad = config.quad
        rule = f"panel_count {quad.panel_count} and nodes_per_panel {quad.nodes_per_panel}"
        raise ConfigError(f"quadrature rule of {rule} is too large: {error}") from None


def _spade_fims(config, points):
    """SPADE FIM of each checked (theta1, theta2) point, bit for bit its own (``spade_fims``).

    The points' sources are formed once (``spade_sources``) and their adaptive
    cutoffs bisected together; the models stack up to ``_SPADE_BLOCK`` rows,
    in cutoff order.
    """
    sources = spade_sources(1.0, points)
    cutoffs = config.mode_cutoff
    if cutoffs is None:
        cutoffs = adaptive_cutoffs(1.0, sources)
    try:
        return spade_fims(1.0, sources, np.broadcast_to(cutoffs, len(points)), _SPADE_BLOCK)
    except MemoryError as error:
        raise ConfigError(f"mode_cutoff {int(np.max(cutoffs))} is too large: {error}") from None


def _frontier_table(name, metadata, coefficient, samples):
    no_constraint = coefficient <= _NO_CONSTRAINT_THRESHOLD
    try:
        frontier = (np.empty(0),) * 2 if no_constraint else irtr_frontier(coefficient, samples)
    except MemoryError as error:
        raise ConfigError(f"frontier_samples {samples} is too large: {error}") from None
    columns = dict(zip(("delta1", "delta2"), frontier))
    return name, [*metadata, ("no_constraint", no_constraint)], columns


@_runner("fig1")
def run_fig1(config, psf):
    """Incompatibility coefficient versus separation, both computation routes."""
    ratios = config.theta2_grid
    overlaps, _ = _overlaps(config, psf, [(0.0, r) for r in ratios])
    columns = dict(
        theta2_over_sigma=ratios,
        c_tilde_closed_form=[gaussian_incompatibility(1.0, r) for r in ratios],
        c_tilde_quadrature=c_tilde_column(overlaps),
    )
    return [("fig1.csv", [("sigma", config.sigma)], columns)], {}


@_runner("fig2")
def run_fig2(config, psf):
    """Direct-imaging information regrets versus separation at zero misalignment."""
    _, regrets = _sweep(config, psf, [(0.0, r) for r in config.theta2_grid], ("direct",))
    delta1, delta2, _ = regrets[..., 0]
    columns = dict(theta2_over_sigma=config.theta2_grid, delta1=delta1, delta2=delta2)
    metadata = [("sigma", config.sigma), ("theta1_over_sigma", 0.0)]
    return [("fig2.csv", metadata, columns)], {}


@_runner("fig3")
def run_fig3(config, psf):
    """Per-separation panels: direct-imaging point against the IRTR frontier."""
    c_tilde, regrets = _sweep(config, psf, [(0.0, r) for r in config.panels], ("direct",))
    direct = regrets[..., 0].T.tolist()
    tables = []
    for index, (ratio, coefficient, cells) in enumerate(zip(config.panels, c_tilde, direct), 1):
        delta1, delta2, residual = cells
        metadata = [
            ("panel", index),
            ("sigma", config.sigma),
            ("theta2_over_sigma", ratio),
            ("c_tilde", coefficient),
            ("di_delta1", delta1),
            ("di_delta2", delta2),
            ("irtr_residual", residual),
        ]
        name = f"fig3_panel_{index}.csv"
        tables.append(_frontier_table(name, metadata, coefficient, config.frontier_samples))
    return tables, {}


@_runner("fig4")
def run_fig4(config, psf):
    """SPADE information regrets versus misalignment at fixed separation."""
    points = [(ratio, config.theta2_over_sigma) for ratio in config.theta1_grid]
    (c_tilde, *_), regrets = _sweep(config, psf, points, ("spade",))
    delta1, delta2, _ = regrets[..., 0]
    columns = dict(theta1_over_sigma=config.theta1_grid, delta1=delta1, delta2=delta2)
    metadata = [
        ("sigma", config.sigma),
        ("theta2_over_sigma", config.theta2_over_sigma),
        ("c_tilde", c_tilde),
    ]
    frontier = _frontier_table("fig4_frontier.csv", metadata, c_tilde, config.frontier_samples)
    return [("fig4.csv", metadata, columns), frontier], {}


@_runner("fig5")
def run_fig5(config, psf):
    """Haar-random projective measurements at fixed geometry."""
    points, seeds = [(0.0, config.theta2_over_sigma)], [config.seed]
    (c_tilde,), regrets = _sweep(config, psf, points, ("random",), seeds)
    delta1, delta2, residual = regrets[:, 0]
    metadata = [
        ("sigma", config.sigma),
        ("theta1_over_sigma", 0.0),
        ("theta2_over_sigma", config.theta2_over_sigma),
        ("c_tilde", c_tilde),
        ("seed", config.seed),
        ("n_random", config.n_random),
    ]
    indices = np.arange(config.n_random)
    columns = dict(sample_index=indices, delta1=delta1, delta2=delta2, irtr_residual=residual)
    frontier = _frontier_table(
        "fig5_frontier.csv", metadata[:4], c_tilde, config.frontier_samples
    )
    extras = {
        "min_irtr_residual": float(residual.min()),
        "fraction_irtr_residual_below_0.1": np.count_nonzero(residual < 0.1) / residual.size,
    }
    return [("fig5_samples.csv", metadata, columns), frontier], extras


@_runner("custom")
def run_custom(config, psf):
    """Generic sweep over a (theta1, theta2) grid and measurement selection."""
    if config.theta1_grid is None or config.theta2_grid is None:
        raise ConfigError("custom runs require explicit theta1_grid and theta2_grid")
    points = list(itertools.product(config.theta1_grid, config.theta2_grid))
    seeds = None
    if "random" in config.measurements:
        seeds = np.random.SeedSequence(config.seed).spawn(len(points))
    _, regrets = _sweep(config, psf, points, config.measurements, seeds)
    names = [name for name in ("direct", "spade") if name in config.measurements]
    indices = [-1] * len(names)
    if "random" in config.measurements:
        names += ["random"] * config.n_random
        indices += range(config.n_random)
    delta1, delta2, residual = regrets.reshape(3, -1)
    theta1, theta2 = np.repeat(points, len(names), axis=0).T
    columns = dict(
        theta1_over_sigma=theta1,
        theta2_over_sigma=theta2,
        measurement=np.tile(names, len(points)),
        sample_index=np.tile(indices, len(points)),
        delta1=delta1,
        delta2=delta2,
        irtr_residual=residual,
    )
    metadata = [
        ("sigma", config.sigma),
        ("seed", config.seed),
        ("n_random", config.n_random),
        ("measurements", "+".join(config.measurements)),
    ]
    return [("custom.csv", metadata, columns)], {}
