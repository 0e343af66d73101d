"""Deterministic experiment runners producing the figure datasets.

Each ``run_figN`` function sweeps one scenario and returns its tables; one
scaffold does the rest of every run.  It checks the figure, fills in the
figure's default sweep from ``SWEEPS``, writes one CSV per table (17
significant digits, '#'-prefixed key=value metadata lines before the
header), and finishes with a JSON manifest carrying the resolved
configuration and the checksum and size of the bytes it wrote.  Identical
configuration and seed give byte-identical CSVs: every random sample draws
from its own spawned SeedSequence child, the children's states computed in
one vectorised pass per run.  fig2 to fig5 and custom name their (theta1,
theta2) points and measurements, and one kernel, ``_sweep``, evaluates
them: the overlaps of each distinct separation as (4, n) columns (with the
direct-imaging FIMs from their own samples, by ``overlaps_and_direct_fims``),
their QFIM stack and c_tilde column, then one stacked regret step per
measurement: ``regret_rows`` over the direct-imaging or SPADE FIMs (from one
stacked model per block of points, each row at its own mode cutoff and padded
to the block's largest), ``projective_regrets_and_checks`` over blocks of
Haar-random bases, once per separation for the samples of all its points.
From the quadrature to the CSV writer, which formats each column by its
dtype, a sweep is columns of arrays, the frontier tables too
(``irtr_frontier``): the only per-row objects are the random samples' state
models, one per separation.

Runs compute in units of sigma, on ``gaussian_psf()`` and points at the
grid ratios: ``sigma`` is a label, written to the CSVs and the manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IrtrLabError, failure_flags, raise_first_failure
from .measurements import (
    fim,
    haar_random_bases,
    overlaps_and_direct_fims,
    projective_regrets_and_checks,
    regret_rows,
    spade_cutoff,
    spade_model,
    spawned_pools,
)
from .psf_core import (
    OverlapIntegrals,
    QuadratureSpec,
    SourceGeometry,
    gaussian_psf,
    overlap_columns,
    sweep_points,
)
from .state_model import (
    build_state_model,
    c_tilde_column,
    gaussian_incompatibility,
    qfim_stack,
)
from .tradeoff import irtr_frontier

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "custom")
MEASUREMENT_NAMES = ("direct", "spade", "random")

# Flag-free below-threshold c_tilde means the inequality carries no content.
_NO_CONSTRAINT_THRESHOLD = 1e-10
# Random samples per batch, so batch memory does not grow with n_random.
_SAMPLE_BLOCK = 512
# SPADE rows per padded model, so its memory does not grow with the sweep.
_SPADE_BLOCK = 128


def inclusive_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Uniform grid including both endpoints (stop adjusted to the step)."""
    if not np.isfinite([start, stop, step]).all():
        raise ConfigError("grid start, stop and step must be finite")
    if not step > 0.0:
        raise ConfigError("grid step must be positive")
    count = int(round((stop - start) / step))
    if count < 0:
        raise ConfigError("grid stop must not precede start")
    return tuple(start + index * step for index in range(count + 1))


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
    grid = tuple(float(v) for v in values)
    if not grid:
        raise ConfigError(f"{name} must not be empty")
    if not all(np.isfinite(grid)):
        raise ConfigError(f"{name} must contain finite values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
    if positive and grid[0] <= 0.0:
        raise ConfigError(f"{name} values must be positive")
    return grid


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
            # Sample k's spawn key word must fit 32 bits (``spawned_pools``).
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


def _encode_csv(metadata, columns) -> bytes:
    arrays = [np.asarray(column) for column in columns.values()]
    # One cell format per column, by its dtype; "%.17g" % x == format(x, ".17g").
    template = ",".join({"f": "%.17g", "i": "%d", "U": "%s"}[array.dtype.kind] for array in arrays)
    lines = [f"# {key}={_format_cell(value)}" for key, value in metadata]
    lines.append(",".join(columns))
    lines.extend(template % row for row in zip(*(array.tolist() for array in arrays)))
    return ("\n".join(lines) + "\n").encode("utf-8")


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
    for name, metadata, columns in tables:
        data = _encode_csv([("figure", figure), *metadata], columns)
        path = out_dir / name
        path.write_bytes(data)
        paths.append(path)
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
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


def _sweep(config, psf, points, measurements, prefixes=None):
    """c_tilde of each (theta1, theta2) point and its (3, points, rows) regrets.

    The regrets are delta1, delta2 and irtr_residual; a point's rows are
    direct imaging, SPADE, then the random samples, of those named in
    ``measurements``.  Random sample k of point p draws from
    ``SeedSequence(seed, spawn_key=(*prefixes[p], k))``.  The overlaps, the
    QFIM, the state model and the direct-imaging FIM depend on theta2 alone,
    bit for bit, so each distinct separation is evaluated once, at its first
    point, as a column of the sweep's overlaps; an overlap, direct-imaging or
    c_tilde error names its row among them.  The random samples of all the
    points at one separation run together, in sweep order; a sample error
    names the first failing sample in the sweep, numbered within its point.
    """
    points = sweep_points(points)
    _, first, separation = np.unique(points[:, 1], return_index=True, return_inverse=True)
    if "direct" in measurements:
        overlaps, fishers = overlaps_and_direct_fims(psf, points[first], config.quad)
    else:
        overlaps = overlap_columns(psf, points[first], config.quad)
    quantum = qfim_stack(overlaps)[separation]
    c_tilde = c_tilde_column(overlaps)[separation].tolist()
    blocks = []
    if "direct" in measurements:
        blocks.append(regret_rows(fishers[separation], quantum, c_tilde)[..., None])
    if "spade" in measurements:
        blocks.append(regret_rows(_spade_fims(config, points), quantum, c_tilde)[..., None])
    if "random" in measurements:
        count = config.n_random
        pools = spawned_pools(config.seed, prefixes, 0, count)
        states = [build_state_model(OverlapIntegrals(*column)) for column in overlaps.T.tolist()]
        randoms, failures = np.empty((3, len(points), count)), []
        for index, state in enumerate(states):
            # The points at one separation share its state, QFIM and c_tilde:
            # their samples run in sweep order, in blocks that may span points.
            members = np.flatnonzero(separation == index)
            samples = pools[members].reshape(-1, 4)
            rows = np.empty((3, len(samples)))
            for k in range(0, len(samples), _SAMPLE_BLOCK):
                block = slice(k, k + _SAMPLE_BLOCK)
                bases = haar_random_bases(samples[block])
                rows[:, block], checks = projective_regrets_and_checks(
                    state, bases, quantum[members[0]], c_tilde[members[0]]
                )
                failed = failure_flags(checks).any(axis=0)
                if failed.any():
                    # The first failing sample's place in the sweep, and each
                    # sample's number within its point.
                    row = k + int(failed.argmax())
                    place = members[row // count] * count + row % count
                    failures.append((place, checks, np.arange(k, k + len(failed)) % count))
                    break
            randoms[:, members] = rows.reshape(3, len(members), count)
        if failures:
            # The first failing sample in sweep order raises, numbered within its point.
            _, checks, numbers = min(failures, key=lambda failure: failure[0])
            raise_first_failure(checks, "sample {}: ", numbers)
        blocks.append(randoms)
    return c_tilde, np.concatenate(blocks, axis=-1)


def _spade_fims(config, points):
    """SPADE FIM of each (theta1, theta2) point, bit for bit its own, from one model per block.

    The adaptive cutoffs of the sweep are bisected together.  Each block of
    up to ``_SPADE_BLOCK`` rows is one stacked model, every row at its own
    cutoff and padded to the block's largest.  A model or FIM error names its
    sweep row: the failing block's rows take their scalar route in order, and
    the first that fails raises.
    """
    cutoffs = config.mode_cutoff
    if cutoffs is None:
        cutoffs = spade_cutoff(1.0, points)
    cutoffs = np.broadcast_to(cutoffs, len(points))
    fishers = np.empty((len(points), 2, 2))
    for first in range(0, len(points), _SPADE_BLOCK):
        rows = slice(first, first + _SPADE_BLOCK)
        try:
            fishers[rows] = fim(spade_model(1.0, points[rows], cutoffs[rows]))
        except MemoryError as error:
            cutoff = int(cutoffs[rows].max())
            raise ConfigError(f"mode_cutoff {cutoff} is too large: {error}") from None
        except IrtrLabError:
            for row in range(first, len(points)):
                try:
                    geometry = SourceGeometry(*points[row].tolist())
                    fim(spade_model(1.0, geometry, int(cutoffs[row])))
                except IrtrLabError as error:
                    raise type(error)(f"row {row}: {error}") from None
            raise
    return fishers


def _frontier_table(name, metadata, coefficient, samples):
    no_constraint = coefficient <= _NO_CONSTRAINT_THRESHOLD
    frontier = (np.empty(0),) * 2 if no_constraint else irtr_frontier(coefficient, samples)
    columns = dict(zip(("delta1", "delta2"), frontier))
    return name, [*metadata, ("no_constraint", no_constraint)], columns


@_runner("fig1")
def run_fig1(config, psf):
    """Incompatibility coefficient versus separation, both computation routes."""
    ratios = config.theta2_grid
    overlaps = overlap_columns(psf, [(0.0, r) for r in ratios], config.quad)
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
    # Sample k draws from SeedSequence(seed).spawn(n_random)[k].
    (c_tilde,), regrets = _sweep(config, psf, [(0.0, config.theta2_over_sigma)], ("random",), [()])
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
    # Sample k of point p draws from SeedSequence(seed).spawn(points)[p].spawn(n_random)[k].
    prefixes = np.arange(len(points))[:, np.newaxis]
    _, regrets = _sweep(config, psf, points, config.measurements, prefixes)
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
