"""Deterministic experiment runners producing the figure datasets.

Each ``run_figN`` function sweeps one scenario and returns its tables; one
scaffold does the rest of every run.  It checks the figure, fills in the
figure's default sweep from ``SWEEPS``, writes one CSV per table (17
significant digits, '#'-prefixed key=value metadata lines before the
header), and finishes with a JSON manifest carrying the resolved
configuration and the checksum and size of the bytes it wrote.  Identical
configuration and seed give byte-identical CSVs: randomness flows through a
spawned SeedSequence per sample.  Every runner evaluates its points through
one kernel: ``_context`` (overlaps, QFIM, c_tilde per geometry), then one
stacked regret step per measurement: ``regret_rows`` over the direct-imaging
FIMs (from stacked models, a block of the sweep at a time) or the SPADE FIMs
(from one stacked model per mode cutoff), ``projective_regrets`` over a block
of Haar-random bases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .measurements import (
    direct_imaging_model,
    fim,
    haar_random_bases,
    projective_regrets,
    regret_rows,
    spade_cutoff,
    spade_model,
)
from .psf_core import QuadratureSpec, SourceGeometry, gaussian_psf, overlap_integrals
from .state_model import (
    build_state_model,
    c_tilde_from_overlaps,
    gaussian_incompatibility,
    qfim,
)
from .tradeoff import irtr_frontier

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "custom")
MEASUREMENT_NAMES = ("direct", "spade", "random")

# Flag-free below-threshold c_tilde means the inequality carries no content.
_NO_CONSTRAINT_THRESHOLD = 1e-10
# Random samples per batch, so batch memory does not grow with n_random.
_SAMPLE_BLOCK = 512
# Direct-imaging outcome samples per stacked model: 4 geometries at the default 1024.
_DIRECT_BLOCK_OUTCOMES = 4096


def inclusive_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Uniform grid including both endpoints (stop adjusted to the step)."""
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
    """Resolved inputs of one run; grids are in units of sigma."""

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
        if self.theta1_grid is not None:
            object.__setattr__(
                self, "theta1_grid", _validated_grid("theta1_grid", self.theta1_grid, False)
            )
        if self.theta2_grid is not None:
            object.__setattr__(
                self, "theta2_grid", _validated_grid("theta2_grid", self.theta2_grid, True)
            )
        object.__setattr__(self, "panels", _validated_grid("panels", self.panels, True))
        for name in ("n_random", "seed", "frontier_samples", "mode_cutoff"):
            value = getattr(self, name)
            adaptive = name == "mode_cutoff" and value is None
            if not (adaptive or np.issubdtype(type(value), np.integer)):
                raise ConfigError(f"{name} must be an integer")
        if self.n_random < 1:
            raise ConfigError("n_random must be at least 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        if self.mode_cutoff is not None and self.mode_cutoff < 0:
            raise ConfigError("mode_cutoff must be nonnegative or adaptive")
        chosen = tuple(self.measurements)
        if not chosen or any(name not in MEASUREMENT_NAMES for name in chosen):
            raise ConfigError(f"measurements must be a nonempty subset of {MEASUREMENT_NAMES}")
        object.__setattr__(self, "measurements", chosen)
        if self.frontier_samples < 2:
            raise ConfigError("frontier_samples must be at least 2")
        if not 0.0 < self.theta2_over_sigma < np.inf:
            raise ConfigError("theta2_over_sigma must be positive and finite")
        object.__setattr__(self, "output_dir", str(self.output_dir))


@dataclass(frozen=True)
class RunManifest:
    """What was run, with what inputs, and the checksums of what it wrote."""

    version: str
    figure: str
    seed: int
    wall_time_seconds: float
    config: dict
    files: dict
    extras: dict


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _encode_csv(metadata, header, rows) -> bytes:
    lines = [f"# {key}={_format_cell(value)}" for key, value in metadata]
    lines.append(",".join(header))
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _config_echo(config: ExperimentConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["mode_cutoff"] = "adaptive" if config.mode_cutoff is None else config.mode_cutoff
    return echo


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

    Each table is ``(file name, metadata, header, rows)``; the CSVs come back
    in table order, then ``manifest.json``.  Checksums are taken of the bytes
    as they are written.  Nothing is written, and the output directory is
    not created, until every table has been computed.
    """
    if config.figure_id != figure:
        raise ConfigError(f"config names figure {config.figure_id!r}, expected {figure!r}")
    if figure in SWEEPS:
        field, default = SWEEPS[figure]
        if getattr(config, field) is None:
            config = dataclasses.replace(config, **{field: default})
    started = time.perf_counter()
    tables, extras = compute(config, gaussian_psf(config.sigma))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, files = [], {}
    for name, metadata, header, rows in tables:
        data = _encode_csv([("figure", figure), *metadata], header, rows)
        path = out_dir / name
        path.write_bytes(data)
        paths.append(path)
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    from . import __version__

    manifest = RunManifest(
        version=__version__,
        figure=figure,
        seed=config.seed,
        wall_time_seconds=round(time.perf_counter() - started, 6),
        config=_config_echo(config),
        files=files,
        extras=extras,
    )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return [*paths, manifest_path]


# What every measurement at one separation shares.
_Context = namedtuple("_Context", ("overlaps", "quantum", "c_tilde"))


def _context(psf, geometry: SourceGeometry, quad: QuadratureSpec) -> _Context:
    overlaps = overlap_integrals(psf, geometry, quad)
    return _Context(overlaps, qfim(overlaps), c_tilde_from_overlaps(overlaps))


def _regrets(fishers, contexts) -> np.ndarray:
    """``regret_rows`` of one FIM per context, against its own QFIM and c_tilde."""
    quantum = np.array([context.quantum.matrix for context in contexts])
    return regret_rows(fishers, quantum, [context.c_tilde for context in contexts])


def _direct_fims(psf, geometries, quad):
    """Direct-imaging FIM of each geometry, bit for bit its own, from stacked models."""
    size = max(1, _DIRECT_BLOCK_OUTCOMES // (quad.panel_count * quad.nodes_per_panel))
    blocks = [geometries[start : start + size] for start in range(0, len(geometries), size)]
    return np.concatenate([fim(direct_imaging_model(psf, block, quad)) for block in blocks])


def _spade_fims(config, geometries):
    """SPADE FIM of each geometry, bit for bit its own, from one stacked model per cutoff.

    The adaptive cutoffs of the sweep are bisected together.  A model or FIM
    error names its row within the cutoff group; with an explicit
    ``mode_cutoff`` the group is the whole sweep.
    """
    cutoffs = config.mode_cutoff
    if cutoffs is None:
        cutoffs = spade_cutoff(config.sigma, geometries)
    cutoffs = np.broadcast_to(cutoffs, len(geometries))
    sweep = np.array(geometries, dtype=object)
    fishers = np.empty((len(geometries), 2, 2))
    for cutoff in np.unique(cutoffs):
        members = cutoffs == cutoff
        fishers[members] = fim(spade_model(config.sigma, sweep[members], int(cutoff)))
    return fishers


def _random_rows(context, streams):
    """Yield (sample_index, delta1, delta2, irtr_residual); sample k uses ``streams[k]``."""
    state = build_state_model(context.overlaps)
    for start in range(0, len(streams), _SAMPLE_BLOCK):
        bases = haar_random_bases(streams[start : start + _SAMPLE_BLOCK])
        columns = projective_regrets(state, bases, context.quantum, context.c_tilde, start)
        for sample_index, cells in enumerate(zip(*columns.tolist()), start):
            yield sample_index, *cells


def _frontier_table(name, metadata, coefficient, samples):
    no_constraint = coefficient <= _NO_CONSTRAINT_THRESHOLD
    frontier = [] if no_constraint else irtr_frontier(coefficient, samples)
    rows = [(point.delta1, point.delta2) for point in frontier]
    return name, [*metadata, ("no_constraint", no_constraint)], ("delta1", "delta2"), rows


@_runner("fig1")
def run_fig1(config, psf):
    """Incompatibility coefficient versus separation, both computation routes."""
    rows = []
    for ratio in config.theta2_grid:
        separation = ratio * config.sigma
        closed = gaussian_incompatibility(config.sigma, separation)
        context = _context(psf, SourceGeometry(0.0, separation), config.quad)
        rows.append((ratio, closed, context.c_tilde))
    header = ("theta2_over_sigma", "c_tilde_closed_form", "c_tilde_quadrature")
    return [("fig1.csv", [("sigma", config.sigma)], header, rows)], {}


@_runner("fig2")
def run_fig2(config, psf):
    """Direct-imaging information regrets versus separation at zero misalignment."""
    geometries = [SourceGeometry(0.0, ratio * config.sigma) for ratio in config.theta2_grid]
    contexts = [_context(psf, geometry, config.quad) for geometry in geometries]
    delta1, delta2, _ = _regrets(_direct_fims(psf, geometries, config.quad), contexts).tolist()
    rows = list(zip(config.theta2_grid, delta1, delta2))
    metadata = [("sigma", config.sigma), ("theta1_over_sigma", 0.0)]
    return [("fig2.csv", metadata, ("theta2_over_sigma", "delta1", "delta2"), rows)], {}


@_runner("fig3")
def run_fig3(config, psf):
    """Per-separation panels: direct-imaging point against the IRTR frontier."""
    geometries = [SourceGeometry(0.0, ratio * config.sigma) for ratio in config.panels]
    contexts = [_context(psf, geometry, config.quad) for geometry in geometries]
    direct = _regrets(_direct_fims(psf, geometries, config.quad), contexts).T.tolist()
    tables = []
    for index, (ratio, context, cells) in enumerate(zip(config.panels, contexts, direct), 1):
        delta1, delta2, residual = cells
        metadata = [
            ("panel", index),
            ("sigma", config.sigma),
            ("theta2_over_sigma", ratio),
            ("c_tilde", context.c_tilde),
            ("di_delta1", delta1),
            ("di_delta2", delta2),
            ("irtr_residual", residual),
        ]
        name = f"fig3_panel_{index}.csv"
        frontier = _frontier_table(name, metadata, context.c_tilde, config.frontier_samples)
        tables.append(frontier)
    return tables, {}


@_runner("fig4")
def run_fig4(config, psf):
    """SPADE information regrets versus misalignment at fixed separation."""
    separation = config.theta2_over_sigma * config.sigma
    # The overlaps depend only on the separation, so one evaluation covers
    # the whole misalignment sweep.
    context = _context(psf, SourceGeometry(0.0, separation), config.quad)
    geometries = [SourceGeometry(r * config.sigma, separation) for r in config.theta1_grid]
    fishers = _spade_fims(config, geometries)
    delta1, delta2, _ = regret_rows(fishers, context.quantum, context.c_tilde).tolist()
    rows = list(zip(config.theta1_grid, delta1, delta2))
    metadata = [
        ("sigma", config.sigma),
        ("theta2_over_sigma", config.theta2_over_sigma),
        ("c_tilde", context.c_tilde),
    ]
    tables = [
        ("fig4.csv", metadata, ("theta1_over_sigma", "delta1", "delta2"), rows),
        _frontier_table(
            "fig4_frontier.csv", metadata, context.c_tilde, config.frontier_samples
        ),
    ]
    return tables, {}


@_runner("fig5")
def run_fig5(config, psf):
    """Haar-random projective measurements at fixed geometry."""
    geometry = SourceGeometry(0.0, config.theta2_over_sigma * config.sigma)
    context = _context(psf, geometry, config.quad)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_random)
    rows = list(_random_rows(context, streams))
    metadata = [
        ("sigma", config.sigma),
        ("theta1_over_sigma", 0.0),
        ("theta2_over_sigma", config.theta2_over_sigma),
        ("c_tilde", context.c_tilde),
        ("seed", config.seed),
        ("n_random", config.n_random),
    ]
    tables = [
        (
            "fig5_samples.csv",
            metadata,
            ("sample_index", "delta1", "delta2", "irtr_residual"),
            rows,
        ),
        _frontier_table(
            "fig5_frontier.csv", metadata[:4], context.c_tilde, config.frontier_samples
        ),
    ]
    residuals = [row[3] for row in rows]
    extras = {
        "min_irtr_residual": min(residuals),
        "fraction_irtr_residual_below_0.1": sum(r < 0.1 for r in residuals)
        / len(residuals),
    }
    return tables, extras


@_runner("custom")
def run_custom(config, psf):
    """Generic sweep over a (theta1, theta2) grid and measurement selection."""
    if config.theta1_grid is None or config.theta2_grid is None:
        raise ConfigError("custom runs require explicit theta1_grid and theta2_grid")
    points = list(itertools.product(config.theta1_grid, config.theta2_grid))
    geometries = [SourceGeometry(r1 * config.sigma, r2 * config.sigma) for r1, r2 in points]
    contexts = [_context(psf, geometry, config.quad) for geometry in geometries]
    # Regret rows of the measurements with one row per point, direct first.
    single = {}
    if "direct" in config.measurements:
        single["direct"] = _regrets(_direct_fims(psf, geometries, config.quad), contexts)
    if "spade" in config.measurements:
        single["spade"] = _regrets(_spade_fims(config, geometries), contexts)
    children = np.random.SeedSequence(config.seed).spawn(len(points))
    rows = []
    for index, (point, context, child) in enumerate(zip(points, contexts, children)):
        for name, columns in single.items():
            rows.append((*point, name, -1, *columns[:, index].tolist()))
        if "random" in config.measurements:
            random = _random_rows(context, child.spawn(config.n_random))
            rows.extend((*point, "random", *row) for row in random)
    metadata = [
        ("sigma", config.sigma),
        ("seed", config.seed),
        ("n_random", config.n_random),
        ("measurements", "+".join(config.measurements)),
    ]
    header = (
        "theta1_over_sigma",
        "theta2_over_sigma",
        "measurement",
        "sample_index",
        "delta1",
        "delta2",
        "irtr_residual",
    )
    return [("custom.csv", metadata, header, rows)], {}
