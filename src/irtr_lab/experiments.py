"""Deterministic experiment runners producing the figure datasets.

Each ``run_figN`` function sweeps one scenario, writes one CSV per dataset
(17 significant digits, '#'-prefixed key=value metadata lines before the
header), and finishes with a JSON manifest carrying the resolved
configuration and a checksum per file.  Identical configuration and seed
give byte-identical CSVs: randomness flows through a spawned SeedSequence
per sample.  Every runner evaluates its points through one kernel:
``_context`` (overlaps, QFIM, c_tilde per geometry) feeding ``_regret_rows``
(probability model, FIM, regrets and checked IRTR residual per measurement).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundViolationError, ConfigError
from .measurements import (
    direct_imaging_model,
    fim,
    haar_random_orthogonal,
    projective_model,
    regret_report,
    spade_model,
)
from .psf_core import QuadratureSpec, SourceGeometry, gaussian_psf, overlap_integrals
from .state_model import (
    build_state_model,
    gaussian_incompatibility,
    incompatibility,
    qfim,
)
from .tradeoff import TradeoffPoint, irtr_frontier, irtr_residual

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "custom")
MEASUREMENT_NAMES = ("direct", "spade", "random")

# Flag-free below-threshold c_tilde means the inequality carries no content.
_NO_CONSTRAINT_THRESHOLD = 1e-10
_RESIDUAL_FLOOR = -1e-9


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
        if not self.sigma > 0.0:
            raise ConfigError("sigma must be positive")
        if self.theta1_grid is not None:
            object.__setattr__(
                self, "theta1_grid", _validated_grid("theta1_grid", self.theta1_grid, False)
            )
        if self.theta2_grid is not None:
            object.__setattr__(
                self, "theta2_grid", _validated_grid("theta2_grid", self.theta2_grid, True)
            )
        object.__setattr__(self, "panels", _validated_grid("panels", self.panels, True))
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
        if not self.theta2_over_sigma > 0.0:
            raise ConfigError("theta2_over_sigma must be positive")
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


def _write_csv(path: Path, metadata, header, rows) -> None:
    lines = [f"# {key}={_format_cell(value)}" for key, value in metadata]
    lines.append(",".join(header))
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _config_echo(config: ExperimentConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["mode_cutoff"] = "adaptive" if config.mode_cutoff is None else config.mode_cutoff
    return echo


def _finish_run(config, figure, out_dir, csv_paths, extras, started) -> list[Path]:
    files = {}
    for path in csv_paths:
        data = path.read_bytes()
        files[path.name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
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
    return [*csv_paths, manifest_path]


def _prepare_output(config: ExperimentConfig) -> Path:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _require(config: ExperimentConfig, figure: str) -> None:
    if config.figure_id != figure:
        raise ConfigError(f"config names figure {config.figure_id!r}, expected {figure!r}")


def _checked_residual(report, c_tilde: float) -> float:
    residual = irtr_residual(
        TradeoffPoint(delta1=report.delta1, delta2=report.delta2), c_tilde
    )
    if residual < _RESIDUAL_FLOOR:
        raise BoundViolationError(
            f"IRTR residual {residual:.3e} is negative beyond tolerance"
        )
    return residual


# What every measurement at one separation shares.
_Context = namedtuple("_Context", ("overlaps", "quantum", "c_tilde"))


def _context(psf, geometry: SourceGeometry, quad: QuadratureSpec) -> _Context:
    overlaps = overlap_integrals(psf, geometry, quad)
    c_tilde = incompatibility(overlaps).c_tilde
    return _Context(overlaps, qfim(overlaps), c_tilde)


def _regret_rows(psf, geometry, config, context, measurements, streams=()):
    """Yield (measurement, sample_index, delta1, delta2, irtr_residual) rows.

    ``direct`` and ``spade`` give one row each with sample index -1, in that
    order; ``random`` gives one row per SeedSequence in ``streams``, sample k
    drawn from stream k.  Every residual is checked against the floor.
    """

    def row(name, sample_index, model):
        report = regret_report(fim(model), context.quantum)
        residual = _checked_residual(report, context.c_tilde)
        return name, sample_index, report.delta1, report.delta2, residual

    if "direct" in measurements:
        yield row("direct", -1, direct_imaging_model(psf, geometry, config.quad))
    if "spade" in measurements:
        yield row("spade", -1, spade_model(config.sigma, geometry, config.mode_cutoff))
    if "random" in measurements:
        state = build_state_model(context.overlaps)
        for sample_index, stream in enumerate(streams):
            measurement = haar_random_orthogonal(
                np.random.default_rng(stream), dim=4, seed=sample_index
            )
            yield row("random", sample_index, projective_model(state, measurement))


def _write_frontier(path, metadata, coefficient, samples):
    no_constraint = coefficient <= _NO_CONSTRAINT_THRESHOLD
    frontier = [] if no_constraint else irtr_frontier(coefficient, samples)
    _write_csv(
        path,
        [*metadata, ("no_constraint", no_constraint)],
        ("delta1", "delta2"),
        [(point.delta1, point.delta2) for point in frontier],
    )


def run_fig1(config: ExperimentConfig) -> list[Path]:
    """Incompatibility coefficient versus separation, both computation routes."""
    _require(config, "fig1")
    grid = config.theta2_grid if config.theta2_grid is not None else DEFAULT_SEPARATION_GRID
    config = dataclasses.replace(config, theta2_grid=grid)
    started = time.perf_counter()
    out_dir = _prepare_output(config)
    psf = gaussian_psf(config.sigma)
    rows = []
    for ratio in grid:
        separation = ratio * config.sigma
        closed = gaussian_incompatibility(config.sigma, separation)
        context = _context(psf, SourceGeometry(0.0, separation), config.quad)
        rows.append((ratio, closed, context.c_tilde))
    path = out_dir / "fig1.csv"
    _write_csv(
        path,
        [("figure", "fig1"), ("sigma", config.sigma)],
        ("theta2_over_sigma", "c_tilde_closed_form", "c_tilde_quadrature"),
        rows,
    )
    return _finish_run(config, "fig1", out_dir, [path], {}, started)


def run_fig2(config: ExperimentConfig) -> list[Path]:
    """Direct-imaging information regrets versus separation at zero misalignment."""
    _require(config, "fig2")
    grid = config.theta2_grid if config.theta2_grid is not None else DEFAULT_SEPARATION_GRID
    config = dataclasses.replace(config, theta2_grid=grid)
    started = time.perf_counter()
    out_dir = _prepare_output(config)
    psf = gaussian_psf(config.sigma)
    rows = []
    for ratio in grid:
        geometry = SourceGeometry(0.0, ratio * config.sigma)
        context = _context(psf, geometry, config.quad)
        for _, _, delta1, delta2, _ in _regret_rows(
            psf, geometry, config, context, ("direct",)
        ):
            rows.append((ratio, delta1, delta2))
    path = out_dir / "fig2.csv"
    _write_csv(
        path,
        [("figure", "fig2"), ("sigma", config.sigma), ("theta1_over_sigma", 0.0)],
        ("theta2_over_sigma", "delta1", "delta2"),
        rows,
    )
    return _finish_run(config, "fig2", out_dir, [path], {}, started)


def run_fig3(config: ExperimentConfig) -> list[Path]:
    """Per-separation panels: direct-imaging point against the IRTR frontier."""
    _require(config, "fig3")
    started = time.perf_counter()
    out_dir = _prepare_output(config)
    psf = gaussian_psf(config.sigma)
    paths = []
    for index, ratio in enumerate(config.panels, start=1):
        geometry = SourceGeometry(0.0, ratio * config.sigma)
        context = _context(psf, geometry, config.quad)
        ((_, _, delta1, delta2, residual),) = _regret_rows(
            psf, geometry, config, context, ("direct",)
        )
        path = out_dir / f"fig3_panel_{index}.csv"
        metadata = [
            ("figure", "fig3"),
            ("panel", index),
            ("sigma", config.sigma),
            ("theta2_over_sigma", ratio),
            ("c_tilde", context.c_tilde),
            ("di_delta1", delta1),
            ("di_delta2", delta2),
            ("irtr_residual", residual),
        ]
        _write_frontier(path, metadata, context.c_tilde, config.frontier_samples)
        paths.append(path)
    return _finish_run(config, "fig3", out_dir, paths, {}, started)


def run_fig4(config: ExperimentConfig) -> list[Path]:
    """SPADE information regrets versus misalignment at fixed separation."""
    _require(config, "fig4")
    grid = (
        config.theta1_grid if config.theta1_grid is not None else DEFAULT_MISALIGNMENT_GRID
    )
    config = dataclasses.replace(config, theta1_grid=grid)
    started = time.perf_counter()
    out_dir = _prepare_output(config)
    psf = gaussian_psf(config.sigma)
    separation = config.theta2_over_sigma * config.sigma
    # The overlaps depend only on the separation, so one evaluation covers
    # the whole misalignment sweep.
    context = _context(psf, SourceGeometry(0.0, separation), config.quad)
    rows = []
    for ratio in grid:
        geometry = SourceGeometry(ratio * config.sigma, separation)
        for _, _, delta1, delta2, _ in _regret_rows(
            psf, geometry, config, context, ("spade",)
        ):
            rows.append((ratio, delta1, delta2))
    shared_metadata = [
        ("figure", "fig4"),
        ("sigma", config.sigma),
        ("theta2_over_sigma", config.theta2_over_sigma),
        ("c_tilde", context.c_tilde),
    ]
    data_path = out_dir / "fig4.csv"
    _write_csv(data_path, shared_metadata, ("theta1_over_sigma", "delta1", "delta2"), rows)
    frontier_path = out_dir / "fig4_frontier.csv"
    _write_frontier(
        frontier_path, shared_metadata, context.c_tilde, config.frontier_samples
    )
    return _finish_run(config, "fig4", out_dir, [data_path, frontier_path], {}, started)


def run_fig5(config: ExperimentConfig) -> list[Path]:
    """Haar-random projective measurements at fixed geometry."""
    _require(config, "fig5")
    started = time.perf_counter()
    out_dir = _prepare_output(config)
    psf = gaussian_psf(config.sigma)
    geometry = SourceGeometry(0.0, config.theta2_over_sigma * config.sigma)
    context = _context(psf, geometry, config.quad)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_random)
    rows = [
        row[1:]
        for row in _regret_rows(psf, geometry, config, context, ("random",), streams)
    ]
    shared_metadata = [
        ("figure", "fig5"),
        ("sigma", config.sigma),
        ("theta1_over_sigma", 0.0),
        ("theta2_over_sigma", config.theta2_over_sigma),
        ("c_tilde", context.c_tilde),
        ("seed", config.seed),
        ("n_random", config.n_random),
    ]
    samples_path = out_dir / "fig5_samples.csv"
    _write_csv(
        samples_path,
        shared_metadata,
        ("sample_index", "delta1", "delta2", "irtr_residual"),
        rows,
    )
    frontier_path = out_dir / "fig5_frontier.csv"
    _write_frontier(
        frontier_path, shared_metadata[:5], context.c_tilde, config.frontier_samples
    )
    residuals = [row[3] for row in rows]
    extras = {
        "min_irtr_residual": min(residuals),
        "fraction_irtr_residual_below_0.1": sum(r < 0.1 for r in residuals)
        / len(residuals),
    }
    return _finish_run(
        config, "fig5", out_dir, [samples_path, frontier_path], extras, started
    )


def run_custom(config: ExperimentConfig) -> list[Path]:
    """Generic sweep over a (theta1, theta2) grid and measurement selection."""
    _require(config, "custom")
    if config.theta1_grid is None or config.theta2_grid is None:
        raise ConfigError("custom runs require explicit theta1_grid and theta2_grid")
    started = time.perf_counter()
    out_dir = _prepare_output(config)
    psf = gaussian_psf(config.sigma)
    points = [
        (ratio1, ratio2)
        for ratio1 in config.theta1_grid
        for ratio2 in config.theta2_grid
    ]
    children = np.random.SeedSequence(config.seed).spawn(len(points))
    rows = []
    for (ratio1, ratio2), child in zip(points, children):
        geometry = SourceGeometry(ratio1 * config.sigma, ratio2 * config.sigma)
        context = _context(psf, geometry, config.quad)
        streams = child.spawn(config.n_random) if "random" in config.measurements else ()
        for row in _regret_rows(
            psf, geometry, config, context, config.measurements, streams
        ):
            rows.append((ratio1, ratio2, *row))
    path = out_dir / "custom.csv"
    _write_csv(
        path,
        [
            ("figure", "custom"),
            ("sigma", config.sigma),
            ("seed", config.seed),
            ("n_random", config.n_random),
            ("measurements", "+".join(config.measurements)),
        ],
        (
            "theta1_over_sigma",
            "theta2_over_sigma",
            "measurement",
            "sample_index",
            "delta1",
            "delta2",
            "irtr_residual",
        ),
        rows,
    )
    return _finish_run(config, "custom", out_dir, [path], {}, started)


RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "custom": run_custom,
}
