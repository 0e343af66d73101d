"""Benchmark workloads: CLI argument lists made from a seed, and output checks.

Each workload is a list of operations, one ``irtr_lab.cli.main`` call each.
The program receives only the generated arguments.  Every operation's output
is checked by value against routes that do not go through the runners:

* fig1 ``c_tilde_quadrature`` against the closed form
  ``gaussian_incompatibility`` (to 1e-8, the acceptance suite's tolerance);
* a seeded subsample of direct-imaging and SPADE rows, recomputed through the
  scalar API ``overlap_integrals -> qfim/incompatibility ->
  fim(direct_imaging_model | spade_model) -> regret_report``; the squared
  regrets must agree to 1e-10;
* every random-measurement row: ``0 <= delta <= 1``,
  ``irtr_residual >= -1e-9``, and the row count.

No check depends on which random sample a seed maps to.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from irtr_lab.measurements import direct_imaging_model, fim, regret_report, spade_model
from irtr_lab.psf_core import QuadratureSpec, SourceGeometry, gaussian_psf, overlap_integrals
from irtr_lab.state_model import gaussian_incompatibility, incompatibility, qfim
from irtr_lab.tradeoff import TradeoffPoint, irtr_residual

SIGMA = 1.0
C_TILDE_TOLERANCE = 1e-8
REGRET_TOLERANCE = 1e-10
RESIDUAL_FLOOR = -1e-9
RESIDUAL_TOLERANCE = 1e-9
SAMPLED_ROWS = 8  # direct/SPADE rows recomputed per operation and pass
PANELS = (0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)  # fig3's default panels


@dataclass
class Operation:
    label: str
    argv: list[str]
    out_dir: Path
    data_rows: int  # evaluated c_tilde or regret rows, frontier rows excluded
    expect: dict = field(default_factory=dict)


def _sorted_draws(rng, low, high, count):
    return np.unique(rng.uniform(low, high, count)).tolist()


def _grid_text(values):
    return ",".join(repr(float(value)) for value in values)


def separation_sweep(seed: int, work: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    grid = _sorted_draws(rng, 0.05, 8.0, 800)
    ops = []
    for figure in ("fig1", "fig2"):
        out = work / figure
        argv = [figure, "--grid", _grid_text(grid), "--out", str(out)]
        ops.append(Operation(figure, argv, out, len(grid), {"grid": grid}))
    out = work / "fig3"
    argv = ["fig3", "--grid", _grid_text(PANELS), "--out", str(out)]
    ops.append(Operation("fig3", argv, out, len(PANELS), {"panels": PANELS}))
    return ops


def haar_cloud(seed: int, work: Path) -> list[Operation]:
    n_random = 5_000
    out = work / "fig5"
    argv = ["fig5", "--seed", str(seed), "--n-random", str(n_random), "--out", str(out)]
    return [Operation("fig5", argv, out, n_random, {"n_random": n_random})]


def mixed_grid(seed: int, work: Path) -> list[Operation]:
    rng = np.random.default_rng(seed)
    theta1 = _sorted_draws(rng, 0.0, 3.0, 6)
    theta2 = _sorted_draws(rng, 0.1, 4.0, 6)
    misalignments = _sorted_draws(rng, 0.0, 5.0, 500)
    n_random = 64
    out = work / "custom"
    custom = Operation(
        "custom",
        [
            "custom",
            "--theta1-grid", _grid_text(theta1),
            "--theta2-grid", _grid_text(theta2),
            "--measurements", "direct,spade,random",
            "--n-random", str(n_random),
            "--seed", str(seed),
            "--out", str(out),
        ],
        out,
        len(theta1) * len(theta2) * (2 + n_random),
        {"points": len(theta1) * len(theta2), "n_random": n_random},
    )
    out = work / "fig4"
    fig4 = Operation(
        "fig4",
        ["fig4", "--grid", _grid_text(misalignments), "--out", str(out)],
        out,
        len(misalignments),
        {"grid": misalignments},
    )
    return [custom, fig4]


WORKLOADS = {
    "separation-sweep": separation_sweep,
    "haar-cloud": haar_cloud,
    "mixed-grid": mixed_grid,
}


# ---------------------------------------------------------------- checks


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    metadata = {}
    index = 0
    while lines[index].startswith("# "):
        key, value = lines[index][2:].split("=", 1)
        metadata[key] = value
        index += 1
    header = lines[index].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[index + 1 :]]
    return metadata, rows


def _unit_interval(value: float) -> bool:
    return 0.0 <= value <= 1.0


def _scalar_route(kind: str, theta1: float, theta2: float):
    """(delta1, delta2, c_tilde) through the scalar reference API."""
    psf = gaussian_psf(SIGMA)
    geometry = SourceGeometry(theta1 * SIGMA, theta2 * SIGMA)
    overlaps = overlap_integrals(psf, geometry, QuadratureSpec())
    if kind == "direct":
        model = direct_imaging_model(psf, geometry, QuadratureSpec())
    else:
        model = spade_model(SIGMA, geometry)
    report = regret_report(fim(model), qfim(overlaps))
    return report.delta1, report.delta2, incompatibility(overlaps).c_tilde


def _check_sampled(points, rng: random.Random, errors: list[str]) -> None:
    """Recompute a seeded subsample of (kind, theta1, theta2, d1, d2, residual)."""
    for kind, theta1, theta2, delta1, delta2, residual in rng.sample(
        points, min(SAMPLED_ROWS, len(points))
    ):
        ref1, ref2, c_tilde = _scalar_route(kind, theta1, theta2)
        if (
            abs(delta1**2 - ref1**2) > REGRET_TOLERANCE
            or abs(delta2**2 - ref2**2) > REGRET_TOLERANCE
        ):
            errors.append(
                f"{kind} regrets at ({theta1!r}, {theta2!r}) = ({delta1!r}, {delta2!r}),"
                f" scalar route gives ({ref1!r}, {ref2!r})"
            )
        if residual is not None:
            expected = irtr_residual(TradeoffPoint(ref1, ref2), c_tilde)
            if abs(residual - expected) > RESIDUAL_TOLERANCE:
                errors.append(
                    f"{kind} residual at ({theta1!r}, {theta2!r}) = {residual!r},"
                    f" scalar route gives {expected!r}"
                )


def _check_random_row(row, errors: list[str]) -> None:
    delta1, delta2 = float(row["delta1"]), float(row["delta2"])
    residual = float(row["irtr_residual"])
    if not (_unit_interval(delta1) and _unit_interval(delta2)):
        errors.append(f"random row {row} has a regret outside [0, 1]")
    if not residual >= RESIDUAL_FLOOR:
        errors.append(f"random row {row} has irtr_residual below {RESIDUAL_FLOOR}")


def _check_rows_count(label, rows, expected, errors):
    if len(rows) != expected:
        errors.append(f"{label}: {len(rows)} data rows, expected {expected}")


def check_output(op: Operation, rng: random.Random) -> list[str]:
    """Value checks of one operation's CSVs; returns the problems found."""
    errors: list[str] = []
    sampled = []
    if op.label == "fig1":
        _, rows = _read_csv(op.out_dir / "fig1.csv")
        _check_rows_count("fig1", rows, len(op.expect["grid"]), errors)
        for ratio, row in zip(op.expect["grid"], rows):
            closed = gaussian_incompatibility(SIGMA, ratio * SIGMA)
            if float(row["theta2_over_sigma"]) != ratio:
                errors.append(f"fig1 row {row} is not at separation {ratio!r}")
            if abs(float(row["c_tilde_closed_form"]) - closed) > 1e-15:
                errors.append(f"fig1 row {row}: closed form should be {closed!r}")
            if abs(float(row["c_tilde_quadrature"]) - closed) > C_TILDE_TOLERANCE:
                errors.append(f"fig1 row {row}: quadrature c_tilde off closed form {closed!r}")
    elif op.label == "fig2":
        _, rows = _read_csv(op.out_dir / "fig2.csv")
        _check_rows_count("fig2", rows, len(op.expect["grid"]), errors)
        for ratio, row in zip(op.expect["grid"], rows):
            if float(row["theta2_over_sigma"]) != ratio:
                errors.append(f"fig2 row {row} is not at separation {ratio!r}")
            sampled.append(
                ("direct", 0.0, ratio, float(row["delta1"]), float(row["delta2"]), None)
            )
    elif op.label == "fig3":
        for index, ratio in enumerate(op.expect["panels"], start=1):
            metadata, _ = _read_csv(op.out_dir / f"fig3_panel_{index}.csv")
            closed = gaussian_incompatibility(SIGMA, ratio * SIGMA)
            if abs(float(metadata["c_tilde"]) - closed) > C_TILDE_TOLERANCE:
                errors.append(f"fig3 panel {index}: c_tilde off closed form {closed!r}")
            sampled.append(
                (
                    "direct",
                    0.0,
                    ratio,
                    float(metadata["di_delta1"]),
                    float(metadata["di_delta2"]),
                    float(metadata["irtr_residual"]),
                )
            )
    elif op.label == "fig4":
        metadata, rows = _read_csv(op.out_dir / "fig4.csv")
        separation = float(metadata["theta2_over_sigma"])
        _check_rows_count("fig4", rows, len(op.expect["grid"]), errors)
        for ratio, row in zip(op.expect["grid"], rows):
            if float(row["theta1_over_sigma"]) != ratio:
                errors.append(f"fig4 row {row} is not at misalignment {ratio!r}")
            sampled.append(
                ("spade", ratio, separation, float(row["delta1"]), float(row["delta2"]), None)
            )
    elif op.label == "fig5":
        _, rows = _read_csv(op.out_dir / "fig5_samples.csv")
        _check_rows_count("fig5", rows, op.expect["n_random"], errors)
        for row in rows:
            _check_random_row(row, errors)
    elif op.label == "custom":
        _, rows = _read_csv(op.out_dir / "custom.csv")
        per_point = 2 + op.expect["n_random"]
        _check_rows_count("custom", rows, op.expect["points"] * per_point, errors)
        for row in rows:
            if row["measurement"] == "random":
                _check_random_row(row, errors)
            else:
                sampled.append(
                    (
                        row["measurement"],
                        float(row["theta1_over_sigma"]),
                        float(row["theta2_over_sigma"]),
                        float(row["delta1"]),
                        float(row["delta2"]),
                        float(row["irtr_residual"]),
                    )
                )
    for kind, _, _, delta1, delta2, _ in sampled:
        if not (_unit_interval(delta1) and _unit_interval(delta2)):
            errors.append(f"{kind} regrets ({delta1!r}, {delta2!r}) outside [0, 1]")
    _check_sampled(sampled, rng, errors)
    return errors


def csv_digests(op: Operation) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(op.out_dir.glob("*.csv"))
    }
