"""Tests for the figure runners, their file formats, and the CLI.

Determinism is the load-bearing property here: identical seeds must give
byte-identical CSVs, the frontier files must not depend on the seed at all,
and every runner row must equal the scalar reference route bit for bit.
"""

import argparse
import hashlib
import inspect
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import cli, experiments, measurements, psf_core
from irtr_lab.experiments import (
    DEFAULT_MISALIGNMENT_GRID,
    DEFAULT_PANELS,
    DEFAULT_SEPARATION_GRID,
    MEASUREMENT_NAMES,
    inclusive_grid,
)
from irtr_lab.measurements import adaptive_cutoffs, regret_rows, spade_sources
from irtr_lab.state_model import c_tilde_from_overlaps, qfim_stack


def sweep_cutoffs(points):
    """The adaptive SPADE cutoffs at sigma = 1 of (theta1, theta2) ``points``, as a sweep's."""
    return adaptive_cutoffs(1.0, spade_sources(1.0, psf_core.sweep_points(points)))


def read_table(path):
    """Parse one output CSV into (metadata dict, header list, row lists)."""
    metadata, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return metadata, header, rows


class TestInclusiveGrid:
    def test_includes_both_endpoints(self):
        grid = inclusive_grid(0.05, 8.0, 0.05)
        assert len(grid) == 160
        assert grid[0] == 0.05
        np.testing.assert_allclose(grid[-1], 8.0, rtol=1e-12)

    def test_single_point(self):
        assert inclusive_grid(1.0, 1.0, 0.5) == (1.0,)

    def test_rejects_bad_steps(self):
        with pytest.raises(lab.ConfigError):
            inclusive_grid(0.0, 1.0, 0.0)
        with pytest.raises(lab.ConfigError):
            inclusive_grid(1.0, 0.0, 0.5)

    @pytest.mark.parametrize(
        "bounds", [(0.0, np.inf, 1.0), (np.inf, 1.0, 1.0), (-np.inf, 0.0, 1.0), (0.0, 1.0, np.nan)]
    )
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(lab.ConfigError, match="grid start, stop and step must be finite"):
            inclusive_grid(*bounds)

    def test_default_grids(self):
        assert DEFAULT_SEPARATION_GRID[0] == 0.05
        assert DEFAULT_PANELS == (0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = lab.ExperimentConfig(figure_id="fig1")
        assert config.sigma == 1.0
        assert config.mode_cutoff is None
        assert config.measurements == ("direct", "spade", "random")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"figure_id": "fig9"},
            {"figure_id": "fig1", "sigma": 0.0},
            {"figure_id": "fig1", "theta2_grid": (1.0, 0.5)},
            {"figure_id": "fig1", "theta2_grid": (0.0, 0.5)},
            {"figure_id": "fig1", "theta1_grid": ()},
            {"figure_id": "fig1", "panels": (2.0, float("nan"))},
            {"figure_id": "fig1", "n_random": 0},
            {"figure_id": "fig1", "seed": -1},
            {"figure_id": "fig1", "mode_cutoff": -3},
            {"figure_id": "fig1", "measurements": ("direct", "heterodyne")},
            {"figure_id": "fig1", "measurements": ()},
            {"figure_id": "custom", "measurements": ("direct", "direct")},
            {"figure_id": "custom", "measurements": ("direct", "direct", "spade", "spade")},
            {"figure_id": "fig1", "frontier_samples": 1},
            {"figure_id": "fig1", "theta2_over_sigma": 0.0},
            {"figure_id": "fig1", "sigma": float("inf")},
            {"figure_id": "fig1", "sigma": float("nan")},
            {"figure_id": "fig1", "theta2_over_sigma": float("inf")},
            {"figure_id": "fig1", "theta2_over_sigma": float("nan")},
            {"figure_id": "fig5", "n_random": 2.5},
            {"figure_id": "fig5", "n_random": True},
            {"figure_id": "fig1", "seed": 1.0},
            {"figure_id": "fig1", "frontier_samples": 32.0},
            {"figure_id": "fig4", "mode_cutoff": 3.5},
            {"figure_id": "fig4", "mode_cutoff": 2**63},
            {"figure_id": "fig5", "n_random": 2**32},
        ],
    )
    def test_rejects_invalid_settings(self, kwargs):
        with pytest.raises(lab.ConfigError):
            lab.ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"figure_id": "fig1", "sigma": 1e-200},
            {"figure_id": "fig1", "sigma": 1e300},
            {"figure_id": "fig1", "sigma": 1e10, "theta2_grid": (1.0, 1e300)},
            {"figure_id": "fig1", "sigma": 1e-70, "theta2_grid": (1e-300, 1.0)},
            {"figure_id": "custom", "sigma": 1e70, "theta1_grid": (-1e300, 0.0)},
            {"figure_id": "fig5", "sigma": 1e-70, "theta2_over_sigma": 1e-300},
        ],
    )
    def test_accepts_any_positive_finite_sigma(self, kwargs):
        # sigma only labels the outputs, so no range of it or of grid * sigma is checked.
        config = lab.ExperimentConfig(**kwargs)
        assert {name: getattr(config, name) for name in kwargs} == kwargs

    def test_accepts_the_edges_of_the_ranges(self):
        assert lab.ExperimentConfig(figure_id="fig5", n_random=2**32 - 1).n_random == 2**32 - 1
        assert lab.ExperimentConfig(figure_id="fig4", mode_cutoff=2**63 - 1).mode_cutoff == 2**63 - 1

    def test_accepts_numpy_integers(self):
        config = lab.ExperimentConfig(
            figure_id="fig5",
            n_random=np.int64(3),
            seed=np.uint64(2**63),
            mode_cutoff=np.int32(4),
        )
        assert (config.n_random, config.mode_cutoff) == (3, 4)

    def test_runner_checks_figure_id(self):
        config = lab.ExperimentConfig(figure_id="fig2")
        with pytest.raises(lab.ConfigError):
            lab.run_fig1(config)


SMALL_CONFIGS = {
    "fig1": {"theta2_grid": (0.5, 1.0)},
    "fig2": {"theta2_grid": (0.5, 1.0)},
    "fig3": {"panels": (0.5, 2.0, 3.0), "frontier_samples": 8},
    "fig4": {"theta1_grid": (0.0, 0.5), "frontier_samples": 8},
    "fig5": {"n_random": 4, "frontier_samples": 8},
    "custom": {"theta1_grid": (0.0,), "theta2_grid": (0.5, 1.0), "n_random": 2},
}
HEADERS = {
    "fig1.csv": ["theta2_over_sigma", "c_tilde_closed_form", "c_tilde_quadrature"],
    "fig2.csv": ["theta2_over_sigma", "delta1", "delta2"],
    "fig4.csv": ["theta1_over_sigma", "delta1", "delta2"],
    "fig5_samples.csv": ["sample_index", "delta1", "delta2", "irtr_residual"],
    "custom.csv": [
        "theta1_over_sigma",
        "theta2_over_sigma",
        "measurement",
        "sample_index",
        "delta1",
        "delta2",
        "irtr_residual",
    ],
}
FRONTIER_HEADER = ["delta1", "delta2"]
INTEGER_CELLS = {"sample_index", "panel", "seed", "n_random"}
TEXT_CELLS = {"figure", "measurement", "measurements", "no_constraint"}
WRITE_ORDER = {
    "fig1": ["fig1.csv"],
    "fig2": ["fig2.csv"],
    "fig3": ["fig3_panel_1.csv", "fig3_panel_2.csv", "fig3_panel_3.csv"],
    "fig4": ["fig4.csv", "fig4_frontier.csv"],
    "fig5": ["fig5_samples.csv", "fig5_frontier.csv"],
    "custom": ["custom.csv"],
}


class TestRunScaffold:
    """What every runner shares: registration, file order, manifest, sweeps."""

    def test_runners_cover_every_figure_in_order(self):
        assert tuple(experiments.RUNNERS) == experiments.FIGURES
        for figure, runner in experiments.RUNNERS.items():
            assert runner is getattr(lab, f"run_{figure}")
            assert runner.__name__ == f"run_{figure}"
            assert list(inspect.signature(runner).parameters) == ["config"]
            assert runner.__doc__

    @pytest.mark.parametrize("figure", experiments.FIGURES)
    def test_paths_and_manifest_checksums(self, tmp_path, figure):
        config = lab.ExperimentConfig(
            figure_id=figure, output_dir=str(tmp_path), **SMALL_CONFIGS[figure]
        )
        paths = experiments.RUNNERS[figure](config)
        assert [p.name for p in paths] == [*WRITE_ORDER[figure], "manifest.json"]
        assert all(p.parent == tmp_path for p in paths)
        manifest = json.loads(paths[-1].read_text(encoding="utf-8"))
        assert manifest["figure"] == figure
        assert sorted(manifest["files"]) == sorted(WRITE_ORDER[figure])
        for path in paths[:-1]:
            data = path.read_bytes()
            assert data.startswith(f"# figure={figure}\n".encode())
            entry = manifest["files"][path.name]
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            assert entry["bytes"] == len(data)

    @pytest.mark.parametrize("figure", experiments.FIGURES)
    def test_every_cell_round_trips(self, tmp_path, figure):
        # Floats are written with 17 significant digits, integers plainly; the
        # small custom run lists every measurement (direct, spade, random).
        config = lab.ExperimentConfig(
            figure_id=figure, output_dir=str(tmp_path), **SMALL_CONFIGS[figure]
        )
        assert config.measurements == ("direct", "spade", "random")
        for path in experiments.RUNNERS[figure](config)[:-1]:
            metadata, header, rows = read_table(path)
            assert header == HEADERS.get(path.name, FRONTIER_HEADER)
            assert all(len(row) == len(header) for row in rows)
            cells = [*metadata.items(), *(cell for row in rows for cell in zip(header, row))]
            for name, text in cells:
                if name in INTEGER_CELLS:
                    assert str(int(text)) == text
                elif name not in TEXT_CELLS:
                    assert format(float(text), ".17g") == text

    @pytest.mark.parametrize("figure", experiments.FIGURES)
    def test_outputs_do_not_depend_on_sigma(self, tmp_path, figure):
        # Runs compute in units of sigma: every CSV is the sigma = 1 file line
        # for line, but for its '# sigma=' line.  custom runs direct, spade and
        # random.
        def tables(sigma):
            config = lab.ExperimentConfig(
                figure_id=figure,
                sigma=sigma,
                output_dir=str(tmp_path / repr(sigma)),
                **SMALL_CONFIGS[figure],
            )
            paths = experiments.RUNNERS[figure](config)[:-1]
            return {path.name: path.read_text("utf-8").splitlines() for path in paths}

        reference = tables(1.0)
        assert set(reference) == set(WRITE_ORDER[figure])
        for sigma in (1e-200, 1e-3, 0.37, 2.0, 1e300):
            scaled = tables(sigma)
            assert scaled.keys() == reference.keys()
            for name, lines in scaled.items():
                assert len(lines) == len(reference[name])
                for line, expected in zip(lines, reference[name]):
                    if expected == "# sigma=1":
                        assert line == f"# sigma={sigma:.17g}"
                    else:
                        assert line == expected

    @pytest.mark.parametrize(
        "figure, field, default",
        [
            ("fig1", "theta2_grid", DEFAULT_SEPARATION_GRID),
            ("fig2", "theta2_grid", DEFAULT_SEPARATION_GRID),
            ("fig4", "theta1_grid", DEFAULT_MISALIGNMENT_GRID),
        ],
    )
    def test_default_sweep_is_echoed(self, tmp_path, figure, field, default):
        assert getattr(lab.ExperimentConfig(figure_id=figure), field) is None
        config = lab.ExperimentConfig(
            figure_id=figure, frontier_samples=8, output_dir=str(tmp_path)
        )
        manifest = json.loads(experiments.RUNNERS[figure](config)[-1].read_text("utf-8"))
        assert manifest["config"][field] == list(default)


class TestManifest:
    def test_one_line_of_sorted_keys(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="fig2", theta2_grid=(0.5, 1.0, 2.0), output_dir=str(tmp_path)
        )
        csv_path, manifest_path = lab.run_fig2(config)
        text = manifest_path.read_text(encoding="utf-8")
        manifest = json.loads(text)
        assert text.count("\n") == 1
        assert text == json.dumps(manifest, sort_keys=True) + "\n"
        assert manifest.pop("wall_time_seconds") >= 0.0
        data = csv_path.read_bytes()
        assert manifest == {
            "config": {
                "figure_id": "fig2", "frontier_samples": 512,
                "measurements": ["direct", "spade", "random"], "mode_cutoff": "adaptive",
                "n_random": 10000, "output_dir": str(tmp_path), "panels": list(DEFAULT_PANELS),
                "quad": {
                    "abs_tolerance": 1e-12, "nodes_per_panel": 32, "panel_count": 32,
                    "truncation_radius": 12.0,
                },
                "seed": 0, "sigma": 1.0, "theta1_grid": None, "theta2_grid": [0.5, 1.0, 2.0],
                "theta2_over_sigma": 0.1,
            },
            "extras": {},
            "figure": "fig2",
            "files": {
                "fig2.csv": {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
            },
            "seed": 0,
            "version": lab.__version__,
        }

    def test_keys_are_pinned(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="fig1", theta2_grid=(1.0,), output_dir=str(tmp_path)
        )
        manifest = json.loads(lab.run_fig1(config)[-1].read_text(encoding="utf-8"))
        assert sorted(manifest) == [
            "config", "extras", "figure", "files", "seed", "version", "wall_time_seconds"
        ]
        assert sorted(manifest["config"]) == [
            "figure_id", "frontier_samples", "measurements", "mode_cutoff", "n_random",
            "output_dir", "panels", "quad", "seed", "sigma", "theta1_grid", "theta2_grid",
            "theta2_over_sigma",
        ]
        assert manifest["config"]["quad"] == {
            "truncation_radius": 12.0, "panel_count": 32, "nodes_per_panel": 32,
            "abs_tolerance": 1e-12,
        }
        assert manifest["config"]["panels"] == list(DEFAULT_PANELS)
        assert manifest["config"]["theta1_grid"] is None


def per_row_csv(metadata, columns):
    """One table's CSV bytes by Python's own formatting, row by row: the writer's oracle."""
    arrays = [np.asarray(column) for column in columns.values()]
    template = ",".join({"f": "%.17g", "i": "%d", "U": "%s"}[array.dtype.kind] for array in arrays)
    lines = [f"# {key}={experiments._format_cell(value)}" for key, value in metadata]
    lines.append(",".join(columns))
    lines.extend(template % row for row in zip(*(array.tolist() for array in arrays)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def encode(tables):
    """The writer's bytes of each ``(metadata, columns)`` table."""
    return [b"".join(pieces) for pieces in experiments._encode_csvs(tables)]


def float_cases(seed=0):
    """float64 values of every "%.17g" layout and every route, with their negatives."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(float)
    scaled = rng.random(20_000) * 10.0 ** rng.integers(-13, 19, 20_000)
    powers = np.array([10.0**j for j in range(-15, 20)] + [float(f"1e{j}") for j in range(-15, 20)])
    neighbours = [np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    # m / 2**j with 18 significant digits, the last a 5: ties that round to even.
    ties = []
    for j in range(2, 40):
        low, high = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        if low < high:
            ties.append(np.ldexp((rng.integers(low, high, 200) | 1).astype(float), -j))
    special = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1e-11, 1e17]
    special.append(np.finfo(float).max)
    values = np.concatenate([bits, scaled, powers, *neighbours, *ties, special, [100.0, 0.5]])
    return np.concatenate([values, -values])


class TestCsvWriter:
    """The array writer against Python's per-row formatting, byte for byte."""

    @staticmethod
    def assert_matches_per_row(metadata, columns):
        assert encode([(metadata, columns)]) == [per_row_csv(metadata, columns)]

    def test_float_cells(self):
        values = float_cases()
        finite = values[np.isfinite(values)]
        magnitude = np.abs(finite)
        # Every layout and route is covered: exponent form below 1e-4, leading
        # zeros, integer digits with a point, no point, and Python's own.
        assert np.any((magnitude >= 1e-11) & (magnitude < 1e-4))
        assert np.any((magnitude >= 1e-4) & (magnitude < 0.1))
        assert np.any((magnitude >= 10) & (magnitude < 1e16) & (np.floor(finite) != finite))
        assert np.any((magnitude < 1e-11) | (magnitude >= 1e17)) and len(finite) < len(values)
        self.assert_matches_per_row([("sigma", 1.0)], {"x": values})
        self.assert_matches_per_row([], {"x": values[::-1], "y": values})

    def test_cells_of_each_digit_count(self):
        # Every count of significant digits 1 ... 17 at every decimal exponent
        # of the arithmetic route, -11 ... 16.
        values = np.array(
            [
                float(f"{'12345678901234567'[:count]}e{k - count + 1}")
                for k in range(-11, 17)
                for count in range(1, 18)
            ]
        )
        self.assert_matches_per_row([], {"x": values, "y": -values})

    def test_integer_cells(self):
        extremes = np.array([0, -1, 1, 9, 10, -10, 99999, 10**18, -(10**18), 2**63 - 1, -(2**63)])
        self.assert_matches_per_row([("seed", 2**64 - 1)], {"sample_index": extremes})
        self.assert_matches_per_row([], {"sample_index": np.array([-1, -1, 0, 1, 2, 1000])})
        self.assert_matches_per_row([], {"sample_index": np.zeros(3, int)})

    def test_mixed_columns(self):
        values = float_cases(1)[:600]
        columns = dict(
            theta1_over_sigma=values[:200],
            measurement=np.tile(["direct", "spade", "random", "ünïcode"], 50),
            sample_index=np.tile([-1, -1, 0, 1], 50),
            delta1=values[200:400],
            delta2=values[400:],
        )
        self.assert_matches_per_row([("measurements", "direct+spade"), ("sigma", 0.37)], columns)
        # ASCII names alone take their code points' route, the others np.char.encode's.
        columns["measurement"] = np.tile(["direct", "spade", "random", ""], 50)
        self.assert_matches_per_row([], columns)

    def test_empty_table(self):
        # fig3's frontier without constraint: metadata and header, no rows.
        metadata = [("panel", 2), ("c_tilde", 3.3e-193), ("no_constraint", True)]
        self.assert_matches_per_row(metadata, {"delta1": np.empty(0), "delta2": np.empty(0)})

    def test_tables_of_a_run_share_blocks(self):
        # Blocks of float cells span tables: each table is still its own bytes.
        values = float_cases(2)
        sizes = [0, 1, experiments._CELL_BLOCK - 1, 3, experiments._CELL_BLOCK + 5, 0, 17]
        tables, first = [], 0
        for size in sizes:
            table = values[first : first + 2 * size]
            tables.append(([("rows", size)], {"a": table[:size], "b": table[size:]}))
            first += 2 * size
        assert encode(tables) == [per_row_csv(*table) for table in tables]

    def test_a_run_formats_its_float_cells_together(self, tmp_path, monkeypatch):
        # Eight frontier tables, seven of 512 rows (no constraint at 2 sigma),
        # make 7168 float cells: one kernel call per block of the run's cells,
        # not one per table.
        calls = []
        original = experiments._float_slots

        def recording(values):
            calls.append(len(values))
            return original(values)

        monkeypatch.setattr(experiments, "_float_slots", recording)
        config = lab.ExperimentConfig(figure_id="fig3", output_dir=str(tmp_path))
        paths = lab.run_fig3(config)
        assert len(paths) == len(DEFAULT_PANELS) + 1
        cells = sum(2 * len(read_table(path)[2]) for path in paths[:-1])
        assert cells == 7168
        block = experiments._CELL_BLOCK
        assert calls == [min(block, cells - first) for first in range(0, cells, block)]
        assert len(calls) < len(DEFAULT_PANELS)


def test_every_public_name_resolves():
    assert len(set(lab.__all__)) == len(lab.__all__)
    for name in lab.__all__:
        assert getattr(lab, name) is not None


class TestRunFig1:
    def test_routes_agree_and_round_trip(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="fig1", theta2_grid=(0.5, 1.0, 2.0), output_dir=str(tmp_path)
        )
        paths = lab.run_fig1(config)
        assert [p.name for p in paths] == ["fig1.csv", "manifest.json"]
        metadata, header, rows = read_table(paths[0])
        assert metadata["figure"] == "fig1"
        assert header == ["theta2_over_sigma", "c_tilde_closed_form", "c_tilde_quadrature"]
        assert len(rows) == 3
        for row in rows:
            ratio, closed, quad = (float(cell) for cell in row)
            assert abs(closed - quad) <= 1e-8
            # 17 significant digits round-trip doubles exactly.
            assert closed == lab.gaussian_incompatibility(1.0, ratio)

    def test_small_separations_need_no_state_model(self, tmp_path):
        # Down to 1 - delta ~ 1e-12, just above the coincidence floor; eta3^2
        # cancels to a negative at 7 of these points, which c_tilde never uses.
        grid = tuple(np.geomspace(3e-6, 1e-2, 66))
        config = lab.ExperimentConfig(
            figure_id="fig1", theta2_grid=grid, output_dir=str(tmp_path)
        )
        _, _, rows = read_table(lab.run_fig1(config)[0])
        assert len(rows) == len(grid)
        for ratio, closed, quad in ((float(cell) for cell in row) for row in rows):
            assert closed == lab.gaussian_incompatibility(1.0, ratio)
            assert abs(quad - closed) <= 1e-8

    def test_manifest_checksums(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="fig1", theta2_grid=(1.0,), output_dir=str(tmp_path)
        )
        csv_path, manifest_path = lab.run_fig1(config)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        entry = manifest["files"]["fig1.csv"]
        data = csv_path.read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)
        assert manifest["figure"] == "fig1"
        assert manifest["version"] == lab.__version__
        assert manifest["config"]["mode_cutoff"] == "adaptive"
        assert manifest["config"]["sigma"] == 1.0


class TestRunFig2:
    def test_regret_regimes(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="fig2", theta2_grid=(0.1, 8.0), output_dir=str(tmp_path)
        )
        csv_path, _ = lab.run_fig2(config)
        _, header, rows = read_table(csv_path)
        assert header == ["theta2_over_sigma", "delta1", "delta2"]
        close, far = rows
        assert float(close[2]) >= 0.9
        assert float(far[1]) <= 0.1 and float(far[2]) <= 0.1
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0
            assert 0.0 <= float(row[2]) <= 1.0


    @pytest.mark.parametrize("figure", ["fig1", "fig2", "custom"])
    def test_an_undefined_c_tilde_names_its_sweep_row(self, tmp_path, monkeypatch, figure):
        # kappa - gamma^2 = 0 passes the overlap checks but leaves c_tilde undefined.
        def degenerate(route):
            def run(*args, **kwargs):
                result = route(*args, **kwargs)
                overlaps = result[0] if isinstance(result, tuple) else result
                overlaps[:, 2] = (0.25, 0.5, 0.0, 0.3)
                return result

            return run

        for name in ("overlap_columns", "overlaps_and_direct_fims"):
            monkeypatch.setattr(experiments, name, degenerate(getattr(experiments, name)))
        config = lab.ExperimentConfig(
            figure_id=figure,
            theta1_grid=(0.0,),
            theta2_grid=(0.5, 1.0, 2.0, 4.0),
            measurements=("spade",),
            output_dir=str(tmp_path),
        )
        message = r"^row 2: kappa - gamma\^2 must be positive to define c_tilde$"
        with pytest.raises(lab.DegenerateStateError, match=message):
            experiments.RUNNERS[figure](config)
        assert not list(tmp_path.iterdir())

    def test_fim_above_the_qfim_names_its_sweep_row(self, tmp_path, monkeypatch):
        fused = experiments.overlaps_and_direct_fims

        def inflated(psf, geometries, quad):
            overlaps, fishers = fused(psf, geometries, quad)
            fishers[2] = 10.0 * np.eye(2)
            return overlaps, fishers

        monkeypatch.setattr(experiments, "overlaps_and_direct_fims", inflated)
        config = lab.ExperimentConfig(
            figure_id="fig2", theta2_grid=(0.5, 1.0, 2.0, 4.0), output_dir=str(tmp_path)
        )
        with pytest.raises(lab.BoundViolationError, match=r"^row 2: regret eigenvalue"):
            lab.run_fig2(config)
        assert not tmp_path.joinpath("fig2.csv").exists()


class TestRunFig3:
    def test_panels_and_degenerate_marker(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="fig3",
            panels=(0.5, 2.0),
            frontier_samples=32,
            output_dir=str(tmp_path),
        )
        paths = lab.run_fig3(config)
        assert [p.name for p in paths] == [
            "fig3_panel_1.csv",
            "fig3_panel_2.csv",
            "manifest.json",
        ]
        metadata1, header1, rows1 = read_table(paths[0])
        assert header1 == ["delta1", "delta2"]
        assert metadata1["no_constraint"] == "false"
        assert len(rows1) == 32
        np.testing.assert_allclose(
            float(metadata1["c_tilde"]),
            lab.gaussian_incompatibility(1.0, 0.5),
            atol=1e-9,
        )
        assert float(metadata1["irtr_residual"]) >= -1e-9
        assert 0.0 <= float(metadata1["di_delta1"]) <= 1.0

        # c_tilde vanishes identically at separation 2 sigma: no frontier.
        metadata2, _, rows2 = read_table(paths[1])
        assert metadata2["no_constraint"] == "true"
        assert rows2 == []


class TestRunFig4:
    def test_aligned_point_and_frontier(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="fig4",
            theta1_grid=(0.0, 0.5, 1.0),
            theta2_over_sigma=0.1,
            frontier_samples=16,
            output_dir=str(tmp_path),
        )
        data_path, frontier_path, _ = lab.run_fig4(config)
        metadata, header, rows = read_table(data_path)
        assert header == ["theta1_over_sigma", "delta1", "delta2"]
        assert len(rows) == 3
        aligned = rows[0]
        assert float(aligned[0]) == 0.0
        assert float(aligned[1]) == 1.0  # no centroid information at all
        assert float(aligned[2]) < 1e-6  # essentially no separation regret
        assert float(rows[-1][2]) > float(aligned[2])

        frontier_metadata, _, frontier_rows = read_table(frontier_path)
        assert len(frontier_rows) == 16
        assert frontier_metadata["no_constraint"] == "false"
        np.testing.assert_allclose(
            float(frontier_metadata["c_tilde"]),
            lab.gaussian_incompatibility(1.0, 0.1),
            atol=1e-9,
        )


class TestRunFig5:
    def run(self, tmp_path, name, seed):
        out = tmp_path / name
        config = lab.ExperimentConfig(
            figure_id="fig5",
            n_random=64,
            seed=seed,
            frontier_samples=16,
            output_dir=str(out),
        )
        return lab.run_fig5(config)

    def test_same_seed_is_byte_identical(self, tmp_path):
        first = self.run(tmp_path, "a", seed=7)
        second = self.run(tmp_path, "b", seed=7)
        assert first[0].read_bytes() == second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()

    def test_different_seed_changes_samples_not_frontier(self, tmp_path):
        first = self.run(tmp_path, "a", seed=7)
        second = self.run(tmp_path, "b", seed=8)
        assert first[0].read_bytes() != second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()

    def test_sample_rows_and_extras(self, tmp_path):
        samples_path, _, manifest_path = self.run(tmp_path, "a", seed=11)
        metadata, header, rows = read_table(samples_path)
        assert header == ["sample_index", "delta1", "delta2", "irtr_residual"]
        assert [int(row[0]) for row in rows] == list(range(64))
        assert metadata["seed"] == "11"
        assert all(float(row[3]) >= -1e-9 for row in rows)

        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        extras = manifest["extras"]
        assert extras["min_irtr_residual"] >= -1e-9
        assert 0.0 <= extras["fraction_irtr_residual_below_0.1"] <= 1.0
        residuals = [float(row[3]) for row in rows]
        assert extras["min_irtr_residual"] == min(residuals)
        below = sum(residual < 0.1 for residual in residuals)
        assert extras["fraction_irtr_residual_below_0.1"] == below / len(residuals)


class TestRunCustom:
    def test_grid_cross_product_with_deterministic_measurements(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="custom",
            theta1_grid=(0.0, 1.0),
            theta2_grid=(0.5, 1.0),
            measurements=("direct", "spade"),
            output_dir=str(tmp_path),
        )
        csv_path, _ = lab.run_custom(config)
        metadata, header, rows = read_table(csv_path)
        assert header == [
            "theta1_over_sigma",
            "theta2_over_sigma",
            "measurement",
            "sample_index",
            "delta1",
            "delta2",
            "irtr_residual",
        ]
        assert metadata["measurements"] == "direct+spade"
        assert len(rows) == 8
        assert {row[2] for row in rows} == {"direct", "spade"}
        assert all(row[3] == "-1" for row in rows)
        assert all(float(row[6]) >= -1e-9 for row in rows)

    def test_random_measurements_reproducible(self, tmp_path):
        def run(name, seed):
            config = lab.ExperimentConfig(
                figure_id="custom",
                theta1_grid=(0.0,),
                theta2_grid=(0.2,),
                measurements=("random",),
                n_random=5,
                seed=seed,
                output_dir=str(tmp_path / name),
            )
            return lab.run_custom(config)[0].read_bytes()

        assert run("a", seed=4) == run("b", seed=4)
        assert run("c", seed=4) != run("d", seed=5)

    def test_random_listed_first_keeps_point_major_order(self, tmp_path):
        # Per point the SPADE row comes first, then samples 0..599, which span
        # two sample blocks; each row is the one a single-measurement run writes.
        def rows(name, measurements):
            config = lab.ExperimentConfig(
                figure_id="custom",
                theta1_grid=(0.0, 1.3),
                theta2_grid=(0.15, 2.2),
                measurements=measurements,
                n_random=600,
                seed=11,
                output_dir=str(tmp_path / name),
            )
            return read_table(lab.run_custom(config)[0])[2]

        both = rows("both", ("random", "spade"))
        spade, random = rows("spade", ("spade",)), rows("random", ("random",))
        assert len(both) == 4 * 601
        for index in range(4):
            point_rows = both[601 * index : 601 * (index + 1)]
            assert [int(row[3]) for row in point_rows] == [-1, *range(600)]
            assert point_rows[0] == spade[index]
            assert point_rows[1:] == random[600 * index : 600 * (index + 1)]

    def test_requires_explicit_grids(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="custom", theta1_grid=(0.0,), output_dir=str(tmp_path)
        )
        with pytest.raises(lab.ConfigError):
            lab.run_custom(config)


def scalar_row(model, overlaps):
    """(delta1, delta2, irtr_residual) through the public scalar API."""
    report = lab.regret_report(lab.fim(model), lab.qfim(overlaps))
    point = lab.TradeoffPoint(delta1=report.delta1, delta2=report.delta2)
    c_tilde = lab.incompatibility(overlaps).c_tilde
    return report.delta1, report.delta2, lab.irtr_residual(point, c_tilde)


class TestRunnersMatchScalarRoute:
    """Runner rows equal the scalar reference route exactly (17-digit CSVs)."""

    psf = lab.gaussian_psf(1.0)
    quad = lab.QuadratureSpec()

    def overlaps(self, theta1, theta2):
        geometry = lab.SourceGeometry(theta1, theta2)
        return lab.overlap_integrals(self.psf, geometry, self.quad)

    def assert_random_rows(self, rows, overlaps, stream):
        """Row k (sample_index, delta1, delta2, residual) is the scalar route's on draw k.

        Draw k is the k-th ``haar_random_orthogonal`` draw from
        ``default_rng(stream)``.
        """
        state, rng = lab.build_state_model(overlaps), np.random.default_rng(stream)
        for k, row in enumerate(rows):
            measurement = lab.haar_random_orthogonal(rng, dim=4, seed=k)
            model = lab.projective_model(state, measurement)
            assert int(row[0]) == k
            assert tuple(float(cell) for cell in row[1:]) == scalar_row(model, overlaps)

    @pytest.mark.parametrize("sigma", [1.0, 0.6])
    def test_context_qfims_equal_the_scalar_qfims(self, sigma):
        psf = lab.gaussian_psf(sigma)
        points = [(0.0, t) for t in np.geomspace(1e-3, 40.0, 400)]
        geometries = [lab.SourceGeometry(*point) for point in points]
        fields = psf_core.overlap_columns(psf, points, self.quad)
        overlaps = [lab.OverlapIntegrals(*column) for column in fields.T.tolist()]
        quantum = qfim_stack(fields)
        scalar = np.array([lab.qfim(overlap).matrix for overlap in overlaps])
        assert quantum.tobytes() == scalar.tobytes()
        # The fused pass gives the same overlap columns, plus the direct-imaging FIMs.
        fused, fishers = lab.overlaps_and_direct_fims(psf, points, self.quad)
        assert fused.tobytes() == fields.tobytes()
        assert qfim_stack(fused).tobytes() == scalar.tobytes()
        models = (lab.direct_imaging_model(psf, g, self.quad) for g in geometries)
        expected = np.array([lab.fim(model) for model in models])
        assert fishers.tobytes() == expected.tobytes()
        # The kernel's direct route is the fused pass: the c_tilde of the plain
        # route's overlaps, and the regrets of the scalar QFIMs and FIMs.
        c_tilde = [c_tilde_from_overlaps(overlap) for overlap in overlaps]
        config = lab.ExperimentConfig(figure_id="custom", quad=self.quad)
        kernel_c_tilde, regrets = experiments._sweep(config, psf, points, ("direct",))
        assert np.array(kernel_c_tilde).tobytes() == np.array(c_tilde).tobytes()
        assert regrets.shape == (3, len(points), 1)
        direct = regret_rows(expected, scalar, c_tilde)
        assert regrets[..., 0].tobytes() == direct.tobytes()

    def test_fig1_builds_no_qfim_stack(self, tmp_path, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("fig1 needs only c_tilde")

        monkeypatch.setattr(experiments, "_sweep", unexpected)
        config = lab.ExperimentConfig(figure_id="fig1", output_dir=str(tmp_path))
        assert lab.run_fig1(config)[0].is_file()

    @pytest.mark.parametrize("sigma", [1.0, 0.6])
    def test_fig2_direct_rows(self, tmp_path, sigma):
        # Eleven separations, not a multiple of the direct-imaging block, from
        # near coincidence to far apart; the FIMs come from stacked models.
        # The runner computes in units of sigma: each row is the scalar route
        # at sigma = 1 on the row's ratio, whatever sigma the config records.
        grid = tuple(float(ratio) for ratio in np.geomspace(3e-6, 60.0, 11))
        config = lab.ExperimentConfig(
            figure_id="fig2", sigma=sigma, theta2_grid=grid, output_dir=str(tmp_path)
        )
        _, _, rows = read_table(lab.run_fig2(config)[0])
        assert tuple(float(row[0]) for row in rows) == grid
        for row in rows:
            geometry = lab.SourceGeometry(0.0, float(row[0]))
            model = lab.direct_imaging_model(self.psf, geometry, self.quad)
            quantum = lab.qfim(lab.overlap_integrals(self.psf, geometry, self.quad))
            report = lab.regret_report(lab.fim(model), quantum)
            assert (float(row[1]), float(row[2])) == (report.delta1, report.delta2)

    def test_fig3_panel_metadata(self, tmp_path):
        panels = (0.05, 0.3, 1.0, 20.0)
        config = lab.ExperimentConfig(
            figure_id="fig3", panels=panels, frontier_samples=2, output_dir=str(tmp_path)
        )
        for path, ratio in zip(lab.run_fig3(config), panels):
            metadata, _, _ = read_table(path)
            geometry, overlaps = lab.SourceGeometry(0.0, ratio), self.overlaps(0.0, ratio)
            model = lab.direct_imaging_model(self.psf, geometry, self.quad)
            cells = ("c_tilde", "di_delta1", "di_delta2", "irtr_residual")
            expected = (lab.incompatibility(overlaps).c_tilde, *scalar_row(model, overlaps))
            assert tuple(float(metadata[name]) for name in cells) == expected

    def test_fig4_spade_rows(self, tmp_path):
        # About 400 misalignments over [-20, 20] sigma span many cutoff groups;
        # theta1 = 0.05 puts a source on the axis (alpha = 0).
        grid = tuple(sorted({*np.linspace(-20.0, 20.0, 399).tolist(), -0.05, 0.05}))
        config = lab.ExperimentConfig(
            figure_id="fig4", theta1_grid=grid, theta2_over_sigma=0.1, output_dir=str(tmp_path)
        )
        _, _, rows = read_table(lab.run_fig4(config)[0])
        assert tuple(float(row[0]) for row in rows) == grid
        overlaps = self.overlaps(0.0, 0.1)
        points = [(float(row[0]), 0.1) for row in rows]
        geometries = [lab.SourceGeometry(*point) for point in points]
        assert any(0.0 in (geometry.x1, geometry.x2) for geometry in geometries)
        assert len(set(sweep_cutoffs(points).tolist())) > 30
        for row, geometry in zip(rows, geometries):
            expected = scalar_row(lab.spade_model(1.0, geometry, None), overlaps)
            assert (float(row[1]), float(row[2])) == expected[:2]

    @pytest.mark.parametrize("mode_cutoff", [None, 120])
    def test_custom_every_spade_row(self, tmp_path, mode_cutoff):
        config = lab.ExperimentConfig(
            figure_id="custom",
            sigma=0.37,
            theta1_grid=(-9.0, -0.025, 0.0, 0.8, 4.4),
            theta2_grid=(0.05, 1.3, 6.0),
            measurements=("spade",),
            mode_cutoff=mode_cutoff,
            output_dir=str(tmp_path),
        )
        _, _, rows = read_table(lab.run_custom(config)[0])
        assert len(rows) == 15
        # Recorded as sigma = 0.37, computed in units of sigma.
        for row in rows:
            geometry = lab.SourceGeometry(float(row[0]), float(row[1]))
            overlaps = lab.overlap_integrals(self.psf, geometry, self.quad)
            model = lab.spade_model(1.0, geometry, mode_cutoff)
            assert row[2:4] == ["spade", "-1"]
            assert tuple(float(cell) for cell in row[4:]) == scalar_row(model, overlaps)

    @pytest.mark.parametrize(
        "mode_cutoff, theta1, label", [(30, 8.0, "row 2: "), (None, 60.0, "row 2: ")]
    )
    def test_spade_failure_is_the_first_in_sweep_order(self, tmp_path, mode_cutoff, theta1, label):
        # Both far geometries fail and the first in the sweep raises, naming its
        # sweep row: an explicit cutoff's model and the adaptive search alike.
        grid = (0.0, 1.0, theta1, theta1 + 1.0)
        config = lab.ExperimentConfig(
            figure_id="fig4", theta1_grid=grid, mode_cutoff=mode_cutoff, output_dir=str(tmp_path)
        )
        with pytest.raises(lab.CutoffError) as expected:
            lab.spade_model(1.0, lab.SourceGeometry(theta1, 0.1), mode_cutoff)
        with pytest.raises(lab.CutoffError) as raised:
            lab.run_fig4(config)
        assert str(raised.value) == label + str(expected.value)

    def test_a_row_failing_the_mass_criterion_forms_no_modes(self, tmp_path, monkeypatch):
        # At theta1 = 1e4 sigma the cutoff 20000 fails its mass criterion,
        # which the scalar route raises before it forms any mode: the sweep's
        # block gives that row mode 0 alone, not 20001 modes.
        monkeypatch.setattr(measurements, "_LOG_GAMMA", np.empty(0))
        widths, weights = [], measurements._mode_weights

        def recording(modes, *args):
            widths.append(len(modes))
            return weights(modes, *args)

        monkeypatch.setattr(measurements, "_mode_weights", recording)
        config = lab.ExperimentConfig(
            figure_id="fig4", theta1_grid=(1e4,), mode_cutoff=20000, output_dir=str(tmp_path)
        )
        message = r"^row 0: cutoff 20000 leaves truncated mass bound 1\.000e\+00$"
        with pytest.raises(lab.CutoffError, match=message):
            lab.run_fig4(config)
        assert max(widths, default=1) == 1

    @pytest.mark.parametrize("mode_cutoff", [None, 120])
    def test_spade_fims_across_blocks_are_the_scalar_ones(self, mode_cutoff):
        # 300 rows are three padded blocks of up to 128, their cutoffs odd and even.
        points = [(theta1, 0.3) for theta1 in np.linspace(-7.0, 7.0, 300).tolist()]
        config = lab.ExperimentConfig(figure_id="fig4", mode_cutoff=mode_cutoff)
        fishers = experiments._spade_fims(config, np.array(points))
        assert experiments._SPADE_BLOCK < len(points) // 2
        for point, fisher in zip(points, fishers):
            model = lab.spade_model(1.0, lab.SourceGeometry(*point), mode_cutoff)
            np.testing.assert_array_equal(fisher, lab.fim(model))

    @pytest.mark.parametrize("mode_cutoff", [None, 250])
    @pytest.mark.parametrize(
        "points",
        [
            # custom's theta1-major points: the cutoffs climb with theta2
            # inside each theta1 and fall back at the next.
            list(itertools.product(np.linspace(-9.0, 9.0, 65).tolist(), (0.05, 0.7, 3.0, 6.5))),
            # A symmetric fig4 grid: the cutoffs fall to the axis, then climb.
            [(theta1, 0.4) for theta1 in np.linspace(-20.0, 20.0, 401).tolist()],
        ],
        ids=["custom", "fig4"],
    )
    def test_spade_fims_in_cutoff_order_are_the_scalar_ones(self, points, mode_cutoff):
        # The rows run in cutoff order across three or four blocks of 128; each
        # FIM goes back to its sweep row.
        config = lab.ExperimentConfig(figure_id="fig4", mode_cutoff=mode_cutoff)
        fishers = experiments._spade_fims(config, np.array(points))
        cutoffs = sweep_cutoffs(points)
        assert np.any(np.diff(cutoffs) < 0) and len(points) > 2 * experiments._SPADE_BLOCK
        for point, cutoff, fisher in zip(points, cutoffs.tolist(), fishers):
            geometry = lab.SourceGeometry(*point)
            model = lab.spade_model(1.0, geometry, cutoff if mode_cutoff is None else mode_cutoff)
            assert fisher.tobytes() == lab.fim(model).tobytes()

    def test_a_later_row_failing_in_an_earlier_block_names_its_row(self, tmp_path, monkeypatch):
        # At theta2 = 1e-4 sigma, theta1 = 1e-5 sigma fails fim with cutoff 2.
        # It is sweep row 300, after 300 rows of cutoffs 58 down to 12, so it
        # runs in the first block in cutoff order; only it runs again.
        grid = (*np.linspace(-8.0, -1.0, 300).tolist(), 1e-5)
        config = lab.ExperimentConfig(
            figure_id="fig4", theta1_grid=grid, theta2_over_sigma=1e-4, output_dir=str(tmp_path)
        )
        calls, block = [], measurements._spade_block

        def counted(sigma, sources, cutoffs, mass_tail, rows):
            calls.append(cutoffs[rows].tolist())
            return block(sigma, sources, cutoffs, mass_tail, rows)

        monkeypatch.setattr(measurements, "_spade_block", counted)
        with pytest.raises(lab.DegenerateOutcomeError) as expected:
            lab.fim(lab.spade_model(1.0, lab.SourceGeometry(1e-5, 1e-4)))
        with pytest.raises(lab.DegenerateOutcomeError) as raised:
            lab.run_fig4(config)
        assert str(raised.value) == "row 300: " + str(expected.value)
        assert calls[0][0] == 2 and min(calls[1]) >= 12 and len(calls) == 4
        assert calls[-1] == [2]

    def test_the_first_failing_row_in_sweep_order_raises_across_blocks(self, monkeypatch):
        # Rows 10 (cutoff 47, the third block) and 150 (cutoff 6, the first)
        # fail a crafted check; row 10 comes first in the sweep.
        points = np.array([(theta1, 0.3) for theta1 in np.linspace(-7.0, 7.0, 300).tolist()])
        block = measurements._spade_block

        def crafted(sigma, sources, cutoffs, mass_tail, rows):
            fishers, checks = block(sigma, sources, cutoffs, mass_tail, rows)
            flags = np.isin(rows, (10, 150))
            crafted_check = (lab.ConsistencyError, "cutoff {:.0f}", flags, cutoffs[rows])
            return fishers, [*checks, crafted_check]

        monkeypatch.setattr(measurements, "_spade_block", crafted)
        cutoffs = sweep_cutoffs(points)
        order = np.argsort(cutoffs, kind="stable").tolist()
        assert order.index(10) // 128 == 2 and order.index(150) // 128 == 0
        config = lab.ExperimentConfig(figure_id="fig4")
        with pytest.raises(lab.ConsistencyError, match=f"^row 10: cutoff {cutoffs[10]}$"):
            experiments._spade_fims(config, points)

    def test_a_spade_fim_error_names_its_sweep_row(self, tmp_path):
        # At theta2 = 1e-4 sigma the geometry theta1 = 1e-5 sigma has an outcome
        # whose probability vanishes but whose derivative does not.  It is row
        # 150, in the second block; alone at its cutoff, it was once row 0.
        grid = (*np.linspace(-3.0, -0.5, 150).tolist(), 1e-5, 0.5)
        config = lab.ExperimentConfig(
            figure_id="fig4", theta1_grid=grid, theta2_over_sigma=1e-4, output_dir=str(tmp_path)
        )
        with pytest.raises(lab.DegenerateOutcomeError) as expected:
            lab.fim(lab.spade_model(1.0, lab.SourceGeometry(1e-5, 1e-4)))
        with pytest.raises(lab.DegenerateOutcomeError) as raised:
            lab.run_fig4(config)
        assert str(raised.value) == "row 150: " + str(expected.value)

    def test_fig5_sample_k_is_draw_k_of_the_seed_stream(self, tmp_path):
        # 2000 samples span several batches; every row is checked.
        config = lab.ExperimentConfig(
            figure_id="fig5", n_random=2000, seed=3, output_dir=str(tmp_path)
        )
        _, _, rows = read_table(lab.run_fig5(config)[0])
        assert len(rows) == 2000
        self.assert_random_rows(rows, self.overlaps(0.0, 0.1), np.random.SeedSequence(3))

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_fig5_rows_are_a_prefix_of_a_longer_run(self, tmp_path, seed):
        # Sample k does not depend on n_random: 1100 samples run in blocks of
        # 1024 and 76, 300 in one block.
        tables = []
        for n_random in (300, 1100):
            out = tmp_path / str(n_random)
            config = lab.ExperimentConfig(
                figure_id="fig5", n_random=n_random, seed=seed, output_dir=str(out)
            )
            tables.append(read_table(lab.run_fig5(config)[0])[2])
        assert experiments._SAMPLE_BLOCK < 1100
        assert tables[0] == tables[1][:300]

    def assert_blocks_keep_the_samples(self, tmp_path, monkeypatch, block, theta2_grid, n_random):
        # Three points share each separation, in custom's theta1-major order,
        # so the separations alternate point by point, and the default block
        # covers points of every separation.  A block of ``block`` samples
        # must give the same rows: each point's stream gives the same samples
        # wherever the boundaries fall.
        config = dict(
            figure_id="custom",
            theta1_grid=(-0.5, 0.0, 1.2),
            theta2_grid=theta2_grid,
            measurements=("random", "direct"),
            n_random=n_random,
            seed=4,
        )
        expected = lab.run_custom(lab.ExperimentConfig(**config, output_dir=str(tmp_path / "a")))
        assert experiments._SAMPLE_BLOCK > len(theta2_grid) * n_random
        monkeypatch.setattr(experiments, "_SAMPLE_BLOCK", block)
        paths = lab.run_custom(lab.ExperimentConfig(**config, output_dir=str(tmp_path / "b")))
        assert paths[0].read_bytes() == expected[0].read_bytes()

    # Blocks that end inside points, on the points' edges (50, 100, 150) or
    # hold several points whole (151).
    @pytest.mark.parametrize("block", [1, 2, 7, 49, 50, 51, 100, 149, 150, 151])
    def test_block_boundaries_do_not_move_the_samples(self, tmp_path, monkeypatch, block):
        # Six points of 50 samples: the default block holds all 300.
        self.assert_blocks_keep_the_samples(tmp_path, monkeypatch, block, (0.1, 1.0), 50)

    @pytest.mark.parametrize("block", [1, 2, 7, 149, 150, 151, 300, 449, 450, 451])
    def test_block_boundaries_across_three_separations_do_not_move_the_samples(
        self, tmp_path, monkeypatch, block
    ):
        # Nine points of 150 samples: the default block holds the first 1024
        # of 1350, from points of all three separations.
        self.assert_blocks_keep_the_samples(tmp_path, monkeypatch, block, (0.1, 1.0, 3.0), 150)

    def test_a_block_within_one_separation_broadcasts_its_values(self, tmp_path, monkeypatch):
        # A block takes one set of Born-rule coefficients, one QFIM and one
        # c_tilde if all its samples share a separation, and one per sample
        # if not.
        shapes, regrets = [], experiments.projective_regrets_and_checks

        def spied(coefficients, bases, quantum, c_tilde):
            shapes.append((len(bases), coefficients.shape[-1], len(quantum), len(c_tilde)))
            return regrets(coefficients, bases, quantum, c_tilde)

        monkeypatch.setattr(experiments, "projective_regrets_and_checks", spied)
        out = str(tmp_path / "fig5")
        lab.run_fig5(lab.ExperimentConfig(figure_id="fig5", n_random=2000, output_dir=out))
        assert shapes == [(1024, 1, 1, 1), (976, 1, 1, 1)]
        shapes.clear()
        # Points (0, 0.5), (0, 2), (1, 0.5) and (1, 2), 300 samples each: the
        # second block holds point 3's last 176 samples alone.
        config = lab.ExperimentConfig(
            figure_id="custom",
            theta1_grid=(0.0, 1.0),
            theta2_grid=(0.5, 2.0),
            measurements=("random",),
            n_random=300,
            output_dir=str(tmp_path / "custom"),
        )
        lab.run_custom(config)
        assert shapes == [(1024, 1024, 1024, 1024), (176, 1, 1, 1)]

    def test_custom_direct_spade_and_random_rows(self, tmp_path):
        config = lab.ExperimentConfig(
            figure_id="custom",
            theta1_grid=(0.0, 0.4),
            theta2_grid=(0.7,),
            n_random=3,
            seed=5,
            output_dir=str(tmp_path),
        )
        _, _, rows = read_table(lab.run_custom(config)[0])
        assert len(rows) == 10
        # Grid point p's random rows draw from SeedSequence(5).spawn(2)[p].
        streams = np.random.SeedSequence(5).spawn(2)
        for point, (theta1, stream) in enumerate(zip((0.0, 0.4), streams)):
            direct, spade, *randoms = rows[5 * point : 5 * point + 5]
            geometry = lab.SourceGeometry(theta1, 0.7)
            overlaps = self.overlaps(theta1, 0.7)
            direct_model = lab.direct_imaging_model(self.psf, geometry, self.quad)
            cases = [
                (direct, "direct", -1, direct_model),
                (spade, "spade", -1, lab.spade_model(1.0, geometry, None)),
            ]
            for row, name, sample_index, model in cases:
                assert (float(row[0]), float(row[1]), row[2]) == (theta1, 0.7, name)
                assert int(row[3]) == sample_index
                assert tuple(float(cell) for cell in row[4:]) == scalar_row(model, overlaps)
            assert {(float(r[0]), float(r[1]), r[2]) for r in randoms} == {(theta1, 0.7, "random")}
            self.assert_random_rows([row[3:] for row in randoms], overlaps, stream)


    def test_custom_every_direct_row(self, tmp_path):
        # Nine geometries: two full direct-imaging blocks and a partial one.
        config = lab.ExperimentConfig(
            figure_id="custom",
            theta1_grid=(-0.8, 0.0, 1.9),
            theta2_grid=(0.04, 0.6, 5.5),
            measurements=("direct",),
            output_dir=str(tmp_path),
        )
        _, _, rows = read_table(lab.run_custom(config)[0])
        assert len(rows) == 9
        for row in rows:
            ratio1, ratio2 = float(row[0]), float(row[1])
            geometry = lab.SourceGeometry(ratio1, ratio2)
            model = lab.direct_imaging_model(self.psf, geometry, self.quad)
            assert row[2:4] == ["direct", "-1"]
            expected = scalar_row(model, self.overlaps(ratio1, ratio2))
            assert tuple(float(cell) for cell in row[4:]) == expected

    @pytest.mark.parametrize(
        "theta1_grid, theta2_grid, n_random",
        [
            ((0.0, 1.3), (0.15, 2.2), 600),
            # Each separation's five points hold 1000 samples, one block
            # spanning them all.
            ((-0.5, 0.0, 1.2, 2.0, 3.0), (0.1, 1.0), 200),
            # One theta1: each separation holds one point.
            ((0.4,), (0.1, 1.0, 3.0), 600),
            # Each separation's five points hold 1500 samples, run in blocks
            # of 1024 and 476: the boundary falls inside its point 3.
            ((-0.5, 0.0, 1.2, 2.0, 3.0), (0.1, 1.0), 300),
        ],
    )
    def test_custom_every_random_row(self, tmp_path, theta1_grid, theta2_grid, n_random):
        config = lab.ExperimentConfig(
            figure_id="custom",
            theta1_grid=theta1_grid,
            theta2_grid=theta2_grid,
            measurements=("random",),
            n_random=n_random,
            seed=11,
            output_dir=str(tmp_path),
        )
        _, _, rows = read_table(lab.run_custom(config)[0])
        points = [(ratio1, ratio2) for ratio1 in theta1_grid for ratio2 in theta2_grid]
        assert len(rows) == n_random * len(points)
        # Point p's stream is SeedSequence(11).spawn(points)[p], which is
        # SeedSequence(11, spawn_key=(p,)).
        children = np.random.SeedSequence(11).spawn(len(points))
        for index, ((ratio1, ratio2), child) in enumerate(zip(points, children)):
            assert child.spawn_key == (index,)
            point_rows = rows[n_random * index : n_random * (index + 1)]
            assert {(float(r[0]), float(r[1]), r[2]) for r in point_rows} == {
                (ratio1, ratio2, "random")
            }
            overlaps = self.overlaps(ratio1, ratio2)
            self.assert_random_rows([row[3:] for row in point_rows], overlaps, child)

    def assert_the_first_failing_sample_raises(self, tmp_path, monkeypatch, skewed, first):
        # Points (0, 0.5), (0, 2), (1, 0.5) and (1, 2), 300 samples each, run
        # in sweep order: the first block holds samples 0 to 1023, across
        # both separations, the second point 3's last 176.  Each listed
        # sample of a point gets a skewed basis.
        normals = []
        for point, sample in skewed:
            rng = np.random.default_rng(np.random.SeedSequence(8, spawn_key=(point,)))
            normals.append(rng.standard_normal((300, 4, 4))[sample])
        draw = experiments.haar_random_bases

        def skewing(block):
            bases = draw(block)
            for basis, normal in zip(bases, block):
                if any(np.array_equal(normal, other) for other in normals):
                    basis *= 1.001
            return bases

        monkeypatch.setattr(experiments, "haar_random_bases", skewing)
        config = lab.ExperimentConfig(
            figure_id="custom",
            theta1_grid=(0.0, 1.0),
            theta2_grid=(0.5, 2.0),
            measurements=("random",),
            n_random=300,
            seed=8,
            output_dir=str(tmp_path),
        )
        message = rf"^sample {first}: basis is not orthogonal within 1e-12$"
        with pytest.raises(lab.ConsistencyError, match=message):
            lab.run_custom(config)
        assert not list(tmp_path.iterdir())

    def test_the_first_failing_sample_in_sweep_order_raises(self, tmp_path, monkeypatch):
        # Point 1's sample 250 fails first, in the first block's second
        # separation; point 2's sample 4 fails later in the same block.
        self.assert_the_first_failing_sample_raises(tmp_path, monkeypatch, [(1, 250), (2, 4)], 250)

    @pytest.mark.parametrize(
        "skewed, first",
        [
            # Point 2 (separation 0.5) follows point 1 (separation 2.0).
            ([(2, 4), (3, 10)], 4),
            # Point 3's sample 200 lies in the second block, of one separation.
            ([(3, 200), (0, 299)], 299),
            ([(3, 200)], 200),
        ],
    )
    def test_the_first_failing_sample_raises_wherever_its_block_falls(
        self, tmp_path, monkeypatch, skewed, first
    ):
        self.assert_the_first_failing_sample_raises(tmp_path, monkeypatch, skewed, first)


class TestRunnersShareTheKernel:
    """Each figure's cells are the cells of the same points in the other runners."""

    def tables(self, tmp_path, figure, **fields):
        out = tmp_path / figure
        config = lab.ExperimentConfig(figure_id=figure, output_dir=str(out), **fields)
        return [read_table(path) for path in experiments.RUNNERS[figure](config)[:-1]]

    def custom_rows(self, tmp_path, theta1_grid, theta2_grid, measurements):
        ((_, _, rows),) = self.tables(
            tmp_path, "custom", theta1_grid=theta1_grid, theta2_grid=theta2_grid,
            measurements=measurements,
        )
        return rows

    def test_fig2_is_custom_direct_at_zero_misalignment(self, tmp_path):
        grid = (0.05, 0.3, 1.0, 2.5, 7.0)
        ((_, _, fig2),) = self.tables(tmp_path, "fig2", theta2_grid=grid)
        custom = self.custom_rows(tmp_path, (0.0,), grid, ("direct",))
        assert [[row[1], *row[4:6]] for row in custom] == fig2

    def test_fig4_is_custom_spade_at_its_separation(self, tmp_path):
        grid = (-6.0, -0.15, 0.0, 0.15, 1.5, 9.0)
        (_, _, fig4), _ = self.tables(tmp_path, "fig4", theta1_grid=grid, theta2_over_sigma=0.3)
        custom = self.custom_rows(tmp_path, grid, (0.3,), ("spade", "direct"))
        assert [[row[0], *row[4:6]] for row in custom if row[2] == "spade"] == fig4

    def test_fig3_panels_are_the_other_runners_rows(self, tmp_path):
        panels = (0.2, 1.0, 4.0)
        fig3 = self.tables(tmp_path, "fig3", panels=panels, frontier_samples=2)
        ((_, _, fig1),) = self.tables(tmp_path, "fig1", theta2_grid=panels)
        ((_, _, fig2),) = self.tables(tmp_path, "fig2", theta2_grid=panels)
        custom = self.custom_rows(tmp_path, (0.0,), panels, ("direct",))
        for (metadata, _, _), fig1_row, fig2_row, custom_row in zip(fig3, fig1, fig2, custom):
            assert metadata["theta2_over_sigma"] == fig1_row[0] == fig2_row[0]
            assert metadata["c_tilde"] == fig1_row[2]
            assert [metadata["di_delta1"], metadata["di_delta2"]] == fig2_row[1:]
            assert metadata["irtr_residual"] == custom_row[6]

    def test_custom_direct_rows_depend_on_theta2_alone(self, tmp_path):
        rows = self.custom_rows(tmp_path, (-2.0, 0.0, 0.7), (0.1, 1.0, 3.0), ("spade", "direct"))
        direct = {}
        for row in rows:
            if row[2] == "direct":
                direct.setdefault(row[1], []).append(row[4:])
        assert len(direct) == 3
        for cells in direct.values():
            assert cells == [cells[0]] * 3
        # SPADE sorts about the axis, so its rows do move with theta1.
        assert len({tuple(row[4:]) for row in rows if row[2] == "spade"}) == 9

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "fig5", "custom"])
    def test_each_sweep_runner_calls_the_kernel_once(self, tmp_path, monkeypatch, figure):
        calls, kernel = [], experiments._sweep

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(experiments, "_sweep", counted)
        self.tables(tmp_path, figure, **SMALL_CONFIGS[figure])
        assert len(calls) == 1

    def test_spade_models_per_sweep_do_not_grow_with_its_cutoffs(self, tmp_path, monkeypatch):
        # The benchmark's fig4 grid: 500 seeded misalignments in [0, 5] sigma,
        # drawn after its custom grids.  Its 32 cutoffs once took 32 models;
        # padded blocks of 128 rows take 4.
        rng = np.random.default_rng(1)
        rng.uniform(0.0, 3.0, 6), rng.uniform(0.1, 4.0, 6)
        grid = tuple(np.unique(rng.uniform(0.0, 5.0, 500)).tolist())
        assert len(set(sweep_cutoffs([(theta1, 0.1) for theta1 in grid]).tolist())) == 32
        calls, model = [], measurements._spade_block

        def counted(*args, **kwargs):
            calls.append(args)
            return model(*args, **kwargs)

        monkeypatch.setattr(measurements, "_spade_block", counted)
        self.tables(tmp_path, "fig4", theta1_grid=grid)
        assert len(calls) <= -(-len(grid) // experiments._SPADE_BLOCK) == 4

    def test_spade_sweeps_build_no_source_geometries(self, tmp_path, monkeypatch):
        # SPADE takes the kernel's checked points, as the other routes do: a
        # default fig4 run once built one SourceGeometry per row, 101.
        built, check = [], lab.SourceGeometry.__post_init__

        def counted(geometry):
            built.append(geometry)
            check(geometry)

        monkeypatch.setattr(lab.SourceGeometry, "__post_init__", counted)
        lab.SourceGeometry(0.0, 1.0)
        assert len(built) == 1
        built.clear()
        self.tables(tmp_path, "fig4")
        grids = {"theta1_grid": (-0.5, 0.0, 1.2), "theta2_grid": (0.1, 1.0, 3.0)}
        self.tables(tmp_path, "custom", **grids, measurements=MEASUREMENT_NAMES, n_random=8)
        assert built == []

    @pytest.mark.parametrize("mode_cutoff", [None, 120])
    def test_the_spade_route_checks_no_point_again(self, monkeypatch, mode_cutoff):
        # The kernel has checked the points: the SPADE route forms their
        # sources once, for the cutoffs and every block, and checks none again.
        calls, check = [], psf_core.sweep_points

        def counted(points):
            calls.append(len(points))
            return check(points)

        for module in (psf_core, measurements, experiments):
            monkeypatch.setattr(module, "sweep_points", counted)
        points = np.array([(theta1, 0.3) for theta1 in np.linspace(-7.0, 7.0, 300).tolist()])
        config = lab.ExperimentConfig(figure_id="fig4", mode_cutoff=mode_cutoff)
        experiments._spade_fims(config, points)
        assert calls == []


class TestCli:
    def test_parser_shape(self):
        # The figure names and each figure's option strings, in order: what
        # --help lists, whatever its formatting.
        parser, _ = cli._build_parser()
        (figures,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        shape = {
            name: [a.option_strings for a in sub._actions] for name, sub in figures.choices.items()
        }
        common = [["-h", "--help"], ["--config"], ["--seed"], ["--sigma"], ["--out"],
                  ["--n-random"], ["--grid"], ["--mode-cutoff"]]
        assert [a.option_strings for a in parser._actions] == [["-h", "--help"], []]
        assert list(shape) == ["fig1", "fig2", "fig3", "fig4", "fig5", "custom"]
        assert shape == {
            **dict.fromkeys(["fig1", "fig2", "fig3", "fig4", "fig5"], common),
            "custom": [*common, ["--theta1-grid"], ["--theta2-grid"], ["--measurements"]],
        }

    def test_a_named_figure_gets_only_its_own_options(self):
        # main builds only the parser of the figure it runs: it parses that
        # figure's flags to the full parser's Namespace and prints its help.
        full_parser, full = cli._build_parser()
        for name, full_sub in full.items():
            parser, figures = cli._build_parser(name)
            assert list(figures) == [name]
            assert figures[name].format_help() == full_sub.format_help()
            flags = [a.option_strings[-1] for a in full_sub._actions if a.dest != "help"]
            argv = [name, *itertools.chain(*((f, f"{f[2:]}-value") for f in flags))]
            for args in ([name], argv):
                assert parser.parse_args(args) == full_parser.parse_args(args)
            assert vars(parser.parse_args(argv))["seed"] == "seed-value"

    def test_successful_run_prints_paths(self, tmp_path, capsys):
        code = cli.main(
            ["fig1", "--out", str(tmp_path), "--grid", "0.5:1.0:0.25"]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed == [str(tmp_path / "fig1.csv"), str(tmp_path / "manifest.json")]
        assert (tmp_path / "fig1.csv").is_file()

    def test_comma_grid_and_seed_flag(self, tmp_path):
        code = cli.main(
            ["fig5", "--out", str(tmp_path), "--seed", "9", "--n-random", "4"]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 9
        assert manifest["config"]["n_random"] == 4

    def test_malformed_grid_is_config_error(self, tmp_path, capsys):
        code = cli.main(["fig1", "--out", str(tmp_path), "--grid", "a:b"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_number_flag_is_config_error(self, tmp_path, capsys):
        code = cli.main(["fig1", "--out", str(tmp_path), "--seed", "x"])
        assert code == 2
        assert "config error: --seed: 'x' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "figure, grid, field",
        [
            ("fig1", "0.5,1.5", "theta2_grid"),
            ("fig2", "0.5,1.5", "theta2_grid"),
            ("fig3", "0.5,1.5", "panels"),
            ("fig4", "0,1.5", "theta1_grid"),
        ],
    )
    def test_grid_sets_the_figures_sweep(self, tmp_path, figure, grid, field):
        code = cli.main([figure, "--out", str(tmp_path), "--grid", grid])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        expected = [float(value) for value in grid.split(",")]
        assert manifest["config"][field] == expected

    @pytest.mark.parametrize(
        "argv, field, expected",
        [
            (["fig4", "--grid", "-1:1:0.5"], "theta1_grid", [-1.0, -0.5, 0.0, 0.5, 1.0]),
            (
                ["custom", "--theta1-grid", "-2,0", "--theta2-grid", "0.5", "--n-random", "3"],
                "theta1_grid",
                [-2.0, 0.0],
            ),
            (["fig4", "--gri", "-1:1:0.5"], "theta1_grid", [-1.0, -0.5, 0.0, 0.5, 1.0]),
            (
                ["custom", "--theta1", "-2,0", "--theta2-grid", "1", "--n-random", "3"],
                "theta1_grid",
                [-2.0, 0.0],
            ),
        ],
    )
    def test_grid_may_start_with_a_negative_value(self, tmp_path, argv, field, expected):
        code = cli.main([*argv, "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"][field] == expected

    def test_cutoff_beyond_int64_is_config_error(self, tmp_path, capsys):
        argv = ["fig4", "--grid", "0,1", "--mode-cutoff", "99999999999999999999"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        message = "config error: mode_cutoff must be adaptive or nonnegative and below 2**63\n"
        assert capsys.readouterr().err == message
        assert not tmp_path.joinpath("manifest.json").exists()

    def test_cutoff_numpy_cannot_shape_is_config_error(self, tmp_path, capsys):
        # 2**63 - 1 passes the config check, and numpy rejects the shape of
        # its log-factorial table before it allocates anything.
        argv = ["fig4", "--grid", "0,1", "--mode-cutoff", str(2**63 - 1)]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: mode_cutoff {2**63 - 1} is too large: "
            "the log-factorial table would exceed numpy's largest array\n"
        )
        assert not tmp_path.joinpath("manifest.json").exists()

    @pytest.mark.parametrize("cutoff", [2**63 - 2, 2**63 - 1])
    def test_cutoff_near_int64_max_does_not_wrap(self, tmp_path, capsys, monkeypatch, cutoff):
        # The tail bounds read log Gamma at Q + 2, past 2**63 - 1: formed in
        # uint64, the argument asks for a table numpy cannot shape, and never
        # wraps to a negative index that reads the table from its end.
        arguments = []
        log_gamma = measurements._log_gamma

        def recording(n):
            arguments.append(int(np.max(n)))
            return log_gamma(n)

        monkeypatch.setattr(measurements, "_log_gamma", recording)
        argv = ["fig4", "--grid", "0,1", "--mode-cutoff", str(cutoff), "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: mode_cutoff {cutoff} is too large: "
            "the log-factorial table would exceed numpy's largest array\n"
        )
        assert arguments == [cutoff + 2]
        assert not tmp_path.joinpath("manifest.json").exists()

    def test_cutoff_too_large_to_allocate_is_config_error(self, tmp_path, capsys, monkeypatch):
        # The table of 10**12 + 3 entries is refused as numpy refuses 7.28 TiB,
        # without asking for the memory.
        allocate, message = np.empty, "Unable to allocate 7.28 TiB for an array"

        def refusing(shape, *args, **kwargs):
            if np.prod(shape) > 10**9:
                raise MemoryError(message)
            return allocate(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refusing)
        argv = ["fig4", "--grid", "0,1", "--mode-cutoff", str(10**12)]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        expected = f"config error: mode_cutoff {10**12} is too large: {message}\n"
        assert capsys.readouterr().err == expected
        assert not tmp_path.joinpath("manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["fig5"], 2**32 - 1),
            (["custom", "--theta1-grid", "0,1", "--theta2-grid", "1", "--measurements", "random"],
             3 * 10**8),
        ],
    )
    def test_n_random_too_large_to_allocate_is_config_error(
        self, tmp_path, capsys, monkeypatch, argv, count
    ):
        # The (3, points, n_random) regrets are refused as numpy refuses them,
        # without asking for the memory.
        allocate, message = np.empty, "Unable to allocate 96.0 GiB for an array"

        def refusing(shape, *args, **kwargs):
            if np.prod(shape) > 10**9:
                raise MemoryError(message)
            return allocate(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refusing)
        assert cli.main([*argv, "--n-random", str(count), "--out", str(tmp_path)]) == 2
        expected = f"config error: n_random {count} is too large: {message}\n"
        assert capsys.readouterr().err == expected
        assert not tmp_path.joinpath("manifest.json").exists()

    @pytest.mark.parametrize(
        "figure, samples, message",
        [
            ("fig3", 10**12, "Unable to allocate 7.28 TiB for an array"),
            ("fig4", 10**20, "Maximum allowed size exceeded"),
        ],
    )
    def test_frontier_samples_too_large_is_config_error(
        self, tmp_path, capsys, monkeypatch, figure, samples, message
    ):
        # 10**12 samples are refused as numpy refuses 7.28 TiB, without asking
        # for the memory; numpy refuses 10**20 itself.
        arange = np.arange

        def refusing(stop, *args, **kwargs):
            if 10**9 < stop < float("inf"):
                raise MemoryError(message)
            return arange(stop, *args, **kwargs)

        monkeypatch.setattr(np, "arange", refusing)
        config = tmp_path / "frontier.ini"
        config.write_text(f"[{figure}]\nfrontier_samples = {samples}\n", encoding="utf-8")
        argv = [figure, "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        expected = f"config error: frontier_samples {samples} is too large: {message}\n"
        assert capsys.readouterr().err == expected
        assert not tmp_path.joinpath("out", "manifest.json").exists()

    def test_a_frontier_range_error_is_not_a_config_error(self, monkeypatch):
        # Roots of 2 put the frontier's delta2 beyond 1 (see test_tradeoff).
        monkeypatch.setattr(np, "sqrt", lambda values: np.full(len(values), 2.0))
        with pytest.raises(ValueError) as raised:
            experiments._frontier_table("fig4_frontier.csv", [], 0.9, 5)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "delta2 = 1.8 is outside [0, 1]"

    def test_infinite_abs_tolerance_is_config_error(self, tmp_path, capsys):
        # Every drift and normalization check would pass at any rule.
        config = tmp_path / "tolerance.ini"
        config.write_text("[common]\nabs_tolerance = inf\n", encoding="utf-8")
        argv = ["fig2", "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        expected = "config error: abs_tolerance must be positive and finite\n"
        assert capsys.readouterr().err == expected

    def test_ambiguous_grid_prefix_exits_two(self, tmp_path, capsys):
        argv = ["custom", "--theta", "-2,0", "--theta2-grid", "1", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "ambiguous option: --theta" in capsys.readouterr().err

    def test_negative_separation_grid_is_config_error(self, tmp_path, capsys):
        code = cli.main(["fig2", "--grid", "-1,1", "--out", str(tmp_path)])
        assert code == 2
        assert "theta2_grid values must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("figure", ["fig5", "custom"])
    def test_grid_rejected_without_a_sweep(self, tmp_path, capsys, figure):
        code = cli.main([figure, "--out", str(tmp_path), "--grid", "0.5:1:0.5"])
        assert code == 2
        assert "--grid does not apply" in capsys.readouterr().err
        assert not tmp_path.joinpath("manifest.json").exists()

    @pytest.mark.parametrize(
        "argv", [["fig1", "--sigma", "inf", "--grid", "1.0,"], ["fig5", "--sigma", "inf"]]
    )
    def test_non_finite_sigma_is_config_error(self, tmp_path, capsys, argv):
        code = cli.main([*argv, "--out", str(tmp_path)])
        assert code == 2
        assert "config error: sigma must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sigma, grid, code", [("1e-200", "1,", 0), ("1e300", "1e10,", 3), ("1e70", "1e250,", 3)]
    )
    def test_extreme_sigma_runs_as_sigma_one(self, tmp_path, capsys, sigma, grid, code):
        # The same exit code and message as at sigma = 1, no warnings, and on
        # success the same CSV bytes but for the '# sigma=' line.
        outcomes = []
        for label in (sigma, "1"):
            out = tmp_path / label
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                exit_code = cli.main(["fig2", "--sigma", label, "--grid", grid, "--out", str(out)])
            messages = [str(warning.message) for warning in caught]
            csv = out / "fig2.csv"
            lines = csv.read_text("utf-8").splitlines() if csv.exists() else None
            outcomes.append((exit_code, messages, capsys.readouterr().err, lines))
        (code_x, warned_x, err_x, lines_x), (code_1, warned_1, err_1, lines_1) = outcomes
        assert code_x == code_1 == code and warned_x == warned_1 == [] and err_x == err_1
        if code:
            assert err_1.startswith("error: row 0: ") and lines_x is lines_1 is None
        else:
            assert lines_x[1] == f"# sigma={float(sigma):.17g}"
            assert [lines_x[0], *lines_x[2:]] == [lines_1[0], *lines_1[2:]]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig2", "--grid", "1e250,"], "int psi^2 = 0.0 deviates from 1"),
            (["fig4", "--grid", "1e300,"], "no cutoff up to 512 meets the truncation criteria"),
            (["fig4", "--grid", "1e300,", "--mode-cutoff", "80"],
             "cutoff 80 leaves truncated mass bound 1.000e+00"),
            (["custom", "--theta1-grid", "-1.7e308", "--theta2-grid", "1e308",
              "--measurements", "direct"], "int psi^2 = 0.0 deviates from 1"),
        ],
    )
    def test_overflow_to_inf_exits_three_without_warnings(self, tmp_path, capsys, argv, message):
        # Squares and window bounds that overflow take their limit, inf, on
        # purpose: the typed error is the only report, also with warnings as errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: row 0: {message}")
        assert not tmp_path.joinpath("manifest.json").exists()

    def test_fig1_at_a_milli_sigma_exits_zero(self, tmp_path):
        # abs_tolerance is in units of sigma, so a small sigma no longer fails.
        assert cli.main(["fig1", "--sigma", "0.001", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--grid", "0:inf:1"],
            ["fig2", "--grid", "inf:1:1"],
            ["fig4", "--grid", "-inf:0:1"],
        ],
    )
    def test_non_finite_grid_bound_is_config_error(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        message = "config error: grid start, stop and step must be finite\n"
        assert capsys.readouterr().err == message
        assert not tmp_path.joinpath("manifest.json").exists()

    @pytest.mark.parametrize(
        "grid, count",
        [
            ("0.05:1e12:1e-6", "1e+18"),
            ("0:9223372036854775808:1", "9.22e+18"),
            ("-1e308:1e308:1", "inf"),
        ],
    )
    def test_grid_too_large_to_allocate_is_config_error(self, tmp_path, capsys, grid, count):
        # numpy refuses 1e18 values (6.94 EiB) without asking for the memory.
        # np.arange(2**63 + 1) is empty, not refused, and the span of the last
        # grid overflows to inf.
        assert cli.main(["fig1", "--grid", grid, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: grid of {count} values is too large: ")
        assert err.count("\n") == 1 and not tmp_path.joinpath("manifest.json").exists()

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n", encoding="utf-8")
        assert cli.main(["fig3", "--grid", "0.5,", "--out", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and str(blocker) in err
        assert blocker.read_text("utf-8") == "not a directory\n"
        assert sorted(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize(
        "ini, argv, message",
        [
            ("", ["--sigma", "abc"], "--sigma: 'abc' is not a number"),
            ("seed = 1\n", [], "File contains no section headers"),
            ("[common]\npanel_count = 0\n", [], "panel_count and nodes_per_panel must be"),
        ],
    )
    def test_bad_setting_exits_two(self, tmp_path, capsys, ini, argv, message):
        path = tmp_path / "settings.ini"
        path.write_text(ini, encoding="utf-8")
        code = cli.main(["fig4", "--config", str(path), *argv, "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not tmp_path.joinpath("manifest.json").exists()

    @pytest.mark.parametrize(
        "figure, ini, argv, message",
        [
            ("custom", "", ["--theta2-grid", "q"],
             "--theta2-grid: 'q' is neither START:STOP:STEP nor a comma-separated list"),
            ("custom", "[custom]\ntheta2_grid = q\n", [],
             "{}, [custom] theta2_grid: 'q' is neither START:STOP:STEP nor a comma-separated list"),
            ("fig3", "[common]\npanels = 1:2\n", [],
             "{}, [common] panels: '1:2' is neither START:STOP:STEP nor a comma-separated list"),
            ("fig4", "", ["--mode-cutoff", "zz"],
             "--mode-cutoff: 'zz' must be an integer or 'adaptive'"),
            ("fig4", "[fig4]\nmode_cutoff = ZZ\n", [],
             "{}, [fig4] mode_cutoff: 'ZZ' must be an integer or 'adaptive'"),
            ("custom", "[custom]\ngrid = 1,2\n", [],
             "{}, [custom] grid does not apply to custom: use --theta1-grid/--theta2-grid"),
            ("fig5", "[fig5]\ngrid = 1,2\n", [],
             "{}, [fig5] grid does not apply to fig5: it sweeps random samples, not a grid"),
        ],
    )
    def test_config_errors_name_their_source(self, tmp_path, capsys, figure, ini, argv, message):
        # Each error opens with the flag, or the file, section and key, that
        # set the value, and quotes the text as given.
        path = tmp_path / "settings.ini"
        path.write_text(ini, encoding="utf-8")
        code = cli.main([figure, "--config", str(path), *argv, "--out", str(tmp_path)])
        assert code == 2
        source = f"config file {path}"
        assert capsys.readouterr().err == f"config error: {message.format(source)}\n"
        assert not tmp_path.joinpath("manifest.json").exists()

    # Every setting of the CLI: (INI key, figure, text, manifest config path,
    # value there).
    SETTINGS = [
        ("seed", "fig4", "7", ["seed"], 7),
        ("sigma", "fig4", "0.37", ["sigma"], 0.37),
        ("out", "fig4", "chosen", ["output_dir"], "chosen"),
        ("n_random", "fig4", "5", ["n_random"], 5),
        ("grid", "fig4", "-0.5:0.5:0.5", ["theta1_grid"], [-0.5, 0.0, 0.5]),
        ("mode_cutoff", "fig4", "17", ["mode_cutoff"], 17),
        ("theta1_grid", "custom", "-1,0", ["theta1_grid"], [-1.0, 0.0]),
        ("theta2_grid", "custom", "0.5:1:0.5", ["theta2_grid"], [0.5, 1.0]),
        ("measurements", "custom", "spade, direct", ["measurements"], ["spade", "direct"]),
        ("panels", "fig4", "0.3,0.6", ["panels"], [0.3, 0.6]),
        ("frontier_samples", "fig4", "9", ["frontier_samples"], 9),
        ("theta2_over_sigma", "fig4", "0.3", ["theta2_over_sigma"], 0.3),
        ("truncation_radius", "fig4", "11.5", ["quad", "truncation_radius"], 11.5),
        ("panel_count", "fig4", "7", ["quad", "panel_count"], 7),
        ("nodes_per_panel", "fig4", "28", ["quad", "nodes_per_panel"], 28),
        ("abs_tolerance", "fig4", "2e-12", ["quad", "abs_tolerance"], 2e-12),
    ]

    def test_every_setting_is_tested(self):
        assert [key for key, *_ in self.SETTINGS] == list(cli._SETTINGS)

    def test_readme_lists_every_setting(self):
        # The README's table of settings: each INI key, its flag or none, and
        # whether only custom has the flag, in the order of the CLI's table.
        readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
        rows = [line.split("|")[1:4] for line in readme.splitlines() if line.startswith("| `")]
        listed = [tuple(cell.strip(" `") for cell in row) for row in rows]
        _, full = cli._build_parser()
        on_fig1, on_custom = (full[name]._option_string_actions for name in ("fig1", "custom"))
        expected = []
        for key in cli._SETTINGS:
            flag = "--" + key.replace("_", "-")
            on = "every figure" if flag in on_fig1 else "custom" if flag in on_custom else ""
            expected.append((key, flag if on else "none", on))
        assert listed == expected

    @pytest.mark.parametrize("key, figure, text, path, expected", SETTINGS)
    def test_setting_reaches_the_manifest(
        self, tmp_path, monkeypatch, key, figure, text, path, expected
    ):
        # Set once in the figure's INI section and, where the figure has the
        # flag, once by the flag; [common] holds the other settings the run needs.
        monkeypatch.chdir(tmp_path)
        common = {
            "fig4": "out = out\ngrid = 0.0,\n",
            "custom": "out = out\ntheta1_grid = 0\ntheta2_grid = 1\nmeasurements = direct\n",
        }[figure]
        flag = "--" + key.replace("_", "-")
        routes = [(f"{key} = {text}\n", [])]
        if flag in cli._build_parser(figure)[1][figure]._option_string_actions:
            routes.append(("", [flag, text]))
        for section, flags in routes:
            ini = f"[common]\n{common}[{figure}]\n{section}"
            tmp_path.joinpath("settings.ini").write_text(ini, encoding="utf-8")
            assert cli.main([figure, "--config", "settings.ini", *flags]) == 0
            manifest = tmp_path / (text if key == "out" else "out") / "manifest.json"
            echo = json.loads(manifest.read_text(encoding="utf-8"))["config"]
            for part in path:
                echo = echo[part]
            assert echo == expected, flags

    def test_flag_overrides_the_files_cutoff(self, tmp_path):
        path = tmp_path / "settings.ini"
        path.write_text("[fig4]\nmode_cutoff = 17\n", encoding="utf-8")
        argv = ["fig4", "--config", str(path), "--grid", "0.0,", "--mode-cutoff", "adaptive"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        echo = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["config"]
        assert echo["mode_cutoff"] == "adaptive"

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["fig1", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[fig1]\nbogus = 1\n", encoding="utf-8")
        code = cli.main(["fig1", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown setting" in capsys.readouterr().err

    def test_unknown_config_section(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[fig7]\nseed = 1\n", encoding="utf-8")
        code = cli.main(["fig1", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown section" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        path = tmp_path / "coarse.ini"
        path.write_text(
            "[common]\npanel_count = 1\nnodes_per_panel = 2\n", encoding="utf-8"
        )
        code = cli.main(
            ["fig1", "--config", str(path), "--out", str(tmp_path), "--grid", "1.0,"]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_failed_direct_imaging_check_exits_three(self, tmp_path, capsys):
        # With this rule the overlaps pass, but the direct-imaging total misses 1 by ~1e-7.
        path = tmp_path / "coarse.ini"
        path.write_text(
            "[common]\npanel_count = 4\nnodes_per_panel = 10\nabs_tolerance = 1e-6\n",
            encoding="utf-8",
        )
        argv = ["fig2", "--config", str(path), "--grid", "0.1,0.5,1.0", "--out", str(tmp_path)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: row 0: total probability 0.99999")
        assert not tmp_path.joinpath("fig2.csv").exists()

    def test_sweep_without_a_spade_cutoff_names_its_row(self, tmp_path, capsys):
        # From theta1 = 37.27 sigma, row 3727 of 4001, no cutoff up to 512 exists.
        out = tmp_path / "fig4"
        code = cli.main(["fig4", "--grid", "0:40:0.01", "--out", str(out)])
        assert code == 3
        message = "row 3727: no cutoff up to 512 meets the truncation criteria"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_precedence_flag_wins(self, tmp_path):
        path = tmp_path / "layered.ini"
        path.write_text("[common]\nseed = 1\n[fig1]\nseed = 2\n", encoding="utf-8")

        out_a = tmp_path / "a"
        assert cli.main(
            ["fig1", "--config", str(path), "--out", str(out_a), "--grid", "1.0,"]
        ) == 0
        manifest = json.loads((out_a / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 2  # figure section beats [common]

        out_b = tmp_path / "b"
        assert cli.main(
            [
                "fig1",
                "--config",
                str(path),
                "--seed",
                "3",
                "--out",
                str(out_b),
                "--grid",
                "1.0,",
            ]
        ) == 0
        manifest = json.loads((out_b / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 3  # flag beats the file

    def test_mode_cutoff_parsing(self, tmp_path, capsys):
        code = cli.main(
            [
                "fig4",
                "--out",
                str(tmp_path),
                "--grid",
                "0.0,0.5",
                "--mode-cutoff",
                "17",
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["mode_cutoff"] == 17

        code = cli.main(
            ["fig4", "--out", str(tmp_path), "--grid", "0.0,", "--mode-cutoff", "x"]
        )
        assert code == 2
        capsys.readouterr()

    def test_repeated_measurement_exits_two(self, tmp_path, capsys):
        argv = ["custom", "--theta1-grid", "0", "--theta2-grid", "1", "--out", str(tmp_path)]
        code = cli.main([*argv, "--measurements", "direct,direct"])
        assert code == 2
        assert "config error: measurements must be distinct" in capsys.readouterr().err
        assert not tmp_path.joinpath("custom.csv").exists()

    def test_custom_flags(self, tmp_path):
        code = cli.main(
            [
                "custom",
                "--out",
                str(tmp_path),
                "--theta1-grid",
                "0,1",
                "--theta2-grid",
                "0.5,1",
                "--measurements",
                "direct",
            ]
        )
        assert code == 0
        _, _, rows = read_table(tmp_path / "custom.csv")
        assert len(rows) == 4
        assert {row[2] for row in rows} == {"direct"}
