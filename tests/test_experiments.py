"""Tests for the figure runners, their file formats, and the CLI.

Determinism is the load-bearing property here: identical seeds must give
byte-identical CSVs, the frontier files must not depend on the seed at all,
and every runner row must equal the scalar reference route bit for bit.
"""

import hashlib
import inspect
import json
import warnings

import numpy as np
import pytest

import irtr_lab as lab
from irtr_lab import cli, experiments
from irtr_lab.experiments import (
    DEFAULT_MISALIGNMENT_GRID,
    DEFAULT_PANELS,
    DEFAULT_SEPARATION_GRID,
    MEASUREMENT_NAMES,
    inclusive_grid,
)
from irtr_lab.measurements import regret_rows, spade_cutoff, spawned_pools
from irtr_lab.state_model import c_tilde_from_overlaps, qfim_stack


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

    def random_model(self, overlaps, stream, sample_index, state=None):
        rng = np.random.default_rng(stream)
        measurement = lab.haar_random_orthogonal(rng, dim=4, seed=sample_index)
        state = lab.build_state_model(overlaps) if state is None else state
        return lab.projective_model(state, measurement)

    def assert_random_rows(self, rows, overlaps, streams):
        """Every row (sample_index, delta1, delta2, residual) is the scalar route's."""
        state = lab.build_state_model(overlaps)
        assert len(rows) == len(streams)
        for k, (row, stream) in enumerate(zip(rows, streams)):
            model = self.random_model(overlaps, stream, k, state)
            assert int(row[0]) == k
            assert tuple(float(cell) for cell in row[1:]) == scalar_row(model, overlaps)

    @pytest.mark.parametrize("sigma", [1.0, 0.6])
    def test_context_qfims_equal_the_scalar_qfims(self, sigma):
        psf = lab.gaussian_psf(sigma)
        points = [(0.0, t) for t in np.geomspace(1e-3, 40.0, 400)]
        geometries = [lab.SourceGeometry(*point) for point in points]
        overlaps = lab.overlap_integrals(psf, geometries, self.quad)
        fields = np.array([[o.kappa, o.gamma, o.beta, o.delta] for o in overlaps]).T
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
        assert len(set(spade_cutoff(1.0, points).tolist())) > 30
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

    def test_fig5_sample_k_uses_spawned_stream_k(self, tmp_path):
        # 2000 samples span several batches; every row is checked.
        config = lab.ExperimentConfig(
            figure_id="fig5", n_random=2000, seed=3, output_dir=str(tmp_path)
        )
        _, _, rows = read_table(lab.run_fig5(config)[0])
        streams = np.random.SeedSequence(3).spawn(2000)
        self.assert_random_rows(rows, self.overlaps(0.0, 0.1), streams)

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
        # Second grid point: theta1 = 0.4, theta2 = 0.7, spawned child 1.
        direct, spade, *randoms = rows[5:]
        geometry = lab.SourceGeometry(0.4, 0.7)
        overlaps = self.overlaps(0.4, 0.7)
        stream = np.random.SeedSequence(5).spawn(2)[1].spawn(3)[2]
        direct_model = lab.direct_imaging_model(self.psf, geometry, self.quad)
        cases = [
            (direct, "direct", -1, direct_model),
            (spade, "spade", -1, lab.spade_model(1.0, geometry, None)),
            (randoms[2], "random", 2, self.random_model(overlaps, stream, 2)),
        ]
        for row, name, sample_index, model in cases:
            assert (float(row[0]), float(row[1]), row[2]) == (0.4, 0.7, name)
            assert int(row[3]) == sample_index
            assert tuple(float(cell) for cell in row[4:]) == scalar_row(model, overlaps)


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
            # Each separation's five points hold 1000 samples, run in blocks
            # of 512 and 488: the boundary falls inside its point 2.
            ((-0.5, 0.0, 1.2, 2.0, 3.0), (0.1, 1.0), 200),
            # One theta1: each separation holds one point.
            ((0.4,), (0.1, 1.0, 3.0), 600),
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
        children = np.random.SeedSequence(11).spawn(len(points))
        for index, ((ratio1, ratio2), child) in enumerate(zip(points, children)):
            point_rows = rows[n_random * index : n_random * (index + 1)]
            assert {(float(r[0]), float(r[1]), r[2]) for r in point_rows} == {
                (ratio1, ratio2, "random")
            }
            overlaps = self.overlaps(ratio1, ratio2)
            self.assert_random_rows(
                [row[3:] for row in point_rows], overlaps, child.spawn(n_random)
            )

    def test_the_first_failing_sample_in_sweep_order_raises(self, tmp_path, monkeypatch):
        # Separation 0.5 runs first, with points 0 and 2; separation 2.0 holds
        # points 1 and 3.  Point 1's sample 250 (in the second block of its
        # separation) and point 2's sample 4 get a skewed basis: point 1 comes
        # first in the sweep, though its separation runs second.
        skewed = {
            tuple(spawned_pools(8, (point,), 0, 300)[sample].tolist())
            for point, sample in ((1, 250), (2, 4))
        }
        draw = experiments.haar_random_bases

        def skewing(pools):
            bases = draw(pools)
            for basis, pool in zip(bases, pools.tolist()):
                if tuple(pool) in skewed:
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
        message = r"^sample 250: basis is not orthogonal within 1e-12$"
        with pytest.raises(lab.ConsistencyError, match=message):
            lab.run_custom(config)
        assert not list(tmp_path.iterdir())


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


class TestCli:
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
        "ini, argv, keys, expected",
        [
            ("frontier_samples = 9", [], ["frontier_samples"], 9),
            ("theta2_over_sigma = 0.3", [], ["theta2_over_sigma"], 0.3),
            ("truncation_radius = 11.5", [], ["quad", "truncation_radius"], 11.5),
            ("abs_tolerance = 2e-12", [], ["quad", "abs_tolerance"], 2e-12),
            ("mode_cutoff = 17", ["--mode-cutoff", "adaptive"], ["mode_cutoff"], "adaptive"),
        ],
    )
    def test_setting_reaches_the_manifest(self, tmp_path, ini, argv, keys, expected):
        path = tmp_path / "settings.ini"
        path.write_text(f"[fig4]\n{ini}\n", encoding="utf-8")
        argv = ["fig4", "--config", str(path), "--grid", "0.0,", *argv, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        echo = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["config"]
        for key in keys:
            echo = echo[key]
        assert echo == expected

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
