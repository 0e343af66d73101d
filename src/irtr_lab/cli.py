"""Command-line front end: ``irtr-lab fig1|fig2|fig3|fig4|fig5|custom``.

Settings resolve in three layers, later ones winning: built-in defaults,
then the config file (INI-style, a ``[common]`` section plus one section per
figure), then command-line flags.  ``--grid START:STOP:STEP`` addresses the
primary sweep of the chosen figure (separation for fig1/fig2, panel
separations for fig3, misalignment for fig4).  Exit codes: 0 success,
2 configuration error or unwritable output, 3 numerical error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from .errors import ConfigError, IrtrLabError
from .experiments import FIGURES, RUNNERS, SWEEPS, ExperimentConfig, inclusive_grid
from .psf_core import QuadratureSpec

_QUAD_KEYS = ("truncation_radius", "panel_count", "nodes_per_panel", "abs_tolerance")


def _parse_grid_text(text: str) -> tuple[float, ...]:
    """Parse 'START:STOP:STEP' or a comma-separated list of values."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [float(part) for part in text.split(":")]
            if len(parts) != 3:
                raise ValueError
            return inclusive_grid(*parts)
        values = tuple(float(part) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise ConfigError(
            f"grid {text!r} is neither START:STOP:STEP nor a comma-separated list"
        ) from None


def _attach_grid_values(tokens, figures) -> list[str]:
    """Join grid flags to their values; argparse reads a value such as '-1:0' as a flag.

    A grid flag is a token ``figures[tokens[0]]`` resolves to a grid option (``--gri``).
    """
    tokens = list(tokens)
    sub = figures.get(tokens[0]) if tokens else None
    options = sub._option_string_actions if sub is not None else {}
    for index in reversed(range(len(tokens) - 1)):
        token = tokens[index]
        matches = [token] if token in options else [o for o in options if o.startswith(token)]
        if matches in (["--grid"], ["--theta1-grid"], ["--theta2-grid"]):
            tokens[index : index + 2] = [f"{token}={tokens[index + 1]}"]
    return tokens


def _parse_mode_cutoff(text: str) -> int | None:
    text = text.strip().lower()
    if text == "adaptive":
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"mode_cutoff {text!r} must be an integer or 'adaptive'"
        ) from None


def _parse_measurements(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{context}: {text!r} is not an integer") from None


def _parse_float(text: str, context: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{context}: {text!r} is not a number") from None


def _apply_config_file(settings: dict, path: Path, figure: str) -> None:
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as error:
        raise ConfigError(f"config file {path}: {error}") from None
    known_sections = {"common", *FIGURES}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"config file {path}: unknown section [{section}]")
    for section in ("common", figure):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            context = f"config file {path}, [{section}] {key}"
            settings.update(_converted_setting(key, raw, context))


def _converted_setting(key: str, raw: str, context: str) -> dict:
    if key == "seed":
        return {"seed": _parse_int(raw, context)}
    if key == "sigma":
        return {"sigma": _parse_float(raw, context)}
    if key == "out":
        return {"output_dir": raw}
    if key == "n_random":
        return {"n_random": _parse_int(raw, context)}
    if key in ("grid", "theta1_grid", "theta2_grid", "panels"):
        return {key: _parse_grid_text(raw)}
    if key == "measurements":
        return {"measurements": _parse_measurements(raw)}
    if key == "mode_cutoff":
        return {"mode_cutoff": _parse_mode_cutoff(raw)}
    if key == "frontier_samples":
        return {"frontier_samples": _parse_int(raw, context)}
    if key == "theta2_over_sigma":
        return {"theta2_over_sigma": _parse_float(raw, context)}
    if key in ("truncation_radius", "abs_tolerance"):
        return {key: _parse_float(raw, context)}
    if key in ("panel_count", "nodes_per_panel"):
        return {key: _parse_int(raw, context)}
    raise ConfigError(f"{context}: unknown setting")


def _apply_flags(settings: dict, args: argparse.Namespace) -> None:
    for key, raw in vars(args).items():
        if key not in ("figure", "config") and raw is not None:
            flag = "--" + key.replace("_", "-")
            settings.update(_converted_setting(key, raw, flag))


def _build_config(figure: str, settings: dict) -> ExperimentConfig:
    settings = dict(settings)
    quad_kwargs = {key: settings.pop(key) for key in _QUAD_KEYS if key in settings}
    try:
        quad = QuadratureSpec(**quad_kwargs)
    except ValueError as error:
        raise ConfigError(str(error)) from None
    if "grid" in settings:
        if figure not in SWEEPS:
            hint = (
                "use --theta1-grid/--theta2-grid"
                if figure == "custom"
                else "it sweeps random samples, not a grid"
            )
            raise ConfigError(f"--grid does not apply to {figure}: {hint}")
        settings[SWEEPS[figure][0]] = settings.pop("grid")
    return ExperimentConfig(figure_id=figure, quad=quad, **settings)


def _build_parser(figure: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by name, all six; only ``figure``'s gets options, if named.

    argparse builds a help formatter per option: options are the parser's cost.
    """
    parser = argparse.ArgumentParser(
        prog="irtr-lab",
        description="Reproduce the two-source information-regret datasets.",
    )
    subparsers = parser.add_subparsers(dest="figure", required=True, metavar="figure")
    summaries = {
        "fig1": "incompatibility coefficient versus separation",
        "fig2": "direct-imaging regrets versus separation",
        "fig3": "direct imaging against the tradeoff frontier, per panel",
        "fig4": "SPADE regrets versus misalignment",
        "fig5": "Haar-random projective measurement cloud",
        "custom": "generic sweep over explicit grids",
    }
    for name in FIGURES:
        sub = subparsers.add_parser(name, help=summaries[name])
        if figure not in (None, name):
            continue
        sub.add_argument("--config", type=Path, help="INI config file")
        sub.add_argument("--seed", help="RNG seed (default 0)")
        sub.add_argument("--sigma", help="PSF width, only recorded (default 1.0)")
        sub.add_argument("--out", help="output directory (default .)")
        sub.add_argument("--n-random", dest="n_random", help="random measurement draws")
        sub.add_argument(
            "--grid", help="primary sweep as START:STOP:STEP or comma-separated values"
        )
        sub.add_argument(
            "--mode-cutoff",
            dest="mode_cutoff",
            help="SPADE mode cutoff: an integer or 'adaptive'",
        )
        if name == "custom":
            sub.add_argument(
                "--theta1-grid", dest="theta1_grid", help="misalignments, units of sigma"
            )
            sub.add_argument(
                "--theta2-grid", dest="theta2_grid", help="separations, units of sigma"
            )
            sub.add_argument(
                "--measurements", help="comma-separated subset of direct,spade,random"
            )
    return parser, subparsers.choices


def main(argv=None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    parser, figures = _build_parser(tokens[0] if tokens and tokens[0] in FIGURES else None)
    args = parser.parse_args(_attach_grid_values(tokens, figures))
    try:
        settings: dict = {}
        if args.config is not None:
            _apply_config_file(settings, args.config, args.figure)
        _apply_flags(settings, args)
        config = _build_config(args.figure, settings)
        paths = RUNNERS[args.figure](config)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2
    except IrtrLabError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except OSError as error:
        print(f"error: cannot write output: {error}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
