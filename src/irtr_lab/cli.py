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

import numpy as np

from .errors import ConfigError, IrtrLabError
from .experiments import FIGURES, RUNNERS, SWEEPS, ExperimentConfig, inclusive_grid
from .psf_core import QuadratureSpec


def _grid(text: str) -> tuple[float, ...]:
    """Parse 'START:STOP:STEP' or a comma-separated list of values."""
    try:
        if ":" in text:
            parts = [float(part) for part in text.split(":")]
            if len(parts) != 3:
                raise ValueError
            return inclusive_grid(*parts)
        values = np.array([part for part in text.split(",") if part.strip()], dtype=float)
        if not values.size:
            raise ValueError
        return tuple(values.tolist())
    except ValueError:
        raise ValueError("is neither START:STOP:STEP nor a comma-separated list") from None


def _attach_grid_values(tokens, figures) -> list[str]:
    """Join grid flags to their values; argparse reads a value such as '-1:0' as a flag.

    A grid flag is a token ``figures[tokens[0]]`` resolves to a grid setting's option (``--gri``).
    """
    grid_flags = [_flag(key) for key, entry in _SETTINGS.items() if entry[1] is _grid]
    tokens = list(tokens)
    sub = figures.get(tokens[0]) if tokens else None
    options = sub._option_string_actions if sub is not None else {}
    for index in reversed(range(len(tokens) - 1)):
        token = tokens[index]
        matches = [token] if token in options else [o for o in options if o.startswith(token)]
        if len(matches) == 1 and matches[0] in grid_flags:
            tokens[index : index + 2] = [f"{token}={tokens[index + 1]}"]
    return tokens


def _cutoff(text: str) -> int | None:
    if text.strip().lower() == "adaptive":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError("must be an integer or 'adaptive'") from None


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Each setting once, by INI key: (the field it sets, how its text converts, its
# flag's help or None for an INI-only key, whether only custom has the flag).
# A field is ExperimentConfig's, or its QuadratureSpec's after "quad."; 'grid'
# sets the figure's primary sweep.  A flag is its key with dashes, in this order.
_SETTINGS = {
    "seed": ("seed", int, "RNG seed (default 0)", False),
    "sigma": ("sigma", float, "PSF width, only recorded (default 1.0)", False),
    "out": ("output_dir", str, "output directory (default .)", False),
    "n_random": ("n_random", int, "random measurement draws", False),
    "grid": ("grid", _grid, "primary sweep as START:STOP:STEP or comma-separated values", False),
    "mode_cutoff": ("mode_cutoff", _cutoff, "SPADE mode cutoff: an integer or 'adaptive'", False),
    "theta1_grid": ("theta1_grid", _grid, "misalignments, units of sigma", True),
    "theta2_grid": ("theta2_grid", _grid, "separations, units of sigma", True),
    "measurements": ("measurements", _names, "comma-separated subset of direct,spade,random", True),
    "panels": ("panels", _grid, None, False),
    "frontier_samples": ("frontier_samples", int, None, False),
    "theta2_over_sigma": ("theta2_over_sigma", float, None, False),
    "truncation_radius": ("quad.truncation_radius", float, None, False),
    "panel_count": ("quad.panel_count", int, None, False),
    "nodes_per_panel": ("quad.nodes_per_panel", int, None, False),
    "abs_tolerance": ("quad.abs_tolerance", float, None, False),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _set(settings: dict, figure: str, key: str, raw: str, context: str) -> None:
    """Convert ``raw`` into the field ``key`` sets for ``figure``; ``context`` opens an error."""
    if key not in _SETTINGS:
        raise ConfigError(f"{context}: unknown setting")
    field, convert = _SETTINGS[key][:2]
    try:
        settings[field] = convert(raw)
    except ValueError as error:  # The other converters' errors say what the text is not.
        reason = {int: "is not an integer", float: "is not a number"}.get(convert, error)
        raise ConfigError(f"{context}: {raw!r} {reason}") from None
    if field == "grid" and figure not in SWEEPS:
        hint = "it sweeps random samples, not a grid"
        if figure == "custom":
            hint = "use --theta1-grid/--theta2-grid"
        raise ConfigError(f"{context} does not apply to {figure}: {hint}")


def _apply_config_file(settings: dict, path: Path, figure: str) -> None:
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as error:
        raise ConfigError(f"config file {path}: {error}") from None
    for section in parser.sections():
        if section not in ("common", *FIGURES):
            raise ConfigError(f"config file {path}: unknown section [{section}]")
    for section in ("common", figure):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            _set(settings, figure, key, raw, f"config file {path}, [{section}] {key}")


def _build_config(figure: str, settings: dict) -> ExperimentConfig:
    settings = dict(settings)
    quad_fields = [field for field in settings if field.startswith("quad.")]
    quad_kwargs = {field[len("quad.") :]: settings.pop(field) for field in quad_fields}
    try:
        quad = QuadratureSpec(**quad_kwargs)
    except ValueError as error:
        raise ConfigError(str(error)) from None
    if "grid" in settings:
        settings[SWEEPS[figure][0]] = settings.pop("grid")
    return ExperimentConfig(figure_id=figure, quad=quad, **settings)


def _build_parser(figure: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by name: only ``figure``'s if it names one, else all six.

    A named figure's parser parses its arguments and prints its help as the
    full one does.  argparse builds a help formatter per subparser and per
    option, which is the parser's cost.
    """
    description = "Reproduce the two-source information-regret datasets."
    parser = argparse.ArgumentParser(prog="irtr-lab", description=description)
    subparsers = parser.add_subparsers(dest="figure", required=True, metavar="figure")
    summaries = {
        "fig1": "incompatibility coefficient versus separation",
        "fig2": "direct-imaging regrets versus separation",
        "fig3": "direct imaging against the tradeoff frontier, per panel",
        "fig4": "SPADE regrets versus misalignment",
        "fig5": "Haar-random projective measurement cloud",
        "custom": "generic sweep over explicit grids",
    }
    for name in [figure] if figure in FIGURES else FIGURES:
        sub = subparsers.add_parser(name, help=summaries[name])
        sub.add_argument("--config", type=Path, help="INI config file")
        for key, (_, _, help_text, custom_only) in _SETTINGS.items():
            if help_text is not None and (name == "custom" or not custom_only):
                sub.add_argument(_flag(key), help=help_text)
    return parser, subparsers.choices


def main(argv=None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    parser, figures = _build_parser(tokens[0] if tokens else None)
    args = parser.parse_args(_attach_grid_values(tokens, figures))
    try:
        settings: dict = {}
        if args.config is not None:
            _apply_config_file(settings, args.config, args.figure)
        for key in _SETTINGS:
            if getattr(args, key, None) is not None:
                _set(settings, args.figure, key, getattr(args, key), _flag(key))
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
