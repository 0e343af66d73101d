"""Exception types shared across the package, and the one way stacked checks raise them."""

import numpy as np


class IrtrLabError(Exception):
    """Base class for all package-specific errors."""


class NormalizationError(IrtrLabError):
    """The squared PSF amplitude does not integrate to one."""


class ConvergenceError(IrtrLabError):
    """Quadrature refinement failed to reach the requested tolerance."""


class DegenerateStateError(IrtrLabError):
    """The four-dimensional state representation breaks down.

    Raised when the sources are effectively coincident (1 - delta at
    roundoff scale) or when the overlap scalars are mutually inconsistent.
    """


class CutoffError(IrtrLabError):
    """A mode cutoff cannot capture the required probability mass."""


class DegenerateOutcomeError(IrtrLabError):
    """An outcome has vanishing probability but a non-vanishing derivative.

    Such outcomes carry formally divergent Fisher information per unit
    probability and need analytic treatment, not a numerical sum.
    """


class ConsistencyError(IrtrLabError, ValueError):
    """A computed quantity fails a consistency check: a probability total, an overlap bound."""


class BoundViolationError(IrtrLabError):
    """A classical Fisher information exceeded its quantum bound."""


class InfeasibleBudgetError(IrtrLabError):
    """An error budget violates the single-parameter Cramer-Rao bound."""


class ConfigError(IrtrLabError):
    """Invalid experiment configuration."""


def raise_first_failure(checks, label, first=0):
    """Raise the error of the first failing row's first failing check.

    ``checks`` lists (error type, message, flags[, values]) in the order one
    row meets them, with a flag (and a value, which fills the message) per row;
    ``label``, given the row's number, prefixes the message.  Row i's number is
    ``first + i``, or ``first[i]`` when ``first`` is an array of row numbers.
    """
    failed = failure_flags(checks)
    if failed.any():
        row = int(failed.any(axis=0).argmax())
        error, message, _, *values = checks[int(failed[:, row].argmax())]
        cells = (float(np.atleast_1d(value)[row]) for value in values)
        number = int(first[row]) if np.ndim(first) else first + row
        raise error(label.format(number) + message.format(*cells))


def failure_flags(checks):
    """(checks, rows) flags: which row fails which check, as ``raise_first_failure`` reads them."""
    return np.array([check[2] for check in checks]).reshape(len(checks), -1)
