"""Exception hierarchy shared across the package."""

from __future__ import annotations

import numpy as np


class GraphitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GraphitError, ValueError):
    """An invalid argument, scenario or command line."""


class DimensionMismatchError(ConfigError):
    """A matrix argument has the wrong shape, or two have incompatible shapes."""


class NotPositiveDefiniteError(ConfigError):
    """A covariance argument is not symmetric positive (semi)definite."""


class NonFiniteError(GraphitError, ValueError):
    """An observation, a covariance or the likelihood is NaN or infinite."""


class SingularPredictiveCovarianceError(GraphitError, RuntimeError):
    """The predictive observation covariance is numerically singular.

    Carries the 1-based time step at which the failure occurred.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"predictive covariance numerically singular at step {step}")


class SingularStatisticsError(GraphitError, RuntimeError):
    """The second-moment statistic is singular during a closed-form update.

    Carries the 1-based outer iteration at which the failure occurred.
    """

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"second-moment statistic singular at outer iteration {iteration}")


# The errors that end one fit but not the run that made it: the bench counts such a fit as
# failed and a grid scores it inf. Anything else is a fault of the program and propagates.
FIT_ERRORS = (GraphitError, np.linalg.LinAlgError)


def attempt(fn, *args):
    """fn(*args), or the error in FIT_ERRORS that it raised."""
    try:
        return fn(*args)
    except FIT_ERRORS as err:
        return err
