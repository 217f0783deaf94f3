"""Exception types shared across the engines and the command-line tool."""

from __future__ import annotations

__all__ = ["ConfigError", "NumericalError", "StepSizeError",
           "PositivityError", "FitWindowError", "ConvergenceError"]


class ConfigError(ValueError):
    """A scenario description or run configuration is invalid."""


class NumericalError(RuntimeError):
    """An integration or estimation step failed its numerical contract."""


class StepSizeError(ConfigError):
    """The requested time step violates a stability/accuracy bound."""


class ConvergenceError(NumericalError):
    """An iterative search failed to reach its tolerance within its budget."""


class PositivityError(NumericalError):
    """A density matrix left the positive cone beyond tolerance."""


class FitWindowError(NumericalError):
    """Not enough usable signal to fit a decay rate."""
