"""Exception hierarchy shared by all simulator modules.

The CLI maps these onto exit codes: configuration problems exit 2,
infeasible scheduling problems exit 3, everything else exits 4.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SimulationError, ValueError):
    """A parameter violates its documented range or consistency rule."""


class DistanceOutOfRangeError(InvalidParameterError):
    """A link distance that is not at least the model's reference distance (NaN included)."""


class FitFailureError(SimulationError):
    """A distribution fit could not be performed on the given samples."""


class ProblemTooLargeError(SimulationError):
    """A solver's state-space guard rejected the problem size."""


class DegenerateModelError(SimulationError):
    """A stochastic model has no well-defined long-run behaviour."""


class InfeasibleDemandError(SimulationError):
    """A demanded throughput target cannot be met; carries the achievable bound."""

    def __init__(self, message: str, max_achievable_bits: float):
        super().__init__(message)
        self.max_achievable_bits = max_achievable_bits


class ConfigError(SimulationError):
    """A scenario configuration failed to parse or validate."""


class IngestionError(SimulationError):
    """An external data file could not be ingested; carries row diagnostics."""

    def __init__(self, message: str, bad_rows: list[tuple[int, str]] | None = None):
        super().__init__(message)
        self.bad_rows = bad_rows or []
