"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """A tariff, PPC, catalog, or sweep configuration is malformed."""


class ScenarioError(ValueError):
    """A scenario CSV is malformed or violates measurement preconditions."""


class DegenerateScenarioError(ScenarioError):
    """The scenario has zero total load, so self-sufficiency is undefined."""


class InfeasibleDispatchError(RuntimeError):
    """The dispatch problem has no feasible solution.

    ``step`` is the index of the first step after which no state-of-charge
    path meets the peak cap, when the failure is one of a dispatch; None
    otherwise.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
