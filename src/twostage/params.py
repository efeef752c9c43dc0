"""Shared process parameters and the one check of a rate."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ParameterError


def require_rates(**rates) -> dict[str, float]:
    """The rates as floats; ParameterError names the first one not finite and positive.

    A NaN passes a plain ``<= 0`` test and would surface later as a bad
    rate or resolution derived from it.
    """
    for name, value in rates.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value!r}")
        if value <= 0:
            raise ParameterError(f"{name} must be positive, got {value}")
    return {name: float(value) for name, value in rates.items()}


@dataclass(frozen=True)
class ProcessParams:
    """Rates of the spread processes.

    lam    -- infection rate per fully-infected neighbor
    gamma  -- maturation rate semi-infected -> fully-infected
    delta  -- excess recovery rate of semi-infected sites (their total
              recovery rate is 1 + delta; fully-infected sites recover at
              rate 1)
    """

    lam: float
    gamma: float
    delta: float

    def __post_init__(self):
        # stored as floats, so that no event loop computes in float32
        for name, value in require_rates(lam=self.lam, gamma=self.gamma, delta=self.delta).items():
            object.__setattr__(self, name, value)
