"""First-moment analysis of the auxiliary pair process.

Starting every site at (1, 0), the expected pair values at a fixed site
satisfy a linear two-dimensional ODE whose coefficient matrix is

    [[ -1,        gamma           ],
     [ 2*d*lam,  -(1 + gamma + delta) ]].

Its spectrum decides subcriticality: both eigenvalues are negative
exactly when 2*d*lam*gamma < 1 + gamma + delta, which yields the
closed-form lower bound (1/2d) * (1 + (1+delta)/gamma) on the critical
infection rate.  The discriminant (gamma + delta)^2 + 8*d*lam*gamma is
positive, so both eigenvalues are real; they come from the quadratic
formula (no general eigensolver) and the moment trajectories from the
explicit 2x2 matrix exponential, with a confluent branch guarding the
repeated-root case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .params import ProcessParams

# eigenvalue gap below which the confluent (repeated-root) solution is used
_CONFLUENT_EPS = 1e-12


@dataclass(frozen=True)
class MomentMatrix:
    """2x2 coefficient matrix of the first-moment ODE.

    Row/column order is (zeta-moment, theta-moment).
    """

    entries: tuple[tuple[float, float], tuple[float, float]]

    @property
    def trace(self) -> float:
        return self.entries[0][0] + self.entries[1][1]

    @property
    def det(self) -> float:
        (a, b), (c, d) = self.entries
        return a * d - b * c


def moment_matrix(d: int, p: ProcessParams) -> MomentMatrix:
    """Coefficient matrix of the moment ODE for dimension d."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    return MomentMatrix(
        entries=(
            (-1.0, p.gamma),
            (2.0 * d * p.lam, -(1.0 + p.gamma + p.delta)),
        )
    )


def eigenvalues(m: MomentMatrix) -> tuple[float, float]:
    """Both eigenvalues, the larger first.

    Roots of mu^2 - trace*mu + det = 0.  The discriminant is
    (gamma + delta)^2 + 8*d*lam*gamma, positive for positive rates, so
    both roots are real and adding its root gives the larger.  Computed
    as trace^2 - 4*det it cancels: at rates near 1e-9 rounding can take
    it below 0, where the roots coincide to rounding error.
    """
    b = -m.trace
    c = m.det
    disc = math.sqrt(max(b * b - 4.0 * c, 0.0))
    return (-b + disc) / 2.0, (-b - disc) / 2.0


def is_subcritical(d: int, p: ProcessParams) -> bool:
    """True iff 2*d*lam*gamma < 1 + gamma + delta (max eigenvalue < 0)."""
    return 2.0 * d * p.lam * p.gamma < 1.0 + p.gamma + p.delta


def _moment_solution(c1: float, c2: float, twodlam: float, t: float) -> tuple[float, float]:
    """Moment pair at time t from initial vector (1, 0), given eigenvalues."""
    if abs(c1 - c2) < _CONFLUENT_EPS:
        c = (c1 + c2) / 2.0
        e = math.exp(c * t)
        return e * (1.0 + t * (-1.0 - c)), e * t * twodlam
    e1 = math.exp(c1 * t)
    e2 = math.exp(c2 * t)
    gap = c1 - c2
    zeta = (e1 * (-1.0 - c2) - e2 * (-1.0 - c1)) / gap
    theta = twodlam * (e1 - e2) / gap
    return zeta, theta


def solve_moments(d: int, p: ProcessParams, t: float) -> tuple[float, float]:
    """Expected (zeta, theta) at a fixed site at time t, from all-(1, 0).

    Unique solution of the moment ODE with initial vector (1, 0); exact on
    the torus as well, by spatial homogeneity.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"time must be finite and >= 0, got {t}")
    c1, c2 = eigenvalues(moment_matrix(d, p))
    return _moment_solution(c1, c2, 2.0 * d * p.lam, float(t))


def _require_rates(gamma: float, delta: float) -> None:
    """Raise ParameterError naming gamma or delta unless both are finite and positive.

    A NaN passes a plain ``<= 0`` test and would surface later as a bad
    rate or resolution derived from it.
    """
    for name, value in (("gamma", gamma), ("delta", delta)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
        if value <= 0:
            raise ParameterError(f"{name} must be positive, got {value}")


def lower_bound_lambda(d: int, gamma: float, delta: float) -> float:
    """Proven lower bound (1/2d) * (1 + (1+delta)/gamma) on the critical rate."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    _require_rates(gamma, delta)
    return (1.0 + (1.0 + delta) / gamma) / (2.0 * d)


def scaled_limit(gamma: float, delta: float) -> float:
    """The dimension-free constant 1 + (1+delta)/gamma targeted by 2d*lambda_c."""
    _require_rates(gamma, delta)
    return 1.0 + (1.0 + delta) / gamma


def lambda_from_theta(d: int, gamma: float, delta: float, theta: float) -> float:
    """Infection rate theta * (1 + gamma + delta) / (2 d gamma).

    theta > 1 places the rate a fixed factor above the threshold scale.
    """
    if not (math.isfinite(theta) and theta > 0):
        raise ParameterError(f"theta must be positive and finite, got {theta}")
    _require_rates(gamma, delta)
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    return theta * (1.0 + gamma + delta) / (2.0 * d * gamma)
