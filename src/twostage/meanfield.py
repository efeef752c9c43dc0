"""First-moment analysis of the auxiliary pair process.

Starting every site at (1, 0), the expected pair values at a fixed site
satisfy a linear two-dimensional ODE whose coefficient matrix is

    [[ -1,        gamma           ],
     [ 2*d*lam,  -(1 + gamma + delta) ]].

Its spectrum decides subcriticality: both eigenvalues have negative real
part exactly when 2*d*lam*gamma < 1 + gamma + delta, which yields the
closed-form lower bound (1/2d) * (1 + (1+delta)/gamma) on the critical
infection rate.  Eigenvalues come from the quadratic formula (no general
eigensolver) and the moment trajectories from the explicit 2x2 matrix
exponential, with a confluent branch guarding the repeated-root case.
"""
from __future__ import annotations

import cmath
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


def eigenvalues(m: MomentMatrix) -> tuple[complex, complex]:
    """Both eigenvalues, ordered by real part (descending).

    Roots of mu^2 - trace*mu + det = 0, computed in complex arithmetic.
    For positive rates the discriminant is strictly positive, so the pair
    is always real; the complex form is kept for uniformity.
    """
    b = -m.trace
    c = m.det
    disc = cmath.sqrt(b * b - 4.0 * c)
    r1 = (-b + disc) / 2.0
    r2 = (-b - disc) / 2.0
    if (r1.real, r1.imag) >= (r2.real, r2.imag):
        return r1, r2
    return r2, r1


def is_subcritical(d: int, p: ProcessParams) -> bool:
    """True iff 2*d*lam*gamma < 1 + gamma + delta (max eigenvalue < 0)."""
    return 2.0 * d * p.lam * p.gamma < 1.0 + p.gamma + p.delta


def _moment_solution(c1: complex, c2: complex, twodlam: float, t: float) -> tuple[float, float]:
    """Moment pair at time t from initial vector (1, 0), given eigenvalues."""
    if abs(c1 - c2) < _CONFLUENT_EPS:
        c = (c1 + c2) / 2.0
        e = cmath.exp(c * t)
        zeta = e * (1.0 + t * (-1.0 - c))
        theta = e * t * twodlam
        return zeta.real, theta.real
    e1 = cmath.exp(c1 * t)
    e2 = cmath.exp(c2 * t)
    gap = c1 - c2
    zeta = (e1 * (-1.0 - c2) - e2 * (-1.0 - c1)) / gap
    theta = twodlam * (e1 - e2) / gap
    return zeta.real, theta.real


def solve_moments(d: int, p: ProcessParams, t: float) -> tuple[float, float]:
    """Expected (zeta, theta) at a fixed site at time t, from all-(1, 0).

    Unique solution of the moment ODE with initial vector (1, 0); exact on
    the torus as well, by spatial homogeneity.
    """
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    c1, c2 = eigenvalues(moment_matrix(d, p))
    return _moment_solution(c1, c2, 2.0 * d * p.lam, float(t))


def lower_bound_lambda(d: int, gamma: float, delta: float) -> float:
    """Proven lower bound (1/2d) * (1 + (1+delta)/gamma) on the critical rate."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if gamma <= 0 or delta <= 0:
        raise ParameterError("gamma and delta must be positive")
    return (1.0 + (1.0 + delta) / gamma) / (2.0 * d)


def scaled_limit(gamma: float, delta: float) -> float:
    """The dimension-free constant 1 + (1+delta)/gamma targeted by 2d*lambda_c."""
    if gamma <= 0 or delta <= 0:
        raise ParameterError("gamma and delta must be positive")
    return 1.0 + (1.0 + delta) / gamma


def lambda_from_theta(d: int, gamma: float, delta: float, theta: float) -> float:
    """Infection rate theta * (1 + gamma + delta) / (2 d gamma).

    theta > 1 places the rate a fixed factor above the threshold scale.
    """
    if theta <= 0:
        raise ParameterError(f"theta must be positive, got {theta}")
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    return theta * (1.0 + gamma + delta) / (2.0 * d * gamma)
