"""Geometry of Z^d and its finite truncations.

Sites are plain tuples of d integers.  Two finite domains are supported:

* ``Box(radius)`` -- the cube [-radius, radius]^d with absorbing exterior.
  Exterior sites are permanently healthy: they are never returned as
  neighbors, so infection attempts across the boundary are lost.  This
  under-counts survival, which biases critical-rate estimates upward and
  keeps the proven lower bound testable as an inequality.
* ``Torus(side)`` -- periodic wrapping with side >= 3, so the 2d neighbors
  of a site stay pairwise distinct.  Used where spatial homogeneity is
  needed (moment comparisons from all-occupied initial states).

Besides the tuple-based API the geometry exposes an integer site encoding
(``encode``/``decode``) used by the event loops.  The per-direction
tables built with the geometry (``dir_stride``, ``dir_edge``,
``dir_step``, ``dir_wrap``) are the one neighbour rule on codes: both
loops, the spread loop (``engine.simulate``) and the pair loop
(``engine.simulate_linear``), step from a code to one neighbour by their
arithmetic.  ``neighbor_codes`` builds a code's whole neighbour tuple
from the same tables; no loop calls it.  ``neighbors`` stays
coordinate-based, an independent reference for the rate table
``engine.site_rates`` and the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Union

from .errors import DomainError, ParameterError

Site = tuple[int, ...]


def origin(d: int) -> Site:
    """The origin of Z^d."""
    return (0,) * d


def l1_norm(x: Site) -> int:
    """Sum of absolute coordinates."""
    return sum(abs(c) for c in x)


def sub(x: Site, y: Site) -> Site:
    return tuple(a - b for a, b in zip(x, y))


@dataclass(frozen=True)
class Box:
    """Cube [-radius, radius]^d with absorbing exterior.

    radius 0 is allowed as a degenerate single-site domain; it is used by
    the exact-chain harness to isolate one site's transitions.
    """

    radius: int


@dataclass(frozen=True)
class Torus:
    """Periodic domain {0, ..., side-1}^d, side >= 3."""

    side: int


Domain = Union[Box, Torus]


class LatticeGeometry:
    """A finite truncation of Z^d with neighbor enumeration.

    Attributes:
        side: sites per axis (2 * radius + 1 on a box).
        dir_stride, dir_edge, dir_step, dir_wrap: per-direction tables,
            in ``neighbor_codes``' direction order.  Direction k moves
            code x along the axis of stride ``dir_stride[k]``: to
            ``x + dir_step[k]``, unless the axis digit
            ``x // dir_stride[k] % side`` equals ``dir_edge[k]``; then
            the step leaves the box (``dir_wrap`` is None) or wraps to
            ``x + dir_wrap[k]`` on a torus.
    """

    def __init__(self, d: int, domain: Domain):
        if d < 1:
            raise ParameterError(f"dimension must be >= 1, got {d}")
        if isinstance(domain, Box):
            if domain.radius < 0:
                raise ParameterError(f"box radius must be >= 0, got {domain.radius}")
            self.side = 2 * domain.radius + 1
            self._offset = domain.radius
        elif isinstance(domain, Torus):
            if domain.side < 3:
                raise ParameterError(f"torus side must be >= 3, got {domain.side}")
            self.side = domain.side
            self._offset = 0
        else:
            raise ParameterError(f"unknown domain {domain!r}")
        self.d = d
        self.domain = domain
        self.is_torus = isinstance(domain, Torus)
        self._strides = [self.side**i for i in range(d)]
        span = self.side - 1
        self.dir_stride = tuple(s for s in self._strides for _ in (0, 1))
        self.dir_edge = (0, span) * d
        self.dir_step = tuple(v for s in self._strides for v in (-s, s))
        self.dir_wrap: Optional[tuple[int, ...]] = (
            tuple(v for s in self._strides for v in (span * s, -span * s))
            if self.is_torus
            else None
        )

    # ------------------------------------------------------------------
    # tuple-based interface
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        return self.side**self.d

    def contains(self, x: Site) -> bool:
        if len(x) != self.d:
            return False
        side, off = self.side, self._offset
        return all(0 <= c + off < side for c in x)

    def require(self, x: Site) -> None:
        if not self.contains(x):
            raise DomainError(f"site {x} outside {self.domain} in dimension {self.d}")

    def neighbors(self, x: Site) -> list[Site]:
        """The neighbors of x inside the domain.

        Torus: exactly 2d distinct wrapped sites.  Box: the subset of the
        2d candidates that stay inside the cube.
        """
        self.require(x)
        side, off = self.side, self._offset
        out = []
        for i in range(self.d):
            for step in (-1, 1):
                c = x[i] + step
                if self.is_torus:
                    c %= side
                elif not 0 <= c + off < side:
                    continue
                out.append(x[:i] + (c,) + x[i + 1 :])
        return out

    def sites(self) -> Iterator[Site]:
        """All sites of the domain in a fixed lexicographic order."""
        coords = range(-self._offset, self.side - self._offset)
        # rightmost coordinate varies fastest
        yield from product(coords, repeat=self.d)

    # ------------------------------------------------------------------
    # integer-coded fast path used by the event loops
    # ------------------------------------------------------------------
    def encode(self, x: Site) -> int:
        self.require(x)
        off = self._offset
        code = 0
        for c, stride in zip(x, self._strides):
            code += (c + off) * stride
        return code

    def decode(self, code: int) -> Site:
        side = self.side
        off = self._offset
        out = []
        for _ in range(self.d):
            code, digit = divmod(code, side)
            out.append(digit - off)
        return tuple(out)

    def neighbor_codes(self, code: int) -> tuple[int, ...]:
        """Length-2d tuple of neighbor codes; -1 marks an absorbing exit.

        Direction order is (axis 0 -, axis 0 +, axis 1 -, ...), matching
        ``neighbors`` up to boundary clipping.
        """
        side = self.side
        wraps = self.dir_wrap or (None,) * len(self.dir_step)
        rows = zip(self.dir_stride, self.dir_edge, self.dir_step, wraps)
        return tuple(
            code + step if code // stride % side != edge
            else -1 if wrap is None
            else code + wrap
            for stride, edge, step, wrap in rows
        )

    def __repr__(self) -> str:
        return f"LatticeGeometry(d={self.d}, domain={self.domain!r})"
