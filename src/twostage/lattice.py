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
(``encode``/``decode``/``neighbor_codes``) used by the event loops; the
neighbor-code table is memoized per geometry instance in
``neighbor_cache``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

from .errors import DomainError, ParameterError

Site = tuple[int, ...]


def origin(d: int) -> Site:
    """The origin of Z^d."""
    return (0,) * d


def unit_vector(d: int, axis: int) -> Site:
    """Unit vector along a 0-based axis."""
    if not 0 <= axis < d:
        raise ParameterError(f"axis {axis} out of range for dimension {d}")
    return tuple(1 if i == axis else 0 for i in range(d))


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
        neighbor_cache: code -> ``neighbor_codes(code)`` for every code
            looked up so far.  Event loops read it directly and call
            ``neighbor_codes`` only on a miss, saving a method call per
            infection proposal.  Only ``neighbor_codes`` writes to it.
    """

    def __init__(self, d: int, domain: Domain):
        if d < 1:
            raise ParameterError(f"dimension must be >= 1, got {d}")
        if isinstance(domain, Box):
            if domain.radius < 0:
                raise ParameterError(f"box radius must be >= 0, got {domain.radius}")
            self._side = 2 * domain.radius + 1
            self._offset = domain.radius
        elif isinstance(domain, Torus):
            if domain.side < 3:
                raise ParameterError(f"torus side must be >= 3, got {domain.side}")
            self._side = domain.side
            self._offset = 0
        else:
            raise ParameterError(f"unknown domain {domain!r}")
        self.d = d
        self.domain = domain
        self.is_torus = isinstance(domain, Torus)
        self._strides = [self._side**i for i in range(d)]
        self.neighbor_cache: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # tuple-based interface
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        return self._side**self.d

    def contains(self, x: Site) -> bool:
        if len(x) != self.d:
            return False
        side, off = self._side, self._offset
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
        out = []
        if self.is_torus:
            m = self._side
            for i in range(self.d):
                for step in (-1, 1):
                    y = list(x)
                    y[i] = (y[i] + step) % m
                    out.append(tuple(y))
        else:
            r = self._offset
            for i in range(self.d):
                for step in (-1, 1):
                    c = x[i] + step
                    if -r <= c <= r:
                        y = list(x)
                        y[i] = c
                        out.append(tuple(y))
        return out

    def sites(self) -> Iterator[Site]:
        """All sites of the domain in a fixed lexicographic order."""
        coords = range(-self._offset, self._side - self._offset)
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
        side = self._side
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
        cached = self.neighbor_cache.get(code)
        if cached is not None:
            return cached
        side = self._side
        out = []
        c = code
        if self.is_torus:
            for i in range(self.d):
                c, digit = divmod(c, side)
                stride = self._strides[i]
                out.append(code - stride if digit > 0 else code + (side - 1) * stride)
                out.append(code + stride if digit < side - 1 else code - (side - 1) * stride)
        else:
            for i in range(self.d):
                c, digit = divmod(c, side)
                stride = self._strides[i]
                out.append(code - stride if digit > 0 else -1)
                out.append(code + stride if digit < side - 1 else -1)
        result = tuple(out)
        self.neighbor_cache[code] = result
        return result

    def __repr__(self) -> str:
        return f"LatticeGeometry(d={self.d}, domain={self.domain!r})"


def neighbors(x: Site, g: LatticeGeometry) -> list[Site]:
    """Neighbors of x in geometry g (see LatticeGeometry.neighbors)."""
    return g.neighbors(x)
