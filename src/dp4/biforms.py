"""Bihomogeneous forms in two variable pairs (s,t) and (u,v) over Q.

Bidegree (m, n): grid[a][b] multiplies s^(m-a) t^a u^(n-b) v^b.  Like
BinaryForm, an all-zero grid keeps its nominal bidegree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .binforms import BinaryForm


@dataclass(frozen=True)
class BiForm:
    m: int  # degree in (s, t)
    n: int  # degree in (u, v)
    grid: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("negative bidegree")
        if len(self.grid) != self.m + 1 or any(len(r) != self.n + 1 for r in self.grid):
            raise ValueError("grid dimensions do not match bidegree")
        object.__setattr__(self, "grid", tuple(tuple(Fraction(c) for c in r) for r in self.grid))

    @classmethod
    def zero(cls, m: int, n: int) -> "BiForm":
        return cls(m, n, tuple((Fraction(0),) * (n + 1) for _ in range(m + 1)))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for r in self.grid for c in r)

    def uv_coefficient(self, j: int) -> BinaryForm:
        """Coefficient of u^(n-j) v^j as an (s,t)-form of degree m."""
        return BinaryForm(self.m, tuple(self.grid[a][j] for a in range(self.m + 1)))

    def __add__(self, other: "BiForm") -> "BiForm":
        if (self.m, self.n) != (other.m, other.n):
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise ValueError("bidegree mismatch in biform addition")
        grid = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.grid, other.grid)
        )
        return BiForm(self.m, self.n, grid)

    def __neg__(self) -> "BiForm":
        return BiForm(self.m, self.n, tuple(tuple(-c for c in r) for r in self.grid))

    def __sub__(self, other: "BiForm") -> "BiForm":
        return self + (-other)

    def __mul__(self, other: "BiForm") -> "BiForm":
        m, n = self.m + other.m, self.n + other.n
        out = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
        for a, row in enumerate(self.grid):
            for b, c in enumerate(row):
                if c:
                    for a2, row2 in enumerate(other.grid):
                        for b2, c2 in enumerate(row2):
                            if c2:
                                out[a + a2][b + b2] += c * c2
        return BiForm(m, n, tuple(tuple(r) for r in out))

    def scale(self, c) -> "BiForm":
        c = Fraction(c)
        return BiForm(self.m, self.n, tuple(tuple(x * c for x in r) for r in self.grid))
