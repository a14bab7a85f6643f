"""Exact arithmetic in the ring Z[w] where w = e^{i*pi/3}.

Elements are written a + b*w with integer a, b and the defining relation
w^2 = w - 1.  The sixth roots of unity live in this ring and every flat
direction or period handled elsewhere in the package is one of its
elements, so all geometric bookkeeping stays exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = ["Eisenstein", "ROOTS6", "ZERO", "ONE", "OMEGA"]


@dataclass(frozen=True)
class Eisenstein:
    """The element a + b*w of Z[w], w = e^{i*pi/3}."""

    a: int
    b: int

    def __add__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self.a, -self.b)

    def __mul__(self, other: "Eisenstein") -> "Eisenstein":
        # (a + bw)(c + dw) = ac + (ad + bc) w + bd w^2, and w^2 = w - 1.
        a, b, c, d = self.a, self.b, other.a, other.b
        return Eisenstein(a * c - b * d, a * d + b * c + b * d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def norm(self) -> int:
        """Field norm a^2 + ab + b^2; zero only at the origin."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def in_sublattice(self, m: int) -> bool:
        """True iff self lies in m*Z + m*w*Z, i.e. m divides both coordinates."""
        if m <= 0:
            raise ValueError("modulus must be positive")
        return self.a % m == 0 and self.b % m == 0

    def to_complex(self) -> complex:
        return self.a + self.b * cmath.exp(1j * math.pi / 3)

    def __str__(self) -> str:
        return f"{self.a}+{self.b}w"


ZERO = Eisenstein(0, 0)
ONE = Eisenstein(1, 0)
OMEGA = Eisenstein(0, 1)

# zeta^k = e^{k*pi*i/3} as ring elements, indexed by the exponent k = 0..5.
ROOTS6 = (
    Eisenstein(1, 0),
    Eisenstein(0, 1),
    Eisenstein(-1, 1),
    Eisenstein(-1, 0),
    Eisenstein(0, -1),
    Eisenstein(1, -1),
)
