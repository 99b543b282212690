"""Exact elementary number theory: factorization, quadratic residues, Q/2Z.

Everything here runs on plain Python integers; the inputs of interest
(lattice discriminants) stay well under 10**7, so trial division is all
the factoring machinery we need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Factorization = tuple[tuple[int, int], ...]


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division, pairs sorted by prime.

    factorize(1) is the empty tuple.  Rejects n <= 0.
    """
    if n <= 0:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine at desk scale."""
    return n >= 2 and factorize(n) == ((n, 1),)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion.

    Returns 0 iff p | a, 1 iff a is a nonzero square mod p, else -1.
    """
    if p <= 2 or not is_prime(p):
        raise ValueError(f"legendre symbol needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def square_root_mod(a: int, m: int, coeff: int = 1) -> int | None:
    """Smallest k >= 0 with coeff*k*k = a (mod m), or None; exhaustive scan.

    Scans k = 0 .. m // 2: m - k has the same square as k, so the
    smallest solution, if there is one, lies in that range.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    a %= m
    coeff %= m
    for k in range(m // 2 + 1):
        if coeff * k * k % m == a:
            return k
    return None


def is_square_mod(a: int, m: int) -> bool:
    """True iff a is a square modulo m, decided by exhaustive scan.

    Deliberately brute force: this is the independent oracle that the
    closed-form residue criteria are cross-checked against, so it must
    not share logic with legendre() or any reciprocity shortcut.
    0 counts as a square.
    """
    return square_root_mod(a, m) is not None


@dataclass(frozen=True)
class QmodTwoZ:
    """A rational residue mod 2Z, kept reduced with 0 <= num/den < 2."""

    num: int
    den: int

    def __post_init__(self):
        if self.den == 0:
            raise ValueError("denominator must be nonzero")
        r = Fraction(self.num, self.den) % 2
        object.__setattr__(self, "num", r.numerator)
        object.__setattr__(self, "den", r.denominator)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "QmodTwoZ":
        return cls(f.numerator, f.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "QmodTwoZ") -> "QmodTwoZ":
        return QmodTwoZ.from_fraction(self.as_fraction() + other.as_fraction())

    def __neg__(self) -> "QmodTwoZ":
        return QmodTwoZ.from_fraction(-self.as_fraction())

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def qmod2z(num: int, den: int) -> QmodTwoZ:
    """Canonical representative of num/den in Q/2Z."""
    return QmodTwoZ(num, den)
