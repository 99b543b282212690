"""Exact elementary number theory: factorization, quadratic residues, Q/2Z.

Everything here runs on plain Python integers; the inputs of interest
(lattice discriminants) stay well under 10**7, so trial division is all
the factoring machinery we need.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

Factorization = tuple[tuple[int, int], ...]


class CertificateError(RuntimeError):
    """A certificate failed: the computation contradicts itself, never the input."""


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


def _square_period(m: int, coeff: int) -> int:
    """A period P <= m of k -> coeff*k*k mod m; see square_root_mod."""
    h = m // gcd(m, 2 * coeff)
    return h if coeff * h * h % m == 0 else 2 * h


def square_root_mod(a: int, m: int, coeff: int = 1) -> int | None:
    """Smallest k >= 0 with coeff*k*k = a (mod m), or None; exhaustive scan.

    The smallest solution, if there is one, is at most top = P // 2,
    where P is a period of f(k) = coeff*k*k mod m.  With
    h = m // gcd(m, 2*coeff), f(k + h) - f(k) = 2*coeff*h*k + coeff*h*h
    and m divides 2*coeff*h, so h is a period iff m divides coeff*h*h,
    and 2h always is.  P is h in the first case and 2h in the second,
    where h != m, so P <= m.  Since f(P - k) = f(k), the range k <= top
    holds a solution whenever one exists.

    With g = gcd(coeff, m) the congruence has no solution unless g
    divides a; otherwise it is k*k = b (mod m') with m' = m // g and
    b = (a // g) * (coeff // g)^-1 mod m' (coeff // g is a unit mod m',
    since g takes the smaller power of each prime).  So the scan walks
    the residue class x = b, b + m', ... up to top*top and returns
    isqrt(x) at the first perfect square: k -> k*k increases for k >= 0,
    so that is the smallest k.

    Bound: g divides 2*coeff, so h <= m', P <= 2m' and top <= m'.  The
    scan visits at most top*top // m' + 1 <= top + 1 candidates, never
    more than a scan of k = 0 .. top.  For an admissible d, which is
    even, every association scan (m = 2d or 6d) has top <= d // 2 and
    m' = 2d, so it visits at most d/8 + 1 candidates.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    a %= m
    coeff %= m
    g = gcd(coeff, m)
    if a % g:
        return None
    mp = m // g
    b = a // g * pow(coeff // g, -1, mp) % mp
    top = _square_period(m, coeff) // 2
    for x in range(b, top * top + 1, mp):
        k = isqrt(x)
        if k * k == x:
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
    """A rational residue mod 2Z, kept reduced: den > 0, gcd 1, 0 <= num < 2*den."""

    num: int
    den: int

    def __post_init__(self):
        if self.den == 0:
            raise ValueError("denominator must be nonzero")
        g = gcd(self.num, self.den) * (1 if self.den > 0 else -1)
        den = self.den // g
        object.__setattr__(self, "num", self.num // g % (2 * den))
        object.__setattr__(self, "den", den)

    def __add__(self, other: "QmodTwoZ") -> "QmodTwoZ":
        return QmodTwoZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QmodTwoZ":
        return QmodTwoZ(-self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def qmod2z(num: int, den: int) -> QmodTwoZ:
    """Canonical representative of num/den in Q/2Z."""
    return QmodTwoZ(num, den)
