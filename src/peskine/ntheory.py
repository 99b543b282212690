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


# Sieve moduli of the square walk (Cohen, A Course in Computational
# Algebraic Number Theory, Algorithm 1.7.3): an integer square is a
# square mod every q.  Each table marks the squares mod q, found by
# squaring every residue, and repeats q + 1 times, so that a slice
# starting below q with a stride below q reads q entries without wrapping.
_SIEVE = tuple(
    (q, bytes(r in {k * k % q for k in range(q)} for r in range(q)) * (q + 1))
    for q in (64, 63, 65, 11)
)
_CHUNK_FIRST = 32
_CHUNK_CAP = 1 << 16


def square_roots_mod(a: int, m: int, coeff: int, top: int):
    """Every k in 0..top with coeff*k*k = a (mod m), ascending; one sieved walk.

    With g = gcd(coeff, m) there is no solution unless g divides a;
    otherwise the congruence is k*k = b (mod m') with m' = m // g and
    b = (a // g) * (coeff // g)^-1 mod m' (coeff // g is a unit mod m',
    since g takes the smaller power of each prime).  So the roots are the
    isqrt of the perfect squares among x_j = b + j*m', j = 0, 1, ... up
    to top*top: k -> k*k increases for k >= 0, so they come in ascending
    order, out of at most top*top // m' + 1 candidates.

    x_0 = b is tested by isqrt at once: a root there ends most first-root
    walks (the unit scans of the marking sweep, median u = 5), and one
    isqrt costs less than building the masks.  The later candidates are
    sieved.  Whether x_j is a square mod q, for q in _SIEVE, depends on
    j modulo q / gcd(q, m' mod q) only, and one period of that mask is a
    strided slice of the table of squares mod q.  A mask with no square
    ends the walk; a mask of squares only is dropped.  The walk goes in
    chunks of _CHUNK_FIRST indices, doubling up to _CHUNK_CAP, which
    bounds its memory; each chunk ANDs the masks, tiled over it, as one
    integer (all ones when no mask is left) and jumps between the
    surviving j with bytes.find.  Each survivor is decided by isqrt, so
    every candidate is either excluded by a necessary condition for an
    integer square or tested exactly.

    ValueError for m <= 0; nothing for top < 0.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if top < 0:
        return
    a %= m
    coeff %= m
    g = gcd(coeff, m)
    if a % g:
        return
    mp = m // g
    b = a // g * pow(coeff // g, -1, mp) % mp
    if b > top * top:
        return
    k = isqrt(b)
    if k * k == b:
        yield k
    masks = []
    for q, table in _SIEVE:
        step = mp % q
        mask = table[b % q : b % q + (q // gcd(q, step) - 1) * step + 1 : step or 1]
        if 1 not in mask:
            return
        if 0 in mask:
            masks.append(mask)
    count = (top * top - b) // mp + 1
    start, size = 1, _CHUNK_FIRST
    while start < count:
        n = min(size, count - start)
        bits = (1 << 8 * n) // 255
        for mask in masks:
            period = len(mask)
            phase = start % period
            bits &= int.from_bytes((mask * ((phase + n) // period + 1))[phase : phase + n], "big")
        survivors = bits.to_bytes(n, "big")
        i = survivors.find(1)
        while i >= 0:
            x = b + (start + i) * mp
            k = isqrt(x)
            if k * k == x:
                yield k
            i = survivors.find(1, i + 1)
        start += n
        size = min(2 * size, _CHUNK_CAP)


def square_root_mod(a: int, m: int, coeff: int = 1) -> int | None:
    """Smallest k >= 0 with coeff*k*k = a (mod m), or None; exhaustive scan.

    The smallest solution, if there is one, is at most top = P // 2,
    where P is a period of f(k) = coeff*k*k mod m.  With
    h = m // gcd(m, 2*coeff), f(k + h) - f(k) = 2*coeff*h*k + coeff*h*h
    and m divides 2*coeff*h, so h is a period iff m divides coeff*h*h,
    and 2h always is.  P is h in the first case and 2h in the second,
    where h != m, so P <= m.  Since f(P - k) = f(k), the range k <= top
    holds a solution whenever one exists; the first root of
    square_roots_mod up to top is the answer.

    Bound: with g = gcd(coeff, m) and m' = m // g, g divides 2*coeff, so
    h <= m', P <= 2m' and top <= m'.  The walk visits at most
    top*top // m' + 1 <= top + 1 candidates, never more than a scan of
    k = 0 .. top.  For an admissible d, which is even, every association
    scan (m = 2d or 6d) has top <= d // 2 and m' = 2d, so it visits at
    most d/8 + 1 candidates; the sieve of square_roots_mod passes about
    one in 45 of them to isqrt on the two failing walks at d = 9 999 986.

    The scan stays brute force: the sieve only drops a candidate that is
    no square mod 64, 63, 65 or 11, read off tables made by squaring every
    residue, which is a necessary condition for an integer square; every
    other candidate is decided by isqrt.  Nothing comes from legendre(),
    factorization, reciprocity or CRT, so an error in those cannot reach
    this route.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    return next(square_roots_mod(a, m, coeff, _square_period(m, coeff) // 2), None)


def is_square_mod(a: int, m: int) -> bool:
    """True iff a is a square modulo m, decided by exhaustive scan.

    Deliberately brute force: this is the independent oracle that the
    closed-form residue criteria are cross-checked against, so it must
    not share logic with legendre() or any reciprocity shortcut.  Its
    sieve keeps that: its tables of squares mod 64, 63, 65 and 11 come
    from squaring every residue, not from a symbol, and a candidate they
    pass is still decided by isqrt.  0 counts as a square.
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
