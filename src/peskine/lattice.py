"""Exact integer-lattice arithmetic.

Gram matrices, one fraction-free elimination (determinants, and rank and
field kernels over Q and F_p), Smith normal form with unimodular
transforms, discriminant groups carrying their Q/2Z quadratic form, and
the search for a generator with a given q-value.  Everything is
arbitrary-precision integer arithmetic, with Fractions only in the
back-substitution of a kernel over Q and in the generator handed back;
no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .ntheory import CertificateError, QmodTwoZ, square_roots_mod
from .polyring import _coeff_normalize, _integral

Matrix = tuple[tuple[int, ...], ...]


class DegenerateLatticeError(ValueError):
    """Raised when an operation would produce a degenerate Gram matrix."""


def _to_matrix(rows) -> Matrix:
    """rows as a tuple of int tuples, each entry read by polyring._integral."""
    return tuple(tuple(map(_integral, row)) for row in rows)


def mat_vec(m, v) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def _eliminate(a: list[list[int]], p: int | None = None) -> tuple[list[int], int]:
    """Bareiss fraction-free elimination of the integer rows a, in place.

    Each step updates the rows below the pivot, right of its column, by
    a_ij = (a_ij*a_rc - a_ic*a_rj) // prev over Z (p None), exact as the
    entries are minors of a, and mod p with no division over F_p.
    Returns the pivot columns of the echelon rows a[0], a[1], ... (stale
    left of their pivots) and the last pivot times the sign of the row
    swaps, which on a square matrix of full rank is its determinant.
    """
    nrows = len(a)
    pivots: list[int] = []
    sign = prev = 1
    r = 0
    for c in range(len(a[0]) if a else 0):
        top = a[r]
        if not top[c]:
            i = next((i for i in range(r + 1, nrows) if a[i][c]), None)
            if i is None:
                continue
            a[r], a[i] = a[i], top
            top = a[r]
            sign = -sign
        pivot = top[c]
        pivots.append(c)
        r += 1
        if r == nrows:
            return pivots, sign * pivot
        cols = range(c + 1, len(top))
        for row in a[r:]:
            f = row[c]
            if p is None:
                for j in cols:
                    row[j] = (row[j] * pivot - f * top[j]) // prev
            elif f:
                for j in cols:
                    row[j] = (row[j] * pivot - f * top[j]) % p
        prev = pivot
    return pivots, sign * prev


def bareiss_determinant(m) -> int:
    """Exact determinant of a square integer matrix, fraction-free; its
    entries are read by polyring._integral."""
    a = [list(map(_integral, row)) for row in m]
    n = len(a)
    if list(map(len, a)) != [n] * n:
        raise ValueError("determinant needs a square matrix")
    pivots, det = _eliminate(a)
    return det if len(pivots) == n else 0


def _echelon(m, p: int | None) -> tuple[list[list[int]], list[int]]:
    """Echelon rows and pivot columns of m, its entries read by
    _coeff_normalize and each row cleared of denominators over Q."""
    a = [[_coeff_normalize(x, p) for x in row] for row in m]
    dens = [lcm(*(x.denominator for x in row)) for row in a]  # all 1 over F_p
    a = [[int(x * den) for x in row] for row, den in zip(a, dens)]
    return a, _eliminate(a, p)[0]


def rank(m, p: int | None = None) -> int:
    """Rank over Q (p None) or F_p of an integer (or Fraction) matrix."""
    return len(_echelon(m, p)[1])


def field_kernel(m, p: int | None = None) -> list[tuple]:
    """Basis of the right kernel over Q or F_p, by back-substitution.

    One vector per free column, in ascending order, 1 there and 0 at the
    other free columns; over Q it is then cleared to an integer tuple.
    The span is not saturated.
    """
    a, pivots = _echelon(m, p)
    ncols = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in reversed(list(zip(a, pivots))):
            s = -sum(map(mul, row[pc + 1 :], vec[pc + 1 :]))
            vec[pc] = Fraction(s, row[pc]) if p is None else s * pow(row[pc], -1, p) % p
        den = lcm(*(x.denominator for x in vec))
        basis.append(tuple(int(x * den) for x in vec))
    return basis


@dataclass(frozen=True)
class GramLattice:
    """A nondegenerate integer symmetric bilinear form on Z^n, with its determinant."""

    gram: Matrix
    det: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        g = _to_matrix(self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        if tuple(zip(*g)) != g:
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "det", bareiss_determinant(g))
        if self.det == 0:
            raise DegenerateLatticeError("Gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)


def determinant(lattice: GramLattice) -> int:
    """Exact integer determinant of the Gram matrix, computed on construction."""
    return lattice.det


def smith_normal_form(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (U, D, V), U*M*V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    d1 | d2 | ... along the diagonal.  Works for any integer matrix,
    including rectangular and zero matrices.  The work array stacks
    [M | I] over I: row operations act on the top rows, so on M and U at
    once, and column operations on the first cols columns, so on M and V.
    """
    a = _to_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    w = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(a)]
    w += [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, rows):
            row = w[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            w[t], w[bi] = w[bi], w[t]
        if bj != t:
            for row in w:
                row[t], row[bj] = row[bj], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if w[i][t] != 0:
                    q = w[i][t] // w[t][t]
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t] != 0:
                        w[t], w[i] = w[i], w[t]
                        dirty = True
            for j in range(t + 1, cols):
                if w[t][j] != 0:
                    q = w[t][j] // w[t][t]
                    for row in w:
                        row[j] -= q * row[t]
                    if w[t][j] != 0:
                        for row in w:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                # force the divisibility chain: pivot must divide the rest
                for i in range(t + 1, rows):
                    if any(w[i][j] % w[t][t] for j in range(t + 1, cols)):
                        w[t] = [x + y for x, y in zip(w[t], w[i])]
                        dirty = True
                        break
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        t += 1
    if any(w[i][j] for i in range(t, rows) for j in range(t, cols)):
        raise CertificateError("Smith normal form left a nonzero entry past its pivots")
    top = w[:rows]
    return (
        tuple(tuple(row[cols:]) for row in top),
        tuple(tuple(row[:cols]) for row in top),
        tuple(map(tuple, w[rows:])),
    )


@dataclass(frozen=True)
class DiscGroup:
    """The finite quotient L^v / L of a nondegenerate lattice.

    invariant_factors: d1 | d2 | ... (each > 1), integer columns with
    generator i = columns[i] / invariant_factors[i] in the lattice basis,
    and the value g.G.g mod 2Z on each generator.  On an odd lattice the
    mod-2Z value depends on the chosen representative;
    generator_with_q_value() searches the representatives too.
    """

    invariant_factors: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    qvals: tuple[QmodTwoZ, ...]

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    def is_trivial(self) -> bool:
        return not self.invariant_factors


def discriminant_group(lattice: GramLattice) -> DiscGroup:
    """Invariant factors, generator columns and Q/2Z form values of L^v / L.

    Generators are the columns of the Smith transform V scaled by the
    invariant factors: with U*G*V = D, the class of V[:,i]/d_i generates
    a Z/d_i summand.  The integer column V[:,i] is stored; the pairing
    and the form are computed on it.
    """
    g = lattice.gram
    n = lattice.rank
    _, d, v = smith_normal_form(g)
    factors, cols, qvals = [], [], []
    for i in range(n):
        di = d[i][i]
        if di <= 1:
            continue
        col = [v[r][i] for r in range(n)]
        pairing = mat_vec(g, col)
        if any(x % di for x in pairing):
            raise CertificateError("discriminant group generator not in the dual lattice")
        factors.append(di)
        cols.append(tuple(col))
        qvals.append(QmodTwoZ(sum(map(mul, col, pairing)), di * di))
    return DiscGroup(tuple(factors), tuple(cols), tuple(qvals))


def _unit_scan(order: int, q: QmodTwoZ, target: QmodTwoZ, diagonal) -> tuple[int, int] | None:
    """First u < order coprime to the order with u^2*q = target - shift in Q/2Z.

    The shifts are 0 (s = 0) and diagonal[i] (s = i + 1).  Returns
    (u, s), with the least s for that u, or None.  Over
    den = lcm(order, target.den) write q = A/den and target = B/den; the
    values compare as integer numerators modulo 2*den, and the shifted
    targets B - den*diagonal[i] all agree with B modulo den.  So u solves
    A*u*u = B (mod den), which square_roots_mod walks as one residue
    class modulo m' = den // gcd(A, den) = q.den, in ascending u.  Each
    root has A*u*u = B - den*e (mod 2*den) with e = 0 or 1, and the
    shift diagonal[i] hits it iff diagonal[i] = e (mod 2): the least s is
    0 when e = 0, and one past the first odd diagonal entry when e = 1.
    On a nondegenerate lattice q(g) has exact order `order` in Q/Z, so
    m' = order and the walk visits at most order candidates, about
    u*u/order before the answer u.  CertificateError if m' != order.
    """
    if q.den != order:
        raise CertificateError(
            f"generator q-value {q} has denominator {q.den}, not the group order {order}"
        )
    den = lcm(order, target.den)
    a = q.num * (den // order)
    b = target.num * (den // target.den)
    for u in square_roots_mod(b, den, a, order - 1):
        if gcd(u, order) == 1:
            if (b - u * u * a) // den % 2 == 0:
                return u, 0
            odd = next((i for i, x in enumerate(diagonal) if x % 2), None)
            if odd is not None:
                return u, odd + 1
    return None


def generator_with_q_value(
    lattice: GramLattice, group: DiscGroup, target: QmodTwoZ
) -> tuple[Fraction, ...] | None:
    """Explicit generator of a cyclic discriminant group with q = target.

    Searches unit multiples u*g of the stored generator g together with
    representative shifts by basis vectors; on an odd lattice the shift
    can change the value by an odd integer, so the search covers the
    whole mod-2Z ambiguity.  G*g is integral, so q(u*g + e_i) equals
    u^2*q(g) + G_ii mod 2Z, and every candidate solves one congruence
    u^2 = c (mod m'), walked by _unit_scan over one residue class with
    m' = order (a CertificateError otherwise).  The vector found,
    x = y/order with y = u*col + order*e_s, is checked on integers:
    y.G.y over order^2 must equal the target in Q/2Z.  Returns x as a
    tuple of Fractions, or None.
    """
    if not group.is_cyclic() or group.is_trivial():
        raise ValueError("needs a nontrivial cyclic group")
    order = group.invariant_factors[0]
    gram = lattice.gram
    hit = _unit_scan(order, group.qvals[0], target, [gram[i][i] for i in range(lattice.rank)])
    if hit is None:
        return None
    u, s = hit
    y = tuple(u * c + order * (i == s - 1) for i, c in enumerate(group.columns[0]))
    if QmodTwoZ(sum(map(mul, y, mat_vec(gram, y))), order * order) != target:
        return None
    return tuple(Fraction(c, order) for c in y)
