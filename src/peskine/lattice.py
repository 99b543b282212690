"""Exact integer-lattice arithmetic.

Gram matrices, fraction-free determinants, row reduction over Q and F_p
(rank, field kernels, unimodular inverses), Smith normal form with
unimodular transforms, discriminant groups carrying their Q/2Z quadratic
form, divisibility, saturation, and orthogonal complements.  Everything
is arbitrary-precision integer or Fraction arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .ntheory import CertificateError, QmodTwoZ

Matrix = tuple[tuple[int, ...], ...]


class DegenerateLatticeError(ValueError):
    """Raised when an operation would produce a degenerate Gram matrix."""


def _to_matrix(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(m, v) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def bareiss_determinant(m) -> int:
    """Exact determinant of a square integer matrix, fraction-free."""
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def row_reduce(m, p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q (p None) or F_p, and its pivot columns.

    The one Gauss-Jordan loop of the package: rank, field kernels and
    unimodular inverses all read its output.  Over Q the entries are
    Fractions; over F_p they are ints in [0, p).
    """
    if p is None:
        a = [[Fraction(x) for x in row] for row in m]
    else:
        a = [[int(x) % p for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if p is None:
            inv = 1 / a[r][c]
            a[r] = [x * inv for x in a[r]]
        else:
            inv = pow(a[r][c], -1, p)
            a[r] = [x * inv % p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                if p is None:
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                else:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def rank(m, p: int | None = None) -> int:
    """Rank over Q (p None) or F_p of an integer (or Fraction) matrix."""
    return len(row_reduce(m, p)[1])


def field_kernel(m, p: int | None = None) -> list[tuple]:
    """Basis of the right kernel over Q or F_p, read off the RREF.

    One vector per free column.  Over Q each vector is cleared to an
    integer tuple; unlike kernel_basis the span is not saturated.
    """
    a, pivots = row_reduce(m, p)
    ncols = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(a, pivots):
            vec[pc] = -row[fc] if p is None else -row[fc] % p
        if p is None:
            den = lcm(*(x.denominator for x in vec))
            vec = [int(x * den) for x in vec]
        basis.append(tuple(vec))
    return basis


@dataclass(frozen=True)
class GramLattice:
    """A nondegenerate integer symmetric bilinear form on Z^n."""

    gram: Matrix

    def __post_init__(self):
        g = _to_matrix(self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if bareiss_determinant(g) == 0:
            raise DegenerateLatticeError("Gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)


def determinant(lattice: GramLattice) -> int:
    """Exact integer determinant of the Gram matrix."""
    return bareiss_determinant(lattice.gram)


def smith_normal_form(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (U, D, V), U*M*V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and
    d1 | d2 | ... along the diagonal.  Works for any integer matrix,
    including rectangular and zero matrices.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [list(r) for r in identity_matrix(rows)]
    v = [list(r) for r in identity_matrix(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # force the divisibility chain: pivot must divide the rest
                for i in range(t + 1, rows):
                    bad = next(
                        (j for j in range(t + 1, cols) if a[i][j] % a[t][t] != 0),
                        None,
                    )
                    if bad is not None:
                        add_row(i, t, 1)
                        dirty = True
                        break
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    if any(a[i][j] for i in range(t, rows) for j in range(t, cols)):
        raise CertificateError("Smith normal form left a nonzero entry past its pivots")
    return _to_matrix(u), _to_matrix(a), _to_matrix(v)


def unimodular_inverse(m: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = row_reduce(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    out = []
    for row in reduced:
        if any(x.denominator != 1 for x in row[n:]):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(x.numerator for x in row[n:]))
    return tuple(out)


@dataclass(frozen=True)
class DiscGroup:
    """The finite quotient L^v / L of a nondegenerate lattice.

    invariant_factors: d1 | d2 | ... (each > 1), generators as rational
    vectors in the lattice basis, and the value g.G.g mod 2Z on each
    generator.  On an odd lattice the mod-2Z value depends on the chosen
    representative; callers that need an invariant comparison should use
    cyclic_q_matches().
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]
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
    """Invariant factors, generators and Q/2Z form values of L^v / L.

    Generators are the columns of the Smith transform V scaled by the
    invariant factors: with U*G*V = D, the class of V[:,i]/d_i generates
    a Z/d_i summand.  The pairing and the form are computed on the
    integer column; only the stored generator is rational.
    """
    g = lattice.gram
    n = lattice.rank
    _, d, v = smith_normal_form(g)
    factors, gens, qvals = [], [], []
    for i in range(n):
        di = d[i][i]
        if di <= 1:
            continue
        col = [v[r][i] for r in range(n)]
        pairing = mat_vec(g, col)
        if any(x % di for x in pairing):
            raise CertificateError("discriminant group generator not in the dual lattice")
        factors.append(di)
        gens.append(tuple(Fraction(x, di) for x in col))
        qvals.append(QmodTwoZ(sum(c * x for c, x in zip(col, pairing)), di * di))
    return DiscGroup(tuple(factors), tuple(gens), tuple(qvals))


def _unit_scan(order: int, q: Fraction, targets, stop: int) -> tuple[int, int] | None:
    """First u < stop coprime to the order with u^2*q = targets[s] in Q/2Z.

    Returns (u, s), with the least s for that u, or None.  The values are
    compared as integer numerators over one common denominator den,
    modulo 2*den.
    """
    den = lcm(q.denominator, *(t.denominator for t in targets))
    mod = 2 * den
    a = q.numerator * (den // q.denominator)
    bs = [t.numerator * (den // t.denominator) % mod for t in targets]
    for u in range(stop):
        r = u * u * a % mod
        if r in bs and gcd(u, order) == 1:
            return u, bs.index(r)
    return None


def cyclic_q_matches(order: int, q1: QmodTwoZ, q2: QmodTwoZ) -> bool:
    """Whether q1 and q2 agree on some generator of a cyclic group.

    Generators of Z/order are unit multiples u of a fixed one, and the
    quadratic form scales by u^2, so this scans u coprime to the order
    for u^2*q1 = q2 in Q/2Z.  Lifts of the same unit differing by the
    order are scanned too.  This mod-2Z comparison is the right one for
    even lattices; on odd lattices use generator_with_q_value, which
    also adjusts the representative by lattice vectors.
    """
    bound = max(2 * order, 2 * lcm(q1.den, q2.den))
    return _unit_scan(order, q1.as_fraction(), (q2.as_fraction(),), bound) is not None


def generator_with_q_value(
    lattice: GramLattice, group: DiscGroup, target: QmodTwoZ
) -> tuple[Fraction, ...] | None:
    """Explicit generator of a cyclic discriminant group with q = target.

    Searches unit multiples u*g of the stored generator together with
    representative shifts by basis vectors; on an odd lattice the shift
    can change the value by an odd integer, so the search covers the
    whole mod-2Z ambiguity.  G*g is integral, so q(u*g + e_i) equals
    u^2*q(g) + G_ii mod 2Z and the search is a congruence on u; the
    vector found is checked by evaluating its q-value exactly.  Returns
    the dual vector found, or None.
    """
    if not group.is_cyclic() or group.is_trivial():
        raise ValueError("needs a nontrivial cyclic group")
    order = group.invariant_factors[0]
    gram = lattice.gram
    t = target.as_fraction()
    targets = [t] + [t - gram[i][i] for i in range(lattice.rank)]
    hit = _unit_scan(order, group.qvals[0].as_fraction(), targets, order)
    if hit is None:
        return None
    u, s = hit
    x = tuple(u * gi + int(i == s - 1) for i, gi in enumerate(group.generators[0]))
    q = sum(a * b for a, b in zip(x, mat_vec(gram, x)))
    return x if QmodTwoZ.from_fraction(q) == target else None


def divisibility(lattice: GramLattice, v) -> int:
    """Positive generator of the pairing ideal v.L inside Z."""
    vec = tuple(int(x) for x in v)
    if all(x == 0 for x in vec):
        raise ValueError("divisibility of the zero vector is undefined")
    pairings = mat_vec(lattice.gram, vec)
    g = 0
    for x in pairings:
        g = gcd(g, x)
    return g


def saturation(ambient_rank: int, basis) -> Matrix:
    """Basis of span_Q(basis) intersected with Z^n, computed via SNF.

    The result spans a saturated sublattice: the quotient of Z^n by it
    is torsion-free.  Rejects dependent input.
    """
    b = _to_matrix(basis)
    k = len(b)
    if k == 0:
        return ()
    if any(len(row) != ambient_rank for row in b):
        raise ValueError("basis vectors must have the ambient rank")
    if rank(b) != k:
        raise ValueError("basis is linearly dependent")
    _, _, v = smith_normal_form(b)
    vinv = unimodular_inverse(v)
    return tuple(vinv[i] for i in range(k))


def kernel_basis(m) -> Matrix:
    """Basis of the integer kernel {x : M x = 0}, automatically saturated."""
    mm = _to_matrix(m)
    if not mm:
        raise ValueError("empty matrix")
    cols = len(mm[0])
    _, d, v = smith_normal_form(mm)
    nonzero = sum(1 for i in range(min(len(mm), cols)) if d[i][i] != 0)
    vt = transpose(v)
    return tuple(vt[j] for j in range(nonzero, cols))


def orthogonal_complement(lattice: GramLattice, sub) -> GramLattice:
    """Gram matrix of {w : w.G.s = 0 for all s in sub}, saturated.

    Degenerate complements (the subspace meets its own orthogonal) raise
    DegenerateLatticeError rather than returning a rank-deficient form.
    """
    s = _to_matrix(sub)
    if not s:
        raise ValueError("empty sublattice basis")
    if rank(s) != len(s):
        raise ValueError("sublattice basis is linearly dependent")
    pairing = mat_mul(s, lattice.gram)
    comp = kernel_basis(pairing)
    gram = mat_mul(comp, mat_mul(lattice.gram, transpose(comp)))
    if bareiss_determinant(gram) == 0:
        raise DegenerateLatticeError("orthogonal complement is degenerate")
    return GramLattice(gram)
