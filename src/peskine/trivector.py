"""Geometry of trivectors on a 10-dimensional space.

Contraction to skew matrices, the 45 quartic equations of the rank <= 6
degeneracy locus (principal 8x8 Pfaffians), flag verification, exact
rank at a point, the quartics on a subspace built on its own basis,
extraction of the distinguished cubic fourfold as a certified GCD,
smoothness certification through prime-field Jacobian checks, and the
auxiliary membership, kernel and line verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .lattice import field_kernel, rank
from .ntheory import CertificateError, is_prime
from .polyring import (
    MultiPoly,
    _coeff_normalize,
    basis_has_finite_zeros,
    buchberger,
    exact_div,
    gcd_multivariate,
    normal_form,
    primitive_part,
    principal_pfaffians,
)

DIM = 10
_STANDARD_BASIS = tuple(tuple(int(i == j) for i in range(DIM)) for j in range(DIM))
# the 45 principal 8x8 minors: pair (a, b) deleted, its complement kept
_PAIRS = tuple(combinations(range(DIM), 2))
_COMPLEMENTS = tuple(
    tuple(t for t in range(DIM) if t not in pair) for pair in _PAIRS
)


def _sort_triple(i: int, j: int, k: int) -> tuple[tuple[int, int, int], int]:
    """Sorted index triple and the sign of the sorting permutation."""
    sign = 1
    t = [i, j, k]
    if t[0] > t[1]:
        t[0], t[1] = t[1], t[0]
        sign = -sign
    if t[1] > t[2]:
        t[1], t[2] = t[2], t[1]
        sign = -sign
    if t[0] > t[1]:
        t[0], t[1] = t[1], t[0]
        sign = -sign
    return (t[0], t[1], t[2]), sign


class Trivector:
    """An alternating 3-form on a 10-dimensional space.

    Coefficients are stored once per sorted triple 1 <= i < j < k <= 10
    (internally 0-based) and extended by antisymmetry; a repeated index
    gives zero.  Sign bookkeeping lives in one normalization routine.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int | None = None):
        """coeffs maps index triples (1-based) to coefficients."""
        self.p = p
        store: dict[tuple[int, int, int], object] = {}
        for (i, j, k), c in coeffs.items():
            if len({i, j, k}) != 3:
                raise ValueError(f"repeated index in triple {(i, j, k)}")
            if not all(1 <= t <= DIM for t in (i, j, k)):
                raise ValueError(f"index out of range in {(i, j, k)}")
            key, sign = _sort_triple(i - 1, j - 1, k - 1)
            c = _coeff_normalize(sign * c, p)
            if key in store:
                raise ValueError(f"duplicate triple {(i, j, k)}")
            if c:
                store[key] = c
        self.coeffs = store

    def coefficient(self, i: int, j: int, k: int):
        """sigma(e_i, e_j, e_k) for 1-based indices, any order."""
        if len({i, j, k}) != 3:
            return 0
        key, sign = _sort_triple(i - 1, j - 1, k - 1)
        return _coeff_normalize(sign * self.coeffs.get(key, 0), self.p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def trilinear(self, u, v, w):
        """sigma(u, v, w) for coordinate vectors of length 10."""
        total = 0
        for (i, j, k), c in self.coeffs.items():
            det = (
                u[i] * (v[j] * w[k] - v[k] * w[j])
                - u[j] * (v[i] * w[k] - v[k] * w[i])
                + u[k] * (v[i] * w[j] - v[j] * w[i])
            )
            if det:
                total += c * det
        return _coeff_normalize(total, self.p)


def contract(sigma: Trivector, v) -> list[list]:
    """The 10x10 skew matrix M[j][k] = sigma(v, e_j, e_k)."""
    if len(v) != DIM:
        raise ValueError("vector must have 10 coordinates")
    m = [[0] * DIM for _ in range(DIM)]
    for (i, j, k), c in sigma.coeffs.items():
        m[j][k] += v[i] * c
        m[k][j] -= v[i] * c
        m[i][k] -= v[j] * c
        m[k][i] += v[j] * c
        m[i][j] += v[k] * c
        m[j][i] -= v[k] * c
    return [[_coeff_normalize(x, sigma.p) for x in row] for row in m]


def symbolic_contract(sigma: Trivector, rows=None) -> list[list[MultiPoly]]:
    """The 10x10 skew matrix of linear forms sum_a y_a contract(sigma, rows[a]).

    The forms live in len(rows) variables; the rows default to the
    standard basis, which gives the entries sum_i sigma_ijk x_i.
    """
    if rows is None:
        rows = _STANDARD_BASIS
    n = len(rows)
    entries = [[{} for _ in range(DIM)] for _ in range(DIM)]
    for a, row in enumerate(rows):
        y_a = tuple(int(t == a) for t in range(n))
        for j, mrow in enumerate(contract(sigma, row)):
            for k, c in enumerate(mrow):
                if c:
                    entries[j][k][y_a] = c
    return [[MultiPoly(n, entry, sigma.p) for entry in erow] for erow in entries]


@dataclass(frozen=True)
class PeskineSystem:
    """The 45 quartics cutting the rank <= 6 locus of a trivector.

    quartics[t] is the Pfaffian of the principal 8x8 submatrix with the
    rows and columns removed_pairs[t] (1-based, lexicographic) deleted.
    """

    removed_pairs: tuple[tuple[int, int], ...]
    quartics: tuple[MultiPoly, ...]


def peskine_equations(sigma: Trivector) -> PeskineSystem:
    """All principal 8x8 Pfaffians of the symbolic contraction.

    A skew matrix has even rank, so rank <= 6 is rank < 8, which is the
    simultaneous vanishing of these 45 degree-4 forms.
    """
    quartics = principal_pfaffians(symbolic_contract(sigma), _COMPLEMENTS)
    return PeskineSystem(
        tuple((a + 1, b + 1) for a, b in _PAIRS), tuple(quartics)
    )


@dataclass(frozen=True)
class Flag:
    """A marked flag: a line spanned by w1 inside the 6-space rows(w6)."""

    w1: tuple[int, ...]
    w6: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        w1 = tuple(int(x) for x in self.w1)
        w6 = tuple(tuple(int(x) for x in row) for row in self.w6)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w6", w6)
        if len(w1) != DIM or any(len(r) != DIM for r in w6) or len(w6) != 6:
            raise ValueError("flag needs a 10-vector and a 6x10 matrix")
        if all(x == 0 for x in w1):
            raise ValueError("w1 must be nonzero")
        if rank(w6) != 6:
            raise ValueError("w6 must have rank 6")
        if rank(w6 + (w1,)) != 6:
            raise ValueError("w1 must lie in the span of w6")


def standard_flag() -> Flag:
    """w1 = e1 inside w6 = span(e1..e6)."""
    return Flag(_STANDARD_BASIS[0], _STANDARD_BASIS[:6])


def verify_flag(sigma: Trivector, flag: Flag) -> bool:
    """Whether sigma(w1, w6, V10) vanishes identically.

    Checked as 60 trilinear evaluations: each row of w6 against each
    standard basis vector.
    """
    m = contract(sigma, flag.w1)
    for row in flag.w6:
        pair = [0] * DIM
        for j, rj in enumerate(row):
            if rj:
                mrow = m[j]
                for k in range(DIM):
                    pair[k] += rj * mrow[k]
        if any(_coeff_normalize(x, sigma.p) for x in pair):
            return False
    return True


def rank_at_point(sigma: Trivector, v) -> int:
    """Exact rank of the contraction at v; always even."""
    if all(x == 0 for x in v):
        raise ValueError("rank at the zero vector is undefined")
    return rank(contract(sigma, v), sigma.p)


def restrict_to_subspace(sigma: Trivector, rows) -> list[MultiPoly]:
    """The 45 quartics of sigma on the subspace spanned by rows.

    Entry t is the quartic that peskine_equations lists t-th, composed
    with x = sum_a y_a rows[a].  Taking a Pfaffian commutes with that
    substitution, so the forms are the principal Pfaffians of the
    contraction built on the rows themselves, in len(rows) variables.
    """
    rows = [tuple(r) for r in rows]
    if (
        not rows
        or any(len(r) != DIM for r in rows)
        or rank(rows, sigma.p) != len(rows)
    ):
        raise ValueError("rows must be linearly independent 10-vectors")
    return principal_pfaffians(symbolic_contract(sigma, rows), _COMPLEMENTS)


class CubicExtractionError(CertificateError):
    """The flag does not annihilate sigma, or no degree-3 factor is shared."""


def extract_cubic(sigma: Trivector, flag: Flag) -> MultiPoly:
    """The distinguished cubic: common degree-3 factor of the restrictions.

    Requires the flag to annihilate sigma and sigma to live over Q.
    Returns the integer-primitive, positive-lead normalization of the
    GCD of the nonzero restricted quartics, after certifying that it is
    homogeneous of degree 3 and divides every restricted quartic with a
    degree-1 homogeneous quotient.
    """
    if sigma.p is not None:
        raise ValueError("cubic extraction needs rational coefficients")
    if not verify_flag(sigma, flag):
        raise CubicExtractionError("flag does not annihilate the trivector")
    restricted = restrict_to_subspace(sigma, flag.w6)
    nonzero = [q for q in restricted if not q.is_zero()]
    if not nonzero:
        raise CubicExtractionError("all restricted quartics vanish identically")
    # Once the running GCD has degree <= 3 the division certificate below
    # decides the rest: a cubic dividing every quartic is their GCD.
    g = nonzero[0]
    for q in nonzero[1:]:
        if g.total_degree() <= 3:
            break
        g = gcd_multivariate(g, q)
    g = primitive_part(g)
    if g.total_degree() != 3 or not g.is_homogeneous():
        raise CubicExtractionError(f"common factor has degree {g.total_degree()}, expected 3")
    for q in nonzero:
        try:
            quotient = exact_div(q, g)
            linear = quotient.total_degree() == 1 and quotient.is_homogeneous()
        except ValueError:
            linear = False
        if not linear:
            raise CubicExtractionError("restricted quartic is not cubic times a linear form")
    return g


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Outcome of a prime-field Jacobian check."""

    kind: str  # "smooth" | "singular"
    prime: int

    def is_smooth(self) -> bool:
        return self.kind == "smooth"


def require_prime(p: int) -> int:
    """p itself, once it is a prime other than 2 and 3; ValueError if not.

    The one test of which characteristics smoothness_check accepts.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p}: {p} is not prime")
    if p in (2, 3):
        raise ValueError(f"p = {p}: characteristic {p} is excluded")
    return p


def smoothness_check(cubic: MultiPoly, p: int) -> SmoothnessVerdict:
    """Jacobian criterion for a cubic fourfold, over F_p.

    Reduces the cubic mod p (a ValueError if p is 2 or 3 or not prime),
    forms the six partials and computes one reduced Groebner basis of
    their ideal.  The primitive part has coprime integer coefficients,
    so its reduction keeps degree 3 for every p.  The basis certifies
    the Euler relation (the cubic lies in the ideal; CertificateError if
    not) and decides the verdict: smooth exactly when the partials' only
    common zero over the closure is the origin.
    """
    if cubic.p is not None or cubic.nvars != 6:
        raise ValueError("expected a rational cubic in 6 variables")
    if cubic.total_degree() != 3 or not cubic.is_homogeneous():
        raise ValueError("polynomial is not a homogeneous cubic")
    require_prime(p)
    reduced = primitive_part(cubic).reduce_mod(p)
    partials = [reduced.derivative(i) for i in range(6)]
    basis = buchberger([q for q in partials if not q.is_zero()])
    # internal consistency: 3f = sum x_i df/dx_i, so f lies in the ideal
    if not normal_form(reduced, basis).is_zero():
        raise CertificateError(f"Euler relation failed against the Groebner basis mod {p}")
    kind = "smooth" if basis_has_finite_zeros(basis, 6) else "singular"
    return SmoothnessVerdict(kind, p)


def x6_membership(sigma: Trivector, v6) -> bool:
    """Whether sigma restricts to zero on the 6-space spanned by v6."""
    rows = [tuple(r) for r in v6]
    if len(rows) != 6 or rank(rows, sigma.p) != 6:
        raise ValueError("v6 must be a rank-6 6x10 matrix")
    for a, b, c in combinations(range(6), 3):
        if sigma.trilinear(rows[a], rows[b], rows[c]) != 0:
            return False
    return True


def x7_kernel(sigma: Trivector, v7, domain: str = "v7") -> list[tuple]:
    """Kernel of v -> (sigma(v, b_i, b_j))_{i<j} for rows b of v7.

    domain "v7" restricts v to the span of v7 (vectors are returned in
    ambient coordinates); domain "v10" takes v through all of V10.  The
    linear forms are written on the domain's own basis: the rows of v7,
    or the standard basis of V10.
    """
    if domain not in ("v7", "v10"):
        raise ValueError("domain must be 'v7' or 'v10'")
    rows = [tuple(r) for r in v7]
    if len(rows) != 7 or rank(rows, sigma.p) != 7:
        raise ValueError("v7 must be a rank-7 7x10 matrix")
    basis = rows if domain == "v7" else _STANDARD_BASIS
    forms = [
        [sigma.trilinear(u, rows[a], rows[b]) for u in basis]
        for a, b in combinations(range(7), 2)
    ]
    kernel = field_kernel(forms, sigma.p)
    if domain == "v10":
        return kernel
    out = []
    for vec in kernel:
        amb = [0] * DIM
        for s in range(7):
            if vec[s]:
                for t in range(DIM):
                    amb[t] += vec[s] * rows[s][t]
        out.append(tuple(_coeff_normalize(x, sigma.p) for x in amb))
    return out


def line_in_peskine(sigma: Trivector, v2) -> bool:
    """Whether the line through rows(v2) lies in the rank <= 6 locus.

    Takes the 45 quartics on the 2-space spanned by the rows (see
    restrict_to_subspace) and checks that every binary quartic vanishes.
    """
    rows = [tuple(r) for r in v2]
    if len(rows) != 2:
        raise ValueError("v2 must be a rank-2 2x10 matrix")
    return all(q.is_zero() for q in restrict_to_subspace(sigma, rows))


# -- trivector text format --------------------------------------------


def parse_trivector(text: str, p: int | None = None) -> Trivector:
    """Parse the line format `i j k c` with `#` comments.

    c is a nonzero integer or rational a/b; duplicate triples (up to
    reordering) are an error.
    """
    coeffs: dict[tuple[int, int, int], object] = {}
    seen: set[tuple[int, int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'i j k c', got {raw!r}")
        try:
            i, j, k = (int(x) for x in parts[:3])
            c = Fraction(parts[3])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise ValueError(f"line {lineno}: zero denominator in {parts[3]!r}") from exc
        if len({i, j, k}) != 3 or not all(1 <= t <= DIM for t in (i, j, k)):
            raise ValueError(f"line {lineno}: bad index triple {i} {j} {k}")
        if c == 0:
            raise ValueError(f"line {lineno}: zero coefficient")
        key = tuple(sorted((i, j, k)))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate triple {i} {j} {k}")
        seen.add(key)
        coeffs[(i, j, k)] = c
    return Trivector(coeffs, p)


def format_trivector(sigma: Trivector) -> str:
    """One `i j k c` line per stored triple, sorted."""
    lines = []
    for (i, j, k) in sorted(sigma.coeffs):
        lines.append(f"{i + 1} {j + 1} {k + 1} {Fraction(sigma.coeffs[(i, j, k)])}")
    return "\n".join(lines) + "\n"
