"""Geometry of trivectors on a 10-dimensional space.

Contraction to skew matrices, the 45 quartic equations of the rank <= 6
degeneracy locus (principal 8x8 Pfaffians, built by one construction:
the nine that delete a pivot index r expanded, the other 36 exact
quotients by x_r of the Pfaffian relations of the contraction, where r
is the first nonzero coordinate whose row of the contraction is
nonzero), flag verification, exact rank at a point, the
quartics on a subspace built on its own basis by the same construction,
extraction of the distinguished cubic fourfold
as a certified GCD, smoothness certification through prime-field
Jacobian checks, and the auxiliary membership, kernel and line
verifiers.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .lattice import field_kernel, rank
from .ntheory import CertificateError, is_prime
from .polyring import (
    MAX_DIGITS,
    MultiPoly,
    _coeff_normalize,
    _groebner,
    _integral,
    _pack,
    _sum_of_products,
    basis_has_finite_zeros,
    exact_div,
    gcd_multivariate,
    normal_form,
    parse_coefficient,
    parse_integer,
    primitive_part,
    principal_pfaffians,
)

DIM = 10
_STANDARD_BASIS = tuple(tuple(int(i == j) for i in range(DIM)) for j in range(DIM))
# the 45 principal 8x8 minors, each named by the pair (a, b) it deletes
_PAIRS = tuple(combinations(range(DIM), 2))
# a common denominator over Q below this has at most MAX_DIGITS digits
_DENOMINATOR_LIMIT = 10**MAX_DIGITS


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


class TripleError(ValueError):
    """An entry that Trivector refuses; position is its place among the
    given entries, so a parser can name the line it came from."""

    def __init__(self, reason: str, triple, position: int):
        super().__init__(f"{reason} {' '.join(map(str, triple))}")
        self.position = position


def _read_triple(triple, position: int = 0) -> tuple[int, int, int]:
    """Three indices equal to ints (read by polyring._integral, else
    ValueError), each in 1..10 (else TripleError "bad index triple")."""
    i, j, k = map(_integral, triple)
    if not all(1 <= t <= DIM for t in (i, j, k)):
        raise TripleError("bad index triple", (i, j, k), position)
    return i, j, k


class Trivector:
    """An alternating 3-form on a 10-dimensional space.

    Coefficients are stored once per sorted triple 1 <= i < j < k <= 10
    (internally 0-based) and extended by antisymmetry; a repeated index
    gives zero.  Sign bookkeeping lives in one normalization routine.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int | None = None):
        """coeffs maps index triples (1-based) to coefficients, or is an
        iterable of (triple, coefficient) pairs.

        The one owner of the triple rules: three indices read by
        _read_triple, distinct (else TripleError "bad index triple"), and
        no triple twice up to reordering, whatever the coefficient of
        either occurrence (else TripleError "duplicate triple").  Each
        coefficient is read by _coeff_normalize.  Over Q the lcm of the
        denominators read so far must keep at most MAX_DIGITS digits
        (else TripleError at the entry that passes it): the cost of the
        cubic and its size follow that lcm.
        """
        self.p = p
        store: dict[tuple[int, int, int], object] = {}
        entries = coeffs.items() if hasattr(coeffs, "items") else coeffs
        den = 1
        for position, (triple, c) in enumerate(entries):
            i, j, k = _read_triple(triple, position)
            if len({i, j, k}) != 3:
                raise TripleError("bad index triple", (i, j, k), position)
            key, sign = _sort_triple(i - 1, j - 1, k - 1)
            if key in store:
                raise TripleError("duplicate triple", (i, j, k), position)
            # the sign applies to a value read, never to text
            c = sign * _coeff_normalize(c, p)
            if p is not None:
                c %= p
            elif type(c) is Fraction:
                den = lcm(den, c.denominator)
                if den >= _DENOMINATOR_LIMIT:
                    raise TripleError(
                        f"common denominator has more than MAX_DIGITS = {MAX_DIGITS} digits"
                        " at triple",
                        (i, j, k),
                        position,
                    )
            store[key] = c
        self.coeffs = {key: c for key, c in store.items() if c}

    def coefficient(self, i: int, j: int, k: int):
        """sigma(e_i, e_j, e_k) for 1-based indices, any order, read by
        _read_triple; 0 for a repeated index, as for any alternating form."""
        i, j, k = _read_triple((i, j, k))
        if len({i, j, k}) != 3:
            return 0
        key, sign = _sort_triple(i - 1, j - 1, k - 1)
        return _coeff_normalize(sign * self.coeffs.get(key, 0), self.p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def trilinear(self, u, v, w):
        """sigma(u, v, w) for coordinate vectors of length 10, each entry
        read by _coeff_normalize."""
        u, v, w = ([_coeff_normalize(x, self.p) for x in vec] for vec in (u, v, w))
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
    """The 10x10 skew matrix M[j][k] = sigma(v, e_j, e_k); each entry of v
    is read by _coeff_normalize."""
    if len(v) != DIM:
        raise ValueError("vector must have 10 coordinates")
    v = [_coeff_normalize(x, sigma.p) for x in v]
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
    for y_a, row in zip(_variable_keys(n), rows):
        for j, mrow in enumerate(contract(sigma, row)):
            for k, c in enumerate(mrow):
                if c:
                    entries[j][k][y_a] = c
    # contract has normalised every entry
    return [[MultiPoly._raw(n, entry, sigma.p) for entry in erow] for erow in entries]


def _variable_keys(n: int) -> list[int]:
    """The packed keys of the n variables y_1, ..., y_n."""
    return [_pack([int(t == a) for t in range(n)], n) for a in range(n)]


@dataclass(frozen=True)
class PeskineSystem:
    """The 45 quartics cutting the rank <= 6 locus of a trivector.

    quartics[t] is the Pfaffian of the principal 8x8 submatrix with the
    rows and columns removed_pairs[t] (1-based, lexicographic) deleted
    (see _quartics for how they are built).
    """

    removed_pairs: tuple[tuple[int, int], ...]
    quartics: tuple[MultiPoly, ...]


def _quartics(matrix, x) -> list[MultiPoly]:
    """The 45 principal 8x8 Pfaffians of a 10x10 skew matrix M of forms
    with M x = 0, for linear forms x_0..x_9 in its ring; entry t deletes
    the rows and columns _PAIRS[t] (0-based indices).

    The columns of the Pfaffian adjugate P~ (P~_ij = (-1)^(i+j) Pf_ij for
    i < j, skew) lie in ker M together with x, so x wedge P~ = 0: over
    Z[M][x], hence over Q and every F_p, for distinct r, j, k,

        x_r P~_jk = -x_j P~_kr - x_k P~_rj.

    The pivot r is the first index with x_r nonzero and row r of M
    nonzero, else the first with x_r nonzero.  The nine Pfaffians Pf_rk
    are expanded by principal_pfaffians; each of the other 36 is the
    two-product numerator on the right divided exactly by x_r (term by
    term when x_r is one term, by long division otherwise), and a term
    that x_r does not divide raises CertificateError.  A zero row of M,
    as the row of w1 on the 6-space of a flag, is passed over, and the
    eight Pf_rk that keep it vanish; when it comes first, as row 0 on the
    standard flag, they vanish at the first step of their expansion, and
    one 8x8 expansion remains.
    """
    live = [r for r in range(DIM) if x[r]._packed]
    r = next((r for r in live if any(q._packed for q in matrix[r])), live[0])
    others = [k for k in range(DIM) if k != r]
    heads = principal_pfaffians(
        matrix, [[t for t in others if t != k] for k in others]
    )
    pf = dict(zip(others, heads))  # pf[k] = Pf_rk
    nvars, p = x[r].nvars, x[r].p
    quartics = []
    for j, k in _PAIRS:
        if r in (j, k):
            quartics.append(pf[k if j == r else j])
            continue
        # the signs of -x_j P~_kr and -x_k P~_rj written with Pf_rk, Pf_rj
        numerator = _sum_of_products(
            nvars,
            p,
            (
                (((j + r) % 2 == 0) == (k < r), x[j]._packed, pf[k]._packed),
                (((k + r) % 2 == 0) == (r < j), x[k]._packed, pf[j]._packed),
            ),
        )
        try:
            quartics.append(exact_div(numerator, x[r]))
        except ValueError as exc:
            raise CertificateError(
                f"x{r + 1} does not divide the Pfaffian relation for the pair ({j + 1}, {k + 1})"
            ) from exc
    return quartics


def peskine_equations(sigma: Trivector) -> PeskineSystem:
    """All principal 8x8 Pfaffians of the symbolic contraction M.

    A skew matrix has even rank, so rank <= 6 is rank < 8, which is the
    simultaneous vanishing of these 45 degree-4 forms.  M x = 0, since
    sigma(x, x, .) = 0, so _quartics builds them: the nine that delete
    the first index of a nonzero row of M are expanded (index 1 unless
    no triple holds it), the other 36 are exact quotients by that
    coordinate; a term it does not divide raises CertificateError.
    """
    p = sigma.p
    x = [MultiPoly.variable(i, DIM, p) for i in range(DIM)]
    return PeskineSystem(
        tuple((a + 1, b + 1) for a, b in _PAIRS), tuple(_quartics(symbolic_contract(sigma), x))
    )


@dataclass(frozen=True)
class Flag:
    """A marked flag: a line spanned by w1 inside the 6-space rows(w6),
    integer vectors whose entries are read by polyring._integral."""

    w1: tuple[int, ...]
    w6: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        w1 = tuple(map(_integral, self.w1))
        w6 = tuple(tuple(map(_integral, row)) for row in self.w6)
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


def _subspace_rows(rows, count: int | None, name: str, p: int | None) -> list[tuple]:
    """rows as tuples of entries read by _coeff_normalize, once they are
    count 10-vectors (at least one when count is None) of full rank over
    Q or F_p; ValueError naming the argument if not."""
    rows = [tuple(_coeff_normalize(x, p) for x in r) for r in rows]
    if (
        not rows
        or count not in (None, len(rows))
        or any(len(r) != DIM for r in rows)
        or rank(rows, p) != len(rows)
    ):
        size = "" if count is None else f"{count} "
        raise ValueError(f"{name} must be {size}linearly independent 10-vectors")
    return rows


def restrict_to_subspace(sigma: Trivector, rows) -> list[MultiPoly]:
    """The 45 quartics of sigma on the subspace spanned by rows.

    Entry t is the quartic that peskine_equations lists t-th, composed
    with x = sum_a y_a rows[a].  Taking a Pfaffian commutes with that
    substitution, so the forms are the principal Pfaffians of the
    contraction built on the rows themselves, in len(rows) variables,
    and that contraction annihilates the coordinate forms x_i =
    sum_a rows[a][i] y_a, which are not all zero as the rows have full
    rank.  So _quartics builds them: on the standard flag row 1 of the
    contraction is zero, the pivot is x_2 = y_2, and one 8x8 expansion
    remains; on general rows the pivot is a form of several terms, and
    the 36 quotients are long divisions.
    """
    p = sigma.p
    rows = _subspace_rows(rows, None, "rows", p)
    n = len(rows)
    keys = _variable_keys(n)
    x = [MultiPoly._raw(n, {y_a: row[i] for y_a, row in zip(keys, rows)}, p) for i in range(DIM)]
    return _quartics(symbolic_contract(sigma, rows), x)


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


PRIME_LIMIT = 2**31  # keeps the trial division of is_prime below 46 341 steps


def require_prime(p: int) -> int:
    """p itself, once it is a prime below PRIME_LIMIT other than 2 and 3;
    ValueError if not, the bound checked before any trial division.

    The one test of which characteristics smoothness_check accepts.
    """
    if p >= PRIME_LIMIT:
        raise ValueError(f"p = {p}: {p} is not below the prime bound 2^31")
    if not is_prime(p):
        raise ValueError(f"p = {p}: {p} is not prime")
    if p in (2, 3):
        raise ValueError(f"p = {p}: characteristic {p} is excluded")
    return p


def smoothness_check(cubic: MultiPoly, p: int) -> SmoothnessVerdict:
    """Jacobian criterion for a cubic fourfold over F_p: the one-prime
    case of smoothness_checks."""
    return next(smoothness_checks(cubic, (p,)))


def smoothness_checks(cubic: MultiPoly, primes) -> Iterator[SmoothnessVerdict]:
    """Jacobian criterion for a cubic fourfold over F_p, for each of the
    given distinct primes: one verdict per prime, yielded in their order.

    The cubic and the primes are checked at the call (ValueError for a
    polynomial that is not a rational cubic in 6 variables, for no
    prime, a repeated one, or one that require_prime refuses); the
    verdicts are computed as they are drawn.  The primitive part has
    coprime integer coefficients, so its reduction keeps degree 3 for
    every p.  Its six partials are reduced mod N, the product of the
    primes, and the pair loop _groebner computes one Groebner basis of
    their ideal over Z/N, not autoreduced: read mod each p it is a
    basis over F_p (see _groebner).  When a leading coefficient is no
    unit mod N, as when the cubic is singular mod only some of the
    primes, each prime gets its own run instead.  When all six partials
    are nonzero, the loop skips the S-pairs that the Hilbert function
    (1 + t)^6 of a regular sequence of quadrics proves redundant, and
    stops at degree 7 when the cubic is smooth; the basis is the same.
    A run is read twice.  Its leads are units, the same mod every prime
    it serves, and decide the verdict once: smooth exactly when the
    partials' only common zero over the closure is the origin.  One
    normal form of the cubic against it certifies the Euler relation
    (the cubic lies in the ideal): its remainder, read mod each p (see
    normal_form), must vanish there, else CertificateError names p.
    """
    if cubic.p is not None or cubic.nvars != 6:
        raise ValueError("expected a rational cubic in 6 variables")
    if cubic.total_degree() != 3 or not cubic.is_homogeneous():
        raise ValueError("polynomial is not a homogeneous cubic")
    primes = tuple(map(require_prime, primes))
    if not primes:
        raise ValueError("smoothness needs at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError(f"the primes must differ, got {', '.join(map(str, primes))}")
    return _verdicts(primitive_part(cubic), primes)


def _jacobian_basis(prim: MultiPoly, n: int) -> list[MultiPoly]:
    """A Groebner basis over Z/n, not autoreduced, of the nonzero
    partials of prim mod n; ZeroDivisionError from _groebner at a lead
    that is no unit mod n."""
    reduced = prim.reduce_mod(n)
    partials = [reduced.derivative(i) for i in range(6)]
    return _groebner([q for q in partials if not q.is_zero()])


def _jacobian_run(prim: MultiPoly, n: int) -> tuple[str, dict]:
    """The verdict of the Jacobian basis over Z/n and the packed Euler
    remainder of prim against it."""
    basis = _jacobian_basis(prim, n)
    kind = "smooth" if basis_has_finite_zeros(basis, 6) else "singular"
    return kind, normal_form(prim.reduce_mod(n), basis)._packed


def _verdicts(prim: MultiPoly, primes: tuple[int, ...]) -> Iterator[SmoothnessVerdict]:
    try:
        joint = _jacobian_run(prim, prod(primes))
    except ZeroDivisionError:
        joint = None  # the primes disagree on a lead: one run per prime
    for p in primes:
        kind, remainder = _jacobian_run(prim, p) if joint is None else joint
        # internal consistency: 3f = sum x_i df/dx_i, so f lies in the ideal
        if any(c % p for c in remainder.values()):
            raise CertificateError(f"Euler relation failed against the Groebner basis mod {p}")
        yield SmoothnessVerdict(kind, p)


def x6_membership(sigma: Trivector, v6) -> bool:
    """Whether sigma restricts to zero on the 6-space spanned by v6."""
    rows = _subspace_rows(v6, 6, "v6", sigma.p)
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
    rows = _subspace_rows(v7, 7, "v7", sigma.p)
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
    rows = _subspace_rows(v2, 2, "v2", sigma.p)
    return all(q.is_zero() for q in restrict_to_subspace(sigma, rows))


# -- trivector text format --------------------------------------------


def parse_trivector(text: str, p: int | None = None) -> Trivector:
    """Parse the line format `i j k c` with `#` comments.

    i, j and k are integer tokens, read by parse_integer; c is a nonzero
    integer or a/b, read by parse_coefficient.  So `1_0`, `1e3` and
    non-ASCII digits are refused.  The triple rules are those of
    Trivector.  Errors name the line.
    """
    entries = []
    linenos = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'i j k c', got {raw!r}")
        try:
            i, j, k = (parse_integer(x, "index") for x in parts[:3])
            c = parse_coefficient(parts[3])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise ValueError(f"line {lineno}: zero denominator in {parts[3]!r}") from exc
        if c == 0:
            raise ValueError(f"line {lineno}: zero coefficient")
        entries.append(((i, j, k), c))
        linenos.append(lineno)
    try:
        return Trivector(entries, p)
    except TripleError as exc:
        raise ValueError(f"line {linenos[exc.position]}: {exc}") from exc
