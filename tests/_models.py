"""Shared helpers for tests: block lattices, orthogonal complements, the
cyclic q-value match, membership checks, a reference row reduction, a
reference square scan and square walk, the reference grevlex order, a reference
polynomial evaluation, a reference normal form over F_p, a reference
exact division and content over Q in Fractions, the 45 quartics of a
trivector on a subspace as 45 separate Pfaffian expansions, and the
smoothness verdict of a cubic from one reduced basis per prime.

The *_model functions build explicit even lattices in the genus of the
marking complement and of the K3/cubic-side complements.  By the
uniqueness of indefinite even lattices of rank >= 3 in a genus, the
discriminant forms of these models are the true invariants the
association criteria talk about, which makes them an independent
ground truth for the congruence constants.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from peskine.lattice import GramLattice, field_kernel, mat_vec, smith_normal_form
from peskine.ntheory import CertificateError
from peskine.polyring import buchberger, primitive_part, principal_pfaffians
from peskine.trivector import symbolic_contract

# Cartan matrix of E8: chain 1..7 with node 8 attached to node 5.
E8_GRAM = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

U_GRAM = ((0, 1), (1, 0))
Q11_GRAM = ((2, 1), (1, 6))  # even, positive definite, determinant 11
A2_GRAM = ((2, 1), (1, 2))

# the Q11 generator has square 6/11, so scaling by m realizes the
# residue 6*m^2 mod 22 of the sliced square; this maps each admissible
# residue prime to 22 to its scaling
_M_FOR_RESIDUE = {6: 1, 2: 2, 10: 3, 8: 4, 18: 5}


def block_diagonal(*blocks) -> GramLattice:
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[off + i][off + j] = x
        off += len(b)
    return GramLattice(tuple(tuple(r) for r in g))


def integer_kernel(m) -> list[tuple[int, ...]]:
    """Saturated basis of {x in Z^n : M x = 0}, read off the Smith form.

    With U*M*V = D, it is the columns of V past the nonzero diagonal.
    """
    _, d, v = smith_normal_form(m)
    n = len(v)
    nonzero = sum(1 for i in range(min(len(d), n)) if d[i][i])
    return [tuple(row[j] for row in v) for j in range(nonzero, n)]


def orthogonal_complement(lattice: GramLattice, sub) -> GramLattice:
    """Gram lattice of {w : w.G.s = 0 for all s in sub}, on a saturated basis.

    GramLattice raises DegenerateLatticeError when the complement meets
    its own orthogonal.
    """
    g = lattice.gram
    comp = integer_kernel([mat_vec(g, s) for s in sub])
    return GramLattice([[sum(a * b for a, b in zip(x, mat_vec(g, y))) for y in comp] for x in comp])


def cyclic_q_matches(order: int, q1, q2) -> bool:
    """Whether q1 and q2 agree on some generator of a cyclic group.

    Generators of Z/order are the unit multiples u of a fixed one, and
    the form scales by u^2, so this looks for u coprime to the order with
    u^2*q1 = q2 in Q/2Z, lifts differing by the order included.  The
    mod-2Z comparison is the right one for the even models here.
    """
    den = lcm(q1.den, q2.den)
    a = q1.num * (den // q1.den)
    b = q2.num * (den // q2.den)
    mod = 2 * den
    bound = max(2 * order, mod)
    return any(gcd(u, order) == 1 and (u * u * a - b) % mod == 0 for u in range(bound))


def integer_inverse(m) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, read off the kernel of [M | -I].

    The free columns of [M | -I] are its last n, and the kernel vector
    of free column n + j is (column j of M^-1, e_j).
    """
    n = len(m)
    kernel = field_kernel([list(row) + [-int(i == j) for j in range(n)] for i, row in enumerate(m)])
    return [list(row) for row in zip(*(vec[:n] for vec in kernel))]


def row_reduce_reference(m, p: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q (p None) or F_p, and its pivot columns.

    Gauss-Jordan on Fractions over Q and on ints in [0, p) over F_p, an
    entry a/b being read as a * b^-1 mod p.  It shares no code with the
    fraction-free lattice._eliminate, so it judges rank and field_kernel
    independently.
    """
    a = [[Fraction(x) for x in row] for row in m]
    if p is not None:
        a = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in a]
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


def kernel_reference(m, p: int | None = None) -> list[tuple]:
    """Right kernel read off row_reduce_reference: one vector per free
    column, 1 there over F_p, cleared to integers by the lcm of the
    denominators over Q."""
    a, pivots = row_reduce_reference(m, p)
    ncols = len(a[0]) if a else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(a, pivots):
            vec[pc] = -row[fc] if p is None else -row[fc] % p
        if p is None:
            den = lcm(*(Fraction(x).denominator for x in vec))
            vec = [int(x * den) for x in vec]
        basis.append(tuple(vec))
    return basis


def vanishing_lattice_model() -> GramLattice:
    """Even lattice of signature type (20, 2)-genus with discriminant 11."""
    return block_diagonal(U_GRAM, U_GRAM, E8_GRAM, E8_GRAM, Q11_GRAM)


def marking_complement_model(d: int) -> GramLattice:
    """Even rank-21 model of the marking complement for 22 | d, 121 not | d.

    Obtained by slicing a hyperbolic summand of the discriminant-11
    lattice along a pairing-1 vector of square d/11.
    """
    assert d % 22 == 0 and d % 121 != 0
    return block_diagonal(((-(d // 11),),), U_GRAM, E8_GRAM, E8_GRAM, Q11_GRAM)


def div11_marking_complement_model(d: int) -> GramLattice:
    """Even rank-21 marking complement for admissible d prime to 11.

    Slices the discriminant-11 lattice along a vector of square 11d all
    of whose pairings are multiples of 11; the scaling of the order-11
    dual class is chosen so that such a vector exists for the given
    residue of d mod 22.
    """
    m = _M_FOR_RESIDUE[d % 22]
    k = (d - 6 * m * m) // 22
    w = [0] * 22
    w[0] = 11
    w[1] = 11 * k
    w[20] = 6 * m
    w[21] = -m
    return orthogonal_complement(vanishing_lattice_model(), [w])


def k3_polarization_complement_model(d: int) -> GramLattice:
    """Sign-twisted complement of a degree-d polarization on a K3 surface."""
    assert d > 0 and d % 2 == 0
    return block_diagonal(((d,),), U_GRAM, U_GRAM, E8_GRAM, E8_GRAM)


def cubic_marking_complement_model(d: int) -> GramLattice:
    """Complement of a discriminant-d cubic fourfold marking, d = 0 mod 6, 9 not | d."""
    assert d % 6 == 0 and d % 9 != 0
    return block_diagonal(((-(d // 3),),), U_GRAM, E8_GRAM, E8_GRAM, A2_GRAM)


def div3_cubic_complement_model(d: int) -> GramLattice:
    """Complement of a discriminant-d cubic fourfold marking, d = 2 mod 6.

    Slices the primitive-cohomology model along a vector of square 3d
    whose pairings are all multiples of 3.
    """
    assert d % 6 == 2
    k = (d - 2) // 6
    w = [0] * 22
    w[0] = 3
    w[1] = 3 * k
    w[20] = 2
    w[21] = -1
    gamma = block_diagonal(U_GRAM, U_GRAM, E8_GRAM, E8_GRAM, A2_GRAM)
    return orthogonal_complement(gamma, [w])


def same_lattice(rows_a, rows_b) -> bool:
    """Whether two bases generate the same integer lattice."""
    return _contains(rows_a, rows_b) and _contains(rows_b, rows_a)


def _contains(big, small) -> bool:
    """Whether every row of small is an integer combination of rows of big."""
    big = [list(r) for r in big]
    u, dmat, v = smith_normal_form(big)
    k = len(big)
    n = len(big[0])
    for target in small:
        # solve x * big = target over Z: y * D = (target * V), y = x * U^-1
        tv = [
            sum(target[i] * v[i][j] for i in range(n)) for j in range(n)
        ]
        y = []
        ok = True
        for j in range(n):
            dj = dmat[j][j] if j < k else 0
            if dj == 0:
                if tv[j] != 0:
                    ok = False
                    break
            else:
                if tv[j] % dj != 0:
                    ok = False
                    break
                y.append(tv[j] // dj)
        if not ok:
            return False
    return True


def square_root_mod_reference(a: int, m: int, coeff: int = 1) -> int | None:
    """Smallest k >= 0 with coeff*k*k = a (mod m), or None, scanning k <= m // 2.

    The half-modulus scan that ntheory.square_root_mod replaces with a walk
    over one residue class: m - k has the same square as k, so this range
    needs no period argument, gcd or modular inverse at all.
    """
    a %= m
    coeff %= m
    for k in range(m // 2 + 1):
        if coeff * k * k % m == a:
            return k
    return None


def square_roots_mod_reference(a: int, m: int, coeff: int, top: int):
    """Every k in 0..top with coeff*k*k = a (mod m), ascending, for m > 0 and
    top >= 0: the plain walk.

    The residue-class walk that ntheory.square_roots_mod sieves: with
    g = gcd(coeff, m) and m' = m // g it visits every x = b, b + m', ...
    up to top*top, b = (a // g) * (coeff // g)^-1 mod m', and yields isqrt(x)
    at each perfect square, with no filter before isqrt.
    """
    a %= m
    coeff %= m
    g = gcd(coeff, m)
    if a % g:
        return
    mp = m // g
    for x in range(a // g * pow(coeff // g, -1, mp) % mp, top * top + 1, mp):
        k = isqrt(x)
        if k * k == x:
            yield k


def grevlex_key(exps):
    """Sort key realizing graded reverse lexicographic order.

    The reference definition of the order; the packed keys of MultiPoly
    sort the same way (see polyring._layout).
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


def power_product_value(terms, point):
    """sum c * prod_i point[i]^e_i over the (exponents, c) items of terms.

    The unnormalised value of a polynomial: exact, one power per
    variable and term, with no packed keys involved.
    """
    value = 0
    for e, c in terms.items():
        for x, k in zip(point, e):
            c *= x**k
        value += c
    return value


def reference_normal_form(terms, basis, p: int) -> dict:
    """Full remainder of terms on division by basis over F_p.

    terms and each element of basis are dicts from exponent tuples to
    coefficients.  Each step divides the grevlex-largest remaining term
    by the first basis element whose leading monomial divides it, and
    every coefficient is reduced mod p as it is written.  It shares no
    code with polyring._reduce: no packed keys, no divisor cache and no
    deferred reduction mod p, only exponent tuples and grevlex_key, so it
    judges the engine's bases independently of the engine.
    """
    monic = []
    for b in basis:
        lead = max(b, key=grevlex_key)
        inv = pow(b[lead], -1, p)
        monic.append((lead, {e: c * inv % p for e, c in b.items()}))
    work = {e: c % p for e, c in terms.items() if c % p}
    out = {}
    while work:
        lm = max(work, key=grevlex_key)
        lc = work.pop(lm)
        for lead, b in monic:
            if all(x <= y for x, y in zip(lead, lm)):
                q = [y - x for x, y in zip(lead, lm)]
                for e, c in b.items():
                    m = tuple(x + y for x, y in zip(e, q))
                    if m != lm:
                        v = (work.get(m, 0) - lc * c) % p
                        if v:
                            work[m] = v
                        else:
                            work.pop(m, None)
                break
        else:
            out[lm] = lc
    return out


def exact_div_reference(num: dict, den: dict) -> dict:
    """num / den over Q for dicts from exponent tuples to coefficients.

    Long division in Fractions: each step divides the grevlex-largest
    remaining term by den's leading term; ValueError when that term is
    not a multiple of it.  No packed keys and no integer shortcut.
    """
    lead = max(den, key=grevlex_key)
    inv = 1 / Fraction(den[lead])
    rem = {e: Fraction(c) for e, c in num.items() if c}
    out = {}
    while rem:
        lm = max(rem, key=grevlex_key)
        q = tuple(x - y for x, y in zip(lm, lead))
        if min(q) < 0:
            raise ValueError("division is not exact")
        qc = out[q] = rem[lm] * inv
        for e, c in den.items():
            m = tuple(x + y for x, y in zip(e, q))
            v = rem.get(m, 0) - qc * c
            if v:
                rem[m] = v
            else:
                rem.pop(m, None)
    return out


def primitive_part_reference(terms: dict) -> dict:
    """terms (exponent tuples to nonzero rationals) cleared of
    denominators by their lcm, divided by the gcd of the integers that
    gives, and signed so that the grevlex-largest term is positive."""
    den = lcm(*(Fraction(c).denominator for c in terms.values()))
    ints = {e: int(c * den) for e, c in terms.items()}
    g = gcd(*ints.values())
    if ints[max(ints, key=grevlex_key)] < 0:
        g = -g
    return {e: c // g for e, c in ints.items()}


_PAIR_COMPLEMENTS = [
    [t for t in range(10) if t not in pair] for pair in combinations(range(10), 2)
]


def restriction_reference(sigma, rows=None) -> list:
    """The 45 quartics of sigma on the span of rows (V10 itself when rows
    is None), in lexicographic order of the deleted pair: each principal
    8x8 Pfaffian of the symbolic contraction expanded on its own, with
    no pivot, no Pfaffian relation and no exact quotient."""
    return principal_pfaffians(symbolic_contract(sigma, rows), _PAIR_COMPLEMENTS)


def smoothness_reference(cubic, p: int) -> str:
    """"smooth" or "singular": the Jacobian verdict of a rational cubic in
    6 variables over F_p, one reduced basis per prime.

    The partials of the primitive part mod p go through the public
    buchberger (autoreduced, one run for p alone); the Euler relation is
    checked by reference_normal_form against that basis (CertificateError
    naming p if the cubic is not in the ideal), and the verdict read off
    its leads: smooth when they hold a constant or a pure power of every
    variable.  No Z/N run, no shared remainder.
    """
    reduced = primitive_part(cubic).reduce_mod(p)
    partials = [reduced.derivative(i) for i in range(6)]
    basis = [dict(b.terms) for b in buchberger([q for q in partials if not q.is_zero()])]
    if reference_normal_form(reduced.terms, basis, p):
        raise CertificateError(f"Euler relation failed against the reduced basis mod {p}")
    leads = [max(b, key=grevlex_key) for b in basis]
    powers = {i for lead in leads for i, e in enumerate(lead) if e and sum(lead) == e}
    constant = any(not any(lead) for lead in leads)
    return "smooth" if constant or len(powers) == 6 else "singular"
