"""Exact sparse multivariate polynomials over Q or a prime field F_p.

Ring arithmetic, linear substitution, Pfaffians of skew matrices with
polynomial entries, multivariate GCD by primitive-part recursion with a
univariate subresultant PRS, and a small Buchberger engine (graded
reverse lexicographic order, fixed) strong enough to certify that a
homogeneous system only vanishes at the origin.  On n forms in n
variables (the partials of a cubic) the engine skips the S-pairs that
the Hilbert function of a regular sequence proves redundant; the basis
is the same.  The engine also runs over Z/N for a product N of distinct
primes, one run for all of them, while every leading coefficient is a
unit mod N.  Also the one reading of integers: parse_integer and
parse_coefficient for text (one ASCII digit pattern, at most MAX_DIGITS
digits per run), _integral for values.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from types import MappingProxyType

Exponents = tuple[int, ...]

MAX_DEGREE = 4095  # the packed-monomial bound on total degree
_W = 13  # field width: 12 exponent bits and a guard bit


def _integral(x) -> int:
    """int(x) once it equals x (an int, an integral Fraction, 2.0);
    ValueError naming x if not, never a truncation.

    The one check of integer entries: exponents, flag vectors, lattice
    matrices.  Text is not an entry; it is read by parse_integer.
    """
    n = int(x)
    if n != x:
        raise ValueError(f"entry {x!r} is not an integer")
    return n


def _coeff_normalize(c, p: int | None):
    """Canonical coefficient: an int or non-integral Fraction over Q, an
    int in [0, p) over F_p.  A value that is not an int is read as the
    exact Fraction it equals, so a/b over F_p is a * b^-1 mod p, and a
    float is its binary value, never a rounding.  Text is not a value
    (ValueError naming it); it is read by parse_coefficient."""
    if isinstance(c, int):
        return c if p is None else c % p
    if not isinstance(c, Fraction):
        if isinstance(c, str):
            raise ValueError(f"value {c!r} is text, not a number")
        c = Fraction(c)
    if p is None:
        return c.numerator if c.denominator == 1 else c
    if c.denominator % p == 0:
        raise ValueError(f"coefficient {c} is not defined mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


# -- packed monomials -------------------------------------------------


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, int]:
    """(zero, guards) of the packed monomials in n variables.

    MultiPoly keys the monomial x^e by one int.  Layout, most significant
    first: the total degree, then M - e[n-1], ..., M - e[0] with
    M = MAX_DEGREE = 4095, each in a field of _W = 13 bits whose top bit
    is a guard.  So key(e) = zero + sum_i e_i*(2^(n*_W) - 2^(i*_W)) with
    zero = key(0, ..., 0): a larger key is a larger monomial in grevlex,
    the leading monomial is max(keys), the product of monomials a and b
    is a + b - zero, and the total degree is key >> (n*_W).  b divides a
    exactly when q = a + zero - b is >= 0 with clean guard bits, and q is
    then the key of a/b: field i of q holds M + b_i - a_i, which lies in
    [0, 2M], never carries, and reaches the guard bit iff b_i > a_i.

    No product borrows across fields.  A field borrows only when an
    exponent of the product passes M, so only when its total degree
    does, and no caller forms such a product.  The constructor, ** and
    the product loop _sum_of_products (behind *, the Pfaffians and
    linear substitution) refuse total degree above M; +, -, derivatives,
    exact quotients (the long division, and the one-term shift by
    zero - b that turns the Pfaffian relations of trivector into 36 of
    the 45 quartics) and the univariate splits of the GCD never raise a
    degree, and the GCD checks the degree of what it reassembles.  The
    Groebner pair loop buchberger checks the degree of every S-pair
    lcm.  Grevlex is graded, so a term m of a polynomial with leading
    term t has deg m <= deg t.
    An S-polynomial term m*q with lcm = t*q thus has degree at most
    deg(lcm), and a reduction step m*q with t*q = lm, the current
    leading monomial, has degree at most deg(lm), which never exceeds
    the degree of the polynomial being reduced (an input, or an
    S-polynomial).
    """
    fields = range(0, n * _W, _W)
    return sum(MAX_DEGREE << s for s in fields), sum((MAX_DEGREE + 1) << s for s in fields)


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise ValueError(f"total degree {d} exceeds the packed-monomial bound {MAX_DEGREE}")


def _pack(exps, n: int) -> int:
    """Packed key of an exponent tuple, validated."""
    e = tuple(map(_integral, exps))
    if len(e) != n or any(x < 0 for x in e):
        raise ValueError(f"bad exponent tuple {e} for {n} variables")
    return _key(e)


def _key(e: Exponents) -> int:
    """Packed key of a tuple of non-negative ints, within the degree bound."""
    key = sum(e)
    _check_degree(key)
    for x in reversed(e):
        key = (key << _W) | (MAX_DEGREE - x)
    return key


def _unpack(key: int, n: int) -> Exponents:
    return tuple(MAX_DEGREE - ((key >> (i * _W)) & MAX_DEGREE) for i in range(n))


def _var_step(i: int, n: int) -> int:
    """Key increment of multiplying by x_i."""
    return (1 << (n * _W)) - (1 << (i * _W))


class MultiPoly:
    """A sparse polynomial: dict from packed monomials to coefficients.

    field: p = None means Q (int or Fraction coefficients), otherwise
    coefficients live in F_p as ints in [1, p).  Instances are treated
    as immutable after construction.  The constructor takes exponent
    tuples, validates and normalises its input and packs it (see
    _layout); results of arithmetic on validated operands are built by
    _raw, which trusts their packed keys.  Total degree is bounded by
    MAX_DEGREE.
    """

    __slots__ = ("nvars", "p", "_packed")

    def __init__(self, nvars: int, terms=None, p: int | None = None):
        self.nvars = nvars
        self.p = p
        clean = {}
        for exps, c in (terms or {}).items():
            c = _coeff_normalize(c, p)
            if c:
                clean[_pack(exps, nvars)] = c
        self._packed = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict, p: int | None) -> "MultiPoly":
        """Trusted constructor for results built from validated operands.

        The keys must already be packed monomials in nvars variables of
        total degree at most MAX_DEGREE; the coefficients (int or Fraction
        over Q, int over F_p) are brought to canonical form: zeros
        dropped, c % p over F_p, an integral Fraction turned into an int
        over Q.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        self.p = p
        clean = {}
        if p is None:
            for e, c in terms.items():
                if c:
                    if type(c) is not int and c.denominator == 1:
                        c = c.numerator
                    clean[e] = c
        else:
            for e, c in terms.items():
                c %= p
                if c:
                    clean[e] = c
        self._packed = clean
        return self

    @property
    def terms(self):
        """Read-only view from exponent tuples to coefficients, built on
        demand."""
        n = self.nvars
        return MappingProxyType({_unpack(k, n): c for k, c in self._packed.items()})

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, p: int | None = None) -> "MultiPoly":
        return cls(nvars, {}, p)

    @classmethod
    def constant(cls, c, nvars: int, p: int | None = None) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c}, p)

    @classmethod
    def variable(cls, i: int, nvars: int, p: int | None = None) -> "MultiPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: 1}, p)

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_constant(self) -> bool:
        return self._packed.keys() <= {_layout(self.nvars)[0]}

    def constant_value(self):
        return self._packed.get(_layout(self.nvars)[0], 0)

    def total_degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        if not self._packed:
            return -1
        return max(self._packed) >> (self.nvars * _W)

    def is_homogeneous(self) -> bool:
        shift = self.nvars * _W
        return len({k >> shift for k in self._packed}) <= 1

    def leading_monomial(self) -> Exponents:
        if not self._packed:
            raise ValueError("zero polynomial has no leading monomial")
        return _unpack(max(self._packed), self.nvars)

    def leading_coefficient(self):
        return self._packed[max(self._packed)]

    def sorted_terms(self):
        """Terms in descending grevlex order."""
        n = self.nvars
        return [(_unpack(k, n), c) for k, c in sorted(self._packed.items(), reverse=True)]

    # -- arithmetic --------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected a MultiPoly operand, got {type(other).__name__}")
        if self.nvars != other.nvars or self.p != other.p:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self._packed)
        for e, c in other._packed.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly._raw(self.nvars, out, self.p)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self._packed)
        for e, c in other._packed.items():
            out[e] = out.get(e, 0) - c
        return MultiPoly._raw(self.nvars, out, self.p)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self._packed.items()}, self.p)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        return _sum_of_products(self.nvars, self.p, ((False, self._packed, other._packed),))

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        if n:
            _check_degree(self.total_degree() * n)
        result = MultiPoly.constant(1, self.nvars, self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.p == other.p
            and self._packed == other._packed
        )

    def __hash__(self):
        return hash((self.nvars, self.p, frozenset(self._packed.items())))

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    # -- calculus and evaluation ------------------------------------

    def evaluate(self, point):
        """Value at a point; Fraction-or-int over Q, int over F_p.  Each
        coordinate is read once by _coeff_normalize.

        A packed key splits into a low half, the fields of the first
        ceil(n/2) variables, and a high half holding the rest.  The value
        of each half at the point is memoised for the call, so a term
        costs two lookups and two exact products; the sum is normalised
        once.
        """
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        point = [_coeff_normalize(x, self.p) for x in point]
        h = (self.nvars + 1) // 2
        split = h * _W
        mask = (1 << split) - 1
        low_point, high_point = point[:h], point[h:]
        lows: dict[int, object] = {}
        highs: dict[int, object] = {}
        total = 0
        for k, c in self._packed.items():
            lo, hi = k & mask, k >> split
            a = lows.get(lo)
            if a is None:
                a = lows[lo] = _power_product(lo, low_point)
            b = highs.get(hi)
            if b is None:
                b = highs[hi] = _power_product(hi, high_point)
            total += c * a * b
        return _coeff_normalize(total, self.p)

    def derivative(self, i: int) -> "MultiPoly":
        shift = i * _W
        step = _var_step(i, self.nvars)
        out = {}
        for k, c in self._packed.items():
            e = MAX_DEGREE - ((k >> shift) & MAX_DEGREE)
            if e:
                out[k - step] = e * c
        return MultiPoly._raw(self.nvars, out, self.p)

    def reduce_mod(self, p: int) -> "MultiPoly":
        """Reduction of a Q-polynomial with p-integral coefficients."""
        if self.p is not None:
            raise ValueError("already over a prime field")
        out = {e: _coeff_normalize(c, p) for e, c in self._packed.items()}
        return MultiPoly._raw(self.nvars, out, p)


def _power_product(key: int, point) -> object:
    """prod_i point[i]^e_i, e_i read from the low fields of a packed key."""
    v = 1
    for x in point:
        e = MAX_DEGREE - (key & MAX_DEGREE)
        if e:
            v *= x**e
        key >>= _W
    return v


def _sum_of_products(nvars: int, p: int | None, products) -> MultiPoly:
    """The sum of -a*b (negate true) or a*b over (negate, a, b) in products.

    The one product loop of the package.  a and b are the packed term
    dicts of polynomials in the ring (nvars, p), which the caller has
    checked; every product is checked against MAX_DEGREE, and the whole
    sum is accumulated in one dict and built by one _raw.
    """
    out = {}
    get = out.get
    shift = nvars * _W
    zero = _layout(nvars)[0]
    for negate, a, b in products:
        if not (a and b):
            continue
        _check_degree((max(a) >> shift) + (max(b) >> shift))
        for e1, c1 in a.items():
            e1 -= zero
            if negate:
                c1 = -c1
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    return MultiPoly._raw(nvars, out, p)


def substitute_linear(poly: MultiPoly, matrix) -> MultiPoly:
    """Compose poly with x_i -> sum_j matrix[i][j] * y_j.

    matrix has poly.nvars rows; the result lives in as many variables
    as the matrix has columns.
    """
    rows = [tuple(r) for r in matrix]
    if len(rows) != poly.nvars:
        raise ValueError(
            f"substitution needs {poly.nvars} rows, got {len(rows)}"
        )
    m = len(rows[0]) if rows else 0
    if any(len(r) != m for r in rows):
        raise ValueError("ragged substitution matrix")
    forms = [
        MultiPoly(m, {tuple(int(k == j) for k in range(m)): rows[i][j] for j in range(m)}, poly.p)
        for i in range(poly.nvars)
    ]
    powers: dict[tuple[int, int], MultiPoly] = {}

    def form_power(i: int, e: int) -> MultiPoly:
        key = (i, e)
        if key not in powers:
            powers[key] = forms[i] ** e
        return powers[key]

    one = MultiPoly.constant(1, m, poly.p)

    def image(k: int) -> dict:
        """Packed terms of prod_i forms[i]^e_i, e the exponents of key k."""
        img = one
        for i in range(poly.nvars):
            e = MAX_DEGREE - (k & MAX_DEGREE)
            if e:
                img = img * form_power(i, e)
            k >>= _W
        return img._packed

    const = _layout(m)[0]
    return _sum_of_products(
        m, poly.p, ((False, {const: c}, image(k)) for k, c in poly._packed.items())
    )


def principal_pfaffians(matrix, index_sets) -> list[MultiPoly]:
    """Pfaffians of the principal submatrices on each index set.

    Recursive expansion along the first row, with one memo shared by
    all index sets so that common minors are expanded once; pf of an
    empty index set is the constant 1.  Each minor is accumulated as one
    sum of signed products: a nonzero entry of its first row times the
    Pfaffian with that entry's row and column struck out.  The ring and
    skew checks are exact and run once over the whole matrix; an
    odd-size index set, an entry from another ring or a symmetric slip
    is an error.
    """
    rows = [list(r) for r in matrix]
    index_sets = [tuple(idx) for idx in index_sets]
    for idx in index_sets:
        if len(idx) % 2 != 0:
            raise ValueError(f"Pfaffian needs even size, got {len(idx)}")
    k = len(rows)
    if k == 0:
        raise ValueError("cannot infer the ring of an empty matrix; use size >= 2")
    proto = rows[0][0]
    for i in range(k):
        proto._check_compatible(rows[i][i])
        if not rows[i][i].is_zero():
            raise ValueError("matrix is not skew-symmetric (nonzero diagonal)")
        for j in range(i):
            proto._check_compatible(rows[i][j])  # + checks rows[j][i]
            if not (rows[i][j] + rows[j][i]).is_zero():
                raise ValueError("matrix is not skew-symmetric")
    nvars, p = proto.nvars, proto.p
    one = MultiPoly.constant(1, nvars, p)
    memo: dict[tuple[int, ...], MultiPoly] = {}

    def pf(idx: tuple[int, ...]) -> MultiPoly:
        if not idx:
            return one
        got = memo.get(idx)
        if got is None:
            first = rows[idx[0]]
            got = memo[idx] = _sum_of_products(
                nvars,
                p,
                (
                    (t % 2 == 0, first[idx[t]]._packed, pf(idx[1:t] + idx[t + 1 :])._packed)
                    for t in range(1, len(idx))
                    if first[idx[t]]._packed
                ),
            )
        return got

    return [pf(idx) for idx in index_sets]


def pfaffian(matrix) -> MultiPoly:
    """Pfaffian of an even-size skew-symmetric matrix of polynomials."""
    rows = list(matrix)
    return principal_pfaffians(rows, [range(len(rows))])[0]


# -- exact division and GCD ------------------------------------------


def _quotient(c, a: int):
    """c / a over Q for a nonzero int a: c itself for a = 1, an int when a
    divides the int c, else the Fraction."""
    if a == 1:
        return c
    if type(c) is int:
        q, r = divmod(c, a)
        if not r:
            return q
    return Fraction(c, a)


def exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Quotient num/den when the division is exact; ValueError otherwise.

    Dividing by the leading coefficient a/b of den is multiplying by b
    and dividing by a (_quotient).  Over F_p, a = 1 and b is the inverse
    of the lead, computed once; over Q an int lead is a with b = 1, so a
    Fraction is made only for a coefficient that a does not divide.  A
    one-term divisor c*x^m divides term by term: every key shifts by
    zero - m, checked by the guard test of _layout, and every coefficient
    is divided by c.  Any other divisor runs the long division, which
    takes the largest remaining term from a heap of keys.
    """
    num._check_compatible(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    zero, guards = _layout(num.nvars)
    q: dict[int, object] = {}
    dterms = den._packed
    p = num.p
    dlm = max(dterms)
    if p is None:
        a, b = dterms[dlm].numerator, dterms[dlm].denominator
    else:
        a, b = 1, pow(dterms[dlm], -1, p)
    if len(dterms) == 1:
        shift = zero - dlm
        for e, c in num._packed.items():
            e += shift
            if e < 0 or e & guards:
                raise ValueError("division is not exact")
            q[e] = _quotient(c * b, a)
        return MultiPoly._raw(num.nvars, q, p)
    rem = dict(num._packed)
    # the keys of rem, largest first; a key that cancelled is skipped
    heap = [-e for e in rem]
    heapq.heapify(heap)
    while heap:
        lm = -heapq.heappop(heap)
        if lm not in rem:
            continue
        qe = lm + zero - dlm
        if qe < 0 or qe & guards:
            raise ValueError("division is not exact")
        qc = _quotient(rem[lm] * b, a)
        if p is not None:
            qc %= p
        q[qe] = qc
        qe -= zero
        for e, c in dterms.items():
            te = e + qe
            old = rem.get(te)
            v = (0 if old is None else old) - qc * c
            if p is not None:
                v %= p
            if not v:
                rem.pop(te, None)
            else:
                if old is None:
                    heapq.heappush(heap, -te)
                rem[te] = v
    return MultiPoly._raw(num.nvars, q, p)


def primitive_part(poly: MultiPoly) -> MultiPoly:
    """Integer-primitive, positive-leading-coefficient normalization.

    A nonzero Q-polynomial divided by its content: integer coefficients
    with gcd 1 and a positive leading coefficient under grevlex.  The
    coefficients are scaled to integers by the lcm of their denominators
    (no scaling for int data, whose denominators are 1) and divided by
    the signed gcd of those integers, in integers throughout.
    """
    if poly.is_zero():
        return poly
    if poly.p is not None:
        raise ValueError("content normalization is for Q-coefficients")
    terms = poly._packed
    den = lcm(*(c.denominator for c in terms.values()))
    if den != 1:
        terms = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return MultiPoly._raw(poly.nvars, {e: c // g for e, c in terms.items()}, None)


def _univar(poly: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View as a univariate polynomial in var with MultiPoly coefficients."""
    shift = var * _W
    step = _var_step(var, poly.nvars)
    out: dict[int, dict] = {}
    for k, c in poly._packed.items():
        d = MAX_DEGREE - ((k >> shift) & MAX_DEGREE)
        out.setdefault(d, {})[k - d * step] = c
    return {
        d: MultiPoly._raw(poly.nvars, terms, poly.p) for d, terms in out.items()
    }


def _from_univar(coeffs: dict[int, MultiPoly], var: int, nvars: int) -> MultiPoly:
    step = _var_step(var, nvars)
    terms = {}
    for d, cp in coeffs.items():
        _check_degree(d + cp.total_degree())
        for k, c in cp._packed.items():
            terms[k + d * step] = c
    return MultiPoly._raw(nvars, terms, None)


def _content(view: dict[int, MultiPoly]) -> MultiPoly:
    """GCD of the coefficients of a univariate view, with positive lead."""
    # fold from the sparsest coefficient, ties by power, so the GCD work is the same
    # whatever the order of the terms
    cs = [view[d] for d in sorted(view, key=lambda d: (len(view[d]._packed), d))]
    g = cs[0]
    for c in cs[1:]:
        g = _gcd_zz(g, c)
        if g.is_constant() and g.constant_value() == 1:
            break
    return g if g.leading_coefficient() > 0 else -g


def _prem(a: dict[int, MultiPoly], b: dict[int, MultiPoly]):
    """Pseudo-remainder of univariate views: lc(b)^(da-db+1) * a mod b."""
    da, db = max(a), max(b)
    lb = b[db]
    r = dict(a)
    steps = 0
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        shift = dr - db
        newr: dict[int, MultiPoly] = {d: c * lb for d, c in r.items()}
        for d, c in b.items():
            t = c * lr
            cur = newr.get(d + shift)
            newr[d + shift] = (cur - t) if cur is not None else -t
        r = {d: c for d, c in newr.items() if not c.is_zero()}
        steps += 1
    # match the exact subresultant scaling lc(b)^(da-db+1)
    for _ in range(da - db + 1 - steps):
        r = {d: c * lb for d, c in r.items()}
    return r


def _gcd_zz(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """GCD of nonzero integer polynomials, including integer content,
    with positive lead.

    Each input is split once into its univariate view in the variable
    that occurs in the most terms; the contents and primitive parts come
    from those views, and the last subresultant's primitive part from its
    own view.
    """
    if a.is_constant() or b.is_constant():
        content = gcd(*map(int, a._packed.values()), *map(int, b._packed.values()))
        return MultiPoly.constant(content, a.nvars)

    counts = [0] * a.nvars
    for poly in (a, b):
        for k in poly._packed:
            for i in range(a.nvars):
                if k & MAX_DEGREE != MAX_DEGREE:
                    counts[i] += 1
                k >>= _W
    var = max(range(a.nvars), key=lambda i: counts[i])

    ua, ub = _univar(a, var), _univar(b, var)
    cont_a, cont_b = _content(ua), _content(ub)
    cont = _gcd_zz(cont_a, cont_b)
    if max(ua) == 0 or max(ub) == 0:
        # a view of degree 0 is its own content
        return cont
    f1 = {d: exact_div(c, cont_a) for d, c in ua.items()}
    f2 = {d: exact_div(c, cont_b) for d, c in ub.items()}
    if max(f1) < max(f2):
        f1, f2 = f2, f1

    one = MultiPoly.constant(1, a.nvars)
    g = h = one
    while True:
        delta = max(f1) - max(f2)
        r = _prem(f1, f2)
        if not r:
            break
        if max(r) == 0:
            f2 = {0: one}
            break
        divisor = g * h**delta
        f1, f2 = f2, {d: exact_div(c, divisor) for d, c in r.items()}
        g = f1[max(f1)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(g**delta, h ** (delta - 1))
    cont_f2 = _content(f2)
    result = cont * _from_univar(
        {d: exact_div(c, cont_f2) for d, c in f2.items()}, var, a.nvars
    )
    return result if result.leading_coefficient() > 0 else -result


def gcd_multivariate(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """A GCD over Q, normalized integer-primitive with positive lead.

    gcd(p, 0) is the normalization of p; the gcd of two nonzero
    constants is 1 (constants are units over a field).
    """
    a._check_compatible(b)
    if a.p is not None:
        raise ValueError("gcd_multivariate works over Q")
    if a.is_zero() or b.is_zero():
        return primitive_part(a + b)
    return primitive_part(_gcd_zz(primitive_part(a), primitive_part(b)))


# -- text format ------------------------------------------------------

# The one digit pattern: ASCII digits only, so an underscore, whitespace
# or a Unicode digit, which int() and Fraction() would read, is refused.
# Every integer and coefficient token, and the index and exponent of a
# variable, is built from it.
_DIGITS = "[0-9]+"
_INTEGER = f"[+-]?{_DIGITS}"
_COEFF = f"{_INTEGER}(?:/{_DIGITS})?"
_TERM_RE = re.compile(rf"({_COEFF})?((?:\*?[A-Za-z]+{_DIGITS}(?:\^{_DIGITS})?)*)")
_VAR_RE = re.compile(rf"([A-Za-z]+)({_DIGITS})(?:\^({_DIGITS}))?")
_DIGITS_RE, _INTEGER_RE, _COEFF_RE = map(re.compile, (_DIGITS, _INTEGER, _COEFF))

# Digits of one run in a token: a numerator, a denominator, an index or
# an exponent.  Converting text costs time quadratic in its length, and
# the interpreter's own limit is absent before Python 3.10.7;
# extract_cubic on a planted-flag trivector with integer coefficients of
# this many digits takes about 0.4 s on 2 CPUs (1.3 s at 2 000 digits).
MAX_DIGITS = 1000


def _token(pattern: re.Pattern, token: str, field: str, kind: str) -> str:
    """token once it is a full match of pattern, else ValueError naming
    field and the kind of token expected; ValueError too when a run of
    digits in it is longer than MAX_DIGITS, checked before any conversion."""
    if pattern.fullmatch(token) is None:
        raise ValueError(f"{field} {token!r} is not {kind}")
    # a token no longer than the bound holds no longer run of digits
    if len(token) > MAX_DIGITS and max(map(len, _DIGITS_RE.findall(token))) > MAX_DIGITS:
        raise ValueError(f"{field} has more than MAX_DIGITS = {MAX_DIGITS} digits in a row")
    return token


def parse_integer(token: str, field: str) -> int:
    """The value of an integer token [+-]?[0-9]+; ValueError naming field
    for any other text.  The one reader of the integer fields of the text
    formats and the command line."""
    return int(_token(_INTEGER_RE, token, field, "an integer"))


def parse_coefficient(token: str) -> int | Fraction:
    """The value of an integer or a/b token: an int for a token without
    "/", so integer data stays in integers, else the Fraction.  ValueError
    for any other text, ZeroDivisionError for a zero denominator, which
    each caller words."""
    token = _token(_COEFF_RE, token, "coefficient", "an integer or a/b")
    return Fraction(token) if "/" in token else int(token)


_LIMB_DIGITS = 1000
_LIMB = 10**_LIMB_DIGITS


def format_integer(n: int) -> str:
    """Decimal text of an int of any size.

    str() refuses more than the interpreter's limit of digits (4 300 by
    default since Python 3.10.7), so the number is split into limbs of
    _LIMB_DIGITS digits with divmod, least significant first; each limb
    but the leading one is zero-padded to full width.
    """
    if n < 0:
        return "-" + format_integer(-n)
    limbs = []
    while n >= _LIMB:
        n, r = divmod(n, _LIMB)
        limbs.append(f"{r:0{_LIMB_DIGITS}d}")
    limbs.append(str(n))
    return "".join(reversed(limbs))


def format_poly(poly: MultiPoly, prefix: str = "x") -> str:
    """Canonical text: grevlex-descending sum of c*<prefix>i^e terms."""
    if poly.is_zero():
        return "0"
    pieces = []
    for exps, c in poly.sorted_terms():
        monomial = "".join(
            f"*{prefix}{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
        )
        # a canonical coefficient is an int a or a non-integral Fraction a/b
        num, den = (c, 1) if isinstance(c, int) else (c.numerator, c.denominator)
        text = format_integer(abs(num)) + ("" if den == 1 else "/" + format_integer(den))
        pieces.append(("- " if c < 0 else "+ ") + text + monomial)
    head = pieces[0]
    pieces[0] = head[2:] if head[0] == "+" else "-" + head[2:]
    return " ".join(pieces)


def parse_poly(text: str, nvars: int, prefix: str = "x") -> MultiPoly:
    """Parse the text of format_poly(poly, prefix) over Q, ignoring whitespace.

    Coefficients follow _COEFF; a variable not named <prefix>1 to
    <prefix>nvars is a ValueError.  Duplicate monomials accumulate.
    """
    compact = "".join(text.split())
    if compact in ("", "0"):
        return MultiPoly.zero(nvars)
    compact = compact.replace("-", "+-")
    if compact.startswith("+"):
        compact = compact[1:]
    terms: dict[Exponents, object] = {}
    for chunk in compact.split("+"):
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("empty term in polynomial text")
        m = _TERM_RE.fullmatch(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        cstr, varpart = m.group(1), m.group(2) or ""
        try:
            coeff = parse_coefficient(cstr) if cstr else 1
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in term {chunk!r}") from exc
        exps = [0] * nvars
        for name, idx, exp in _VAR_RE.findall(varpart):
            if name != prefix:
                raise ValueError(f"unexpected variable {name}{idx}")
            i = parse_integer(idx, "variable index") - 1
            if not 0 <= i < nvars:
                raise ValueError(f"variable index {idx} out of range")
            exps[i] += parse_integer(exp, "exponent") if exp else 1
        if neg:
            coeff = -coeff
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
    return MultiPoly(nvars, terms)


# -- Groebner engine (grevlex, F_p) -----------------------------------


_HILBERT_MONOMIALS_MAX = 10_000  # bound on C(top + n, n), the monomials of degree <= top


@lru_cache(maxsize=64)
def _monomial_steps(n: int, k: int) -> tuple[int, ...]:
    """Key increments of the monomials of degree k in n variables.

    t + s over the table are the packed keys of t times every monomial
    of degree k (see _layout).  Cached like _layout, one table per
    (n, k) that the engine asks for; _hilbert_targets keeps every table
    within _HILBERT_MONOMIALS_MAX entries.
    """
    steps = [_var_step(i, n) for i in range(n)]
    return tuple(map(sum, combinations_with_replacement(steps, k)))


def _hilbert_targets(gens) -> tuple[int, ...] | None:
    """The targets of the Hilbert-driven pair loop, or None for the plain one.

    Targets exist for nvars homogeneous nonzero generators of positive
    degree whose monomials of degree <= top, C(top + n, n) of them,
    number at most _HILBERT_MONOMIALS_MAX; that bounds the coverage sets
    and the monomial tables.  Any other input runs the plain loop.
    """
    n = gens[0].nvars
    if len(gens) != n or not all(g.is_homogeneous() and not g.is_constant() for g in gens):
        return None
    degrees = [g.total_degree() for g in gens]
    top = sum(d - 1 for d in degrees) + 1
    if comb(top + n, n) > _HILBERT_MONOMIALS_MAX:
        return None
    return _complete_intersection_targets(degrees, n)


def _complete_intersection_targets(degrees, n: int) -> tuple[int, ...]:
    """dim J_t for t = 0..top, J generated by a regular sequence of n
    forms of the given degrees in n variables.

    R/J then has Hilbert series prod_i (1 + t + ... + t^(d_i - 1)), a
    polynomial of degree top - 1 with top = sum_i (d_i - 1) + 1, so
    dim J_t = C(t + n - 1, n - 1) - [t^t] of that product, and J_t = R_t
    from degree top on.
    """
    h = [1]
    for d in degrees:
        h = [sum(h[max(0, t - d + 1) : t + 1]) for t in range(len(h) + d - 1)]
    h.append(0)
    return tuple(comb(t + n - 1, n - 1) - h[t] for t in range(len(h)))


def _reduce(
    poly: dict[int, int],
    basis: list[tuple[int, dict[int, int]]],
    n: int,
    p: int,
    cache: dict[int, int],
) -> dict[int, int]:
    """Full normal form of a packed polynomial against monic divisors.

    Each step divides the current leading term by the first basis element
    whose lead divides it.  cache, owned by the caller, maps a monomial
    to the index where that search stopped: the first divisor, or
    len(basis) when none divides.  The basis may grow between calls that
    share a cache (buchberger only appends), but never otherwise change:
    then the first divisor stays the first, and a miss re-scans only the
    elements added since.  Updates below the lead are plain integer
    sums; a coefficient is reduced mod p once, when its monomial becomes
    the leading term, and dropped when that is 0.  So the result is the
    one a reduction mod p at every update would give, with coefficients
    in [1, p).
    """
    zero, guards = _layout(n)
    size = len(basis)
    work = dict(poly)
    get, pop = work.get, work.pop
    out: dict[int, int] = {}
    while work:
        lm = max(work)
        lc = pop(lm) % p
        if not lc:
            continue
        k = cache.get(lm, 0)
        while k < size:
            q = lm + zero - basis[k][0]
            if q >= 0 and not q & guards:
                break
            k += 1
        cache[lm] = k
        if k == size:
            out[lm] = lc
            continue
        # the basis is monic, so the head cancels: drop the -lc written at lm
        q -= zero
        for m, c in basis[k][1].items():
            mm = m + q
            work[mm] = get(mm, 0) - lc * c
        del work[lm]
    return out


def _make_monic(terms: dict[int, int], p: int) -> dict[int, int]:
    """terms divided by the leading coefficient, the one inversion of the
    engine; ZeroDivisionError when that coefficient is no unit mod p,
    which only a composite modulus allows (see buchberger)."""
    lm = max(terms)
    try:
        inv = pow(terms[lm], -1, p)
    except ValueError:
        raise ZeroDivisionError(f"leading coefficient {terms[lm]} is not a unit mod {p}") from None
    return {m: c * inv % p for m, c in terms.items()}


def buchberger(gens) -> list[MultiPoly]:
    """A monic grevlex Groebner basis over F_p, or over Z/N with unit
    leads: the pair loop, the engine's one entry point.

    The elements come in the order the loop adds them, the nonzero
    generators first, and none is reduced by a later one; empty or
    all-zero input gives [].  Their leading terms generate the initial
    ideal, so a caller that reads only leads (basis_has_finite_zeros) or
    normal forms needs no reduced basis.
    Pair handling uses the coprime-leading-term criterion and the chain
    criterion.  Every S-polynomial reduction shares one divisor cache
    (see _reduce), valid because the basis only grows.

    On nvars homogeneous generators of positive degree, within the size
    bound of _hilbert_targets, the pair loop is Traverso's Hilbert-driven
    variant.  Were the generators a regular sequence, dim J_t would
    follow from their degrees alone; the engine derives these targets
    itself (_complete_intersection_targets).  For any generators of those
    degrees dim J_t is at most its target: dim J_t is the rank of a
    linear map whose entries are the generators' coefficients, largest
    for generic forms, which are a regular sequence.  Pairs pop in
    ascending lcm degree.  The engine keeps, per degree up to the top,
    the monomials that the leading terms cover; these are leading
    monomials of J, so once as many as the target are covered they are
    all of them, every S-polynomial of that degree reduces to zero, and
    the pair is skipped.  A covered top degree t means J contains every
    monomial of degree t, so every later pair reduces to zero and the
    loop stops.  Each skip is sound on any input, so the basis is the
    plain loop's; an input that is not a regular sequence never covers
    the top degree and runs until no pair is left.

    The modulus may also be a product N of distinct primes, the
    Chinese-remainder image of one run per prime.  _make_monic raises
    ZeroDivisionError at the first leading coefficient that is no unit
    mod N.  A run that finishes reduces mod each prime q | N to the run
    over F_q, step for step, so its basis read mod q (coefficients mod
    q, zeros dropped) is the basis over F_q.  By induction on the steps,
    with both runs holding the same basis mod q and the same leads so
    far:
    - the pairs queued, their heap order, the coprime and chain criteria
      and the Hilbert coverage depend only on leading terms and pending
      pairs, so both runs reduce the same S-pairs, built from the same
      monic elements;
    - a coefficient that vanishes mod q alone is a zero term in the F_q
      run.  In _reduce such a term is reduced by a multiple of a divisor
      that vanishes mod q, or kept in the remainder as a zero mod q;
      neither moves the image mod q.  The divisor cache holds indices of
      first divisors, not coefficients.  So the remainders agree mod q;
    - a remainder or generator joins the basis with a unit lead, nonzero
      mod q, so the F_q run adds the same lead, and dividing by it
      commutes with reduction mod q.  One that vanishes mod q alone has
      a lead divisible by q, which is no unit, and the run raises.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    nvars, p = gens[0].nvars, gens[0].p
    if p is None:
        raise ValueError("the Groebner engine works over a prime field")
    for g in gens:
        if g.nvars != nvars or g.p != p:
            raise ValueError("generators live in different rings")
    zero, guards = _layout(nvars)
    shift = nvars * _W
    # the lcm of two leads straight from their packed keys, see add
    low = (1 << shift) - 1
    half = (nvars + 1) // 2
    even = sum(MAX_DEGREE << (2 * j * _W) for j in range(half))
    ones = sum(1 << (2 * j * _W) for j in range(half))
    at = 2 * (half - 1) * _W
    slot = (1 << 2 * _W) - 1
    most = nvars * MAX_DEGREE

    basis: list[tuple[int, dict[int, int]]] = []
    pending: set[int] = set()  # the pair k < new as k << 32 | new
    heap: list[tuple[int, int, int]] = []
    cache: dict[int, int] = {}
    targets = _hilbert_targets(gens)
    if targets is not None:
        top = len(targets) - 1
        covered: list[set[int]] = [set() for _ in targets]

    def add(terms: dict[int, int]) -> None:
        """Append terms, made monic, queue its pairs and cover its multiples.

        The lcm of two leads is computed on their packed keys.  Field i
        holds M - e_i (see _layout), so the lcm keeps the smaller field
        of each pair: field by field, 2^12 + f - f' keeps the guard bit
        exactly when f >= f' and cannot borrow, and the guard bits then
        select the smaller field.  The lcm's degree is n*M less the sum
        of its fields: the even and the odd fields are added into slots
        of 2*_W bits, and one product by a 1 in every slot sums all the
        slots into the top one without a carry.
        """
        t = _make_monic(terms, p)
        lt = max(t)
        new = len(basis)
        basis.append((lt, t))
        a = lt & low
        for k in range(new):
            b = basis[k][0] & low
            g = ((b | guards) - a) & guards
            f = b ^ ((a ^ b) & (g - (g >> (_W - 1))))
            lcm_deg = most - ((((f & even) + ((f >> _W) & even)) * ones >> at) & slot)
            _check_degree(lcm_deg)
            pending.add(k << 32 | new)
            heapq.heappush(heap, (lcm_deg << shift | f, k, new))
        if targets is not None:
            deg = lt >> shift
            for d in range(deg, top + 1):
                covered[d].update([lt + s for s in _monomial_steps(nvars, d - deg)])

    for g in gens:
        add(g._packed)
    # once 1 lies in J every remainder is zero, so the basis is complete
    unit = any(lt == zero for lt, _ in basis)

    def chain_criterion(i: int, j: int, lcm_ij: int) -> bool:
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            q = lcm_ij + zero - basis[k][0]
            if q < 0 or q & guards:
                continue  # the lead of k does not divide the lcm (see _layout)
            if (
                min(i, k) << 32 | max(i, k) not in pending
                and min(j, k) << 32 | max(j, k) not in pending
            ):
                return True
        return False

    while heap and not unit:
        lcm_ij, j, i = heapq.heappop(heap)
        pending.remove(j << 32 | i)
        if targets is not None:
            d = min(lcm_ij >> shift, top)
            if len(covered[d]) >= targets[d]:
                if d == top:
                    break  # J holds every monomial of degree >= top
                continue
        lti, ltj = basis[i][0], basis[j][0]
        if lcm_ij >> shift == (lti >> shift) + (ltj >> shift):
            continue  # coprime leading monomials
        if chain_criterion(i, j, lcm_ij):
            continue
        qi, qj = lcm_ij - lti, lcm_ij - ltj
        s = {m + qi: c for m, c in basis[i][1].items()}
        for m, c in basis[j][1].items():
            mm = m + qj
            s[mm] = s.get(mm, 0) - c
        r = _reduce(s, basis, nvars, p, cache)
        if r:
            add(r)
            unit = max(r) == zero
    return [MultiPoly._raw(nvars, terms, p) for _, terms in basis]


def normal_form(poly: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Full remainder of poly on division by the basis, over F_p or over
    Z/N with unit leads.

    Over Z/N the remainder read mod a prime q | N is the remainder over
    F_q of poly and the basis read mod q: making a divisor monic by a
    unit commutes with reduction mod q, and _reduce agrees mod q step
    for step (the _reduce bullet of buchberger).
    """
    if not basis:
        return poly
    nvars, p = poly.nvars, poly.p
    if p is None:
        raise ValueError("normal_form works over F_p or Z/N")
    monic = []
    for g in basis:
        poly._check_compatible(g)  # packed keys only mean something in one ring
        t = g._packed
        if t:
            lm = max(t)
            # _reduce never mutates its divisors, so a monic one is used as it is
            monic.append((lm, t if t[lm] == 1 else _make_monic(t, p)))
    return MultiPoly._raw(nvars, _reduce(poly._packed, monic, nvars, p, {}), p)


def only_zero_at_origin(gens) -> bool:
    """Whether homogeneous generators vanish only at the origin.

    Computes a grevlex Groebner basis with buchberger and applies
    basis_has_finite_zeros, which reads only its leading terms.
    Non-homogeneous input is rejected.
    """
    gens = list(gens)
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    if any(g.is_constant() for g in gens):
        return True
    return basis_has_finite_zeros(buchberger(gens), gens[0].nvars)


def basis_has_finite_zeros(basis: list[MultiPoly], nvars: int) -> bool:
    """Whether a grevlex Groebner basis has finitely many common zeros.

    True when the basis holds a constant or every variable contributes a
    pure power among the leading terms (equivalently the quotient ring
    is finite-dimensional).  The basis need not be reduced: a pure power
    or 1 in the initial ideal is divided by some lead, itself a pure
    power of that variable or 1.  For a homogeneous ideal this means its
    zero set over the algebraic closure contains no nonzero point.
    """
    if any(b.is_constant() for b in basis):
        return True
    seen = [False] * nvars
    for b in basis:
        lm = b.leading_monomial()
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            seen[support[0]] = True
    return all(seen)
