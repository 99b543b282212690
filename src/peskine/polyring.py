"""Exact sparse multivariate polynomials over Q or a prime field F_p.

Ring arithmetic, linear substitution, Pfaffians of skew matrices with
polynomial entries, multivariate GCD by primitive-part recursion with a
univariate subresultant PRS, and a small Buchberger engine (graded
reverse lexicographic order, fixed) strong enough to certify that a
homogeneous system only vanishes at the origin.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

Exponents = tuple[int, ...]

MAX_DEGREE = 4095  # the packed-monomial bound on total degree
_W = 13  # field width: 12 exponent bits and a guard bit


def _coeff_normalize(c, p: int | None):
    """Canonical coefficient: an int or non-integral Fraction over Q, an
    int in [0, p) over F_p."""
    if p is None:
        if isinstance(c, int):
            return c
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, Fraction):
        if c.denominator % p == 0:
            raise ValueError(f"coefficient {c} is not defined mod {p}")
        return c.numerator * pow(c.denominator, -1, p) % p
    return int(c) % p


def grevlex_key(exps: Exponents):
    """Sort key realizing graded reverse lexicographic order.

    The reference definition of the order; the packed keys of MultiPoly
    sort the same way (see _layout).
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


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
    exact quotients and the univariate splits of the GCD never raise a
    degree, and the GCD checks the degree of what it reassembles.  In
    the Groebner engine every S-pair lcm is checked.  Grevlex is graded,
    so a term m of a polynomial with leading term t has deg m <= deg t.
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
    e = tuple(int(x) for x in exps)
    if len(e) != n or any(x < 0 for x in e):
        raise ValueError(f"bad exponent tuple {e} for {n} variables")
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

    def scalar_mul(self, c) -> "MultiPoly":
        c = _coeff_normalize(c, self.p)
        return MultiPoly._raw(
            self.nvars, {e: x * c for e, x in self._packed.items()}, self.p
        )

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
        """Value at a point; Fraction-or-int over Q, int over F_p."""
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        total = 0
        for k, c in self._packed.items():
            v = c
            for x in point:
                e = MAX_DEGREE - (k & MAX_DEGREE)
                if e:
                    v *= x**e
                k >>= _W
            total += v
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


def exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Quotient num/den when the division is exact; raises otherwise."""
    num._check_compatible(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    zero, guards = _layout(num.nvars)
    q: dict[int, object] = {}
    rem = dict(num._packed)
    dterms = den._packed
    dlm = max(dterms)
    dlc = dterms[dlm]
    p = num.p
    while rem:
        lm = max(rem)
        qe = lm + zero - dlm
        if qe < 0 or qe & guards:
            raise ValueError("division is not exact")
        if p is None:
            qc = Fraction(rem[lm]) / Fraction(dlc)
        else:
            qc = rem[lm] * pow(dlc, -1, p) % p
        q[qe] = qc
        qe -= zero
        for e, c in dterms.items():
            te = e + qe
            v = rem.get(te, 0) - qc * c
            if p is not None:
                v %= p
            if v:
                rem[te] = v
            else:
                rem.pop(te, None)
    return MultiPoly._raw(num.nvars, q, p)


def primitive_part(poly: MultiPoly) -> MultiPoly:
    """Integer-primitive, positive-leading-coefficient normalization.

    A nonzero Q-polynomial divided by its content: integer coefficients
    with gcd 1 and a positive leading coefficient under grevlex.
    """
    if poly.is_zero():
        return poly
    if poly.p is not None:
        raise ValueError("content normalization is for Q-coefficients")
    fracs = {e: Fraction(c) for e, c in poly._packed.items()}
    den_lcm = lcm(*(f.denominator for f in fracs.values()))
    num_gcd = gcd(*(f.numerator * (den_lcm // f.denominator) for f in fracs.values()))
    content = Fraction(num_gcd, den_lcm)
    prim = MultiPoly._raw(
        poly.nvars, {e: f / content for e, f in fracs.items()}, None
    )
    return -prim if prim.leading_coefficient() < 0 else prim


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


def _content_wrt(poly: MultiPoly, var: int) -> MultiPoly:
    # fold from the sparsest coefficient, ties by power, so the GCD work is the same
    # whatever the order of the terms
    univar = _univar(poly, var)
    cs = [univar[d] for d in sorted(univar, key=lambda d: (len(univar[d]._packed), d))]
    g = cs[0]
    for c in cs[1:]:
        g = _gcd_zz(g, c)
        if g.is_constant() and g.constant_value() == 1:
            break
    return g


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
    """GCD of integer polynomials, including integer content."""
    if a.is_zero():
        return b if b.leading_coefficient() > 0 or b.is_zero() else -b
    if b.is_zero():
        return a if a.leading_coefficient() > 0 else -a
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
    if max(ua) == 0 or max(ub) == 0:
        flat = a if max(ua) == 0 else b
        other = b if max(ua) == 0 else a
        return _gcd_zz(flat, _content_wrt(other, var))

    cont_a = _content_wrt(a, var)
    cont_b = _content_wrt(b, var)
    cont = _gcd_zz(cont_a, cont_b)
    ppa = {d: exact_div(c, cont_a) for d, c in ua.items()}
    ppb = {d: exact_div(c, cont_b) for d, c in ub.items()}
    if max(ppa) < max(ppb):
        ppa, ppb = ppb, ppa

    one = MultiPoly.constant(1, a.nvars)
    f1, f2 = ppa, ppb
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
    tail = _from_univar(f2, var, a.nvars)
    tail_pp = exact_div(tail, _content_wrt(tail, var))
    result = cont * tail_pp
    if result.leading_coefficient() < 0:
        result = -result
    return result


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

_TERM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)?((?:\*?[A-Za-z]+\d+(?:\^\d+)?)*)$")
_VAR_RE = re.compile(r"([A-Za-z]+)(\d+)(?:\^(\d+))?")


def format_poly(poly: MultiPoly, prefix: str = "x") -> str:
    """Canonical text: grevlex-descending sum of c*<prefix>i^e terms."""
    if poly.is_zero():
        return "0"
    pieces = []
    for exps, c in poly.sorted_terms():
        monomial = "".join(
            f"*{prefix}{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
        )
        # a canonical coefficient is an int or a non-integral Fraction: str gives a or a/b
        pieces.append(("- " if c < 0 else "+ ") + f"{abs(c)}{monomial}")
    head = pieces[0]
    pieces[0] = head[2:] if head[0] == "+" else "-" + head[2:]
    return " ".join(pieces)


def parse_poly(
    text: str, nvars: int, p: int | None = None, prefix: str | None = None
) -> MultiPoly:
    """Parse the text format; duplicate monomials accumulate."""
    compact = "".join(text.split())
    if compact in ("", "0"):
        return MultiPoly.zero(nvars, p)
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
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        cstr, varpart = m.group(1), m.group(2) or ""
        try:
            coeff = Fraction(cstr or 1)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in term {chunk!r}") from exc
        exps = [0] * nvars
        for name, idx, exp in _VAR_RE.findall(varpart):
            if prefix is not None and name != prefix:
                raise ValueError(f"unexpected variable {name}{idx}")
            i = int(idx) - 1
            if not 0 <= i < nvars:
                raise ValueError(f"variable index {idx} out of range")
            exps[i] += int(exp) if exp else 1
        if neg:
            coeff = -coeff
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
    return MultiPoly(nvars, terms, p)


# -- Groebner engine (grevlex, F_p) -----------------------------------


def _lcm(a: int, b: int, n: int) -> int:
    """Packed lcm of two packed monomials, within the degree bound."""
    return _pack(tuple(map(max, _unpack(a, n), _unpack(b, n))), n)


def _reduce(
    poly: dict[int, int], basis: list[tuple[int, dict[int, int]]], n: int, p: int
) -> dict[int, int]:
    """Full normal form of a packed polynomial against monic divisors."""
    zero, guards = _layout(n)
    work = dict(poly)
    get, pop = work.get, work.pop
    out: dict[int, int] = {}
    while work:
        lm = max(work)
        lc = work[lm]
        for blm, bterms in basis:
            q = lm + zero - blm
            if q >= 0 and not q & guards:
                # blm divides lm; the basis is monic, so the head cancels
                q -= zero
                for m, c in bterms.items():
                    mm = m + q
                    v = (get(mm, 0) - lc * c) % p
                    if v:
                        work[mm] = v
                    else:
                        pop(mm, None)
                break
        else:
            out[lm] = lc
            del work[lm]
    return out


def _make_monic(terms: dict[int, int], p: int) -> dict[int, int]:
    lm = max(terms)
    inv = pow(terms[lm], -1, p)
    return {m: c * inv % p for m, c in terms.items()}


def buchberger(gens) -> list[MultiPoly]:
    """Reduced grevlex Groebner basis over F_p.

    Pair handling uses the coprime-leading-term criterion and the chain
    criterion; the returned basis is monic, autoreduced, and sorted by
    ascending leading monomial.  Empty or all-zero input gives [].
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

    def divides(a: int, b: int) -> bool:
        q = b + zero - a
        return q >= 0 and not q & guards

    basis: list[tuple[int, dict[int, int]]] = []
    pending: set[frozenset[int]] = set()
    heap: list[tuple[int, int, int]] = []

    def add(terms: dict[int, int]) -> None:
        """Append terms, made monic, and queue its pairs."""
        t = _make_monic(terms, p)
        new = len(basis)
        basis.append((max(t), t))
        for k in range(new):
            pending.add(frozenset((k, new)))
            heapq.heappush(heap, (_lcm(basis[k][0], basis[new][0], nvars), k, new))

    for g in gens:
        add(g._packed)

    def chain_criterion(i: int, j: int, lcm_ij: int) -> bool:
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not divides(basis[k][0], lcm_ij):
                continue
            if (
                frozenset((i, k)) not in pending
                and frozenset((j, k)) not in pending
            ):
                return True
        return False

    while heap:
        lcm_ij, j, i = heapq.heappop(heap)
        pending.remove(frozenset((i, j)))
        lti, ltj = basis[i][0], basis[j][0]
        if not any(map(min, _unpack(lti, nvars), _unpack(ltj, nvars))):
            continue  # coprime leading monomials
        if chain_criterion(i, j, lcm_ij):
            continue
        qi, qj = lcm_ij - lti, lcm_ij - ltj
        s = {m + qi: c for m, c in basis[i][1].items()}
        for m, c in basis[j][1].items():
            mm = m + qj
            v = (s.get(mm, 0) - c) % p
            if v:
                s[mm] = v
            else:
                del s[mm]
        r = _reduce(s, basis, nvars, p)
        if r:
            add(r)

    # autoreduce: drop elements whose lead is divisible by another lead,
    # then fully reduce each survivor against the others
    final = [
        (lt, terms)
        for i, (lt, terms) in enumerate(basis)
        if not any(
            divides(lk, lt) for k, (lk, _) in enumerate(basis) if k != i and (lk != lt or k < i)
        )
    ]
    reduced: list[tuple[int, dict[int, int]]] = []
    for idx, (lt, terms) in enumerate(final):
        others = [final[k] for k in range(len(final)) if k != idx]
        r = _reduce(terms, others, nvars, p)
        if r:
            reduced.append((max(r), _make_monic(r, p)))
    reduced.sort(key=lambda t: t[0])
    return [MultiPoly._raw(nvars, t, p) for _, t in reduced]


def normal_form(poly: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Full remainder of poly on division by the basis."""
    if not basis:
        return poly
    nvars, p = poly.nvars, poly.p
    if p is None:
        raise ValueError("normal_form works over a prime field")
    for g in basis:
        poly._check_compatible(g)  # packed keys only mean something in one ring
    monic = [_make_monic(g._packed, p) for g in basis if not g.is_zero()]
    monic = [(max(t), t) for t in monic]
    return MultiPoly._raw(nvars, _reduce(poly._packed, monic, nvars, p), p)


def only_zero_at_origin(gens) -> bool:
    """Whether homogeneous generators vanish only at the origin.

    Computes a reduced grevlex basis and applies basis_has_finite_zeros.
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
    """Whether a reduced grevlex basis has finitely many common zeros.

    True when the basis holds a constant or every variable contributes a
    pure power among the leading terms (equivalently the quotient ring
    is finite-dimensional).  For a homogeneous ideal this means its zero
    set over the algebraic closure contains no nonzero point.
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
