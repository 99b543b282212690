import itertools
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from peskine.fixtures import appendix_cubic, appendix_cubic_text
from peskine.lattice import bareiss_determinant
from peskine.polyring import (
    MAX_DIGITS,
    MultiPoly,
    buchberger,
    exact_div,
    format_integer,
    format_poly,
    gcd_multivariate,
    normal_form,
    only_zero_at_origin,
    parse_coefficient,
    parse_integer,
    parse_poly,
    pfaffian,
    primitive_part,
    principal_pfaffians,
    substitute_linear,
)
from peskine import polyring
from peskine.polyring import (
    _complete_intersection_targets,
    _hilbert_targets,
    _monomial_steps,
)

from _models import (
    exact_div_reference,
    grevlex_key,
    power_product_value,
    primitive_part_reference,
    reduced_basis,
    reference_normal_form,
)

P = 10007


def variables(n, p=None):
    return [MultiPoly.variable(i, n, p) for i in range(n)]


def random_poly(rng, nvars, degree, terms, p=None, bound=9, den=1):
    """Random polynomial; over Q with den > 1 the coefficients are
    Fractions with denominators in 1..den."""
    out = {}
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        c = rng.randint(-bound, bound) if p is None else rng.randrange(p)
        if p is None and den > 1:
            c = Fraction(c, rng.randint(1, den))
        out[tuple(exps)] = out.get(tuple(exps), 0) + c
    return MultiPoly(nvars, out, p)


SCALARS = (0, 3, -2, Fraction(4, 2), Fraction(5, 3))


def arithmetic_results(a, b, n):
    """Every kind of result built from the validated operands a and b."""
    out = [a + b, a - b, -a, a * b, a**n]
    out += [a.derivative(i) for i in range(a.nvars)]
    out += [a * MultiPoly.constant(s, a.nvars, a.p) for s in SCALARS]
    if not b.is_zero():
        q = exact_div(a * b, b)
        assert q == a
        out.append(q)
    if a.p is None:
        # denominators stay below 7, so a is integral at both primes
        out += [a.reduce_mod(7), a.reduce_mod(P)]
    return out


def assert_canonical(r):
    """r is what the validating constructor makes of its own terms."""
    rebuilt = MultiPoly(r.nvars, r.terms, r.p)
    assert r == rebuilt and r.terms == rebuilt.terms
    for e, c in r.terms.items():
        assert len(e) == r.nvars and all(type(x) is int and x >= 0 for x in e)
        if r.p is None:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
            assert c != 0
        else:
            assert type(c) is int and 1 <= c < r.p


class TestArithmetic:
    def test_difference_of_squares(self):
        x, y = variables(2)
        assert (x + y) * (x - y) == x * x - y * y

    def test_evaluate(self):
        x, _ = variables(2)
        p = x * x + MultiPoly.constant(1, 2)
        assert p.evaluate((2, 5)) == 5

    @pytest.mark.parametrize("p", [None, 7, P])
    def test_evaluate_matches_power_products(self, p):
        # the memoised halves give the value of the plain power-product sum
        rng = random.Random(2718 + (p or 0))
        for n in (1, 1, 2, 3, 6, 10):
            for den in (1, 5):
                f = random_poly(rng, n, 6, 12, p, den=1 if p else den)
                # denominators below 7 are units at every p here
                point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                value = power_product_value(f.terms, point)
                want = value if p is None else polyring._coeff_normalize(value, p)
                assert f.evaluate(point) == want
                assert f.evaluate(tuple(point)) == want
            assert MultiPoly.zero(n, p).evaluate([Fraction(1, 3)] * n) == 0
        with pytest.raises(ValueError, match="wrong number of coordinates"):
            MultiPoly.variable(0, 2, p).evaluate((1,))

    def test_additive_inverse(self):
        rng = random.Random(20)
        p = random_poly(rng, 3, 4, 8)
        assert (p + (-p)).is_zero()

    def test_ring_mismatch(self):
        x = MultiPoly.variable(0, 2)
        for other in (MultiPoly.variable(0, 3), MultiPoly.variable(0, 2, 7)):
            with pytest.raises(ValueError, match="different rings"):
                x + other
            with pytest.raises(ValueError, match="different rings"):
                x * other

    def test_non_polynomial_operand(self):
        x = MultiPoly.variable(0, 2, 7)
        for op in (lambda: x * 2, lambda: x + 1, lambda: x - 1, lambda: x * Fraction(1, 2)):
            with pytest.raises(TypeError, match="expected a MultiPoly operand, got (int|Fraction)"):
                op()

    def test_grevlex_order(self):
        # degree first, then smaller power of the last variable wins
        x2 = (2, 0, 0)
        xy = (1, 1, 0)
        yz = (0, 1, 1)
        assert grevlex_key(x2) > grevlex_key(xy) > grevlex_key(yz)

    def test_derivative(self):
        x, y = variables(2)
        p = x * x * y + y
        assert p.derivative(0) == x * y + x * y  # 2xy
        assert p.derivative(1) == x * x + MultiPoly.constant(1, 2)

    def test_mod_p_normalization(self):
        p = MultiPoly(1, {(1,): 10, (0,): -3}, 7)
        assert p.terms == {(1,): 3, (0,): 4}

    @pytest.mark.parametrize("p", [None, 7])
    def test_evaluate_reads_a_float_point_exactly(self, p):
        # the float sum 3*0.1 - 0.3 rounded to 2^-54; the exact value is 2^-55
        f = MultiPoly(2, {(1, 0): 3, (0, 1): -1}, p)
        assert f.evaluate((0.1, 0.3)) == f.evaluate((Fraction(0.1), Fraction(0.3)))
        if p is None:
            assert f.evaluate((0.1, 0.3)) == Fraction(1, 2**55)
        rng = random.Random(45)
        g = random_poly(rng, 3, 4, 12, p, den=6)
        for _ in range(5):
            point = [rng.uniform(-3, 3) for _ in range(3)]
            assert g.evaluate(point) == g.evaluate([Fraction(x) for x in point])

    @pytest.mark.parametrize("p", [None, 7])
    def test_text_is_not_a_value(self, p):
        # Fraction("3") reads text, so "3" was taken as the coefficient 3
        for call in (
            lambda: polyring._coeff_normalize("3", p),
            lambda: MultiPoly(1, {(1,): "3"}, p),
            lambda: MultiPoly.constant("3", 1, p),
            lambda: MultiPoly.variable(0, 2, p).evaluate(("3", 1)),
        ):
            with pytest.raises(ValueError, match="value '3' is text, not a number"):
                call()

    def test_float_coefficient_is_read_exactly_mod_p(self):
        # 2.5 is 5/2 and 2^-1 = 4 mod 7, so 6; int(2.5) % 7 would give 2
        assert polyring._coeff_normalize(2.5, 7) == 6
        assert MultiPoly(1, {(1,): 2.5}, 7) == MultiPoly(1, {(1,): 6}, 7)


class TestCanonicalForm:
    """Arithmetic results are built without re-validation, so each must
    already be in the form the validating constructor gives."""

    @pytest.mark.parametrize("p", [None, 7, P])
    def test_results_are_canonical(self, p):
        rng = random.Random(31 if p is None else p)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            a = random_poly(rng, nvars, 3, rng.randint(0, 6), p, den=6)
            b = random_poly(rng, nvars, 3, rng.randint(0, 6), p, den=6)
            for r in arithmetic_results(a, b, rng.randint(0, 3)):
                assert_canonical(r)

    def test_cancellation_leaves_no_zero_terms(self):
        for p in (None, 7):
            x, y = variables(2, p)
            half = x * MultiPoly.constant(Fraction(1, 2), 2, p)
            assert_canonical(half + half - x)
            assert (half + half - x).terms == {}
            assert ((x + y) * (x - y) - x * x).terms == (-(y * y)).terms

    def test_results_are_canonical_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def operands(draw):
            p = draw(st.sampled_from([None, 7, P]))
            nvars = draw(st.integers(1, 3))
            exps = st.tuples(*[st.integers(0, 3)] * nvars)
            if p is None:
                coeff = st.fractions(-9, 9, max_denominator=6)
            else:
                coeff = st.integers(-2 * p, 2 * p)
            terms = st.dictionaries(exps, coeff, max_size=5)
            return MultiPoly(nvars, draw(terms), p), MultiPoly(nvars, draw(terms), p)

        @hypothesis.settings(
            max_examples=150, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(operands(), st.integers(0, 3))
        def check(pair, n):
            for r in arithmetic_results(*pair, n):
                assert_canonical(r)

        check()


class TestValidation:
    """The public constructor checks what comes from outside."""

    def test_exponent_tuple_of_wrong_length(self):
        for exps in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError, match="bad exponent tuple"):
                MultiPoly(2, {exps: 1})

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MultiPoly(2, {(1, -1): 1}, 7)

    def test_scalar_with_denominator_divisible_by_p(self):
        with pytest.raises(ValueError, match="not defined mod 7"):
            MultiPoly.variable(0, 2, 7) * MultiPoly.constant(Fraction(1, 14), 2, 7)

    def test_integral_fraction_scalar_gives_int(self):
        two = MultiPoly.constant(Fraction(4, 2), 2)
        r = MultiPoly(2, {(1, 0): 3, (0, 1): Fraction(1, 2)}) * two
        assert r.terms == {(1, 0): 6, (0, 1): 1}
        assert all(type(c) is int for c in r.terms.values())

    @pytest.mark.parametrize("bad", [1.5, "2", Fraction(1, 2)])
    def test_exponent_that_is_not_an_integer(self, bad):
        # int() would read 1.5 as 1 and "2" as 2
        with pytest.raises(ValueError, match="is not an integer"):
            MultiPoly(2, {(bad, 0): 1})

    def test_integral_exponent_values(self):
        assert MultiPoly(2, {(2.0, Fraction(3, 1)): 1}) == MultiPoly(2, {(2, 3): 1})


class TestDegreeBound:
    """Total degree is bounded by the packed-monomial bound, 4095."""

    def test_power_past_the_bound(self):
        x = MultiPoly.variable(0, 1, P)
        with pytest.raises(ValueError, match="packed-monomial bound"):
            x**4096

    def test_constructor_past_the_bound(self):
        with pytest.raises(ValueError, match="packed-monomial bound"):
            MultiPoly(1, {(4096,): 1})
        with pytest.raises(ValueError, match="packed-monomial bound"):
            MultiPoly(3, {(1000, 3000, 96): 1})

    def test_parse_past_the_bound(self):
        with pytest.raises(ValueError, match="packed-monomial bound"):
            parse_poly("x1^4096", 1)

    def test_product_past_the_bound(self):
        a = MultiPoly(2, {(2048, 0): 1})
        b = MultiPoly(2, {(0, 2048): 1})
        with pytest.raises(ValueError, match="packed-monomial bound"):
            a * b

    def test_bound_itself_is_allowed(self):
        x, y = variables(2)
        top = x**4095
        assert top.total_degree() == 4095
        assert top.leading_monomial() == (4095, 0)
        mixed = x**2048 * y**2047
        assert mixed.terms == {(2048, 2047): 1}
        assert mixed.derivative(1).terms == {(2048, 2046): 2047}

    def test_pfaffian_past_the_bound(self):
        x = MultiPoly.variable(0, 1)
        z = MultiPoly.zero(1)
        big = x**3000
        m = [[z if i == j else (big if i < j else -big) for j in range(4)] for i in range(4)]
        with pytest.raises(ValueError, match="packed-monomial bound"):
            principal_pfaffians(m, [range(4)])
        top = x**4095
        assert principal_pfaffians([[z, top], [-top, z]], [(0, 1)]) == [top]


def _random_exponents(rng, n, total=None):
    """A random exponent tuple of the given total degree, by default a
    random one up to 4095."""
    if total is None:
        total = rng.choice((0, 1, 2, rng.randint(0, 4095), 4095))
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


class TestOrderGoldens:
    """The packed order, degrees, calculus and evaluation agree with
    grevlex_key and with tuple arithmetic on .terms."""

    @pytest.mark.parametrize("p", [None, 7, P])
    def test_against_tuple_arithmetic(self, p):
        rng = random.Random(4095 + (p or 0))
        for _ in range(60):
            n = rng.randint(1, 10)
            # a third of the polynomials are homogeneous
            degree = rng.randint(0, 4095) if rng.random() < 0.3 else None
            raw = {}
            for _ in range(rng.randint(1, 6)):
                e = _random_exponents(rng, n, degree)
                c = rng.randint(-9, 9) if p is None else rng.randrange(1, p)
                if p is None and rng.random() < 0.3:
                    c = Fraction(c, rng.randint(2, 5))
                raw[e] = c
            f = MultiPoly(n, raw, p)
            terms = dict(f.terms)
            assert terms == {e: c for e, c in raw.items() if c}
            if not terms:
                continue
            assert f.leading_monomial() == max(terms, key=grevlex_key)
            assert f.sorted_terms() == sorted(
                terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True
            )
            assert f.total_degree() == max(sum(e) for e in terms)
            assert f.is_homogeneous() == (len({sum(e) for e in terms}) == 1)
            for i in range(n):
                want = {}
                for e, c in terms.items():
                    v = e[i] * c if p is None else e[i] * c % p
                    if v:
                        want[e[:i] + (e[i] - 1,) + e[i + 1 :]] = v
                assert f.derivative(i).terms == want
            point = [rng.randint(-3, 3) for _ in range(n)]
            value = power_product_value(terms, point)
            assert f.evaluate(point) == (value if p is None else value % p)
            g = MultiPoly(n, {_random_exponents(rng, n): 1}, p)
            if f.total_degree() + g.total_degree() <= 4095:
                (m, _), = g.terms.items()
                want = {tuple(a + b for a, b in zip(e, m)): c for e, c in terms.items()}
                assert (f * g).terms == want


class TestSubstituteLinear:
    def test_identity(self):
        x = MultiPoly.variable(0, 2)
        assert substitute_linear(x, ((1, 0), (0, 1))) == MultiPoly.variable(0, 2)

    def test_collapse(self):
        x, y = variables(2)
        r = substitute_linear(x * y, ((1,), (1,)))
        y1 = MultiPoly.variable(0, 1)
        assert r == y1 * y1

    def test_degree_never_grows(self):
        rng = random.Random(21)
        for _ in range(100):
            nvars = rng.randint(1, 4)
            m = rng.randint(1, 4)
            p = random_poly(rng, nvars, 4, 6)
            a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(nvars)]
            r = substitute_linear(p, a)
            assert r.total_degree() <= p.total_degree()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            substitute_linear(MultiPoly.variable(0, 3), ((1, 0), (0, 1)))

    def test_composition(self):
        # substituting A then B equals substituting the product A.B
        rng = random.Random(27)
        for _ in range(20):
            p = random_poly(rng, 3, 3, 5)
            a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
            b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
            ab = [
                [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(4)]
                for i in range(3)
            ]
            assert substitute_linear(substitute_linear(p, a), b) == substitute_linear(p, ab)


class TestPfaffian:
    def test_two_by_two(self):
        a = MultiPoly.variable(0, 1)
        z = MultiPoly.zero(1)
        assert pfaffian([[z, a], [-a, z]]) == a

    def test_four_by_four_textbook(self):
        a12, a13, a14, a23, a24, a34 = variables(6)
        z = MultiPoly.zero(6)
        m = [
            [z, a12, a13, a14],
            [-a12, z, a23, a24],
            [-a13, -a23, z, a34],
            [-a14, -a24, -a34, z],
        ]
        assert pfaffian(m) == a12 * a34 - a13 * a24 + a14 * a23

    def test_rejects_odd_size(self):
        z = MultiPoly.zero(1)
        with pytest.raises(ValueError):
            pfaffian([[z]])

    def test_rejects_non_skew(self):
        one = MultiPoly.constant(1, 1)
        z = MultiPoly.zero(1)
        with pytest.raises(ValueError):
            pfaffian([[z, one], [one, z]])
        with pytest.raises(ValueError):
            pfaffian([[one, one], [-one, z]])

    @pytest.mark.parametrize("size", [4, 6, 8])
    def test_square_is_determinant(self, size):
        rng = random.Random(size)
        for _ in range(30):
            m = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    v = rng.randint(-9, 9)
                    m[i][j] = v
                    m[j][i] = -v
            mp = [
                [MultiPoly.constant(m[i][j], 1) for j in range(size)]
                for i in range(size)
            ]
            pf = pfaffian(mp).constant_value()
            assert pf * pf == bareiss_determinant(m)

    def test_principal_minors_share_one_expansion(self):
        rng = random.Random(6)
        size = 6
        x = variables(3)
        m = [[MultiPoly.zero(3)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                m[i][j] = x[rng.randrange(3)] * MultiPoly.constant(rng.randint(-5, 5), 3)
                m[j][i] = -m[i][j]
        index_sets = [(0, 1, 2, 3), (1, 2, 4, 5), (), (0, 1, 2, 3, 4, 5)]
        got = principal_pfaffians(m, index_sets)
        for idx, pf in zip(index_sets, got):
            if idx:
                assert pf == pfaffian([[m[r][c] for c in idx] for r in idx])
            else:
                assert pf == MultiPoly.constant(1, 3)
        with pytest.raises(ValueError, match="even size"):
            principal_pfaffians(m, [(0, 1, 2)])

    def test_prime_field_consistency(self):
        rng = random.Random(30)
        size = 6
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = rng.randint(-20, 20)
                m[i][j] = v
                m[j][i] = -v
        pf_q = pfaffian(
            [[MultiPoly.constant(m[i][j], 1) for j in range(size)] for i in range(size)]
        ).constant_value()
        pf_p = pfaffian(
            [
                [MultiPoly.constant(m[i][j], 1, P) for j in range(size)]
                for i in range(size)
            ]
        ).constant_value()
        assert pf_p == pf_q % P

    def test_mixed_rings_raise(self):
        zq, xq = MultiPoly.zero(1), MultiPoly.variable(0, 1)
        z7, x7 = MultiPoly.zero(1, 7), MultiPoly.variable(0, 1, 7)
        x2 = MultiPoly.variable(0, 2)
        four = [
            [z7 if i == j else (xq if i < j else -xq) for j in range(4)]
            for i in range(4)
        ]
        # the last one has every entry off the diagonal in one ring
        for m in ([[zq, x7], [-x7, z7]], four, [[zq, x2], [-x2, zq]], [[zq, xq], [-xq, z7]]):
            with pytest.raises(ValueError, match="different rings"):
                principal_pfaffians(m, [range(len(m))])

    @pytest.mark.parametrize("p", [None, 7, P])
    def test_against_perfect_matchings(self, p):
        rng = random.Random(808 + (p or 0))
        for size in (2, 4, 6, 8):
            for density in (1.0, 0.6, 0.25):
                nvars = rng.randint(1, 3)
                m = _random_skew(rng, size, nvars, p, density)
                subsets = [tuple(range(size))]
                for _ in range(2):
                    k = rng.randrange(0, size + 1, 2)
                    subsets.append(tuple(sorted(rng.sample(range(size), k))))
                for idx, r in zip(subsets, principal_pfaffians(m, subsets)):
                    sub = [[m[a][b] for b in idx] for a in idx]
                    assert r.terms == _matching_pfaffian(sub, nvars, p)
                    assert_canonical(r)

    def test_fractions_cancel_against_perfect_matchings(self):
        rng = random.Random(809)
        for size in (4, 6, 8):
            for _ in range(3):
                nvars = rng.randint(1, 3)
                m = _random_skew(rng, size, nvars, None, 0.7)
                ints = _random_skew(rng, size, nvars, None, 0.7, den=1)
                # two equal rows and columns: the Pfaffian cancels to zero
                i, j = rng.sample(range(size), 2)
                dup = [row[:] for row in m]
                for k in range(size):
                    if k not in (i, j):
                        dup[j][k], dup[k][j] = m[i][k], m[k][i]
                dup[i][j] = dup[j][i] = MultiPoly.zero(nvars)
                # D m D with det D = 1: Fraction entries, an integral Pfaffian
                d = [Fraction(1, 2), Fraction(2, 3), Fraction(3)] + [1] * (size - 3)
                rng.shuffle(d)
                scaled = [
                    [ints[a][b] * MultiPoly.constant(d[a] * d[b], nvars) for b in range(size)]
                    for a in range(size)
                ]
                coeffs = [c for row in scaled for e in row for c in e.terms.values()]
                assert any(type(c) is Fraction for c in coeffs)
                zero, whole, integral = principal_pfaffians(dup, [range(size)]) + [
                    pfaffian(ints),
                    pfaffian(scaled),
                ]
                assert zero.is_zero() and not _matching_pfaffian(dup, nvars, None)
                assert integral == whole
                assert integral.terms == _matching_pfaffian(scaled, nvars, None)
                assert all(type(c) is int for c in integral.terms.values())
                for r in (zero, integral):
                    assert_canonical(r)


@lru_cache(maxsize=None)
def _perfect_matchings(n):
    """(sign, pairs) for the perfect matchings of range(n): the
    permutations (i1 j1 i2 j2 ...) with each i < j and i1 < i2 < ...,
    signed by the parity of their inversion count."""
    out = []
    for perm in itertools.permutations(range(n)):
        pairs = [perm[k : k + 2] for k in range(0, n, 2)]
        if all(a < b for a, b in pairs) and all(
            s[0] < t[0] for s, t in zip(pairs, pairs[1:])
        ):
            inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
            out.append((-1 if inversions % 2 else 1, pairs))
    return out


def _matching_pfaffian(m, nvars, p):
    """Reference Pfaffian: the sum over perfect matchings of sign times
    the product of the matched entries, on exponent tuples."""
    total = {}
    for sign, pairs in _perfect_matchings(len(m)):
        prod = {(0,) * nvars: sign}
        for i, j in pairs:
            nxt = {}
            for e1, c1 in prod.items():
                for e2, c2 in m[i][j].terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    nxt[e] = nxt.get(e, 0) + c1 * c2
            prod = nxt
        for e, c in prod.items():
            total[e] = total.get(e, 0) + c
    if p is not None:
        total = {e: c % p for e, c in total.items()}
    return {e: c for e, c in total.items() if c}


def _random_skew(rng, size, nvars, p, density, den=3):
    """A skew matrix of random polynomials, each entry above the
    diagonal nonzero with the given probability; over Q the
    coefficients have denominators up to den."""
    m = [[MultiPoly.zero(nvars, p) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                entry = random_poly(rng, nvars, 2, rng.randint(1, 3), p, den=den)
                m[i][j], m[j][i] = entry, -entry
    return m


class TestGcd:
    def test_difference_of_squares(self):
        x, y = variables(2)
        assert gcd_multivariate(x * x - y * y, x - y) == x - y

    def test_gcd_with_self(self):
        x, y = variables(2)
        p = (x + y) * MultiPoly.constant(6, 2)
        assert gcd_multivariate(p, p) == x + y

    def test_gcd_with_zero(self):
        x, y = variables(2)
        p = (x * x - y) * MultiPoly.constant(-4, 2)
        assert gcd_multivariate(p, MultiPoly.zero(2)) == x * x - y

    def test_constants_are_units(self):
        two = MultiPoly.constant(2, 2)
        x = MultiPoly.variable(0, 2)
        assert gcd_multivariate(two, x * MultiPoly.constant(4, 2)) == MultiPoly.constant(1, 2)

    def test_construct_and_recover(self):
        rng = random.Random(22)
        trials = 0
        while trials < 50:
            nvars = rng.randint(2, 3)
            m = random_poly(rng, nvars, 2, 4)
            if m.is_zero() or m.is_constant():
                continue
            m = primitive_part(m)
            q1 = random_poly(rng, nvars, 2, 4)
            q2 = random_poly(rng, nvars, 2, 4)
            if q1.is_zero() or q2.is_zero():
                continue
            if not gcd_multivariate(q1, q2).is_constant():
                continue
            g = gcd_multivariate(m * q1, m * q2)
            assert g == m, (format_poly(m), format_poly(g))
            trials += 1

    def test_content_does_not_depend_on_term_order(self, monkeypatch):
        # the content in v1 of a polynomial and of the same polynomial
        # with its terms inserted in reverse order: same value, same work
        from peskine import polyring

        rng = random.Random(5)
        x = variables(3)
        two = MultiPoly.constant(2, 3)
        poly = random_poly(rng, 3, 3, 12) * (x[1] + x[2] * two) * (x[0] - x[1])
        reverse = MultiPoly(3, dict(reversed(list(poly.terms.items()))))
        assert reverse == poly and list(reverse.terms) != list(poly.terms)
        calls = []
        gcd_zz = polyring._gcd_zz
        monkeypatch.setattr(polyring, "_gcd_zz", lambda a, b: calls.append(1) or gcd_zz(a, b))
        contents = []
        for p in (poly, reverse):
            calls.clear()
            contents.append((polyring._content(polyring._univar(p, 0)), len(calls)))
        assert contents[0] == contents[1]
        assert contents[0][1] > 0

    def test_gcd_divides_inputs(self):
        rng = random.Random(23)
        for _ in range(25):
            a = random_poly(rng, 3, 3, 5)
            b = random_poly(rng, 3, 3, 5)
            if a.is_zero() or b.is_zero():
                continue
            g = gcd_multivariate(a, b)
            for poly in (a, b):
                assert exact_div(poly, g) * g == poly


class TestExactDiv:
    def test_exact(self):
        x, y = variables(2)
        p = (x + y) * (x * x - y)
        assert exact_div(p, x + y) == x * x - y

    def test_inexact_raises(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            exact_div(x * x + y, x + y)

    def test_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(MultiPoly.variable(0, 1), MultiPoly.zero(1))

    @pytest.mark.parametrize("p", [None, 7, P])
    def test_one_term_divisor(self, p):
        # the term-by-term branch: the quotient times the divisor gives the
        # numerator back, with non-unit and (over Q) fractional coefficients
        rng = random.Random(618 + (p or 0))
        n = 4
        for coeff in (1, -1, 3, Fraction(-2, 3), 6):
            if p is not None and Fraction(coeff).numerator % p == 0:
                continue
            for _ in range(10):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                den = MultiPoly(n, {e: coeff}, p)
                q = random_poly(rng, n, 4, 8, p, den=1 if p else 5)
                num = q * den
                got = exact_div(num, den)
                assert got == q
                assert_canonical(got)
        assert exact_div(MultiPoly.zero(n, p), MultiPoly.constant(3, n, p)).is_zero()

    @pytest.mark.parametrize("p", [None, 7])
    def test_one_term_divisor_refuses(self, p):
        x, y, z = variables(3, p)
        three = MultiPoly.constant(3, 3, p)
        for num, den in (
            (x * x + y, x),  # the second term is not a multiple of x
            (x * y, x * x),  # one exponent too small
            (three, x),  # the degree field would go negative
            (x * y * z + y * y * z, x * z * MultiPoly.constant(5, 3, p)),
        ):
            with pytest.raises(ValueError, match="division is not exact"):
                exact_div(num, den)


def integer_corpus():
    """Seeded (numerator, divisor) pairs over Q, four kinds in turn: int
    data with an integral quotient, int data whose divisor has content 6
    (so the quotient has Fractions), Fraction dividends and divisors,
    and one-term divisors; every other divisor negated, and every fifth
    numerator given a stray term, so some divisions are not exact."""
    rng = random.Random(2029)
    n = 3
    cases = []
    for trial in range(80):
        kind = trial % 4
        if kind == 3:
            e = tuple(rng.randint(0, 2) for _ in range(n))
            den = MultiPoly(n, {e: rng.choice((1, 3, -4, Fraction(2, 3), Fraction(-5, 2)))})
        else:
            den = random_poly(rng, n, 2, 3, den=4 if kind == 2 else 1)
            if kind == 1:
                den = den * MultiPoly.constant(6, n)
        if den.is_zero():
            continue
        if trial % 2:
            den = -den
        if kind == 1:
            q = random_poly(rng, n, 3, 5) * MultiPoly.constant(Fraction(1, 6), n)
        else:
            q = random_poly(rng, n, 3, 5, den=5 if kind == 2 else 1)
        num = q * den
        if trial % 5 == 0:
            num = num + MultiPoly(n, {(5, 0, 1): 7})
        cases.append((num, den))
    return cases


class TestIntegerPaths:
    """exact_div and primitive_part keep int data in ints: the same values
    as a division and a content taken in Fractions, with a coefficient an
    int exactly where it is integral."""

    def test_corpus_covers_every_path(self):
        def all_int(f):
            return all(type(c) is int for c in f.terms.values())

        quotients = []
        for num, den in integer_corpus():
            try:
                quotients.append((num, den, exact_div(num, den)))
            except ValueError:
                quotients.append((num, den, None))
        exact = [case for case in quotients if case[2] is not None]
        assert any(all_int(num) and all_int(den) and not all_int(q) for num, den, q in exact)
        assert any(all_int(q) for _, _, q in exact)
        assert any(not all_int(num) for num, _, _ in exact)
        assert any(den.leading_coefficient() < 0 for _, den, _ in exact)
        assert any(len(den.terms) == 1 and den.leading_coefficient() != 1 for _, den, _ in exact)
        assert len(exact) < len(quotients)

    def test_exact_div_matches_fractions(self):
        inexact = 0
        for num, den in integer_corpus():
            try:
                expected = exact_div_reference(num.terms, den.terms)
            except ValueError:
                inexact += 1
                with pytest.raises(ValueError, match="division is not exact"):
                    exact_div(num, den)
                continue
            got = exact_div(num, den)
            assert dict(got.terms) == expected
            assert_canonical(got)
        assert inexact

    def test_primitive_part_matches_fractions(self):
        for num, den in integer_corpus():
            for poly in (num, den, -num):
                got = primitive_part(poly)
                assert dict(got.terms) == primitive_part_reference(poly.terms)
                assert all(type(c) is int for c in got.terms.values())
                assert got.leading_coefficient() > 0

    def test_parse_coefficient_types(self):
        assert type(parse_coefficient("4")) is int and parse_coefficient("4") == 4
        assert type(parse_coefficient("-007")) is int and parse_coefficient("-007") == -7
        got = parse_coefficient("-4/6")
        assert type(got) is Fraction and got == Fraction(-2, 3)


class TestTextFormat:
    def test_roundtrip(self):
        text = "16*v1^2*v2 - 133/7*v1*v2^2 + 223*v2^3 - 5"
        p = parse_poly(text, 2, prefix="v")
        assert parse_poly(format_poly(p, "v"), 2, prefix="v") == p

    def test_zero(self):
        assert format_poly(MultiPoly.zero(3)) == "0"
        assert parse_poly("0", 3).is_zero()

    def test_canonical_order(self):
        x, y = variables(2)
        p = y * y + x * x
        assert format_poly(p) == "1*x1^2 + 1*x2^2"

    def test_coefficients_past_the_digit_limit_of_str(self):
        # 10^5000 + 7, 3*10^4999 + 1 and 10^4400 + 3 have 5 001, 5 000 and
        # 4 401 digits, more than str() writes under the interpreter's
        # default limit of 4 300; the expected text is built by hand
        p = MultiPoly(1, {(1,): 10**5000 + 7})
        assert format_poly(p) == "1" + "0" * 4999 + "7*x1"
        q = MultiPoly(2, {(1, 0): Fraction(-(3 * 10**4999 + 1), 2), (0, 1): Fraction(5, 10**4400 + 3)})
        assert format_poly(q, "v") == "-3" + "0" * 4998 + "1/2*v1 + 5/1" + "0" * 4399 + "3*v2"

    @pytest.mark.parametrize(
        "n",
        [0, 7, -7, 10**999, 10**1000 - 1, 10**1000, 10**1000 + 1, -(10**2000),
         10**3000 + 10**1000, 10**2500 + 1, 12345 * 10**4000 + 999],
    )
    def test_integer_limbs(self, n):
        # limb edges, zero limbs inside and at the end, within str()'s limit
        assert format_integer(n) == str(n)

    def test_bad_variable(self):
        with pytest.raises(ValueError):
            parse_poly("3*w1", 2, prefix="v")
        with pytest.raises(ValueError):
            parse_poly("3*v7", 2, prefix="v")

    def test_variables_carry_the_prefix(self):
        # no other name stands for x: 2e3 is not 2*x3, and 5*y1 is not 5*x1
        for bad in ("2e3", "5*y1"):
            with pytest.raises(ValueError, match="unexpected variable"):
                parse_poly(bad, 3)
        x, y, z = variables(3)
        minus_7_3, five = MultiPoly.constant(Fraction(-7, 3), 3), MultiPoly.constant(5, 3)
        for q in (x * y * z * minus_7_3 + z**3, x - y * five, x**0):
            assert parse_poly(format_poly(q), 3) == q

    def test_malformed_terms_rejected(self):
        for bad in ("--5", "3*x1 + + 2", "3*x1 -", "+", "3**x1"):
            with pytest.raises(ValueError):
                parse_poly(bad, 2)

    @pytest.mark.parametrize("bad", ["\uff13*v1^2", "3*v\uff11^2", "3*v1^\uff12", "\u0663/2*v1"])
    def test_ascii_digits_only(self, bad):
        # full-width (U+FF10..) and Arabic-Indic digits are \d in Unicode
        # regexes and int() reads them, but the grammar is ASCII
        with pytest.raises(ValueError, match="cannot parse term"):
            parse_poly(bad, 6, prefix="v")

    def test_ascii_coefficient_only(self):
        for bad in ("\uff14", "1/\uff12", "\u0664"):
            with pytest.raises(ValueError, match="is not an integer or a/b"):
                parse_coefficient(bad)
        assert parse_coefficient("-4/6") == Fraction(-2, 3)

    @pytest.mark.parametrize("good, value", [("0", 0), ("+24", 24), ("-7", -7), ("007", 7)])
    def test_integer_token(self, good, value):
        assert parse_integer(good, "d") == value

    @pytest.mark.parametrize(
        "bad",
        ["1_0", " 24", "24 ", "\uff12\uff14", "\u0662", "", "+", "1.0", "0x10", "2/1", "--1"],
    )
    def test_integer_token_refused(self, bad):
        with pytest.raises(ValueError, match=f"^d {re.escape(repr(bad))} is not an integer$"):
            parse_integer(bad, "d")

    def test_digit_bound(self):
        top = "9" * MAX_DIGITS
        assert parse_integer("-" + top, "d") == -int(top)
        assert parse_coefficient(f"{top}/{top}") == 1
        over = "9" * (MAX_DIGITS + 1)
        refused = f"has more than MAX_DIGITS = {MAX_DIGITS} digits in a row$"
        for call in (
            lambda: parse_integer(over, "d"),
            lambda: parse_coefficient(over),
            lambda: parse_coefficient(f"1/{over}"),
            lambda: parse_poly(f"{over}*x1", 2),
            lambda: parse_poly(f"x{'0' * MAX_DIGITS}1", 2),
            lambda: parse_poly(f"x1^{'0' * MAX_DIGITS}2", 2),
        ):
            with pytest.raises(ValueError, match=refused):
                call()
        assert parse_poly(f"x{'0' * (MAX_DIGITS - 1)}1^{'0' * (MAX_DIGITS - 1)}2", 2) == (
            parse_poly("x1^2", 2)
        )

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match=r"zero denominator in term '1/0\*v1\^3'"):
            parse_poly("v2^3 + 1/0*v1^3", 2, prefix="v")

    def test_any_whitespace_between_tokens(self):
        text = appendix_cubic_text()
        for variant in (text.replace("\n", "\r\n"), text.replace(" ", "\t")):
            assert parse_poly(variant, 6, prefix="v") == appendix_cubic()


class TestBuchberger:
    def test_single_generator(self):
        x = MultiPoly.variable(0, 2, P)
        assert buchberger([x]) == [x]

    def test_two_variables(self):
        x, y = variables(2, P)
        # the one pair has coprime leads: the generators are the basis,
        # in their order and unreduced
        gb = buchberger([x + y, y])
        assert gb == [x + y, y]
        assert reduced_basis(gb) == [y, x]

    def test_empty(self):
        assert buchberger([]) == []
        assert buchberger([MultiPoly.zero(2, P)]) == []

    def test_requires_prime_field(self):
        with pytest.raises(ValueError):
            buchberger([MultiPoly.variable(0, 2)])

    def test_a_lead_that_is_no_unit_mod_n(self):
        x, y = variables(2, 15)
        three = MultiPoly.constant(3, 2, 15)
        with pytest.raises(ZeroDivisionError, match="leading coefficient 3 is not a unit mod 15"):
            buchberger([three * x + y])
        # the S-polynomial 5*y vanishes mod 5 only: the runs over F_3 and F_5
        # part ways, and the run mod 15 refuses its lead
        six = MultiPoly.constant(6, 2, 15)
        with pytest.raises(ZeroDivisionError, match="leading coefficient 5 is not a unit"):
            buchberger([x + y, x + six * y])

    @pytest.mark.parametrize("primes", [(P, 31013), (P, 31013, 65537)])
    def test_run_mod_n_reads_mod_p_as_the_run_over_f_p(self, primes):
        n = 1
        for p in primes:
            n *= p
        rng = random.Random(46)
        for nvars, count in ((3, 3), (3, 4), (4, 4)):
            # dense quadrics and a random form of degree at most 3
            monomials = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) == 2]
            gens = [MultiPoly(nvars, {e: rng.randrange(n) for e in monomials}, n)
                    for _ in range(count - 1)]
            gens.append(random_poly(rng, nvars, 3, 6, n))
            joint = buchberger(gens)
            for p in primes:
                mod_p = [MultiPoly(nvars, g.terms, p) for g in gens]
                assert [MultiPoly(nvars, b.terms, p) for b in joint] == buchberger(mod_p)

    def test_euler_relation_membership(self):
        xs = variables(6, P)
        f = sum(
            (x**3 for x in xs[1:]),
            xs[0] ** 3,
        )
        partials = [f.derivative(i) for i in range(6)]
        gb = buchberger(partials)
        assert normal_form(f, gb).is_zero()

    def test_spair_criterion_and_reducedness(self):
        rng = random.Random(24)
        gens = [random_poly(rng, 3, 2, 4, p=P) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        gb = buchberger(gens)
        assert all(g.leading_coefficient() == 1 for g in gb)
        # membership of the generators
        for g in gens:
            assert normal_form(g, gb).is_zero()
        # Buchberger criterion on the final basis
        for i in range(len(gb)):
            for j in range(i):
                assert normal_form(_spoly(gb[i], gb[j]), gb).is_zero()
        # the model's reduced basis: no term of an element is divisible
        # by another leading term
        reduced = reduced_basis(gens)
        for i, g in enumerate(reduced):
            for e in g.terms:
                for j, h in enumerate(reduced):
                    if i != j:
                        lm = h.leading_monomial()
                        assert not all(a <= b for a, b in zip(lm, e))

    def test_random_systems_against_the_reference_normal_form(self):
        # non-homogeneous systems run the plain pair loop; every check is
        # judged by the cache-free reference on exponent tuples, not by
        # the engine's own normal form
        rng = random.Random(1)
        for _ in range(300):
            gens = [random_poly(rng, 3, 3, rng.randint(2, 4), p=P) for _ in range(rng.randint(2, 4))]
            gb = buchberger(gens)
            basis = [dict(g.terms) for g in gb]
            leads = [max(b, key=grevlex_key) for b in basis]
            assert [b[lead] for b, lead in zip(basis, leads)] == [1] * len(gb)
            for g in gens:
                assert not reference_normal_form(g.terms, basis, P)
            for i in range(len(gb)):
                for j in range(i):
                    assert not reference_normal_form(_spoly(gb[i], gb[j]).terms, basis, P)

    def test_deterministic(self):
        rng = random.Random(25)
        gens = [random_poly(rng, 3, 2, 5, p=P) for _ in range(3)]
        assert buchberger(gens) == buchberger(gens)

    def test_normal_form_checks_the_ring(self):
        x = MultiPoly.variable(0, 2, 7)
        for other in (MultiPoly.variable(2, 3, 7), MultiPoly.variable(0, 2, 11)):
            with pytest.raises(ValueError, match="different rings"):
                normal_form(x, [other])
        with pytest.raises(TypeError, match="got int"):
            normal_form(x, [3])

    def test_packed_monomial_bound(self):
        # every packed monomial has total degree <= 4095; an S-pair lcm
        # or an input above that is refused before any product is formed
        x, y = variables(2, P)
        with pytest.raises(ValueError, match="packed-monomial bound"):
            buchberger([x**3000, x**2000 * y**2000])
        with pytest.raises(ValueError, match="packed-monomial bound"):
            normal_form(x**4096, [y])
        assert buchberger([x**4095]) == [x**4095]


def plain_basis(gens):
    """buchberger through the plain pair loop: no Hilbert targets."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "_hilbert_targets", lambda gens: None)
        return buchberger(gens)


class TestHilbertDriven:
    """The Hilbert-driven pair loop of buchberger against the plain one."""

    def test_targets_of_six_quadrics(self):
        # R/J has Hilbert series (1 + t)^6, so J_7 = R_7 and 7 is the top
        targets = _complete_intersection_targets([2] * 6, 6)
        assert targets == (0, 0, 6, 36, 111, 246, 461, 792)

    def test_targets_of_two_squares(self):
        # (x^2, y^2): R/J has basis 1, x, y, xy
        assert _complete_intersection_targets([2, 2], 2)[2:] == (2, 4)
        assert _complete_intersection_targets([1, 3], 2) == (0, 1, 2, 4)

    def test_same_basis_as_plain(self):
        x, y, z = variables(3, P)
        cases = [
            ([x * x, y * y, z * z], True),  # a regular sequence: the top degree is covered
            ([x * x, x * y, y * z], True),  # zeros off the origin: top never covered
            ([x * x, y * y], False),  # fewer forms than variables
            ([x + y * y, y, z], False),  # not homogeneous
        ]
        for gens, driven in cases:
            assert (_hilbert_targets(gens) is not None) == driven
            assert buchberger(gens) == plain_basis(gens)

    def test_high_degree_input_builds_no_table(self):
        # x_i^4 and x_i^20 in six variables have top degree 19 and 115, far
        # past the size bound: the plain loop runs (every pair is coprime,
        # so the basis is the generators) and no monomial table is built
        xs = variables(6, P)
        for e in (4, 20):
            gens = [x**e for x in xs]
            assert _hilbert_targets(gens) is None
            built = _monomial_steps.cache_info().misses
            assert buchberger(gens) == gens
            assert _monomial_steps.cache_info().misses == built

    def test_random_cubics_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        q = 101

        @st.composite
        def cubics(draw):
            nvars = draw(st.integers(2, 4))
            monomials = [
                tuple(c.count(i) for i in range(nvars))
                for c in itertools.combinations_with_replacement(range(nvars), 3)
            ]
            terms = draw(st.dictionaries(st.sampled_from(monomials), st.integers(1, q - 1)))
            return MultiPoly(nvars, terms, q)

        @hypothesis.settings(
            max_examples=120, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(cubics())
        def check(cubic):
            partials = [cubic.derivative(i) for i in range(cubic.nvars)]
            assert buchberger(partials) == plain_basis(partials)

        check()


class TestPairLoop:
    """The pair loop buchberger gives a Groebner basis: monic, with the
    reduced basis's leads among its own."""

    @staticmethod
    def systems():
        rng = random.Random(30)
        for _ in range(60):
            # non-homogeneous: the plain loop
            yield [random_poly(rng, 3, 3, rng.randint(2, 4), p=P) for _ in range(3)]
        for nvars in (3, 4):
            # partials of dense cubics and of a singular one: the
            # Hilbert-driven loop, which only the smooth ones stop early
            monomials = [e for e in itertools.product(range(4), repeat=nvars) if sum(e) == 3]
            for _ in range(10):
                cubic = MultiPoly(nvars, {e: rng.randrange(P) for e in monomials}, P)
                yield [cubic.derivative(i) for i in range(nvars)]
            x, zero = variables(nvars, P), MultiPoly.zero(nvars, P)
            nodal = x[0] * sum((xi * xi for xi in x[1:]), zero) + sum((xi**3 for xi in x[1:]), zero)
            yield [nodal.derivative(i) for i in range(nvars)]

    def test_a_basis_with_the_reduced_leads(self):
        for gens in self.systems():
            raw = buchberger(gens)
            basis = [dict(g.terms) for g in raw]
            leads = [max(b, key=grevlex_key) for b in basis]
            assert [b[lead] for b, lead in zip(basis, leads)] == [1] * len(raw)
            for g in gens:
                assert not reference_normal_form(g.terms, basis, P)
            for i in range(len(raw)):
                for j in range(i):
                    assert not reference_normal_form(_spoly(raw[i], raw[j]).terms, basis, P)
            minimal = {
                lead for lead in leads
                if not any(o != lead and all(a <= b for a, b in zip(o, lead)) for o in leads)
            }
            assert sorted(minimal, key=grevlex_key) == [
                g.leading_monomial() for g in reduced_basis(gens)
            ]


def _spoly(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    uf = tuple(a - b for a, b in zip(lcm, lf))
    ug = tuple(a - b for a, b in zip(lcm, lg))
    n, p = f.nvars, f.p
    mf = MultiPoly(n, {uf: pow(f.leading_coefficient(), -1, p)}, p)
    mg = MultiPoly(n, {ug: pow(g.leading_coefficient(), -1, p)}, p)
    return mf * f - mg * g


class TestOnlyZeroAtOrigin:
    def test_coordinate_ideal(self):
        xs = variables(6, P)
        assert only_zero_at_origin(xs)

    def test_surviving_axis(self):
        x0 = MultiPoly.variable(0, 2, P)
        assert not only_zero_at_origin([x0 * x0])

    def test_fermat_partials(self):
        xs = variables(6, P)
        partials = [(x**3).derivative(i) for i, x in enumerate(xs)]
        assert only_zero_at_origin(partials)

    def test_rejects_non_homogeneous(self):
        x = MultiPoly.variable(0, 2, P)
        with pytest.raises(ValueError):
            only_zero_at_origin([x + MultiPoly.constant(1, 2, P)])

    def test_empty_ideal(self):
        assert not only_zero_at_origin([])
        assert not only_zero_at_origin([MultiPoly.zero(3, P)])

    def test_monotone_in_generators(self):
        rng = random.Random(26)
        xs = variables(3, P)
        base = [xs[0] * xs[1], xs[1] * xs[2], xs[0] ** 2 + xs[2] ** 2]
        extra = random_poly(rng, 3, 2, 3, p=P)
        extra = MultiPoly(
            3, {e: c for e, c in extra.terms.items() if sum(e) == 2}, P
        )
        if only_zero_at_origin(base):
            assert only_zero_at_origin(base + [extra])


class TestPrimeFieldRationals:
    def test_fraction_coefficient_uses_modular_inverse(self):
        from fractions import Fraction

        p = MultiPoly(1, {(1,): Fraction(1, 2)}, 7)
        assert p.terms == {(1,): 4}  # 2 * 4 = 8 = 1 mod 7

    def test_fraction_with_bad_denominator(self):
        from fractions import Fraction

        with pytest.raises(ValueError):
            MultiPoly(1, {(1,): Fraction(1, 7)}, 7)
