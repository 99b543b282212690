import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest

from peskine import ntheory
from peskine.associations import cubic_witness, k3_witness
from peskine.ntheory import (
    _CHUNK_CAP,
    _CHUNK_FIRST,
    _SIEVE,
    QmodTwoZ,
    _square_period,
    factorize,
    is_prime,
    is_square_mod,
    legendre,
    square_root_mod,
    square_roots_mod,
)

from _models import square_root_mod_reference, square_roots_mod_reference


def divisors(m):
    return [g for g in range(1, m + 1) if m % g == 0]


def seeded_cases(seed, count, m_max):
    """(a, m, coeff) with coeff = g*r for a divisor g of m, half of them solvable."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, m_max)
        coeff = rng.choice(divisors(m)) * rng.randint(-m, m)
        a = coeff * rng.randint(0, m) ** 2 if rng.random() < 0.5 else rng.randint(-m, m)
        yield a, m, coeff


class TestFactorize:
    def test_empty_product(self):
        assert factorize(1) == ()

    def test_small(self):
        assert factorize(24) == ((2, 3), (3, 1))

    def test_2312(self):
        assert factorize(2312) == ((2, 3), (17, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-24)

    def test_reconstruction(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            fact = factorize(n)
            prod = 1
            for p, e in fact:
                assert is_prime(p)
                assert e >= 1
                prod *= p**e
            assert prod == n
            assert list(fact) == sorted(fact)


class TestIsPrime:
    def test_against_a_sieve(self):
        limit = 10**5
        sieve = [False, False] + [True] * (limit - 2)
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(range(i * i, limit, i))
        rng = random.Random(5)
        ns = list(range(-5, 200)) + [limit - 9, limit - 1] + rng.sample(range(limit), 5000)
        for n in ns:
            assert is_prime(n) == (n >= 0 and sieve[n]), n


class TestLegendre:
    def test_examples(self):
        assert legendre(3, 11) == 1
        assert legendre(2, 11) == -1
        assert legendre(11, 11) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 9)
        with pytest.raises(ValueError):
            legendre(3, 15)

    def test_against_square_tables(self):
        # for every odd prime p <= 1000 the symbol agrees with the
        # exhaustive table of squares
        for p in range(3, 1001, 2):
            if not is_prime(p):
                continue
            squares = {k * k % p for k in range(p)}
            for a in range(p):
                sym = legendre(a, p)
                if a == 0:
                    assert sym == 0
                elif a in squares:
                    assert sym == 1
                else:
                    assert sym == -1

    def test_reciprocity_for_eleven(self):
        # -11 is a square mod p exactly when p is a square mod 11
        for p in range(3, 1001, 2):
            if p == 11 or not is_prime(p):
                continue
            assert legendre(-11, p) == legendre(p, 11)


class TestIsSquareMod:
    def test_minus_eleven_mod_44(self):
        assert is_square_mod(-11, 44)
        assert square_root_mod(-11, 44) in (11, 33)

    def test_zero_is_square(self):
        for m in (1, 2, 7, 44, 100):
            assert is_square_mod(0, m)

    def test_five_mod_eight(self):
        assert not is_square_mod(5, 8)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            is_square_mod(3, 0)
        with pytest.raises(ValueError):
            is_square_mod(3, -4)

    def test_witness_squares(self):
        rng = random.Random(2)
        for _ in range(100):
            m = rng.randint(1, 400)
            a = rng.randint(-m, m)
            k = square_root_mod(a, m)
            if k is not None:
                assert k * k % m == a % m
            # the scan finds the smallest root of the full range
            for coeff in (1, 2, -33, a + 1):
                full = next(
                    (j for j in range(m) if coeff * j * j % m == a % m), None
                )
                assert square_root_mod(a, m, coeff) == full


class TestSquareRootsMod:
    def test_every_root_in_ascending_order(self):
        for a, m, coeff in seeded_cases(23, 300, 300):
            top = random.Random(a * m).randint(0, 2 * m)
            roots = [k for k in range(top + 1) if (coeff * k * k - a) % m == 0]
            assert list(square_roots_mod(a, m, coeff, top)) == roots, (a, m, coeff, top)


# lcm(64, 63, 65, 11): a multiple of it leaves the walk no sieve mask
SIEVE_LCM = 2_882_880


def walk(a, m, coeff, top):
    return list(square_roots_mod(a, m, coeff, top))


def walk_reference(a, m, coeff, top):
    return list(square_roots_mod_reference(a, m, coeff, top))


def chunk_bounds(limit):
    """First and last index of each chunk of the sieved walk below limit."""
    start, size, out = 1, _CHUNK_FIRST, []
    while start < limit:
        out += [start, start + size - 1]
        start += size
        size = min(2 * size, _CHUNK_CAP)
    return out


class TestSquareRootsModSieve:
    """The sieved walk yields what the plain walk of _models yields."""

    def test_contract(self):
        for m in (0, -7):
            with pytest.raises(ValueError, match="modulus must be positive"):
                walk(1, m, 1, 3)
        assert walk(4, 5, 1, -3) == []
        assert walk(4, 5, 1, -1) == []
        assert walk(1, 7, 1, 8) == [1, 6, 8]

    def test_tables_are_the_squares(self):
        assert [q for q, _ in _SIEVE] == [64, 63, 65, 11]
        for q, table in _SIEVE:
            assert len(table) == q * (q + 1)
            squares = {k * k % q for k in range(q)}
            assert [r for r in range(q) if table[r]] == sorted(squares)
            assert table == table[:q] * (q + 1)

    def test_seeded_against_the_plain_walk(self):
        rng = random.Random(28)
        for a, m, coeff in seeded_cases(28, 400, 5000):
            # at most 5 000 candidates: top*top // m' < 5 000
            mp = m // gcd(coeff % m, m)
            top = rng.randint(0, min(3 * m, isqrt(5000 * mp)))
            assert walk(a, m, coeff, top) == walk_reference(a, m, coeff, top), (a, m, coeff, top)

    @pytest.mark.parametrize("q", [64, 63, 65, 11, SIEVE_LCM])
    def test_modulus_divisible_by_a_sieve_modulus(self, q):
        # m' = 0 (mod q): the mask of q has period 1, so it is dropped or
        # it rejects the class; with q = lcm no mask is left at all
        rng = random.Random(q)
        for t in (1, 2, 3, 7):
            m = q * t
            top = isqrt(3000 * m)
            for a in [k * k for k in rng.sample(range(m), 10)] + rng.sample(range(m), 10):
                assert walk(a, m, 1, top) == walk_reference(a, m, 1, top), (a, m)
            # coeff sharing a factor with m: m' = m // g is a multiple of q too
            assert walk(3 * 25, 3 * m, 3, top) == walk_reference(3 * 25, 3 * m, 3, top)

    def test_no_mask_left_tests_every_candidate(self, monkeypatch):
        calls = []
        real = ntheory.isqrt

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(ntheory, "isqrt", counting)
        # b a square mod every q: each mask is all squares and is dropped
        m, top = SIEVE_LCM, 150_000
        for a in (0, 1, 49, 10**6, 12345**2):
            calls.clear()
            roots = walk(a, m, 1, top)
            assert calls == list(range(a % m, top * top + 1, m)), a
            assert roots == walk_reference(a, m, 1, top)
            assert len(roots) > 1
        # m - 1 is no square mod 64: the class is rejected after x_0
        calls.clear()
        assert walk(m - 1, m, 1, top) == []
        assert calls == [m - 1]

    def test_class_rejected_outright(self, monkeypatch):
        # 2 is no square mod 64 and mod 65, 3 none mod 63, 7 none mod 11:
        # with m' a multiple of q the walk stops after its first candidate
        calls = []
        real = ntheory.isqrt
        monkeypatch.setattr(ntheory, "isqrt", lambda x: calls.append(x) or real(x))
        # top = 10^9: a walk of the class would read 10^16 candidates or more
        for a, m in ((2, 64), (2, 640), (3, 63), (7, 11 * 17), (2, 65 * 3)):
            calls.clear()
            assert walk(a, m, 1, 10**9) == []
            assert calls == [a], (a, m)

    def test_modulus_one(self):
        assert walk(0, 1, 1, 0) == [0]
        assert walk(5, 1, 7, 0) == [0]
        assert walk(0, 1, 0, 40) == list(range(41))
        assert walk(3, 2, 1, 0) == []
        assert walk(0, 12, 24, 5) == list(range(6))

    def test_roots_on_chunk_bounds(self):
        # a root at index j of the walk of the prime modulus p: b = k*k - j*p
        p = 1_000_003
        for j in chunk_bounds(300_000):
            k = isqrt((j + 1) * p - 1)
            assert k * k >= j * p, j
            b = k * k - j * p
            top = k + 1 + j % 5
            roots = walk(b, p, 1, top)
            assert k in roots, j
            assert roots == walk_reference(b, p, 1, top), j

    def test_walks_longer_than_the_chunk_cap(self):
        rng = random.Random(3)
        for m, coeff in ((1_000_003, 1), (2 * 99_991, -11), (6 * 40_000, -33), (SIEVE_LCM, 5)):
            top = isqrt(3 * _CHUNK_CAP * m)
            assert top * top // m > 2 * _CHUNK_CAP
            for a in (coeff * rng.randrange(m) ** 2, rng.randrange(m)):
                assert walk(a, m, coeff, top) == walk_reference(a, m, coeff, top), (a, m, coeff)

    def test_memory_of_the_longest_walks(self):
        # both witnesses fail at d = 9 999 986 after walking about d/8 = 1.25
        # million candidates; chunks of at most _CHUNK_CAP indices keep the
        # peak near 0.3 MB, where chunks doubling without a cap took 1.9 MB
        for witness in (k3_witness, cubic_witness):
            tracemalloc.start()
            try:
                assert witness(9_999_986) is None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (witness.__name__, peak)

    def test_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def cases(draw):
            base = draw(st.sampled_from([1, 64, 63, 65, 11, SIEVE_LCM]))
            m = base * draw(st.integers(1, {1: 3000, SIEVE_LCM: 4}.get(base, 40)))
            coeff = draw(st.integers(-3 * m, 3 * m))
            a = draw(st.one_of(st.integers(-m, m), st.integers(0, m).map(lambda k: coeff * k * k)))
            mp = m // gcd(coeff % m, m)
            top = draw(st.integers(0, isqrt(20_000 * mp)))
            return a, m, coeff, top

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(cases())
        def check(case):
            assert walk(*case) == walk_reference(*case)

        check()


class TestSquareRootModReference:
    """The residue-class scan returns what the half-modulus scan returns."""

    def test_seeded_coefficients_sharing_factors_with_m(self):
        for a, m, coeff in seeded_cases(15, 600, 2000):
            assert square_root_mod(a, m, coeff) == square_root_mod_reference(a, m, coeff), (a, m, coeff)

    def test_zero_coefficient(self):
        for m in (1, 2, 6, 44, 97, 2000):
            for coeff in (0, m, -3 * m):
                for a in range(-m, m + 1):
                    assert square_root_mod(a, m, coeff) == (0 if a % m == 0 else None)

    def test_modulus_one(self):
        for a in range(-5, 6):
            for coeff in range(-5, 6):
                assert square_root_mod(a, 1, coeff) == 0

    def test_gcd_does_not_divide_target(self):
        # g = gcd(6, 12) = 6 does not divide 3 or 9: no k at all
        for a in (3, 9, -3):
            assert square_root_mod(a, 12, coeff=6) is None
            assert square_root_mod_reference(a, 12, coeff=6) is None

    def test_gcd_above_one_with_a_solution(self):
        # cubic case 1 at d = 32: -33 k^2 = 63 (mod 192), g = 3, m' = 64
        k = square_root_mod(63, 192, coeff=-33)
        assert k is not None and (-33 * k * k - 63) % 192 == 0
        assert k == square_root_mod_reference(63, 192, coeff=-33)

    def test_reduced_modulus_one(self):
        # coeff = 0 (mod m) makes g = m and m' = 1: k = 0 iff m divides a
        for m, coeff in ((12, 24), (7, -7), (2000, 0)):
            assert square_root_mod(3 * m, m, coeff) == 0
            assert square_root_mod(m + 1, m, coeff) is None

    def test_twice_odd_modulus(self):
        # h = m // 2 is odd and f(k + h) = f(k) + h, so only 2h is a period
        for m in (2, 6, 10, 30, 2 * 99):
            for a in range(m):
                assert square_root_mod(a, m) == square_root_mod_reference(a, m)

    def test_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @st.composite
        def cases(draw):
            m = draw(st.integers(1, 2000))
            g = draw(st.sampled_from(divisors(m)))
            coeff = g * draw(st.integers(-m, m))
            a = draw(st.one_of(st.integers(-m, m), st.integers(0, m).map(lambda k: coeff * k * k)))
            return a, m, coeff

        @hypothesis.settings(
            max_examples=150, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(cases())
        def check(case):
            assert square_root_mod(*case) == square_root_mod_reference(*case)

        check()


class TestSquarePeriod:
    def test_is_a_period_at_most_m(self):
        pairs = [(m, coeff) for _, m, coeff in seeded_cases(16, 300, 500)]
        # m = 2*odd, coeff = 1: h = m // 2 is not a period, only 2h = m is
        pairs += [(m, 1) for m in (2, 6, 10, 2 * 125, 2 * 4999)] + [(1, 0), (7, 0), (12, 5)]
        for m, coeff in pairs:
            period = _square_period(m, coeff % m)
            assert 1 <= period <= m, (m, coeff)
            for k in range(2 * m):
                assert coeff * (k + period) ** 2 % m == coeff * k * k % m, (m, coeff, k)


def reduced_pair(q):
    return q.num, q.den


def fraction_pair(f):
    r = f % 2
    return r.numerator, r.denominator


class TestQmodTwoZ:
    def test_examples(self):
        assert QmodTwoZ(25, 11) == QmodTwoZ(3, 11)
        assert QmodTwoZ(-11, 24) == QmodTwoZ(37, 24)
        assert QmodTwoZ(4, 2) == QmodTwoZ(0, 1)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            QmodTwoZ(1, 0)

    def test_canonical_range(self):
        rng = random.Random(3)
        for _ in range(300):
            num = rng.randint(-500, 500)
            den = rng.randint(1, 60) * rng.choice((1, -1))
            q = QmodTwoZ(num, den)
            assert q.den > 0
            assert 0 <= Fraction(q.num, q.den) < 2

    def test_matches_fraction_mod_two(self):
        rng = random.Random(5)
        cases = [(0, den) for den in (1, -1, 24, -24)]
        cases += [
            (rng.randint(-10**6, 10**6), rng.choice((1, -1)) * rng.randint(1, 10**4))
            for _ in range(2000)
        ]
        for (a, b), (c, e) in zip(cases, cases[1:] + cases[:1]):
            x, y = Fraction(a, b), Fraction(c, e)
            assert reduced_pair(QmodTwoZ(a, b)) == fraction_pair(x)
            assert reduced_pair(-QmodTwoZ(a, b)) == fraction_pair(-x)
            assert reduced_pair(QmodTwoZ(a, b) + QmodTwoZ(c, e)) == fraction_pair(x + y)

    def test_matches_fraction_mod_two_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        nums = st.integers(-10**12, 10**12)
        dens = st.integers(-10**6, 10**6).filter(bool)

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(nums, dens, nums, dens)
        def check(a, b, c, e):
            x, y = Fraction(a, b), Fraction(c, e)
            assert reduced_pair(QmodTwoZ(a, b)) == fraction_pair(x)
            assert reduced_pair(-QmodTwoZ(a, b)) == fraction_pair(-x)
            assert reduced_pair(QmodTwoZ(a, b) + QmodTwoZ(c, e)) == fraction_pair(x + y)

        check()

    def test_group_homomorphism(self):
        rng = random.Random(4)
        for _ in range(300):
            a = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
            b = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
            lhs = QmodTwoZ(a.numerator, a.denominator) + QmodTwoZ(b.numerator, b.denominator)
            assert lhs == QmodTwoZ((a + b).numerator, (a + b).denominator)

    def test_str(self):
        assert str(QmodTwoZ(11, 24)) == "11/24"
