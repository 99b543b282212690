import random
from fractions import Fraction

import pytest

from peskine.ntheory import (
    QmodTwoZ,
    factorize,
    is_prime,
    is_square_mod,
    legendre,
    qmod2z,
    square_root_mod,
)


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
            # the half-range scan finds the smallest root of the full range
            for coeff in (1, 2, -33, a + 1):
                full = next(
                    (j for j in range(m) if coeff * j * j % m == a % m), None
                )
                assert square_root_mod(a, m, coeff) == full


class TestQmodTwoZ:
    def test_examples(self):
        assert qmod2z(25, 11) == QmodTwoZ(3, 11)
        assert qmod2z(-11, 24) == QmodTwoZ(37, 24)
        assert qmod2z(4, 2) == QmodTwoZ(0, 1)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            qmod2z(1, 0)

    def test_canonical_range(self):
        rng = random.Random(3)
        for _ in range(300):
            num = rng.randint(-500, 500)
            den = rng.randint(1, 60) * rng.choice((1, -1))
            q = qmod2z(num, den)
            assert q.den > 0
            assert 0 <= Fraction(q.num, q.den) < 2

    def test_group_homomorphism(self):
        rng = random.Random(4)
        for _ in range(300):
            a = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
            b = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
            lhs = QmodTwoZ.from_fraction(a) + QmodTwoZ.from_fraction(b)
            assert lhs == QmodTwoZ.from_fraction(a + b)

    def test_str(self):
        assert str(qmod2z(11, 24)) == "11/24"
