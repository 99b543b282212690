import random
from fractions import Fraction
from math import gcd

import pytest

from peskine.lattice import (
    DegenerateLatticeError,
    GramLattice,
    bareiss_determinant,
    determinant,
    discriminant_group,
    field_kernel,
    generator_with_q_value,
    rank,
    smith_normal_form,
)
from peskine.markings import admissible_range, disc_form_closed, lambda11, marking_gram
from peskine.ntheory import QmodTwoZ, qmod2z

from _models import cyclic_q_matches, integer_inverse, integer_kernel, orthogonal_complement

U_HYPERBOLIC = GramLattice(((0, 1), (1, 0)))


def random_matrix(rng, rows, cols, bound=20):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


class TestDeterminant:
    def test_lambda11(self):
        assert determinant(lambda11()) == 11

    def test_marking_22(self):
        assert determinant(marking_gram(22).lattice()) == 22

    def test_identity(self):
        assert determinant(GramLattice(((1, 0), (0, 1)))) == 1

    def test_matches_cofactor_expansion(self):
        rng = random.Random(10)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, 8)
            assert bareiss_determinant(m) == _det_slow(m)


def _det_slow(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _det_slow(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestGramLattice:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GramLattice(((1, 2), (3, 4)))

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateLatticeError):
            GramLattice(((1, 1), (1, 1)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GramLattice(((1, 0, 0), (0, 1, 0)))


class TestSmithNormalForm:
    def test_already_diagonal(self):
        _, d, _ = smith_normal_form(((2, 0), (0, 4)))
        assert d == ((2, 0), (0, 4))

    def test_lambda11(self):
        _, d, _ = smith_normal_form(lambda11().gram)
        assert d == ((1, 0), (0, 11))

    def test_zero_one_by_one(self):
        u, d, v = smith_normal_form(((0,),))
        assert d == ((0,),)
        assert u == ((1,),) and v == ((1,),)

    def test_roundtrip_500_random(self):
        rng = random.Random(11)
        for _ in range(500):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            u, d, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert abs(bareiss_determinant(u)) == 1
            assert abs(bareiss_determinant(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0
                else:
                    assert b == 0
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0


class TestRowReduction:
    @pytest.mark.parametrize("p", [None, 10007])
    def test_rank_kernel_and_inverse(self, p):
        rng = random.Random(2024 if p is None else p)
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols, bound=3)
            if rows > 1 and rng.random() < 0.5:
                m[-1] = [a + 2 * b for a, b in zip(m[0], m[1])]
            kernel = field_kernel(m, p)
            assert rank(m, p) + len(kernel) == cols
            for v in kernel:
                image = [sum(x * y for x, y in zip(row, v)) for row in m]
                assert all((x if p is None else x % p) == 0 for x in image)
            n = rng.randint(1, 5)
            u = [list(r) for r in identity(n)]
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    f = rng.randint(-3, 3)
                    u[i] = [a + f * b for a, b in zip(u[i], u[j])]
            assert mat_mul(integer_inverse(u), u) == identity(n)


class TestDiscriminantGroup:
    def test_lambda11(self):
        g = discriminant_group(lambda11())
        assert g.invariant_factors == (11,)

    def test_marking_24(self):
        g = discriminant_group(marking_gram(24).lattice())
        assert g.invariant_factors == (24,)
        assert cyclic_q_matches(24, g.qvals[0], qmod2z(11, 24))

    def test_unimodular_trivial(self):
        for gram in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
            assert discriminant_group(GramLattice(gram)).is_trivial()

    def test_order_equals_determinant(self):
        rng = random.Random(13)
        done = 0
        while done < 60:
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, 6)
            for i in range(n):
                for j in range(i):
                    m[j][i] = m[i][j]
            det = bareiss_determinant(m)
            if det == 0:
                continue
            g = discriminant_group(GramLattice(m))
            assert g.order == abs(det)
            done += 1

    def test_generators_are_dual_vectors(self):
        lat = marking_gram(30).lattice()
        g = discriminant_group(lat)
        for d, gen in zip(g.invariant_factors, g.generators):
            assert all((d * x).denominator == 1 for x in gen)
            for row in lat.gram:
                pairing = sum(Fraction(a) * x for a, x in zip(row, gen))
                assert pairing.denominator == 1


class TestCyclicQMatches:
    def test_unit_square_orbit(self):
        assert cyclic_q_matches(5, qmod2z(2, 5), qmod2z(8, 5))
        assert not cyclic_q_matches(5, qmod2z(2, 5), qmod2z(1, 5))

    def test_generator_with_q_value(self):
        lat = marking_gram(24).lattice()
        group = discriminant_group(lat)
        gen = generator_with_q_value(lat, group, qmod2z(11, 24))
        assert gen is not None
        n = lat.rank
        q = sum(
            gen[r] * sum(Fraction(lat.gram[r][c]) * gen[c] for c in range(n))
            for r in range(n)
        )
        assert qmod2z(q.numerator, q.denominator) == qmod2z(11, 24)


def reference_generator_with_q_value(lattice, group, target):
    """Fraction search of the earlier generator_with_q_value: q evaluated
    exactly on every candidate u*g + shift, kept as the reference."""
    order = group.invariant_factors[0]
    g = group.generators[0]
    n = lattice.rank
    q1 = group.qvals[0].as_fraction()
    t = target.as_fraction()
    den = (q1.denominator * t.denominator) // gcd(q1.denominator, t.denominator)
    a = q1.numerator * (den // q1.denominator)
    b = t.numerator * (den // t.denominator)
    shifts = [tuple(Fraction(0) for _ in range(n))]
    shifts += [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    for u in range(order):
        if gcd(u, order) != 1 or (u * u * a - b) % den != 0:
            continue
        for lam in shifts:
            x = tuple(u * gi + li for gi, li in zip(g, lam))
            pairing = [
                sum(Fraction(lattice.gram[r][c]) * x[c] for c in range(n))
                for r in range(n)
            ]
            q = sum(x[r] * pairing[r] for r in range(n))
            if QmodTwoZ.from_fraction(q) == target:
                return x
    return None


def cyclic_gram_lattices(rng, n, even, count):
    """Seeded symmetric n x n Gram matrices with a nontrivial cyclic
    discriminant group, even or odd."""
    out = []
    while len(out) < count:
        m = random_matrix(rng, n, n, 7)
        for i in range(n):
            for j in range(i):
                m[j][i] = m[i][j]
            m[i][i] = 2 * m[i][i] if even else 2 * m[i][i] + 1
        if bareiss_determinant(m) == 0:
            continue
        lat = GramLattice(m)
        group = discriminant_group(lat)
        if group.is_cyclic() and not group.is_trivial():
            out.append((lat, group))
    return out


class TestUnitScanAgainstReference:
    def test_marking_lattices(self):
        rng = random.Random(17)
        hits = 0
        for d in admissible_range(2, 3000):
            closed = disc_form_closed(d)
            if closed.q is None:
                continue
            lat = marking_gram(d).lattice()
            group = discriminant_group(lat)
            for target in (closed.q, closed.q + qmod2z(1, 1), qmod2z(rng.randrange(2 * d), d)):
                got = generator_with_q_value(lat, group, target)
                assert got == reference_generator_with_q_value(lat, group, target), (d, target)
                hits += got is not None
        assert hits > 1000

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("even", [True, False])
    def test_seeded_gram_matrices(self, n, even):
        rng = random.Random(100 * n + even)
        found = missed = 0
        for lat, group in cyclic_gram_lattices(rng, n, even, 40):
            order = group.invariant_factors[0]
            g = group.generators[0]
            targets = [qmod2z(rng.randrange(4 * order), 2 * order) for _ in range(3)]
            for _ in range(3):
                # the value of a random representative of a random unit multiple
                u = rng.choice([u for u in range(1, order + 1) if gcd(u, order) == 1])
                x = [u * gi + rng.randint(-3, 3) for gi in g]
                q = sum(x[r] * sum(lat.gram[r][c] * x[c] for c in range(n)) for r in range(n))
                targets.append(QmodTwoZ.from_fraction(q))
            for target in targets:
                got = generator_with_q_value(lat, group, target)
                assert got == reference_generator_with_q_value(lat, group, target)
                found += got is not None
                missed += got is None
        assert found >= 120 and missed > 0


class TestOrthogonalComplement:
    """The complement and integer kernel the glue models in _models build on."""

    def test_diagonal_split(self):
        comp = orthogonal_complement(GramLattice(((1, 0), (0, 1))), [(1, 0)])
        assert comp.gram == ((1,),)

    def test_isotropic_vector_errors(self):
        with pytest.raises(DegenerateLatticeError):
            orthogonal_complement(U_HYPERBOLIC, [(1, 0)])

    def test_isotropic_in_odd_signature(self):
        # (1,1,1) has norm 0 in diag(1,1,-2); the complement contains it
        # and is degenerate
        with pytest.raises(DegenerateLatticeError):
            orthogonal_complement(GramLattice(((1, 0, 0), (0, 1, 0), (0, 0, -2))), [(1, 1, 1)])

    def test_determinant_relation(self):
        # det(S) * det(comp) = det(L) * index^2
        lat = GramLattice(((1, 0, 0), (0, 1, 0), (0, 0, -2)))
        comp = orthogonal_complement(lat, [(1, 1, 0)])
        assert determinant(comp) == -4
        ratio = Fraction(2 * determinant(comp), determinant(lat))
        assert ratio == 4  # index 2

    def test_unimodular_det_match(self):
        # inside a unimodular lattice, |det S| = |det S-perp|
        rng = random.Random(16)
        n = 5
        gram = [[int(i == j) for j in range(n)] for i in range(n)]
        lat = GramLattice(gram)
        done = 0
        while done < 20:
            k = rng.randint(1, n - 1)
            rows = random_matrix(rng, k, n, 4)
            if rank(rows) != k:
                continue
            sat = integer_kernel(integer_kernel(rows))  # the saturation of the rows
            sub = GramLattice(mat_mul(sat, tuple(zip(*sat))))
            comp = orthogonal_complement(lat, rows)
            assert abs(determinant(sub)) == abs(determinant(comp))
            done += 1

    def test_kernel_basis(self):
        basis = integer_kernel([[1, 2, 3], [4, 5, 6]])
        assert len(basis) == 1
        (v,) = basis
        assert v[0] * 1 + v[1] * 2 + v[2] * 3 == 0
        assert v[0] * 4 + v[1] * 5 + v[2] * 6 == 0
