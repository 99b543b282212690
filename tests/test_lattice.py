import random
from fractions import Fraction

import pytest

from peskine.lattice import (
    DegenerateLatticeError,
    GramLattice,
    bareiss_determinant,
    cyclic_q_matches,
    determinant,
    discriminant_group,
    divisibility,
    field_kernel,
    generator_with_q_value,
    kernel_basis,
    mat_mul,
    orthogonal_complement,
    rank,
    saturation,
    smith_normal_form,
    transpose,
    unimodular_inverse,
)
from peskine.markings import lambda11, marking_gram
from peskine.ntheory import qmod2z

from _models import same_lattice, span_eq

U_HYPERBOLIC = GramLattice(((0, 1), (1, 0)))


def random_matrix(rng, rows, cols, bound=20):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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

    def test_unimodular_inverse(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            u, _, v = smith_normal_form(m)
            for w in (u, v):
                winv = unimodular_inverse(w)
                n_id = tuple(
                    tuple(int(i == j) for j in range(n)) for i in range(n)
                )
                assert mat_mul(w, winv) == n_id


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
            u = tuple(map(tuple, u))
            assert mat_mul(unimodular_inverse(u), u) == identity(n)

    def test_inverse_errors(self):
        with pytest.raises(ValueError, match="singular"):
            unimodular_inverse(((1, 2), (2, 4)))
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(((2, 0), (0, 1)))


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


class TestDivisibility:
    def test_hyperbolic(self):
        assert divisibility(U_HYPERBOLIC, (1, 0)) == 1

    def test_minus_two(self):
        assert divisibility(GramLattice(((-2,),)), (1,)) == 2

    def test_lambda11(self):
        assert divisibility(lambda11(), (1, 1)) == 11

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisibility(lambda11(), (0, 0))

    def test_divides_norm(self):
        rng = random.Random(14)
        lat = marking_gram(46).lattice()
        for _ in range(50):
            v = [rng.randint(-9, 9) for _ in range(3)]
            if all(x == 0 for x in v):
                continue
            div = divisibility(lat, v)
            norm = sum(
                v[i] * lat.gram[i][j] * v[j] for i in range(3) for j in range(3)
            )
            assert norm % div == 0


class TestSaturation:
    def test_scaled_vector(self):
        sat = saturation(2, [(2, 0)])
        assert same_lattice(sat, [(1, 0)])

    def test_already_saturated(self):
        sat = saturation(2, [(1, 0), (0, 1)])
        assert same_lattice(sat, [(1, 0), (0, 1)])

    def test_plane_in_three_space(self):
        sat = saturation(3, [(2, 2, 0), (0, 2, 2)])
        assert len(sat) == 2
        for a, b, c in sat:
            assert a - b + c == 0
        assert same_lattice(sat, [(1, 1, 0), (0, 1, 1)])

    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            saturation(2, [(1, 0), (2, 0)])

    def test_idempotent(self):
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            rows = random_matrix(rng, k, n, 9)
            from peskine.lattice import rank

            if rank(rows) != k:
                continue
            once = saturation(n, rows)
            twice = saturation(n, once)
            assert span_eq(rows, once)
            assert same_lattice(once, twice)

    def test_result_is_saturated(self):
        # the quotient by a saturated sublattice is torsion-free, which
        # shows up as an all-ones Smith diagonal
        sat = saturation(4, [(2, 4, 6, 8), (0, 10, 4, 2), (4, 4, 4, 1)])
        _, d, _ = smith_normal_form(sat)
        assert all(d[i][i] == 1 for i in range(len(sat)))


class TestOrthogonalComplement:
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
            from peskine.lattice import rank

            if rank(rows) != k:
                continue
            sat = saturation(n, rows)
            sub = GramLattice(mat_mul(sat, mat_mul(gram, transpose(sat))))
            comp = orthogonal_complement(lat, sat)
            assert abs(determinant(sub)) == abs(determinant(comp))
            done += 1

    def test_kernel_basis(self):
        basis = kernel_basis([[1, 2, 3], [4, 5, 6]])
        assert len(basis) == 1
        (v,) = basis
        assert v[0] * 1 + v[1] * 2 + v[2] * 3 == 0
        assert v[0] * 4 + v[1] * 5 + v[2] * 6 == 0
