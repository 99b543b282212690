import hashlib
import random
import sys
from itertools import combinations

import pytest

from peskine.cli import main
from peskine.fixtures import appendix_cubic, appendix_sigma, appendix_sigma_text
from peskine.lattice import rank
from peskine.polyring import (
    MultiPoly,
    buchberger,
    exact_div,
    format_poly,
    gcd_multivariate,
    pfaffian,
    substitute_linear,
)
from peskine import trivector
from peskine.trivector import (
    DIM,
    CubicExtractionError,
    Flag,
    Trivector,
    contract,
    extract_cubic,
    format_trivector,
    line_in_peskine,
    parse_trivector,
    peskine_equations,
    rank_at_point,
    restrict_to_subspace,
    smoothness_check,
    standard_flag,
    symbolic_contract,
    verify_flag,
    x6_membership,
    x7_kernel,
)

from _models import integer_inverse, same_lattice

P = 10007
E = [tuple(int(i == j) for i in range(DIM)) for j in range(DIM)]


def random_trivector(rng, p=None, bound=9):
    coeffs = {}
    for i, j, k in combinations(range(1, DIM + 1), 3):
        c = rng.randint(-bound, bound) if p is None else rng.randrange(p)
        if c:
            coeffs[(i, j, k)] = c
    return Trivector(coeffs, p)


def basis_rows(*indices):
    return tuple(E[i - 1] for i in indices)


class TestTrivector:
    def test_sign_normalization(self):
        t = Trivector({(2, 1, 3): 5})
        assert t.coefficient(1, 2, 3) == -5
        assert t.coefficient(2, 1, 3) == 5
        assert t.coefficient(3, 1, 2) == -5
        assert t.coefficient(1, 1, 3) == 0

    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError):
            Trivector({(1, 1, 3): 2})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Trivector({(0, 1, 2): 1})
        with pytest.raises(ValueError):
            Trivector({(3, 4, 11): 1})

    def test_trilinear_alternating(self):
        rng = random.Random(40)
        sigma = random_trivector(rng)
        u = [rng.randint(-3, 3) for _ in range(DIM)]
        v = [rng.randint(-3, 3) for _ in range(DIM)]
        w = [rng.randint(-3, 3) for _ in range(DIM)]
        assert sigma.trilinear(u, v, w) == -sigma.trilinear(v, u, w)
        assert sigma.trilinear(u, v, w) == sigma.trilinear(v, w, u)
        assert sigma.trilinear(u, u, w) == 0


class TestContract:
    def test_single_term(self):
        sigma = Trivector({(1, 2, 3): 1})
        m = contract(sigma, E[0])
        assert m[1][2] == 1 and m[2][1] == -1
        assert all(
            m[j][k] == 0
            for j in range(DIM)
            for k in range(DIM)
            if (j, k) not in ((1, 2), (2, 1))
        )

    def test_appendix_block(self):
        sigma = appendix_sigma()
        m = contract(sigma, E[0])
        assert (m[6][7], m[6][8], m[6][9], m[7][8], m[7][9], m[8][9]) == (
            -4,
            2,
            -1,
            -2,
            1,
            4,
        )

    def test_contraction_kills_its_vector(self):
        rng = random.Random(41)
        for _ in range(10):
            sigma = random_trivector(rng)
            v = [rng.randint(-4, 4) for _ in range(DIM)]
            m = contract(sigma, v)
            mv = [sum(m[j][k] * v[k] for k in range(DIM)) for j in range(DIM)]
            assert sum(v[j] * mv[j] for j in range(DIM)) == 0

    def test_matches_trilinear(self):
        rng = random.Random(42)
        sigma = random_trivector(rng)
        v = [rng.randint(-4, 4) for _ in range(DIM)]
        m = contract(sigma, v)
        for j in range(DIM):
            for k in range(DIM):
                assert m[j][k] == sigma.trilinear(v, E[j], E[k])


class TestSymbolicContract:
    def test_specialization(self):
        rng = random.Random(43)
        sigma = random_trivector(rng, p=P)
        sym = symbolic_contract(sigma)
        for _ in range(20):
            v = [rng.randrange(P) for _ in range(DIM)]
            num = contract(sigma, v)
            for j in range(DIM):
                for k in range(DIM):
                    assert sym[j][k].evaluate(v) == num[j][k]

    def test_skew(self):
        rng = random.Random(44)
        sigma = random_trivector(rng)
        sym = symbolic_contract(sigma)
        for j in range(DIM):
            assert sym[j][j].is_zero()
            for k in range(j):
                assert (sym[j][k] + sym[k][j]).is_zero()

    def test_zero_trivector(self):
        sym = symbolic_contract(Trivector({}))
        assert all(entry.is_zero() for row in sym for entry in row)


class TestPeskineEquations:
    def test_zero_trivector(self):
        system = peskine_equations(Trivector({}))
        assert len(system.quartics) == 45
        assert all(q.is_zero() for q in system.quartics)
        assert system.removed_pairs[0] == (1, 2)
        assert system.removed_pairs[-1] == (9, 10)

    def test_appendix_vanishes_at_singular_point(self):
        system = peskine_equations(appendix_sigma())
        assert all(q.total_degree() == 4 for q in system.quartics)
        assert all(q.evaluate(E[0]) == 0 for q in system.quartics)

    def test_generic_point_not_on_locus(self):
        rng = random.Random(45)
        sigma = random_trivector(rng, p=P)
        system = peskine_equations(sigma)
        for _ in range(20):
            v = [rng.randrange(P) for _ in range(DIM)]
            r = rank_at_point(sigma, v)
            vanish = all(q.evaluate(v) == 0 for q in system.quartics)
            assert (r <= 6) == vanish

    def test_rank_bounded_trivector(self):
        # supported on seven indices: every contraction in that span has
        # rank at most 6, so the whole 7-space sits inside the locus
        rng = random.Random(46)
        coeffs = {}
        for i, j, k in combinations(range(1, 8), 3):
            c = rng.randrange(P)
            if c:
                coeffs[(i, j, k)] = c
        sigma = Trivector(coeffs, P)
        system = peskine_equations(sigma)
        for _ in range(20):
            v = [rng.randrange(P) for _ in range(7)] + [0, 0, 0]
            if all(x == 0 for x in v):
                continue
            assert rank_at_point(sigma, v) <= 6
            assert all(q.evaluate(v) == 0 for q in system.quartics)

    def test_agrees_with_public_pfaffian(self):
        rng = random.Random(47)
        sigma = random_trivector(rng, p=P)
        sym = symbolic_contract(sigma)
        system = peskine_equations(sigma)
        # spot-check one removed pair against the polyring operation
        pair = (2, 5)
        idx = [t for t in range(DIM) if t + 1 not in pair]
        sub = [[sym[a][b] for b in idx] for a in idx]
        expected = pfaffian(sub)
        at = system.removed_pairs.index(pair)
        assert system.quartics[at] == expected

    @pytest.mark.parametrize(
        "which, digest",
        [
            ("dense", "acba85b25773efb615a9960feccc6d8cf43569e3ad54a9b57270776cd5c0b8dc"),
            ("appendix", "2de91a02de2b6c4b4681c095ce0568b1845c561aa940422428cf1f014277e68e"),
        ],
    )
    def test_golden_digest(self, which, digest):
        # pinned from the implementation that built every polynomial
        # through the validating constructor
        if which == "dense":
            sigma = random_trivector(random.Random(2027), P)
        else:
            sigma = appendix_sigma()
        text = "\n".join(
            repr(sorted(q.terms.items())) for q in peskine_equations(sigma).quartics
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_print_order_digests(self, capsys, tmp_path):
        # the digest above hashes sorted tuples and cannot see the print
        # order; these pin the rendered text, taken from the tuple-keyed
        # implementation
        dense = peskine_equations(random_trivector(random.Random(2027), P))
        text = "\n".join(format_poly(q) for q in dense.quartics)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e5a2f47ea5758ee355f57ec779a06525478586896125a5275fe8bc3e71309ae5"
        )
        path = tmp_path / "appendix_sigma.tvec"
        path.write_text(appendix_sigma_text(), encoding="utf-8")
        assert main(["peskine", str(path), "equations"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c239478a3b8716d0ab779c76b15c7af13eecf4f9e702042f92b9a0e933bfba3d"
        )


class TestFlag:
    def test_standard_flag(self):
        flag = standard_flag()
        assert flag.w1 == E[0]
        assert len(flag.w6) == 6

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            Flag(E[0], basis_rows(1, 2, 3, 4, 5, 5))

    def test_rejects_w1_outside(self):
        with pytest.raises(ValueError):
            Flag(E[6], basis_rows(1, 2, 3, 4, 5, 6))

    def test_rejects_zero_w1(self):
        with pytest.raises(ValueError):
            Flag((0,) * DIM, basis_rows(1, 2, 3, 4, 5, 6))


class TestVerifyFlag:
    def test_appendix_flag(self):
        assert verify_flag(appendix_sigma(), standard_flag())

    def test_wrong_six_space(self):
        sigma = appendix_sigma()
        # sigma(e1, e7, e8) = -4, so swapping e6 for e7 must fail
        flag = Flag(E[0], basis_rows(1, 2, 3, 4, 5, 7))
        assert not verify_flag(sigma, flag)

    def test_zero_trivector(self):
        assert verify_flag(Trivector({}), standard_flag())

    def test_flag_forces_rank_four(self):
        # a flagged trivector has rank <= 4 at the marked point, and the
        # property survives a unimodular change of basis
        rng = random.Random(48)
        coeffs = {}
        for i, j, k in combinations(range(1, DIM + 1), 3):
            if i == 1 and j <= 6:
                continue
            c = rng.randint(-5, 5)
            if c:
                coeffs[(i, j, k)] = c
        sigma = Trivector(coeffs)
        assert verify_flag(sigma, standard_flag())
        assert rank_at_point(sigma, E[0]) <= 4

        a = _random_unimodular(rng)
        ainv = integer_inverse(a)
        pulled = _pullback(sigma, a)
        w1 = tuple(ainv[r][0] for r in range(DIM))
        w6 = tuple(
            tuple(ainv[r][c] for r in range(DIM)) for c in range(6)
        )
        flag = Flag(w1, w6)
        assert verify_flag(pulled, flag)
        assert rank_at_point(pulled, w1) <= 4


def _random_unimodular(rng):
    m = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    for _ in range(30):
        i, j = rng.sample(range(DIM), 2)
        c = rng.randint(-2, 2)
        for k in range(DIM):
            m[i][k] += c * m[j][k]
    return m


def _pullback(sigma, a):
    cols = [[a[r][c] for r in range(DIM)] for c in range(DIM)]
    coeffs = {}
    for i, j, k in combinations(range(DIM), 3):
        c = sigma.trilinear(cols[i], cols[j], cols[k])
        if c:
            coeffs[(i + 1, j + 1, k + 1)] = c
    return Trivector(coeffs, sigma.p)


class TestRankAtPoint:
    def test_appendix(self):
        assert rank_at_point(appendix_sigma(), E[0]) == 4

    def test_zero(self):
        assert rank_at_point(Trivector({}), E[0]) == 0

    def test_two_blocks(self):
        sigma = Trivector({(1, 2, 3): 1, (1, 4, 5): 1})
        assert rank_at_point(sigma, E[0]) == 4

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            rank_at_point(Trivector({}), (0,) * DIM)


class TestRestriction:
    def test_coordinate_subspace(self):
        sigma = appendix_sigma()
        system = peskine_equations(sigma)
        restricted = restrict_to_subspace(sigma, standard_flag().w6)
        assert len(restricted) == 45
        assert any(not q.is_zero() for q in restricted)
        assert all(q.total_degree() <= 4 for q in restricted)
        # restriction along coordinates is literally setting x7..x10 to 0
        x = [0] * DIM
        vals = [1, 2, 3, 4, 5, 6]
        x[:6] = vals
        for q, r in zip(system.quartics, restricted):
            assert q.evaluate(x) == r.evaluate(vals)

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            restrict_to_subspace(Trivector({}), basis_rows(1, 2, 3, 4, 5, 5))

    def test_rejects_short_rows(self):
        with pytest.raises(ValueError):
            restrict_to_subspace(Trivector({}), [(1, 0, 0), (0, 1, 0)])

    def test_matches_substitution_into_quartics(self):
        # Pfaffians commute with the substitution x = sum_a y_a rows[a]
        rng = random.Random(54)
        for p in (None, 7, P):
            coeffs = {}
            for triple in rng.sample(list(combinations(range(1, DIM + 1), 3)), 24):
                c = rng.randint(-5, 5) if p is None else rng.randrange(p)
                if c:
                    coeffs[triple] = c
            sigma = Trivector(coeffs, p)
            quartics = peskine_equations(sigma).quartics
            for dim in (2, 3):
                while True:
                    rows = [
                        tuple(rng.randint(-2, 2) for _ in range(DIM))
                        for _ in range(dim)
                    ]
                    if rank(rows, p) == dim:
                        break
                a = [tuple(row[i] for row in rows) for i in range(DIM)]
                expected = [substitute_linear(q, a) for q in quartics]
                assert restrict_to_subspace(sigma, rows) == expected


class TestExtractCubic:
    def test_appendix_matches_fixture(self):
        cubic = extract_cubic(appendix_sigma(), standard_flag())
        assert cubic == appendix_cubic()

    def test_divisibility_certificate(self):
        sigma = appendix_sigma()
        cubic = extract_cubic(sigma, standard_flag())
        restricted = restrict_to_subspace(sigma, standard_flag().w6)
        for q in restricted:
            if q.is_zero():
                continue
            quotient = exact_div(q, cubic)
            assert quotient.total_degree() == 1
            assert quotient.is_homogeneous()

    def test_wrong_flag_rejected(self):
        sigma = appendix_sigma()
        flag = Flag(E[0], basis_rows(1, 2, 3, 4, 5, 7))
        with pytest.raises(CubicExtractionError, match="annihilate"):
            extract_cubic(sigma, flag)

    def test_zero_trivector_fails_loudly(self):
        with pytest.raises(CubicExtractionError):
            extract_cubic(Trivector({}), standard_flag())

    def test_gcd_fold_stops_at_the_cubic(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return gcd_multivariate(a, b)

        for name, module in list(sys.modules.items()):
            binding = getattr(module, "gcd_multivariate", None)
            if name.split(".")[0] == "peskine" and binding is gcd_multivariate:
                monkeypatch.setattr(module, "gcd_multivariate", counting)
        assert extract_cubic(appendix_sigma(), standard_flag()) == appendix_cubic()
        assert len(calls) == 1

    def test_quartic_without_the_cubic_fails_the_certificate(self, monkeypatch):
        # the first two quartics share a cubic, so the fold stops there and
        # the division certificate must catch the third one
        v = [MultiPoly.variable(i, 6) for i in range(6)]
        cubic = v[0] ** 3 + v[1] ** 3 + v[2] * v[3] * v[4]
        quartics = [cubic * v[0], cubic * v[5], v[5] ** 4]
        monkeypatch.setattr(trivector, "restrict_to_subspace", lambda sigma, rows: quartics)
        with pytest.raises(CubicExtractionError, match="not cubic times a linear form"):
            extract_cubic(appendix_sigma(), standard_flag())

    def test_points_found_on_cubic_lie_on_locus(self):
        # intersect the cubic with random lines over a small prime field;
        # each root is a point of the sliced locus, so the contraction of
        # the trivector there must drop rank
        q = 101
        sigma_q = appendix_sigma(p=q)
        cubic_q = appendix_cubic().reduce_mod(q)
        rng = random.Random(49)
        found = 0
        while found < 50:
            a = [rng.randrange(q) for _ in range(6)]
            b = [rng.randrange(q) for _ in range(6)]
            for s in range(q):
                point = [(s * x + y) % q for x, y in zip(a, b)]
                if all(x == 0 for x in point):
                    continue
                if cubic_q.evaluate(point) == 0:
                    v10 = tuple(point) + (0, 0, 0, 0)
                    assert rank_at_point(sigma_q, v10) <= 6
                    found += 1


class TestSmoothness:
    def test_fermat_smooth(self):
        xs = [MultiPoly.variable(i, 6) for i in range(6)]
        fermat = sum((x**3 for x in xs[1:]), xs[0] ** 3)
        assert smoothness_check(fermat, P).is_smooth()

    def test_one_groebner_basis_per_prime(self, monkeypatch):
        calls = []

        def counting(gens):
            calls.append(1)
            return buchberger(gens)

        # patch every peskine namespace that binds buchberger by name
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "peskine" and getattr(module, "buchberger", None) is buchberger:
                monkeypatch.setattr(module, "buchberger", counting)
        xs = [MultiPoly.variable(i, 6) for i in range(6)]
        fermat = sum((x**3 for x in xs[1:]), xs[0] ** 3)
        for cubic in (fermat, xs[0] ** 3, appendix_cubic()):
            calls.clear()
            smoothness_check(cubic, P)
            assert len(calls) == 1

    @pytest.mark.parametrize(
        "shape, p",
        [("cone", 7), ("cone", 101), ("cone", P), ("l*quadric", 7), ("l*quadric", 11),
         ("l*quadric", 13), ("x0*quadric", 7)],
        ids=str,
    )
    def test_singular(self, shape, p):
        x = [MultiPoly.variable(i, 6) for i in range(6)]
        # l * quadric is singular exactly on l = quadric = 0
        quadric = sum(
            (xi * xi for xi in x[1:]),
            x[1] * x[2] + (x[3] * x[5]).scalar_mul(3) - (x[0] * x[0]).scalar_mul(5),
        )
        cubic = {
            "cone": x[0] ** 3,
            "l*quadric": (x[4] - x[0].scalar_mul(3)) * quadric,
            "x0*quadric": x[0] * quadric,
        }[shape]
        assert smoothness_check(cubic, p).kind == "singular"

    def test_bad_primes(self):
        xs = [MultiPoly.variable(i, 6) for i in range(6)]
        fermat = sum((x**3 for x in xs[1:]), xs[0] ** 3)
        for p in (2, 3, 10):
            with pytest.raises(ValueError, match=f"p = {p}: "):
                smoothness_check(fermat, p)

    def test_rejects_non_cubic(self):
        x0 = MultiPoly.variable(0, 6)
        with pytest.raises(ValueError):
            smoothness_check(x0 * x0, P)


class TestX6Membership:
    def test_zero_trivector(self):
        assert x6_membership(Trivector({}), basis_rows(1, 2, 3, 4, 5, 6))

    def test_inside_support(self):
        sigma = Trivector({(1, 2, 3): 1})
        assert not x6_membership(sigma, basis_rows(1, 2, 3, 4, 5, 6))

    def test_outside_support(self):
        sigma = Trivector({(1, 2, 7): 1})
        assert x6_membership(sigma, basis_rows(1, 2, 3, 4, 5, 6))

    def test_row_operation_invariance(self):
        rng = random.Random(50)
        sigma = random_trivector(rng)
        rows = [list(r) for r in basis_rows(2, 3, 5, 7, 8, 10)]
        before = x6_membership(sigma, rows)
        for _ in range(10):
            i, j = rng.sample(range(6), 2)
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        assert x6_membership(sigma, rows) == before

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            x6_membership(Trivector({}), basis_rows(1, 2, 3, 4, 5, 5))


class TestX7Kernel:
    def test_zero_trivector_full_domain(self):
        v7 = basis_rows(1, 2, 3, 4, 5, 6, 7)
        assert len(x7_kernel(Trivector({}), v7, domain="v7")) == 7
        assert len(x7_kernel(Trivector({}), v7, domain="v10")) == 10

    def test_single_term(self):
        sigma = Trivector({(1, 2, 3): 1})
        v7 = basis_rows(1, 2, 3, 4, 5, 6, 7)
        kernel = x7_kernel(sigma, v7, domain="v7")
        assert len(kernel) == 4
        assert same_lattice(kernel, basis_rows(4, 5, 6, 7))

    def test_planted_two_space(self):
        rng = random.Random(51)
        coeffs = {}
        for i, j, k in combinations(range(1, DIM + 1), 3):
            if (i in (1, 2) or j in (1, 2)) and k <= 7:
                continue  # keep sigma(e1 or e2, V7, V7) = 0
            c = rng.randrange(P)
            if c:
                coeffs[(i, j, k)] = c
        sigma = Trivector(coeffs, P)
        v7 = basis_rows(1, 2, 3, 4, 5, 6, 7)
        kernel = x7_kernel(sigma, v7, domain="v7")
        assert len(kernel) == 2
        stacked = list(kernel) + [E[0], E[1]]
        assert rank(stacked, P) == len(kernel)

    def test_domain_flag_validated(self):
        with pytest.raises(ValueError):
            x7_kernel(Trivector({}), basis_rows(1, 2, 3, 4, 5, 6, 7), domain="v9")

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            x7_kernel(Trivector({}), basis_rows(1, 2, 3, 4, 5, 6, 6))


class TestLineInPeskine:
    def test_zero_trivector(self):
        assert line_in_peskine(Trivector({}), basis_rows(1, 2))

    def test_planted_kernel_line(self):
        rng = random.Random(52)
        coeffs = {}
        for i, j, k in combinations(range(1, DIM + 1), 3):
            if (i in (1, 2) or j in (1, 2)) and k <= 7:
                continue
            c = rng.randrange(P)
            if c:
                coeffs[(i, j, k)] = c
        sigma = Trivector(coeffs, P)
        assert line_in_peskine(sigma, basis_rows(1, 2))

    def test_generic_line_not_contained(self):
        rng = random.Random(53)
        sigma = random_trivector(rng, p=P)
        assert not line_in_peskine(sigma, basis_rows(1, 2))

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            line_in_peskine(Trivector({}), (E[0], E[0]))


class TestFileFormat:
    def test_roundtrip(self):
        sigma = appendix_sigma()
        again = parse_trivector(format_trivector(sigma))
        assert again.coeffs == sigma.coeffs

    def test_comments_and_blanks(self):
        text = "# header\n\n1 2 3 4  # trailing\n"
        sigma = parse_trivector(text)
        assert sigma.coefficient(1, 2, 3) == 4

    def test_rational_coefficient(self):
        sigma = parse_trivector("1 2 3 -5/7\n")
        from fractions import Fraction

        assert sigma.coefficient(1, 2, 3) == Fraction(-5, 7)

    def test_duplicate_triple_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_trivector("1 2 3 4\n2 1 3 5\n")

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            parse_trivector("1 2 3 0\n")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="line 2: zero denominator in '1/0'"):
            parse_trivector("1 2 3 4\n1 2 4 1/0\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_trivector("1 2 3\n")
        with pytest.raises(ValueError):
            parse_trivector("1 2 11 4\n")

    def test_fixture_has_78_terms(self):
        assert len(appendix_sigma().coeffs) == 78
        assert appendix_sigma_text().count("\n") >= 78


class TestPrimeFieldCoefficients:
    def test_rational_coefficient_mod_p(self):
        from fractions import Fraction

        sigma = parse_trivector("1 2 3 1/2\n", p=7)
        assert sigma.coefficient(1, 2, 3) == 4  # inverse of 2 mod 7

    def test_rational_with_bad_denominator(self):
        with pytest.raises(ValueError):
            parse_trivector("1 2 3 1/7\n", p=7)
