import hashlib
import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from peskine.cli import main
from peskine.fixtures import appendix_cubic, appendix_sigma, appendix_sigma_text
from peskine.lattice import mat_vec, rank
from peskine.polyring import (
    MultiPoly,
    buchberger,
    exact_div,
    format_poly,
    gcd_multivariate,
    pfaffian,
    primitive_part,
    principal_pfaffians,
    substitute_linear,
)
from peskine import polyring, trivector
from peskine.ntheory import CertificateError
from peskine.trivector import (
    DIM,
    CubicExtractionError,
    Flag,
    Trivector,
    contract,
    extract_cubic,
    line_in_peskine,
    parse_trivector,
    peskine_equations,
    rank_at_point,
    require_prime,
    restrict_to_subspace,
    smoothness_check,
    smoothness_checks,
    standard_flag,
    symbolic_contract,
    verify_flag,
    x6_membership,
    x7_kernel,
)

from _models import (
    integer_inverse,
    reduced_basis,
    restriction_reference,
    same_lattice,
    smoothness_reference,
)

P = 10007
E = [tuple(int(i == j) for i in range(DIM)) for j in range(DIM)]


def random_trivector(rng, p=None, bound=9, density=1.0, indices=range(1, DIM + 1)):
    """Each triple of the given indices drawn with probability density."""
    coeffs = {}
    for t in combinations(indices, 3):
        if density < 1 and rng.random() >= density:
            continue
        c = rng.randint(-bound, bound) if p is None else rng.randrange(p)
        if c:
            coeffs[t] = c
    return Trivector(coeffs, p)


def basis_rows(*indices):
    return tuple(E[i - 1] for i in indices)


def unit_rows(count, length):
    """The first count unit vectors of length length."""
    return [tuple(int(i == j) for i in range(length)) for j in range(count)]


class TestTrivector:
    def test_sign_normalization(self):
        t = Trivector({(2, 1, 3): 5})
        assert t.coefficient(1, 2, 3) == -5
        assert t.coefficient(2, 1, 3) == 5
        assert t.coefficient(3, 1, 2) == -5
        assert t.coefficient(1, 1, 3) == 0

    @pytest.mark.parametrize(
        "triple", [(1.5, 2, 3), (11, 12, 13), (0, 1, 2), ("1", 2, 3)]
    )
    def test_coefficient_reads_indices_by_the_constructor_rule(self, triple):
        with pytest.raises(ValueError):
            Trivector({triple: 5})
        with pytest.raises(ValueError):
            Trivector({(1, 2, 3): 5}).coefficient(*triple)

    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError):
            Trivector({(1, 1, 3): 2})

    @pytest.mark.parametrize("p", [None, 7])
    @pytest.mark.parametrize("first", [0, 7, 3])
    def test_rejects_duplicate_whatever_the_first_coefficient(self, p, first):
        # 7 is zero mod 7, and 0 is zero everywhere: a dropped first
        # occurrence must still count as seen, in either order
        for coeffs in ({(1, 2, 3): first, (2, 1, 3): 5}, {(2, 1, 3): 5, (1, 2, 3): first}):
            with pytest.raises(ValueError, match="duplicate triple"):
                Trivector(coeffs, p)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Trivector({(0, 1, 2): 1})
        with pytest.raises(ValueError):
            Trivector({(3, 4, 11): 1})

    @pytest.mark.parametrize("bad", [1.5, "1", Fraction(1, 2)])
    def test_rejects_indices_that_are_not_integers(self, bad):
        # 1.5 passed the range test and was stored under the key (0.5, 1, 2)
        with pytest.raises(ValueError, match="is not an integer"):
            Trivector({(bad, 2, 3): 1})

    def test_reads_integral_indices(self):
        t = Trivector({(Fraction(4, 2), 1.0, 3): 5})
        assert t.coeffs == {(0, 1, 2): -5}

    @pytest.mark.parametrize("triple", [(1, 2, 3), (2, 1, 3)])
    @pytest.mark.parametrize("p", [None, 7])
    def test_rejects_text_coefficients(self, triple, p):
        # "5" was read as 5, and -1 * "5" as the empty string
        with pytest.raises(ValueError, match="value '5' is text, not a number"):
            Trivector({triple: "5"}, p)

    def test_bounds_the_common_denominator(self):
        # 10^500 and 3^1048 have 501 digits each, their lcm 1001
        big = (Fraction(1, 10**500), Fraction(1, 3**1048))
        with pytest.raises(ValueError) as info:
            Trivector({(1, 2, 3): big[0], (1, 2, 4): big[1]})
        assert str(info.value) == (
            "common denominator has more than MAX_DIGITS = 1000 digits at triple 1 2 4"
        )
        # 1000 digits pass, and so do denominators whose lcm stays small
        Trivector({(1, 2, 3): Fraction(1, 10**499), (1, 2, 4): big[1]})
        Trivector({(1, 2, 3): Fraction(1, 10**999), (1, 2, 4): Fraction(7, 2**999)})
        # over F_p a coefficient is an int mod p
        Trivector({(1, 2, 3): big[0], (1, 2, 4): big[1]}, P)

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


class TestExactReading:
    """Every vector and point entry is read once by polyring._coeff_normalize:
    a float is the exact Fraction it equals, text is a ValueError."""

    @staticmethod
    def as_fractions(vectors):
        return [[Fraction(x) for x in v] for v in vectors]

    @pytest.mark.parametrize("p", [None, P])
    def test_contraction_trilinear_and_rank(self, p):
        rng = random.Random(43)
        sigma = random_trivector(rng, p)
        u, v, w = ([rng.uniform(-2, 2) for _ in range(DIM)] for _ in range(3))
        fu, fv, fw = self.as_fractions((u, v, w))
        assert contract(sigma, u) == contract(sigma, fu)
        assert sigma.trilinear(u, v, w) == sigma.trilinear(fu, fv, fw)
        assert sigma.trilinear(u, v, w) != 0
        assert rank_at_point(sigma, u) == rank_at_point(sigma, fu)

    @pytest.mark.parametrize("p", [None, P])
    def test_subspace_rows(self, p):
        # quarters keep the Pfaffians of restrict_to_subspace small
        rng = random.Random(44)
        sigma = random_trivector(rng, p, density=0.3)
        rows = [[rng.randint(-8, 8) / 4 for _ in range(DIM)] for _ in range(7)]
        exact = self.as_fractions(rows)
        assert x7_kernel(sigma, rows) == x7_kernel(sigma, exact)
        assert x7_kernel(sigma, rows, "v10") == x7_kernel(sigma, exact, "v10")
        assert x6_membership(sigma, rows[:6]) == x6_membership(sigma, exact[:6])
        assert line_in_peskine(sigma, rows[:2]) == line_in_peskine(sigma, exact[:2])
        assert restrict_to_subspace(sigma, rows[:2]) == restrict_to_subspace(sigma, exact[:2])
        assert symbolic_contract(sigma, rows) == symbolic_contract(sigma, exact)

    @pytest.mark.parametrize(
        "call",
        [
            lambda s, v: contract(s, v),
            lambda s, v: rank_at_point(s, v),
            lambda s, v: s.trilinear(v, E[1], E[2]),
            lambda s, v: symbolic_contract(s, [v]),
            lambda s, v: x6_membership(s, [v] + E[1:6]),
            lambda s, v: line_in_peskine(s, [v, E[1]]),
        ],
    )
    def test_text_entry_is_a_value_error(self, call):
        # contract read '1' * c as a repeated string and raised TypeError
        sigma = Trivector({(1, 2, 3): 1})
        with pytest.raises(ValueError, match="value '1' is text, not a number"):
            call(sigma, ("1",) + (0,) * (DIM - 1))


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


class TestCofactorQuotients:
    """Nine expanded Pfaffians and 36 exact quotients by the pivot x_r
    give the 45 Pfaffians of the full expansion."""

    @pytest.mark.parametrize("p", [None, 7, P])
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.6, 1.0])
    def test_matches_full_expansion(self, p, density):
        rng = random.Random(int(density * 10) + 100 * (p or 1))
        for _ in range(2):
            sigma = random_trivector(rng, p, density=density)
            assert list(peskine_equations(sigma).quartics) == restriction_reference(sigma)

    @pytest.mark.parametrize("p", [None, P])
    def test_zero_first_row(self, p):
        # no triple holds index 1, so row 0 of M is zero and the 36
        # Pfaffians keeping it vanish; the nine Pf_0j do not, so neither
        # product x_j Pf_0k of a numerator does, and the two cancel exactly
        sigma = random_trivector(random.Random(7), p, indices=range(2, DIM + 1))
        quartics = peskine_equations(sigma).quartics
        assert list(quartics) == restriction_reference(sigma)
        assert all(q.total_degree() == 4 for q in quartics[: DIM - 1])
        assert all(q.is_zero() for q in quartics[DIM - 1 :])

    def test_seven_indices_and_zero(self):
        # rank <= 6 everywhere: all 45 quartics vanish identically
        for sigma in (
            random_trivector(random.Random(8), P, indices=range(1, 8)),
            random_trivector(random.Random(9), indices=range(3, 10)),
            Trivector({}),
            Trivector({}, 7),
        ):
            quartics = peskine_equations(sigma).quartics
            assert len(quartics) == 45 and all(q.is_zero() for q in quartics)
            assert list(quartics) == restriction_reference(sigma)

    def test_planted_fault_in_a_numerator(self, monkeypatch, capsys, tmp_path):
        # a term without x_1 in one numerator: the quotient is refused
        x2_fourth = MultiPoly.variable(1, DIM) ** 4
        real = trivector._sum_of_products
        calls = []

        def faulty(nvars, p, products):
            calls.append(1)
            out = real(nvars, p, products)
            return out + x2_fourth if len(calls) == 5 else out

        monkeypatch.setattr(trivector, "_sum_of_products", faulty)
        with pytest.raises(CertificateError, match="x1 does not divide"):
            peskine_equations(appendix_sigma())
        calls.clear()
        path = tmp_path / "sigma.tvec"
        path.write_text(appendix_sigma_text(), encoding="utf-8")
        assert main(["peskine", str(path), "equations"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("mismatch: x1 does not divide")

    def test_planted_fault_on_the_restriction_path(self, monkeypatch, capsys, tmp_path):
        # on the standard flag row 1 of the contraction is zero, so the
        # pivot is x_2, and a y_1^4 term in one numerator is refused
        y1_fourth = MultiPoly.variable(0, 6) ** 4
        real = trivector._sum_of_products
        calls = []

        def faulty(nvars, p, products):
            calls.append(1)
            out = real(nvars, p, products)
            return out + y1_fourth if len(calls) == 5 else out

        monkeypatch.setattr(trivector, "_sum_of_products", faulty)
        with pytest.raises(CertificateError, match=r"^x2 does not divide the Pfaffian relation"):
            restrict_to_subspace(appendix_sigma(), standard_flag().w6)
        calls.clear()
        path = tmp_path / "sigma.tvec"
        path.write_text(appendix_sigma_text(), encoding="utf-8")
        assert main(["peskine", str(path), "cubic"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("mismatch: x2 does not divide")


def flagged_trivector(rng, k, w6, p=None):
    """Seeded sigma that the flag e_k in span(e_i, i in w6) annihilates
    (1-based indices): every triple holding k and another index of w6
    is zero, every other triple drawn."""
    coeffs = {}
    for t in combinations(range(1, DIM + 1), 3):
        if k in t and any(i in w6 for i in t if i != k):
            continue
        c = rng.randint(-9, 9) if p is None else rng.randrange(p)
        if c:
            coeffs[t] = c
    return Trivector(coeffs, p)


def recording_pfaffians(monkeypatch):
    """The index sets that each principal_pfaffians call of trivector
    receives, one list per call."""
    calls = []

    def recorder(matrix, index_sets):
        calls.append([tuple(idx) for idx in index_sets])
        return principal_pfaffians(matrix, index_sets)

    monkeypatch.setattr(trivector, "principal_pfaffians", recorder)
    return calls


class TestPivotRule:
    """restrict_to_subspace against 45 separate expansions, with a pivot
    of one term (coordinate rows) and of several (general rows)."""

    @pytest.mark.parametrize("p", [None, P])
    @pytest.mark.parametrize("k", range(1, DIM + 1))
    def test_flag_at_each_basis_vector(self, p, k, monkeypatch):
        rng = random.Random(1000 * k + (p or 0))
        w6 = [k] + rng.sample([i for i in range(1, DIM + 1) if i != k], 5)
        sigma = flagged_trivector(rng, k, w6, p)
        rows = list(basis_rows(*w6))
        rng.shuffle(rows)
        assert verify_flag(sigma, Flag(E[k - 1], rows))
        if k % 2 == 0:
            # scaled rows: the pivot's coordinate is a term with a lead
            # other than 1, negative in every other row
            rows = [tuple((-1) ** a * (a + 2) * t for t in row) for a, row in enumerate(rows)]
        calls = recording_pfaffians(monkeypatch)
        got = restrict_to_subspace(sigma, rows)
        monkeypatch.undo()
        assert got == restriction_reference(sigma, rows)
        # row k of the contraction is zero: the pivot lies past it, and
        # of the nine heads only the one deleting row k is expanded
        assert len(calls) == 1 and len(calls[0]) == DIM - 1
        assert sum(k - 1 not in idx for idx in calls[0]) == 1

    @pytest.mark.parametrize("p", [None, P])
    def test_dense_with_no_zero_row(self, p):
        rng = random.Random(77 + (p or 0))
        for _ in range(2):
            sigma = random_trivector(rng, p)
            rows = list(basis_rows(*rng.sample(range(1, DIM + 1), 6)))
            rng.shuffle(rows)
            matrix = symbolic_contract(sigma, rows)
            assert all(any(not q.is_zero() for q in row) for row in matrix)
            assert restrict_to_subspace(sigma, rows) == restriction_reference(sigma, rows)

    @pytest.mark.parametrize("p", [None, P])
    def test_general_rows_divide_by_a_form(self, p, monkeypatch):
        # every coordinate form has six terms and a lead other than 1:
        # the pivot is x_1, and the 36 quotients are long divisions
        rng = random.Random(91 + (p or 0))
        sigma = random_trivector(rng, p, density=0.5)
        while True:
            rows = [tuple(rng.choice((-3, -2, 2, 3)) for _ in range(DIM)) for _ in range(6)]
            if rank(rows, p) == 6:
                break
        calls = recording_pfaffians(monkeypatch)
        got = restrict_to_subspace(sigma, rows)
        monkeypatch.undo()
        assert calls == [[tuple(t for t in range(1, DIM) if t != k) for k in range(1, DIM)]]
        assert got == restriction_reference(sigma, rows)

    def test_zero_coordinate_is_never_the_pivot(self, monkeypatch):
        # column 1 of the rows is zero, so x_1 = 0 and the pivot is x_2
        rng = random.Random(93)
        sigma = random_trivector(rng)
        while True:
            rows = [(0,) + tuple(rng.randint(-3, 3) for _ in range(DIM - 1)) for _ in range(6)]
            if rank(rows, None) == 6:
                break
        calls = recording_pfaffians(monkeypatch)
        got = restrict_to_subspace(sigma, rows)
        monkeypatch.undo()
        assert all(1 not in idx for idx in calls[0])
        assert got == restriction_reference(sigma, rows)

    def test_standard_flag_expands_one_head(self, monkeypatch):
        calls = recording_pfaffians(monkeypatch)
        restricted = restrict_to_subspace(appendix_sigma(), standard_flag().w6)
        assert len(calls) == 1 and len(calls[0]) == DIM - 1
        assert [idx for idx in calls[0] if 0 not in idx] == [tuple(range(2, DIM))]
        monkeypatch.undo()
        assert restricted == restriction_reference(appendix_sigma(), standard_flag().w6)


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

    @pytest.mark.parametrize("bad", [1.5, "1", Fraction(1, 2)])
    def test_rejects_entries_that_are_not_integers(self, bad):
        # int() would read (1.5, 0, ...) as e1, a flag of the appendix
        with pytest.raises(ValueError, match="is not an integer"):
            Flag((bad,) + (0,) * 9, basis_rows(1, 2, 3, 4, 5, 6))
        with pytest.raises(ValueError, match="is not an integer"):
            Flag(E[0], basis_rows(1, 2, 3, 4, 5) + ((bad,) + (0,) * 9,))

    def test_reads_integral_values(self):
        flag = Flag((Fraction(2, 2), 0.0) + (0,) * 8, basis_rows(1, 2, 3, 4, 5, 6))
        assert flag == standard_flag()


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


class TestGeneralFrame:
    def test_the_appendix_in_a_general_frame(self, monkeypatch):
        # sigma∘B on the flag B^-1·flag restricts to the same forms in the
        # coordinates of the 6-space, so the cubic is the same; the pivot
        # of _quartics is then a linear form of several terms, and its 36
        # quotients are long divisions
        sigma, flag = appendix_sigma(), standard_flag()
        cubic = extract_cubic(sigma, flag)
        verdicts = list(smoothness_checks(cubic, (P, 31013)))
        divisors = []
        exact = trivector.exact_div
        monkeypatch.setattr(
            trivector, "exact_div", lambda num, den: divisors.append(den) or exact(num, den)
        )
        for seed in range(3):
            b = _random_unimodular(random.Random(seed))
            binv = integer_inverse(b)
            moved = Flag(mat_vec(binv, flag.w1), tuple(mat_vec(binv, row) for row in flag.w6))
            pulled = _pullback(sigma, b)
            divisors.clear()
            moved_cubic = extract_cubic(pulled, moved)
            assert moved_cubic == cubic
            pivots = [d for d in divisors if d.total_degree() == 1]
            assert len(pivots) == 36 and all(len(d.terms) > 1 for d in pivots)
            # the certificate divides each nonzero restricted quartic by the
            # cubic: more of them than the 5 of the standard flag
            assert len([d for d in divisors if d.total_degree() == 3]) > 5
            assert list(smoothness_checks(moved_cubic, (P, 31013))) == verdicts


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

    def test_a_vector_zero_mod_p_is_the_zero_vector(self):
        sigma = appendix_sigma(P)
        for v in ((P,) + (0,) * 9, (P, 2 * P) + (0,) * 8):
            with pytest.raises(ValueError, match="^rank at the zero vector is undefined$"):
                rank_at_point(sigma, v)
        assert rank_at_point(sigma, (P + 1,) + (0,) * 9) == 4
        for bad in ((), (1,) * 9):
            with pytest.raises(ValueError, match="^vector must have 10 coordinates$"):
                rank_at_point(sigma, bad)


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


def nodal_cubic():
    """x0*(x1^2 + ... + x5^2) + x1^3 + ... + x5^3; for p > 5 its one singular
    point is e0."""
    x = [MultiPoly.variable(i, 6) for i in range(6)]
    return x[0] * sum((xi * xi for xi in x[2:]), x[1] * x[1]) + sum(
        (xi**3 for xi in x[2:]), x[1] ** 3
    )


def flagged_cubic(rng):
    """The cubic of a trivector over Q that vanishes on the flag e1 in <e1..e6>."""
    coeffs = {}
    for i, j, k in combinations(range(1, DIM + 1), 3):
        if i == 1 and j <= 6:
            continue
        c = rng.randint(-9, 9)
        if c:
            coeffs[(i, j, k)] = c
    return extract_cubic(Trivector(coeffs), standard_flag())


def jacobian_bases(cubic, p, monkeypatch):
    """(plain, Hilbert-driven) Jacobian bases mod p with the _reduce calls
    of each, one per S-pair reduced.  The plain loop runs when the engine
    is given no Hilbert targets."""
    reduced = primitive_part(cubic).reduce_mod(p)
    partials = [reduced.derivative(i) for i in range(6)]
    calls = []
    reduce = polyring._reduce
    monkeypatch.setattr(polyring, "_reduce", lambda *a: calls.append(1) or reduce(*a))
    out = []
    for targets in (lambda gens: None, polyring._hilbert_targets):
        monkeypatch.setattr(polyring, "_hilbert_targets", targets)
        calls.clear()
        out.append((buchberger(partials), len(calls)))
    return out


def patch_everywhere(monkeypatch, name, wrap):
    """Patch every peskine namespace that binds the polyring function name
    with wrap(function)."""
    fn = getattr(polyring, name)
    wrapper = wrap(fn)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "peskine" and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, wrapper)


def recording_buchberger(monkeypatch):
    """Patch the pair loop buchberger everywhere with a wrapper that
    records (modulus, basis or the exception raised)."""
    calls = []

    def wrap(groebner):
        def recording(gens):
            gens = list(gens)
            try:
                basis = groebner(gens)
            except ZeroDivisionError as exc:
                calls.append((gens[0].p, exc))
                raise
            calls.append((gens[0].p, basis))
            return basis

        return recording

    patch_everywhere(monkeypatch, "buchberger", wrap)
    return calls


def counting_calls(monkeypatch, name):
    """Patch the polyring function name everywhere with a wrapper that
    counts its calls; the list of calls."""
    calls = []
    patch_everywhere(monkeypatch, name, lambda fn: lambda *args: calls.append(1) or fn(*args))
    return calls


def singular_cubics():
    """The singular shapes by name; l * quadric is singular exactly on
    l = quadric = 0."""
    x = [MultiPoly.variable(i, 6) for i in range(6)]
    three, five = MultiPoly.constant(3, 6), MultiPoly.constant(5, 6)
    quadric = sum(
        (xi * xi for xi in x[1:]), x[1] * x[2] + x[3] * x[5] * three - x[0] * x[0] * five
    )
    return {
        "cone": x[0] ** 3,
        "l*quadric": (x[4] - x[0] * three) * quadric,
        "x0*quadric": x[0] * quadric,
    }


def split_cubic(which):
    """A cubic on which the run over Z/(10007*31013) meets a lead that is
    no unit."""
    x = [MultiPoly.variable(i, 6) for i in range(6)]
    scale = MultiPoly.constant(P, 6)
    if which == "lead":
        # d/dx1 has the leading coefficient 3*10007
        cubes = sum((xi**3 for xi in x[2:]), x[1] ** 3)
        return scale * x[0] ** 3 + x[0] * x[1] * x[2] + cubes
    # f is singular at e1; f + 10007*(x1^3 + ... + x6^3) is smooth mod 31013
    f = x[0] * x[1] * x[2] + x[3] ** 3 + x[4] ** 3 + x[5] ** 3
    return f + scale * sum((xi**3 for xi in x[1:]), x[0] ** 3)


def read_mod(basis, p):
    """A basis over Z/N read mod a prime p | N: coefficients mod p, zeros dropped."""
    return [MultiPoly(6, b.terms, p) for b in basis]


class TestSmoothness:
    def test_fermat_smooth(self):
        xs = [MultiPoly.variable(i, 6) for i in range(6)]
        fermat = sum((x**3 for x in xs[1:]), xs[0] ** 3)
        assert smoothness_check(fermat, P).is_smooth()

    def test_one_groebner_basis_per_prime(self, monkeypatch):
        calls = recording_buchberger(monkeypatch)
        xs = [MultiPoly.variable(i, 6) for i in range(6)]
        fermat = sum((x**3 for x in xs[1:]), xs[0] ** 3)
        for cubic in (fermat, xs[0] ** 3, appendix_cubic(), nodal_cubic()):
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
        assert smoothness_check(singular_cubics()[shape], p).kind == "singular"

    @pytest.mark.parametrize("p", [P, 31013])
    def test_hilbert_driven_basis_of_the_appendix(self, p, monkeypatch):
        # 37 S-pairs are reduced instead of 160; the basis is the same:
        # 6 partials and 37 remainders
        (plain, plain_pairs), (driven, driven_pairs) = jacobian_bases(
            appendix_cubic(), p, monkeypatch
        )
        assert driven == plain and len(plain) == 43
        assert (plain_pairs, driven_pairs) == (160, 37)

    def test_hilbert_driven_basis_of_flagged_cubics(self, monkeypatch):
        rng = random.Random(0)
        for _ in range(4):
            cubic = flagged_cubic(rng)
            for p in (P, 31013):
                (plain, _), (driven, _) = jacobian_bases(cubic, p, monkeypatch)
                assert driven == plain

    def test_hilbert_driven_basis_of_singular_cubics(self, monkeypatch):
        x = [MultiPoly.variable(i, 6) for i in range(6)]
        quadric = sum((xi * xi for xi in x[1:]), x[1] * x[2] - x[0] * x[0])
        # the nodal cubic never covers degree 7, yet its skips are sound:
        # the same basis from fewer reductions, and no second run
        (plain, plain_pairs), (driven, driven_pairs) = jacobian_bases(
            nodal_cubic(), P, monkeypatch
        )
        assert driven == plain and (plain_pairs, driven_pairs) == (115, 101)
        assert smoothness_check(nodal_cubic(), P).kind == "singular"
        shapes = singular_cubics()
        for cubic in (shapes["cone"], shapes["l*quadric"],
                      (x[4] - x[0] * MultiPoly.constant(3, 6)) * quadric):
            (plain, _), (driven, _) = jacobian_bases(cubic, P, monkeypatch)
            assert driven == plain

    def test_bad_primes(self):
        xs = [MultiPoly.variable(i, 6) for i in range(6)]
        fermat = sum((x**3 for x in xs[1:]), xs[0] ** 3)
        for p in (2, 3, 10):
            with pytest.raises(ValueError, match=f"p = {p}: "):
                smoothness_check(fermat, p)

    def test_prime_bound_is_checked_before_trial_division(self):
        # trial division up to sqrt(2^61 - 1) would take minutes
        cubic = appendix_cubic()
        for call in (
            lambda: require_prime(2**61 - 1),
            lambda: smoothness_check(cubic, 2**61 - 1),
        ):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="not below the prime bound 2\\^31"):
                call()
            assert time.perf_counter() - start < 0.1
        assert require_prime(2147483647) == 2147483647

    def test_rejects_non_cubic(self):
        x0 = MultiPoly.variable(0, 6)
        with pytest.raises(ValueError):
            smoothness_check(x0 * x0, P)


class TestJointSmoothness:
    """One Groebner run over Z/(p1...pk) serves every prime."""

    PRIME_SETS = [(P, 31013), (2147483647, P), (P, 31013, 65537)]

    @staticmethod
    def cubics():
        rng = random.Random(27)
        return [appendix_cubic()] + [flagged_cubic(rng) for _ in range(20)]

    def test_one_run_gives_the_per_prime_verdicts_and_bases(self, monkeypatch):
        calls = recording_buchberger(monkeypatch)
        for cubic in self.cubics():
            separate = {}
            for p in {p for primes in self.PRIME_SETS for p in primes}:
                calls.clear()
                separate[p] = (smoothness_check(cubic, p), calls[0][1])
            for primes in self.PRIME_SETS:
                calls.clear()
                verdicts = list(smoothness_checks(cubic, primes))
                assert verdicts == [separate[p][0] for p in primes]
                [(modulus, joint)] = calls
                assert modulus == math.prod(primes)
                for p in primes:
                    assert read_mod(joint, p) == separate[p][1]

    @pytest.mark.parametrize("which", ["lead", "singular-mod-one"])
    def test_a_lead_that_is_no_unit_splits_the_run(self, which, monkeypatch):
        cubic = split_cubic(which)
        calls = recording_buchberger(monkeypatch)
        verdicts = list(smoothness_checks(cubic, (P, 31013)))
        assert [m for m, _ in calls] == [P * 31013, P, 31013]
        assert isinstance(calls[0][1], ZeroDivisionError)
        calls.clear()
        assert verdicts == [smoothness_check(cubic, P), smoothness_check(cubic, 31013)]
        if which == "singular-mod-one":
            assert [v.kind for v in verdicts] == ["singular", "smooth"]

    def test_verdicts_are_drawn_lazily(self, monkeypatch):
        calls = recording_buchberger(monkeypatch)
        verdicts = smoothness_checks(appendix_cubic(), (P, 31013))
        assert calls == []
        assert next(verdicts) == trivector.SmoothnessVerdict("smooth", P)
        assert len(calls) == 1
        assert next(verdicts) == trivector.SmoothnessVerdict("smooth", 31013)
        assert len(calls) == 1

    def test_verdicts_agree_with_one_reduced_basis_per_prime(self):
        reference = {}

        def expected(cubic, primes):
            for p in primes:
                if (cubic, p) not in reference:
                    reference[cubic, p] = smoothness_reference(cubic, p)
            return [reference[cubic, p] for p in primes]

        for cubic in self.cubics():
            for primes in self.PRIME_SETS:
                assert [v.kind for v in smoothness_checks(cubic, primes)] == expected(cubic, primes)
        for cubic in [nodal_cubic(), *singular_cubics().values()]:
            for primes in [(7,), (11,), (13,), (101,), (P,), (7, 11, 13), (P, 31013)]:
                verdicts = [v.kind for v in smoothness_checks(cubic, primes)]
                assert verdicts == expected(cubic, primes) == ["singular"] * len(primes)
        for which in ("lead", "singular-mod-one"):
            cubic = split_cubic(which)
            verdicts = [v.kind for v in smoothness_checks(cubic, (P, 31013))]
            assert verdicts == expected(cubic, (P, 31013))

    @pytest.mark.parametrize("which", ["joint", "lead"])
    def test_the_euler_certificate_bites(self, which, monkeypatch):
        # without its quadrics the basis no longer holds the cubic
        jacobian_basis = trivector._jacobian_basis
        monkeypatch.setattr(
            trivector,
            "_jacobian_basis",
            lambda prim, n: [b for b in jacobian_basis(prim, n) if b.total_degree() != 2],
        )
        cubic = appendix_cubic() if which == "joint" else split_cubic(which)
        for primes in [(P, 31013), (31013, P), (31013,)]:
            verdicts = smoothness_checks(cubic, primes)
            with pytest.raises(CertificateError, match=f"Groebner basis mod {primes[0]}$"):
                next(verdicts)

    def test_one_unreduced_run_and_one_normal_form(self, monkeypatch):
        calls = recording_buchberger(monkeypatch)
        remainders = counting_calls(monkeypatch, "normal_form")
        for primes in self.PRIME_SETS:
            calls.clear()
            remainders.clear()
            assert all(v.is_smooth() for v in smoothness_checks(appendix_cubic(), primes))
            [(_, basis)] = calls
            assert len(remainders) == 1
            # 6 partials and 37 S-pair remainders; the reduced basis has 39
            assert len(basis) == 43 and len(reduced_basis(basis)) == 39
        calls.clear()
        remainders.clear()
        list(smoothness_checks(split_cubic("lead"), (P, 31013)))
        assert len(calls) == 3 and len(remainders) == 2

    @pytest.mark.parametrize(
        "primes, message",
        [((), "at least one prime"), ((P, 31013, P), "the primes must differ"),
         ((P, 4), "p = 4: 4 is not prime")],
    )
    def test_bad_prime_lists_are_refused_at_the_call(self, primes, message):
        with pytest.raises(ValueError, match=message):
            smoothness_checks(appendix_cubic(), primes)

    def test_verify_appendix_makes_one_groebner_run(self, monkeypatch, capsys):
        calls = recording_buchberger(monkeypatch)
        assert main(["verify-appendix"]) == 0
        assert [m for m, _ in calls] == [P * 31013]
        assert capsys.readouterr().out.endswith(
            "stage smooth-10007: pass\nstage smooth-31013: pass\nverify-appendix: PASS\n"
        )


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
        # rows of 9 or 11 coordinates are not read up to the 10th
        for sigma in (Trivector({(1, 2, 3): 1}), Trivector({(1, 2, 10): 1})):
            for length in (9, 11):
                with pytest.raises(ValueError, match="v6 must be 6 linearly independent"):
                    x6_membership(sigma, unit_rows(6, length))


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
        for sigma in (Trivector({(1, 2, 3): 1}), Trivector({(1, 2, 10): 1})):
            for length in (9, 11):
                for domain in ("v7", "v10"):
                    with pytest.raises(ValueError, match="v7 must be 7 linearly independent"):
                        x7_kernel(sigma, unit_rows(7, length), domain)


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
    def test_comments_and_blanks(self):
        text = "# header\n\n1 2 3 4  # trailing\n"
        sigma = parse_trivector(text)
        assert sigma.coefficient(1, 2, 3) == 4

    def test_rational_coefficient(self):
        sigma = parse_trivector("1 2 3 -5/7\n")
        assert sigma.coefficient(1, 2, 3) == Fraction(-5, 7)

    def test_duplicate_triple_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_trivector("1 2 3 4\n2 1 3 5\n")

    def test_triple_errors_name_their_line(self):
        # Trivector owns the triple rules; the parser adds the line number,
        # also for a repeat of the very same text and for a first
        # coefficient that is zero mod p
        for text, p, message in (
            ("# c\n1 2 3 4\n\n1 2 3 4\n", None, "line 4: duplicate triple 1 2 3"),
            ("1 2 3 7\n2 1 3 5\n", 7, "line 2: duplicate triple 2 1 3"),
            ("1 2 3 1\n4 4 5 1\n", None, "line 2: bad index triple 4 4 5"),
            ("1 2 3 1\n0 4 5 1\n", P, "line 2: bad index triple 0 4 5"),
        ):
            with pytest.raises(ValueError) as info:
                parse_trivector(text, p)
            assert str(info.value) == message

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            parse_trivector("1 2 3 0\n")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="line 2: zero denominator in '1/0'"):
            parse_trivector("1 2 3 4\n1 2 4 1/0\n")

    def test_coefficient_grammar(self):
        # an integer or a/b, nothing that Fraction also reads
        for token in ("2.5", ".5", "5.", "1_0", "1e3", "1E2"):
            with pytest.raises(ValueError, match=f"^line 2: coefficient '{token}' "):
                parse_trivector(f"1 2 3 4\n1 2 4 {token}\n")
        sigma = parse_trivector("1 2 3 +4\n1 2 4 -3/6\n")
        assert sigma.coefficient(1, 2, 3) == 4
        assert sigma.coefficient(1, 2, 4) == Fraction(-1, 2)

    def test_index_grammar(self):
        # int() reads 1_0 as 10, so this line was the triple (10, 2, 3)
        lines = (("1_0 2 3 4", "1_0"), ("1 \uff12 3 4", "\uff12"), ("1 2 3.0 4", "3.0"))
        for line, token in lines:
            with pytest.raises(ValueError, match=f"^line 2: index '{token}' is not an integer$"):
                parse_trivector(f"1 2 3 4\n{line}\n")
        assert parse_trivector("+1 02 3 4\n").coefficient(1, 2, 3) == 4

    def test_exponent_coefficient_is_refused_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^line 1: "):
            parse_trivector("1 2 3 1e2000000")
        assert time.perf_counter() - start < 0.1

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_trivector("1 2 3\n")
        with pytest.raises(ValueError):
            parse_trivector("1 2 11 4\n")

    def test_common_denominator_bound_names_its_line(self):
        text = f"1 2 3 4\n1 2 4 1/{10**500}\n\n1 2 5 -2/{3**1048}\n"
        with pytest.raises(ValueError, match="^line 4: common denominator has more than"):
            parse_trivector(text)

    def test_fixture_has_78_terms(self):
        assert len(appendix_sigma().coeffs) == 78
        assert appendix_sigma_text().count("\n") >= 78


class TestPrimeFieldCoefficients:
    def test_rational_coefficient_mod_p(self):
        sigma = parse_trivector("1 2 3 1/2\n", p=7)
        assert sigma.coefficient(1, 2, 3) == 4  # inverse of 2 mod 7

    def test_rational_with_bad_denominator(self):
        with pytest.raises(ValueError):
            parse_trivector("1 2 3 1/7\n", p=7)
