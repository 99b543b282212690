"""Cross-checks of the exact engines against an independent system.

These tests only run when sympy is importable; they compare results,
not implementations, so any disagreement is a genuine bug on one side.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from peskine.lattice import smith_normal_form
from peskine.ntheory import factorize, legendre
from peskine.polyring import MultiPoly, buchberger, gcd_multivariate, primitive_part
from peskine.trivector import Trivector, restrict_to_subspace, standard_flag

P = 10007


def random_matrix(rng, rows, cols, bound=12):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


class TestSmithNormalForm:
    def test_against_sympy(self):
        from sympy.matrices.normalforms import smith_normal_form as snf_ref

        rng = random.Random(60)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            if sympy.Matrix(m).det() == 0:
                continue
            _, d, _ = smith_normal_form(m)
            ours = [d[i][i] for i in range(n)]
            ref = snf_ref(sympy.Matrix(m))
            theirs = [abs(int(ref[i, i])) for i in range(n)]
            assert ours == theirs, (m, ours, theirs)


class TestNumberTheory:
    def test_factorize_against_sympy(self):
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randint(2, 10**7)
            assert dict(factorize(n)) == sympy.factorint(n)

    def test_legendre_against_sympy(self):
        from sympy.functions.combinatorial.numbers import legendre_symbol

        rng = random.Random(62)
        for _ in range(200):
            p = sympy.prime(rng.randint(2, 150))  # odd primes
            a = rng.randint(-500, 500)
            assert legendre(a, int(p)) == legendre_symbol(a, int(p))


def _to_sympy(poly: MultiPoly, syms):
    expr = 0
    for exps, c in poly.terms.items():
        term = sympy.Rational(Fraction(c)) if poly.p is None else int(c)
        for s, e in zip(syms, exps):
            if e:
                term *= s**e
        expr += term
    return expr


def _from_sympy_gf(expr, syms, nvars, p):
    poly = sympy.Poly(expr, *syms)
    terms = {}
    for exps, c in poly.terms():
        terms[tuple(exps)] = int(c) % p
    return MultiPoly(nvars, terms, p)


class TestGcd:
    def test_against_sympy(self):
        rng = random.Random(63)
        syms = sympy.symbols("x1 x2 x3")
        checked = 0
        while checked < 30:
            a = _random_poly(rng, 3)
            b = _random_poly(rng, 3)
            if a.is_zero() or b.is_zero():
                continue
            ours = gcd_multivariate(a, b)
            ref = sympy.gcd(
                sympy.Poly(_to_sympy(a, syms), *syms),
                sympy.Poly(_to_sympy(b, syms), *syms),
            )
            ref_poly = _poly_from_sympy(ref, 3)
            assert ours == primitive_part(ref_poly), (a, b)
            checked += 1

    def test_restricted_quartics_of_planted_flags(self):
        # what extract_cubic asks of the GCD: the first two nonzero quartics
        # of trivectors vanishing on the flag e1 in <e1..e6>, restricted to it
        rng = random.Random(64)
        syms = sympy.symbols("y1:7")
        w6 = standard_flag().w6
        for _ in range(4):
            coeffs = {}
            for i, j, k in combinations(range(1, 11), 3):
                if i == 1 and j <= 6:
                    continue
                c = rng.randint(-9, 9)
                if c:
                    coeffs[(i, j, k)] = c
            quartics = restrict_to_subspace(Trivector(coeffs), w6)
            a, b = [q for q in quartics if not q.is_zero()][:2]
            ours = gcd_multivariate(a, b)
            ref = sympy.gcd(
                sympy.Poly(_to_sympy(a, syms), *syms),
                sympy.Poly(_to_sympy(b, syms), *syms),
            )
            assert ours == primitive_part(_poly_from_sympy(ref, 6))
            assert ours.total_degree() == 3


def _random_poly(rng, nvars):
    out = {}
    for _ in range(5):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(nvars)] += 1
        out[tuple(exps)] = out.get(tuple(exps), 0) + rng.randint(-9, 9)
    return MultiPoly(nvars, out)


def _poly_from_sympy(ref, nvars):
    terms = {}
    for exps, c in sympy.Poly(ref).terms():
        terms[tuple(exps)] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return MultiPoly(nvars, terms)


class TestGroebner:
    def test_reduced_basis_against_sympy(self):
        rng = random.Random(64)
        syms = sympy.symbols("x1 x2 x3")
        for _ in range(10):
            gens = []
            for _ in range(3):
                g = _random_homogeneous(rng, 3, 2)
                if not g.is_zero():
                    gens.append(g)
            if not gens:
                continue
            ours = buchberger(gens)
            ref = sympy.groebner(
                [_to_sympy(g, syms) for g in gens],
                *syms,
                modulus=P,
                order="grevlex",
            )
            theirs = [_from_sympy_gf(e, syms, 3, P) for e in ref.exprs]
            assert sorted(
                ours, key=lambda q: sorted(q.terms)
            ) == sorted(theirs, key=lambda q: sorted(q.terms))

    def test_quadric_system_against_sympy(self):
        rng = random.Random(65)
        syms = sympy.symbols("x1 x2 x3 x4")
        gens = [_random_homogeneous(rng, 4, 2) for _ in range(4)]
        gens = [g for g in gens if not g.is_zero()]
        ours = buchberger(gens)
        ref = sympy.groebner(
            [_to_sympy(g, syms) for g in gens], *syms, modulus=P, order="grevlex"
        )
        theirs = [_from_sympy_gf(e, syms, 4, P) for e in ref.exprs]
        assert len(ours) == len(theirs)
        assert all(any(o == t for t in theirs) for o in ours)

    def test_non_homogeneous_systems_against_sympy(self):
        # non-homogeneous input runs the plain pair loop, not the Hilbert-driven one
        rng = random.Random(66)
        syms = sympy.symbols("x1 x2 x3")
        for _ in range(10):
            gens = [_random_poly(rng, 3).reduce_mod(P) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens or all(g.is_homogeneous() for g in gens):
                continue
            ours = buchberger(gens)
            ref = sympy.groebner(
                [_to_sympy(g, syms) for g in gens], *syms, modulus=P, order="grevlex"
            )
            theirs = [_from_sympy_gf(e, syms, 3, P) for e in ref.exprs]
            assert sorted(ours, key=lambda q: sorted(q.terms)) == sorted(
                theirs, key=lambda q: sorted(q.terms)
            )


def _random_homogeneous(rng, nvars, degree):
    import itertools

    monos = [
        e
        for e in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e) == degree
    ]
    return MultiPoly(
        nvars, {m: rng.randrange(P) for m in monos if rng.random() < 0.8}, P
    )
