import random
import time
from fractions import Fraction
from math import gcd

import pytest

from peskine import associations, lattice, markings
from peskine.lattice import (
    GramLattice,
    determinant,
    discriminant_group,
    mat_vec,
)
from peskine.markings import (
    D_MAX,
    RANGE_COST_MAX,
    admissible,
    admissible_range,
    certify_disc_form,
    disc_form_agrees,
    disc_form_closed,
    exhibit_generator,
    lambda11,
    marking_gram,
    range_cost,
)
from peskine.ntheory import QmodTwoZ

from _models import E8_GRAM


class TestAdmissible:
    def test_examples(self):
        assert admissible(24)
        assert not admissible(26)
        assert not admissible(0)

    def test_odd_rejected(self):
        assert not admissible(11)
        assert not admissible(33)

    def test_residues(self):
        expected = {0, 2, 6, 8, 10, 18}
        for d in range(2, 200, 2):
            assert admissible(d) == (d % 22 in expected)

    def test_range_helper(self):
        assert admissible_range(22, 34) == [22, 24, 28, 30, 32]
        assert admissible_range(25, 27) == []

    def test_range_cost_is_the_sum_of_the_range(self):
        rng = random.Random(22)
        spans = [(-50, 30), (1, 1), (22, 22), (23, 43), (10**7 - 100, 10**7)]
        spans += [(lo, lo + rng.randint(-5, 600)) for lo in rng.sample(range(-30, 5000), 200)]
        for lo, hi in spans:
            assert range_cost(lo, hi) == sum(admissible_range(lo, hi))
        assert range_cost(48000, 48249) < RANGE_COST_MAX < range_cost(1, 10**4)


class TestRequireAdmissible:
    """Every library entry point that takes a discriminant is bounded by D_MAX."""

    ABOVE = 100000006  # admissible (100000006 mod 22 = 18), but above D_MAX

    @pytest.mark.parametrize(
        "function",
        [
            markings.marking_gram,
            markings.disc_form_closed,
            associations.k3_closed,
            associations.k3_witness,
            associations.cubic_closed,
            associations.cubic_witness,
        ],
        ids=lambda f: f.__name__,
    )
    def test_ceiling_is_refused_at_once(self, function):
        assert admissible(self.ABOVE) and self.ABOVE > D_MAX
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            function(self.ABOVE)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            f"d = {self.ABOVE} is above the supported ceiling D_MAX = {D_MAX}"
        )

    def test_range_end_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="D_MAX"):
            admissible_range(1, 10**12)
        assert time.perf_counter() - start < 1.0
        assert admissible_range(D_MAX - 1, D_MAX) == [D_MAX]

    @pytest.mark.parametrize("lo, hi", [(D_MAX + 5, 10), (D_MAX + 1, D_MAX + 1), (1, D_MAX + 1)])
    def test_either_endpoint_past_the_ceiling(self, lo, hi):
        # an empty range too: admissible_range owns the ceiling of table --range
        message = f"^range {lo}..{hi} passes the supported ceiling D_MAX = {D_MAX}$"
        for function in (admissible_range, range_cost):
            with pytest.raises(ValueError, match=message):
                function(lo, hi)


class TestHlsSet:
    def test_hls_values_are_the_small_admissible_ones(self):
        # the HLS exclusion set, the discriminants whose Heegner divisor
        # misses the trivector moduli, is the admissible d below 22
        assert {d for d in range(1, 22) if admissible(d)} == {2, 6, 8, 10, 18}


class TestMarkingGram:
    def test_d22(self):
        assert marking_gram(22).abc == (0, 0, 2)

    def test_d24(self):
        mg = marking_gram(24)
        assert mg.abc == (3, 1, 3)
        assert mg.gram == ((15, 7, 3), (7, 4, 1), (3, 1, 3))

    def test_d30(self):
        assert marking_gram(30).abc == (2, 1, 3)

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError, match="not admissible"):
            marking_gram(26)

    def test_determinant_is_d(self):
        for d in admissible_range(2, 2000):
            assert determinant(marking_gram(d).lattice()) == d

    def test_upper_left_block_is_lambda11(self):
        l11 = lambda11().gram
        for d in admissible_range(2, 500):
            g = marking_gram(d).gram
            assert ((g[0][0], g[0][1]), (g[1][0], g[1][1])) == l11


class TestDiscFormClosed:
    def test_d24(self):
        form = disc_form_closed(24)
        assert form.invariant_factors == (24,)
        assert form.q == QmodTwoZ(11, 24)

    def test_d22(self):
        form = disc_form_closed(22)
        assert form.invariant_factors == (22,)
        assert form.q == QmodTwoZ(17, 22)  # 3/11 + 1/2

    def test_d242_not_cyclic(self):
        form = disc_form_closed(242)
        assert form.invariant_factors == (11, 22)
        assert form.q is None
        group = discriminant_group(marking_gram(242).lattice())
        assert group.invariant_factors == (11, 22)

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            disc_form_closed(26)


class TestCrossValidation:
    def test_sample_discriminants(self):
        for d in (18, 22, 24, 30, 44, 66, 88, 110, 242, 484, 2662):
            assert disc_form_agrees(d), d

    def test_a_failed_certificate_reads_false(self, monkeypatch):
        monkeypatch.setattr(markings, "generator_with_q_value", lambda *args: None)
        assert not disc_form_agrees(24)

    def test_one_smith_form_per_discriminant(self, monkeypatch):
        calls = []
        snf = lattice.smith_normal_form

        def counting(m):
            calls.append(1)
            return snf(m)

        monkeypatch.setattr(lattice, "smith_normal_form", counting)
        for d in (24, 30, 242):
            calls.clear()
            assert disc_form_agrees(d)
            assert len(calls) == 1, d

    def test_one_determinant_per_discriminant(self, monkeypatch):
        calls = []
        bareiss = lattice.bareiss_determinant

        def counting(m):
            calls.append(1)
            return bareiss(m)

        lambda11()  # cached, so built at most once per session
        monkeypatch.setattr(lattice, "bareiss_determinant", counting)
        for d in (24, 30, 242):
            calls.clear()
            cert = certify_disc_form(d)
            assert determinant(cert.marking.lattice()) == cert.marking.det == d
            assert len(calls) == 1, d

    def test_exhibited_generator_value(self):
        lat = marking_gram(30).lattice()
        gen = exhibit_generator(30)
        assert gen is not None
        n = 3
        q = sum(
            gen[r] * sum(Fraction(lat.gram[r][c]) * gen[c] for c in range(n))
            for r in range(n)
        )
        assert QmodTwoZ(q.numerator, q.denominator) == QmodTwoZ(11, 30)

    def test_exhibited_generator_generates(self):
        # the order of the class must be the full group order
        d = 24
        gen = exhibit_generator(d)
        for k in range(1, d):
            assert any((k * x).denominator != 1 for x in gen)
        assert all((d * x).denominator == 1 for x in gen)

    def test_non_cyclic_rejects_exhibit(self):
        with pytest.raises(ValueError):
            exhibit_generator(242)


class TestLambda11:
    def test_determinant(self):
        assert determinant(lambda11()) == 11

    def test_divisibility(self):
        assert gcd(*mat_vec(lambda11().gram, (1, 1))) == 11

    def test_discriminant_group(self):
        assert discriminant_group(lambda11()).invariant_factors == (11,)


class TestAmbientConstants:
    def test_e8(self):
        lat = GramLattice(E8_GRAM)
        assert determinant(lat) == 1
        assert all(E8_GRAM[i][i] % 2 == 0 for i in range(8))
