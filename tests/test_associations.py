import random
import sys

import pytest

from peskine import associations
from peskine.associations import (
    AssociationRow,
    CriterionMismatchError,
    association_row,
    check_fixture,
    cubic_closed,
    cubic_oracle,
    cubic_witness,
    k3_closed,
    k3_oracle,
    k3_witness,
    parse_table,
    render_csv,
    render_text,
    table1,
    table1_fixture,
)
from peskine.lattice import discriminant_group
from peskine.markings import admissible_range

from _models import (
    cubic_marking_complement_model,
    cyclic_q_matches,
    div3_cubic_complement_model,
    div11_marking_complement_model,
    k3_polarization_complement_model,
    marking_complement_model,
    square_root_mod_reference,
)


class TestK3Closed:
    def test_examples(self):
        assert k3_closed(30)
        assert not k3_closed(24)
        assert k3_closed(22)

    def test_divisibility_exclusions(self):
        assert not k3_closed(28)  # 4 | 28
        assert not k3_closed(242)  # 121 | 242

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            k3_closed(26)


class TestK3Oracle:
    def test_examples(self):
        assert k3_oracle(30)
        assert not k3_oracle(28)
        assert k3_oracle(66)

    def test_witness_satisfies_congruence(self):
        for d in (30, 46, 90, 94):
            k = k3_witness(d)
            assert k is not None
            assert (k * k + 11) % (2 * d) == 0
        for d in (22, 66, 110):
            k = k3_witness(d)
            assert k is not None
            assert (k * k - (8 * (d // 11) - 11)) % (2 * d) == 0

    def test_non_cyclic_is_false(self):
        assert k3_witness(242) is None


class TestCubicClosed:
    def test_examples(self):
        assert cubic_closed(24)
        assert not cubic_closed(28)  # 28 = 4 mod 6
        assert cubic_closed(2312)

    def test_exclusions(self):
        assert not cubic_closed(54)  # 9 | 54
        assert not cubic_closed(66)  # even count of primes = 2 mod 3
        assert not cubic_closed(30)  # 33 is not a square mod 5

    def test_divisor_66_cases(self):
        assert cubic_closed(132)
        assert cubic_closed(528)
        assert not cubic_closed(594)  # 9 | 594


class TestCubicOracle:
    def test_examples(self):
        assert cubic_oracle(32)
        assert cubic_oracle(44)
        assert not cubic_oracle(72)  # 9 | 72 fails cyclicity

    def test_witnesses_satisfy_case_equations(self):
        k = cubic_witness(32)  # case 1
        assert k is not None and (-33 * k * k - 63) % 192 == 0
        k = cubic_witness(24)  # case 2, e = 8
        assert k is not None and (-11 * k * k - 13) % 48 == 0
        k = cubic_witness(44)  # case 3, e = 29, d' = 4
        assert k is not None and (29 * k * k - 21) % 88 == 0
        k = cubic_witness(528)  # case 4, d' = 8
        assert k is not None and ((44 * 8 - 3) * k * k - (48 * 8 - 11)) % 1056 == 0


class TestEquivalence:
    def test_closed_equals_oracle_smoke(self):
        for d in admissible_range(2, 400):
            assert k3_closed(d) == k3_oracle(d), d
            assert cubic_closed(d) == cubic_oracle(d), d

    def test_closed_forms_use_no_brute_force_scan(self, monkeypatch):
        ds = admissible_range(2, 2000)
        expected = [(k3_oracle(d), cubic_oracle(d)) for d in ds]

        def forbidden(*args):
            raise AssertionError("closed form called a brute-force scan")

        for name, module in list(sys.modules.items()):
            if name != "peskine" and not name.startswith("peskine."):
                continue
            for attr in ("square_root_mod", "is_square_mod"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
        assert [(k3_closed(d), cubic_closed(d)) for d in ds] == expected

    def test_oracles_use_no_closed_form_tool(self, monkeypatch):
        ds = admissible_range(2, 2000)
        expected = [(k3_witness(d), cubic_witness(d)) for d in ds]

        def forbidden(*args):
            raise AssertionError("oracle called a closed-form tool")

        for name, module in list(sys.modules.items()):
            if name != "peskine" and not name.startswith("peskine."):
                continue
            for attr in ("factorize", "legendre", "is_prime"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
        assert [(k3_witness(d), cubic_witness(d)) for d in ds] == expected


class TestOracleReference:
    """The witnesses are those of the half-modulus reference scan."""

    WITNESS = {"k3": k3_witness, "cubic": cubic_witness}

    # (kind, d, modulus, coefficient): one associated d per branch
    NAMED = [
        ("k3", 30, 60, 1),  # 22 does not divide d: k^2 = -11 (mod 2d)
        ("k3", 22, 44, 1),  # 22 | d: k^2 = 8d' - 11 (mod 2d)
        ("cubic", 32, 192, -33),  # case 1, m = 6d
        ("cubic", 24, 48, -11),  # case 2
        ("cubic", 44, 88, 29),  # case 3, coefficient (2d - 1)/3
        ("cubic", 132, 264, 85),  # case 4, coefficient 44d' - 3 with d' = 2
    ]

    @pytest.mark.parametrize("kind, d, modulus, coefficient", NAMED, ids=[f"{k}-{d}" for k, d, *_ in NAMED])
    def test_named_branch(self, monkeypatch, kind, d, modulus, coefficient):
        seen = []

        def recording(a, m, coeff=1):
            seen.append((m, coeff))
            return square_root_mod_reference(a, m, coeff)

        monkeypatch.setattr(associations, "square_root_mod", recording)
        expected = self.WITNESS[kind](d)
        monkeypatch.undo()
        assert seen == [(modulus, coefficient)]
        assert expected is not None
        assert self.WITNESS[kind](d) == expected

    def test_every_admissible_d_up_to_3000(self, monkeypatch):
        ds = admissible_range(1, 3000)
        monkeypatch.setattr(associations, "square_root_mod", square_root_mod_reference)
        expected = [(k3_witness(d), cubic_witness(d)) for d in ds]
        monkeypatch.undo()
        assert [(k3_witness(d), cubic_witness(d)) for d in ds] == expected

    def test_seeded_sample_of_the_benchmark_range(self, monkeypatch):
        # the discriminants of `table --range A..A+249`, A in 40000..48000
        ds = random.Random(19).sample(admissible_range(40000, 50000), 40)
        monkeypatch.setattr(associations, "square_root_mod", square_root_mod_reference)
        expected = [(k3_witness(d), cubic_witness(d)) for d in ds]
        monkeypatch.undo()
        assert [(k3_witness(d), cubic_witness(d)) for d in ds] == expected


class TestFrozenSets:
    def test_k3_list(self):
        got = [d for d in admissible_range(22, 94) if k3_closed(d)]
        assert got == [22, 30, 46, 50, 54, 62, 66, 74, 90, 94]

    def test_cubic_list(self):
        got = [d for d in admissible_range(22, 96) if cubic_closed(d)]
        assert got == [24, 32, 44, 62, 68, 74, 96]


class TestTable:
    def test_row_74(self):
        row = association_row(74)
        assert row.assoc_k3 and row.assoc_cubic

    def test_row_194_with_fixture(self):
        row = association_row(194)
        assert row == AssociationRow(194, True, True, True, True)

    def test_row_40(self):
        row = association_row(40)
        assert not row.assoc_k3 and not row.assoc_cubic

    def test_fixture_matches(self):
        assert check_fixture() == []
        assert len(table1_fixture()) == 20

    def test_a_fixture_mismatch_is_reported(self, monkeypatch):
        fixture = dict(table1_fixture())
        fixture[194] = AssociationRow(194, False, False, True, True)
        monkeypatch.setattr(associations, "table1_fixture", lambda: fixture)
        assert check_fixture() == [
            "d = 194: computed assoc_k3 = True, fixture says False",
            "d = 194: computed assoc_cubic = True, fixture says False",
        ]

    def test_mismatch_is_loud(self, monkeypatch):
        monkeypatch.setattr(associations, "k3_witness", lambda d: None)
        with pytest.raises(CriterionMismatchError):
            association_row(22)

    def test_rows_in_input_order(self):
        rows = table1([30, 22, 24])
        assert [r.d for r in rows] == [30, 22, 24]

    def test_csv_rendering(self):
        rows = table1([194, 76])
        text = render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "d,assoc_k3,assoc_cubic,hilb2_fixture,fano_fixture"
        assert lines[1] == "194,1,1,1,1"
        assert lines[2] == "76,0,0,,"

    def test_text_rendering(self):
        text = render_text(table1([22]))
        assert "22" in text and "yes" in text

    def test_parse_roundtrip(self):
        rows = table1_fixture()
        text = render_csv([rows[d] for d in sorted(rows)])
        assert parse_table(text) == rows


class TestGlueModels:
    """Cross-check the oracle constants against honest lattice arithmetic.

    The marking complement and the K3/cubic side complements are even
    lattices of rank 21 realized as explicit block Gram matrices; the
    association criteria must coincide with their discriminant forms
    being isomorphic (cyclic of order d with unit-square-matched
    generator values mod 2Z).
    """

    @staticmethod
    def _match(lat1, lat2, d):
        g1 = discriminant_group(lat1)
        g2 = discriminant_group(lat2)
        if g1.invariant_factors != (d,) or g2.invariant_factors != (d,):
            return False
        return cyclic_q_matches(d, g1.qvals[0], g2.qvals[0])

    @pytest.mark.parametrize("d", [22, 66, 88, 110, 154])
    def test_k3_branch_22_divides_d(self, d):
        match = self._match(
            marking_complement_model(d), k3_polarization_complement_model(d), d
        )
        assert match == k3_closed(d)

    @pytest.mark.parametrize("d", [24, 28, 30, 40, 46, 54])
    def test_k3_branch_22_prime_to_d(self, d):
        match = self._match(
            div11_marking_complement_model(d),
            k3_polarization_complement_model(d),
            d,
        )
        assert match == k3_closed(d)

    @pytest.mark.parametrize("d", [32, 50, 68, 74])
    def test_cubic_case1_branch(self, d):
        match = self._match(
            div11_marking_complement_model(d), div3_cubic_complement_model(d), d
        )
        assert match == cubic_closed(d)

    @pytest.mark.parametrize("d", [24, 30, 96])
    def test_cubic_case2_branch(self, d):
        match = self._match(
            div11_marking_complement_model(d), cubic_marking_complement_model(d), d
        )
        assert match == cubic_closed(d)

    @pytest.mark.parametrize("d", [44, 110, 176])
    def test_cubic_case3_branch(self, d):
        match = self._match(
            marking_complement_model(d), div3_cubic_complement_model(d), d
        )
        assert match == cubic_closed(d)

    @pytest.mark.parametrize("d", [66, 132, 528, 1122])
    def test_cubic_case4_branch(self, d):
        match = self._match(
            marking_complement_model(d), cubic_marking_complement_model(d), d
        )
        assert match == cubic_closed(d)

    def test_case4_does_not_require_eight_divides_d(self):
        # d = 132: 8 does not divide d, yet the forms are isomorphic
        assert 132 % 8 != 0
        assert self._match(
            marking_complement_model(132), cubic_marking_complement_model(132), 132
        )

    def test_sliced_models_have_the_right_determinant(self):
        from peskine.lattice import determinant

        assert abs(determinant(div11_marking_complement_model(30))) == 30
        assert abs(determinant(div3_cubic_complement_model(32))) == 32
