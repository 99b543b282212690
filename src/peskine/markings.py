"""Classification of markings of special Peskine sixfolds.

Admissible discriminants, the HLS exclusion set, the rank-3 marking Gram
matrix for each admissible discriminant, and the closed-form values of
the discriminant group and its Q/2Z form, cross-validated against the
generic lattice machinery in :mod:`peskine.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass

from fractions import Fraction

from .lattice import (
    GramLattice,
    Matrix,
    determinant,
    discriminant_group,
    generator_with_q_value,
)
from .ntheory import QmodTwoZ, qmod2z

ADMISSIBLE_RESIDUES = frozenset({0, 2, 6, 8, 10, 18})

# Largest discriminant the CLI accepts.  The brute-force oracles are
# linear in d; the slowest takes about 1 s for one d near 10^7.
D_MAX = 10**7

# (a, b) of the marking Gram per residue of d mod 22; c = (d + offset) / 11.
_ABC_BY_RESIDUE = {
    0: (0, 0, 0),
    2: (3, 1, 9),
    6: (1, 1, 5),
    8: (2, 1, 3),
    10: (3, 2, 12),
    18: (1, 0, 4),
}


def admissible(d: int) -> bool:
    """Positive even d with d mod 22 in {0, 2, 6, 8, 10, 18}."""
    return d > 0 and d % 2 == 0 and d % 22 in ADMISSIBLE_RESIDUES


def admissibility_reason(d: int) -> str:
    if d <= 0:
        return f"{d} is not positive"
    if d % 2 != 0:
        return f"{d} is odd"
    if d % 22 not in ADMISSIBLE_RESIDUES:
        return f"{d} mod 22 = {d % 22} not admissible"
    return f"{d} mod 22 = {d % 22}"


def admissible_range(lo: int, hi: int) -> list[int]:
    """Admissible discriminants in [lo, hi]."""
    return [d for d in range(max(lo, 1), hi + 1) if admissible(d)]


def hls_set() -> frozenset[int]:
    """Discriminants whose Heegner divisor misses the trivector moduli."""
    return frozenset({2, 6, 8, 10, 18})


def lambda11() -> GramLattice:
    """The fixed rank-2 lattice ((15, 7), (7, 4)) of discriminant 11."""
    return GramLattice(((15, 7), (7, 4)))


@dataclass(frozen=True)
class MarkingGram:
    """The rank-3 marking of discriminant d: Lambda11 extended by (a, b, c)."""

    d: int
    abc: tuple[int, int, int]
    gram: Matrix

    def lattice(self) -> GramLattice:
        return GramLattice(self.gram)


def marking_gram(d: int) -> MarkingGram:
    """The unique orbit representative of a discriminant-d marking.

    The Gram matrix has rows (15, 7, a), (7, 4, b), (a, b, c) with
    (a, b, c) determined by d mod 22; its determinant is exactly d.
    """
    if not admissible(d):
        raise ValueError(f"no marking: {admissibility_reason(d)}")
    a, b, off = _ABC_BY_RESIDUE[d % 22]
    c = (d + off) // 11
    gram = ((15, 7, a), (7, 4, b), (a, b, c))
    mg = MarkingGram(d, (a, b, c), gram)
    assert determinant(mg.lattice()) == d
    return mg


@dataclass(frozen=True)
class ClosedDiscForm:
    """Closed-form discriminant group of a marking.

    invariant_factors lists the cyclic factors (ascending, each dividing
    the next); q is the form value on a generator when the group is
    cyclic, and None in the non-cyclic 121 | d branch.
    """

    invariant_factors: tuple[int, ...]
    q: QmodTwoZ | None

    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1


def disc_form_closed(d: int) -> ClosedDiscForm:
    """Group and Q/2Z form of the discriminant group, in closed form.

    For d not divisible by 22 the group is Z/d with q = 11/d on a
    generator.  For 22 | d write d' = d/11: the group is Z/11 x Z/d',
    cyclic with q = 3/11 + 1/d' exactly when 11 does not divide d'.
    """
    if not admissible(d):
        raise ValueError(f"no marking: {admissibility_reason(d)}")
    if d % 22 != 0:
        return ClosedDiscForm((d,), qmod2z(11, d))
    dp = d // 11
    if dp % 11 == 0:
        return ClosedDiscForm((11, dp), None)
    return ClosedDiscForm((d,), qmod2z(3, 11) + qmod2z(1, dp))


def exhibit_generator(d: int) -> tuple[Fraction, ...] | None:
    """An explicit generator of D(M_d) attaining the closed-form q-value.

    The marking lattices are odd, so the mod-2Z value of the form moves
    under representative shifts; this returns a concrete dual vector
    whose value equals disc_form_closed(d).q exactly, certifying the
    closed form against the generic lattice computation.
    """
    closed = disc_form_closed(d)
    if closed.q is None:
        raise ValueError(f"d = {d}: discriminant group is not cyclic")
    lat = marking_gram(d).lattice()
    return generator_with_q_value(lat, discriminant_group(lat), closed.q)


def disc_form_agrees(d: int) -> bool:
    """Cross-validate the closed form against the lattice machinery.

    Compares the invariant factors of the discriminant group of
    marking_gram(d), and on cyclic cases demands an explicit generator
    representative attaining the closed-form q-value exactly.
    """
    closed = disc_form_closed(d)
    lat = marking_gram(d).lattice()
    group = discriminant_group(lat)
    if group.invariant_factors != closed.invariant_factors:
        return False
    if closed.q is None:
        return True
    return generator_with_q_value(lat, group, closed.q) is not None


# Cartan matrix of E8: chain 1..7 with node 8 attached to node 5.
E8_GRAM: Matrix = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)
