"""Classification of markings of special Peskine sixfolds.

Admissible discriminants, the HLS exclusion set, the rank-3 marking Gram
matrix for each admissible discriminant, and the closed-form values of
the discriminant group and its Q/2Z form, cross-validated against the
generic lattice machinery in :mod:`peskine.lattice`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (
    DiscGroup,
    GramLattice,
    Matrix,
    discriminant_group,
    generator_with_q_value,
)
from .ntheory import CertificateError, QmodTwoZ, qmod2z

ADMISSIBLE_RESIDUES = frozenset({0, 2, 6, 8, 10, 18})

# Largest discriminant the package accepts (require_admissible).  Each
# brute-force oracle walks at most d/8 + 1 candidates of one residue class;
# the slowest d near the ceiling, 9 999 986, where both scans fail, takes
# about 0.3-0.6 s on 2 CPUs.
D_MAX = 10**7

# Largest cost, sum of d over the admissible d of a range, that the CLI
# tables in one call.  The oracle scans take about 0.03 us per unit of d,
# so a range at the cap takes about 0.3 s.
RANGE_COST_MAX = 10**7

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


def require_admissible(d: int) -> int:
    """d itself, once it is admissible and at most D_MAX; ValueError if not.

    The one admissibility check of the package: every function that takes
    a discriminant calls it first, so each is bounded by D_MAX.
    """
    if d > D_MAX:
        raise ValueError(f"d = {d} is above the supported ceiling D_MAX = {D_MAX}")
    if not admissible(d):
        raise ValueError(admissibility_reason(d))
    return d


def admissible_range(lo: int, hi: int) -> list[int]:
    """Admissible discriminants in [lo, hi]; ValueError if hi passes D_MAX."""
    if hi > D_MAX:
        raise ValueError(f"range end {hi} is above the supported ceiling D_MAX = {D_MAX}")
    return [d for d in range(max(lo, 1), hi + 1) if admissible(d)]


def range_cost(lo: int, hi: int) -> int:
    """Sum of the admissible d in [lo, hi], without enumerating them.

    Each admissible residue r mod 22 contributes an arithmetic series
    from its first d >= max(lo, 1) to its last d <= hi.
    """
    lo = max(lo, 1)
    total = 0
    for r in ADMISSIBLE_RESIDUES:
        first = lo + (r - lo) % 22
        last = hi - (hi - r) % 22
        if first <= last:
            total += ((last - first) // 22 + 1) * (first + last) // 2
    return total


def hls_set() -> frozenset[int]:
    """Discriminants whose Heegner divisor misses the trivector moduli."""
    return frozenset({2, 6, 8, 10, 18})


@functools.cache
def lambda11() -> GramLattice:
    """The fixed rank-2 lattice ((15, 7), (7, 4)) of discriminant 11."""
    return GramLattice(((15, 7), (7, 4)))


@dataclass(frozen=True)
class MarkingGram:
    """The rank-3 marking of discriminant d: Lambda11 extended by (a, b, c)."""

    d: int
    abc: tuple[int, int, int]
    gram: Matrix
    det: int  # computed from gram; marking_gram certifies det == d
    _lattice: GramLattice = field(compare=False, repr=False)

    def lattice(self) -> GramLattice:
        return self._lattice


def marking_gram(d: int) -> MarkingGram:
    """The unique orbit representative of a discriminant-d marking.

    The Gram matrix has rows (15, 7, a), (7, 4, b), (a, b, c) with
    (a, b, c) determined by d mod 22; its determinant is exactly d.
    """
    require_admissible(d)
    a, b, off = _ABC_BY_RESIDUE[d % 22]
    c = (d + off) // 11
    row1, row2 = lambda11().gram
    gram = (row1 + (a,), row2 + (b,), (a, b, c))
    lat = GramLattice(gram)
    if lat.det != d:
        raise CertificateError(f"d = {d}: the marking Gram has determinant {lat.det}")
    return MarkingGram(d, (a, b, c), lat.gram, lat.det, lat)


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
    require_admissible(d)
    if d % 22 != 0:
        return ClosedDiscForm((d,), qmod2z(11, d))
    dp = d // 11
    if dp % 11 == 0:
        return ClosedDiscForm((11, dp), None)
    return ClosedDiscForm((d,), qmod2z(3, 11) + qmod2z(1, dp))


def group_name(invariant_factors) -> str:
    """Z/d1 x Z/d2 ... for the given invariant factors."""
    return " x ".join(f"Z/{f}" for f in invariant_factors)


@dataclass(frozen=True)
class DiscFormCertificate:
    """The discriminant group of a marking, certified against the closed form."""

    marking: MarkingGram
    closed: ClosedDiscForm
    group: DiscGroup
    generator: tuple[Fraction, ...] | None  # attains closed.q; None if not cyclic


def certify_disc_form(d: int) -> DiscFormCertificate:
    """Cross-validate the closed form against the lattice machinery.

    On one lattice with one Smith form, the discriminant group of
    marking_gram(d) must have the closed form's invariant factors and, if
    cyclic, an explicit dual vector attaining the closed-form q-value
    exactly (shifts by basis vectors included, as the lattice is odd).
    CertificateError otherwise.
    """
    closed = disc_form_closed(d)
    mg = marking_gram(d)
    lat = mg.lattice()
    group = discriminant_group(lat)
    if group.invariant_factors != closed.invariant_factors:
        raise CertificateError(
            f"d = {d}: the lattice group {group_name(group.invariant_factors)}"
            f" is not the closed form's {group_name(closed.invariant_factors)}"
        )
    generator = None
    if closed.q is not None:
        generator = generator_with_q_value(lat, group, closed.q)
        if generator is None:
            raise CertificateError(f"d = {d}: no generator attains the closed form value")
    return DiscFormCertificate(mg, closed, group, generator)


def exhibit_generator(d: int) -> tuple[Fraction, ...]:
    """The certified generator of D(M_d); ValueError if the group is not cyclic."""
    generator = certify_disc_form(d).generator
    if generator is None:
        raise ValueError(f"d = {d}: discriminant group is not cyclic")
    return generator


def disc_form_agrees(d: int) -> bool:
    """Whether certify_disc_form(d) succeeds."""
    try:
        certify_disc_form(d)
    except CertificateError:
        return False
    return True

