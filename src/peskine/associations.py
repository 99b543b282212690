"""Associated K3 surfaces and cubic fourfolds for special trivectors.

For each admissible discriminant d the association questions are decided
twice, by independent routes that must agree:

  * a closed form in terms of the prime divisors of d, and
  * a brute-force congruence oracle (ntheory.square_root_mod) that
    solves the gluing equation between discriminant forms: it reduces
    coeff*k^2 = a to k^2 = b modulo m' and walks the one residue class
    b mod m' up to the square of half a period of k -> coeff*k^2 mod m
    for a perfect square.  The walk is sieved: a candidate that is no
    square mod 64, 63, 65 or 11 is skipped, and every other one is
    decided by isqrt.  The sieve's tables come from squaring every
    residue mod those four moduli, and a failed table entry is only a
    necessary condition for an integer square, so the oracle stays brute
    force and shares nothing with legendre() or factorize().

The oracle congruences come from matching the generator value of the
marking complement's discriminant form against the K3 or cubic side.
The complement is an even lattice; in the branches with 22 | d its
generator value is 8/11 - 11/d mod 2Z (the even representative), which
fixes the integer constants below.  The resulting verdicts reproduce
every row of the reference table, which is shipped as a fixture.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

from .fixtures import table1_text
from .markings import require_admissible
from .ntheory import CertificateError, factorize, legendre, square_root_mod


class CriterionMismatchError(CertificateError):
    """Closed form and oracle disagree; always a bug, never data."""


def k3_closed(d: int) -> bool:
    """Closed-form test for an associated K3 surface of degree d.

    True iff d is divisible by neither 4 nor 121 and every odd prime
    dividing d is a square modulo 11 (p = 11 itself counts as a square,
    which is what makes d = 22 succeed).
    """
    require_admissible(d)
    if d % 4 == 0 or d % 121 == 0:
        return False
    return all(
        legendre(p, 11) >= 0 for p, _ in factorize(d) if p != 2
    )


def k3_witness(d: int) -> int | None:
    """Witness k for the K3 gluing congruence, or None.

    For d not divisible by 22 the congruence is k^2 = -11 (mod 2d).
    For 22 | d with d' = d/11 the discriminant group is cyclic only if
    121 does not divide d, and the congruence is k^2 = 8d' - 11
    (mod 2d).  The scan walks the class of -11 (or 8d' - 11) mod 2d up
    to (d/2)^2, about d/8 candidates, for a perfect square.  It uses
    gcd, one modular inverse, tables of squares made by squaring residues
    and isqrt, with no factorization, Legendre symbol or CRT, so this
    route stays independent of k3_closed.
    """
    require_admissible(d)
    if d % 22 != 0:
        return square_root_mod(-11, 2 * d)
    if d % 121 == 0:
        return None
    return square_root_mod(8 * (d // 11) - 11, 2 * d)


def k3_oracle(d: int) -> bool:
    """Brute-force counterpart of k3_closed."""
    return k3_witness(d) is not None


def cubic_closed(d: int) -> bool:
    """Closed-form test for an associated cubic fourfold of discriminant d.

    Conditions: (a) d = 0 or 2 mod 6; (b) d divisible by neither 9 nor
    121; (c) 33 a square modulo every prime divisor of d, read off the
    Legendre symbol (0 counts, so p = 3 and p = 11 pass, and so does
    p = 2, where every residue is a square); (d) if 66 | d, the number
    of prime divisors of d congruent to 2 mod 3, counted with
    multiplicity and including 2 and 11, is odd.
    """
    require_admissible(d)
    if d % 6 not in (0, 2):
        return False
    if d % 9 == 0 or d % 121 == 0:
        return False
    factors = factorize(d)
    if not all(p == 2 or legendre(33, p) >= 0 for p, _ in factors):
        return False
    if d % 66 == 0:
        count = sum(e for p, e in factors if p % 3 == 2)
        if count % 2 == 0:
            return False
    return True


def cubic_witness(d: int) -> int | None:
    """Witness k for the cubic gluing congruence, or None.

    Case split on d mod 6 and divisibility by 22, with d' = d/11 in
    case 3 and d' = d/66 in case 4:

      1. d = 2 mod 6, 22 does not divide d:
             -33 k^2 = 2d - 1          (mod 6d)
      2. d = 0 mod 6, 22 does not divide d, 9 does not divide d:
             -11 k^2 = 2(d/3) - 3      (mod 2d)
      3. d = 2 mod 6, 22 | d, 121 does not divide d:
             ((2d-1)/3) k^2 = 8d' - 11 (mod 2d)
      4. 66 | d, neither 9 nor 121 divides d:
             (44d' - 3) k^2 = 48d' - 11 (mod 2d)

    Cyclicity failures (9 | d in cases 2 and 4, 121 | d in cases 3 and
    4) return None.  Each scan divides out g = gcd(coeff, m), inverts
    coeff/g mod m/g and walks one residue class mod m/g for a perfect
    square, at most d/8 + 1 candidates, sieved by tables of squares, with
    no factorization, Legendre symbol or CRT, as in k3_witness.
    """
    require_admissible(d)
    r6 = d % 6
    if r6 not in (0, 2):
        return None
    if d % 22 != 0:
        if r6 == 2:
            return square_root_mod(2 * d - 1, 6 * d, coeff=-33)
        if d % 9 == 0:
            return None
        return square_root_mod(2 * (d // 3) - 3, 2 * d, coeff=-11)
    if d % 121 == 0:
        return None
    if r6 == 2:
        dp = d // 11
        return square_root_mod(8 * dp - 11, 2 * d, coeff=(2 * d - 1) // 3)
    if d % 9 == 0:
        return None
    dp = d // 66
    return square_root_mod(48 * dp - 11, 2 * d, coeff=44 * dp - 3)


def cubic_oracle(d: int) -> bool:
    """Brute-force counterpart of cubic_closed."""
    return cubic_witness(d) is not None


def agreed_witness(kind: str, d: int) -> int | None:
    """The oracle witness of kind "k3" or "cubic", once the closed form agrees.

    The one comparison of the two routes: CriterionMismatchError when
    the closed form and the oracle disagree on whether d is associated.
    """
    if kind == "k3":
        label, closed, witness = "K3", k3_closed(d), k3_witness(d)
    elif kind == "cubic":
        label, closed, witness = "cubic", cubic_closed(d), cubic_witness(d)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    oracle = witness is not None
    if closed != oracle:
        raise CriterionMismatchError(
            f"d = {d}: {label} closed form says {closed}, oracle says {oracle}"
        )
    return witness


@dataclass(frozen=True)
class AssociationRow:
    """One discriminant's association verdicts plus table fixtures.

    assoc_k3 and assoc_cubic are computed (closed form and oracle must
    agree before the row exists); hilb2_fixture and fano_fixture are
    read-only values from the shipped table and are None off-fixture.
    """

    d: int
    assoc_k3: bool
    assoc_cubic: bool
    hilb2_fixture: bool | None = None
    fano_fixture: bool | None = None


def association_row(d: int) -> AssociationRow:
    """Compute both verdicts for d, erroring on closed/oracle mismatch."""
    k3 = agreed_witness("k3", d) is not None
    cubic = agreed_witness("cubic", d) is not None
    fix = table1_fixture().get(d)
    return AssociationRow(
        d,
        k3,
        cubic,
        hilb2_fixture=fix.hilb2_fixture if fix else None,
        fano_fixture=fix.fano_fixture if fix else None,
    )


def table1(ds) -> list[AssociationRow]:
    """Association rows for the given discriminants, in input order."""
    return [association_row(d) for d in ds]


@functools.cache
def table1_fixture() -> dict[int, AssociationRow]:
    """The shipped reference table, keyed by discriminant."""
    return parse_table(table1_text())


def parse_table(text: str) -> dict[int, AssociationRow]:
    rows = {}
    reader = csv.DictReader(io.StringIO(text))
    for rec in reader:
        d = int(rec["d"])
        rows[d] = AssociationRow(
            d,
            rec["assoc_k3"] == "1",
            rec["assoc_cubic"] == "1",
            hilb2_fixture=rec["hilb2_fixture"] == "1",
            fano_fixture=rec["fano_fixture"] == "1",
        )
    return rows


CSV_HEADER = "d,assoc_k3,assoc_cubic,hilb2_fixture,fano_fixture"


def render_csv(rows) -> str:
    """CSV rendering; fixture columns are empty off-fixture."""
    def cell(v):
        return "" if v is None else ("1" if v else "0")

    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.d},{cell(r.assoc_k3)},{cell(r.assoc_cubic)},"
            f"{cell(r.hilb2_fixture)},{cell(r.fano_fixture)}"
        )
    return "\n".join(lines) + "\n"


def render_text(rows) -> str:
    """Aligned text rendering with yes/no/- cells."""
    def cell(v):
        return "-" if v is None else ("yes" if v else "no")

    header = ("d", "assoc_k3", "assoc_cubic", "hilb2", "fano")
    table = [header]
    for r in rows:
        table.append(
            (
                str(r.d),
                cell(r.assoc_k3),
                cell(r.assoc_cubic),
                cell(r.hilb2_fixture),
                cell(r.fano_fixture),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines) + "\n"


def check_fixture() -> list[str]:
    """Compare computed verdicts against the shipped table.

    Returns a list of mismatch descriptions; empty means every fixture
    row is reproduced.
    """
    problems = []
    for d, fix in sorted(table1_fixture().items()):
        row = association_row(d)
        if row.assoc_k3 != fix.assoc_k3:
            problems.append(
                f"d = {d}: computed assoc_k3 = {row.assoc_k3}, "
                f"fixture says {fix.assoc_k3}"
            )
        if row.assoc_cubic != fix.assoc_cubic:
            problems.append(
                f"d = {d}: computed assoc_cubic = {row.assoc_cubic}, "
                f"fixture says {fix.assoc_cubic}"
            )
    return problems
