"""Command-line front end.

Subcommands: marking, assoc, table, peskine, verify-appendix.  Exit
codes: 0 success, 1 mathematical mismatch (closed/oracle disagreement,
fixture mismatch, failed pipeline stage or certificate), 2 input error,
refused before anything is printed.  The library certifies and bounds;
main alone maps a CertificateError to 1 and a ValueError to 2.  All
report bodies on stdout are deterministic; timings go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

from . import associations, fixtures, markings
from .ntheory import CertificateError
from .polyring import MultiPoly, format_poly, parse_poly
from .trivector import (
    Flag,
    extract_cubic,
    parse_trivector,
    peskine_equations,
    rank_at_point,
    require_prime,
    smoothness_check,
    standard_flag,
    verify_flag,
)

DEFAULT_PRIMES = (10007, 31013)
PRIME_ENV = "PESKINE_PRIMES"
PRIME_LIMIT = 2**31  # keeps the trial division of is_prime below 46 341 steps


def _parse_primes(arg: str | None) -> tuple[int, int]:
    """The prime pair from --primes, else PESKINE_PRIMES, else the default."""
    if arg is not None:
        source, raw = "--primes", arg
    else:
        source, raw = PRIME_ENV, os.environ.get(PRIME_ENV)
        if not raw:
            return DEFAULT_PRIMES
    try:
        parts = [int(x) for x in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"bad {source}: {raw!r}") from exc
    if len(parts) != 2:
        raise ValueError(f"{source} must list exactly two primes, e.g. 10007,31013")
    for p in parts:
        if p >= PRIME_LIMIT:
            raise ValueError(f"{source}: {p} is not below the prime bound 2^31")
    if parts[0] == parts[1]:
        raise ValueError(f"{source}: the two primes must differ, got {parts[0]} twice")
    return require_prime(parts[0]), require_prime(parts[1])


def _is_basis_spec(spec: str) -> bool:
    return spec.startswith("e") and spec[1:].isdigit()


def _basis_index(spec: str) -> int:
    """N of a basis-vector spec eN, checked to lie in 1..10."""
    i = int(spec[1:])
    if not 1 <= i <= 10:
        raise ValueError(f"basis index out of range in {spec!r}")
    return i


def _parse_vector(spec: str) -> tuple[int, ...]:
    """Either eN for a standard basis vector or 10 comma-separated ints."""
    spec = spec.strip()
    if _is_basis_spec(spec):
        i = _basis_index(spec)
        return tuple(int(t == i - 1) for t in range(10))
    try:
        coords = tuple(int(x) for x in spec.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {spec!r}") from exc
    if len(coords) != 10:
        raise ValueError(f"vector {spec!r} must have 10 coordinates")
    return coords


def _parse_flag(spec: str) -> Flag:
    """Format w1:rows where rows are eN, eN..eM ranges, or coordinates.

    Example: e1:e1..e6
    """
    parts = spec.split(":")
    if len(parts) < 2:
        raise ValueError("flag spec needs w1:rows, e.g. e1:e1..e6")
    w1 = _parse_vector(parts[0])
    rows: list[tuple[int, ...]] = []
    for token in parts[1:]:
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..", 1)
            if not (_is_basis_spec(lo) and _is_basis_spec(hi)):
                raise ValueError(f"bad range {token!r}")
            for i in range(_basis_index(lo), _basis_index(hi) + 1):
                rows.append(tuple(int(t == i - 1) for t in range(10)))
        else:
            rows.append(_parse_vector(token))
    if len(rows) != 6:
        raise ValueError(f"flag needs 6 row vectors, got {len(rows)}")
    return Flag(w1, tuple(rows))


def cmd_marking(args) -> int:
    cert = markings.certify_disc_form(args.d)
    mg, closed, group = cert.marking, cert.closed, cert.group
    print(f"d = {mg.d}")
    print(f"admissible: yes ({markings.admissibility_reason(mg.d)})")
    print(f"(a, b, c) = {mg.abc}")
    print("gram:")
    for row in mg.gram:
        print("  " + "  ".join(f"{x:4d}" for x in row))
    print(f"det = {mg.det}")
    closed_q = "-" if closed.q is None else f"{closed.q} mod 2Z"
    closed_group = markings.group_name(closed.invariant_factors)
    print(f"closed form: group {closed_group}, q(generator) = {closed_q}")
    lat_q = ", ".join(str(q) for q in group.qvals)
    lat_group = markings.group_name(group.invariant_factors)
    print(f"lattice:     group {lat_group}, q-values ({lat_q}) mod 2Z")
    if cert.generator is None:
        print("agreement: yes (non-cyclic branch, groups match)")
    else:
        wstr = ", ".join(map(str, cert.generator))
        print(f"agreement: yes, generator ({wstr}) attains {closed.q}")
    return 0


def cmd_assoc(args) -> int:
    kinds = ("k3", "cubic") if args.kind == "both" else (args.kind,)
    witnesses = [(kind, associations.agreed_witness(kind, args.d)) for kind in kinds]
    print(f"d = {args.d}")
    for kind, witness in witnesses:
        verdict = "no" if witness is None else "yes"
        found = "" if witness is None else f" witness k={witness}"
        print(f"{kind}: closed={verdict} oracle={verdict}{found}")
    return 0


def _table_ds(args) -> list[int]:
    """The admissible d of --range, then each --d, their sum within RANGE_COST_MAX."""
    if args.fixture_check and not (args.range or args.d):
        return sorted(associations.table1_fixture())
    lo_i, hi_i = 1, 0  # the empty range, when --range is not given
    if args.range:
        try:
            lo, hi = args.range.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise ValueError(f"bad range {args.range!r}, expected A..B") from exc
        if max(lo_i, hi_i) > markings.D_MAX:
            raise ValueError(
                f"range {args.range!r} passes the supported ceiling D_MAX = {markings.D_MAX}"
            )
    explicit = [markings.require_admissible(d) for d in args.d or ()]
    cost = markings.range_cost(lo_i, hi_i) + sum(explicit)
    if cost > markings.RANGE_COST_MAX:
        asked = [f"range {args.range!r}"] * bool(args.range) + ["--d"] * bool(explicit)
        raise ValueError(
            f"{' plus '.join(asked)} sums to {cost} over its admissible d, above the"
            f" supported cost RANGE_COST_MAX = {markings.RANGE_COST_MAX}"
        )
    return markings.admissible_range(lo_i, hi_i) + explicit


def cmd_table(args) -> int:
    rows = associations.table1(_table_ds(args))
    problems = associations.check_fixture() if args.fixture_check else []
    if problems:
        raise CertificateError(f"{len(problems)} fixture mismatches: {'; '.join(problems)}")
    out = associations.render_csv(rows) if args.format == "csv" else associations.render_text(rows)
    sys.stdout.write(out)
    if args.fixture_check:
        print(f"fixture check: all {len(associations.table1_fixture())} rows match")
    return 0


def _read(path: str, parse):
    """parse(text) of a UTF-8 file; a failure to read or parse names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_cubic(text: str) -> MultiPoly:
    return parse_poly(text, 6, prefix="v")


def cmd_peskine(args) -> int:
    sigma = _read(args.sigma, parse_trivector)
    action = args.action
    if action == "equations":
        system = peskine_equations(sigma)
        for (i, j), q in zip(system.removed_pairs, system.quartics):
            print(f"# removed rows/columns {i} {j}")
            print(format_poly(q))
        return 0
    if action == "rank":
        if not args.at:
            raise ValueError("rank needs --at VECTOR")
        v = _parse_vector(args.at)
        print(rank_at_point(sigma, v))
        return 0
    flag = _parse_flag(args.flag) if args.flag else standard_flag()
    if action == "flag-verify":
        ok = verify_flag(sigma, flag)
        print("flag annihilates trivector" if ok else "flag does NOT annihilate trivector")
        return 0 if ok else 1
    if action == "cubic":
        print(format_poly(extract_cubic(sigma, flag), prefix="v"))
        return 0
    primes = _parse_primes(args.primes)  # action == "smooth"
    cubic = extract_cubic(sigma, flag)
    smooth = True
    for p in primes:
        kind = smoothness_check(cubic, p).kind
        smooth = smooth and kind == "smooth"
        print(f"p = {p}: {kind}")
    print("combined verdict: " + ("Smooth" if smooth else "Singular"))
    return 0 if smooth else 1


def cmd_verify_appendix(args) -> int:
    primes = _parse_primes(args.primes)
    stages: list[tuple[str, float]] = []

    @contextlib.contextmanager
    def stage(name: str):
        """Time one stage; print FAIL if a certificate fails in it, else pass."""
        started = time.perf_counter()
        try:
            yield
        except CertificateError:
            print(f"stage {name}: FAIL")
            raise
        stages.append((name, time.perf_counter() - started))
        print(f"stage {name}: pass")

    # an unreadable or malformed input file is an input error, not a failed stage
    with stage("load"):
        sigma = _read(args.sigma, parse_trivector) if args.sigma else fixtures.appendix_sigma()
        reference = _read(args.cubic, _parse_cubic) if args.cubic else fixtures.appendix_cubic()
    flag = standard_flag()
    with stage("flag-verify"):
        if not verify_flag(sigma, flag):
            raise CertificateError("flag does not annihilate the trivector")
    with stage("rank"):
        r = rank_at_point(sigma, flag.w1)
        if r != 4:
            raise CertificateError(f"rank at the distinguished point is {r}, expected 4")
    with stage("cubic"):
        cubic = extract_cubic(sigma, flag)
        if cubic != reference:
            raise CertificateError("extracted cubic does not match the reference")
    for p in primes:
        with stage(f"smooth-{p}"):
            if not smoothness_check(cubic, p).is_smooth():
                raise CertificateError(f"cubic is singular mod {p}")

    print("verify-appendix: PASS")
    for name, dt in stages:
        print(f"  {name}: {dt:.2f}s", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peskine",
        description="Exact arithmetic for trivector degeneracy loci and their associated geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("marking", help="marking Gram matrix and discriminant form")
    pm.add_argument("--d", type=int, required=True)
    pm.set_defaults(func=cmd_marking)

    pa = sub.add_parser("assoc", help="associated K3 / cubic criteria, both routes")
    pa.add_argument("--d", type=int, required=True)
    pa.add_argument("--kind", choices=("k3", "cubic", "both"), default="both")
    pa.set_defaults(func=cmd_assoc)

    pt = sub.add_parser("table", help="association table for a range of discriminants")
    pt.add_argument("--range", help="inclusive range A..B, admissible values only")
    pt.add_argument("--d", type=int, action="append", help="explicit discriminant (repeatable)")
    pt.add_argument("--format", choices=("csv", "text"), default="csv")
    pt.add_argument("--fixture-check", action="store_true")
    pt.set_defaults(func=cmd_table)

    pp = sub.add_parser("peskine", help="operations on a trivector file")
    pp.add_argument("sigma", help="trivector file in `i j k c` format")
    pp.add_argument(
        "action", choices=("equations", "rank", "flag-verify", "cubic", "smooth")
    )
    pp.add_argument("--at", help="vector for rank, eN or 10 comma-separated ints")
    pp.add_argument("--flag", help="flag spec w1:rows, default e1:e1..e6")
    pp.add_argument("--primes", help="two primes for smooth, default 10007,31013")
    pp.set_defaults(func=cmd_peskine)

    pv = sub.add_parser(
        "verify-appendix", help="one-shot pipeline on the shipped example"
    )
    pv.add_argument("--primes", help="two primes, default 10007,31013")
    pv.add_argument("--sigma", help="override the shipped trivector file")
    pv.add_argument("--cubic", help="override the shipped reference cubic")
    pv.set_defaults(func=cmd_verify_appendix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
