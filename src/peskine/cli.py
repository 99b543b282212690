"""Command-line front end.

Subcommands: marking, assoc, table, peskine, verify-appendix.  Exit
codes: 0 success, 1 mathematical mismatch (closed/oracle disagreement,
fixture mismatch, failed pipeline stage), 2 input error.  All report
bodies on stdout are deterministic; timings go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction

from . import associations, fixtures, markings
from .lattice import discriminant_group, generator_with_q_value
from .ntheory import QmodTwoZ
from .polyring import format_poly, parse_poly
from .trivector import (
    CubicExtractionError,
    Flag,
    extract_cubic,
    parse_trivector,
    peskine_equations,
    rank_at_point,
    smoothness_check,
    standard_flag,
    verify_flag,
)

DEFAULT_PRIMES = (10007, 31013)
PRIME_ENV = "PESKINE_PRIMES"
PRIME_LIMIT = 2**31  # keeps the trial division of is_prime below 46 341 steps


class InputError(ValueError):
    pass


class MismatchError(RuntimeError):
    pass


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
        raise InputError(f"bad {source}: {raw!r}") from exc
    if len(parts) != 2:
        raise InputError(f"{source} must list exactly two primes, e.g. 10007,31013")
    for p in parts:
        if p >= PRIME_LIMIT:
            raise InputError(f"{source}: {p} is not below the prime bound 2^31")
    return parts[0], parts[1]


def _is_basis_spec(spec: str) -> bool:
    return spec.startswith("e") and spec[1:].isdigit()


def _basis_index(spec: str) -> int:
    """N of a basis-vector spec eN, checked to lie in 1..10."""
    i = int(spec[1:])
    if not 1 <= i <= 10:
        raise InputError(f"basis index out of range in {spec!r}")
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
        raise InputError(f"cannot parse vector {spec!r}") from exc
    if len(coords) != 10:
        raise InputError(f"vector {spec!r} must have 10 coordinates")
    return coords


def _parse_flag(spec: str) -> Flag:
    """Format w1:rows where rows are eN, eN..eM ranges, or coordinates.

    Example: e1:e1..e6
    """
    parts = spec.split(":")
    if len(parts) < 2:
        raise InputError("flag spec needs w1:rows, e.g. e1:e1..e6")
    w1 = _parse_vector(parts[0])
    rows: list[tuple[int, ...]] = []
    for token in parts[1:]:
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..", 1)
            if not (_is_basis_spec(lo) and _is_basis_spec(hi)):
                raise InputError(f"bad range {token!r}")
            for i in range(_basis_index(lo), _basis_index(hi) + 1):
                rows.append(tuple(int(t == i - 1) for t in range(10)))
        else:
            rows.append(_parse_vector(token))
    if len(rows) != 6:
        raise InputError(f"flag needs 6 row vectors, got {len(rows)}")
    try:
        return Flag(w1, tuple(rows))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _q_str(q: QmodTwoZ | None) -> str:
    return "-" if q is None else f"{q} mod 2Z"


def _check_d(d: int) -> int:
    """d itself, once it is admissible and within the ceiling D_MAX."""
    if d > markings.D_MAX:
        raise InputError(f"d = {d} is above the supported ceiling D_MAX = {markings.D_MAX}")
    if not markings.admissible(d):
        raise InputError(markings.admissibility_reason(d))
    return d


def cmd_marking(args) -> int:
    d = _check_d(args.d)
    mg = markings.marking_gram(d)
    closed = markings.disc_form_closed(d)
    lat = mg.lattice()
    group = discriminant_group(lat)
    print(f"d = {d}")
    print(f"admissible: yes ({markings.admissibility_reason(d)})")
    print(f"(a, b, c) = {mg.abc}")
    print("gram:")
    for row in mg.gram:
        print("  " + "  ".join(f"{x:4d}" for x in row))
    print(f"det = {d}")
    factors = " x ".join(f"Z/{f}" for f in closed.invariant_factors)
    print(f"closed form: group {factors}, q(generator) = {_q_str(closed.q)}")
    lat_factors = " x ".join(f"Z/{f}" for f in group.invariant_factors)
    lat_q = ", ".join(str(q) for q in group.qvals)
    print(f"lattice:     group {lat_factors}, q-values ({lat_q}) mod 2Z")
    if closed.q is not None:
        witness = generator_with_q_value(lat, group, closed.q)
        if witness is None:
            raise MismatchError(f"d = {d}: no generator attains the closed form value")
        wstr = ", ".join(str(Fraction(x)) for x in witness)
        print(f"agreement: yes, generator ({wstr}) attains {closed.q}")
    else:
        ok = group.invariant_factors == closed.invariant_factors
        if not ok:
            raise MismatchError(f"d = {d}: invariant factors disagree")
        print("agreement: yes (non-cyclic branch, groups match)")
    return 0


def cmd_assoc(args) -> int:
    d = _check_d(args.d)
    kinds = ("k3", "cubic") if args.kind == "both" else (args.kind,)
    status = 0
    print(f"d = {d}")
    for kind in kinds:
        if kind == "k3":
            closed = associations.k3_closed(d)
            witness = associations.k3_witness(d)
        else:
            closed = associations.cubic_closed(d)
            witness = associations.cubic_witness(d)
        oracle = witness is not None
        line = f"{kind}: closed={'yes' if closed else 'no'} oracle={'yes' if oracle else 'no'}"
        if witness is not None:
            line += f" witness k={witness}"
        if closed != oracle:
            line += "  DISAGREEMENT"
            status = 1
        print(line)
    if status:
        raise MismatchError(f"d = {d}: closed form and oracle disagree")
    return 0


def _table_ds(args) -> list[int]:
    if args.fixture_check and not (args.range or args.d):
        return sorted(associations.table1_fixture())
    ds: list[int] = []
    if args.range:
        try:
            lo, hi = args.range.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise InputError(f"bad range {args.range!r}, expected A..B") from exc
        if max(lo_i, hi_i) > markings.D_MAX:
            raise InputError(
                f"range {args.range!r} passes the supported ceiling D_MAX = {markings.D_MAX}"
            )
        ds.extend(markings.admissible_range(lo_i, hi_i))
    ds.extend(_check_d(d) for d in args.d or ())
    return ds


def cmd_table(args) -> int:
    ds = _table_ds(args)
    rows = associations.table1(ds)
    out = associations.render_csv(rows) if args.format == "csv" else associations.render_text(rows)
    sys.stdout.write(out)
    if args.fixture_check:
        problems = associations.check_fixture()
        if problems:
            for p in problems:
                print(f"fixture mismatch: {p}", file=sys.stderr)
            raise MismatchError(f"{len(problems)} fixture mismatches")
        print(f"fixture check: all {len(associations.table1_fixture())} rows match")
    return 0


def _load_sigma(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_trivector(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def cmd_peskine(args) -> int:
    sigma = _load_sigma(args.sigma)
    action = args.action
    if action == "equations":
        system = peskine_equations(sigma)
        for (i, j), q in zip(system.removed_pairs, system.quartics):
            print(f"# removed rows/columns {i} {j}")
            print(format_poly(q))
        return 0
    if action == "rank":
        if not args.at:
            raise InputError("rank needs --at VECTOR")
        v = _parse_vector(args.at)
        print(rank_at_point(sigma, v))
        return 0
    flag = _parse_flag(args.flag) if args.flag else standard_flag()
    if action == "flag-verify":
        ok = verify_flag(sigma, flag)
        print("flag annihilates trivector" if ok else "flag does NOT annihilate trivector")
        return 0 if ok else 1
    if action == "cubic":
        try:
            cubic = extract_cubic(sigma, flag)
        except (ValueError, CubicExtractionError) as exc:
            raise MismatchError(str(exc)) from exc
        print(format_poly(cubic, prefix="v"))
        return 0
    if action == "smooth":
        p1, p2 = _parse_primes(args.primes)
        try:
            cubic = extract_cubic(sigma, flag)
        except (ValueError, CubicExtractionError) as exc:
            raise MismatchError(str(exc)) from exc
        verdicts = []
        for p in (p1, p2):
            v = smoothness_check(cubic, p)
            if v.kind == "bad-prime":
                raise InputError(f"p = {p}: {v.reason}")
            verdicts.append(v)
            print(f"p = {p}: {v.kind}")
        print("combined verdict: " + ("Smooth" if all(v.is_smooth() for v in verdicts) else "Singular"))
        return 0 if all(v.is_smooth() for v in verdicts) else 1
    raise InputError(f"unknown peskine action {action!r}")


def cmd_verify_appendix(args) -> int:
    p1, p2 = _parse_primes(args.primes)
    stages: list[tuple[str, float]] = []

    def stage(name: str, started: float):
        stages.append((name, time.perf_counter() - started))
        print(f"stage {name}: pass")

    t = time.perf_counter()
    if args.sigma:
        sigma = _load_sigma(args.sigma)
    else:
        sigma = fixtures.appendix_sigma()
    if args.cubic:
        try:
            with open(args.cubic, "r", encoding="utf-8") as fh:
                reference = parse_poly(fh.read(), 6, prefix="v")
        except OSError as exc:
            raise InputError(f"cannot read {args.cubic}: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"{args.cubic}: {exc}") from exc
    else:
        reference = fixtures.appendix_cubic()
    stage("load", t)

    flag = standard_flag()
    t = time.perf_counter()
    if not verify_flag(sigma, flag):
        print("stage flag-verify: FAIL")
        raise MismatchError("flag does not annihilate the trivector")
    stage("flag-verify", t)

    t = time.perf_counter()
    r = rank_at_point(sigma, flag.w1)
    if r != 4:
        print("stage rank: FAIL")
        raise MismatchError(f"rank at the distinguished point is {r}, expected 4")
    stage("rank", t)

    t = time.perf_counter()
    try:
        cubic = extract_cubic(sigma, flag)
    except (ValueError, CubicExtractionError) as exc:
        print("stage cubic: FAIL")
        raise MismatchError(str(exc)) from exc
    if cubic != reference:
        print("stage cubic: FAIL")
        raise MismatchError("extracted cubic does not match the reference")
    stage("cubic", t)

    for p in (p1, p2):
        t = time.perf_counter()
        v = smoothness_check(cubic, p)
        if v.kind == "bad-prime":
            print(f"stage smooth-{p}: FAIL")
            raise InputError(f"p = {p}: {v.reason}")
        if not v.is_smooth():
            print(f"stage smooth-{p}: FAIL")
            raise MismatchError(f"cubic is singular mod {p}")
        stage(f"smooth-{p}", t)

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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    except associations.CriterionMismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
