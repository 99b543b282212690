"""The benchmark's workloads: seeded inputs, timed calls and output checks.

Each workload is built once per set-up from the imported package and the
seed, and then runs items one after another: a closed loop with a single
client in one process, no threads and no pool.  An item returns the time
spent inside the program's calls; the checks on its outputs run off the
clock and, in a traced run, outside the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import time
from dataclasses import dataclass, field
from itertools import combinations

PRIMES = (10007, 31013)  # the documented default pair of `smooth`
DENSE_P = 10007

APPENDIX_STDOUT = (
    "stage load: pass\n"
    "stage flag-verify: pass\n"
    "stage rank: pass\n"
    "stage cubic: pass\n"
    "stage smooth-10007: pass\n"
    "stage smooth-31013: pass\n"
    "verify-appendix: PASS\n"
)


@dataclass
class Item:
    """Outcome of one item: timed seconds, per-stage samples, checks."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    stages: dict[str, list[float]] = field(default_factory=dict)
    digest: object = field(default_factory=hashlib.sha256)

    def sample(self, stage: str, value: float) -> None:
        self.stages.setdefault(stage, []).append(value)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_cli(pk, argv) -> tuple[int | None, str, float]:
    """Call peskine.cli.main in-process: exit code, stdout, seconds.

    An exception counts as a failed call and is reported as code None.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = pk.cli.main(argv)
        except Exception as exc:  # a raise is a failed operation, not a crash
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


class Workload:
    """The imported package, the seeded generator and set-up check failures."""

    name = ""
    paused = contextlib.nullcontext  # a traced run puts Tracer.paused here

    def __init__(self, pk, seed: int, smoke: bool):
        self.pk = pk
        self.rng = random.Random(seed)
        self.setup_failures = 0

    def item(self, index: int) -> Item:
        raise NotImplementedError


class Appendix(Workload):
    """The shipped discriminant-24 example through `verify-appendix`."""

    name = "appendix"

    def __init__(self, pk, seed, smoke):
        super().__init__(pk, seed, smoke)
        sigma = pk.fixtures.appendix_sigma()
        pk.fixtures.appendix_cubic()
        flag = pk.trivector.standard_flag()
        warm = pk.trivector.verify_flag(sigma, flag) and pk.trivector.rank_at_point(sigma, flag.w1) == 4
        self.setup_failures += 0 if warm else 1

    def item(self, index):
        it = Item()
        code, out, seconds = run_cli(self.pk, ["verify-appendix"])
        it.seconds = seconds
        it.sample("verify_appendix_s", seconds)
        it.op(code == 0 and out == APPENDIX_STDOUT)
        it.digest.update(out.encode())
        return it


def flagged_trivector(rng: random.Random) -> dict:
    """Full-density triples over Q that vanish on the flag e1 in <e1..e6>."""
    coeffs = {}
    for i, j, k in combinations(range(1, 11), 3):
        if i == 1 and j <= 6:
            continue
        c = rng.randint(-9, 9)
        if c:
            coeffs[(i, j, k)] = c
    return coeffs


def dense_trivector(rng: random.Random, smoke: bool) -> dict:
    """All 120 triples over F_p with nonzero coefficients (30 in smoke)."""
    triples = list(combinations(range(1, 11), 3))
    if smoke:
        triples = rng.sample(triples, 30)
    return {t: rng.randrange(1, DENSE_P) for t in triples}


class Generated(Workload):
    """Seeded trivectors: (a) a planted flag over Q, through rank, cubic and
    smooth; (b) dense over F_p, through equations and Pfaffian/rank
    coherence at seeded points."""

    name = "generated"
    POOL = 16
    POINTS = 3

    def __init__(self, pk, seed, smoke):
        super().__init__(pk, seed, smoke)
        tv = pk.trivector
        self.flag = tv.standard_flag()
        self.inputs = []
        for _ in range(self.POOL):
            a = tv.Trivector(flagged_trivector(self.rng))
            b = tv.Trivector(dense_trivector(self.rng, smoke), DENSE_P)
            points = [
                tuple(self.rng.randrange(1, DENSE_P) for _ in range(10))
                for _ in range(1 if smoke else self.POINTS)
            ]
            self.inputs.append((a, b, points))
        warm = tv.rank_at_point(self.inputs[0][0], self.flag.w1)
        self.setup_failures += 0 if warm in (0, 2, 4) else 1

    def item(self, index):
        a, b, points = self.inputs[index % self.POOL]
        it = Item()
        self._flagged(a, it)
        self._dense(b, points, it)
        return it

    def _flagged(self, sigma, it: Item) -> None:
        tv = self.pk.trivector
        try:
            start = time.perf_counter()
            rank = tv.rank_at_point(sigma, self.flag.w1)
            cubic = tv.extract_cubic(sigma, self.flag)
            mid = time.perf_counter()
            verdicts = [tv.smoothness_check(cubic, p) for p in PRIMES]
            end = time.perf_counter()
        except Exception as exc:  # the library's certificates raise
            it.op(False)
            it.digest.update(f"raised {type(exc).__name__}".encode())
            return
        it.seconds += end - start
        it.sample("cubic_s", mid - start)
        it.sample("smooth_s", end - mid)
        with self.paused():
            text = self.pk.polyring.format_poly(cubic, prefix="v")
            ok = (
                rank in (0, 2, 4)
                and cubic.nvars == 6
                and cubic.total_degree() == 3
                and cubic.is_homogeneous()
                and self.pk.polyring.primitive_part(cubic) == cubic
                # "singular" is a correct verdict; only bad-prime is not
                and all(v.kind in ("smooth", "singular") for v in verdicts)
            )
        it.op(ok)
        kinds = ",".join(v.kind for v in verdicts)
        it.digest.update(f"{rank}|{text}|{kinds}".encode())

    def _dense(self, sigma, points, it: Item) -> None:
        tv = self.pk.trivector
        try:
            start = time.perf_counter()
            system = tv.peskine_equations(sigma)
            mid = time.perf_counter()
            coherent = all(self._coherent(sigma, system, v) for v in points)
            end = time.perf_counter()
        except Exception as exc:
            it.op(False)
            it.digest.update(f"raised {type(exc).__name__}".encode())
            return
        it.seconds += end - start
        it.sample("equations_s", mid - start)
        with self.paused():
            ok = (
                coherent
                and len(system.quartics) == 45
                and all(q.total_degree() in (-1, 4) and q.is_homogeneous() for q in system.quartics)
            )
            for q in system.quartics:
                it.digest.update(repr(sorted(q.terms.items())).encode())
        it.op(ok)

    def _coherent(self, sigma, system, v) -> bool:
        """Each quartic at v equals the Pfaffian of the numeric contraction's
        principal minor, and rank <= 6 exactly when all of them vanish."""
        poly = self.pk.polyring
        p = sigma.p
        m = [[poly.MultiPoly.constant(x, 1, p) for x in row] for row in self.pk.trivector.contract(sigma, v)]
        values = [q.evaluate(v) for q in system.quartics]
        for (i, j), value in zip(system.removed_pairs, values):
            keep = [t for t in range(10) if t not in (i - 1, j - 1)]
            pf = poly.pfaffian([[m[r][c] for c in keep] for r in keep]).constant_value()
            if pf != value:
                return False
        low_rank = self.pk.trivector.rank_at_point(sigma, v) <= 6
        return low_rank == all(x == 0 for x in values)


_ASSOC_LINE = re.compile(r"^(k3|cubic): closed=(yes|no) oracle=(yes|no)( witness k=\d+)?$")


class Discriminants(Workload):
    """Association table, single `assoc` calls and the marking sweep.

    An item is one batch: `table --range A..A+W-1` with A drawn from
    [40000, 48000], a run of `assoc --d D --kind both` calls with seeded
    admissible D <= 5000, and a quarter of the marking sweep over the
    admissible d <= 10^4.  The three parts take similar time, so a
    regression in any of them moves the batch time.
    """

    name = "discriminants"
    POOL = 64
    WIDTH, ASSOCS, SWEEP_PARTS = 250, 300, 4
    SMOKE_WIDTH, SMOKE_ASSOCS, SMOKE_MARKINGS = 20, 5, 20

    def __init__(self, pk, seed, smoke):
        super().__init__(pk, seed, smoke)
        mk = pk.markings
        small = mk.admissible_range(2, 5000)
        width = self.SMOKE_WIDTH if smoke else self.WIDTH
        assocs = self.SMOKE_ASSOCS if smoke else self.ASSOCS
        self.ranges = []
        self.assoc_ds = []
        for _ in range(self.POOL):
            lo = self.rng.randint(40000, 48000)
            self.ranges.append((lo, lo + width - 1))
            self.assoc_ds.append([self.rng.choice(small) for _ in range(assocs)])
        sweep = mk.admissible_range(2, 10**4)
        if smoke:
            self.sweep_parts = [sweep[: self.SMOKE_MARKINGS]]
        else:
            self.sweep_parts = [sweep[i :: self.SWEEP_PARTS] for i in range(self.SWEEP_PARTS)]
        code, out, _ = run_cli(pk, ["table", "--fixture-check"])
        fixture_ok = code == 0 and out.endswith("fixture check: all 20 rows match\n")
        self.setup_failures += 0 if fixture_ok else 1

    def item(self, index):
        it = Item()
        self._table(*self.ranges[index % self.POOL], it)
        for d in self.assoc_ds[index % self.POOL]:
            self._assoc(d, it)
        self._markings(self.sweep_parts[index % len(self.sweep_parts)], it)
        return it

    def _yn(self, d):
        a = self.pk.associations
        return a.k3_closed(d), a.cubic_closed(d)

    def _table(self, lo, hi, it: Item) -> None:
        code, out, seconds = run_cli(self.pk, ["table", "--range", f"{lo}..{hi}"])
        it.seconds += seconds
        with self.paused():
            ds = self.pk.markings.admissible_range(lo, hi)
            lines = [self.pk.associations.CSV_HEADER]
            for d in ds:
                k3, cubic = self._yn(d)
                lines.append(f"{d},{int(k3)},{int(cubic)},,")
            expected = "\n".join(lines) + "\n"
        it.sample("table_rows", len(ds))
        it.sample("table_s", seconds)
        it.op(code == 0 and out == expected)
        it.digest.update(out.encode())

    def _assoc(self, d, it: Item) -> None:
        code, out, seconds = run_cli(self.pk, ["assoc", "--d", str(d), "--kind", "both"])
        it.seconds += seconds
        it.sample("assoc_ms", seconds * 1e3)
        with self.paused():
            closed = dict(zip(("k3", "cubic"), self._yn(d)))
        lines = out.splitlines()
        ok = code == 0 and len(lines) == 3 and lines[0] == f"d = {d}"
        for line, kind in zip(lines[1:], ("k3", "cubic")):
            m = _ASSOC_LINE.match(line)
            want = "yes" if closed[kind] else "no"
            ok = ok and bool(m) and m.group(1) == kind and m.group(2) == want == m.group(3)
            ok = ok and (m.group(4) is not None) == closed[kind]
        it.op(ok)
        it.digest.update(out.encode())

    def _markings(self, ds, it: Item) -> None:
        mk, lat = self.pk.markings, self.pk.lattice
        start = time.perf_counter()
        for d in ds:
            try:
                ok = lat.determinant(mk.marking_gram(d).lattice()) == d and mk.disc_form_agrees(d)
            except Exception:
                ok = False
            it.op(ok)
        seconds = time.perf_counter() - start
        it.seconds += seconds
        it.sample("markings", len(ds))
        it.sample("markings_s", seconds)
        it.digest.update(f"markings {len(ds)}".encode())


WORKLOADS = {w.name: w for w in (Appendix, Generated, Discriminants)}
