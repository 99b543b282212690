"""Per-layer spans and counters, recorded from outside the peskine package.

The tracer wraps the public functions listed in LAYERS.  A module that
imports a function by name holds its own reference (trivector binds
polyring.buchberger, cli binds trivector.extract_cubic, associations
binds ntheory.is_square_mod), so every peskine module namespace that
binds a listed function gets the wrapper, not only the defining one.
Spans stay in memory as (name, start, end, parent, item) tuples and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "trivector": (
        "peskine_equations",
        "symbolic_contract",
        "restrict_to_subspace",
        "extract_cubic",
        "rank_at_point",
        "verify_flag",
        "smoothness_check",
    ),
    "polyring": (
        "pfaffian",
        "substitute_linear",
        "gcd_multivariate",
        "exact_div",
        "primitive_part",
        "buchberger",
        "normal_form",
        "only_zero_at_origin",
    ),
    "associations": (
        "k3_witness",
        "cubic_witness",
        "k3_closed",
        "cubic_closed",
        "association_row",
        "render_csv",
    ),
    "markings": ("marking_gram", "disc_form_agrees", "exhibit_generator"),
    "lattice": (
        "determinant",
        "smith_normal_form",
        "discriminant_group",
        "generator_with_q_value",
    ),
    "ntheory": ("factorize", "legendre", "is_square_mod"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Counters derived from return values and wrappers, with their units.
COUNTS = {
    "trivector.peskine_equations.terms": "count",
    "trivector.restrict_to_subspace.nonzero": "count",
    "polyring.buchberger.basis_size": "count",
    "polyring.buchberger.calls_per_prime": "count",
    "polyring.MultiPoly.constructions": "count",
    "associations.oracle.scan_len": "count",
    "associations.oracle.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    return units


def scan_modulus(kind: str, d: int) -> int | None:
    """Modulus the brute-force witness scan covers, None when none runs.

    Mirrors the case split documented on associations.k3_witness and
    associations.cubic_witness: cyclicity failures return None without
    scanning, cubic case 1 scans mod 6d, every other scan is mod 2d.
    """
    if kind == "k3":
        return None if d % 121 == 0 and d % 22 == 0 else 2 * d
    r6 = d % 6
    if r6 not in (0, 2):
        return None
    if d % 22 == 0 and d % 121 == 0:
        return None
    if r6 == 0 and d % 9 == 0:
        return None
    if r6 == 2 and d % 22 != 0:
        return 6 * d
    return 2 * d


class Tracer:
    """Span recorder that patches the peskine modules while installed."""

    def __init__(self, pk):
        self.spans: list = []
        self.stack: list[int] = []
        self.recording = True
        self.item = None
        self.totals: dict[str, int] = defaultdict(int)
        self._patches = []
        wrappers = {}
        for mod, fns in LAYERS.items():
            home = getattr(pk, mod)
            for fn in fns:
                orig = getattr(home, fn)
                hook = getattr(self, f"_on_{fn}", None)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod}.{fn}", orig, hook))
        for name, module in sorted(sys.modules.items()):
            if name != "peskine" and not name.startswith("peskine."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value, entry[1]))
        poly = pk.polyring.MultiPoly
        orig_init = poly.__init__

        @functools.wraps(orig_init)
        def counting_init(obj, *args, **kwargs):
            if self.recording:
                self.totals["polyring.MultiPoly.constructions"] += 1
            orig_init(obj, *args, **kwargs)

        self._patches.append((poly, "__init__", orig_init, counting_init))

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.item)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counters read from return values ---------------------------

    def _on_peskine_equations(self, args, system):
        self.totals["terms"] += sum(len(q.terms) for q in system.quartics)

    def _on_restrict_to_subspace(self, args, restricted):
        self.totals["nonzero"] += sum(1 for q in restricted if not q.is_zero())

    def _on_buchberger(self, args, basis):
        self.totals["basis_size"] += len(basis)

    def _on_k3_witness(self, args, k):
        self._scan("k3", args[0], k)

    def _on_cubic_witness(self, args, k):
        self._scan("cubic", args[0], k)

    def _scan(self, kind, d, k):
        modulus = scan_modulus(kind, d)
        if modulus is None:
            return
        self.totals["scans"] += 1
        if k is None:
            self.totals["scan_len"] += modulus
        else:
            self.totals["hits"] += 1
            self.totals["scan_len"] += k + 1

    # -- control ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, item):
        """Patch every binding, record spans for `item`, then restore."""
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        self.item = item
        try:
            yield self
        finally:
            for owner, attr, old, _ in self._patches:
                setattr(owner, attr, old)
            self.item = None

    @contextlib.contextmanager
    def paused(self):
        """Keep output checks out of the spans and counters."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- results --------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round span and counter figures over `rounds` traced rounds."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            calls[name] += 1
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
            # a span nested in one of the same name is already in its total
            up = parent
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up < 0:
                total[name] += dur
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.total_s"] = total[name] / rounds
            out[f"{name}.self_s"] = own[name] / rounds
        t = self.totals

        def mean(key, per):
            return t[key] / calls[per] if calls[per] else 0

        out["trivector.peskine_equations.terms"] = mean("terms", "trivector.peskine_equations")
        out["trivector.restrict_to_subspace.nonzero"] = mean(
            "nonzero", "trivector.restrict_to_subspace"
        )
        out["polyring.buchberger.basis_size"] = mean("basis_size", "polyring.buchberger")
        out["polyring.buchberger.calls_per_prime"] = (
            calls["polyring.buchberger"] / calls["trivector.smoothness_check"]
            if calls["trivector.smoothness_check"]
            else 0
        )
        out["polyring.MultiPoly.constructions"] = t["polyring.MultiPoly.constructions"] / rounds
        out["associations.oracle.scan_len"] = t["scan_len"] / rounds
        out["associations.oracle.hit_ratio"] = t["hits"] / t["scans"] if t["scans"] else 0
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                rec = {
                    "id": idx,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "item": item,
                }
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
