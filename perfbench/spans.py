"""Spans around calls into ringlab's layers, recorded from outside the package.

``Tracer.install`` replaces each layer function listed in ``TARGETS`` by a
wrapper, in every ``ringlab`` module namespace that holds it, so calls
between layers (reports -> factor -> rings, ...) pass through a span.
Nothing under ``src/`` changes; the traced run only rebinds names.

A span has a name, start, end, parent and item id. A layer's self time is
its span's duration minus the time its child spans cover; the root span
of an item is ``cli``, so ``cli.residual`` is the item time the layer
spans leave over (argument handling, JSON output and parsing). Memoised
calls that hit the cache still open a span, and the time they take is
charged to that layer. Spans are kept in memory and written out when the
run ends; those shorter than LISTED_MIN_S are summed but not listed.

``rings.mul_calls``/``rings.add_calls`` count calls through the ``mul``
and ``add`` attributes of the rings the item works on: the ring that
``build_ring`` returns to its caller and each R(+)M a verifier builds.
They count carrier work only while carriers are Python closures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TARGETS = [
    ("specparse", "parse_spec", "specparse.build"),
    ("specparse", "parse_module_spec", "specparse.build"),
    ("specparse", "build_ring", "specparse.build"),
    ("specparse", "build_module", "specparse.build"),
    ("idealization", "idealize", "idealization.build"),
    ("rings", "units", "rings.units"),
    ("rings", "all_ideals", "rings.lattice"),
    ("rings", "maximal_ideals", "rings.primes"),
    ("rings", "min_primes", "rings.primes"),
    ("rings", "is_local", "rings.predicates"),
    ("rings", "is_field", "rings.predicates"),
    ("rings", "is_spir", "rings.predicates"),
    ("rings", "nilradical", "rings.predicates"),
    ("factor", "atoms", "factor.atoms"),
    ("factor", "divisor_graph", "factor.divisor_graph"),
    ("factor", "is_presimplifiable", "factor.presimplifiable"),
    ("factor", "is_accp", "factor.accp"),
    ("factor", "is_bfr", "factor.bfr"),
    ("factor", "is_atomic", "factor.atomic"),
    ("factor", "is_ufr_direct", "factor.ufr_direct"),
    ("factor", "bouvier_class", "factor.bouvier"),
    ("factor", "minimal_factorizations_of_zero", "factor.zero_search"),
    ("factor", "check_theorem_ufr", "factor.ufr_theorem"),
    ("factor", "check_prop_bfr", "factor.bfr_prop"),
    ("factor", "check_lemma_ubounded", "factor.ubounded_lemma"),
    ("modules", "all_submodules", "modules.submodules"),
    ("modules", "is_bfm", "modules.bfm"),
    ("modules", "is_semisimple", "modules.semisimple"),
    ("idealization", "verify_unit_criterion", "idealization.units"),
    ("idealization", "verify_ideal_shape", "idealization.shape"),
    ("idealization", "verify_prime_criterion", "idealization.primes"),
    ("idealization", "verify_ideal_product", "idealization.product"),
    ("blockalg", "verify_example25", "blockalg.example25"),
    ("reports", "analyze_ring", "reports.analyze_residual"),
    ("reports", "recheck_report", "reports.recheck"),
]

# span name -> (count metric, size of the result); each result is counted once
COUNTED = {
    "rings.lattice": ("rings.lattice_size", len),
    "factor.atoms": ("factor.atom_count", len),
    "factor.divisor_graph": ("factor.divisor_graph_edges", lambda G: G.number_of_edges()),
    "factor.zero_search": ("factor.zero_factorizations", len),
    "modules.submodules": ("modules.submodule_count", len),
}

ROOT = "cli"
BUILDS = ("specparse.build", "idealization.build")
LAYERS = sorted({name for _, _, name in TARGETS} | {ROOT})
COUNTS = sorted([m for m, _ in COUNTED.values()] + ["rings.mul_calls", "rings.add_calls"])
LISTED_MIN_S = 1e-4   # shorter spans are summed per layer but not listed


class Tracer:
    def __init__(self, stream=None):
        self.stream = stream            # if set, begin/end events are written as they happen
        self.self_time: dict[str, float] = defaultdict(float)
        self.band_time: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.band = None
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []    # (id, name, start, end, parent, item)
        self.item = None
        self._stack: list[list] = []    # [id, name, start, child_time]
        self._next_id = 0
        self._held: dict[int, object] = {}
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        if self.stream:
            self.stream.write(f"B {self._next_id} {name} {parent}\n")
            self.stream.flush()

    def end(self) -> None:
        t = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = t - start
        self.self_time[name] += dur - child
        self.band_time[str(self.band)][name] += dur - child
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if dur >= LISTED_MIN_S:
            self.spans.append((sid, name, start, t, parent, self.item))
        if self.stream:
            self.stream.write(f"E {sid} {dur - child!r}\n")
            self.stream.flush()

    def begin_item(self, item_id, band=None) -> None:
        self.item, self.band = item_id, band
        self._held.clear()
        self.begin(ROOT)

    def end_item(self) -> None:
        while self._stack:
            self.end()
        self._held.clear()

    # -- installation ----------------------------------------------------------

    def _wrapper(self, fn, name):
        tracer = self
        counted = COUNTED.get(name)

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                parent = tracer._stack[-2][1] if len(tracer._stack) > 1 else None
            finally:
                tracer.end()
            if counted and id(result) not in tracer._held:
                tracer._held[id(result)] = result
                tracer.counts[counted[0]] += counted[1](result)
            if name in BUILDS and parent not in BUILDS and hasattr(result, "mul"):
                tracer._count_carrier(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_carrier(self, R) -> None:
        counts = self.counts
        mul, add = R.mul, R.add

        def counted_mul(a, b):
            counts["rings.mul_calls"] += 1
            return mul(a, b)

        def counted_add(a, b):
            counts["rings.add_calls"] += 1
            return add(a, b)

        R.mul, R.add = counted_mul, counted_add

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "ringlab" or k.startswith("ringlab.")]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[f"ringlab.{modname}"], attr)
            wrapped = self._wrapper(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = {f"{name}_s": self.self_time.get(name, 0.0) for name in LAYERS}
        out["cli.residual_s"] = out.pop(f"{ROOT}_s")
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        return out
