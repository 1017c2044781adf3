"""Spans around calls into the library, installed from outside it.

`Tracer.install` replaces every listed function in every namespace that
holds it: the defining module and each `cislim` module that imported it
with `from ... import`.  Patching only the
defining module would miss, for example, `limit._transit` calling
`composite` through its own binding.  Intra-module calls go through module
globals, so they are caught as well.

Spans stay in memory as lists
`[id, parent, name, start, end, pass, item, extra]`
and are written out once, when the run ends.  `extra` holds a small value
taken from the call's arguments or result (a shape, a size, a reference);
anything costly to derive from it is computed after the run.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("finspace", "cis", "limit", "cat", "homology", "interchange", "cli", "gallery")

ID, PARENT, NAME, START, END, PASS, ITEM, EXTRA = range(8)


# span name -> (module, attribute, extra hook or None)
WRAPPED = {
    "finspace.subspace": ("finspace", "subspace", None),
    "finspace.coproduct": ("finspace", "coproduct", None),
    "finspace.quotient": ("finspace", "quotient", None),
    "finspace.product": ("finspace", "product", None),
    "finspace.final_space": ("finspace", "final_space", None),
    "finspace.classify_map": ("finspace", "classify_map", None),
    "finspace.components": ("finspace", "components", None),
    "finspace.find_homeomorphism": ("finspace", "find_homeomorphism", None),
    "cis.validate_cis": ("cis", "validate_cis", None),
    "cis.composite": ("cis", "composite", lambda a, o: (a[0], a[1], a[2])),
    "cis.semicomponible": ("cis", "semicomponible", None),
    "limit.attaching_space": ("limit", "attaching_space", None),
    "limit.build_fundamental": ("limit", "build_fundamental", lambda a, o: len(o.x.points)),
    "limit.verify_limit_axioms": ("limit", "verify_limit_axioms", lambda a, o: a[0].stage_count),
    "limit.verify_gluing_laws": ("limit", "verify_gluing_laws", None),
    "limit.has_weak_topology": ("limit", "has_weak_topology", None),
    "limit.images_closed": ("limit", "images_closed", None),
    "limit.cover_profile": ("limit", "cover_profile", None),
    "homology.gf2_rref": ("homology", "gf2_rref", lambda a, o: a[0].shape),
    "homology.gf2_rank": ("homology", "gf2_rank", None),
    "homology.gf2_solve": ("homology", "gf2_solve", None),
    "homology.gf2_inverse": ("homology", "gf2_inverse", None),
    "homology.gf2_nullspace": ("homology", "gf2_nullspace", None),
    "homology.gf2_column_basis": ("homology", "gf2_column_basis", None),
    "homology.order_complex": ("homology", "order_complex", lambda a, o: (a[0], o)),
    "homology.boundary_matrix": ("homology", "boundary_matrix", lambda a, o: o.shape),
    "homology.betti_mod2": ("homology", "betti_mod2", lambda a, o: a[0]),
    "homology.chain_map_matrix": ("homology", "chain_map_matrix", None),
    "homology.induced_matrix": ("homology", "induced_matrix", None),
    "homology.stage_homology_sequence": ("homology", "stage_homology_sequence", None),
    "homology.functorial_invariance_check": ("homology", "functorial_invariance_check", None),
    "homology.counter_functorial_check": ("homology", "counter_functorial_check", None),
    "cat.validate_morphism": ("cat", "validate_morphism", None),
    "cat.compose_morphisms": ("cat", "compose_morphisms", None),
    "cat.induced_fundamental_map": ("cat", "induced_fundamental_map", None),
    "cat.cis_direct_limit": ("cat", "cis_direct_limit", None),
    "cat.check_limit_compatibility": ("cat", "check_limit_compatibility", None),
    "interchange.cis_from_doc": ("interchange", "cis_from_doc", None),
    "interchange.limit_from_doc": ("interchange", "limit_from_doc", None),
    "interchange.morphism_from_doc": ("interchange", "morphism_from_doc", None),
    "interchange.diagram_from_doc": ("interchange", "diagram_from_doc", None),
    "interchange.dumps": ("interchange", "dumps", lambda a, o: len(o)),
    "gallery.search_non_fundamental": (
        "gallery", "search_non_fundamental", lambda a, o: o.examined,
    ),
}
WRAPPED["cli.main"] = ("cli", "main", None)  # argument parsing around every verb
for _verb in ("validate", "limit", "verify", "morphism", "diagram_limit", "homology",
              "invariance", "search", "fuzz"):
    WRAPPED[f"cli.{_verb.replace('_', '-')}"] = ("cli", f"cmd_{_verb}", None)

FROM_DOC = tuple(n for n in WRAPPED if n.startswith("interchange.") and n.endswith("_from_doc"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item: tuple = (None, None)
        self._patches: list[tuple[object, str, object]] = []
        self.finspaces_built = 0

    # ---------- recording ----------

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, *self._item, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[EXTRA] = hook(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def item(self, pass_no: int, item_id: str):
        """A root span covering one workload item; every span opened inside
        it carries the pass number and the item's id."""
        self._item = (pass_no, item_id)
        rec = [len(self.spans), -1, "bench.item", 0.0, 0.0, pass_no, item_id, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            self._item = (None, None)

    # ---------- patching ----------

    def install(self):
        import cislim.finspace

        namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("cislim")]
        for name, (module, attr, hook) in WRAPPED.items():
            orig = getattr(sys.modules[f"cislim.{module}"], attr)
            wrapped = self._wrap(name, orig, hook)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapped)

        cls = cislim.finspace.FinSpace
        orig_post_init = cls.__post_init__

        def counted_post_init(obj):
            self.finspaces_built += 1
            orig_post_init(obj)

        self._patches.append((cls, "__post_init__", orig_post_init))
        cls.__post_init__ = counted_post_init

    def uninstall(self):
        for ns, key, orig in reversed(self._patches):
            setattr(ns, key, orig)
        self._patches.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:EXTRA]) + "\n")

    # ---------- analysis ----------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.
        Calls nest strictly on one thread, so children never overlap."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out


def _growth(spans, name, small, large, size):
    """log(time ratio) / log(size ratio) between two items of a size ladder,
    from the first `name` span of each item in each pass, summed over passes."""
    first = {}
    for s in spans:
        if s[NAME] == name and s[ITEM] in (small, large):
            first.setdefault((s[PASS], s[ITEM]), s)
    dur = {small: 0.0, large: 0.0}
    sz = {}
    for (_, item), s in first.items():
        dur[item] += s[END] - s[START]
        sz[item] = size(s)
    if len(sz) < 2:
        return 0.0
    return math.log(dur[large] / dur[small]) / math.log(sz[large] / sz[small])


def _distinct_ratio(spans, name, key):
    """Distinct call keys over calls within each pass, averaged over passes."""
    keys = defaultdict(list)
    for s in spans:
        if s[NAME] == name:
            keys[s[PASS]].append(key(s[EXTRA]))
    if not keys:
        return 0.0
    return sum(len(set(k)) / len(k) for k in keys.values()) / len(keys)


def layer_metrics(tracer: Tracer, passes: int, pass_seconds: float, ladders) -> dict:
    """Per-pass layer metrics from `passes` traced passes whose mean wall
    time is `pass_seconds`.  `ladders` maps a span name to the (small, large)
    item ids that form its size ladder."""
    spans = tracer.spans
    selfs = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_s = defaultdict(float)
    for s, st in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
        layer_s[s[NAME].split(".")[0]] += st

    def extras(name):
        return [s[EXTRA] for s in spans if s[NAME] == name]

    # value identity of systems, hashing each distinct object once
    canon: dict = {}
    by_id: dict[int, int] = {}
    for c, _, _ in extras("cis.composite"):
        if id(c) not in by_id:
            by_id[id(c)] = canon.setdefault(c, len(canon))

    totals = {
        "homology.gf2_rref.cells": sum(r * c for r, c in extras("homology.gf2_rref")),
        "homology.boundary_matrix.cells": sum(r * c for r, c in extras("homology.boundary_matrix")),
        "homology.order_complex.simplices": sum(
            len(k.simplices) for _, k in extras("homology.order_complex")
        ),
        "cis.composite.steps": sum(j - i + 1 for _, i, j in extras("cis.composite")),
        "limit.verify_limit_axioms.stage_pairs": sum(
            n * (n - 1) // 2 for n in extras("limit.verify_limit_axioms")
        ),
        "limit.points_built": sum(extras("limit.build_fundamental")),
        "finspace.FinSpace.built": tracer.finspaces_built,
        "gallery.search_non_fundamental.examined": sum(extras("gallery.search_non_fundamental")),
        "interchange.dumps.bytes": sum(extras("interchange.dumps")),
        "interchange.from_doc.calls": sum(calls[n] for n in FROM_DOC),
        "interchange.from_doc.self_s": sum(self_s[n] for n in FROM_DOC),
        "trace.uncovered_s": layer_s["bench"],
    }
    for name in WRAPPED:
        totals[f"{name}.calls"] = calls[name]
        totals[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        totals[f"layer.{layer}.self_s"] = layer_s[layer]
    out = {k: v / passes for k, v in totals.items()}

    out["homology.order_complex.distinct_ratio"] = _distinct_ratio(
        spans, "homology.order_complex", lambda e: e[0]
    )
    out["cis.composite.distinct_ratio"] = _distinct_ratio(
        spans, "cis.composite", lambda e: (by_id[id(e[0])], e[1], e[2])
    )
    sizes = {
        "homology.betti_mod2": lambda s: len(s[EXTRA].simplices),
        "limit.verify_limit_axioms": lambda s: s[EXTRA],
    }
    for name, size in sizes.items():
        ladder = ladders.get(name)
        out[f"{name}.growth_exp"] = _growth(spans, name, *ladder, size) if ladder else 0.0
    out["trace.run_s"] = pass_seconds
    return out
