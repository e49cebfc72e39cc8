"""Per-layer spans and counts for a traced run, with no change to src/.

install() wraps each layer's public functions at every nilcomm module
binding that holds them (so `from .rings import make_zn` in dsl.py is
wrapped too), and the concrete structure classes' constructors.  Each
call opens a span: name, start, end, parent span and the op it belongs to.
A span's self time is its duration minus the time its child spans cover.
uninstall() restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

from spec import CHECK_IDS, MODULE_PROPERTIES


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# ---------------------------------------------------------------------------
# Counts taken at the layer boundaries


def _ring_axiom_triples(counts, args, kwargs):
    ring = args[0]
    exhaustive = _arg(args, kwargs, 1, "exhaustive")
    samples = _arg(args, kwargs, 2, "samples")
    cfg, n = ring.config, ring.size
    if exhaustive is None:  # the engine's auto regime
        over_cap = n ** 3 > cfg.decision_cap and not cfg.force
        exhaustive = (ring.tabulated and n ** 3 <= cfg.full_check_budget
                      and not over_cap)
    counts["rings.axioms_calls"] += 1
    if samples is None:
        samples = cfg.validation_samples
    counts["rings.axiom_triples"] += n ** 3 if exhaustive else samples


def _module_axiom_triples(counts, args, kwargs):
    module = args[0]
    exhaustive = _arg(args, kwargs, 1, "exhaustive")
    samples = _arg(args, kwargs, 2, "samples")
    cfg, nm, nr = module.config, module.size, module.ring.size
    cost = max(nr * nr * nm, nr * nm * nm, nm ** 3)
    if exhaustive is None:  # the engine's auto regime
        exhaustive = (cost <= cfg.full_check_budget
                      and not (cost > cfg.decision_cap and not cfg.force))
    if samples is None:
        samples = cfg.validation_samples
    counts["modules.axioms_calls"] += 1
    counts["modules.axiom_triples"] += (
        nm ** 3 + nr * nr * nm + nr * nm * nm if exhaustive else 3 * samples)


def _ring_built(counts, args, kwargs):
    ring = args[0]
    counts["rings.build_calls"] += 1
    if ring._add_rows is not None:  # add, mul and neg tables
        counts["rings.table_cells"] += 2 * ring.size ** 2 + ring.size


def _module_built(counts, args, kwargs):
    module = args[0]
    counts["modules.build_calls"] += 1
    if module._add_rows is not None:  # add, act and neg tables
        nm, nr = module.size, module.ring.size
        counts["modules.table_cells"] += nm * nm + nr * nm + nm


def _nil_set_called(counts, args, kwargs):
    module = args[0]
    counts["nilpotency.nil_set_calls"] += 1
    if module._nil_cache is not None:
        counts["nilpotency.nil_set_cache_hits"] += 1
    else:
        counts["nilpotency.nil_pairs"] += module.ring.size * module.size


def _pointwise_called(counts, args, kwargs):
    counts["nilpotency.pointwise_calls"] += 1


def _decided(counts, args, kwargs):
    module = args[0]
    counts["deciders.triples"] += module.ring.size ** 2 * module.size


def _ring_decided(counts, args, kwargs):
    counts["deciders.triples"] += args[0].size ** 3


# (module, attribute, span name or function of the call's arguments,
#  count hook run before the call)
FUNCTIONS = (
    ("dsl", "parse_structure", "dsl.parse", None),
    ("dsl", "elaborate", "dsl.elaborate", None),
    ("rings", "check_ring_axioms", "rings.axioms", _ring_axiom_triples),
    ("rings", "center", "rings.derived", None),
    ("rings", "regular_elements", "rings.derived", None),
    ("rings", "nil_ring_set", "rings.derived", None),
    ("rings", "make_ring_hom", "rings.derived", None),
    ("rings", "verify_theta_iso", "rings.derived", None),
    ("modules", "check_module_axioms", "modules.axioms", _module_axiom_triples),
    ("modules", "cyclic_submodule", "modules.submodule", None),
    ("modules", "submodule_generated", "modules.submodule", None),
    ("nilpotency", "nil_set", "nilpotency.nil_set", _nil_set_called),
    ("nilpotency", "is_nilpotent_squared", "nilpotency.pointwise",
     _pointwise_called),
    ("nilpotency", "is_nilpotent_power", "nilpotency.pointwise",
     _pointwise_called),
    ("nilpotency", "torsion_sets", "nilpotency.torsion", None),
    ("deciders", "decide",
     lambda *a, **kw: "deciders." + _arg(a, kw, 1, "prop"), _decided),
    ("deciders", "ring_is_semicommutative", "deciders.ring", _ring_decided),
    ("deciders", "ring_is_nil_semicommutative", "deciders.ring", _ring_decided),
    ("deciders", "verify_nonsemicommutative_witness", "deciders.replay", None),
    ("deciders", "verify_not_nil_semicommutative_witness", "deciders.replay",
     None),
    ("localization", "multiplicative_closure", "localization", None),
    ("localization", "localize_ring", "localization", None),
    ("localization", "localize_module", "localization", None),
    ("localization", "check_localization_transfer", "localization", None),
    ("harness", "run_check",
     lambda *a, **kw: "harness.check." + _arg(a, kw, 0, "check_id"), None),
    ("harness", "reverify_refutation", "harness.replay", None),
    ("cli", "main", "cli", None),
)

# (module, class names, span name, count hook run after a successful build)
CONSTRUCTORS = (
    ("rings", ("ZnRing", "MatrixRing", "ProductRing", "PolyQuotientRing"),
     "rings.build", _ring_built),
    ("modules", ("RegularModule", "MatrixModule", "ProductModule", "SubModule",
                 "QuotientModule", "InducedModule"),
     "modules.build", _module_built),
)

# The element loop of nil_set is its own work, not separate pointwise calls.
_INLINE = {"nilpotency.pointwise": "nilpotency.nil_set"}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, label, before=None, after=None):
        tracer = self
        inline_in = _INLINE.get(label) if isinstance(label, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if inline_in and stack and tracer.spans[stack[-1]][0] == inline_in:
                return fn(*args, **kwargs)
            name = label(*args, **kwargs) if callable(label) else label
            if before is not None:
                before(tracer.counts, args, kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    tracer.op]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer.counts, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        packages = {name: importlib.import_module("nilcomm." + name)
                    for name in ("cli", "dsl", "rings", "modules", "nilpotency",
                                 "deciders", "localization", "harness")}
        loaded = [m for n, m in sys.modules.items()
                  if n == "nilcomm" or n.startswith("nilcomm.")]
        for module_name, attr, label, before in FUNCTIONS:
            original = getattr(packages[module_name], attr)
            wrapped = self._wrap(original, label, before=before)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for module_name, class_names, label, after in CONSTRUCTORS:
            for class_name in class_names:
                cls = getattr(packages[module_name], class_name)
                original = cls.__dict__["__init__"]
                self._restore.append((cls, "__init__", original))
                cls.__init__ = self._wrap(original, label, after=after)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- metrics -------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(self time, total time) per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own: Counter = Counter()
        total: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - covered[i]
            total[name] += end - start
        return own, total

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric of spec.PER_LAYER, zeros included."""
        own, total = self.self_times()
        c = self.counts
        decider_s = sum(own["deciders." + p] for p in MODULE_PROPERTIES)
        decider_s += own["deciders.ring"]
        out = {
            "rings.axioms_s": own["rings.axioms"],
            "rings.axioms_calls": c["rings.axioms_calls"],
            "rings.axiom_triples": c["rings.axiom_triples"],
            "rings.build_self_s": own["rings.build"],
            "rings.build_calls": c["rings.build_calls"],
            "rings.table_cells": c["rings.table_cells"],
            "rings.derived_s": own["rings.derived"],
            "modules.axioms_s": own["modules.axioms"],
            "modules.axioms_calls": c["modules.axioms_calls"],
            "modules.axiom_triples": c["modules.axiom_triples"],
            "modules.build_self_s": own["modules.build"],
            "modules.build_calls": c["modules.build_calls"],
            "modules.table_cells": c["modules.table_cells"],
            "modules.submodule_s": own["modules.submodule"],
            "nilpotency.nil_set_s": own["nilpotency.nil_set"],
            "nilpotency.nil_set_calls": c["nilpotency.nil_set_calls"],
            "nilpotency.nil_set_cache_hits": c["nilpotency.nil_set_cache_hits"],
            "nilpotency.nil_pairs": c["nilpotency.nil_pairs"],
            "nilpotency.pointwise_s": own["nilpotency.pointwise"],
            "nilpotency.pointwise_calls": c["nilpotency.pointwise_calls"],
            "nilpotency.torsion_s": own["nilpotency.torsion"],
            **{f"deciders.{p}_s": own["deciders." + p]
               for p in MODULE_PROPERTIES},
            "deciders.ring_s": own["deciders.ring"],
            "deciders.triples": c["deciders.triples"],
            "deciders.triples_per_s": (c["deciders.triples"] / decider_s
                                       if decider_s > 0 else 0.0),
            "deciders.replay_s": own["deciders.replay"],
            "harness.replay_s": own["harness.replay"],
            "dsl.parse_s": own["dsl.parse"],
            "dsl.elaborate_self_s": own["dsl.elaborate"],
            "localization.s": own["localization"],
            "cli.self_s": own["cli"],
            **{f"harness.check.{cid}_s": total["harness.check." + cid]
               for cid in CHECK_IDS},
            "trace.unattributed_s": traced_wall - sum(own.values()),
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        return out
