"""Spans around regula's public functions, installed from outside the package.

``Tracer.install()`` replaces each function listed in ``TARGETS`` by a
wrapper that records one span (name, start, end, parent) per call, and
patches every alias of it that another regula module imported, so
``radicals.conjugacy_classes`` is traced as well as
``classes.conjugacy_classes``.  Spans stay in memory until ``dump``.
``uninstall()`` puts the original functions back, so a process can time
untraced and traced passes of the same work.

Nothing under ``src/`` is changed; a target that no longer exists is
reported on stderr and left out.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# module -> names of the functions (or PermGroup methods) traced in it.
# ``None`` means every public function defined in that module.
TARGETS = {
    "perm_core": ("_schreier_sims", "PermGroup._raw_elements",
                  "PermGroup.normal_closure", "PermGroup.commutator_subgroup",
                  "PermGroup.derived_series", "PermGroup.lower_central_series",
                  "PermGroup.quotient", "PermGroup.coset_representatives",
                  "PermGroup.intermediate_index2", "PermGroup.point_stabilizer"),
    "classes": ("conjugacy_classes", "class_counts", "fused_counts",
                "singular_element_count"),
    "radicals": ("core", "certify_core", "fitting", "structure_summary"),
    "constructors": ("cyclic", "symmetric", "alternating", "dihedral", "base_group",
                     "direct_product", "wreath", "sylow2_sym2l", "affine_semilinear",
                     "glq_family", "projective_group", "from_generator_data",
                     "load_generator_file", "a6_extensions", "m10"),
    "exprs": ("parse_group_expr", "evaluate", "group_from_text"),
    "numtheory": None,
    "suites": ("run_suite",),
    "cli": ("main",),
}

MODULES = tuple(TARGETS)

# generator functions: the wrapper drains them inside the span so the
# span covers the enumeration itself, and counts what they yielded
ENUMERATIONS = {"perm_core.PermGroup._raw_elements": "perm_core.elements_enumerated"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {name: 0 for name in ENUMERATIONS.values()}
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)
        return traced

    def _wrap_enumeration(self, name, fn):
        enter, leave, counters = self._enter, self._exit, self.counters
        counter = ENUMERATIONS[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                items = list(fn(*args, **kwargs))
            finally:
                leave(idx)
            counters[counter] += len(items)
            return iter(items)
        return traced

    def install(self):
        import importlib

        modules = {m: importlib.import_module(f"regula.{m}") for m in TARGETS}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "regula" or key.startswith("regula.")]
        missing = []
        for mname, names in TARGETS.items():
            mod = modules[mname]
            if names is None:
                names = tuple(n for n, f in vars(mod).items()
                              if not n.startswith("_") and callable(f)
                              and not isinstance(f, type)
                              and getattr(f, "__module__", None) == mod.__name__)
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, attr, None)
                if original is None:
                    missing.append(f"{mname}.{name}")
                    continue
                span_name = f"{mname}.{name}"
                if span_name in ENUMERATIONS:
                    wrapper = self._wrap_enumeration(span_name, original)
                else:
                    wrapper = self._wrap(span_name, original)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for m in loaded:
                    for alias, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, alias, original, wrapper)
        if missing:
            print(f"perfbench: not traced (missing): {', '.join(missing)}", file=sys.stderr)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, fh)


# -- aggregation ---------------------------------------------------------------

def _inclusive(spans, names):
    """Total duration of spans named in ``names`` that have no ancestor
    named in ``names`` (so recursion and nesting are not counted twice)."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        above = parent >= 0 and inside[parent]
        hit = name in names
        inside[i] = above or hit
        if hit and not above:
            total += end - start
    return total


def _self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _cache_misses(spans, name):
    """(calls, misses) of ``name``: a call that led to no traced work below
    it is a cache hit, since every miss builds or enumerates a group."""
    has_child = [False] * len(spans)
    for _, _, _, parent in spans:
        if parent >= 0:
            has_child[parent] = True
    calls = misses = 0
    for i, span in enumerate(spans):
        if span[0] == name:
            calls += 1
            misses += has_child[i]
    return calls, misses


def layer_metrics(spans, counters):
    """Per-layer figures of one set of spans; times in seconds."""
    names = {s[0] for s in spans}

    def layer(prefix):
        return {n for n in names if n.startswith(prefix)}

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    own = _self_times(spans)
    self_by_module = {}
    for (name, *_), t in zip(spans, own):
        module = name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + t

    builders = layer("constructors.")
    certify = {"constructors.load_generator_file"}
    table_calls, table_misses = _cache_misses(spans, "classes.conjugacy_classes")
    eval_calls, eval_misses = _cache_misses(spans, "exprs.evaluate")
    partition_s = sum(t for (name, *_), t in zip(spans, own)
                      if name == "classes.conjugacy_classes")
    elements = counters.get("perm_core.elements_enumerated", 0)
    class_work_s = _inclusive(spans, {"classes.conjugacy_classes", "classes.fused_counts"})

    out = {
        "perm_core.schreier_sims_s": _inclusive(spans, {"perm_core._schreier_sims"}),
        "perm_core.schreier_sims_calls": calls("perm_core._schreier_sims"),
        "perm_core.normal_closure_s": _inclusive(spans, {"perm_core.PermGroup.normal_closure"}),
        "perm_core.normal_closure_calls": calls("perm_core.PermGroup.normal_closure"),
        "perm_core.derived_series_s": _inclusive(spans, {"perm_core.PermGroup.derived_series"}),
        "perm_core.quotient_s": _inclusive(spans, {"perm_core.PermGroup.quotient"}),
        "perm_core.quotient_calls": calls("perm_core.PermGroup.quotient"),
        "perm_core.enumerate_s": _inclusive(spans, {"perm_core.PermGroup._raw_elements"}),
        "perm_core.elements_enumerated": elements,
        "classes.partition_s": partition_s,
        "classes.fused_s": _inclusive(spans, {"classes.fused_counts"}),
        "classes.elements_per_s": elements / class_work_s if class_work_s else 0.0,
        "classes.table_calls": table_calls,
        "classes.table_hit_ratio": (table_calls - table_misses) / table_calls if table_calls else 0.0,
        "radicals.core_s": _inclusive(spans, {"radicals.core"}),
        "radicals.core_calls": calls("radicals.core"),
        "radicals.fitting_s": _inclusive(spans, {"radicals.fitting"}),
        "constructors.certify_s": _inclusive(spans, certify),
        "constructors.certify_calls": calls("constructors.load_generator_file"),
        "constructors.build_s": _inclusive(spans, builders) - _inclusive(spans, certify),
        "numtheory.s": _inclusive(spans, layer("numtheory.")),
        "numtheory.calls": sum(1 for s in spans if s[0].startswith("numtheory.")),
        "exprs.evaluate_s": _inclusive(spans, {"exprs.evaluate"}),
        "exprs.evaluate_calls": eval_calls,
        "exprs.memo_hit_ratio": (eval_calls - eval_misses) / eval_calls if eval_calls else 0.0,
        "trace.spans": len(spans),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = self_by_module.get(module, 0.0)
    return out


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
