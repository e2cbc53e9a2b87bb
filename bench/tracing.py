"""Traced runs: spans and counters wrapped around the library from outside.

A span wrapper records ``[name, start, end, parent, note, error]`` for
every call of a public function (or of a few constructors and methods)
while the tracer is active; spans stay in memory and are written out when
the run ends.  A layer's self time is its spans' time minus the time of
their child spans.  Frame operations are far too frequent for spans, so a
second pass only counts them.

Installing a wrapper replaces every binding of the original that the
package holds: module globals (``from .x import y`` names and package
re-exports), the dispatch tables in module globals, and class attributes.
:func:`unwrapped_bindings` then scans for any binding left over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

NAME, START, END, PARENT, NOTE, ERROR = range(6)

# Modules whose public functions get spans.  ``lattice`` is counted instead.
SPAN_MODULES = ("relations", "crisp", "fuzzy", "type2", "category", "model_io", "cli", "generators")
# Called once per element by sort keys; a span would dwarf the work.
NO_SPAN = {"relations.element_sort_key"}


def _note_len_first(args, _out):
    return len(args[0])


def _note_len_out(_args, out):
    return len(out)


def _note_found(_args, out):
    return out is not None


def _note_exit(_args, out):
    return out


SPAN_METHODS = {
    "relations": {
        "FuzzyRelation": {"__init__": _note_len_first, "then": _note_len_out, "union": None},
        "FuzzySet": {"__init__": None, "union": None},
    },
    "fuzzy": {"FuzzyPlaceGraph": {"__init__": None}, "FuzzyLinkGraph": {"__init__": None}, "FuzzyBigraph": {"__init__": None}},
    "type2": {
        "Type2FuzzyPlaceGraph": {"__init__": None},
        "Type2FuzzyLinkGraph": {"__init__": None},
        "Type2FuzzyBigraph": {"__init__": None},
    },
    "category": {"ArrowSystem": {"compose": None}},
}

SPAN_NOTES = {
    "type2.find_support_equivalence": _note_found,
    "model_io.parse": _note_len_first,
    "model_io.serialize": _note_len_out,
    "cli.run": _note_exit,
}

COUNTED_METHODS = {
    "FrameValue": ("meet", "join", "leq", "is_bottom"),
    "Frame": ("value", "check_value"),
}


class Tracer:
    def __init__(self, lib, namespaces):
        self.lib = lib
        self.namespaces = namespaces
        self.active = False
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._patches: list = []
        self._originals: dict = {}

    # --- wrappers ------------------------------------------------------------

    def _span(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                rec[ERROR] = type(exc).__name__
                stack.pop()
                raise
            rec[END] = perf_counter()
            stack.pop()
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        wrapper.bench_wrapper = True
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.bench_wrapper = True
        return wrapper

    def end_op(self):
        """Close what an op left open, e.g. after a ``RecursionError``."""
        end = perf_counter()
        for index in self._stack:
            self.spans[index][END] = end
        self._stack.clear()

    # --- installing ------------------------------------------------------------

    def install_spans(self):
        for short in SPAN_MODULES:
            module = getattr(self.lib, short)
            for attr, value in sorted(vars(module).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in NO_SPAN
                ):
                    self._replace(value, self._span(name, value, SPAN_NOTES.get(name)))
            for cls_name, methods in SPAN_METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for meth, note in methods.items():
                    self._patch_class(cls, meth, self._span(f"{short}.{cls_name}.{meth}", cls.__dict__[meth], note))
        self._verify()

    def install_counters(self):
        for cls_name, methods in COUNTED_METHODS.items():
            cls = getattr(self.lib.lattice, cls_name)
            for meth in methods:
                self._patch_class(cls, meth, self._counter(f"lattice.{meth}", cls.__dict__[meth]))
        self._verify()

    def _patch_class(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        self._originals[id(original)] = original
        self._patches.append((cls, attr, original, "class"))
        setattr(cls, attr, wrapper)
        self._replace(original, wrapper)

    def _replace(self, original, wrapper):
        """Point every binding of ``original`` in the namespaces at ``wrapper``."""
        self._originals[id(original)] = original
        for ns in self.namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, key, value, "item"))
                    ns[key] = wrapper
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, v, "item"))
                            value[k] = wrapper
                elif isinstance(value, tuple) and _contains(value, original):
                    self._patches.append((ns, key, value, "item"))
                    ns[key] = _substitute(value, original, wrapper)

    def remove(self):
        for owner, key, original, how in reversed(self._patches):
            if how == "class":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()
        self._originals.clear()

    def _verify(self):
        leftover = unwrapped_bindings(self.namespaces, self._originals)
        if leftover:
            raise RuntimeError("unwrapped bindings: " + ", ".join(leftover))

    # --- output ------------------------------------------------------------------

    def write(self, path: str):
        names = sorted({rec[NAME] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[r[NAME]], r[START], r[END], r[PARENT], r[NOTE], r[ERROR]] for r in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "note", "error"], "spans": rows}, handle)


def _contains(value, target) -> bool:
    return any(v is target or (isinstance(v, tuple) and _contains(v, target)) for v in value)


def _substitute(value: tuple, target, wrapper) -> tuple:
    return tuple(
        wrapper if v is target else _substitute(v, target, wrapper) if isinstance(v, tuple) else v
        for v in value
    )


def unwrapped_bindings(namespaces, originals) -> list:
    """Where an original still sits: module globals, one level into dicts
    and tuples, class dicts, and the defaults and closures of functions."""
    found = []

    def visit(value, where, depth=0):
        if id(value) in originals and originals[id(value)] is value:
            found.append(where)
            return
        if depth > 1:
            return
        if isinstance(value, dict):
            for k, v in value.items():
                visit(v, f"{where}[{k!r}]", depth + 1)
        elif isinstance(value, (tuple, list)):
            for i, v in enumerate(value):
                visit(v, f"{where}[{i}]", depth + 1)
        elif inspect.isfunction(value) and not hasattr(value, "bench_wrapper"):
            extras = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
            extras += [cell.cell_contents for cell in value.__closure__ or () if _filled(cell)]
            for v in extras:
                if id(v) in originals and originals[id(v)] is v:
                    found.append(f"{where} (default or closure)")

    for ns in namespaces:
        module = ns.get("__name__", "?")
        for key, value in ns.items():
            visit(value, f"{module}.{key}")
            if inspect.isclass(value) and value.__module__ == module:
                for attr, member in vars(value).items():
                    visit(member, f"{module}.{key}.{attr}", depth=2)
    return found


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def namespaces_of(module_names) -> list:
    """The global dicts of the loaded modules with these names or prefixes."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if module is not None and any(name == p or name.startswith(p + ".") for p in module_names):
            out.append(vars(module))
    return out


# --- per-layer metrics --------------------------------------------------------------


class SpanStats:
    """Calls, inclusive time, self time, notes and errors per span name."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self.calls: dict = {}
        self.incl: dict = {}
        self.self_s: dict = {}
        self.notes: dict = {}
        self.errors: dict = {}
        self.child_of: dict = {}
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            if rec[NOTE] is not None:
                self.notes[name] = self.notes.get(name, 0) + rec[NOTE]
            if rec[ERROR] is not None:
                key = (name, rec[ERROR])
                self.errors[key] = self.errors.get(key, 0) + 1
            if rec[PARENT] >= 0:
                key = (spans[rec[PARENT]][NAME], name)
                self.child_of[key] = self.child_of.get(key, 0) + 1
        self.cli_failed = sum(
            1 for rec in spans if rec[NAME] == "cli.run" and (rec[ERROR] is not None or rec[NOTE] != 0)
        )

    def self_sum(self, *names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, counts: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric, keyed by its name in ``BENCHMARK.json``."""
    s = stats
    candidates = s.child_of.get(("type2.find_support_equivalence", "type2.translate_type2"), 0)
    composites = s.calls.get("category.ArrowSystem.compose", 0)
    return {
        "lattice.meet_calls": counts.get("lattice.meet", 0),
        "lattice.join_calls": counts.get("lattice.join", 0),
        "lattice.leq_calls": counts.get("lattice.leq", 0),
        "lattice.value_calls": counts.get("lattice.value", 0),
        "lattice.check_value_calls": counts.get("lattice.check_value", 0),
        "lattice.is_bottom_calls": counts.get("lattice.is_bottom", 0),
        "relations.relation_init_calls": s.calls.get("relations.FuzzyRelation.__init__", 0),
        "relations.relation_init_entries": s.notes.get("relations.FuzzyRelation.__init__", 0),
        "relations.relation_init_self_s": s.self_sum("relations.FuzzyRelation.__init__"),
        "relations.fuzzyset_init_self_s": s.self_sum("relations.FuzzySet.__init__"),
        "relations.then_calls": s.calls.get("relations.FuzzyRelation.then", 0),
        "relations.then_self_s": s.self_sum("relations.FuzzyRelation.then"),
        "relations.then_entries_out": s.notes.get("relations.FuzzyRelation.then", 0),
        "relations.union_self_s": s.self_sum("relations.FuzzyRelation.union", "relations.FuzzySet.union"),
        "crisp.compose_calls": s.calls.get("crisp.compose_crisp", 0),
        "crisp.compose_self_s": s.self_sum("crisp.compose_crisp"),
        "crisp.validate_self_s": s.self_sum(
            "crisp.validate_bigraph", "crisp.validate_place_graph", "crisp.validate_link_graph"
        ),
        "fuzzy.compose_place_self_s": s.self_sum("fuzzy.compose_fuzzy_place"),
        "fuzzy.compose_link_self_s": s.self_sum("fuzzy.compose_fuzzy_link"),
        "fuzzy.graph_init_self_s": s.self_sum(
            "fuzzy.FuzzyPlaceGraph.__init__", "fuzzy.FuzzyLinkGraph.__init__", "fuzzy.FuzzyBigraph.__init__"
        ),
        "fuzzy.fuzzify_self_s": s.self_sum("fuzzy.fuzzify", "fuzzy.fuzzify_place", "fuzzy.fuzzify_link"),
        "fuzzy.defuzzify_self_s": s.self_sum("fuzzy.defuzzify", "fuzzy.defuzzify_place", "fuzzy.defuzzify_link"),
        "fuzzy.validate_self_s": s.self_sum(
            "fuzzy.validate_fuzzy_bigraph",
            "fuzzy.validate_fuzzy_place",
            "fuzzy.validate_fuzzy_link",
            "fuzzy.skeleton_is_acyclic",
            "fuzzy.skeleton_pairs",
        ),
        "fuzzy.check_translation_self_s": s.self_sum("fuzzy.check_support_translation"),
        "type2.compose_place_self_s": s.self_sum("type2.compose_type2_place"),
        "type2.compose_link_self_s": s.self_sum("type2.compose_type2_link"),
        "type2.graph_init_self_s": s.self_sum(
            "type2.Type2FuzzyPlaceGraph.__init__",
            "type2.Type2FuzzyLinkGraph.__init__",
            "type2.Type2FuzzyBigraph.__init__",
        ),
        "type2.translate_calls": s.calls.get("type2.translate_type2", 0),
        "type2.translate_self_s": s.self_sum("type2.translate_type2"),
        "type2.equiv_search_self_s": s.self_sum("type2.find_support_equivalence"),
        "type2.equiv_candidates": candidates,
        "type2.equiv_hit_ratio": _ratio(s.notes.get("type2.find_support_equivalence", 0), candidates),
        "type2.check_translation_self_s": s.self_sum("type2.check_type2_support_translation"),
        "category.laws_self_s": s.self_sum("category.check_category_laws"),
        "category.composites": composites,
        "category.overlap_skip_ratio": _ratio(
            s.errors.get(("category.ArrowSystem.compose", "SupportOverlapError"), 0), composites
        ),
        "model_io.parse_self_s": s.self_sum("model_io.parse"),
        "model_io.parse_mb_per_s": _ratio(s.notes.get("model_io.parse", 0) / 1e6, s.incl.get("model_io.parse", 0.0)),
        "model_io.serialize_self_s": s.self_sum("model_io.serialize"),
        "model_io.serialize_mb_per_s": _ratio(
            s.notes.get("model_io.serialize", 0) / 1e6, s.incl.get("model_io.serialize", 0.0)
        ),
        "model_io.file_io_s": s.self_sum("model_io.load_document", "model_io.save_document"),
        "model_io.validate_self_s": s.self_sum("model_io.validate_document", "model_io.validate_graph"),
        "model_io.export_dot_self_s": s.self_sum("model_io.export_dot"),
        "cli.run_self_s": s.self_sum("cli.run"),
        "cli.runs_failed": s.cli_failed,
        "trace.overhead_ratio": overhead_ratio,
    }
