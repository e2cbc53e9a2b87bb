"""The four workloads: seeded inputs, the timed operations and their checks.

Each workload function takes the library namespace, a seeded
``random.Random`` and a scratch directory, and returns a :class:`Workload`.
An op's ``call`` is the only code that runs on the clock; it reaches the
library through module attributes at call time, so the traced run's
wrappers see it.  An op's ``check`` runs off the clock and compares the
output with the benchmark's own reference (``reference.py``) or with the
crisp oracle of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import builders
import reference as ref


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    ops: list
    warmup: list
    fingerprints: list


def _lazy(compute):
    """A zero-argument function computing ``compute()`` once."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


def _matches(expected):
    """Check a returned bigraph against a lazily computed plain graph."""
    return lambda out: ref.same(ref.from_library(out), expected())


def names(prefix: str, count: int) -> frozenset:
    return frozenset(f"{prefix}{i}" for i in range(count))


# --- compose-large ----------------------------------------------------------------

LARGE_NODES = 600
LARGE_EDGES = 300
WIDE = (64, 0.5)  # interface width and names, share of entries that route
NARROW = (1, 0.02)
# Pairs per (kind, frame, interface) shape.  Type-2 composites cost 2-4x the
# fuzzy ones, so latencies form two groups; unequal counts put the median
# inside the fuzzy group and the p90 inside the slowest type-2 shape, not in
# the gaps between shapes, where they would swing with every seed.
LARGE_PAIRS = {"fuzzy": 3, "type2": 2}
LARGE_EXTRA = ("type2", "unit-interval", "wide")


def compose_large(lib, rng: random.Random, workdir: str) -> Workload:
    ops, warmup, prints = [], [], []
    outer_in = (8, names("x", 8))
    outer_out = (8, names("z", 8))
    for frame in ("unit-interval", "chain:5"):
        for kind in ("fuzzy", "type2"):
            for label, (width, share) in (("wide", WIDE), ("narrow", NARROW)):
                mid = (width, names("m", width))
                pairs = LARGE_PAIRS[kind] + ((kind, frame, label) == LARGE_EXTRA)
                for rep in range(pairs + 1):
                    size = LARGE_NODES if rep else 20
                    edges = LARGE_EDGES if rep else 10
                    tag = f"{kind[0]}{frame[0]}{label[0]}{rep}"
                    f = builders.bigraph(rng, kind, frame, outer_in, mid, f"{tag}f", size, edges, share)
                    g = builders.bigraph(rng, kind, frame, mid, outer_out, f"{tag}g", size, edges, share)
                    op = _compose_op(lib, kind, f"{kind}:{frame}:{label}", f, g)
                    if rep:
                        ops.append(op)
                        prints += [ref.fingerprint(f), ref.fingerprint(g)]
                    else:
                        warmup.append(op)
    rng.shuffle(ops)
    return Workload(ops, warmup, prints)


def _compose_op(lib, kind: str, label: str, f: dict, g: dict) -> Op:
    F = builders.library_value(lib.fb, f)
    G = builders.library_value(lib.fb, g)
    expected = _lazy(lambda: ref.compose(g, f))
    if kind == "fuzzy":
        call = lambda: lib.fuzzy.compose_fuzzy(G, F)  # noqa: E731
    else:
        call = lambda: lib.type2.compose_type2(G, F)  # noqa: E731
    return Op(label, call, _matches(expected))


# --- small-many ----------------------------------------------------------------------

CRISP_BUDGET = 5
CRISP_PAIRS = 2830
SMALL_PER_FRAME = 100
SMALL_FRAMES = ("unit-interval", "chain:5", "two-point")


def small_many(lib, rng: random.Random, workdir: str) -> Workload:
    ops, prints = [], []
    oracle = lib.oracle
    pairs = list(oracle.enumerate_composable_pairs(CRISP_BUDGET))
    if len(pairs) != CRISP_PAIRS:
        raise RuntimeError(f"crisp universe has {len(pairs)} pairs, expected {CRISP_PAIRS}")
    for f, g in pairs:
        expected = _lazy(lambda f=f, g=g: ref.from_library(oracle.compose_direct(g, f)))
        ops.append(Op("crisp:compose", lambda f=f, g=g: lib.crisp.compose_crisp(g, f), _matches(expected)))
        prints += [ref.fingerprint(ref.from_library(f)), ref.fingerprint(ref.from_library(g))]

    gen, fb = lib.generators, lib.fb
    sig = gen.DEFAULT_SIGNATURE

    def add(label, call, reference_op, *inputs):
        plains = [ref.from_library(x) for x in inputs]
        prints.extend(ref.fingerprint(p) for p in plains)
        ops.append(Op(label, call, _matches(_lazy(lambda: reference_op(*plains)))))
    for frame_name in SMALL_FRAMES:
        frame = fb.frame_from_name(frame_name)
        for i in range(SMALL_PER_FRAME):
            f, g = gen.random_fuzzy_chain(rng, frame, sig, 2, prefix=f"c{i}_")
            add(f"fuzzy:compose:{frame_name}", lambda f=f, g=g: lib.fuzzy.compose_fuzzy(g, f), ref.compose, g, f)

            left = gen.random_fuzzy_bigraph(
                rng, frame, sig, gen.random_interface(rng), gen.random_interface(rng), f"l{i}_"
            )
            pool = ("p", "q", "r")
            right = gen.random_fuzzy_bigraph(
                rng,
                frame,
                sig,
                gen.random_interface(rng, name_pool=pool),
                gen.random_interface(rng, name_pool=pool),
                f"r{i}_",
            )
            add(f"fuzzy:tensor:{frame_name}", lambda a=left, b=right: lib.fuzzy.tensor_fuzzy(a, b), ref.tensor, left, right)

            (h,) = gen.random_fuzzy_chain(rng, frame, sig, 1, prefix=f"i{i}_")
            add(
                f"fuzzy:identity:{frame_name}",
                lambda h=h, fr=frame: lib.fuzzy.compose_fuzzy(lib.fuzzy.identity_bigraph(h.outer, fr, sig), h),
                lambda hp, fn=frame_name: ref.compose(ref.identity("fuzzy", fn, hp["outer"]), hp),
                h,
            )

            f2, g2 = gen.random_type2_chain(rng, frame, sig, 2, prefix=f"t{i}_")
            add(f"type2:compose:{frame_name}", lambda f=f2, g=g2: lib.type2.compose_type2(g, f), ref.compose, g2, f2)

            (k,) = gen.random_type2_chain(rng, frame, sig, 1, prefix=f"k{i}_")
            add(
                f"type2:identity:{frame_name}",
                lambda k=k, fr=frame: lib.type2.compose_type2(lib.type2.identity_type2_bigraph(k.outer, fr, sig), k),
                lambda kp, fn=frame_name: ref.compose(ref.identity("type2", fn, kp["outer"]), kp),
                k,
            )
    warmup = [ops[0]] + ops[CRISP_PAIRS : CRISP_PAIRS + 5]
    position = {id(op): i for i, op in enumerate(ops)}
    rng.shuffle(ops)
    prints.append(json.dumps([position[id(op)] for op in ops]))
    return Workload(ops, warmup, prints)


# --- cli-models ------------------------------------------------------------------------

CLI_NODES = 1100
CLI_EDGES = 550
DEEP_LEVELS = 2000
LAWS = ("--arrows", "20", "--samples", "200")


def cli_models(lib, rng: random.Random, workdir: str) -> Workload:
    docs = _cli_documents(rng, CLI_NODES, CLI_EDGES, DEEP_LEVELS)
    ops = _cli_ops(lib, os.path.join(workdir, "full"), docs, LAWS)
    small = _cli_documents(rng, 12, 6, 4)
    warmup = _cli_ops(lib, os.path.join(workdir, "warm"), small, ("--arrows", "3", "--samples", "5"))
    prints = [ref.fingerprint(g) for g in docs["graphs"].values()]
    return Workload(ops, warmup, prints + [json.dumps(docs["rho"], sort_keys=True)])


def _cli_documents(rng, nodes: int, edges: int, depth: int) -> dict:
    """Plain graphs for the model files: fuzzy over unit-interval, crisp
    over two-point, a renamed copy for translate-check, and the deep chains."""
    I, J, K = (4, names("x", 4)), (8, names("m", 8)), (4, names("z", 4))
    I2, K2 = (4, names("p", 4)), (4, names("q", 4))
    graphs, frames = {}, {}
    for kind, frame in (("fuzzy", "unit-interval"), ("crisp", "two-point")):
        k = kind[0]
        graphs[f"{k}f"] = builders.bigraph(rng, kind, frame, I, J, f"{k}f", nodes, edges, 0.1)
        graphs[f"{k}g"] = builders.bigraph(rng, kind, frame, J, K, f"{k}g", nodes, edges, 0.1)
        graphs[f"{k}t"] = builders.bigraph(rng, kind, frame, I2, K2, f"{k}t", nodes, edges, 0.1)
        graphs[f"{k}deep"] = builders.deep_chain(kind, frame, depth)
        for name in (f"{k}f", f"{k}g", f"{k}t", f"{k}deep"):
            frames[name] = frame
    f = graphs["ff"]
    node_ids, edge_ids = sorted(f["nodes"]), sorted(f["edges"])
    node_map = dict(zip(node_ids, rng.sample([f"r{v}" for v in node_ids], len(node_ids))))
    edge_map = dict(zip(edge_ids, rng.sample([f"r{e}" for e in edge_ids], len(edge_ids))))
    graphs["fr"] = ref.rename(f, node_map, edge_map)
    frames["fr"] = "unit-interval"
    return {"graphs": graphs, "frames": frames, "rho": {"nodes": node_map, "edges": edge_map}}


def _cli_ops(lib, directory: str, docs: dict, laws: tuple) -> list:
    os.makedirs(directory, exist_ok=True)
    graphs = docs["graphs"]
    path = {}
    for name, g in graphs.items():
        graph_name = "deep" if name.endswith("deep") else name[1]
        path[name] = os.path.join(directory, f"{name}.fbg.json")
        with open(path[name], "w", encoding="utf-8", newline="\n") as handle:
            handle.write(ref.encode_document(docs["frames"][name], builders.SIGNATURE, {graph_name: g}))
    rho = os.path.join(directory, "rho.json")
    with open(rho, "w", encoding="utf-8") as handle:
        json.dump(docs["rho"], handle, sort_keys=True)

    ops = []

    def add(kind, argv, check):
        ops.append(Op(kind, lambda: _run_cli(lib, argv), _repeatable(check)))

    for k in ("f", "c"):
        flavour = "fuzzy" if k == "f" else "crisp"
        f, g, t = graphs[f"{k}f"], graphs[f"{k}g"], graphs[f"{k}t"]
        add(f"validate:{flavour}", ["validate", path[f"{k}f"]], _stdout_is("f: valid\n"))
        for op_name, left, right, expected in (
            ("compose", f"{k}g", f"{k}f", _lazy(lambda f=f, g=g: ref.compose(g, f))),
            ("tensor", f"{k}f", f"{k}t", _lazy(lambda f=f, t=t: ref.tensor(f, t))),
        ):
            out = os.path.join(directory, f"out-{op_name}-{flavour}.fbg.json")
            argv = [op_name, "--left", path[left], "--right", path[right], "--out", out]
            add(f"{op_name}:{flavour}", argv, _wrote(out, expected))
        for view in ("place", "link"):
            add(f"export-dot-{view}:{flavour}", ["export-dot", path[f"{k}f"], "--view", view], _dot_is(view, f))
        add(f"support:{flavour}", ["support", path[f"{k}f"]], _stdout_is(_support_text("f", f)))
    add("translate-check:fuzzy", ["translate-check", "--rho", rho, path["ff"], path["fr"]], _stdout_is(_TRANSLATION_PASS))
    add("laws", ["laws", path["ff"], *laws], _laws_hold(laws[1]))
    add("validate:fuzzy-deep", ["validate", path["fdeep"]], _stdout_is("deep: valid\n"))
    add("validate:crisp-deep", ["validate", path["cdeep"]], _stdout_is("deep: valid\n"))
    add("export-dot-place:crisp-deep", ["export-dot", path["cdeep"], "--view", "place"], _dot_is("place", graphs["cdeep"]))
    return ops


def _run_cli(lib, argv):
    """One in-process ``fbg`` invocation: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _repeatable(check):
    """Also require every repeat of a command to print the same bytes."""
    first = []

    def checked(result):
        if not check(result):
            return False
        if not first:
            first.append(result[:2])
        return result[:2] == first[0]

    return checked


def _stdout_is(text: str):
    return lambda r: r[0] == 0 and r[1] == text


def _wrote(path: str, expected):
    first = []

    def check(r):
        if r[0] != 0 or r[1] != f"wrote {path}\n":
            return False
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if first:
            return text == first[0]
        graphs = ref.decode_document(text)
        ok = list(graphs) == ["result"] and ref.same(graphs["result"], expected())
        if ok:
            first.append(text)
        return ok

    return check


def _support_text(name: str, g: dict) -> str:
    nodes = ", ".join(sorted(g["nodes"])) or "(none)"
    edges = ", ".join(sorted(g["edges"])) or "(none)"
    return f"{name}:\n  nodes: {nodes}\n  edges: {edges}\n"


_TRANSLATION_PASS = (
    "support translation: pass\n"
    "  control preservation: pass\n"
    "  port bijection: pass\n"
    "  parent relation: pass\n"
    "  link relation: pass\n"
)


def _laws_hold(arrows: str):
    return lambda r: (
        r[0] == 0
        and r[1].startswith(f"seed: 42\narrows: {arrows}\n")
        and r[1].endswith("\nall laws hold\n")
    )


# --- DOT checks: the drawn structure must be the graph's structure ----------------


def _dot_is(view: str, g: dict):
    if view == "link":
        expected = sorted(_link_lines(g))
        return lambda r: r[0] == 0 and r[1].startswith("graph link {\n") and sorted(
            line for line in r[1].splitlines() if " -- " in line
        ) == expected
    if g["kind"] == "crisp":
        expected_parents = {c: p for (c, p) in g["prnt"]}
        return lambda r: r[0] == 0 and _crisp_place_parents(r[1]) == expected_parents
    expected = sorted(_fuzzy_place_lines(g))
    return lambda r: r[0] == 0 and r[1].startswith("digraph place {\n") and sorted(
        line for line in r[1].splitlines() if " -> " in line
    ) == expected


def _fuzzy_place_lines(g: dict):
    def ident(x, child):
        if isinstance(x, int):
            return f"site_{x}" if child else f"root_{x}"
        return f"node_{x}"

    for (c, p), d in g["prnt"].items():
        label = ref.format_degree(g["frame"], d)
        yield f'  "{ident(c, True)}" -> "{ident(p, False)}" [label="{label}"];'


def _link_lines(g: dict):
    for (v, k) in g["ctrl"]:
        for i in range(builders.SIGNATURE[k]):
            yield f'  "node_{v}" -- "port_{v}_{i}" [style=dotted];'
    for (q, t), d in g["link"].items():
        point = f"port_{q[0]}_{q[1]}" if isinstance(q, tuple) else f"inner_{q}"
        target = f"edge_{t}" if t in g["edges"] else f"outer_{t}"
        label = "" if g["kind"] == "crisp" else f' [label="{ref.format_degree(g["frame"], d)}"]'
        yield f'  "{point}" -- "{target}"{label};'


_CLUSTER = re.compile(r'subgraph "cluster_(root|node)_(.+)" \{$')
_LEAF = re.compile(r'"(node|site)_(.+)" \[label=')


def _crisp_place_parents(text: str):
    """The parent map drawn by nested clusters, or None if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "digraph place {" or lines[-1] != "}":
        return None
    parents, stack = {}, []
    for line in lines[1:-1]:
        s = line.strip()
        cluster = _CLUSTER.match(s)
        leaf = _LEAF.match(s)
        if cluster:
            sort, ident = cluster.groups()
            if sort == "root":
                stack.append(int(ident))
                continue
            if not stack:
                return None
            parents[ident] = stack[-1]
            stack.append(ident)
        elif s == "}":
            if not stack:
                return None
            stack.pop()
        elif leaf:
            sort, ident = leaf.groups()
            if not stack:
                return None
            parents[int(ident) if sort == "site" else ident] = stack[-1]
    return parents if not stack else None


# --- equiv-search -------------------------------------------------------------------------

# Node counts per membership class, crossed with 0-3 edges and both verdicts.
# Edges get distinct memberships, so node classes alone set the k! search
# space.  The search stops at a random point on the equivalent pairs, so
# the grid is repeated to average over many of them.
EQUIV_CLASSES = ((4,), (5,), (6,), (2, 2), (2, 4), (3, 3))
EQUIV_EDGES = (0, 1, 2, 3)
EQUIV_REPEATS = 8


def equiv_search(lib, rng: random.Random, workdir: str) -> Workload:
    ops, prints = [], []
    for _ in range(EQUIV_REPEATS):
        for classes in EQUIV_CLASSES:
            for edge_count in EQUIV_EDGES:
                for equivalent in (True, False):
                    frame = "chain:5" if len(ops) % 2 else "unit-interval"
                    f, g = _equiv_pair(rng, frame, classes, edge_count, equivalent)
                    label = f"equiv:{'+'.join(map(str, classes))}n{edge_count}e:{'yes' if equivalent else 'no'}"
                    ops.append(_equiv_op(lib, label, f, g, equivalent))
                    prints += [ref.fingerprint(f), ref.fingerprint(g)]
    warmup = [op for op in ops if op.kind.startswith("equiv:2+2n0e")]
    rng.shuffle(ops)
    return Workload(ops, warmup, prints)


def _equiv_pair(rng, frame: str, classes: tuple, edge_count: int, equivalent: bool):
    """A type-2 graph and a random renaming of it, with one degree changed
    when no renaming may exist (a renaming keeps the multiset of degrees)."""
    inner, outer = (1, names("x", 1)), (2, names("y", 2))
    f = builders.bigraph(rng, "type2", frame, inner, outer, "a", sum(classes), edge_count, 0.3)
    node_levels = rng.sample(range(1, 5), len(classes))
    nodes = iter(sorted(f["nodes"], key=lambda v: int(v[2:])))
    for size, level in zip(classes, node_levels):
        for _ in range(size):
            f["nodes"][next(nodes)] = _level(frame, level)
    edge_levels = rng.sample(range(1, 5), edge_count)
    f["edges"] = {e: _level(frame, level) for e, level in zip(sorted(f["edges"]), edge_levels)}
    f["beta"] = min([*f["prnt"].values(), *f["nodes"].values()])
    f["delta"] = min([*f["link"].values(), ref.top(frame)])
    node_ids, edge_ids = sorted(f["nodes"]), sorted(f["edges"])
    node_map = dict(zip(node_ids, rng.sample([f"b{v}" for v in node_ids], len(node_ids))))
    edge_map = dict(zip(edge_ids, rng.sample([f"b{e}" for e in edge_ids], len(edge_ids))))
    g = ref.rename(f, node_map, edge_map)
    if not equivalent:
        pair = rng.choice(sorted(g["prnt"], key=ref.pair_key))
        g["prnt"] = dict(g["prnt"])
        old = g["prnt"][pair]
        while g["prnt"][pair] == old:
            g["prnt"][pair] = builders.degree(rng, frame)
    return f, g


def _level(frame: str, level: int):
    """The ``level``-th of four evenly spaced positive degrees."""
    return level if frame == "chain:5" else Fraction(level, 4)


def _equiv_op(lib, label: str, f: dict, g: dict, equivalent: bool) -> Op:
    F = builders.library_value(lib.fb, f)
    G = builders.library_value(lib.fb, g)
    rho_nodes, rho_edges = lib.type2.make_type2_translation(F, G)

    def check(report):
        if report.support_equivalent != equivalent:
            return False
        if not equivalent:
            return report.witness is None
        w = report.witness
        return ref.same(ref.rename(f, dict(w.node_map), dict(w.edge_map)), g)

    return Op(label, lambda: lib.type2.check_type2_support_translation(rho_nodes, rho_edges, F, G), check)


BUILDERS = {
    "compose-large": compose_large,
    "small-many": small_many,
    "cli-models": cli_models,
    "equiv-search": equiv_search,
}
