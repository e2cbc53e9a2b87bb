"""Command-line front end: validate, compose, tensor, support,
translate-check, laws, export-dot.

Exit codes: 0 success, 1 validation failure or typed operation error,
2 usage error, 3 I/O or parse error.  Identical invocations on identical
files print identical bytes; all randomness is seed-controlled.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys

from . import model_io
from .category import check_category_laws
from .crisp import Bigraph, LinkGraph, PlaceGraph, compose_crisp, tensor_crisp
from .errors import ModelError, ParseError
from .fuzzy import (
    FuzzyBigraph,
    FuzzyLinkGraph,
    FuzzyPlaceGraph,
    SupportTranslation,
    check_support_translation,
    compose_fuzzy,
    compose_fuzzy_link,
    compose_fuzzy_place,
    defuzzify_link,
    defuzzify_place,
    fuzzify,
    fuzzify_link,
    fuzzify_place,
    tensor_fuzzy,
    tensor_fuzzy_link,
    tensor_fuzzy_place,
)
from .generators import random_arrow_system
from .relations import FuzzyRelation
from .type2 import (
    Type2FuzzyBigraph,
    Type2FuzzyLinkGraph,
    Type2FuzzyPlaceGraph,
    check_type2_support_translation,
    compose_type2,
    compose_type2_link,
    compose_type2_place,
    type2_support,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_SEED = 42


def _count(text: str) -> int:
    """An argparse type: a whole number, 1 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    if value == 0:
        raise argparse.ArgumentTypeError("must be at least 1: a count of 0 checks nothing")
    return value


def _arrows(text: str) -> int:
    """An argparse type: a count of arrows, at most the width limit.  Each
    arrow costs ~5 KB and ~0.3 ms, so the count bounds memory and time."""
    value = _count(text)
    if value > model_io._MAX_WIDTH:
        raise argparse.ArgumentTypeError(f"{value} exceeds the limit of {model_io._MAX_WIDTH}")
    return value


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``fbg`` parser.

    Given the name of a subcommand, it holds that subcommand's parser
    alone: argparse builds a help formatter for every argument it adds, and
    a run reads one subcommand's.  Its choices are shown as all seven, so
    the top-level usage line keeps its bytes.  The full parser keeps the
    default display, because it also names the choices in its errors
    ("argument command: ..."), which a one-subcommand parser never raises.
    """
    parser = argparse.ArgumentParser(
        prog="fbg", description="Fuzzy bigraph model toolkit"
    )
    if command in _COMMANDS:
        choices = "{" + ",".join(_COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
        wanted = (command,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        wanted = tuple(_COMMANDS)

    if "validate" in wanted:
        p = sub.add_parser("validate", help="validate every graph in a model file")
        p.add_argument("file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    for name in ("compose", "tensor"):
        if name not in wanted:
            continue
        p = sub.add_parser(name, help=f"{name} two graphs into a new model file")
        p.add_argument("--left", required=True, help="model file with the left graph")
        p.add_argument("--right", required=True, help="model file with the right graph")
        p.add_argument("--out", required=True, help="output model file")
        p.add_argument("--left-name", help="graph name in the left file")
        p.add_argument("--right-name", help="graph name in the right file")
        p.add_argument("--name", default="result", help="name of the output graph")

    if "support" in wanted:
        p = sub.add_parser("support", help="print the support of each graph")
        p.add_argument("file")
        p.add_argument("--graph", help="restrict to one graph")
        p.add_argument("--format", choices=("text", "json"), default="text")

    if "translate-check" in wanted:
        p = sub.add_parser(
            "translate-check", help="check a support translation between two graphs"
        )
        p.add_argument("--rho", required=True, help="JSON file with the renaming")
        p.add_argument("left", help="model file with the source graph")
        p.add_argument("right", help="model file with the target graph")
        p.add_argument("--left-name")
        p.add_argument("--right-name")
        p.add_argument("--format", choices=("text", "json"), default="text")

    if "laws" in wanted:
        p = sub.add_parser("laws", help="run the fuzzy-category law suite")
        p.add_argument("file", help="model file providing the frame and signature")
        p.add_argument("--arrows", type=_arrows, default=20)
        p.add_argument("--samples", type=_count, default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", choices=("text", "json"), default="text")

    if "export-dot" in wanted:
        p = sub.add_parser("export-dot", help="write a DOT rendering to stdout")
        p.add_argument("file")
        p.add_argument("--view", choices=("place", "link"), required=True)
        p.add_argument("--graph", help="graph name (defaults to the only graph)")
    return parser


def _load(path: str) -> model_io.ModelDocument:
    try:
        return model_io.load_document(path)
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


def _pick_graph(doc: model_io.ModelDocument, name: str | None, role: str):
    if name is not None:
        return name, doc.graph(name)
    if len(doc.graphs) != 1:
        raise ModelError(
            f"the {role} file holds {len(doc.graphs)} graphs; pick one with a name flag"
        )
    return next(iter(doc.graphs.items()))


_COMPOSERS = {
    Bigraph: compose_crisp,
    FuzzyBigraph: compose_fuzzy,
    FuzzyPlaceGraph: compose_fuzzy_place,
    FuzzyLinkGraph: compose_fuzzy_link,
    Type2FuzzyBigraph: compose_type2,
    Type2FuzzyPlaceGraph: compose_type2_place,
    Type2FuzzyLinkGraph: compose_type2_link,
    PlaceGraph: lambda g, f: defuzzify_place(
        compose_fuzzy_place(fuzzify_place(g), fuzzify_place(f))
    ),
    LinkGraph: lambda g, f: defuzzify_link(
        compose_fuzzy_link(fuzzify_link(g), fuzzify_link(f))
    ),
}

_TENSORS = {
    Bigraph: tensor_crisp,
    FuzzyBigraph: tensor_fuzzy,
    FuzzyPlaceGraph: tensor_fuzzy_place,
    FuzzyLinkGraph: tensor_fuzzy_link,
    PlaceGraph: lambda f, g: defuzzify_place(
        tensor_fuzzy_place(fuzzify_place(f), fuzzify_place(g))
    ),
    LinkGraph: lambda f, g: defuzzify_link(
        tensor_fuzzy_link(fuzzify_link(f), fuzzify_link(g))
    ),
}


def _cmd_validate(args) -> int:
    doc = _load(args.file)
    reports = model_io.validate_document(doc)
    if args.format == "json":
        payload = [
            {"graph": r.subject, "ok": r.ok, "problems": r.problems} for r in reports
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not reports:
            print("no graphs to validate")
        for report in reports:
            print(report)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_INVALID


def _binary_op(args, table, op_name: str) -> int:
    left_doc = _load(args.left)
    right_doc = _load(args.right)
    if left_doc.frame != right_doc.frame:
        raise ModelError(
            f"frames differ: {left_doc.frame.name} vs {right_doc.frame.name}"
        )
    if left_doc.signature != right_doc.signature:
        raise ModelError("signatures differ between the two files")
    _, left = _pick_graph(left_doc, args.left_name, "left")
    _, right = _pick_graph(right_doc, args.right_name, "right")
    if type(left) is not type(right):
        raise ModelError(
            f"cannot {op_name} a {type(left).__name__} with a {type(right).__name__}"
        )
    op = table.get(type(left))
    if op is None:
        raise ModelError(f"{op_name} is not defined for {type(left).__name__}")
    result = op(left, right)
    out_doc = model_io.ModelDocument(
        left_doc.frame, left_doc.signature, {args.name: result}
    )
    try:
        model_io.save_document(out_doc, args.out)
    except OSError as exc:
        raise _IOFailure(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_compose(args) -> int:
    # compose --left g --right f computes g . f (right applied first)
    return _binary_op(args, _COMPOSERS, "compose")


def _cmd_tensor(args) -> int:
    return _binary_op(args, _TENSORS, "tensor")


def _support_payload(name: str, graph) -> dict:
    if isinstance(graph, (Type2FuzzyBigraph, Type2FuzzyLinkGraph, Type2FuzzyPlaceGraph)):
        fset = type2_support(graph)
        return {
            "graph": name,
            "support": {
                elem: graph.frame.format_degree(d) for elem, d in fset.sorted_items()
            },
        }
    edges = () if isinstance(graph, (PlaceGraph, FuzzyPlaceGraph)) else graph.edges
    return {"graph": name, "nodes": sorted(graph.nodes), "edges": sorted(edges)}


def _cmd_support(args) -> int:
    doc = _load(args.file)
    names = [args.graph] if args.graph else sorted(doc.graphs)
    payloads = [_support_payload(name, doc.graph(name)) for name in names]
    if args.format == "json":
        print(json.dumps(payloads, indent=2, sort_keys=True))
        return EXIT_OK
    for payload in payloads:
        print(f"{payload['graph']}:")
        if "support" in payload:
            for elem, degree in payload["support"].items():
                print(f"  {elem}: {degree}")
        else:
            print(f"  nodes: {', '.join(payload['nodes']) or '(none)'}")
            print(f"  edges: {', '.join(payload['edges']) or '(none)'}")
    return EXIT_OK


def _clipped(text: str) -> str:
    """``text`` cut to 100 characters, ending in "..." if cut: a renaming-file
    fault quotes no more of a value, whatever the file holds."""
    return text if len(text) <= 100 else text[:97] + "..."


def _load_rho(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"renaming file is not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        data = json.loads(text, object_pairs_hook=model_io._unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in renaming file: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # nested too deeply for the decoder, an integer too long to convert,
        # or a key repeated in one object
        raise ParseError(f"invalid JSON in renaming file: {_clipped(str(exc))}") from None
    if not isinstance(data, dict) or set(data) - {"nodes", "edges"}:
        raise ParseError("renaming file must be an object with nodes/edges")
    return data


def _cmd_translate_check(args) -> int:
    left_doc = _load(args.left)
    right_doc = _load(args.right)
    _, f = _pick_graph(left_doc, args.left_name, "left")
    _, g = _pick_graph(right_doc, args.right_name, "right")
    rho = _load_rho(args.rho)
    if isinstance(f, Bigraph):
        f = fuzzify(f)
    if isinstance(g, Bigraph):
        g = fuzzify(g)
    if isinstance(f, FuzzyBigraph) and isinstance(g, FuzzyBigraph):
        maps = [
            {a: b for a, b in _rho_entries(rho, part, dom, cod, f.frame, rows=False)}
            for part, dom, cod in (("nodes", f.nodes, g.nodes), ("edges", f.edges, g.edges))
        ]
        translation = SupportTranslation(*maps)
        report = check_support_translation(translation, f, g)
    elif isinstance(f, Type2FuzzyBigraph) and isinstance(g, Type2FuzzyBigraph):
        frame = left_doc.frame
        relations = [
            FuzzyRelation(frame, dom, cod, _rho_entries(rho, part, dom, cod, frame, rows=True))
            for part, dom, cod in (
                ("nodes", f.nodes.support, g.nodes.support),
                ("edges", f.link.edge_support, g.link.edge_support),
            )
        ]
        report = check_type2_support_translation(*relations, f, g)
    else:
        raise ModelError(
            "translate-check needs two bigraphs of matching flavour "
            f"(got {type(f).__name__} and {type(g).__name__})"
        )
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks
            ],
        }
        if hasattr(report, "support_equivalent"):
            payload["support_equivalent"] = report.support_equivalent
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _rho_entries(rho: dict, part: str, domain, codomain, frame, rows: bool) -> dict:
    """One part ("nodes" or "edges") of a renaming file, as a map from
    (source, target) pairs to degrees.

    The object form ``{source: target}`` gives each pair degree top; with
    ``rows`` (type-2 files) a list of ``[source, target, degree]`` rows is
    accepted too.  Every fault, including an identifier the graphs do not
    have, is a parse error at the part (``$.nodes``), at an object member
    by its source (``$.nodes.v0``) or at a row by its position
    (``$.nodes[1]``).  Quoted values are :func:`_clipped`.
    """
    value = rho.get(part, {})
    keyed = isinstance(value, dict)
    if keyed:
        listed = [[a, b, None] for a, b in value.items()]
    elif rows and isinstance(value, list):
        listed = value
    else:
        raise ParseError(
            f"renaming {part} must be an object" + (" or a list of rows" if rows else ""),
            f"$.{part}",
        )

    def at(i: int) -> str:
        return f"$.{part}.{_clipped(listed[i][0])}" if keyed else f"$.{part}[{i}]"

    what = part[:-1]
    entries = {}
    for i, row in enumerate(listed):
        if not (isinstance(row, list) and len(row) == 3):
            raise ParseError(f"renaming row {i} must be [from, to, degree]", at(i))
        a, b, text = row
        for ident, pool, side in ((a, domain, "source"), (b, codomain, "target")):
            if not isinstance(ident, str):
                got = _clipped(repr(ident))
                raise ParseError(f"renaming {what} identifiers are strings, got {got}", at(i))
            if ident not in pool:
                name = _clipped(repr(ident))
                raise ParseError(f"renaming mentions unknown {side} {what} {name}", at(i))
        if (a, b) in entries:
            pair = _clipped(repr((a, b)))
            raise ParseError(f"renaming row {i} repeats the pair {pair}", at(i))
        try:
            entries[(a, b)] = frame.top if text is None else frame.parse_degree(text)
        except ValueError as exc:
            raise ParseError(f"renaming row {i}: {_clipped(str(exc))}", at(i)) from None
    return entries


def _cmd_laws(args) -> int:
    doc = _load(args.file)
    rng = random.Random(args.seed)
    system = random_arrow_system(rng, doc.frame, doc.signature, arrow_count=args.arrows)
    report = check_category_laws(system, samples=args.samples, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"seed: {args.seed}")
        print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_export_dot(args) -> int:
    doc = _load(args.file)
    name = args.graph
    if name is None:
        name, _ = _pick_graph(doc, None, "input")
    sys.stdout.write(model_io.export_dot(doc, name, args.view))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "compose": _cmd_compose,
    "tensor": _cmd_tensor,
    "support": _cmd_support,
    "translate-check": _cmd_translate_check,
    "laws": _cmd_laws,
    "export-dot": _cmd_export_dot,
}


def run(argv=None) -> int:
    """Run one CLI invocation and return its exit status.

    The cyclic garbage collector is paused for the invocation and put back
    as it was found.  Models are acyclic (dicts, tuples, frozensets,
    immutable degrees), so reference counting frees everything a command
    drops, and the collector's passes would find nothing; only argparse's
    own parser cycles are left for its next pass.  The pause is
    process-wide: other threads of an embedding host see it too.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ModelError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
