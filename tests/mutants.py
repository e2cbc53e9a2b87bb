"""Run one-token mutants of the model-file decoder against its tests.

    python tests/mutants.py [mutant number ...]

Each mutant below changes one token in one function of
``src/fuzzybig/model_io.py``: the row loop and its readers, the endpoint
decoders, the bulk paths, the degree meet and the refs checks.  For each,
the script copies ``src/``, ``tests/`` and ``models/`` to a temporary
directory, applies the mutant to the copy, and runs
``tests/test_parse_faults.py`` and ``tests/test_model_io*.py`` there with
``-x``, one mutant at a time.  A mutant that the tests pass survives.  The
survivors are listed at the end, and the exit status is 1 if any survived,
or if a mutant's text is no longer found exactly once in its function (the
list has gone stale).  The unmutated copy is run first and must pass.
pytest does not collect this file: its name does not start with ``test_``.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULE = os.path.join("src", "fuzzybig", "model_io.py")
TESTS = ["tests/test_parse_faults.py", "tests/test_model_io.py", "tests/test_model_io_bulk.py",
         "tests/test_model_io_paths.py"]

# (function, text, replacement): the text occurs once in the function.
MUTANTS = [
    ("_walk", "len(row) != size", "len(row) > size"),
    ("_walk", "shape if type(row) is list", "shape if type(row) is not list"),
    ("_walk", "if k in out:", "if k not in out:"),
    ("_walk", "out[k] = value(row)", "out[k] = key(row)"),
    ("_walk", 'f"{path}[{i}]"', "path"),
    ("_crisp_node", "or type(row[1]) is not str", "and type(row[1]) is not str"),
    ("_Degrees.membership", "if degree is self.frame.bottom:", "if degree is not self.frame.bottom:"),
    ("_end", "type(value) is str", "type(value) is not str"),
    ("_point", "type(value) is not list", "type(value) is list"),
    ("_point", "len(value) == 2", "len(value) >= 2"),
    ("_point", "type(value[0]) is str", "type(value[0]) is not str"),
    ("_point", "type(value[1]) is int", "type(value[1]) is not int"),
    ("_point", "value[1] >= 0", "value[1] > 0"),
    ("_bulk_pairs", "if not {list}.issuperset", "if {list}.issuperset"),
    ("_bulk_pairs", "a[1] >= 0", "a[1] > 0"),
    ("_bulk_pairs", "len(out) == len(rows)", "len(out) <= len(rows)"),
    ("_bulk_pairs", "_SORTS[decode_a]", "_SORTS[decode_b]"),
    ("_bulk_pairs", "_SORTS[decode_b]", "_SORTS[_place_elem]"),
    ("_decode_crisp_nodes", "ctrl is None or not", "ctrl is None and not"),
    ("_decode_crisp_nodes", "issuperset(ctrl.values())", "issuperset(ctrl)"),
    ("_bulk_graded_ids", "met is None or met[1]", "met is None and met[1]"),
    ("_bulk_graded_ids", "len(entries) == len(rows)", "len(entries) <= len(rows)"),
    ("_bulk_graded_ids", "{str}.issuperset", "{str, int}.issuperset"),
    ("_bulk_triples", "0 <= a < inner", "0 <= a <= inner"),
    ("_bulk_triples", "0 <= b < outer", "0 <= b <= outer"),
    ("_bulk_triples", "type(a) is int and", "type(a) is not str and"),
    ("_bulk_triples", "if type(a[1]) is int", "if type(a[1]) is not int"),
    ("_bulk_triples", "codomain.issuperset(map(itemgetter(1)", "codomain.issuperset(map(itemgetter(0)"),
    ("_bulk_triples", "len(entries) != len(rows)", "len(entries) > len(rows)"),
    ("_bulk_triples", "if at_bottom:", "if not at_bottom:"),
    ("_bulk_triples", "if d is not bottom", "if d is bottom"),
    ("_Degrees.meet", "at_bottom = True", "at_bottom = False"),
    ("_Degrees.meet", "floor = meet(floor, degree.raw)", "floor = degree.raw"),
    ("_check_place_refs", "if _place_refs_hold", "if not _place_refs_hold"),
    ("_check_place_refs", "elem not in nodes", "elem in nodes"),
    ("_check_place_refs", "isinstance(elem, str) and", "isinstance(elem, str) or"),
    ("_check_link_refs", "point[0] not in nodes", "point[0] in nodes"),
    ("_check_link_refs", "elif point not in inner", "elif point in inner"),
    ("_check_link_refs", "target not in edges and", "target not in edges or"),
    ("_check_ctrl_refs", "if v not in nodes", "if v in nodes"),
    ("_check_ctrl_refs", 'f"{path}.ctrl"', "path"),
]


def function_span(tree: ast.Module, qualname: str) -> tuple:
    """The first and last line of the function ``qualname`` (``Class.method``
    for a method)."""
    body = tree.body
    *outer, name = qualname.split(".")
    for part in outer:
        body = next(n.body for n in body if isinstance(n, ast.ClassDef) and n.name == part)
    node = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)
    return node.lineno, node.end_lineno


def mutate(source: str, qualname: str, text: str, replacement: str) -> str:
    """``source`` with ``text`` replaced in the function ``qualname``, where
    it must occur exactly once."""
    first, last = function_span(ast.parse(source), qualname)
    lines = source.splitlines(keepends=True)
    body = "".join(lines[first - 1:last])
    if body.count(text) != 1:
        raise LookupError(f"{text!r} occurs {body.count(text)} times in {qualname}")
    return "".join(lines[:first - 1]) + body.replace(text, replacement) + "".join(lines[last:])


def run_tests(copy: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv: list) -> int:
    chosen = [int(arg) for arg in argv] or range(1, len(MUTANTS) + 1)
    with tempfile.TemporaryDirectory() as copy:
        for part in ("src", "tests", "models"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        path = os.path.join(copy, MODULE)
        with open(path, encoding="utf-8") as handle:
            original = handle.read()
        if run_tests(copy) != 0:
            print("the unmutated copy fails its tests")
            return 1
        survivors, stale = [], []
        for number in chosen:
            qualname, text, replacement = MUTANTS[number - 1]
            label = f"{number:2}. {qualname}: {text!r} -> {replacement!r}"
            try:
                mutant = mutate(original, qualname, text, replacement)
            except (LookupError, StopIteration) as exc:
                stale.append(label)
                print(f"{label}: stale ({exc or 'no such function'})", flush=True)
                continue
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(mutant)
            killed = run_tests(copy) != 0
            print(f"{label}: {'killed' if killed else 'SURVIVED'}", flush=True)
            if not killed:
                survivors.append(label)
    print(f"{len(chosen)} mutants, {len(survivors)} survived, {len(stale)} stale")
    for label in survivors + stale:
        print(f"  {label}")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
