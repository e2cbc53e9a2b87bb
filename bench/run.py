"""Run one fuzzybig benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/`` and
the crisp oracle from ``tests/``.  Inputs come from ``--seed`` only.  Each
workload is a closed loop with one caller in one process: an op starts
when the previous one has returned.  Ops run in whole passes over the
workload's op list until ``--seconds`` have passed and at least
``MIN_OPS`` ops were timed.  Every output is checked off the clock.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
named in ``BENCHMARK.json``.  Op times are scaled by a speed kernel timed
alongside them, to cancel the shifts in speed of a shared host; the
unadjusted figures and a per-kind latency table go to stderr.  With
``--trace 1`` the last line holds the per-layer metrics of one untraced
pass, one pass with spans and one pass with frame counters.  See
``NOTES.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import builders  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
MIN_OPS = 100
HARD_STOP_S = 120.0  # keeps a run, set-up probes included, within 3 minutes
SETUP_PROBES = 3  # fresh processes; with the run's own set-up, 4 samples
# Op times are scaled to a host on which the speed kernel takes this long.
KERNEL_REFERENCE_S = 0.005
KERNEL_EVERY_S = 0.1


def hash_seed(seed: int) -> str:
    """Set iteration order is part of the input: derive it from the seed."""
    return str(seed % 4_294_967_296)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed))
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; BENCHMARK.json lists {names}")

    lib = load_library()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = setup(lib, args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        inputs = reference.digest(workload.fingerprints)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "inputs": inputs}))
            return 0
        if args.trace:
            result = traced(lib, workload, spec, args.workload)
        else:
            result = untraced(workload, spec, args, setup_s, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_library():
    """The package from ``src/`` and the crisp oracle from ``tests/``."""
    src = os.path.join(ROOT, "src")
    oracle_path = os.path.join(ROOT, "tests", "crisp_oracle.py")
    if not os.path.isfile(os.path.join(src, "fuzzybig", "__init__.py")) or not os.path.isfile(oracle_path):
        raise SystemExit(f"no fuzzybig sources under {ROOT}: run from the root of a checkout")
    sys.path.insert(0, src)
    import fuzzybig
    from fuzzybig import category, cli, crisp, fuzzy, generators, lattice, model_io, relations, type2

    spec = importlib.util.spec_from_file_location("crisp_oracle", oracle_path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return types.SimpleNamespace(
        fb=fuzzybig,
        category=category,
        cli=cli,
        crisp=crisp,
        fuzzy=fuzzy,
        generators=generators,
        lattice=lattice,
        model_io=model_io,
        relations=relations,
        type2=type2,
        oracle=oracle,
    )


def setup(lib, name: str, seed: int, workdir: str):
    """Generate the inputs, write the model files and run the warm-up ops."""
    workload = workloads.BUILDERS[name](lib, random.Random(seed), workdir)
    for op in workload.warmup:
        try:
            op.call()
        except Exception:  # the timed passes count the failure
            pass
    return workload


def run_op(op, tracer=None):
    """Time one op; return (seconds, raised, wrong)."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = op.call()
        raised = False
    except Exception:  # a failing op is counted, never fatal
        raised = True
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
        tracer.end_op()
    if raised:
        return elapsed, True, False
    try:
        wrong = not op.check(out)
    except Exception:  # an output the check cannot even read is wrong
        wrong = True
    return elapsed, False, wrong


def speed_kernel():
    """A fixed task that tracks the host's current speed.

    It is the reference sup-min composition of two 120-node graphs, built
    from a fixed seed, and a JSON round trip of the result: benchmark code
    and the standard library, so no change to the library moves it.
    """
    rng = random.Random(0)
    mid = (16, frozenset(f"m{i}" for i in range(16)))
    f = builders.bigraph(rng, "fuzzy", "unit-interval", (2, frozenset({"a"})), mid, "f", 120, 60, 0.5)
    g = builders.bigraph(rng, "fuzzy", "unit-interval", mid, (2, frozenset({"b"})), "g", 120, 60, 0.5)

    def kernel() -> float:
        t0 = time.perf_counter()
        json.loads(reference.fingerprint(reference.compose(g, f)))
        return time.perf_counter() - t0

    return kernel


def untraced(workload, spec, args, setup_s: float, inputs: str) -> dict:
    kernel = speed_kernel()
    results = []  # (op index, kind, raw seconds, host-adjusted seconds, raised, wrong)
    kernel_times = []
    peak_rss_mb = None
    started = time.perf_counter()
    while True:
        timed, samples, last = [], [], 0.0
        for i, op in enumerate(workload.ops):
            timed.append((i, op.kind, *run_op(op)))
            if time.perf_counter() - last > KERNEL_EVERY_S:
                samples.append(kernel())
                last = time.perf_counter()
        scale = KERNEL_REFERENCE_S / statistics.median(samples)
        kernel_times += samples
        results += [(i, kind, s, s * scale, raised, wrong) for i, kind, s, raised, wrong in timed]
        if peak_rss_mb is None:  # set-up and one pass; later passes only add result records
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - started
        if (elapsed >= args.seconds and len(results) >= MIN_OPS) or elapsed >= HARD_STOP_S:
            break
    setups, same_inputs = [setup_s], True
    for _ in range(SETUP_PROBES):
        probe = setup_probe(args)
        setups.append(probe["setup_s"])
        same_inputs = same_inputs and probe["inputs"] == inputs

    raw = latency_metrics(results, 2)
    adjusted = latency_metrics(results, 3)
    raised = sum(r[4] for r in results)
    wrong = sum(r[5] for r in results)
    attempted = len(results)
    report_kinds(results)
    print(
        f"{attempted} ops timed ({attempted // len(workload.ops)}+ passes over {len(workload.ops)} ops), "
        f"{raised} raised, {wrong} wrong\nunadjusted: {raw}\n"
        f"set-up samples {setups}; inputs {inputs[:16]} "
        f"{'reproduced' if same_inputs else 'DIFFER between processes'}",
        file=sys.stderr,
    )
    values = {
        **adjusted,
        "success_rate": (attempted - raised - wrong) / attempted,
        # The set-ups run just before and after the loop, in the same host
        # state as the run, so they take the run's median kernel time.
        "setup_s": statistics.median(setups) * KERNEL_REFERENCE_S / statistics.median(kernel_times),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "correct": wrong == 0 and same_inputs,
        "attempted": attempted,
        "failed": raised + wrong,
        "metrics": with_units(values, spec["end_to_end"]),
    }


def latency_metrics(results, column: int) -> dict:
    """Throughput and latency percentiles, each timed op counted with the
    median of its own op's repetitions, which drops short bursts of host
    speed while keeping the spread between ops."""
    repeats: dict = {}
    for r in results:
        repeats.setdefault(r[0], []).append(r[column])
    typical = {i: statistics.median(times) for i, times in repeats.items()}
    latencies = sorted(typical[r[0]] for r in results)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def setup_probe(args) -> dict:
    """Set the workload up in a fresh process; return its time and input digest."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced(lib, workload, spec, name: str) -> dict:
    namespaces = tracing.namespaces_of(("fuzzybig",)) + [
        vars(lib.oracle),
        *(vars(sys.modules[m]) for m in ("workloads", "builders", "reference")),
    ]
    base = [run_op(op) for op in workload.ops]
    tracer = tracing.Tracer(lib, namespaces)
    tracer.install_spans()
    try:
        spanned = [run_op(op, tracer) for op in workload.ops]
    finally:
        tracer.remove()
    counter = tracing.Tracer(lib, namespaces)
    counter.install_counters()
    try:
        counted = [run_op(op, counter) for op in workload.ops]
    finally:
        counter.remove()
    tracer.write(os.path.join(WORK, f"trace-{name}.json"))

    overhead = sum(r[0] for r in spanned) / sum(r[0] for r in base)
    values = tracing.layer_metrics(tracing.SpanStats(tracer.spans), counter.counts, overhead)
    wanted = {m["name"] for m in spec["per_layer"]}
    if set(values) != wanted:
        raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(values) ^ wanted)}")
    runs = base + spanned + counted
    return {
        "correct": not any(r[2] for r in runs),
        "attempted": len(runs),
        "failed": sum(r[1] or r[2] for r in runs),
        "metrics": with_units(values, spec["per_layer"]),
    }


def with_units(values: dict, declared: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def report_kinds(results):
    """Per-kind sample count, median latency and failures, to stderr."""
    kinds: dict = {}
    for _i, kind, seconds, _adjusted, raised, wrong in results:
        kinds.setdefault(kind, []).append((seconds, raised or wrong))
    for kind in sorted(kinds):
        rows = kinds[kind]
        median_us = 1e6 * statistics.median(s for s, _ in rows)
        failed = sum(f for _, f in rows)
        print(f"  {kind:40s} n={len(rows):6d} p50={median_us:12.1f}us failed={failed}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
