"""Reproduce the ROADMAP north-star baselines with the benchmark's inputs.

    python3 bench/baselines.py

Run from the root of a checkout.  It prints, best and median of 5 passes:

- ``compose_crisp`` and the test suite's hand-rolled oracle, in µs per pair,
  over the 2,830 composable pairs of the crisp universe at sweep budget 5,
  and the criterion-3 projection of that per-pair cost to 36,545 pairs;
- one fuzzy compose of two 600-node operands (a ~1.2k-node composite) over
  ``unit-interval`` and over ``chain:5``, with a wide middle interface;
- ``parse`` and ``serialize`` of a ~610 KB ``unit-interval`` model.
"""

from __future__ import annotations

import importlib.util
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CRITERION_3_PAIRS = 36_545


def best_and_median(fn, passes: int = 5) -> tuple:
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import builders
    import reference as ref
    import workloads

    import fuzzybig
    from fuzzybig import crisp, fuzzy, model_io

    spec = importlib.util.spec_from_file_location("crisp_oracle", os.path.join(ROOT, "tests", "crisp_oracle.py"))
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)

    pairs = list(oracle.enumerate_composable_pairs(workloads.CRISP_BUDGET))
    for name, compose in (("compose_crisp", crisp.compose_crisp), ("oracle compose_direct", oracle.compose_direct)):

        def sweep():
            for f, g in pairs:
                compose(g, f)

        best, median = best_and_median(sweep)
        print(f"{name}: {1e6 * best / len(pairs):.1f} / {1e6 * median / len(pairs):.1f} µs per pair")
        if compose is crisp.compose_crisp:
            print(f"  criterion 3 projection: {CRITERION_3_PAIRS * median / len(pairs):.1f} s for {CRITERION_3_PAIRS} pairs")

    rng = random.Random(1)
    width, share = workloads.WIDE
    outer_in, mid, outer_out = (8, workloads.names("x", 8)), (width, workloads.names("m", width)), (8, workloads.names("z", 8))
    for frame in ("unit-interval", "chain:5"):
        f = builders.bigraph(rng, "fuzzy", frame, outer_in, mid, "f", workloads.LARGE_NODES, workloads.LARGE_EDGES, share)
        g = builders.bigraph(rng, "fuzzy", frame, mid, outer_out, "g", workloads.LARGE_NODES, workloads.LARGE_EDGES, share)
        F, G = builders.library_value(fuzzybig, f), builders.library_value(fuzzybig, g)
        best, median = best_and_median(lambda: fuzzy.compose_fuzzy(G, F))
        print(f"fuzzy compose, 2x600 nodes, {frame}: {1e3 * best:.1f} / {1e3 * median:.1f} ms")

    interface = (4, workloads.names("x", 4)), (8, workloads.names("m", 8))
    g = builders.bigraph(rng, "fuzzy", "unit-interval", *interface, "p", 1650, 825, 0.1)
    text = ref.encode_document("unit-interval", builders.SIGNATURE, {"f": g})
    doc = model_io.parse(text)
    best, median = best_and_median(lambda: model_io.parse(text))
    print(f"parse, {len(text) / 1024:.0f} KB: {1e3 * best:.1f} / {1e3 * median:.1f} ms")
    best, median = best_and_median(lambda: model_io.serialize(doc))
    print(f"serialize, {len(text) / 1024:.0f} KB: {1e3 * best:.1f} / {1e3 * median:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
