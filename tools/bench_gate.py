#!/usr/bin/env python
"""CI benchmark-regression gate.

Runs a pinned, fast benchmark subset — cold reachability-graph builds,
proof walks over prebuilt graphs, random-schedule simulation, and
difftest oracle throughput — and writes
the measurements to a JSON trajectory point (``BENCH_ci.json``).  With
``--baseline``/``--check`` it compares against the committed baseline
(``benchmarks/baselines/ci_baseline.json``) and exits non-zero when any
metric slowed down by more than the threshold (default 25%).

Raw wall-clock seconds are useless across heterogeneous CI machines,
so every metric is reported in **calibrated units**: the metric's
best-of-N seconds divided by the best-of-N seconds of a fixed
pure-Python calibration workload run in the same process.  A machine
that is uniformly 2x slower scores the same units; only *relative*
regressions (an algorithmic or representation change in this repo)
move the ratio.

Usage:

    PYTHONPATH=src python tools/bench_gate.py --output BENCH_ci.json \
        --baseline benchmarks/baselines/ci_baseline.json --check

Refresh the baseline after an intentional performance change with
``tools/regen_bench_baseline.py`` (and commit the diff).

``--inject-slowdown METRIC`` artificially slows one metric (a sleep
sized at ~60% of its measured time) — used once per pipeline change to
demonstrate that the gate actually fails, never in a committed config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from typing import Callable, Dict, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

SCHEMA_VERSION = 1
DEFAULT_THRESHOLD = 0.25
DEFAULT_REPEATS = 3

#: Pinned workloads: small enough for a CI minute, large enough
#: (hundreds of milliseconds each) that timer noise is negligible.
REACHGRAPH_TESTS = ("mp", "sb", "iwp24", "iriw", "n4", "amd3")
REACHGRAPH_VARIANTS = ("fixed", "buggy")
#: Proof walks dominate a cold suite run; these three carry the
#: suite's largest walks (amd3 alone is ~118 assertions).
PROOF_WALK_TESTS = ("amd3", "iriw", "co-iriw")
SIMULATION_TESTS = ("mp", "iwp24")
SIMULATION_SCHEDULES = 600
#: The memoized kernel path replays schedules orders of magnitude
#: faster, so its metric needs a much larger campaign to clear the
#: timer-noise floor the gate threshold assumes.
KERNEL_SIMULATION_TESTS = ("mp", "sb", "iwp24", "iriw")
KERNEL_SIMULATION_SCHEDULES = 6000
DIFFTEST_TESTS = ("mp", "sb", "iwp24", "iriw", "amd3")
COVERAGE_TESTS = ("mp", "sb", "iwp24")
POLYCHECK_TESTS = ("mp", "sb", "iriw")
POLYCHECK_SAMPLES = 8
POLYCHECK_LONG_THREAD_OPS = 16


def _calibration_workload() -> int:
    """Fixed pure-Python workload (dict/tuple churn plus arithmetic,
    the same operation mix the benchmarks stress)."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(400_000):
        total += (i * i) % 7919
        table[i & 1023] = total
        if i & 1023 == 0:
            total += sum(table.values()) % 104729
    return total


def _expand_all(graph) -> None:
    """Simulate every reachable node of ``graph``."""
    frontier = [graph.root]
    seen = {graph.root}
    while frontier:
        node = frontier.pop()
        for _i, _inputs, _frame, child in graph.live_successors(node):
            if child not in seen:
                seen.add(child)
                frontier.append(child)


def _bench_reachgraph() -> None:
    """Cold full ReachGraph builds on the array backend."""
    from repro import get_test
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.sva import AssumptionChecker
    from repro.verifier.reach import ReachGraph
    from repro.vscale.soc import MultiVScale

    for name in REACHGRAPH_TESTS:
        compiled = compile_test(get_test(name))
        assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
        for variant in REACHGRAPH_VARIANTS:
            graph = ReachGraph(
                MultiVScale(compiled, variant), AssumptionChecker(assumptions)
            )
            _expand_all(graph)


@lru_cache(maxsize=None)
def _proof_walk_material():
    """Per test: a fully built reach graph (so the timed walks never
    simulate) and the compiled monitors of every assertion."""
    from repro import RTLCheck, get_test
    from repro.sva import AssumptionChecker, PropertyMonitor
    from repro.verifier.reach import ReachGraph
    from repro.vscale.soc import MultiVScale

    material = []
    for name in PROOF_WALK_TESTS:
        generated = RTLCheck().generate(get_test(name))
        graph = ReachGraph(
            MultiVScale(generated.compiled, "fixed"),
            AssumptionChecker(generated.assumptions),
        )
        _expand_all(graph)
        monitors = [PropertyMonitor(d) for d in generated.assertions]
        material.append((graph, monitors))
    return material


def _bench_proof_walk() -> None:
    """``GraphExplorer.check_property`` over every assertion of the
    pinned tests on fixed memory, as one test run's proof phase does it
    (a fresh explorer per test, so letters are computed inside the
    measurement); graph build and monitor compilation are not timed."""
    from repro.verifier.config import EXPLORER_BUDGET
    from repro.verifier.reach import GraphExplorer

    for graph, monitors in _proof_walk_material():
        explorer = GraphExplorer(graph.design, graph.assumptions, graph=graph)
        explorer.set_alphabet(frozenset().union(*(m.signals for m in monitors)))
        for monitor in monitors:
            explorer.check_property(monitor, EXPLORER_BUDGET)


def _bench_simulation() -> None:
    """Random-schedule simulation campaign on the fixed design."""
    from repro import get_test
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.verifier.simulation import simulate_check
    from repro.vscale.soc import MultiVScale

    for name in SIMULATION_TESTS:
        compiled = compile_test(get_test(name))
        mapping = MultiVScaleProgramMapping(compiled)
        simulate_check(
            MultiVScale(compiled, "fixed"),
            mapping.all_assumptions(),
            [],
            num_schedules=SIMULATION_SCHEDULES,
            max_cycles=60,
        )


def _bench_kernel_reachgraph() -> None:
    """Cold full ReachGraph builds on the compiled-kernel backend —
    the same workload as ``reachgraph_build`` so the two trajectories
    stay directly comparable.  Compile time is inside the measurement
    (the kernel cache is process-global, so only the first build of
    each design shape pays it — exactly what a verify run sees)."""
    from repro import get_test
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.sva import AssumptionChecker
    from repro.verifier.reach import ReachGraph
    from repro.vscale.soc import MultiVScale

    for name in REACHGRAPH_TESTS:
        compiled = compile_test(get_test(name))
        assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
        for variant in REACHGRAPH_VARIANTS:
            graph = ReachGraph(
                MultiVScale(compiled, variant, state_backend="kernel"),
                AssumptionChecker(assumptions),
            )
            _expand_all(graph)


def _bench_kernel_simulation() -> None:
    """Random-schedule simulation on the compiled-kernel backend
    (memoized per-(state, first) transition replay).  The campaign is
    10x the interpreted ``simulation`` workload: the memoized path is
    fast enough that the interpreted schedule count would measure
    timer noise, not the replay machinery this metric gates."""
    from repro import get_test
    from repro.litmus import compile_test
    from repro.mapping import MultiVScaleProgramMapping
    from repro.verifier.simulation import simulate_check
    from repro.vscale.soc import MultiVScale

    for name in KERNEL_SIMULATION_TESTS:
        compiled = compile_test(get_test(name))
        mapping = MultiVScaleProgramMapping(compiled)
        simulate_check(
            MultiVScale(compiled, "fixed", state_backend="kernel"),
            mapping.all_assumptions(),
            [],
            num_schedules=KERNEL_SIMULATION_SCHEDULES,
            max_cycles=60,
        )


def _bench_difftest() -> None:
    """Uncached difftest oracle sweep (operational + axiomatic + RTL)."""
    from repro import get_test
    from repro.difftest.oracles import evaluate_oracles

    for name in DIFFTEST_TESTS:
        evaluate_oracles(
            get_test(name), oracles=("operational", "axiomatic", "rtl")
        )


def _polycheck_long_test():
    """Deterministic 16-ops-per-thread program (trace-oracle-only
    territory: the exhaustive layers cannot touch it)."""
    from repro.litmus.test import LitmusTest, Outcome, load, store

    threads = [
        [store("x", i + 1) for i in range(8)]
        + [load("y", f"r{i}") for i in range(8)],
        [store("y", i + 1) for i in range(8)]
        + [load("x", f"r{i + 8}") for i in range(8)],
    ]
    return LitmusTest.of("bench-long16", threads, Outcome.of({}))


def _bench_polycheck() -> None:
    """Trace-oracle sweep: seeded RTL harvest + per-execution polycheck
    on the classic shapes plus one long program."""
    from repro import get_test
    from repro.difftest.oracles import trace_verdicts

    for name in POLYCHECK_TESTS:
        trace_verdicts(get_test(name), "fixed", samples=POLYCHECK_SAMPLES)
    trace_verdicts(_polycheck_long_test(), "fixed", samples=POLYCHECK_SAMPLES)


def _bench_coverage() -> None:
    """End-to-end verification with coverage maps on (uncached).

    Gates the cost of microarchitectural coverage collection: the
    per-test reach-graph walk, slot-vector signature hashing, and
    shape/assumption key extraction all ride this metric, so a
    collection-path regression shows up here even while the plain
    verification metrics stay flat.  The absolute <3% overhead bar
    lives in ``benchmarks/test_bench_coverage.py``.
    """
    from repro import RTLCheck, get_test

    rtlcheck = RTLCheck(coverage=True)
    for name in COVERAGE_TESTS:
        rtlcheck.verify_test(get_test(name), "fixed")


METRICS: Dict[str, Callable[[], None]] = {
    "reachgraph_build": _bench_reachgraph,
    "proof_walk": _bench_proof_walk,
    "simulation": _bench_simulation,
    "kernel_reachgraph": _bench_kernel_reachgraph,
    "kernel_simulation": _bench_kernel_simulation,
    "difftest": _bench_difftest,
    "polycheck": _bench_polycheck,
    "coverage_overhead": _bench_coverage,
}


#: Untimed per-metric set-up, run before the warm-up call.
SETUP: Dict[str, Callable[[], object]] = {
    "proof_walk": _proof_walk_material,
}


def _best_of(fn: Callable[[], None], repeats: int, extra: float = 0.0) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if extra:
            time.sleep(extra)
            elapsed += extra
        best = min(best, elapsed)
    return best


def run_gate(repeats: int, inject_slowdown: Optional[str] = None) -> Dict:
    calibration = _best_of(_calibration_workload, repeats)
    metrics = {}
    for name, fn in METRICS.items():
        if name in SETUP:
            SETUP[name]()
        warm_seconds = _best_of(fn, 1)  # one warm-up: imports, caches
        extra = 0.6 * warm_seconds if name == inject_slowdown else 0.0
        seconds = _best_of(fn, repeats, extra=extra)
        metrics[name] = {
            "seconds": round(seconds, 4),
            "units": round(seconds / calibration, 4),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "calibration_seconds": round(calibration, 4),
        "repeats": repeats,
        "metrics": metrics,
    }


def check_against_baseline(
    current: Dict, baseline: Dict, threshold: float
) -> int:
    """Print a comparison table; return the number of regressions."""
    regressions = 0
    print(f"{'metric':18s} {'baseline':>9s} {'current':>9s} {'ratio':>7s}")
    for name, entry in current["metrics"].items():
        base = baseline.get("metrics", {}).get(name)
        if base is None:
            print(f"{name:18s} {'—':>9s} {entry['units']:>9.3f}   (new metric)")
            continue
        ratio = entry["units"] / base["units"]
        flag = ""
        if ratio > 1.0 + threshold:
            flag = f"  REGRESSION (> {1.0 + threshold:.2f}x)"
            regressions += 1
        print(
            f"{name:18s} {base['units']:>9.3f} {entry['units']:>9.3f} "
            f"{ratio:>6.2f}x{flag}"
        )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_ci.json", help="trajectory point to write"
    )
    parser.add_argument(
        "--baseline", default=None, help="committed baseline JSON to compare"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a metric regresses past the threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS, help="best-of-N runs"
    )
    parser.add_argument(
        "--inject-slowdown",
        choices=sorted(METRICS),
        default=None,
        help="artificially slow one metric (gate self-test only)",
    )
    args = parser.parse_args(argv)

    current = run_gate(args.repeats, inject_slowdown=args.inject_slowdown)
    with open(args.output, "w") as handle:
        json.dump(current, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for name, entry in current["metrics"].items():
        print(f"  {name:18s} {entry['seconds']:>8.3f}s  {entry['units']:.3f} units")

    if args.baseline is None:
        return 0
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    regressions = check_against_baseline(current, baseline, args.threshold)
    if regressions and args.check:
        print(f"bench gate: {regressions} metric(s) regressed", file=sys.stderr)
        return 1
    print("bench gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
