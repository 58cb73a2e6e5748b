"""Benchmark: shared reachability-graph cache vs per-property exploration.

The per-property explorer (the reference oracle in
``tests/reference/explorer.py``) re-simulates the assumption-constrained
design for every generated assertion; the cached-graph explorer
simulates each design state once per (test, memory variant) and checks
every property as a product walk over the memoized transitions.  This
benchmark times ``verify_suite`` over the full 56-test suite both ways
(single process) and records the per-phase breakdown; the acceptance
bar is a >= 3x wall-time improvement.
"""

import time

import pytest
from conftest import save_table

from repro import RTLCheck
from tests.reference.explorer import Explorer

SPEEDUP_FLOOR = 3.0


def test_reachgraph_suite_speedup(suite, results_dir):
    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.rtlcheck.GraphExplorer", Explorer)
        seed_results = RTLCheck().verify_suite(suite)
    seed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    graph_results = RTLCheck().verify_suite(suite)
    graph_seconds = time.perf_counter() - start

    speedup = seed_seconds / graph_seconds
    build = sum(r.graph_build_seconds for r in graph_results.values())
    proof = sum(r.proof_seconds for r in graph_results.values())
    cover = sum(r.cover_seconds for r in graph_results.values())
    sim_transitions = sum(r.graph_transitions for r in graph_results.values())
    walked = sum(
        p.ground_truth.transitions
        for r in graph_results.values()
        for p in r.properties
    )
    properties = sum(len(r.properties) for r in graph_results.values())

    lines = [
        "Reachability-graph cache: 56-test suite, single process",
        "",
        f"{'explorer':14s} {'wall':>8s}",
        f"{'per-property':14s} {seed_seconds:>7.1f}s",
        f"{'graph cache':14s} {graph_seconds:>7.1f}s",
        "",
        f"speedup: {speedup:.2f}x (floor: {SPEEDUP_FLOOR:.0f}x)",
        "",
        "graph-cache phase breakdown (summed over tests):",
        f"  graph build     {build:>6.1f}s "
        f"({sim_transitions} design transitions simulated once)",
        f"  cover walks     {cover:>6.1f}s (includes the build they trigger)",
        f"  property walks  {proof:>6.1f}s "
        f"({properties} properties, {walked} replayed transitions)",
        "",
        "Per-property exploration would have re-simulated every replayed",
        "transition; the cache pays the design cost once per test.",
    ]
    save_table(results_dir, "reachgraph_speedup.txt", "\n".join(lines))

    # Both explorers reach the same verdicts (the equivalence suite
    # checks this exhaustively; assert the headline here too).
    for name, seed in seed_results.items():
        graph = graph_results[name]
        assert graph.verified == seed.verified
        assert graph.modeled_hours == seed.modeled_hours

    assert speedup >= SPEEDUP_FLOOR, (
        f"graph cache speedup {speedup:.2f}x below {SPEEDUP_FLOOR:.0f}x floor"
    )
