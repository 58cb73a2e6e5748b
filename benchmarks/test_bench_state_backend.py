"""Benchmark: interned slot-vector state vs nested-tuple snapshots.

The nested-tuple reference (``tests/reference/snapshots.py``) snapshots
a design as tuples rebuilt from its registers and expands a frontier
node with one full restore/eval/tick round trip per free-input choice.
The product writes a flat slot vector once, hash-conses it to an
integer id, and expands all arbiter-grant choices from a single settled
evaluation (the grant feeds only the arbiter's registered state, so the
shared frame is reused and only one slot differs per choice).

This benchmark times a *cold* full reachability-graph build — the part
of the pipeline the representation changes — for every suite test on
the fixed design, both ways, and asserts a >= 2x floor.  Node and
transition counts are asserted identical, so the speedup is a pure
representation win, not a workload change.
"""

import time

from conftest import save_table

from repro.litmus import compile_test
from repro.mapping import MultiVScaleProgramMapping
from repro.sva import AssumptionChecker
from repro.verifier.reach import ReachGraph
from repro.vscale.soc import MultiVScale
from tests.reference.snapshots import DictMultiVScale

SPEEDUP_FLOOR = 2.0
DESIGNS = {"tuples": DictMultiVScale, "slots": MultiVScale}


def _build(compiled, assumptions, design_cls):
    design = design_cls(compiled, "fixed")
    graph = ReachGraph(design, AssumptionChecker(assumptions))
    frontier = [graph.root]
    seen = {graph.root}
    while frontier:
        node = frontier.pop()
        for _index, _inputs, _frame, child in graph.live_successors(node):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return graph, design


def test_state_backend_graph_build_speedup(suite, results_dir):
    compiled_tests = [
        (test.name, compile_test(test)) for test in suite
    ]
    assumption_sets = {
        name: MultiVScaleProgramMapping(compiled).all_assumptions()
        for name, compiled in compiled_tests
    }

    totals = {}
    stats = {}
    for label, design_cls in DESIGNS.items():
        seconds = 0.0
        nodes = 0
        transitions = 0
        interned = 0
        batches = 0
        for name, compiled in compiled_tests:
            start = time.perf_counter()
            graph, design = _build(compiled, assumption_sets[name], design_cls)
            seconds += time.perf_counter() - start
            nodes += graph.num_nodes
            transitions += graph.sim_transitions
            if label == "slots":
                interned += design.states_interned
                batches += design.batch_expansions
        totals[label] = seconds
        stats[label] = (nodes, transitions, interned, batches)

    # Same workload: identical graphs, identical logical transitions.
    assert stats["slots"][0] == stats["tuples"][0]
    assert stats["slots"][1] == stats["tuples"][1]

    speedup = totals["tuples"] / totals["slots"]
    nodes, transitions, interned, batches = stats["slots"]
    lines = [
        "Slot-vector state: cold ReachGraph build, 56 tests, fixed design",
        "",
        f"{'state':28s} {'wall':>8s}",
        f"{'nested tuples (reference)':28s} {totals['tuples']:>7.2f}s",
        f"{'interned slot vectors':28s} {totals['slots']:>7.2f}s",
        "",
        f"speedup: {speedup:.2f}x (floor: {SPEEDUP_FLOOR:.0f}x)",
        "",
        f"graph nodes (identical both ways): {nodes}",
        f"logical transitions (identical both ways): {transitions}",
        f"distinct interned states: {interned}",
        f"batched expansions: {batches} "
        f"(one eval/tick each, vs {transitions} reference round trips)",
        "",
        "Slot vectors pay one settled evaluation per frontier node and",
        "patch the single arbiter-grant slot per input choice; the",
        "reference replays the full restore/eval/tick loop per input.",
    ]
    save_table(results_dir, "state_backend.txt", "\n".join(lines))

    assert speedup >= SPEEDUP_FLOOR, (
        f"slot-vector speedup {speedup:.2f}x below {SPEEDUP_FLOOR:.0f}x floor"
    )
