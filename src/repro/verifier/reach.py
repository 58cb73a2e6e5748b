"""The property verifier: a shared reachability graph and its walks.

The assumption-constrained RTL transition relation is identical across
all properties of one (test, memory variant) pair — only the monitor
component of the product differs.  :class:`ReachGraph` explores the
design side **once**, memoizing each state's per-input
``(frame, successor)`` transitions into an explicit graph, and
:class:`GraphExplorer` then verifies every
:class:`~repro.sva.monitor.PropertyMonitor` as a product walk over the
cached edges — no ``restore`` / ``eval_comb`` / ``tick`` calls after a
node's first expansion, and ``cover_assumptions`` is a free read of the
same graph once it has been built.

Equivalence guarantee
---------------------

``GraphExplorer`` reproduces a walk that re-simulates the design for
every property *bit for bit*: the same verdicts, ``depth_completed``
bounds, ``states_explored``, ``transitions``, per-layer work profiles,
fired assumptions, and counterexample traces.  This matters because the
engine model (:mod:`repro.verifier.engines`) consumes ``transitions``
and ``layer_transitions`` to model JasperGold hours, so the cached path
replays the walk's would-be transition counts — including the pruned
branches a re-simulating walk pays for — keeping the Figure 13/14
numbers identical.  ``tests/test_reach_equivalence.py`` cross-checks
against that re-simulating explorer (kept as a reference oracle in
``tests/reference/explorer.py``) over the full 56-test suite.

Three details make the replay exact:

* Nodes are keyed by ``(snapshot, first)`` because the auto-generated
  ``first`` signal makes the root cycle's frames (and hence assumption
  pruning) differ from any later visit to the same snapshot.  Only the
  root carries ``first=1``; child lookups always use ``first=0``, so a
  re-reached reset snapshot becomes a distinct ``first=0`` node.
* Product-walk ``visited`` sets are keyed by the *snapshot* (not the
  node id), matching the re-simulating walk's deduplication; the walk
  names snapshots by :meth:`ReachGraph.snap_id` ints.
* Expansion is lazy: a node's edges are simulated on first access, so
  a budget-truncated walk expands exactly the design states it touches
  and budgets behave identically.

Cached frames are shared between the graph and every result that
references them (counterexample traces included); treat them as
read-only.

Property walks step monitors through a lazily built DFA: each live
edge carries a *letter* (its frame's values on the test's assertion
signals, interned per test run), monitor states are interned as ints,
and ``(state, letter) -> (next state, verdict)`` is filled on first use
with the edge's real frame.  Letters depend on the assertions, hence on
the µspec model, which the reach-graph cache key excludes; they live on
the explorer and are never pickled with the graph.

The graph's cache economics are observable: ``sim_transitions`` counts
the design evaluations actually paid (cache misses), ``cache_hits``
counts node-successor lookups served without simulation, and both are
flushed to :mod:`repro.obs` counters by the RTLCheck flow.  Every
public walk runs inside a :mod:`repro.obs` span whose duration becomes
the result's ``seconds`` field, and walk-level counters are flushed to
the active recorder — a no-op unless a
:class:`~repro.obs.TraceRecorder` is installed.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.rtl.design import Design, Frame
from repro.sva.monitor import AssumptionChecker, PropertyMonitor
from repro.verifier.explorer import (
    BOUNDED,
    Budget,
    ExplorationResult,
    FAILED,
    PROVEN,
    REACHABLE,
    UNKNOWN,
)

#: One outgoing transition: ``None`` when the assumptions prune the
#: input this cycle, else the settled frame and the successor node id.
Edge = Optional[Tuple[Frame, int]]


class ReachGraph:
    """Lazily-built graph of the assumption-satisfying design states.

    Nodes are ``(snapshot, first)`` pairs; node 0 is the reset state
    with ``first=1``.  :meth:`successors` simulates a node's per-input
    transitions on first access and caches them, so the design work for
    one (test, memory variant) is paid at most once no matter how many
    property walks run on top.
    """

    root = 0

    def __init__(self, design: Design, assumptions: AssumptionChecker):
        self.design = design
        self.assumptions = assumptions
        self.input_space = design.input_space()
        design.reset()
        root_key = (design.snapshot(), 1)
        self._keys: List[Tuple[Hashable, int]] = [root_key]
        self._ids: Dict[Tuple[Hashable, int], int] = {root_key: 0}
        self._edges: List[Optional[List[Edge]]] = [None]
        self._live: List[Optional[List[Tuple[int, Dict[str, int], Frame, int]]]] = [
            None
        ]
        #: Design evaluations actually simulated (cache misses only).
        self.sim_transitions = 0
        #: Node-successor lookups served from the cache (no simulation).
        self.cache_hits = 0
        #: Wall-clock seconds spent simulating (graph-build time).
        self.build_seconds = 0.0

    # ------------------------------------------------------------------

    def snap(self, node: int) -> Hashable:
        """The design snapshot of ``node`` (the dedup key)."""
        return self._keys[node][0]

    def snap_id(self, node: int) -> int:
        """An int naming ``node``'s snapshot.  Nodes differ only in
        ``first``, which only the root sets, so this is the node id —
        except that a re-reached reset snapshot shares the root's."""
        return self._ids.get((self._keys[node][0], 1), node)

    @property
    def num_nodes(self) -> int:
        """Design states discovered so far (expanded or frontier)."""
        return len(self._keys)

    @property
    def expanded_nodes(self) -> int:
        """Design states whose transitions have been simulated."""
        return sum(1 for edges in self._edges if edges is not None)

    def iter_edges(self):
        """Yield ``(src, dst)`` node-id pairs over every expanded,
        non-pruned transition — the coverage layer's walk.  Unexpanded
        nodes are skipped, not expanded: coverage reports what a run
        actually explored."""
        for src, edges in enumerate(self._edges):
            if edges is None:
                continue
            for edge in edges:
                if edge is not None:
                    yield src, edge[1]

    def successors(self, node: int) -> List[Edge]:
        """Per-input transitions of ``node``, simulated once then cached."""
        edges = self._edges[node]
        if edges is None:
            edges = self._expand(node)
        return edges

    def live_successors(
        self, node: int
    ) -> List[Tuple[int, Dict[str, int], Frame, int]]:
        """The non-pruned transitions of ``node`` as
        ``(input_index, inputs, frame, child)`` — the walk's fast path.
        Input indices let callers account for the pruned edges in
        between without iterating them."""
        live = self._live[node]
        if live is None:
            inputs = self.input_space
            live = [
                (index, inputs[index], edge[0], edge[1])
                for index, edge in enumerate(self.successors(node))
                if edge is not None
            ]
            self._live[node] = live
        else:
            self.cache_hits += 1
        return live

    # ------------------------------------------------------------------

    def _expand(self, node: int) -> List[Edge]:
        start = time.perf_counter()
        snapshot, first = self._keys[node]

        # ``sim_transitions`` stays in logical per-input units (the
        # engine model prices walks in transitions); the *physical*
        # evaluations saved by batching are visible via the design's
        # ``batch_expansions``/``slots_copied`` counters.
        # ``step_batch_checked`` stamps ``first`` into kept frames and
        # applies the assumption pruning.
        steps = self.design.step_batch_checked(
            snapshot, self.input_space, self.assumptions, first
        )
        self.sim_transitions += len(self.input_space)
        edges: List[Edge] = []
        for step in steps:
            if step is None:
                edges.append(None)
                continue
            frame, child_state = step
            child_key = (child_state, 0)
            child = self._ids.get(child_key)
            if child is None:
                child = len(self._keys)
                self._ids[child_key] = child
                self._keys.append(child_key)
                self._edges.append(None)
                self._live.append(None)
            edges.append((frame, child))
        self._edges[node] = edges
        self.build_seconds += time.perf_counter() - start
        return edges


def rebuild_trace(
    parents: Dict, state: Tuple
) -> List[Tuple[Dict[str, int], Frame]]:
    """The ``(inputs, frame)`` path from the root to ``state``, read off
    a walk's ``child -> (parent, inputs, frame)`` pointers."""
    trace = []
    cursor = state
    while parents.get(cursor) is not None:
        parent, inputs, frame = parents[cursor]
        trace.append((inputs, frame))
        cursor = parent
    trace.reverse()
    return trace


class GraphExplorer:
    """Property checks and covering-trace search as walks over a shared
    :class:`ReachGraph`.

    The design is simulated only on graph cache misses — which is why
    walked transitions are *not* reported as simulated frames here (the
    graph reports its own ``sim_transitions``).  A warm-loaded ``graph``
    carries its own design and assumption checker, which the explorer
    then uses in place of the arguments.
    """

    def __init__(
        self,
        design: Design,
        assumptions: AssumptionChecker,
        graph: Optional[ReachGraph] = None,
    ):
        self.graph = graph if graph is not None else ReachGraph(design, assumptions)
        self.design = self.graph.design
        self.assumptions = self.graph.assumptions
        self.input_space = self.graph.input_space
        self.set_alphabet(())

    def check_property(
        self, monitor: PropertyMonitor, budget: Budget
    ) -> ExplorationResult:
        """Verify one assertion against all assumption-satisfying traces."""
        with obs.span("property", property=monitor.directive.name) as walk:
            result = self._check_property(monitor, budget)
        result.seconds = walk.seconds
        self._flush_walk_counters(result, kind="property")
        return result

    def cover_assumptions(self, budget: Budget) -> ExplorationResult:
        """Covering-trace search (paper §4.1): explore all assumption-
        satisfying traces, recording which assumptions' antecedents fire
        with their consequents enforceable.  If exploration exhausts and
        an assumption never fired, that assumption is *unreachable*."""
        with obs.span("cover") as walk:
            result = self._cover_assumptions(budget)
        result.seconds = walk.seconds
        self._flush_walk_counters(result, kind="cover")
        return result

    def _flush_walk_counters(self, result: ExplorationResult, kind: str) -> None:
        recorder = obs.get_recorder()
        if not recorder.enabled:
            return
        recorder.count(f"explorer.{kind}_walks", 1)
        recorder.count("explorer.transitions", result.transitions)
        recorder.count("explorer.states_explored", result.states_explored)

    def set_alphabet(self, signals: AbstractSet[str]) -> None:
        """Project edge frames onto ``signals`` to form letters.  Set it
        to the union of a test's assertion signals before the proof
        loop, so letters are computed once per node for every walk; a
        monitor reading a signal outside it widens it (and recomputes
        letters) on its walk."""
        self._alphabet = tuple(sorted(signals))
        self._letter_ids: Dict[Tuple[int, ...], int] = {}
        #: node -> (edge letters, child snapshot ids), parallel to the
        #: node's ``live_successors`` list.
        self._node_letters: Dict[int, Tuple[List[int], List[int]]] = {}

    def _letters(self, node: int, live) -> Tuple[List[int], List[int]]:
        """Letters and child snapshot ids of ``node``'s live edges,
        built from its ``live_successors`` list on first use."""
        entry = self._node_letters.get(node)
        if entry is None:
            alphabet = self._alphabet
            letter_ids = self._letter_ids
            snap_id = self.graph.snap_id
            letters = []
            for _index, _inputs, frame, _child in live:
                value = tuple([frame.get(name, 0) for name in alphabet])
                letter = letter_ids.get(value)
                if letter is None:
                    letter = letter_ids[value] = len(letter_ids)
                letters.append(letter)
            entry = (letters, [snap_id(edge[3]) for edge in live])
            self._node_letters[node] = entry
        return entry

    # ------------------------------------------------------------------

    def _check_property(
        self, monitor: PropertyMonitor, budget: Budget
    ) -> ExplorationResult:
        """Verify one assertion as a product walk over the cached graph.

        Product states are ``(snapshot id, monitor state id)`` ints.
        ``rows[state][letter]`` holds ``(next state, verdict)``; on a
        miss ``monitor.step``/``monitor.verdict`` run on the edge's
        real frame, which any frame with the same letter would match.
        """
        if not monitor.signals <= set(self._alphabet):
            self.set_alphabet(monitor.signals.union(self._alphabet))
        graph = self.graph
        initial = monitor.initial()
        mon_states = [initial]
        mon_ids = {initial: 0}
        rows: List[Dict[int, Tuple[int, Optional[bool]]]] = [{}]
        hits = misses = 0
        root_key = (graph.snap_id(graph.root), 0)
        visited = {root_key}
        frontier: List[Tuple[int, Tuple[int, int]]] = [(graph.root, root_key)]
        parents: Dict[Tuple[int, int], Optional[Tuple]] = {root_key: None}
        result = ExplorationResult(verdict=UNKNOWN)
        depth = 0

        while frontier:
            if depth >= budget.max_depth:
                result.verdict = BOUNDED
                result.depth_completed = depth
                result.states_explored = len(visited)
                _record_table(monitor, rows, hits, misses)
                return result
            next_frontier: List[Tuple[int, Tuple[int, int]]] = []
            layer_start = result.transitions
            for node, node_key in frontier:
                # Fast path: iterate only the live edges; the input index
                # recovers the re-simulating walk's transition count,
                # which includes the pruned edges in between.
                base = result.transitions
                live = graph.live_successors(node)
                letters, child_snaps = self._letters(node, live)
                row = rows[node_key[1]]
                for (index, inputs, frame, child_node), letter, child_snap in zip(
                    live, letters, child_snaps
                ):
                    step = row.get(letter)
                    if step is None:
                        misses += 1
                        new_mon = monitor.step(mon_states[node_key[1]], frame)
                        state = mon_ids.get(new_mon)
                        if state is None:
                            state = mon_ids[new_mon] = len(mon_states)
                            mon_states.append(new_mon)
                            rows.append({})
                        step = row[letter] = (state, monitor.verdict(new_mon))
                    else:
                        hits += 1
                    state, verdict = step
                    if verdict is False:
                        trace = rebuild_trace(parents, node_key)
                        trace.append((dict(inputs), frame))
                        result.verdict = FAILED
                        result.transitions = base + index + 1
                        result.depth_completed = depth + 1
                        result.states_explored = len(visited)
                        result.counterexample = trace
                        result.layer_transitions.append(
                            result.transitions - layer_start
                        )
                        _record_table(monitor, rows, hits, misses)
                        return result
                    if verdict is True:
                        continue  # every extension satisfies the property
                    child_key = (child_snap, state)
                    if child_key not in visited:
                        if len(visited) >= budget.max_states:
                            result.verdict = BOUNDED
                            result.transitions = base + index + 1
                            result.depth_completed = depth
                            result.states_explored = len(visited)
                            result.layer_transitions.append(
                                result.transitions - layer_start
                            )
                            _record_table(monitor, rows, hits, misses)
                            return result
                        visited.add(child_key)
                        parents[child_key] = (node_key, dict(inputs), frame)
                        next_frontier.append((child_node, child_key))
                result.transitions = base + len(self.input_space)
            result.layer_transitions.append(result.transitions - layer_start)
            frontier = next_frontier
            depth += 1

        result.verdict = PROVEN
        result.exhausted = True
        result.depth_completed = depth
        result.states_explored = len(visited)
        _record_table(monitor, rows, hits, misses)
        return result

    # ------------------------------------------------------------------

    def _cover_assumptions(self, budget: Budget) -> ExplorationResult:
        """The covering walk as a read of the graph."""
        graph = self.graph
        root_key = graph.snap(graph.root)
        visited = {root_key}
        frontier = [graph.root]
        result = ExplorationResult(verdict=UNKNOWN)
        depth = 0
        checks = self.assumptions.checks

        while frontier:
            if depth >= budget.max_depth:
                result.verdict = UNKNOWN
                result.depth_completed = depth
                result.states_explored = len(visited)
                return result
            next_frontier = []
            layer_start = result.transitions
            for node in frontier:
                base = result.transitions
                for index, _inputs, frame, child_node in graph.live_successors(node):
                    result.transitions = base + index + 1
                    for name, antecedent, _consequent in checks:
                        if name not in result.fired_assumptions and antecedent.evaluate(frame):
                            result.fired_assumptions.add(name)
                    child_key = graph.snap(child_node)
                    if child_key not in visited:
                        if len(visited) >= budget.max_states:
                            result.verdict = UNKNOWN
                            result.depth_completed = depth
                            result.states_explored = len(visited)
                            result.layer_transitions.append(
                                result.transitions - layer_start
                            )
                            return result
                        visited.add(child_key)
                        next_frontier.append(child_node)
                result.transitions = base + len(self.input_space)
            result.layer_transitions.append(result.transitions - layer_start)
            frontier = next_frontier
            depth += 1

        result.verdict = REACHABLE
        result.exhausted = True
        result.depth_completed = depth
        result.states_explored = len(visited)
        return result


def _record_table(
    monitor: PropertyMonitor,
    rows: List[Dict[int, Tuple[int, Optional[bool]]]],
    hits: int,
    misses: int,
) -> None:
    """Fold one walk's DFA-table economics into ``monitor``'s counters."""
    monitor.dfa_states += len(rows)
    monitor.table_hits += hits
    monitor.table_misses += misses
    monitor.letters += len(set().union(*rows))
