"""The per-property explorer: the reference oracle for ``GraphExplorer``.

For every property it re-simulates the design from reset: breadth-first
exploration of

    (design state) x (assumption pruning) x (assertion monitor state)

with deduplication, one ``restore`` / ``eval_comb`` / ``tick`` per
transition and no shared graph.  It is the direct reading of the
verifier's semantics, so :class:`repro.verifier.reach.GraphExplorer`
must reproduce its verdicts, bounds, ``states_explored``, per-layer
work profiles, fired assumptions, and counterexample traces bit for bit.

It takes ``GraphExplorer``'s constructor signature, so a test can
substitute it for the module-level ``GraphExplorer`` name in
:mod:`repro.core.rtlcheck` (see the ``per_property_explorer`` fixture
in ``tests/conftest.py``); the ``graph`` argument is ignored.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro import obs
from repro.rtl.design import Design
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
from repro.verifier.reach import GraphExplorer, rebuild_trace


class Explorer(GraphExplorer):
    """Breadth-first product-space exploration for one design, paying
    the design simulation again for every walk."""

    def __init__(self, design: Design, assumptions: AssumptionChecker, graph=None):
        self.design = design
        self.assumptions = assumptions
        self.input_space = design.input_space()
        #: No shared graph: RTLCheck reports zero graph statistics.
        self.graph = None

    def set_alphabet(self, signals) -> None:
        """Letters are a graph-walk memo; this explorer has none."""

    def _flush_walk_counters(self, result: ExplorationResult, kind: str) -> None:
        super()._flush_walk_counters(result, kind)
        # Every walked transition simulates one RTL frame.
        recorder = obs.get_recorder()
        if recorder.enabled:
            recorder.count("rtl.frames_simulated", result.transitions)

    def _reset_root(self) -> Hashable:
        self.design.reset()
        return self.design.snapshot()

    def _check_property(
        self, monitor: PropertyMonitor, budget: Budget
    ) -> ExplorationResult:
        root_rtl = self._reset_root()
        root = (root_rtl, monitor.initial())
        visited = {root}
        frontier: List[Tuple[Hashable, Tuple]] = [root]
        # Parent pointers for counterexample reconstruction:
        # child -> (parent, inputs, frame)
        parents: Dict[Tuple, Tuple] = {root: None}
        result = ExplorationResult(verdict=UNKNOWN)
        depth = 0

        while frontier:
            if depth >= budget.max_depth:
                result.verdict = BOUNDED
                result.depth_completed = depth
                result.states_explored = len(visited)
                return result
            next_frontier: List[Tuple[Hashable, Tuple]] = []
            first = 1 if depth == 0 else 0
            layer_start = result.transitions
            for rtl_state, mon_state in frontier:
                for inputs in self.input_space:
                    self.design.restore(rtl_state)
                    frame = self.design.eval_comb(inputs)
                    frame["first"] = first
                    result.transitions += 1
                    if not self.assumptions.frame_ok(frame):
                        continue
                    new_mon = monitor.step(mon_state, frame)
                    verdict = monitor.verdict(new_mon)
                    if verdict is False:
                        trace = rebuild_trace(parents, (rtl_state, mon_state))
                        trace.append((dict(inputs), frame))
                        result.verdict = FAILED
                        result.depth_completed = depth + 1
                        result.states_explored = len(visited)
                        result.counterexample = trace
                        result.layer_transitions.append(
                            result.transitions - layer_start
                        )
                        return result
                    if verdict is True:
                        continue  # every extension satisfies the property
                    self.design.tick()
                    child = (self.design.snapshot(), new_mon)
                    if child not in visited:
                        # Budget check per expansion, not per layer: a
                        # wide layer must not blow past the state cap.
                        if len(visited) >= budget.max_states:
                            result.verdict = BOUNDED
                            result.depth_completed = depth
                            result.states_explored = len(visited)
                            result.layer_transitions.append(
                                result.transitions - layer_start
                            )
                            return result
                        visited.add(child)
                        parents[child] = ((rtl_state, mon_state), dict(inputs), frame)
                        next_frontier.append(child)
            result.layer_transitions.append(result.transitions - layer_start)
            frontier = next_frontier
            depth += 1

        result.verdict = PROVEN
        result.exhausted = True
        result.depth_completed = depth
        result.states_explored = len(visited)
        return result

    def _cover_assumptions(self, budget: Budget) -> ExplorationResult:
        root = self._reset_root()
        visited = {root}
        frontier = [root]
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
            first = 1 if depth == 0 else 0
            layer_start = result.transitions
            for rtl_state in frontier:
                for inputs in self.input_space:
                    self.design.restore(rtl_state)
                    frame = self.design.eval_comb(inputs)
                    frame["first"] = first
                    result.transitions += 1
                    if not self.assumptions.frame_ok(frame):
                        continue
                    for name, antecedent, _consequent in checks:
                        if name not in result.fired_assumptions and antecedent.evaluate(frame):
                            result.fired_assumptions.add(name)
                    self.design.tick()
                    child = self.design.snapshot()
                    if child not in visited:
                        if len(visited) >= budget.max_states:
                            result.verdict = UNKNOWN
                            result.depth_completed = depth
                            result.states_explored = len(visited)
                            result.layer_transitions.append(
                                result.transitions - layer_start
                            )
                            return result
                        visited.add(child)
                        next_frontier.append(child)
            result.layer_transitions.append(result.transitions - layer_start)
            frontier = next_frontier
            depth += 1

        result.verdict = REACHABLE
        result.exhausted = True
        result.depth_completed = depth
        result.states_explored = len(visited)
        return result
