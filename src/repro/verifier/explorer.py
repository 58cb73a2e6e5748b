"""Explicit-state property exploration: verdicts, budgets, and results.

A commercial property verifier compiles the design and each SVA property
into automata and explores their product.  Litmus-test-constrained
Multi-V-scale has a small finite state space, so we do the same thing
explicitly (:class:`repro.verifier.reach.GraphExplorer`): breadth-first
exploration of

    (design state) x (assumption pruning) x (assertion monitor state)

with deduplication.  Per property the verifier reports exactly the three
JasperGold outcomes the paper describes (§6.1):

* **proven** — the reachable product space is exhausted with no failure;
* **counterexample** — a concrete input trace refutes the property;
* **bounded proof** — no failure up to N cycles, budget exhausted.

Assumptions prune a branch only in the cycle their consequent is
violated (no future-violation checking — §3.1), and the search over the
free arbiter input reproduces "JasperGold tries all possibilities for
this input" (§5.2).

This module holds the vocabulary every walk shares: the verdicts, the
:class:`Budget`, and the :class:`ExplorationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.rtl.design import Frame

#: Verdicts.
PROVEN = "proven"
BOUNDED = "bounded"
FAILED = "cex"
UNREACHABLE = "unreachable"
REACHABLE = "reachable"
UNKNOWN = "unknown"


@dataclass
class Budget:
    """Exploration limits, standing in for a JasperGold engine's time
    allotment."""

    max_states: int = 2_000_000
    max_depth: int = 10_000

    def copy(self) -> "Budget":
        return Budget(self.max_states, self.max_depth)


@dataclass
class ExplorationResult:
    """Outcome of one exploration run."""

    verdict: str
    depth_completed: int = 0
    states_explored: int = 0
    transitions: int = 0
    counterexample: Optional[List[Tuple[Dict[str, int], Frame]]] = None
    fired_assumptions: Set[str] = field(default_factory=set)
    exhausted: bool = False
    #: Transitions evaluated per BFS layer (work profile for the engine
    #: model's bounded-proof depth accounting).  On early exits (cex or
    #: budget) the final entry records the interrupted layer's partial
    #: work, so ``sum(layer_transitions) == transitions`` always holds.
    layer_transitions: List[int] = field(default_factory=list)
    #: Wall-clock seconds this exploration took (phase profiling).
    seconds: float = 0.0

    @property
    def bound(self) -> int:
        return self.depth_completed

    # -- serialization (run reports) -----------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe snapshot (frames and inputs are str->int maps)."""
        return {
            "verdict": self.verdict,
            "depth_completed": self.depth_completed,
            "states_explored": self.states_explored,
            "transitions": self.transitions,
            "counterexample": (
                None
                if self.counterexample is None
                else [[dict(i), dict(f)] for i, f in self.counterexample]
            ),
            "fired_assumptions": sorted(self.fired_assumptions),
            "exhausted": self.exhausted,
            "layer_transitions": list(self.layer_transitions),
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExplorationResult":
        cex = data.get("counterexample")
        return cls(
            verdict=data["verdict"],
            depth_completed=data["depth_completed"],
            states_explored=data["states_explored"],
            transitions=data["transitions"],
            counterexample=(
                None if cex is None else [(dict(i), dict(f)) for i, f in cex]
            ),
            fired_assumptions=set(data["fired_assumptions"]),
            exhausted=data["exhausted"],
            layer_transitions=list(data["layer_transitions"]),
            seconds=data["seconds"],
        )
