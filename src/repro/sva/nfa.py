"""Compilation of SVA sequences to NFAs over trace frames.

A sequence is a regular expression whose alphabet symbols are boolean
predicates on one cycle's frame.  We build a Thompson-style automaton
with epsilon transitions, then eliminate the epsilons so the monitor
only deals with predicate transitions and an accepting-state set.

Matching semantics (what the monitor relies on):

* the NFA starts in the epsilon-closure of its start state;
* consuming a frame moves through all transitions whose predicate holds;
* a (non-empty) *match* exists iff some reachable state is accepting;
* once the live-state set is empty, no extension of the trace can ever
  match — the refutation RTLCheck's delay encoding is designed to make
  observable (paper §3.3/§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from repro.errors import SvaError
from repro.rtl.design import Frame
from repro.sva.ast import BoolExpr, SBool, SCat, SRepeat, Sequence

Predicate = Callable[[Frame], bool]


@dataclass
class Nfa:
    """Epsilon-free NFA: ``transitions[state] = [(expr, next_state)]``."""

    num_states: int
    start_states: FrozenSet[int]
    accepting: FrozenSet[int]
    transitions: Dict[int, List[Tuple[BoolExpr, int]]]
    #: Predicate-memo economics, accumulated across :meth:`step` calls
    #: and flushed to ``repro.obs`` counters by the RTLCheck flow.
    memo_hits: int = 0
    memo_misses: int = 0

    def __getstate__(self):
        # Pickles carry no memo counters (see ``PropertyMonitor``).
        return {**self.__dict__, "memo_hits": 0, "memo_misses": 0}

    def initial(self) -> FrozenSet[int]:
        return self.start_states

    def step(self, states: FrozenSet[int], frame: Frame) -> FrozenSet[int]:
        """Advance one frame."""
        nxt: Set[int] = set()
        # Epsilon elimination duplicates predicates across states, so
        # memoize each (pure) predicate's value for this frame.
        values: Dict[int, bool] = {}
        transitions = self.transitions
        hits = misses = 0
        for state in states:
            for expr, target in transitions.get(state, ()):
                if target in nxt:
                    continue
                key = id(expr)
                value = values.get(key)
                if value is None:
                    value = bool(expr.evaluate(frame))
                    values[key] = value
                    misses += 1
                else:
                    hits += 1
                if value:
                    nxt.add(target)
        self.memo_hits += hits
        self.memo_misses += misses
        return frozenset(nxt)

    def accepts(self, states: FrozenSet[int]) -> bool:
        return not self.accepting.isdisjoint(states)

    def starts_accepting(self) -> bool:
        """Does the sequence admit an empty match?  (Zero-length matches
        are not counted as property satisfaction in SVA; we surface this
        so callers can reject degenerate sequences.)"""
        return self.accepts(self.start_states)

    def can_loop_forever(self, states: FrozenSet[int], frame: Frame) -> bool:
        """Could the NFA still reach acceptance if ``frame`` repeated
        forever?  Used to resolve pending matches at quiescence."""
        seen = set(states)
        frontier = set(states)
        while frontier:
            if not self.accepting.isdisjoint(frontier):
                return True
            new: Set[int] = set()
            for state in frontier:
                for expr, target in self.transitions.get(state, ()):
                    if target not in seen and expr.evaluate(frame):
                        new.add(target)
            seen |= new
            frontier = new
        return False


class _Builder:
    """Thompson construction with epsilon edges, then elimination."""

    def __init__(self):
        self.count = 0
        self.eps: Dict[int, Set[int]] = {}
        self.edges: Dict[int, List[Tuple[BoolExpr, int]]] = {}

    def new_state(self) -> int:
        self.count += 1
        return self.count - 1

    def add_eps(self, src: int, dst: int) -> None:
        self.eps.setdefault(src, set()).add(dst)

    def add_edge(self, src: int, expr: BoolExpr, dst: int) -> None:
        self.edges.setdefault(src, []).append((expr, dst))

    def build(self, seq: Sequence) -> Tuple[int, int]:
        """Returns (entry, exit) states for ``seq``."""
        if isinstance(seq, SBool):
            entry, exit_ = self.new_state(), self.new_state()
            self.add_edge(entry, seq.expr, exit_)
            return entry, exit_
        if isinstance(seq, SRepeat):
            entry = self.new_state()
            current = entry
            for _ in range(seq.lo):
                nxt = self.new_state()
                self.add_edge(current, seq.expr, nxt)
                current = nxt
            if seq.hi is None:
                loop = self.new_state()
                self.add_eps(current, loop)
                self.add_edge(loop, seq.expr, loop)
                exit_ = self.new_state()
                self.add_eps(loop, exit_)
                self.add_eps(current, exit_)
                return entry, exit_
            exit_ = self.new_state()
            self.add_eps(current, exit_)
            for _ in range(seq.hi - seq.lo):
                nxt = self.new_state()
                self.add_edge(current, seq.expr, nxt)
                self.add_eps(nxt, exit_)
                current = nxt
            return entry, exit_
        if isinstance(seq, SCat):
            left_entry, left_exit = self.build(seq.left)
            right_entry, right_exit = self.build(seq.right)
            # ##1: the right part starts on the cycle after the left
            # part's last cycle, i.e. plain concatenation of consumed
            # frames.  ##k for k>1 inserts k-1 free cycles.
            cursor = left_exit
            for _ in range(seq.delay - 1):
                from repro.sva.ast import BConst

                nxt = self.new_state()
                self.add_edge(cursor, BConst(True), nxt)
                cursor = nxt
            self.add_eps(cursor, right_entry)
            return left_entry, right_exit
        raise SvaError(f"cannot compile sequence {seq!r}")

    def eps_closure(self, states: Set[int]) -> Set[int]:
        stack = list(states)
        closed = set(states)
        while stack:
            state = stack.pop()
            for nxt in self.eps.get(state, ()):
                if nxt not in closed:
                    closed.add(nxt)
                    stack.append(nxt)
        return closed


def compile_sequence(seq: Sequence) -> Nfa:
    """Compile ``seq`` into an epsilon-free :class:`Nfa`."""
    builder = _Builder()
    entry, exit_ = builder.build(seq)

    closures: Dict[int, Set[int]] = {
        state: builder.eps_closure({state}) for state in range(builder.count)
    }
    transitions: Dict[int, List[Tuple[BoolExpr, int]]] = {}
    for state in range(builder.count):
        merged: List[Tuple[BoolExpr, int]] = []
        for member in closures[state]:
            merged.extend(builder.edges.get(member, ()))
        if merged:
            transitions[state] = merged
    accepting = frozenset(
        state for state in range(builder.count) if exit_ in closures[state]
    )
    return Nfa(
        num_states=builder.count,
        start_states=frozenset(closures[entry]) & _reachable_sources(transitions, closures[entry]),
        accepting=accepting,
        transitions=transitions,
    )


def _reachable_sources(transitions, start_closure) -> FrozenSet[int]:
    # Keep closure states that either carry transitions or are accepting
    # anchors; harmless to keep everything, so just return the closure.
    return frozenset(start_closure)
