"""Trace monitoring for the generated SVA subset.

The monitor implements exactly the semantics the paper reasons about:

* Assertions have the shape ``first |-> P`` where ``P`` combines weak
  sequences with property ``and`` / ``or``.  The ``first`` guard makes
  every match attempt after cycle 0 vacuously true (§3.4/§4.4), so the
  monitor runs a single attempt anchored at the first cycle after reset.
* A sequence leaf *fails* when its NFA's live-state set empties before
  any match — the only finite refutation a weak sequence admits — and
  *matches* when an accepting state is reached.  Property verdicts fold
  leaf verdicts through the and/or tree in three-valued logic.
* Assumptions are checked cycle-by-cycle with no lookahead: a trace
  prefix is discarded the cycle an assumption's consequent is violated,
  never earlier (SVA verifiers do not check future violation of
  assumptions, §3.1).

Monitor state is an immutable tuple, so the property verifier can embed
it in explored product states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SvaError
from repro.rtl.design import Frame
from repro.sva.ast import (
    BoolExpr,
    Directive,
    PAnd,
    PConst,
    PImpl,
    POr,
    PSeq,
    Property,
)
from repro.sva.nfa import Nfa, compile_sequence

#: Leaf status encoding inside monitor state tuples.
_PENDING, _MATCHED, _FAILED = 0, 1, 2

#: Three-valued verdicts.
TRUE, FALSE, UNKNOWN = True, False, None

#: Per-monitor observability accumulators (see ``PropertyMonitor``).
_COUNTERS = (
    "verdict_memo_hits",
    "verdict_memo_misses",
    "dfa_states",
    "table_hits",
    "table_misses",
    "letters",
)


@dataclass(frozen=True)
class _Node:
    """One node of the flattened property tree."""

    kind: str  # 'leaf', 'and', 'or', 'const'
    children: Tuple[int, ...] = ()
    leaf_index: int = -1
    const: bool = True


class PropertyMonitor:
    """Monitors one ``first |-> P`` assertion along a trace.

    State is ``(leaf_states..., leaf_status...)`` — a flat, hashable
    tuple.  Use :meth:`initial`, :meth:`step`, and :meth:`verdict`.
    """

    def __init__(self, directive: Directive):
        self.directive = directive
        prop = directive.prop
        if isinstance(prop, PImpl):
            self.guard: Optional[BoolExpr] = prop.antecedent
            body = prop.consequent
        else:
            self.guard = None
            body = prop
        self.nfas: List[Nfa] = []
        self.nodes: List[_Node] = []
        self.root = self._build(body)
        # Epsilon elimination shares predicate objects across edges.
        exprs = {
            id(expr): expr
            for nfa in self.nfas
            for edges in nfa.transitions.values()
            for expr, _target in edges
        }
        #: Frame signals :meth:`step` reads.  Frames that agree on them
        #: step every NFA identically, so a walk may memoize steps on
        #: the frame's projection onto this set (its *letter*).
        self.signals: FrozenSet[str] = frozenset().union(
            *(expr.signals() for expr in exprs.values())
        )
        # The three-valued verdict is a pure function of the leaf-status
        # tuple; explorers query it once per transition, so memoize.
        self._verdict_cache: dict = {}
        #: Verdict-memo economics, flushed to ``repro.obs`` counters by
        #: the RTLCheck flow after each property check.
        self.verdict_memo_hits = 0
        self.verdict_memo_misses = 0
        #: DFA-table economics of the graph explorer's walks over this
        #: monitor (interned states, ``(state, letter)`` lookups served
        #: and filled, distinct letters stepped on), flushed likewise.
        self.dfa_states = 0
        self.table_hits = 0
        self.table_misses = 0
        self.letters = 0
        for nfa in self.nfas:
            if nfa.starts_accepting():
                raise SvaError(
                    f"{directive.name}: sequence admits an empty match; "
                    "generated sequences must consume at least one cycle"
                )

    def __getstate__(self):
        # Pickles (the cache's NFA tier) carry no memo entries or
        # counters, so a loaded monitor counts like a fresh one.
        state = dict(self.__dict__)
        state["_verdict_cache"] = {}
        for name in _COUNTERS:
            state[name] = 0
        return state

    def _build(self, prop: Property) -> int:
        if isinstance(prop, PSeq):
            self.nfas.append(compile_sequence(prop.seq))
            node = _Node(kind="leaf", leaf_index=len(self.nfas) - 1)
        elif isinstance(prop, PConst):
            node = _Node(kind="const", const=prop.value)
        elif isinstance(prop, (PAnd, POr)):
            children = tuple(self._build(op) for op in prop.operands)
            node = _Node(kind="and" if isinstance(prop, PAnd) else "or", children=children)
        else:
            raise SvaError(f"monitor cannot handle property {prop!r}")
        self.nodes.append(node)
        return len(self.nodes) - 1

    # ------------------------------------------------------------------

    def initial(self) -> Tuple:
        states = tuple(nfa.initial() for nfa in self.nfas)
        status = tuple(_PENDING for _ in self.nfas)
        return (states, status)

    def step(self, state: Tuple, frame: Frame) -> Tuple:
        """Advance the single anchored match attempt by one frame."""
        states, status = state
        new_states: List[FrozenSet[int]] = []
        new_status: List[int] = []
        for nfa, live, st in zip(self.nfas, states, status):
            if st != _PENDING:
                new_states.append(live)
                new_status.append(st)
                continue
            nxt = nfa.step(live, frame)
            if nfa.accepts(nxt):
                new_states.append(nxt)
                new_status.append(_MATCHED)
            elif not nxt:
                new_states.append(nxt)
                new_status.append(_FAILED)
            else:
                new_states.append(nxt)
                new_status.append(_PENDING)
        return (tuple(new_states), tuple(new_status))

    # ------------------------------------------------------------------

    def _eval(self, node_index: int, status: Sequence[int]) -> Optional[bool]:
        node = self.nodes[node_index]
        if node.kind == "const":
            return node.const
        if node.kind == "leaf":
            st = status[node.leaf_index]
            if st == _MATCHED:
                return TRUE
            if st == _FAILED:
                return FALSE
            return UNKNOWN
        child_verdicts = [self._eval(c, status) for c in node.children]
        if node.kind == "and":
            if any(v is FALSE for v in child_verdicts):
                return FALSE
            if all(v is TRUE for v in child_verdicts):
                return TRUE
            return UNKNOWN
        if any(v is TRUE for v in child_verdicts):
            return TRUE
        if all(v is FALSE for v in child_verdicts):
            return FALSE
        return UNKNOWN

    def verdict(self, state: Tuple) -> Optional[bool]:
        """Three-valued verdict of the anchored attempt so far."""
        _states, status = state
        cache = self._verdict_cache
        if status in cache:
            self.verdict_memo_hits += 1
            return cache[status]
        self.verdict_memo_misses += 1
        result = self._eval(self.root, status)
        cache[status] = result
        return result

    def resolve_at_quiescence(self, state: Tuple, frame: Frame) -> bool:
        """Final verdict when the design has quiesced and ``frame``
        repeats forever: pending leaves resolve to matched if acceptance
        is reachable by repeating the frame, else they stay pending
        forever, which a weak sequence treats as satisfied."""
        states, status = state
        resolved: List[int] = []
        for nfa, live, st in zip(self.nfas, states, status):
            if st == _PENDING and nfa.can_loop_forever(live, frame):
                resolved.append(_MATCHED)
            elif st == _PENDING:
                # Still pending with no way to ever match: under weak
                # semantics an unfinished match is not a failure.
                resolved.append(_MATCHED)
            else:
                resolved.append(st)
        verdict = self._eval(self.root, resolved)
        return verdict is not FALSE


class AssumptionChecker:
    """Cycle-by-cycle checking of generated assumptions (no lookahead)."""

    def __init__(self, directives: Sequence[Directive]):
        self.checks: List[Tuple[str, BoolExpr, Property]] = []
        self.directives = list(directives)
        #: Observability accumulators (flushed to ``repro.obs`` counters
        #: by the RTLCheck flow): antecedent firings seen while checking
        #: frames, and frames pruned by a violated consequent.
        self.antecedent_firings = 0
        self.pruned_frames = 0
        for d in directives:
            if d.structural:
                continue
            prop = d.prop
            if not isinstance(prop, PImpl):
                raise SvaError(
                    f"assumption {d.name} must be an implication for "
                    "cycle-by-cycle checking"
                )
            self.checks.append((d.name, prop.antecedent, prop.consequent))

    def frame_ok(self, frame: Frame) -> bool:
        """True unless some assumption's antecedent fires this cycle with
        a false consequent."""
        fired = 0
        for _name, antecedent, consequent in self.checks:
            if antecedent.evaluate(frame):
                fired += 1
                if not _bool_property(consequent, frame):
                    self.antecedent_firings += fired
                    self.pruned_frames += 1
                    return False
        self.antecedent_firings += fired
        return True

    def frame_ok_repeated(self, frame: Frame, repeats: int) -> bool:
        """Exactly ``repeats`` :meth:`frame_ok` calls on one frame —
        one evaluation, counter increments scaled — for batched
        expansion where every input choice shares the settled frame."""
        fired = 0
        for _name, antecedent, consequent in self.checks:
            if antecedent.evaluate(frame):
                fired += 1
                if not _bool_property(consequent, frame):
                    self.antecedent_firings += fired * repeats
                    self.pruned_frames += repeats
                    return False
        self.antecedent_firings += fired * repeats
        return True

    def violated_names(self, frame: Frame) -> List[str]:
        out = []
        for name, antecedent, consequent in self.checks:
            if antecedent.evaluate(frame) and not _bool_property(consequent, frame):
                out.append(name)
        return out


def _bool_property(prop: Property, frame: Frame) -> bool:
    """Evaluate a single-cycle property (assumption consequents are
    boolean-only by construction)."""
    if isinstance(prop, PConst):
        return prop.value
    if isinstance(prop, PSeq):
        from repro.sva.ast import SBool

        if isinstance(prop.seq, SBool):
            return prop.seq.expr.evaluate(frame)
        raise SvaError("assumption consequents must be single-cycle")
    if isinstance(prop, PAnd):
        return all(_bool_property(op, frame) for op in prop.operands)
    if isinstance(prop, POr):
        return any(_bool_property(op, frame) for op in prop.operands)
    if isinstance(prop, PImpl):
        return (not prop.antecedent.evaluate(frame)) or _bool_property(
            prop.consequent, frame
        )
    raise SvaError(f"assumption consequent too complex: {prop!r}")


def run_monitor_on_trace(
    monitor: PropertyMonitor, trace: Sequence[Frame]
) -> Tuple[Optional[bool], int]:
    """Run one assertion over a complete trace.

    Returns ``(verdict, cycle)``: verdict True/False/None(pending) and
    the cycle where it resolved (or the last cycle).
    """
    state = monitor.initial()
    for cycle, frame in enumerate(trace):
        state = monitor.step(state, frame)
        verdict = monitor.verdict(state)
        if verdict is not UNKNOWN:
            return verdict, cycle
    return monitor.verdict(state), max(len(trace) - 1, 0)
