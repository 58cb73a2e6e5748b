"""Slot-vector states vs. the nested-tuple reference.

Product designs snapshot to interned flat slot vectors with batched
frontier expansion (``repro.rtl.design``).  That is a pure
representation choice: it must produce bit-identical reachability
graphs, verdicts, modeled hours, counterexample traces, and VCD
waveforms to the nested-tuple snapshots kept as a reference oracle in
``tests/reference/snapshots.py``.  These tests prove that contract over
the golden-verdict fixture tests on both memory variants and over
Multi-V-scale-TSO with both drain orders, and pin the
representation-level wins (hash-consing, compact pickles,
snapshot/restore round-trips, injective encodings).

Normalization: wall-clock fields (``*seconds``) and the ``state.*``
observability counters are stripped before comparison — they are the
*only* permitted divergence between the two representations.

Set ``RTLCHECK_STATE_BACKEND_FULL=1`` to sweep the full 56-test suite
on both memory variants (minutes); the default subset keeps CI fast.
"""

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RTLCheck, get_test, paper_suite
from repro.errors import ReproError
from repro.litmus import compile_test
from repro.mapping import MultiVScaleProgramMapping
from repro.rtl.design import StateInterner
from repro.rtl.vcd import render_vcd
from repro.sva import AssumptionChecker
from repro.verifier.outcomes import enumerate_design_outcomes
from repro.verifier.reach import ReachGraph
from repro.vscale.soc import MultiVScale
from repro.vscale.tso import STORE_BUFFER_CAPACITY, MultiVScaleTSO
from tests.reference.snapshots import (
    DictMultiVScale,
    DictMultiVScaleTSO,
    dict_multi_vscale_factory,
    dict_multi_vscale_tso_factory,
)

#: Representative subset: message-passing and store-buffering (the
#: canonical forbidden/permitted pair), a load-buffer shape, a 4-core
#: write-atomicity test, and an n-test with fences.
SUBSET = ["mp", "sb", "lb", "iwp24", "n4"]
VARIANTS = ["fixed", "buggy"]
#: Multi-V-scale-TSO: store buffering (the relaxation), message
#: passing, 4-core write atomicity, a heavy AMD test, and a fenced
#: n-test.
TSO_SUBSET = ["sb", "mp", "iwp24", "amd3", "n7"]
#: RTLCheck's TSO memory variants: "fixed" drains FIFO, "buggy" LIFO.
DRAINS = {"fixed": "fifo", "buggy": "lifo"}

FULL_SWEEP = os.environ.get("RTLCHECK_STATE_BACKEND_FULL") == "1"
SWEEP = [t.name for t in paper_suite()] if FULL_SWEEP else SUBSET


def _scrub(obj):
    """Drop wall-clock fields and the slot-vector counters, recursively."""
    if isinstance(obj, dict):
        return {
            key: _scrub(value)
            for key, value in obj.items()
            if not (isinstance(key, str) and key.endswith("seconds"))
            and not (isinstance(key, str) and key.startswith("state."))
        }
    if isinstance(obj, list):
        return [_scrub(item) for item in obj]
    return obj


def _canonical(verification) -> str:
    return json.dumps(_scrub(verification.to_dict()), sort_keys=True)


def _sc_design(name, variant, reference=False):
    cls = DictMultiVScale if reference else MultiVScale
    return cls(compile_test(get_test(name)), variant)


def _tso_design(name, variant, reference=False):
    cls = DictMultiVScaleTSO if reference else MultiVScaleTSO
    return cls(compile_test(get_test(name)), drain_order=DRAINS[variant])


def _tso_rtlcheck(reference=False, **kwargs):
    rtlcheck = RTLCheck.for_tso(**kwargs)
    if reference:
        rtlcheck.design_factory = dict_multi_vscale_tso_factory
    return rtlcheck


def _build_full_graph(design, name):
    """Fully expand a ReachGraph over ``design``; return the graph."""
    compiled = compile_test(get_test(name))
    assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
    graph = ReachGraph(design, AssumptionChecker(assumptions))
    frontier = [graph.root]
    seen = {graph.root}
    while frontier:
        node = frontier.pop()
        for _index, _inputs, _frame, child in graph.live_successors(node):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return graph


def _edge_shape(graph):
    """Representation-independent structural view: per-node edge lists
    with frames as plain dicts and children as node ids (snapshots are
    interned ids on one side and nested tuples on the other, so they
    are deliberately not part of the shape)."""
    return [
        [
            None if edge is None else (dict(edge[0]), edge[1])
            for edge in graph.successors(node)
        ]
        for node in range(graph.num_nodes)
    ]


def _cex_vcds(result):
    """Rendered VCD of every counterexample in ``result``."""
    return [
        render_vcd([frame for _inputs, frame in p.ground_truth.counterexample])
        for p in result.properties
        if p.ground_truth.counterexample is not None
    ]


class TestVerdictEquivalence:
    """Full-pipeline agreement: graphs, verdicts, modeled hours."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", SWEEP)
    def test_serialized_verdicts_identical(self, name, variant):
        product_rc = RTLCheck(observe=True)
        dict_rc = RTLCheck(design_factory=dict_multi_vscale_factory, observe=True)
        product = product_rc.verify_test(get_test(name), memory_variant=variant)
        seed = dict_rc.verify_test(get_test(name), memory_variant=variant)
        assert _canonical(product) == _canonical(seed), f"{name}/{variant}"
        assert product.modeled_hours == seed.modeled_hours
        assert product.graph_states == seed.graph_states
        assert product.graph_transitions == seed.graph_transitions

    def test_per_property_explorer_agrees(self, per_property_explorer):
        """The reference per-property explorer agrees across the two
        representations too."""
        with per_property_explorer():
            for name in ["mp", "sb"]:
                product = RTLCheck().verify_test(get_test(name))
                seed = RTLCheck(
                    design_factory=dict_multi_vscale_factory
                ).verify_test(get_test(name))
                assert _canonical(product) == _canonical(seed), name

    def test_counterexample_vcd_identical(self):
        """Buggy-memory counterexamples render to byte-identical VCD."""
        product = RTLCheck().verify_test(get_test("mp"), memory_variant="buggy")
        seed = RTLCheck(design_factory=dict_multi_vscale_factory).verify_test(
            get_test("mp"), memory_variant="buggy"
        )
        vcds = _cex_vcds(product)
        assert vcds, "buggy mp must produce a counterexample"
        assert vcds == _cex_vcds(seed)

    def test_outcome_enumeration_agrees(self):
        """The architectural enumeration behind difftest's RTL oracle
        finds the same outcomes, states, and transition counts."""
        for variant in VARIANTS:
            product = enumerate_design_outcomes(_sc_design("sb", variant))
            seed = enumerate_design_outcomes(
                _sc_design("sb", variant, reference=True)
            )
            assert product.outcomes == seed.outcomes, variant
            assert product.complete == seed.complete
            assert product.states == seed.states
            assert product.transitions == seed.transitions
            assert product.drained_states == seed.drained_states


class TestTsoEquivalence:
    """Multi-V-scale-TSO's slot layout against the nested-tuple
    reference, under both drain orders."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=["fifo", "lifo"])
    @pytest.mark.parametrize("name", TSO_SUBSET)
    def test_graphs_isomorphic_by_construction_order(self, name, variant):
        product = _build_full_graph(_tso_design(name, variant), name)
        seed = _build_full_graph(_tso_design(name, variant, reference=True), name)
        assert product.num_nodes == seed.num_nodes
        assert product.sim_transitions == seed.sim_transitions
        assert _edge_shape(product) == _edge_shape(seed)

    @pytest.mark.parametrize("variant", VARIANTS, ids=["fifo", "lifo"])
    @pytest.mark.parametrize("name", TSO_SUBSET)
    def test_serialized_verdicts_identical(self, name, variant):
        product = _tso_rtlcheck(observe=True).verify_test(get_test(name), variant)
        seed = _tso_rtlcheck(reference=True, observe=True).verify_test(
            get_test(name), variant
        )
        assert _canonical(product) == _canonical(seed), f"{name}/{variant}"
        assert product.graph_states == seed.graph_states
        assert _cex_vcds(product) == _cex_vcds(seed)

    def test_lifo_counterexample_vcd_identical(self):
        """The LIFO-drain bug's counterexamples render identically."""
        product = _tso_rtlcheck().verify_test(get_test("mp"), "buggy")
        seed = _tso_rtlcheck(reference=True).verify_test(get_test("mp"), "buggy")
        vcds = _cex_vcds(product)
        assert vcds, "lifo mp must produce a counterexample"
        assert vcds == _cex_vcds(seed)


class TestGraphStructure:
    """Node-for-node, edge-for-edge agreement of the built graphs."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_graphs_isomorphic_by_construction_order(self, variant):
        product = _build_full_graph(_sc_design("mp", variant), "mp")
        seed = _build_full_graph(_sc_design("mp", variant, reference=True), "mp")
        assert product.num_nodes == seed.num_nodes
        assert product.expanded_nodes == seed.expanded_nodes
        assert product.sim_transitions == seed.sim_transitions
        assert _edge_shape(product) == _edge_shape(seed)

    def test_interning_bounds_resident_states(self):
        """Regression for the memory win: a full mp-suite build interns
        at most one flat tuple per discovered node (hash-consing), and
        never fewer than one per *distinct* design state."""
        for variant in VARIANTS:
            design = _sc_design("mp", variant)
            graph = _build_full_graph(design, "mp")
            assert graph.expanded_nodes == graph.num_nodes
            assert 0 < design.states_interned <= graph.expanded_nodes

    def test_equal_snapshots_share_one_id(self):
        design = _sc_design("mp", "fixed")
        design.reset()
        first = design.snapshot()
        design.eval_comb({"arb_select": 0})
        design.tick()
        design.reset()
        second = design.snapshot()
        assert isinstance(first, int)
        assert first == second
        assert design.states_interned >= 1

    def test_array_graph_pickle_round_trips(self):
        """Pickled graphs rehydrate with identical structure and keep
        expanding; the interned form is more compact than the
        reference's nested-tuple snapshots."""
        graph = _build_full_graph(_sc_design("mp", "fixed"), "mp")
        seed = _build_full_graph(_sc_design("mp", "fixed", reference=True), "mp")
        blob = pickle.dumps(graph)
        assert len(blob) < len(pickle.dumps(seed))
        revived = pickle.loads(blob)
        assert revived.num_nodes == graph.num_nodes
        assert _edge_shape(revived) == _edge_shape(graph)
        # The revived design's interner still resolves every node.
        for node in range(revived.num_nodes):
            assert revived.design._interner.state(revived.snap(node))


class TestSnapshotRestore:
    """Round-trip and injectivity of the flat encoding."""

    def _stepped(self, schedule, name="mp", reference=False):
        design = _sc_design(name, "fixed", reference=reference)
        design.reset()
        for select in schedule:
            design.eval_comb({"arb_select": select})
            design.tick()
        return design

    def test_round_trip_preserves_behavior(self):
        """restore(snapshot()) resumes an identical execution."""
        schedule = [0, 1, 1, 0, 1, 0, 0, 1]
        design = self._stepped(schedule)
        saved = design.snapshot()
        reference = self._stepped(schedule)
        for select in [1, 0, 1, 1]:
            design.eval_comb({"arb_select": select})
            design.tick()
        design.restore(saved)
        for select in [0, 1, 0, 1, 1, 0]:
            resumed = dict(design.eval_comb({"arb_select": select}))
            expected = dict(reference.eval_comb({"arb_select": select}))
            design.tick()
            reference.tick()
            assert resumed == expected

    @given(
        prefix_a=st.lists(st.integers(0, 3), max_size=6),
        prefix_b=st.lists(st.integers(0, 3), max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_flat_encoding_is_injective(self, prefix_a, prefix_b):
        """Two executions reach the same interned id exactly when the
        nested-tuple reference considers their states equal — the flat
        encoding loses nothing (bools, None sentinels, memory words)."""
        product = _sc_design("sb", "fixed")
        dict_ids = []
        product_ids = []
        for schedule in (prefix_a, prefix_b):
            product.reset()
            probe = self._stepped(schedule, name="sb", reference=True)
            for select in schedule:
                product.eval_comb({"arb_select": select})
                product.tick()
            product_ids.append(product.snapshot())
            dict_ids.append(probe.snapshot())
        assert (product_ids[0] == product_ids[1]) == (dict_ids[0] == dict_ids[1])

    @given(
        buffers=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3), st.integers(0, 2), st.integers(0, 8)
                ),
                max_size=STORE_BUFFER_CAPACITY,
            ),
            min_size=4,
            max_size=4,
        ),
        pending=st.one_of(
            st.none(),
            st.tuples(st.just("L"), st.integers(0, 3), st.integers(0, 3)),
            st.tuples(
                st.just("D"),
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(0, 2),
                st.integers(0, 8),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_tso_encoding_is_injective(self, buffers, pending):
        """Different store buffers or pending transactions give
        different TSO slot vectors, and every vector decodes back to
        the state that wrote it (zeros in an entry, a load's unused
        slots, and an empty buffer must not collide)."""
        design = _tso_design("sb", "fixed")
        baseline = design.state_vector(design.snapshot())
        design.buffers = [list(buf) for buf in buffers]
        design.pending = pending
        vector = design.state_vector(design.snapshot())
        changed = any(buffers) or pending is not None
        assert (vector != baseline) == changed
        design.reset()
        design.read_slots(vector)
        assert design.buffers == [list(buf) for buf in buffers]
        assert design.pending == pending
        # The decoded state re-encodes to the same vector.
        assert design.state_vector(design.snapshot()) == vector

    @given(
        states=st.lists(
            st.tuples(*([st.integers(-(2**40), 2**40)] * 3)),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_interner_is_stable_and_pickles(self, states):
        """intern() is idempotent, state() inverts it, and the compact
        pickle preserves every id assignment."""
        interner = StateInterner()
        ids = [interner.intern(state) for state in states]
        assert [interner.intern(state) for state in states] == ids
        assert [interner.state(sid) for sid in ids] == list(states)
        assert len(interner) == len(set(states))
        revived = pickle.loads(pickle.dumps(interner))
        assert len(revived) == len(interner)
        assert [revived.intern(state) for state in states] == ids
        assert [revived.state(sid) for sid in ids] == list(states)

    def test_corrupt_pickle_length_rejected(self):
        """A packed payload that cannot hold width x count vectors must
        raise instead of silently truncating the table."""
        interner = StateInterner()
        interner.intern((1, 2, 3))
        interner.intern((4, 5, 6))
        state = interner.__getstate__()
        state["packed"] = state["packed"][:-8]  # drop one slot
        with pytest.raises(ReproError):
            StateInterner.__new__(StateInterner).__setstate__(state)

    def test_duplicate_vectors_rejected(self):
        """Duplicate vectors in a pickle would renumber every later id
        (dict keeps the last), breaking the dense-id invariant node
        numbering relies on — must raise, never renumber."""
        from array import array as _array

        flat = _array("q", [7, 8, 9, 7, 8, 9])
        state = {"width": 3, "count": 2, "packed": flat.tobytes()}
        with pytest.raises(ReproError):
            StateInterner.__new__(StateInterner).__setstate__(state)

    def test_interleaved_intern_survives_round_trip(self):
        """Ids handed out before a pickle stay valid after it, and new
        interns continue the dense numbering."""
        interner = StateInterner()
        a = interner.intern((0, -1))
        b = interner.intern((5, 5))
        revived = pickle.loads(pickle.dumps(interner))
        assert revived.state(a) == (0, -1)
        assert revived.state(b) == (5, 5)
        c = revived.intern((9, 9))
        assert c == 2
        assert revived.intern((0, -1)) == a
