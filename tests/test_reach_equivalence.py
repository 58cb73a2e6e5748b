"""Cross-check: the cached-graph explorer is bit-identical to the
per-property explorer.

The engine model derives modeled JasperGold hours from the explorer's
transition counts, so :class:`repro.verifier.reach.GraphExplorer` must
reproduce :class:`repro.verifier.explorer.Explorer` exactly — verdicts,
bounds, ``states_explored``, per-layer work profiles, fired
assumptions, counterexample traces, and the resulting modeled hours —
or the Figure 13/14 numbers would drift.  These tests prove agreement
over the full 56-test suite and on the buggy-memory counterexample
path.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CONFIGS, RTLCheck, get_test, paper_suite
from repro.errors import SvaError
from repro.sva import Directive, PImpl, PropertyMonitor, PSeq, SBool, Sig
from repro.sva.ast import BoolExpr, band
from repro.verifier import Budget, Explorer, GraphExplorer
from repro.verifier.config import EXPLORER_BUDGET

TRUNCATED_BUDGETS = pytest.mark.parametrize(
    "budget",
    [
        Budget(max_states=5, max_depth=3),
        Budget(max_states=10, max_depth=2),
        Budget(max_states=2_000_000, max_depth=4),
    ],
    ids=["tiny-states", "tiny-both", "depth-only"],
)


@lru_cache(maxsize=None)
def _assertions(name):
    return tuple(RTLCheck().generate(get_test(name)).assertions)


def _sample(directives, count):
    """``count`` directives spread evenly over ``directives``."""
    step = max(len(directives) // count, 1)
    return directives[::step][:count]


def _assert_explorations_equal(graph, seed, context):
    assert graph.verdict == seed.verdict, context
    assert graph.depth_completed == seed.depth_completed, context
    assert graph.states_explored == seed.states_explored, context
    assert graph.transitions == seed.transitions, context
    assert graph.layer_transitions == seed.layer_transitions, context
    assert graph.exhausted == seed.exhausted, context
    assert graph.fired_assumptions == seed.fired_assumptions, context
    assert graph.counterexample == seed.counterexample, context


def _assert_verifications_equal(graph, seed, name):
    assert graph.verified_by_cover == seed.verified_by_cover, name
    assert graph.cover_hours == seed.cover_hours, name
    _assert_explorations_equal(graph.cover, seed.cover, f"{name}:cover")
    assert graph.modeled_hours == seed.modeled_hours, name
    assert [p.name for p in graph.properties] == [
        p.name for p in seed.properties
    ], name
    for g, s in zip(graph.properties, seed.properties):
        context = f"{name}:{g.name}"
        assert g.status == s.status, context
        assert g.verdict.bound == s.verdict.bound, context
        assert g.verdict.engine == s.verdict.engine, context
        assert g.verdict.modeled_hours == s.verdict.modeled_hours, context
        assert g.verdict.transitions == s.verdict.transitions, context
        _assert_explorations_equal(g.ground_truth, s.ground_truth, context)


class TestFullSuiteEquivalence:
    def test_fixed_design_full_suite(self):
        """Old and new explorers agree on verdicts, bounds, fired
        assumptions, and modeled hours for all 56 tests."""
        graph_rc = RTLCheck(use_reach_graph=True)
        seed_rc = RTLCheck(use_reach_graph=False)
        for test in paper_suite():
            graph = graph_rc.verify_test(test)
            seed = seed_rc.verify_test(test)
            _assert_verifications_equal(graph, seed, test.name)

    def test_hybrid_config_sample(self):
        """The Hybrid engine configuration consumes the same ground
        truth, so a sample of tests must agree there too."""
        graph_rc = RTLCheck(config=CONFIGS["Hybrid"], use_reach_graph=True)
        seed_rc = RTLCheck(config=CONFIGS["Hybrid"], use_reach_graph=False)
        for name in ["mp", "iwp24", "iriw", "rfi000"]:
            graph = graph_rc.verify_test(get_test(name))
            seed = seed_rc.verify_test(get_test(name))
            _assert_verifications_equal(graph, seed, name)

    def test_buggy_design_counterexamples(self):
        """Counterexample traces (inputs and frames) replay identically
        through both explorers on the buggy memory."""
        graph_rc = RTLCheck(use_reach_graph=True)
        seed_rc = RTLCheck(use_reach_graph=False)
        for name in ["mp", "sb", "ssl"]:
            graph = graph_rc.verify_test(get_test(name), memory_variant="buggy")
            seed = seed_rc.verify_test(get_test(name), memory_variant="buggy")
            _assert_verifications_equal(graph, seed, name)


class TestExplorerLevelEquivalence:
    @staticmethod
    def _pair(name, variant="fixed"):
        from repro.litmus import compile_test
        from repro.mapping import MultiVScaleProgramMapping
        from repro.sva import AssumptionChecker
        from repro.vscale.soc import MultiVScale

        compiled = compile_test(get_test(name))
        assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
        seed = Explorer(
            MultiVScale(compiled, variant), AssumptionChecker(assumptions)
        )
        graph = GraphExplorer(
            MultiVScale(compiled, variant), AssumptionChecker(assumptions)
        )
        return graph, seed

    def test_cover_equivalence(self):
        graph, seed = self._pair("iwp24")
        _assert_explorations_equal(
            graph.cover_assumptions(EXPLORER_BUDGET),
            seed.cover_assumptions(EXPLORER_BUDGET),
            "iwp24:cover",
        )

    @TRUNCATED_BUDGETS
    def test_truncated_budgets_agree(self, budget):
        """Budget-truncated walks stop at the same expansion in both
        explorers (the graph expands lazily, so a truncated walk never
        simulates states the per-property explorer would not have)."""
        graph, seed = self._pair("iwp24")
        _assert_explorations_equal(
            graph.cover_assumptions(budget),
            seed.cover_assumptions(budget),
            "iwp24:cover-budget",
        )

    def test_graph_is_reused_across_walks(self):
        """The second walk over the same GraphExplorer performs zero
        additional design simulation — the tentpole's whole point."""
        graph, _seed = self._pair("iwp24")
        graph.cover_assumptions(EXPLORER_BUDGET)
        sims_after_cover = graph.graph.sim_transitions
        assert sims_after_cover > 0
        graph.cover_assumptions(EXPLORER_BUDGET)
        assert graph.graph.sim_transitions == sims_after_cover

    @TRUNCATED_BUDGETS
    def test_truncated_property_walks_agree(self, budget):
        """The DFA-table walk stops at the same product state as the
        per-property explorer under every truncating budget."""
        graph, seed = self._pair("iwp24")
        for directive in _sample(_assertions("iwp24"), 6):
            _assert_explorations_equal(
                graph.check_property(PropertyMonitor(directive), budget),
                seed.check_property(PropertyMonitor(directive), budget),
                f"iwp24:{directive.name}",
            )

    def test_heavy_buggy_counterexamples_agree(self):
        """amd3's buggy-memory counterexamples replay identically when
        the walk runs over a test-wide letter alphabet, as in RTLCheck."""
        graph, seed = self._pair("amd3", "buggy")
        directives = [d for d in _assertions("amd3") if "Read_Values" in d.name]
        monitors = [PropertyMonitor(d) for d in directives]
        graph.set_alphabet(frozenset().union(*(m.signals for m in monitors)))
        for directive, monitor in zip(directives, monitors):
            result = graph.check_property(monitor, EXPLORER_BUDGET)
            assert result.verdict == "cex", directive.name
            _assert_explorations_equal(
                result,
                seed.check_property(PropertyMonitor(directive), EXPLORER_BUDGET),
                f"amd3:{directive.name}",
            )

    def test_alphabet_widens_for_unseen_signals(self):
        """A monitor reading signals outside the set alphabet widens it
        instead of stepping on letters that cannot tell its frames apart."""
        graph, seed = self._pair("iwp24")
        graph.set_alphabet(frozenset())
        directive = _assertions("iwp24")[0]
        _assert_explorations_equal(
            graph.check_property(PropertyMonitor(directive), EXPLORER_BUDGET),
            seed.check_property(PropertyMonitor(directive), EXPLORER_BUDGET),
            f"iwp24:{directive.name}",
        )


class TestLetterSoundness:
    """Memoizing monitor steps on letters is sound only if a monitor's
    step reads nothing outside its declared signal set."""

    @staticmethod
    @lru_cache(maxsize=None)
    def _material():
        """Monitors and real reachable frames of iwp24."""
        explorer = TestExplorerLevelEquivalence()._pair("iwp24")[0]
        graph = explorer.graph
        frames, frontier, seen = [], [graph.root], {graph.root}
        while frontier and len(frames) < 400:
            node = frontier.pop(0)
            for _index, _inputs, frame, child in graph.live_successors(node):
                frames.append(frame)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        monitors = [PropertyMonitor(d) for d in _assertions("iwp24")]
        return monitors, frames

    @settings(max_examples=150, deadline=None)
    @given(
        monitor_index=st.integers(min_value=0),
        prefix=st.lists(st.integers(min_value=0), max_size=12),
        frame_index=st.integers(min_value=0),
        noise=st.integers(min_value=0, max_value=7),
        drop_zeros=st.booleans(),
    )
    def test_frames_agreeing_on_signals_step_identically(
        self, monitor_index, prefix, frame_index, noise, drop_zeros
    ):
        monitors, frames = self._material()
        monitor = monitors[monitor_index % len(monitors)]
        state = monitor.initial()
        for index in prefix:
            state = monitor.step(state, frames[index % len(frames)])
        frame = frames[frame_index % len(frames)]
        # Same letter: signals outside the set are scrambled, and a
        # zero-valued signal may be absent (``Sig``/``SigEq`` default 0).
        twin = {
            name: (value if name in monitor.signals else value + noise + 1)
            for name, value in frame.items()
            if not (drop_zeros and value == 0 and name in monitor.signals)
        }
        stepped = monitor.step(state, frame)
        assert monitor.step(state, twin) == stepped
        assert monitor.verdict(stepped) == monitor.verdict(
            monitor.step(state, twin)
        )

    def test_undeclared_bool_expr_fails_loudly(self):
        class Opaque(BoolExpr):
            def evaluate(self, frame):
                return bool(frame.get("hidden", 0))

        with pytest.raises(SvaError, match="Opaque"):
            Opaque().signals()
        with pytest.raises(SvaError, match="Opaque"):
            band(Sig("a"), Opaque()).signals()
        directive = Directive(
            kind="assert",
            name="opaque",
            prop=PImpl(Sig("first"), PSeq(SBool(Opaque()))),
        )
        with pytest.raises(SvaError, match="Opaque"):
            PropertyMonitor(directive)
