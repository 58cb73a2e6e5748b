"""Tests for the explicit-state explorer and the engine model."""

import math

import pytest

from repro.litmus import compile_test, get_test
from repro.mapping import MultiVScaleProgramMapping
from repro.sva import (
    AssumptionChecker,
    Directive,
    PConst,
    PImpl,
    PSeq,
    PropertyMonitor,
    SBool,
    SRepeat,
    Sig,
    SigEq,
    scat,
)
from repro.sva.ast import BNot, band, bor
from repro.rtl.design import Simulator
from repro.sva.monitor import run_monitor_on_trace
from repro.verifier import (
    BOUNDED,
    Budget,
    Explorer,
    FAILED,
    GraphExplorer,
    PROVEN,
    ReachGraph,
)
from repro.verifier.config import CONFIGS, EXPLORER_BUDGET, FULL_PROOF, HYBRID
from repro.verifier.engines import (
    EngineModel,
    EngineVerdict,
    engine_jitter,
    modeled_hours,
    proof_hours,
    transitions_within,
)
from repro.verifier.explorer import ExplorationResult
from repro.vscale.soc import MultiVScale


def make_explorer(test_name, variant="fixed", cls=Explorer):
    compiled = compile_test(get_test(test_name))
    design = MultiVScale(compiled, variant)
    assumptions = MultiVScaleProgramMapping(compiled).all_assumptions()
    return cls(design, AssumptionChecker(assumptions)), compiled


@pytest.fixture(params=[Explorer, GraphExplorer], ids=["per-property", "graph"])
def explorer_cls(request):
    """Both explorer backends must satisfy the same contract."""
    return request.param


def halted_assert(compiled):
    """An assertion that core 0 eventually halts (should be proven)."""
    seq = scat(
        SRepeat(BNot(Sig("core[0].halted")), 0, None),
        SBool(SigEq("core[0].halted", 1)),
    )
    return Directive(kind="assert", name="halts", prop=PImpl(Sig("first"), PSeq(seq)))


def never_halts_assert():
    """A property that is false: core 0 stays unhalted forever."""
    seq = scat(SBool(Sig("core[0].halted")), SBool(Sig("core[0].halted")))
    # 'halted' in the first cycle after reset: impossible... invert:
    return Directive(
        kind="assert",
        name="no_halt",
        prop=PImpl(
            Sig("first"),
            PSeq(
                scat(
                    SRepeat(BNot(Sig("core[0].halted")), 0, None),
                    SBool(SigEq("core[0].halted", 0)),
                    SBool(SigEq("core[0].halted", 1)),
                    SBool(SigEq("core[0].halted", 0)),  # halt is sticky: false
                )
            ),
        ),
    )


class TestExplorerProperties:
    # iwp24's outcome is SC-allowed, so the assumption-constrained state
    # space contains completed executions (unlike forbidden-outcome
    # tests, where the load-value assumptions prune every execution
    # before the cores halt).

    def test_proven_property(self, explorer_cls):
        explorer, compiled = make_explorer("iwp24", cls=explorer_cls)
        result = explorer.check_property(
            PropertyMonitor(halted_assert(compiled)), EXPLORER_BUDGET
        )
        assert result.verdict == PROVEN
        assert result.exhausted
        assert result.states_explored > 0
        assert sum(result.layer_transitions) == result.transitions

    def test_failing_property_gives_counterexample(self, explorer_cls):
        explorer, compiled = make_explorer("iwp24", cls=explorer_cls)
        result = explorer.check_property(
            PropertyMonitor(never_halts_assert()), EXPLORER_BUDGET
        )
        assert result.verdict == FAILED
        assert result.counterexample
        # The trace is replayable: inputs + frames per cycle.
        for inputs, frame in result.counterexample:
            assert "arb_select" in inputs
            assert "first" in frame

    def test_bounded_verdict_on_tiny_budget(self, explorer_cls):
        explorer, compiled = make_explorer("iwp24", cls=explorer_cls)
        result = explorer.check_property(
            PropertyMonitor(halted_assert(compiled)), Budget(max_states=5, max_depth=3)
        )
        assert result.verdict == BOUNDED
        assert result.depth_completed <= 3

    def test_const_true_property(self, explorer_cls):
        explorer, _ = make_explorer("iwp24", cls=explorer_cls)
        directive = Directive(kind="assert", name="t", prop=PConst(True))
        result = explorer.check_property(PropertyMonitor(directive), EXPLORER_BUDGET)
        assert result.verdict == PROVEN

    def test_forbidden_outcome_assumptions_prune_all_executions(self, explorer_cls):
        """On a forbidden-outcome test (ssl) the load-value assumption
        prunes every branch at the load's WB, so no core ever halts and
        even a 'core 0 never halts' assertion is (vacuously) proven."""
        explorer, compiled = make_explorer("ssl", cls=explorer_cls)
        result = explorer.check_property(
            PropertyMonitor(never_halts_assert()), EXPLORER_BUDGET
        )
        assert result.verdict == PROVEN


class TestExplorerCover:
    def test_forbidden_outcome_final_assumption_unreachable(self):
        explorer, _ = make_explorer("mp")
        result = explorer.cover_assumptions(EXPLORER_BUDGET)
        assert result.exhausted
        assert "final_values" not in result.fired_assumptions

    def test_allowed_outcome_final_assumption_fires(self):
        explorer, _ = make_explorer("iwp24")
        result = explorer.cover_assumptions(EXPLORER_BUDGET)
        assert result.exhausted
        assert "final_values" in result.fired_assumptions

    def test_buggy_design_reaches_forbidden_outcome(self):
        explorer, _ = make_explorer("mp", variant="buggy")
        result = explorer.cover_assumptions(EXPLORER_BUDGET)
        assert "final_values" in result.fired_assumptions

    def test_budget_exhaustion_is_inconclusive(self):
        explorer, _ = make_explorer("mp")
        result = explorer.cover_assumptions(Budget(max_states=10, max_depth=2))
        assert result.verdict == "unknown"
        assert not result.exhausted


class TestBudgetEnforcement:
    """Regression tests: ``max_states`` is enforced per expansion, not
    per layer, so a wide layer can no longer blow past the cap and
    ``states_explored`` reports the true count."""

    def test_states_cap_never_exceeded(self, explorer_cls):
        explorer, compiled = make_explorer("iwp24", cls=explorer_cls)
        result = explorer.check_property(
            PropertyMonitor(halted_assert(compiled)),
            Budget(max_states=5, max_depth=1000),
        )
        assert result.verdict == BOUNDED
        assert result.states_explored <= 5
        assert sum(result.layer_transitions) == result.transitions

    def test_cover_states_cap_never_exceeded(self, explorer_cls):
        explorer, _ = make_explorer("iwp24", cls=explorer_cls)
        result = explorer.cover_assumptions(Budget(max_states=10, max_depth=2000))
        assert result.verdict == "unknown"
        assert not result.exhausted
        assert result.states_explored <= 10

    def test_wide_layer_regression(self):
        """iriw's layers are far wider than 50 states; before the fix
        a single layer overshot the cap by its whole width."""
        explorer, _ = make_explorer("iriw")
        result = explorer.cover_assumptions(Budget(max_states=50, max_depth=2000))
        assert result.states_explored <= 50

    def test_depth_cap_still_reported_at_layer_boundary(self, explorer_cls):
        explorer, compiled = make_explorer("iwp24", cls=explorer_cls)
        result = explorer.check_property(
            PropertyMonitor(halted_assert(compiled)),
            Budget(max_states=2_000_000, max_depth=3),
        )
        assert result.verdict == BOUNDED
        assert result.depth_completed == 3


class TestCounterexampleReplay:
    def test_rebuilt_trace_replays_through_simulator(self, explorer_cls):
        """The root-to-failure trace's inputs replay to the same failing
        frame through a fresh Simulator."""
        explorer, compiled = make_explorer("iwp24", cls=explorer_cls)
        monitor = PropertyMonitor(never_halts_assert())
        result = explorer.check_property(monitor, EXPLORER_BUDGET)
        assert result.verdict == FAILED
        sim = Simulator(MultiVScale(compiled, "fixed"))
        for inputs, frame in result.counterexample:
            assert sim.step(inputs) == frame
        # The replayed trace refutes the monitor at the trace's last cycle.
        verdict, cycle = run_monitor_on_trace(monitor, sim.trace)
        assert verdict is False
        assert cycle == len(result.counterexample) - 1

    def test_trace_depth_matches_depth_completed(self, explorer_cls):
        explorer, _ = make_explorer("iwp24", cls=explorer_cls)
        result = explorer.check_property(
            PropertyMonitor(never_halts_assert()), EXPLORER_BUDGET
        )
        assert len(result.counterexample) == result.depth_completed


class TestReachGraph:
    def test_lazy_expansion_counts_only_cache_misses(self):
        explorer, _ = make_explorer("iwp24", cls=GraphExplorer)
        graph = explorer.graph
        assert graph.sim_transitions == 0
        explorer.cover_assumptions(EXPLORER_BUDGET)
        built = graph.sim_transitions
        assert built == graph.expanded_nodes * len(graph.input_space)
        # A second walk (different monitor, same design) is a pure
        # cache read: zero further design simulation.
        explorer.check_property(
            PropertyMonitor(Directive(kind="assert", name="t", prop=PConst(True))),
            EXPLORER_BUDGET,
        )
        assert graph.sim_transitions == built

    def test_graph_shared_between_explorers(self):
        compiled = compile_test(get_test("mp"))
        design = MultiVScale(compiled, "fixed")
        checker = AssumptionChecker(
            MultiVScaleProgramMapping(compiled).all_assumptions()
        )
        graph = ReachGraph(design, checker)
        first = GraphExplorer(design, checker, graph=graph)
        first.cover_assumptions(EXPLORER_BUDGET)
        built = graph.sim_transitions
        second = GraphExplorer(design, checker, graph=graph)
        second.cover_assumptions(EXPLORER_BUDGET)
        assert graph.sim_transitions == built

    def test_root_first_flag_distinct_from_revisits(self):
        """Node 0 carries first=1; every child lookup uses first=0, so
        frames cached for the root are never reused for a re-reached
        reset snapshot."""
        explorer, _ = make_explorer("mp", cls=GraphExplorer)
        graph = explorer.graph
        edges = graph.successors(graph.root)
        for edge in edges:
            if edge is not None:
                assert edge[0]["first"] == 1
                for child_edge in graph.successors(edge[1]):
                    if child_edge is not None:
                        assert child_edge[0]["first"] == 0


class TestEngineModel:
    def test_cover_hours_anchor(self):
        # mp's ~404-transition cover run costs about 3 modeled minutes.
        assert 0.02 < modeled_hours(404) < 0.08
        # The one-hour anchor.
        assert abs(modeled_hours(550) - 1.0) < 1e-9

    def test_proof_hours_monotone(self):
        assert proof_hours(500) < proof_hours(1000) < proof_hours(2000)

    def test_huge_cover_walk_saturates(self):
        """Regression: a cover walk past ``math.exp``'s range (fuzz test
        fz4-00009) used to raise ``OverflowError``; it now prices at the
        phase allotment and is inconclusive."""
        result = self._exhausted(10**6, 50)
        model = EngineModel(FULL_PROOF)
        assert model.cover_hours(result) == FULL_PROOF.cover_hours
        assert model.cover_conclusive(result) is False
        assert model.judge_property(result, "p").status == BOUNDED

    def test_saturation_leaves_priceable_walks_bit_identical(self):
        assert modeled_hours(404) == math.exp((404 - 550.0) / 48.7)
        assert proof_hours(2000) == math.exp((2000 + 909.11) / 995.48)

    def test_transitions_within_inverts_proof_hours(self):
        for hours in (1.0, 7.0, 9.5):
            assert abs(proof_hours(transitions_within(hours)) - hours) < 1e-6

    def test_jitter_deterministic_and_bounded(self):
        a = engine_jitter("Hybrid", "I_N_AM_AD", "mp_Read_Values_0")
        b = engine_jitter("Hybrid", "I_N_AM_AD", "mp_Read_Values_0")
        assert a == b
        assert 0.8 <= a <= 1.2
        assert a != engine_jitter("Full_Proof", "I_N_AM_AD", "mp_Read_Values_0")

    def _exhausted(self, transitions, depth):
        result = ExplorationResult(verdict=PROVEN)
        result.transitions = transitions
        result.depth_completed = depth
        result.exhausted = True
        return result

    def test_cheap_property_proven(self):
        verdict = EngineModel(FULL_PROOF).judge_property(self._exhausted(300, 9), "p")
        assert verdict.proven
        assert verdict.engine == "I_N_AM_AD"

    def test_expensive_property_bounded_with_depth_cap(self):
        verdict = EngineModel(FULL_PROOF).judge_property(self._exhausted(5000, 9), "p")
        assert verdict.status == BOUNDED
        assert verdict.bound == 22  # Full_Proof's preprocess depth cap

    def test_hybrid_bounded_depth_cap(self):
        verdict = EngineModel(HYBRID).judge_property(self._exhausted(5000, 9), "p")
        assert verdict.status == BOUNDED
        assert verdict.bound == 43

    def test_hybrid_autoprover_induction(self):
        """A shallow saturation diameter lets the Hybrid autoprover close
        an otherwise-too-expensive proof — the §7.2 cases where Hybrid
        beats Full_Proof."""
        shallow = self._exhausted(5000, 6)
        assert EngineModel(HYBRID).judge_property(shallow, "p").proven
        assert EngineModel(FULL_PROOF).judge_property(shallow, "p").status == BOUNDED

    def test_counterexample_reported_fast(self):
        result = ExplorationResult(verdict=FAILED)
        result.transitions = 5000
        result.depth_completed = 4
        verdict = EngineModel(FULL_PROOF).judge_property(result, "p")
        assert verdict.failed
        assert verdict.modeled_hours <= FULL_PROOF.proof_hours

    def test_counterexample_priced_from_layer_profile(self):
        """Regression: a cex is priced from the transitions actually
        spent up to the failing layer (via ``layer_transitions``), not
        from a hypothetical full exploration."""
        result = ExplorationResult(verdict=FAILED)
        result.transitions = 5000
        result.depth_completed = 2
        result.layer_transitions = [100, 50]
        verdict = EngineModel(FULL_PROOF).judge_property(result, "p")
        assert verdict.failed
        assert verdict.modeled_hours == min(
            proof_hours(150), FULL_PROOF.proof_hours
        )
        # The whole-exploration price would have pinned the allotment.
        assert verdict.modeled_hours < min(
            proof_hours(5000), FULL_PROOF.proof_hours
        )


class TestConfigs:
    def test_table1_rows(self):
        assert set(CONFIGS) == {"Hybrid", "Full_Proof"}
        assert HYBRID.cores_per_test == 5
        assert HYBRID.memory_gb_per_test == 64
        assert FULL_PROOF.cores_per_test == 4
        assert FULL_PROOF.memory_gb_per_test == 120

    def test_phase_budgets(self):
        assert HYBRID.cover_hours == 1.0
        assert HYBRID.proof_hours == 10.0
        assert FULL_PROOF.proof_hours == 10.0

    def test_engine_styles(self):
        assert [e.name for e in HYBRID.bounded_engines] == ["Autoprover", "K"]
        assert [e.name for e in FULL_PROOF.full_engines] == ["I_N_AM_AD"]
