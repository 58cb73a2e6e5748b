"""The end-to-end RTLCheck flow (paper Figure 7).

Inputs: a µspec microarchitecture model, an RTL design (Multi-V-scale),
a litmus test, and the program/node mapping functions.  RTLCheck

1. generates temporal SV assumptions constraining the verifier to the
   litmus test's executions (Assumption Generator, §4.1),
2. generates temporal SV assertions checking each µspec axiom with
   outcome-aware translation (Assertion Generator, §4.2–4.4),
3. hands both to the property verifier, which first hunts covering
   traces for the assumptions (an unreachable final-value assumption
   verifies the test outright) and then proves each assertion,
   reporting complete proofs, bounded proofs, or counterexamples.

Every phase runs inside a :mod:`repro.obs` span — generate, cover,
graph-build, proof, plus one span per property — and the span
durations *are* the timing fields on :class:`TestVerification`
(``generation_seconds``, ``cover_seconds``, ``proof_seconds``,
``wall_seconds``), so observability on/off cannot change their
meaning.  With ``observe=True`` each test records into its own
:class:`~repro.obs.TraceRecorder`, whose snapshot travels back on
``TestVerification.obs`` — including across the ``verify_suite``
process pool — so suite-level counters always equal the sum of the
per-test counters regardless of job count.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.core.assertions import AssertionGenerator
from repro.core.results import PropertyResult, TestVerification
from repro.errors import ReproError
from repro.litmus.test import CompiledTest, LitmusTest, compile_test
from repro.mapping.node_mapping import MultiVScaleNodeMapping
from repro.mapping.program_mapping import MultiVScaleProgramMapping
from repro.rtl.design import VECTOR_BACKENDS
from repro.sva.ast import Directive
from repro.sva.emit import emit_sva_file
from repro.sva.monitor import AssumptionChecker, PropertyMonitor
from repro.uspec.ast import Model
from repro.uspec.model import load_model, multi_vscale_model
from repro.verifier.config import (
    EXPLORER_BUDGET,
    FULL_PROOF,
    USE_REACH_GRAPH,
    VerifierConfig,
)
from repro.verifier.engines import EngineModel
from repro.verifier.explorer import Explorer
from repro.verifier.reach import GraphExplorer
from repro.vscale.soc import MultiVScale


def _multi_vscale_design_factory(compiled, variant):
    """Default design factory (module-level so RTLCheck pickles for
    multi-process suite verification)."""
    return MultiVScale(compiled, variant)


def _multi_vscale_tso_design_factory(compiled, variant):
    """Design factory for :meth:`RTLCheck.for_tso` (module-level so the
    TSO-configured RTLCheck pickles too)."""
    from repro.vscale.tso import MultiVScaleTSO

    # "buggy" selects the seeded LIFO-drain store buffer.
    drain = "lifo" if variant == "buggy" else "fifo"
    return MultiVScaleTSO(compiled, drain_order=drain)


def _verify_suite_worker(rtlcheck: "RTLCheck", test, memory_variant):
    """Module-level task body for the suite process pool.

    Returns ``(result, cache_stats_delta)`` — workers hold their own
    :class:`~repro.cache.VerificationCache` copy (same on-disk root,
    zeroed statistics), so the parent merges the deltas by summation.
    """
    result = rtlcheck.verify_test(test, memory_variant)
    stats = None
    if rtlcheck.cache is not None:
        stats = rtlcheck.cache.stats.snapshot()
    return result, stats


@dataclass
class GeneratedProperties:
    """Output of RTLCheck's generation phase for one litmus test."""

    compiled: CompiledTest
    assumptions: List[Directive]
    assertions: List[Directive]
    sva_text: str
    generation_seconds: float


class RTLCheck:
    """RTLCheck for the Multi-V-scale processors.

    ``model`` defaults to the bundled Multi-V-scale µspec model;
    ``config`` picks the verifier engine configuration (Table 1).
    The design and mapping factories default to the paper's SC case
    study; :meth:`for_tso` wires up the store-buffer (x86-TSO) variant
    instead — RTLCheck itself is model- and design-agnostic (Figure 7).
    ``observe=True`` records spans and counters per test
    (:mod:`repro.obs`) and attaches the recorder snapshot to each
    result's ``obs`` field.
    """

    def __init__(
        self,
        model: Optional[Model] = None,
        config: VerifierConfig = FULL_PROOF,
        design_factory=None,
        node_mapping_factory=MultiVScaleNodeMapping,
        program_mapping_factory=MultiVScaleProgramMapping,
        use_reach_graph: bool = USE_REACH_GRAPH,
        observe: bool = False,
        coverage: bool = False,
        cache=None,
        state_backend: str = "array",
    ):
        if state_backend not in ("array", "dict", "kernel"):
            raise ReproError(
                f"unknown state backend {state_backend!r}; "
                "choose 'array', 'kernel', or 'dict'"
            )
        self.model = model or multi_vscale_model()
        self.config = config
        self.design_factory = design_factory or _multi_vscale_design_factory
        self.node_mapping_factory = node_mapping_factory
        self.program_mapping_factory = program_mapping_factory
        self.use_reach_graph = use_reach_graph
        self.observe = observe
        #: Collect microarchitectural coverage maps per test
        #: (:mod:`repro.obs.coverage`) and attach them to ``result.obs``
        #: — with or without full observability.
        self.coverage = coverage
        #: Snapshot representation applied to factory-built designs:
        #: ``"array"`` (interned flat vectors + batched expansion — the
        #: default) or ``"dict"`` (nested tuples, the equivalence
        #: reference).  Designs without a slot layout stay on ``dict``
        #: regardless (``docs/performance.md``).
        self.state_backend = state_backend
        #: Optional :class:`repro.cache.VerificationCache`.  When set,
        #: verdicts, reach graphs, and compiled monitors are memoized on
        #: disk, keyed by the full verification input set (see
        #: ``docs/caching.md``); ``None`` (the default) verifies cold.
        self.cache = cache

    @classmethod
    def for_tso(
        cls,
        config: VerifierConfig = FULL_PROOF,
        observe: bool = False,
        cache=None,
    ) -> "RTLCheck":
        """RTLCheck configured for Multi-V-scale-TSO: the store-buffer
        design, its µspec model, and the Memory-stage node mapping."""
        from repro.mapping.tso_mapping import MultiVScaleTsoNodeMapping

        return cls(
            model=load_model("multi_vscale_tso"),
            config=config,
            design_factory=_multi_vscale_tso_design_factory,
            node_mapping_factory=MultiVScaleTsoNodeMapping,
            observe=observe,
            cache=cache,
        )

    # ------------------------------------------------------------------
    # Cache keys (content addressing; see docs/caching.md)
    # ------------------------------------------------------------------

    def verdict_key(
        self, test: LitmusTest, memory_variant: str, skip_cover_shortcut: bool = False
    ) -> str:
        """The content key of ``verify_test(test, memory_variant)``."""
        from repro.cache import keys

        return keys.verdict_key(
            test=test,
            memory_variant=memory_variant,
            model=self.model,
            config=self.config,
            design_factory=self.design_factory,
            node_mapping_factory=self.node_mapping_factory,
            program_mapping_factory=self.program_mapping_factory,
            use_reach_graph=self.use_reach_graph,
            skip_cover_shortcut=skip_cover_shortcut,
            state_backend=self.state_backend,
        )

    # ------------------------------------------------------------------
    # Generation (takes just seconds per test, §7 intro)
    # ------------------------------------------------------------------

    def generate(self, test: LitmusTest) -> GeneratedProperties:
        """Run the Assumption and Assertion Generators for ``test``."""
        with obs.span("generate", test=test.name) as span:
            compiled = compile_test(test)
            program_mapping = self.program_mapping_factory(compiled)
            node_mapping = self.node_mapping_factory(compiled)
            assumptions = program_mapping.all_assumptions()
            assertions = AssertionGenerator(
                model=self.model, compiled=compiled, node_mapping=node_mapping
            ).generate()
            sva_text = emit_sva_file(test.name, assumptions + assertions)
        recorder = obs.get_recorder()
        if recorder.enabled:
            recorder.count("generator.assumptions", len(assumptions))
            recorder.count("generator.assertions", len(assertions))
        return GeneratedProperties(
            compiled=compiled,
            assumptions=assumptions,
            assertions=assertions,
            sva_text=sva_text,
            generation_seconds=span.seconds,
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_test(
        self,
        test: LitmusTest,
        memory_variant: str = "fixed",
        skip_cover_shortcut: bool = False,
    ) -> TestVerification:
        """Generate properties for ``test`` and verify them against the
        chosen Multi-V-scale memory variant.

        With ``observe=True`` the run records into a fresh per-test
        :class:`~repro.obs.TraceRecorder`; its snapshot is attached as
        ``result.obs``.

        Malformed tests (an outcome referencing a register no load
        writes, a final value for a location no thread uses) fail fast
        with a :class:`~repro.errors.ReproError` naming the test — they
        must not surface as ``KeyError``/``AssertionError`` from deep
        inside the generators (fuzzed tests reach this path with no
        prior validation).
        """
        test.validate()
        key = None
        if self.cache is not None:
            key = self.verdict_key(test, memory_variant, skip_cover_shortcut)
            cached = self.cache.load_verdict(
                key, observe=self.observe, coverage=self.coverage
            )
            if cached is not None:
                return cached
        try:
            if not (self.observe or self.coverage):
                result = self._verify_test(
                    test, memory_variant, skip_cover_shortcut
                )
            else:
                if self.observe:
                    coverage_map = None
                    if self.coverage:
                        from repro.obs.coverage import CoverageMap

                        coverage_map = CoverageMap()
                    recorder = obs.TraceRecorder(coverage=coverage_map)
                else:
                    # Coverage without metrics: the enabled=False sink,
                    # so span/counter instrumentation stays no-op.
                    recorder = obs.CoverageRecorder()
                with obs.use_recorder(recorder):
                    result = self._verify_test(
                        test, memory_variant, skip_cover_shortcut
                    )
                result.obs = recorder.to_state()
        except ReproError:
            raise
        except (KeyError, AssertionError, IndexError) as exc:
            raise ReproError(
                f"{test.name}: internal error while verifying "
                f"[{memory_variant}]: {exc!r}"
            ) from exc
        if key is not None:
            self.cache.store_verdict(key, result)
        return result

    def _verify_test(
        self,
        test: LitmusTest,
        memory_variant: str,
        skip_cover_shortcut: bool,
    ) -> TestVerification:
        recorder = obs.get_recorder()
        with obs.span(
            "verify_test",
            test=test.name,
            memory=memory_variant,
            config=self.config.name,
        ) as wall:
            generated = self.generate(test)
            design = self.design_factory(generated.compiled, memory_variant)
            self._apply_state_backend(design)
            checker = AssumptionChecker(generated.assumptions)
            reach_key = loaded_transitions = None
            if self.use_reach_graph:
                # The design's assumption-constrained state space is
                # explored once into a shared graph; the cover run and
                # every property walk below replay it without
                # re-simulating.  With a cache attached, the graph is
                # additionally persisted across processes and engine
                # configurations (its key excludes the µspec model and
                # config — see docs/caching.md).
                graph = None
                if self.cache is not None:
                    from repro.cache import keys as cache_keys

                    reach_key = cache_keys.reach_key(
                        test=test,
                        memory_variant=memory_variant,
                        design_factory=self.design_factory,
                        program_mapping_factory=self.program_mapping_factory,
                        state_backend=self.state_backend,
                    )
                    graph = self.cache.load_graph(reach_key)
                    if graph is not None:
                        loaded_transitions = graph.sim_transitions
                explorer = GraphExplorer(design, checker, graph=graph)
            else:
                explorer = Explorer(design, checker)
            engine_model = EngineModel(self.config)

            # Phase 1: covering traces for the assumptions (§4.1).
            cover = explorer.cover_assumptions(EXPLORER_BUDGET)
            cover_hours = engine_model.cover_hours(cover)
            cover_conclusive = engine_model.cover_conclusive(cover)
            final_unreachable = (
                cover.exhausted and "final_values" not in cover.fired_assumptions
            )
            verified_by_cover = (
                not skip_cover_shortcut and cover_conclusive and final_unreachable
            )

            result = TestVerification(
                test=test,
                memory_variant=memory_variant,
                config_name=self.config.name,
                assumptions=generated.assumptions,
                assertions=generated.assertions,
                sva_text=generated.sva_text,
                generation_seconds=generated.generation_seconds,
                cover=cover,
                cover_hours=cover_hours,
                verified_by_cover=verified_by_cover,
                cover_seconds=cover.seconds,
            )

            # Phase 2: prove each generated assertion (skipped when the
            # covering run discharged the test outright).
            if verified_by_cover:
                if recorder.enabled:
                    # Keep one span per pipeline phase per test: record
                    # the skipped proof phase as a zero-length span.
                    recorder.add_span(
                        "proof",
                        time.perf_counter(),
                        0.0,
                        test=test.name,
                        skipped_by_cover=True,
                    )
            else:
                with obs.span("proof", test=test.name) as proof_span:
                    monitors = [self._monitor(d) for d in generated.assertions]
                    if self.use_reach_graph:
                        # One letter alphabet for the whole test, so each
                        # edge's letter is computed once for every walk.
                        explorer.set_alphabet(
                            frozenset().union(*(m.signals for m in monitors))
                        )
                    for directive, monitor in zip(generated.assertions, monitors):
                        ground_truth = explorer.check_property(
                            monitor, EXPLORER_BUDGET
                        )
                        verdict = engine_model.judge_property(
                            ground_truth, directive.name
                        )
                        result.properties.append(
                            PropertyResult(
                                name=directive.name,
                                verdict=verdict,
                                ground_truth=ground_truth,
                                check_seconds=ground_truth.seconds,
                            )
                        )
                        if recorder.enabled:
                            self._flush_monitor_counters(recorder, monitor)
                result.proof_seconds = proof_span.seconds

            self._record_graph_stats(result, explorer, recorder, wall)
            coverage = getattr(recorder, "coverage", None)
            if coverage is not None:
                self._collect_coverage(
                    coverage, test, explorer, cover, result, recorder
                )
            if recorder.enabled:
                # A warm-loaded graph carries its own pickled checker
                # (with the firing counts accumulated when it was
                # built), so read through the explorer, not the local
                # ``checker``.
                assumptions = explorer.assumptions
                recorder.count(
                    "assumptions.antecedent_firings",
                    assumptions.antecedent_firings,
                )
                recorder.count(
                    "assumptions.pruned_frames", assumptions.pruned_frames
                )
                recorder.count(
                    "cover.fired_assumptions", len(cover.fired_assumptions)
                )
        result.wall_seconds = wall.seconds
        if reach_key is not None:
            graph = explorer.graph
            if (
                loaded_transitions is None
                or graph.sim_transitions > loaded_transitions
            ):
                # Persist (or refresh) the shared graph whenever this
                # run actually simulated new transitions into it.
                self.cache.store_graph(reach_key, graph)
        return result

    def _apply_state_backend(self, design) -> None:
        """Put a factory-built design on the configured state backend.

        Requesting ``"array"`` on a design without a slot layout (for
        example Multi-V-scale-TSO, whose store buffers are
        variable-size) is a silent no-op: the design keeps its dict
        snapshots and every explorer takes the classic path.
        Requesting ``"kernel"`` on a design without a compiled step
        path likewise degrades gracefully — to ``array`` when the
        design declares a slot layout, else ``dict``
        (:meth:`~repro.rtl.design.Design.enable_kernel_state`).
        """
        backend = getattr(design, "state_backend", None)
        if self.state_backend == "dict":
            if backend in VECTOR_BACKENDS:
                design.disable_array_state()
        elif self.state_backend == "kernel":
            if backend != "kernel" and hasattr(design, "enable_kernel_state"):
                design.enable_kernel_state()
        elif backend != "array" and hasattr(design, "enable_array_state"):
            design.enable_array_state()

    def _monitor(self, directive: Directive) -> PropertyMonitor:
        """Compile ``directive`` into a :class:`PropertyMonitor`,
        memoized through the cache's NFA tier when one is attached."""
        if self.cache is None:
            return PropertyMonitor(directive)
        from repro.cache import keys as cache_keys

        key = cache_keys.monitor_key(directive)
        monitor = self.cache.load_monitor(key)
        if monitor is None:
            monitor = PropertyMonitor(directive)
            self.cache.store_monitor(key, monitor)
        return monitor

    @staticmethod
    def _flush_monitor_counters(recorder, monitor: PropertyMonitor) -> None:
        """Fold one property monitor's memo and DFA-table accumulators
        into the recorder (monitors are per-property, so flush after
        each check).  The memo counters count table-miss work only."""
        recorder.count("monitor.verdict_memo_hits", monitor.verdict_memo_hits)
        recorder.count("monitor.verdict_memo_misses", monitor.verdict_memo_misses)
        recorder.count(
            "nfa.predicate_memo_hits", sum(n.memo_hits for n in monitor.nfas)
        )
        recorder.count(
            "nfa.predicate_memo_misses", sum(n.memo_misses for n in monitor.nfas)
        )
        recorder.count("monitor.dfa_states", monitor.dfa_states)
        recorder.count("monitor.table_hits", monitor.table_hits)
        recorder.count("monitor.table_misses", monitor.table_misses)
        recorder.count("monitor.letters", monitor.letters)

    @staticmethod
    def _collect_coverage(
        coverage, test, explorer, cover, result, recorder
    ) -> None:
        """Fold one verification's microarchitectural coverage into
        ``coverage`` (a :class:`~repro.obs.coverage.CoverageMap`).

        Runs at the same flush point as :meth:`_record_graph_stats` —
        after both phases, once per test — so the graph is walked
        exactly once however many properties were checked.  Keys are
        derived from run-stable signatures (slot-vector digests, not
        interner ids), so maps merge meaningfully across runs and
        processes; see ``docs/observability.md``.
        """
        from repro.obs.coverage import collect_graph_coverage, shape_features

        graph = getattr(explorer, "graph", None)
        if graph is not None:
            collect_graph_coverage(coverage, graph)
        for name in sorted(cover.fired_assumptions):
            coverage.add("assumption", f"fired:{name}")
        for prop in result.properties:
            coverage.add("assumption", f"assert:{prop.name}:{prop.status}")
        for feature in shape_features(test):
            coverage.add("shape", feature)
        if recorder.enabled:
            for domain in sorted(coverage.domains):
                recorder.count(
                    f"coverage.{domain}.keys", len(coverage.domains[domain])
                )

    @staticmethod
    def _record_graph_stats(
        result: TestVerification, explorer, recorder=None, wall=None
    ) -> None:
        graph = getattr(explorer, "graph", None)
        design = getattr(explorer, "design", None)
        if design is None and graph is not None:
            # The graph explorer simulates exclusively through the
            # graph's design (a warm-loaded graph carries its own).
            design = graph.design
        backend = getattr(design, "state_backend", "dict")
        if recorder is not None and recorder.enabled and backend in VECTOR_BACKENDS:
            recorder.count("state.states_interned", design.states_interned)
            recorder.count("state.batch_expansions", design.batch_expansions)
            recorder.count("state.slots_copied", design.slots_copied)
            if backend == "kernel":
                recorder.count(
                    "kernel.batched_steps", design.kernel_batched_steps
                )
                recorder.count(
                    "kernel.compile_seconds", design.kernel_compile_seconds
                )
        if graph is None:
            return
        result.graph_build_seconds = graph.build_seconds
        result.graph_states = graph.num_nodes
        result.graph_transitions = graph.sim_transitions
        if recorder is None or not recorder.enabled:
            return
        recorder.count("reach.sim_transitions", graph.sim_transitions)
        recorder.count("reach.cache_hits", graph.cache_hits)
        recorder.count("rtl.frames_simulated", graph.sim_transitions)
        recorder.gauge("reach.graph_states", graph.num_nodes)
        recorder.gauge("reach.expanded_nodes", graph.expanded_nodes)
        if wall is not None:
            # The graph is built lazily inside the cover and property
            # walks; surface its accumulated simulation time as one
            # synthetic span anchored at the walk phase's start.
            recorder.add_span(
                "graph-build",
                wall.start,
                graph.build_seconds,
                test=result.test.name,
            )

    def verify_suite(
        self,
        tests: List[LitmusTest],
        memory_variant: str = "fixed",
        jobs: int = 1,
        progress: Optional[Callable[[TestVerification], None]] = None,
        checkpoint: bool = True,
    ) -> Dict[str, TestVerification]:
        """Verify a suite; returns results keyed by test name, in suite
        order.  ``jobs > 1`` fans tests out over a process pool (tests
        are fully independent).  ``progress``, when given, is called
        with each :class:`TestVerification` as it completes — in
        completion order for parallel runs.

        With a cache attached, cached verdicts are fetched in the
        parent before any worker is spawned (a fully-warm run never
        touches the process pool), and — unless ``checkpoint=False`` —
        a resume manifest is rewritten after every completed test, so
        an interrupted campaign restarts from the last finished unit.
        """
        seen = set()
        for test in tests:
            if test.name in seen:
                raise ReproError(
                    f"duplicate test name {test.name!r} in suite: results "
                    "are keyed by name, a duplicate would be dropped"
                )
            seen.add(test.name)
        manifest = None
        if self.cache is not None and checkpoint:
            from repro.cache import keys as cache_keys

            campaign = cache_keys.campaign_key(
                "suite",
                {
                    "memory_variant": memory_variant,
                    "observe": self.observe,
                    "verdicts": [
                        self.verdict_key(test, memory_variant)
                        for test in tests
                    ],
                },
            )
            manifest = self.cache.checkpoint(campaign, total=len(tests))
        results: Dict[str, TestVerification] = {}
        pending = list(tests)
        if jobs > 1 and len(tests) > 1:
            try:
                pickle.dumps(self)
            except Exception as exc:
                raise ReproError(
                    "verify_suite(jobs>1) needs a picklable RTLCheck; "
                    "custom factories must be module-level callables "
                    f"({exc})"
                ) from exc
            if self.cache is not None:
                # Parent-side prefetch: verdict-tier hits skip process
                # pool dispatch entirely.
                pending = []
                for test in tests:
                    cached = self.cache.load_verdict(
                        self.verdict_key(test, memory_variant),
                        observe=self.observe,
                        coverage=self.coverage,
                        record_miss=False,
                    )
                    if cached is None:
                        pending.append(test)
                        continue
                    results[test.name] = cached
                    if manifest is not None:
                        manifest.mark_done(test.name)
                    if progress is not None:
                        progress(cached)
        if jobs > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(
                        _verify_suite_worker, self, test, memory_variant
                    ): test.name
                    for test in pending
                }
                for future in as_completed(futures):
                    result, stats = future.result()
                    results[futures[future]] = result
                    if self.cache is not None and stats:
                        self.cache.stats.merge(stats)
                    if manifest is not None:
                        manifest.mark_done(futures[future])
                    if progress is not None:
                        progress(result)
        else:
            for test in pending:
                result = self.verify_test(test, memory_variant)
                results[test.name] = result
                if manifest is not None:
                    manifest.mark_done(test.name)
                if progress is not None:
                    progress(result)
        if manifest is not None:
            manifest.finish()
        return {test.name: results[test.name] for test in tests}
