"""Layer tracing for the benchmark's traced pass.

The traced pass wraps the public entry point of each layer of
``repro`` (see :func:`install`) from the benchmark's own files; no
file under ``src/`` carries tracing for the benchmark.  Each wrapped
call records one span ``[name, start, end, parent, group]`` in memory:
``parent`` is the index of the enclosing span (``-1`` for a root) and
``group`` is the id shared by every span of one unit of work (the
suite test name, the fuzz test name, or the serve job key).  The
spans are written out once, when the run ends.

A layer's *self time* is the summed duration of its spans minus the
time their direct child spans cover.  Spans on one thread nest
strictly, so the self times of all spans add up to the time covered
by root spans, and ``unattributed_s`` (traced wall minus the sum of
all self times) is the run time no wrapped layer accounts for.

Only the thread that created the :class:`Tracer` records spans: the
job server's event-loop thread and its worker processes run
untraced, so their work shows up inside the client's ``serve.*``
spans instead of overlapping them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Every span name the traced pass can record, in report order.  Each
#: becomes a ``<name>_s`` self-time metric (0 when a workload never
#: enters the layer).
LAYERS = (
    "import",
    "litmus.suite_build",
    "core.verify",
    "core.generate",
    "sva.monitor_build",
    "verifier.cover",
    "verifier.proof",
    "verifier.graph_build",
    "rtl.step",
    "cache.load",
    "cache.store",
    "difftest.evaluate",
    "difftest.oracle.operational",
    "difftest.oracle.axiomatic",
    "difftest.oracle.rtl",
    "difftest.oracle.trace",
    "difftest.oracle.verifier",
    "difftest.shrink",
    "serve.start",
    "serve.submit",
    "serve.wait",
    "serve.report",
    "bench.check",
)

#: Layers also reported with their inclusive time (``<name>_incl_s``,
#: children included): the fuzz oracles and the shrinker nest the RTL
#: and verifier layers, and their share of a campaign is inclusive.
INCLUSIVE = (
    "difftest.oracle.operational",
    "difftest.oracle.axiomatic",
    "difftest.oracle.rtl",
    "difftest.oracle.trace",
    "difftest.oracle.verifier",
    "difftest.shrink",
)

#: Work counters the wrappers record, in report order.
COUNTERS = (
    "litmus.suite_builds",
    "core.assertions",
    "sva.monitors",
    "verifier.cover_walks",
    "verifier.cover_discharged",
    "verifier.proof_walks",
    "verifier.proof_transitions",
    "verifier.proof_states",
    "verifier.graph_expansions",
    "verifier.graph_states",
    "rtl.step_calls",
    "cache.loads",
    "cache.stores",
    "difftest.oracle_runs",
    "difftest.shrink_oracle_runs",
)


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.group: Optional[str] = None
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str, group: Optional[str]):
        sets_group = group is not None and self.group is None
        if sets_group:
            self.group = group
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.group])
        self._stack.append(len(self.spans) - 1)
        return sets_group

    def _close(self, sets_group: bool) -> None:
        self.spans[self._stack.pop()][2] = self.clock()
        if sets_group:
            self.group = None

    @contextmanager
    def span(self, name: str, group: Optional[str] = None):
        """Record a span around the ``with`` body.  ``group`` names the
        unit of work, unless an enclosing span already set one."""
        sets_group = self._open(name, group)
        try:
            yield
        finally:
            self._close(sets_group)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(self.spans[index][0] == name for index in self._stack)

    def wrap(
        self, name: str, fn: Callable, count=None, before=None, group=None
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``count(counts, args, result, snapshot)`` records work counters
        after the call, where ``snapshot`` is ``before(args)`` taken
        before it (``None`` without ``before``); ``group(args)`` names
        the unit of work the call starts.  A call from another thread,
        or re-entering the same layer (an overriding method calling its
        base), runs unrecorded.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread or (
                self._stack and self.spans[self._stack[-1]][0] == name
            ):
                return fn(*args, **kwargs)
            snapshot = None if before is None else before(args)
            sets_group = self._open(name, None if group is None else group(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sets_group)
            if count is not None:
                count(self.counts, args, result, snapshot)
            return result

        return traced


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the durations of
    its direct children, summed over spans of the same name."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _group in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent, _group) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
    return totals


def layer_metrics(spans: List[list], counts: Dict[str, float], wall: float) -> Dict[str, float]:
    """The traced pass's per-layer metrics: ``<layer>_s`` self times,
    ``<layer>_incl_s`` inclusive times, the work counters, and
    ``unattributed_s``."""
    totals = self_times(spans)
    unknown = sorted(set(totals) - set(LAYERS))
    if unknown:
        raise ValueError(f"spans with unknown layer names: {unknown}")
    metrics = {f"{layer}_s": totals.get(layer, 0.0) for layer in LAYERS}
    for layer in INCLUSIVE:
        metrics[f"{layer}_incl_s"] = sum(
            end - start for name, start, end, _parent, _group in spans if name == layer
        )
    metrics.update({name: float(counts.get(name, 0)) for name in COUNTERS})
    metrics["unattributed_s"] = wall - sum(totals.values())
    return metrics


# ----------------------------------------------------------------------
# Wrapping repro's layers


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every loaded ``repro`` module attribute that refers to
    ``original`` (re-exports and ``from x import f`` copies included)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, module, attr: str, name: str, **hooks) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, **hooks))


def _wrap_method(tracer: Tracer, classes, attr: str, name: str, **hooks) -> None:
    """Wrap method ``attr`` on each class of ``classes`` (an inherited
    method is wrapped on the subclass, leaving its base untouched)."""
    for cls in classes:
        original = cls.__dict__.get(attr) or getattr(cls, attr)
        setattr(cls, attr, tracer.wrap(name, original, **hooks))


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer.

    Call after the workload's ``repro`` modules are imported and before
    any of them runs.  Per-transition functions
    (``PropertyMonitor.step``, ``ReachGraph.live_successors``) are
    deliberately left alone: they run millions of times per suite.
    """
    import repro.litmus.suite as suite
    import repro.difftest.oracles as oracles
    import repro.difftest.shrink as shrink
    from repro.cache import VerificationCache
    from repro.core.rtlcheck import RTLCheck
    from repro.rtl.design import Design
    from repro.sva.monitor import PropertyMonitor
    from repro.verifier.reach import GraphExplorer, ReachGraph
    import repro.vscale.soc  # noqa: F401  (registers MultiVScale)

    def count_builds(counts, _args, _result, _snapshot):
        counts["litmus.suite_builds"] += 1

    _wrap_function(tracer, suite, "paper_suite", "litmus.suite_build", count=count_builds)

    _wrap_method(
        tracer, [RTLCheck], "verify_test", "core.verify",
        group=lambda args: args[1].name,
    )

    def count_generate(counts, _args, result, _snapshot):
        counts["core.assertions"] += len(result.assertions)

    _wrap_method(tracer, [RTLCheck], "generate", "core.generate", count=count_generate)

    def count_monitor(counts, _args, _result, _snapshot):
        counts["sva.monitors"] += 1

    _wrap_method(tracer, [PropertyMonitor], "__init__", "sva.monitor_build", count=count_monitor)

    def count_proof(counts, _args, result, _snapshot):
        counts["verifier.proof_walks"] += 1
        counts["verifier.proof_transitions"] += result.transitions
        counts["verifier.proof_states"] += result.states_explored

    def count_cover(counts, _args, result, _snapshot):
        counts["verifier.cover_walks"] += 1
        discharged = result.exhausted and "final_values" not in result.fired_assumptions
        counts["verifier.cover_discharged"] += int(discharged)

    _wrap_method(tracer, [GraphExplorer], "check_property", "verifier.proof", count=count_proof)
    _wrap_method(tracer, [GraphExplorer], "cover_assumptions", "verifier.cover", count=count_cover)

    def graph_size(args):
        return args[0].num_nodes, args[0].sim_transitions

    def count_expansion(counts, args, _result, snapshot):
        nodes, simulated = snapshot
        if args[0].sim_transitions != simulated:
            counts["verifier.graph_expansions"] += 1
            counts["verifier.graph_states"] += args[0].num_nodes - nodes

    _wrap_method(
        tracer, [ReachGraph], "successors", "verifier.graph_build",
        count=count_expansion, before=graph_size,
    )

    def count_step(counts, _args, _result, _snapshot):
        counts["rtl.step_calls"] += 1

    for attr in ("step_batch_checked", "successor_batch"):
        owners = [cls for cls in _subclasses(Design) if attr in cls.__dict__]
        _wrap_method(tracer, owners, attr, "rtl.step", count=count_step)

    def count_load(counts, _args, _result, _snapshot):
        counts["cache.loads"] += 1

    def count_store(counts, _args, _result, _snapshot):
        counts["cache.stores"] += 1

    for tier in ("verdict", "graph", "monitor", "oracle"):
        _wrap_method(tracer, [VerificationCache], f"load_{tier}", "cache.load", count=count_load)
        _wrap_method(tracer, [VerificationCache], f"store_{tier}", "cache.store", count=count_store)

    def count_oracle(counts, _args, _result, _snapshot):
        counts["difftest.oracle_runs"] += 1
        if tracer.inside("difftest.shrink"):
            counts["difftest.shrink_oracle_runs"] += 1

    for oracle in ("operational", "axiomatic", "rtl", "trace", "verifier"):
        _wrap_function(
            tracer, oracles, f"{oracle}_verdicts", f"difftest.oracle.{oracle}",
            count=count_oracle,
        )
    _wrap_function(
        tracer, oracles, "evaluate_oracles", "difftest.evaluate",
        group=lambda args: args[0].name,
    )
    _wrap_function(
        tracer, shrink, "shrink_test", "difftest.shrink",
        group=lambda args: args[0].name,
    )
