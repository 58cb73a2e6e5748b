"""One measured iteration of a workload, in a fresh interpreter.

``run.py`` starts this file once per iteration, so import, suite
construction and cache opening cost what they cost a CLI user::

    python3 perfbench/workloads.py --workload suite-cold --seed 0 \\
        --fuzz-seed 0 --cache DIR --spawned T --out RESULT.json \\
        [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux), so set-up
time counts interpreter start.  The iteration checks its outputs
before it writes ``--out``; a failed check exits 1 and writes nothing.
With ``--trace`` the layer wrappers of :mod:`spans` are installed and
the per-layer split is written alongside, with the raw spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402

#: Tests per fuzz campaign: enough for 39 discrepancies on campaign 0
#: while campaign 0 stays under a minute.
FUZZ_BUDGET = 20
#: Workers of the served workload's pool.
SERVE_WORKERS = 2


def fuzz_config(seed: int):
    """The ``fuzz-buggy`` campaign: buggy memory, all five oracles, no
    cache, one job."""
    from repro.difftest import FuzzConfig

    return FuzzConfig(seed=seed, budget=FUZZ_BUDGET, memory_variant="buggy", jobs=1)


def fuzz_failures(report) -> int:
    """Failed units of a fuzz report: tests with an oracle error
    (crashed workers included) plus tests whose RTL enumeration hit its
    state budget.  Discrepancies are the campaign's output, not
    failures."""
    errored = {entry["index"] for entry in report["oracle_errors"]}
    return len(errored) + report["skipped"].get("rtl_incomplete", 0)


def serve_order(names, seed: int):
    """The served workload's closed-loop submission order: every test
    once in seeded order, each followed by a seeded repeat of a test
    already submitted (so the repeat's job has finished)."""
    rng = random.Random(seed)
    order = list(names)
    rng.shuffle(order)
    jobs = []
    for index, name in enumerate(order):
        jobs.append(name)
        jobs.append(rng.choice(order[: index + 1]))
    return jobs


class Iteration:
    """Clock marks, spans and results of one iteration."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ready_at = None
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.layers = {}
        #: The data the output checks read (kept as a record of the run).
        self.checked = {}

    def span(self, name, group=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, group)

    def ready(self):
        self.ready_at = time.monotonic()


def _suite(it: Iteration, args, warm: bool):
    import repro.litmus.suite as suite
    from repro import FULL_PROOF, RTLCheck
    from repro.cache import VerificationCache

    tests = suite.paper_suite()
    cache = VerificationCache(args.cache)
    rtlcheck = RTLCheck(config=FULL_PROOF, cache=cache)
    it.ready()
    if args.setup_only:
        return []
    stamps = [time.monotonic()]
    results = rtlcheck.verify_suite(
        tests, memory_variant="fixed", jobs=1,
        progress=lambda _result: stamps.append(time.monotonic()),
    )
    it.latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    it.attempted = len(tests)
    with it.span("bench.check"):
        rows = [checks.suite_row(result.to_dict()) for result in results.values()]
        stats = cache.stats.snapshot()
        problems = checks.check_suite(rows, checks.load_golden(ROOT))
        if warm:
            problems += checks.check_warm(stats)
    it.checked = {"rows": rows, "cache_stats": stats}
    lookups = sum(value for name, value in stats.items() if name.endswith((".hits", ".misses")))
    hits = sum(value for name, value in stats.items() if name.endswith(".hits"))
    it.layers["cache.bytes_written"] = stats.get("cache.bytes_written", 0)
    it.layers["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return problems


def suite_cold(it, args):
    return _suite(it, args, warm=False)


def suite_warm(it, args):
    return _suite(it, args, warm=True)


def fuzz_buggy(it, args):
    from repro.difftest import run_fuzz, validate_fuzz_report

    it.ready()
    if args.setup_only:
        return []
    stamps = [time.monotonic()]
    result = run_fuzz(
        fuzz_config(args.fuzz_seed),
        progress=lambda _index, _name: stamps.append(time.monotonic()),
    )
    it.latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    it.attempted = result.tests_run
    with it.span("bench.check"):
        report = result.report()
        reference = checks.load_reference().get(str(args.fuzz_seed))
        if reference is None:
            return [
                f"no reference digest for campaign seed {args.fuzz_seed}; "
                "record one with perfbench/make_reference.py"
            ]
        problems = checks.check_fuzz(report, reference, validate_fuzz_report)
    it.checked = {"report": report}
    it.failed = fuzz_failures(report)
    return problems


def serve_mixed(it, args):
    import repro.litmus.suite as suite
    from repro.serve import ServeClient, ServeError, ThreadedServer, job_key, validate_spec

    names = [test.name for test in suite.paper_suite()]
    with it.span("serve.start"):
        server = ThreadedServer(cache_dir=args.cache, jobs=SERVE_WORKERS).start()
    try:
        client = ServeClient(port=server.port, timeout=120.0)
        it.ready()
        if args.setup_only:
            return []
        jobs, hits, overhead = [], [], 0.0
        for name in serve_order(names, args.seed):
            spec = {"kind": "verify", "params": {"test": name}}
            group = job_key(validate_spec(spec)) if it.tracer is not None else None
            start = time.monotonic()
            with it.span("serve.submit", group):
                submission = client.submit(spec)
            key = submission["job"]
            state = submission["state"]
            if state not in ("done", "failed"):
                with it.span("serve.wait", group):
                    for _event in client.events(key):
                        pass
                    state = client.wait(key)["state"]
            try:
                with it.span("serve.report", group):
                    report = client.report(key)
            except ServeError:
                report = {"tests": []}
            latency = time.monotonic() - start
            if submission["source"] == "created":
                it.latencies.append(latency)
                overhead += latency - sum(t["wall_seconds"] for t in report["tests"])
            else:
                hits.append(latency)
            jobs.append({
                "test": name,
                "source": submission["source"],
                "state": state,
                "rows": [checks.suite_row(t) for t in report["tests"]],
            })
        with it.span("bench.check"):
            stats = client.stats()
            problems = checks.check_serve(jobs, stats, checks.load_golden(ROOT))
        it.checked = {"jobs": jobs, "stats": stats}
    finally:
        server.stop()
        for worker in multiprocessing.active_children():
            worker.join(timeout=60)
    it.attempted = len(jobs)
    it.failed = sum(1 for job in jobs if job["state"] != "done")
    it.layers["serve.overhead_s"] = overhead
    it.layers["serve.hit_p50_s"] = percentile(hits, 50)
    it.layers["serve.hit_p80_s"] = percentile(hits, tail_percentile(len(hits)))
    for name in ("cache_hits", "coalesced"):
        it.layers[f"serve.{name}"] = stats["counters"][name]
    for name in ("pools_spawned", "units_dispatched", "unit_retries"):
        it.layers[f"serve.{name}"] = stats["pool"][name]
    return problems


WORKLOADS = {
    "suite-cold": suite_cold,
    "suite-warm": suite_warm,
    "fuzz-buggy": fuzz_buggy,
    "serve-mixed": serve_mixed,
}


def _import_repro(workload: str, trace: bool) -> None:
    """Import what the workload touches (traced: everything the
    wrappers patch, so that import cost stays in the import span)."""
    import repro  # noqa: F401

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout's src/")
    import repro.cache  # noqa: F401
    if trace or workload == "fuzz-buggy":
        import repro.difftest  # noqa: F401
    if trace or workload == "serve-mixed":
        import repro.serve  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fuzz-seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = spans.Tracer(clock=time.monotonic) if args.trace else None
    it = Iteration(tracer)
    with it.span("import"):
        _import_repro(args.workload, args.trace)
    if tracer is not None:
        spans.install(tracer)
    problems = WORKLOADS[args.workload](it, args)
    done = time.monotonic()
    if problems:
        for problem in problems:
            print(f"CHECK FAILED [{args.workload} seed {args.seed}]: {problem}", file=sys.stderr)
        return 1
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "setup_s": it.ready_at - args.spawned,
        "wall_s": done - args.spawned,
        "latencies": it.latencies,
        "attempted": it.attempted,
        "failed": it.failed,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if it.checked:
        with open(os.path.splitext(args.out)[0] + ".checked.json", "w") as handle:
            json.dump(it.checked, handle)
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, tracer.counts, result["wall_s"])
        layers.update(it.layers)
        result["layers"] = layers
        with open(os.path.splitext(args.out)[0] + ".spans.json", "w") as handle:
            json.dump(tracer.spans, handle)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
