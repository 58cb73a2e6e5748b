"""The benchmark's own tests: percentile rule, self-time arithmetic,
output checks against corrupted copies of real results, and the fuzz
digest.  Run from the repository root::

    python3 -m pytest -q perfbench/tests

The fixtures are real results: ``*.checked.json`` files that
``perfbench/run.py`` leaves under ``.perfbench/runs/`` (the data each
iteration's output checks read), copied from real runs.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from workloads import serve_order  # noqa: E402


def _fixture(name):
    with open(os.path.join(HERE, "fixtures", name)) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return checks.load_golden(ROOT)


# ----------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (49, 50), (50, 80), (56, 80), (100, 90), (200, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        ordered = sorted(range(count))
        beyond = sum(1 for value in ordered if value > percentile(ordered, expected))
        assert beyond >= 10


def test_percentile_is_nearest_rank_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 80) == 4.0
    assert percentile(list(range(1, 57)), 80) == 45
    with pytest.raises(ValueError):
        percentile(values, None)


# ----------------------------------------------------------------------
# self time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_and_leaves_unattributed():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.span("verifier.proof", group="mp"):
        clock.now = 1.0
        with tracer.span("verifier.graph_build"):
            clock.now = 2.0
            with tracer.span("rtl.step"):
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("cache.load"):
            clock.now = 9.0
        clock.now = 10.0
    clock.now = 11.0
    with tracer.span("import"):
        clock.now = 12.0
    totals = spans.self_times(tracer.spans)
    assert totals == {
        "verifier.proof": 3.0,
        "verifier.graph_build": 2.0,
        "rtl.step": 1.0,
        "cache.load": 4.0,
        "import": 1.0,
    }
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, wall=15.0)
    assert metrics["unattributed_s"] == 4.0
    assert metrics["verifier.proof_s"] == 3.0
    assert metrics["difftest.shrink_s"] == 0.0
    assert metrics["difftest.shrink_incl_s"] == 0.0
    # Every span of the unit shares the group its root set.
    assert [span[4] for span in tracer.spans] == ["mp", "mp", "mp", "mp", None]


def test_wrap_counts_and_skips_reentry_and_other_threads():
    import threading

    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def base(n):
        clock.now += 1.0
        return n

    def override(n):
        clock.now += 1.0
        return traced_base(n) + 1

    def count(counts, args, result, snapshot):
        counts["rtl.step_calls"] += 1
        assert snapshot == args[0]

    traced_base = tracer.wrap("rtl.step", base, count=count, before=lambda args: args[0])
    traced_override = tracer.wrap("rtl.step", override, count=count, before=lambda args: args[0])
    assert traced_override(3) == 4
    assert [span[0] for span in tracer.spans] == ["rtl.step"]
    assert tracer.spans[0][2] - tracer.spans[0][1] == 2.0
    assert tracer.counts["rtl.step_calls"] == 1
    worker = threading.Thread(target=traced_base, args=(1,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert len(tracer.spans) == 1


def test_inclusive_time_keeps_children():
    spans_ = [
        ["difftest.shrink", 0.0, 10.0, -1, "t"],
        ["difftest.oracle.rtl", 1.0, 5.0, 0, "t"],
        ["rtl.step", 2.0, 4.0, 1, "t"],
    ]
    metrics = spans.layer_metrics(spans_, {}, wall=10.0)
    assert metrics["difftest.oracle.rtl_s"] == 2.0
    assert metrics["difftest.oracle.rtl_incl_s"] == 4.0
    assert metrics["difftest.shrink_incl_s"] == 10.0
    assert metrics["unattributed_s"] == 0.0


def test_unknown_span_name_is_rejected():
    with pytest.raises(ValueError):
        spans.layer_metrics([["mystery", 0.0, 1.0, -1, None]], {}, wall=1.0)


# ----------------------------------------------------------------------
# output checks on real results and corrupted copies


def test_suite_check_accepts_real_result_and_rejects_flipped_verdict(golden):
    real = _fixture("suite_cold.checked.json")
    assert checks.check_suite(real["rows"], golden) == []
    corrupted = copy.deepcopy(real)
    row = next(r for r in corrupted["rows"] if r["test"] == "mp")
    row["verified_by_cover"] = not row["verified_by_cover"]
    problems = checks.check_suite(corrupted["rows"], golden)
    assert len(problems) == 1 and "mp" in problems[0]


def test_suite_check_rejects_lost_proof_and_dropped_test(golden):
    real = _fixture("suite_cold.checked.json")
    corrupted = copy.deepcopy(real)
    next(r for r in corrupted["rows"] if r["proven"])["proven"] -= 1
    assert any("proved 1542 of 1741" in p for p in checks.check_suite(corrupted["rows"], golden))
    assert checks.check_suite(real["rows"][1:], golden)


def test_warm_check_accepts_real_result_and_rejects_a_verdict_miss(golden):
    real = _fixture("suite_warm.checked.json")
    assert checks.check_suite(real["rows"], golden) == []
    assert checks.check_warm(real["cache_stats"]) == []
    corrupted = copy.deepcopy(real["cache_stats"])
    corrupted["cache.verdict.hits"] -= 1
    corrupted["cache.verdict.misses"] = 1
    assert checks.check_warm(corrupted)


def test_fuzz_check_accepts_real_report_and_rejects_extra_discrepancy():
    from repro.difftest import validate_fuzz_report

    report = _fixture("fuzz_buggy.checked.json")["report"]
    reference = checks.load_reference()[str(report["seed"])]
    assert checks.check_fuzz(report, reference, validate_fuzz_report) == []
    corrupted = copy.deepcopy(report)
    corrupted["discrepancies"].append(copy.deepcopy(corrupted["discrepancies"][0]))
    corrupted["discrepancy_count"] += 1
    problems = checks.check_fuzz(corrupted, reference, validate_fuzz_report)
    assert any("discrepancies" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_serve_check_accepts_real_result_and_rejects_failed_job(golden):
    real = _fixture("serve_mixed.checked.json")
    assert checks.check_serve(real["jobs"], real["stats"], golden) == []
    corrupted = copy.deepcopy(real)
    job = next(j for j in corrupted["jobs"] if j["source"] == "created")
    job["state"] = "failed"
    job["rows"] = []
    corrupted["stats"]["counters"]["failed"] = 1
    problems = checks.check_serve(corrupted["jobs"], corrupted["stats"], golden)
    assert any("ended failed" in p for p in problems)
    assert any("failed jobs" in p for p in problems)


def test_serve_check_rejects_second_pool_and_flipped_served_verdict(golden):
    real = _fixture("serve_mixed.checked.json")
    corrupted = copy.deepcopy(real)
    corrupted["stats"]["pool"]["pools_spawned"] = 2
    row = corrupted["jobs"][0]["rows"][0]
    row["bug_found"] = not row["bug_found"]
    problems = checks.check_serve(corrupted["jobs"], corrupted["stats"], golden)
    assert any("pools spawned" in p for p in problems)
    assert any(row["test"] in p for p in problems)


def test_serve_order_repeats_only_finished_jobs():
    names = [f"t{i}" for i in range(56)]
    order = serve_order(names, seed=1)
    assert len(order) == 112 and sorted(set(order)) == sorted(names)
    seen = set()
    for index, name in enumerate(order):
        if index % 2:
            assert name in seen
        else:
            assert name not in seen
            seen.add(name)
    assert serve_order(names, seed=1) == order != serve_order(names, seed=2)


# ----------------------------------------------------------------------
# fuzz digest


def _leaf_paths(document, path=()):
    if isinstance(document, dict):
        for key, value in document.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(document, list):
        for index, value in enumerate(document):
            yield from _leaf_paths(value, path + (index,))
    else:
        yield path


def _mutated(document, path):
    copied = copy.deepcopy(document)
    holder = copied
    for step in path[:-1]:
        holder = holder[step]
    value = holder[path[-1]]
    if isinstance(value, bool):
        holder[path[-1]] = not value
    elif isinstance(value, (int, float)):
        holder[path[-1]] = value + 1
    elif isinstance(value, str):
        holder[path[-1]] = value + "x"
    else:
        holder[path[-1]] = 0
    return copied


def test_fuzz_digest_ignores_timing_fields_and_nothing_else():
    report = _fixture("fuzz_buggy.checked.json")["report"]
    digest = checks.fuzz_digest(report)
    paths = list(_leaf_paths(report))
    timing = [p for p in paths if any(isinstance(s, str) and s.endswith("seconds") for s in p)]
    assert timing, "the real report carries timing fields"
    for path in timing:
        assert checks.fuzz_digest(_mutated(report, path)) == digest, path
    others = [p for p in paths if p not in timing]
    # Every non-timing leaf of the first discrepancy, plus every
    # top-level leaf and a stride through the rest.
    first = [p for p in others if p[:2] == ("discrepancies", 0)]
    sample = first + [p for p in others if len(p) <= 2] + others[::37]
    for path in sample:
        assert checks.fuzz_digest(_mutated(report, path)) != digest, path
    assert checks.fuzz_digest({**report, "extra": 1}) != digest
