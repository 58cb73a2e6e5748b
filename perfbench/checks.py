"""Output checks.  Each returns a list of problems; empty means correct.

A run reports numbers only after every check of its workload passes:

* both suite workloads match the ``verifier_fixed_bug_found`` and
  ``verifier_fixed_verified_by_cover`` columns of
  ``tests/fixtures/golden_verdicts.json``, prove 1,543 of 1,741
  properties, and reproduce Figure 13's Full_Proof mean of 4.9
  modeled hours;
* ``suite-warm`` answers all 56 tests from the verdict tier;
* ``fuzz-buggy``'s report validates and, minus its timing fields,
  hashes to the digest recorded for its campaign seed;
* ``serve-mixed`` fails no job, spawns one worker pool, dispatches one
  unit per distinct test, and serves the golden verdicts.

The checks read plain JSON-shaped data (per-test rows, reports,
server stats), so the benchmark's own tests can feed them corrupted
copies of real results.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Mapping

GOLDEN_PATH = os.path.join("tests", "fixtures", "golden_verdicts.json")
GOLDEN_COLUMNS = {
    "bug_found": "verifier_fixed_bug_found",
    "verified_by_cover": "verifier_fixed_verified_by_cover",
}
SUITE_TESTS = 56
PROPERTIES_TOTAL = 1741
PROPERTIES_PROVEN = 1543
#: Figure 13's Full_Proof mean, to the report's one decimal.
MEAN_MODELED_HOURS = 4.9

REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference", "fuzz_digests.json"
)


def load_golden(root: str) -> Dict[str, Dict[str, Any]]:
    """The golden verdict rows keyed by test name (read, never edited)."""
    with open(os.path.join(root, GOLDEN_PATH)) as handle:
        return {row["test"]: row for row in json.load(handle)["tests"]}


def suite_row(test: Mapping[str, Any]) -> Dict[str, Any]:
    """The checked fields of one test in run-report form
    (``TestVerification.to_dict()`` or a served report's ``tests``)."""
    return {
        "test": test["test"],
        "bug_found": test["bug_found"],
        "verified_by_cover": test["verified_by_cover"],
        "properties": len(test["properties"]),
        "proven": test["proven_count"],
        "modeled_hours": test["modeled_hours"],
    }


def check_verdicts(rows: Iterable[Mapping[str, Any]], golden) -> List[str]:
    """Every row's verdict columns equal the golden fixed-memory ones."""
    problems = []
    for row in rows:
        expected = golden.get(row["test"])
        if expected is None:
            problems.append(f"{row['test']}: not in the golden table")
            continue
        for field, column in GOLDEN_COLUMNS.items():
            if row[field] != expected[column]:
                problems.append(
                    f"{row['test']}: {field}={row[field]} but golden "
                    f"{column}={expected[column]}"
                )
    return problems


def check_suite(rows: List[Mapping[str, Any]], golden) -> List[str]:
    """The Figure 13/14 checks over all 56 suite rows."""
    problems = check_verdicts(rows, golden)
    names = sorted(row["test"] for row in rows)
    if names != sorted(golden) or len(rows) != SUITE_TESTS:
        problems.append(f"expected the {SUITE_TESTS} golden tests, got {len(rows)}")
        return problems
    total = sum(row["properties"] for row in rows)
    proven = sum(row["proven"] for row in rows)
    if (total, proven) != (PROPERTIES_TOTAL, PROPERTIES_PROVEN):
        problems.append(
            f"proved {proven} of {total} properties, expected "
            f"{PROPERTIES_PROVEN} of {PROPERTIES_TOTAL}"
        )
    mean = sum(row["modeled_hours"] for row in rows) / len(rows)
    if round(mean, 1) != MEAN_MODELED_HOURS:
        problems.append(
            f"mean modeled hours {mean:.3f}, expected {MEAN_MODELED_HOURS}"
        )
    return problems


def check_warm(cache_stats: Mapping[str, float]) -> List[str]:
    """A warm run answers every test from the verdict tier."""
    hits = cache_stats.get("cache.verdict.hits", 0)
    misses = cache_stats.get("cache.verdict.misses", 0)
    if (hits, misses) != (SUITE_TESTS, 0):
        return [
            f"warm run had {hits:.0f} verdict hits and {misses:.0f} misses, "
            f"expected {SUITE_TESTS} and 0"
        ]
    return []


def strip_timing(document: Any) -> Any:
    """``document`` without its timing fields: every key ending in
    ``seconds``, at any depth."""
    if isinstance(document, dict):
        return {
            key: strip_timing(value)
            for key, value in document.items()
            if not key.endswith("seconds")
        }
    if isinstance(document, list):
        return [strip_timing(value) for value in document]
    return document


def fuzz_digest(report: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON of ``report`` minus timing fields."""
    canonical = json.dumps(
        strip_timing(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, Dict[str, Any]]:
    """Recorded fuzz campaigns keyed by campaign seed (as a string)."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["campaigns"]


def check_fuzz(report: Mapping[str, Any], reference: Mapping[str, Any], problems_of) -> List[str]:
    """``problems_of`` is :func:`repro.difftest.validate_fuzz_report`;
    ``reference`` is the recorded entry for the report's seed."""
    problems = list(problems_of(report))
    if report["discrepancy_count"] != reference["discrepancies"]:
        problems.append(
            f"{report['discrepancy_count']} discrepancies, reference has "
            f"{reference['discrepancies']}"
        )
    if fuzz_digest(report) != reference["digest"]:
        problems.append("report digest differs from the reference campaign")
    return problems


def check_serve(jobs: List[Mapping[str, Any]], stats: Mapping[str, Any], golden) -> List[str]:
    """``jobs``: one entry per submission, ``{"test", "source",
    "state", "rows"}`` with the served report's suite rows;
    ``stats``: the server's ``/v1/stats`` document."""
    problems = []
    distinct = {job["test"] for job in jobs}
    for job in jobs:
        if job["state"] != "done":
            problems.append(f"job for {job['test']} ended {job['state']}")
            continue
        problems.extend(check_verdicts(job["rows"], golden))
    computed = sum(1 for job in jobs if job["source"] == "created")
    if computed != len(distinct):
        problems.append(f"{computed} computed jobs for {len(distinct)} distinct tests")
    counters, pool = stats["counters"], stats["pool"]
    if counters["failed"]:
        problems.append(f"server counted {counters['failed']} failed jobs")
    if pool["pools_spawned"] != 1:
        problems.append(f"{pool['pools_spawned']} worker pools spawned, expected 1")
    if pool["units_dispatched"] != len(distinct):
        problems.append(
            f"{pool['units_dispatched']} units dispatched for "
            f"{len(distinct)} distinct tests"
        )
    return problems
