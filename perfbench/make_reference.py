"""Record the reference digests the ``fuzz-buggy`` output check uses.

Run from the repository root after a change that is meant to alter
fuzz reports (and only then)::

    PYTHONPATH=src python3 perfbench/make_reference.py 0 1 2 3

Each seed runs the workload's campaign (budget 20, buggy memory, all
five oracles, no cache, one job) and stores the digest of its report
minus timing fields, with its discrepancy count and failed-unit count,
in ``perfbench/reference/fuzz_digests.json``.  Existing entries for
other seeds are kept.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import REFERENCE_PATH, fuzz_digest  # noqa: E402
from workloads import FUZZ_BUDGET, fuzz_config, fuzz_failures  # noqa: E402


def main(argv) -> int:
    from repro.difftest import run_fuzz, validate_fuzz_report

    seeds = [int(arg) for arg in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    document = {"budget": FUZZ_BUDGET, "memory_variant": "buggy", "campaigns": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as handle:
            document = json.load(handle)
    for seed in seeds:
        start = time.monotonic()
        report = run_fuzz(fuzz_config(seed)).report()
        problems = validate_fuzz_report(report)
        if problems:
            print(f"seed {seed}: invalid report: {problems}", file=sys.stderr)
            return 1
        document["campaigns"][str(seed)] = {
            "digest": fuzz_digest(report),
            "discrepancies": report["discrepancy_count"],
            "failed": fuzz_failures(report),
        }
        print(
            f"seed {seed}: {report['discrepancy_count']} discrepancies, "
            f"{fuzz_failures(report)} failed, {time.monotonic() - start:.1f}s",
            flush=True,
        )
        os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
        with open(REFERENCE_PATH, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
