"""Shared fixtures for the paper-reproduction benchmark harness.

``suite_results`` runs RTLCheck over the full 56-test suite under both
Table-1 engine configurations exactly once per session; the per-figure
benchmarks aggregate it into the paper's tables and figures.  Rendered
tables are written under ``benchmarks/results/``.

The repository root goes on ``sys.path`` so benchmarks can time the
reference oracles in ``tests/reference/`` against the product paths.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro import CONFIGS, RTLCheck, paper_suite

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def suite():
    return paper_suite()


@pytest.fixture(scope="session")
def suite_results(suite):
    """{config name: {test name: TestVerification}} on the fixed design."""
    results = {}
    for name, config in CONFIGS.items():
        rtlcheck = RTLCheck(config=config)
        results[name] = {
            test.name: rtlcheck.verify_test(test) for test in suite
        }
    return results


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_table(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text)
    print(f"\n{text}")
