"""Tests for the 56-test paper suite."""

import pytest

from repro.errors import LitmusError
from repro.litmus import (
    PAPER_TEST_NAMES,
    diy_cycle_of,
    get_test,
    paper_suite,
)
from repro.litmus import diy
from repro.litmus.suite import MAX_CORES, SuiteBuilder
from repro.memodel import sc_allowed


#: The generating cycle of every diy-built suite test.  Any change in
#: enumeration order or family selection shows up here as a readable
#: diff.
GENERATED_CYCLES = {
    "podwr000": ("PodRW", "PodWR", "Fre", "Rfe"),
    "podwr001": ("PodWR", "Fre", "PodWR", "Fre"),
    "rfi000": ("PodRR", "Fre", "Rfi", "PodRW", "Rfe"),
    "rfi001": ("PodRW", "PodWW", "Rfi", "Fre", "Rfe"),
    "rfi002": ("PodRW", "Rfi", "Fre", "PodWW", "Rfe"),
    "rfi003": ("PodRW", "Rfi", "PodRR", "Fre", "Rfe"),
    "rfi004": ("PodRW", "Rfi", "PodRW", "Wse", "Rfe"),
    "rfi005": ("PodRW", "Wse", "Rfi", "PodRW", "Rfe"),
    "rfi006": ("PodWR", "Fre", "PodWW", "Rfi", "Fre"),
    "rfi011": ("PodWW", "Rfi", "PodRR", "Fre", "Wse"),
    "rfi012": ("PodWW", "Wse", "Rfi", "PodRR", "Fre"),
    "rfi013": ("PodWW", "Wse", "Rfi", "PodRW", "Wse"),
    "rfi014": ("Rfi", "PodRW", "PodWR", "Fre", "Wse"),
    "rfi015": ("Fre", "PodWR", "Fre", "Rfi", "PodRW", "Rfe"),
    "safe000": ("PodRR", "Fre", "PodWW", "Rfe"),
    "safe001": ("PodRW", "PodWW", "Wse", "Rfe"),
    "safe002": ("PodRW", "Rfe", "PodRW", "Rfe"),
    "safe003": ("PodRW", "Wse", "PodWW", "Rfe"),
    "safe004": ("PodWW", "Wse", "PodWW", "Wse"),
    "safe006": ("Fre", "PodWW", "Wse", "PodWW", "Rfe"),
    "safe007": ("Fre", "Rfe", "PodRW", "PodWW", "Rfe"),
    "safe008": ("Fri", "PodWW", "Rfe", "PodRW", "Rfe"),
    "safe009": ("Fri", "PodWW", "Wse", "PodWW", "Rfe"),
    "safe010": ("Fri", "Rfe", "PodRW", "PodWW", "Rfe"),
    "safe011": ("PodRR", "Fre", "PodWW", "PodWW", "Rfe"),
    "safe012": ("PodRR", "Fre", "PodWW", "Wse", "Rfe"),
    "safe014": ("PodRR", "Fre", "Rfe", "PodRW", "Rfe"),
    "safe016": ("PodRR", "Fre", "Wsi", "PodWW", "Rfe"),
    "safe017": ("PodRR", "Fri", "PodWW", "Wse", "Rfe"),
    "safe018": ("PodRR", "Fri", "Rfe", "PodRW", "Rfe"),
    "safe019": ("PodRR", "Fri", "Wse", "PodWW", "Rfe"),
    "safe021": ("PodRW", "PodWW", "Rfe", "PodRW", "Rfe"),
    "safe022": ("PodRW", "PodWW", "Wse", "PodWW", "Rfe"),
    "safe026": ("PodRW", "Rfe", "PodRW", "Wse", "Rfe"),
    "safe027": ("PodRW", "Rfe", "PodRW", "Wsi", "Rfe"),
    "safe029": ("PodRW", "Wse", "PodWW", "Wse", "Rfe"),
    "safe030": ("PodRW", "Wse", "PodWW", "Wsi", "Rfe"),
}


@pytest.fixture(scope="module")
def suite():
    return paper_suite()


class TestSuiteShape:
    def test_exactly_56_tests(self, suite):
        assert len(suite) == 56
        assert len(PAPER_TEST_NAMES) == 56

    def test_paper_name_order(self, suite):
        assert [t.name for t in suite] == PAPER_TEST_NAMES

    def test_family_counts(self):
        rfi = [n for n in PAPER_TEST_NAMES if n.startswith("rfi")]
        safe = [n for n in PAPER_TEST_NAMES if n.startswith("safe")]
        podwr = [n for n in PAPER_TEST_NAMES if n.startswith("podwr")]
        assert len(rfi) == 12
        assert len(safe) == 23
        assert len(podwr) == 2

    def test_all_tests_fit_on_four_cores(self, suite):
        for test in suite:
            assert 1 <= test.num_threads <= MAX_CORES

    def test_all_tests_compile(self, suite):
        from repro.litmus import compile_test

        for test in suite:
            compiled = compile_test(test)
            assert len(compiled.programs) == 4

    def test_names_unique(self, suite):
        names = [t.name for t in suite]
        assert len(names) == len(set(names))

    def test_get_test_roundtrip(self, suite):
        for test in suite:
            assert get_test(test.name) is test

    def test_get_test_unknown(self):
        with pytest.raises(LitmusError):
            get_test("nonexistent")


class TestGeneratedFamilies:
    def test_generated_tests_record_their_cycle(self, suite):
        for test in suite:
            cycle = diy_cycle_of(test.name)
            if test.name.startswith(("rfi", "safe", "podwr")):
                assert cycle is not None
            else:
                assert cycle is None

    def test_rfi_tests_contain_rfi_edge(self, suite):
        for test in suite:
            if test.name.startswith("rfi"):
                assert "Rfi" in diy_cycle_of(test.name)

    def test_safe_tests_avoid_tso_relaxations(self, suite):
        for test in suite:
            if test.name.startswith("safe"):
                cycle = diy_cycle_of(test.name)
                assert "Rfi" not in cycle
                assert "PodWR" not in cycle

    def test_podwr_tests_contain_podwr(self, suite):
        for test in suite:
            if test.name.startswith("podwr"):
                assert "PodWR" in diy_cycle_of(test.name)

    def test_generated_cycles_are_pinned(self, suite):
        generated = {
            test.name: diy_cycle_of(test.name)
            for test in suite
            if diy_cycle_of(test.name) is not None
        }
        assert generated == GENERATED_CYCLES

    def test_build_validates_few_cycles(self, monkeypatch):
        """Suite construction extends cycles along type-chained edges;
        filtering the full edge product validated 553,278 candidates."""
        calls = []
        validate = diy.validate_cycle

        def counting(cycle):
            calls.append(cycle)
            return validate(cycle)

        monkeypatch.setattr(diy, "validate_cycle", counting)
        SuiteBuilder().build()
        assert 0 < len(calls) <= 10_000

    def test_generated_outcomes_are_sc_forbidden(self, suite):
        for test in suite:
            if diy_cycle_of(test.name) is not None:
                assert not sc_allowed(test), test.name


class TestOracleClassification:
    def test_verdict_snapshot(self, suite):
        """The suite contains exactly three SC-allowed candidate
        outcomes (iwp24's one-thread-first interleaving, n5's
        read-own-store, and amd3's 2+2W observation); everything else
        is forbidden — the shape RTLCheck's covering-trace shortcut
        depends on."""
        allowed = sorted(t.name for t in suite if sc_allowed(t))
        assert allowed == ["amd3", "iwp24", "n5"]

    def test_every_load_value_is_pinned(self, suite):
        """Check-mode omniscient evaluation needs every load's value in
        the outcome."""
        for test in suite:
            outs = {op.out for thread in test.threads for op in thread if op.is_load}
            assert outs <= set(test.outcome.register_map), test.name
