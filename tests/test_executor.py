"""The campaign executor (`repro.executor`) and the one crash contract
``suite``, ``fuzz`` and ``serve`` share.

The contract, for a unit whose every attempt crashed: the other units
finish, the crashed unit is not checkpointed as done (a resumed run
recomputes exactly it), and then ``fuzz`` records a ``crashed`` oracle
error, ``suite`` raises :class:`UnitCrashed` naming the test, and a
served job fails while the server keeps serving.  A unit that crashes
once is retried and leaves no trace in the report.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import RTLCheck, get_test, obs
from repro.cache import VerificationCache
from repro.difftest import FuzzConfig, FuzzGenerator, run_fuzz
from repro.errors import ReproError
from repro.executor import CRASH_ENV, CRASH_RETRIES, Executor, UnitCrashed, run_units

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def canonical(document):
    return json.dumps(document, sort_keys=True)


def scrub(document, run_relative=()):
    """``document`` without its wall-clock ``*seconds*`` fields and the
    ``run_relative`` keys."""
    if isinstance(document, dict):
        return {
            key: scrub(value, run_relative)
            for key, value in document.items()
            if "seconds" not in key and key not in run_relative
        }
    if isinstance(document, list):
        return [scrub(item, run_relative) for item in document]
    return document


# ---------------------------------------------------------------------------
# The executor on its own.
# ---------------------------------------------------------------------------


def _square(unit):
    return unit * unit


def _die_once(unit):
    """Unit body whose worker dies hard (no exception, no cleanup) the
    first time it runs unit ``"b"``; the marker file arms it.  The
    other units take a moment, so some are pending when the pool
    breaks and fail with it."""
    name, marker = unit
    if name == "b":
        try:
            os.unlink(marker)
        except FileNotFoundError:
            pass
        else:
            os._exit(1)
    time.sleep(0.2)
    return name.upper()


@pytest.mark.parametrize("jobs", [0, -1, 1.5, True, "2"])
def test_jobs_below_one_or_not_an_int_is_rejected(jobs):
    with pytest.raises(ReproError, match="jobs must be"):
        Executor(jobs)
    with pytest.raises(ReproError, match="jobs must be"):
        list(run_units(_square, [1, 2], jobs))


def test_pool_is_lazy_and_spawn_started():
    with Executor(2) as executor:
        assert list(executor.map(_square, [])) == []
        assert executor.counters["pools_spawned"] == 0
        assert dict(executor.map(_square, [2, 3])) == {0: 4, 1: 9}
        assert executor._pool._mp_context.get_start_method() == "spawn"
        # The pool is reused, not respawned, by a second map.
        assert dict(executor.map(_square, [4])) == {0: 16}
    assert executor.counters == {
        "pools_spawned": 1,
        "units_dispatched": 3,
        "unit_retries": 0,
        "pools_broken": 0,
    }


def test_hard_worker_death_rebuilds_the_pool_and_every_unit_returns(tmp_path):
    marker = tmp_path / "die-once"
    marker.write_text("armed")
    units = [(name, str(marker)) for name in "abcd"]
    with Executor(2) as executor:
        outcomes = dict(executor.map(_die_once, units, label=lambda u: u[0]))
    assert not marker.exists(), "the worker death must have happened"
    assert outcomes == {0: "A", 1: "B", 2: "C", 3: "D"}
    assert executor.counters["pools_broken"] == 1
    assert executor.counters["pools_spawned"] == 2
    # b and the units that failed with the pool were each retried once.
    assert executor.counters["unit_retries"] >= 2


def test_in_process_units_share_the_retry_loop_and_hook(tmp_path, monkeypatch):
    marker = tmp_path / "crash-once"
    marker.write_text("armed")
    monkeypatch.setenv(CRASH_ENV, f"3:{marker}")
    assert dict(run_units(_square, [2, 3], 1)) == {0: 4, 1: 9}
    assert not marker.exists()
    monkeypatch.setenv(CRASH_ENV, "3")
    outcomes = dict(run_units(_square, [2, 3], 1))
    assert outcomes[0] == 4
    assert isinstance(outcomes[1], UnitCrashed)
    assert outcomes[1].label == "3"
    assert f"all {CRASH_RETRIES + 1} attempts" in str(outcomes[1])


def test_shut_down_executor_refuses_work():
    executor = Executor(1)
    executor.shutdown()
    with pytest.raises(ReproError, match="shut down"):
        list(executor.map(_square, [1]))


# ---------------------------------------------------------------------------
# The crash-contract matrix: suite, fuzz at jobs 1 and 2, and serve.
# ---------------------------------------------------------------------------

SUITE_TESTS = ["mp", "lb"]
FUZZ_SEED, FUZZ_BUDGET = 11, 3
FUZZ_ORACLES = ("operational", "axiomatic")


# Each entry point's runner returns ``(report or None, crash error or
# None, units resumed from the checkpoint, units computed afresh)``.


def _suite_run(cache_dir):
    """``verify_suite(jobs=2)``, reported as the CLI reports it."""
    rtlcheck = RTLCheck(cache=VerificationCache(cache_dir))
    tests = [get_test(name) for name in SUITE_TESTS]
    resumed = rtlcheck.suite_checkpoint(tests, "fixed").resumed
    try:
        results = rtlcheck.verify_suite(tests, jobs=2)
    except UnitCrashed as exc:
        return None, str(exc), resumed, None
    report = obs.suite_report(results, jobs=None)
    return report, None, resumed, rtlcheck.cache.stats.get("cache.verdict.puts")


def _fuzz_run(jobs):
    def run(cache_dir):
        result = run_fuzz(
            FuzzConfig(
                seed=FUZZ_SEED,
                budget=FUZZ_BUDGET,
                oracles=FUZZ_ORACLES,
                jobs=jobs,
                shrink=False,
                cache_dir=str(cache_dir),
            )
        )
        crashed = [e for e in result.oracle_errors if e.get("crashed")]
        error = crashed[0]["test"] + ": " + crashed[0]["error"] if crashed else None
        # Every judged test stores one outcome set per oracle.
        computed = result.cache_stats.get("cache.oracle.puts", 0) / len(FUZZ_ORACLES)
        return result.report(), error, result.resumed, computed

    return run


def _serve_run(cache_dir):
    from repro.serve import ServeClient, ThreadedServer

    spec = {"kind": "suite", "params": {"tests": SUITE_TESTS}}
    with ThreadedServer(cache_dir=str(cache_dir), jobs=2) as ts:
        client = ServeClient("127.0.0.1", ts.port, timeout=300)
        key = client.submit(spec)["job"]
        final = client.wait(key, timeout=300)
        # A failed job never takes the server down.
        assert client.healthz()["status"] == "ok"
        stats = final["stats"]
        if final["state"] == "failed":
            return None, final["error"], stats["resumed"], None
        assert stats["units_total"] == len(SUITE_TESTS)
        assert stats["units_cached"] == stats["resumed"]
        report = client.report(key)
        return report, None, stats["resumed"], stats["cache"]["cache.verdict.puts"]


FUZZ_VICTIM = FuzzGenerator(FUZZ_SEED).suite(FUZZ_BUDGET)[1].name

#: entry point -> (runner, the unit the crash tests crash)
ENTRY_POINTS = {
    "suite": (_suite_run, SUITE_TESTS[1]),
    "fuzz-jobs1": (_fuzz_run(1), FUZZ_VICTIM),
    "fuzz-jobs2": (_fuzz_run(2), FUZZ_VICTIM),
    "serve": (_serve_run, SUITE_TESTS[1]),
}


def _clean_report(entry, cache_dir):
    if entry.startswith("fuzz"):
        return ENTRY_POINTS[entry][0](cache_dir)[0]
    # The served report is the CLI's by construction: both compare
    # against an uninjected serial run.
    rtlcheck = RTLCheck(cache=VerificationCache(cache_dir))
    return obs.suite_report(
        rtlcheck.verify_suite([get_test(name) for name in SUITE_TESTS]),
        jobs=None,
    )


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestCrashContract:
    def test_one_shot_crash_is_retried_and_leaves_no_trace(
        self, entry, tmp_path, monkeypatch
    ):
        clean = _clean_report(entry, tmp_path / "clean")
        marker = tmp_path / "crash-once"
        marker.write_text("armed")
        monkeypatch.setenv(CRASH_ENV, f"{ENTRY_POINTS[entry][1]}:{marker}")
        report, error, _resumed, _computed = ENTRY_POINTS[entry][0](
            tmp_path / "injected"
        )
        assert not marker.exists(), "the injected crash must have fired"
        assert error is None
        assert canonical(scrub(report)) == canonical(scrub(clean))

    def test_persistent_crash_is_contained(self, entry, tmp_path, monkeypatch):
        victim = ENTRY_POINTS[entry][1]
        monkeypatch.setenv(CRASH_ENV, victim)
        report, error, _resumed, _computed = ENTRY_POINTS[entry][0](tmp_path)
        assert victim in error
        if entry.startswith("fuzz"):
            # The campaign keeps going: the other tests are judged, the
            # report format is unchanged.
            from repro.difftest import validate_fuzz_report

            assert validate_fuzz_report(report) == []
            assert report["tests_run"] == FUZZ_BUDGET
            assert report["skipped"]["worker_crashed"] == 1
            assert [e["test"] for e in report["oracle_errors"]] == [victim]
        else:
            assert report is None
            assert f"all {CRASH_RETRIES + 1} attempts" in error

    def test_resumed_run_recomputes_only_the_crashed_unit(
        self, entry, tmp_path, monkeypatch
    ):
        units = FUZZ_BUDGET if entry.startswith("fuzz") else len(SUITE_TESTS)
        monkeypatch.setenv(CRASH_ENV, ENTRY_POINTS[entry][1])
        ENTRY_POINTS[entry][0](tmp_path / "cache")
        monkeypatch.delenv(CRASH_ENV)
        report, error, resumed, computed = ENTRY_POINTS[entry][0](
            tmp_path / "cache"
        )
        assert error is None
        assert (resumed, computed) == (units - 1, 1)
        # Cache statistics and the resume count are run-relative.
        clean = _clean_report(entry, tmp_path / "clean")
        assert canonical(scrub(report, ("cache", "resumed"))) == canonical(
            scrub(clean, ("cache", "resumed"))
        )


# ---------------------------------------------------------------------------
# The CLI end to end, in a subprocess (workers spawn from `python -m`).
# ---------------------------------------------------------------------------


def _cli_suite(tmp_path, hook):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env[CRASH_ENV] = hook
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "suite", "--only", "mp", "sb",
            "iwp24", "--jobs", "2", "--no-cache",
        ],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_cli_suite_one_shot_crash_exits_zero(tmp_path):
    marker = tmp_path / "crash-once"
    marker.write_text("armed")
    run = _cli_suite(tmp_path, f"sb:{marker}")
    assert run.returncode == 0, run.stderr
    assert not marker.exists(), "the injected crash must have fired"
    assert run.stdout.count("verified") == 3


def test_cli_suite_persistent_crash_exits_two_naming_the_test(tmp_path):
    run = _cli_suite(tmp_path, "sb")
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: unit 'sb' crashed")
    assert "Traceback" not in run.stderr
