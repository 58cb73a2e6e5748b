"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload suite-cold [--seed 0] [--seconds 5] [--trace 0|1]

Run from the root of a checkout.  Every iteration is a fresh
interpreter (``perfbench/workloads.py``) that checks its outputs
before it reports; iterations repeat until ``--seconds`` have passed
(at least one), and extra set-up-only interpreters bring the set-up
samples to :data:`SETUP_SAMPLES`.  ``--trace 1`` instead runs one
untraced and one traced iteration and reports the per-layer split.
The last line of standard output is the JSON result; a failed check or
a missing ``src/`` exits non-zero without one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per run; their median is ``setup_s``.
SETUP_SAMPLES = 3
#: A run gives up (and fails) when its interpreters pass this budget.
RUN_DEADLINE_S = 170.0
WORK = os.path.join(ROOT, ".perfbench")


class BenchError(Exception):
    """A run that must exit non-zero without reporting."""


def _source_digest() -> str:
    """Digest of ``src/``: names the warm-cache fill, so a fill made by
    other code is never reused."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".uspec")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int) -> None:
    """Wait until every process of the iteration's session has ended
    (spawned pool workers and the resource tracker included)."""
    deadline = time.monotonic() + 30
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _group_alive(pgid):
        os.killpg(pgid, signal.SIGKILL)
        while _group_alive(pgid):
            time.sleep(0.05)


class Runner:
    def __init__(self, workload: str, seed: int, fuzz_seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.fuzz_seed = fuzz_seed
        self.deadline = deadline
        self.fresh = 0
        self.logs = os.path.join(WORK, "logs")
        self.runs = os.path.join(WORK, "runs")
        self.tmp = os.path.join(WORK, "tmp")
        for folder in (self.logs, self.runs, self.tmp):
            os.makedirs(folder, exist_ok=True)

    def child(self, cache: str, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one iteration in a fresh interpreter; its checked result."""
        kind = "traced" if trace else "setup" if setup_only else "run"
        out = os.path.join(self.runs, f"{self.workload}-seed{self.seed}-{kind}.json")
        if os.path.exists(out):
            os.remove(out)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["TMPDIR"] = self.tmp
        env["REPRO_CACHE_DIR"] = os.path.join(WORK, "default-cache")
        log_path = os.path.join(self.logs, f"{self.workload}.log")
        spawned = time.monotonic()
        command = [
            sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--fuzz-seed", str(self.fuzz_seed),
            "--cache", cache, "--spawned", repr(spawned), "--out", out,
        ]
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        with open(log_path, "w") as log:
            process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                code = process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _reap_group(process.pid)
                if process.poll() is None:
                    process.wait()
                # Flush this iteration's cache writes so their writeback
                # does not land in the next interpreter's measurement.
                os.sync()
        if code != 0 or not os.path.exists(out):
            with open(log_path) as log:
                tail = log.read()[-4000:]
            reason = "timed out" if code is None else f"exited {code}"
            raise BenchError(f"{self.workload} iteration {reason}:\n{tail}")
        with open(out) as handle:
            return json.load(handle)

    def cache_dir(self) -> str:
        """The cache an iteration runs against: the warm fill, or a new
        empty directory (cold suite, served jobs; unused by fuzz)."""
        if self.workload == "suite-warm":
            return self.warm_fill()
        self.fresh += 1
        path = os.path.join(WORK, f"cache-{self.workload}-{self.fresh}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def cleanup(self) -> None:
        for name in os.listdir(WORK):
            if name.startswith("cache-"):
                shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
        os.sync()

    def warm_fill(self) -> str:
        """A cache filled by one untimed cold suite run of this code;
        kept across runs of the checkout (named by the source digest)."""
        path = os.path.join(WORK, f"warm-{_source_digest()}")
        marker = os.path.join(path, "filled")
        if not os.path.exists(marker):
            for stale in os.listdir(WORK):
                if stale.startswith("warm-"):
                    shutil.rmtree(os.path.join(WORK, stale), ignore_errors=True)
            os.makedirs(path)
            saved, self.workload = self.workload, "suite-cold"
            try:
                self.child(path)
            finally:
                self.workload = saved
            with open(marker, "w") as handle:
                handle.write("filled by one cold suite run\n")
        return path


def unit_stats(sample: dict) -> dict:
    """Throughput and per-unit latency of one iteration: median and
    the tail percentile with its sample count."""
    latencies = sample["latencies"]
    tail = tail_percentile(len(latencies))
    return {
        "run.units_per_s": sample["attempted"] / (sample["wall_s"] - sample["setup_s"]),
        "run.unit_p50_s": percentile(latencies, 50),
        "run.unit_tail_s": percentile(latencies, tail),
        "run.unit_tail_pct": tail,
        "run.unit_samples": len(latencies),
    }


def _declared(kind: str) -> list:
    """The ``end_to_end`` or ``per_layer`` metrics ``BENCHMARK.json``
    declares: names and units live there only."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def end_to_end(samples: list, setups: list) -> dict:
    """Medians over the iterations of each end-to-end metric."""
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sample["wall_s"] for sample in samples),
        "peak_rss_mb": statistics.median(sample["peak_rss_mb"] for sample in samples),
    }
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in _declared("end_to_end")
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """The traced iteration's per-layer metrics plus the untraced
    iteration's per-unit latencies and the tracing overhead; every
    metric ``BENCHMARK.json`` names (0 for a layer the workload never
    enters)."""
    layers = dict(traced["layers"])
    layers.update(unit_stats(untraced))
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {
        metric["name"]: {"value": float(layers.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in _declared("per_layer")
    }


def run(workload: str, seed: int, fuzz_seed: int, seconds: float, trace: bool) -> dict:
    for required in ("src/repro/__init__.py", "tests/fixtures/golden_verdicts.json", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise BenchError(f"{required} is missing: run from a full checkout")
    runner = Runner(workload, seed, fuzz_seed, deadline=time.monotonic() + RUN_DEADLINE_S)
    try:
        if workload == "suite-warm":
            runner.warm_fill()
        samples = []
        if trace:
            # One untraced iteration for the overhead and the per-unit
            # latencies, then the traced one.
            samples.append(runner.child(runner.cache_dir()))
            traced = runner.child(runner.cache_dir(), trace=True)
            metrics = per_layer(samples[0], traced)
        else:
            start = time.monotonic()
            while not samples or time.monotonic() - start < seconds:
                samples.append(runner.child(runner.cache_dir()))
            setups = [sample["setup_s"] for sample in samples]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.child(runner.cache_dir(), setup_only=True)["setup_s"])
            metrics = end_to_end(samples, setups)
    finally:
        runner.cleanup()
    return {
        "correct": True,
        "attempted": sum(sample["attempted"] for sample in samples),
        "failed": sum(sample["failed"] for sample in samples),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed: the serve submission order")
    parser.add_argument(
        "--fuzz-seed", type=int, default=None,
        help="fuzz campaign seed (default: --seed); BENCHMARK.json pins it to 0",
    )
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fuzz_seed = args.seed if args.fuzz_seed is None else args.fuzz_seed
        result = run(args.workload, args.seed, fuzz_seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
