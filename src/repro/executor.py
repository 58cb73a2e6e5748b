"""The one campaign executor: how ``suite``, ``fuzz`` and ``serve`` fan
out their independent units (one litmus test of a suite run, one
generated test of a fuzz campaign).

:func:`run_units` is the only fan-out in the package.  ``jobs == 1``
runs the units in this process; ``jobs > 1`` runs them on a temporary
:class:`Executor`; a shared :class:`Executor` (the job server's) always
dispatches, even a single unit.  Wherever a unit runs, an exception
from it, or the hard death of its worker, is retried
:data:`CRASH_RETRIES` times (on the pool when there is one, never in
the parent).  A unit whose every attempt failed comes back as a
:class:`UnitCrashed` value in place of its result, and each caller
renders it under one contract: the other units finish and the crashed
one is not checkpointed as done, then ``fuzz`` records a ``crashed``
oracle error, ``suite`` raises the :class:`UnitCrashed`, and a served
job fails without the server.

The tests inject crashes through :data:`CRASH_ENV`: ``<unit>`` crashes
every attempt of that unit, ``<unit>:<marker>`` only while the file
``<marker>`` exists (the attempt deletes it).  It is read in the parent
at dispatch, so a long-lived pool sees its current value.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.errors import ReproError

#: Attempts a unit gets after its first one crashed.
CRASH_RETRIES = 1

#: The crash-injection hook (see the module docstring).
CRASH_ENV = "REPRO_CRASH_UNIT"


class UnitCrashed(ReproError):
    """A unit whose every attempt crashed.  :func:`run_units` yields it
    in place of the unit's result; ``verify_suite`` raises it."""

    def __init__(self, label: str, error: str):
        super().__init__(
            f"unit {label!r} crashed in all {CRASH_RETRIES + 1} "
            f"attempts: {error}"
        )
        self.label = label
        self.error = error


def check_jobs(jobs: Any) -> int:
    """``jobs`` if it is a worker count (an int >= 1); else raise."""
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ReproError(f"jobs must be an integer >= 1, got {jobs!r}")
    return jobs


def _attempt(fn: Callable[[Any], Any], unit: Any, label: str, hook: Optional[str]) -> Any:
    """One attempt of ``fn(unit)``, behind the crash hook (module-level
    so it pickles into pool workers)."""
    target, _, marker = (hook or "").partition(":")
    if hook and target == label:
        if marker:
            try:
                os.unlink(marker)
            except FileNotFoundError:
                return fn(unit)
        raise RuntimeError(f"injected crash on {label}")
    return fn(unit)


class Executor:
    """A lazily created process pool of ``jobs`` workers, shared safely
    across threads and rebuilt after a worker's hard death
    (``BrokenProcessPool``).

    ``counters`` counts pools spawned, attempts dispatched, retries,
    and pools broken; the job server reports them under ``pool`` in
    ``/v1/stats``.
    """

    def __init__(self, jobs: int):
        self.jobs = check_jobs(jobs)
        self.counters: Dict[str, int] = dict.fromkeys(
            ("pools_spawned", "units_dispatched", "unit_retries", "pools_broken"),
            0,
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _submit(self, fn, unit, label, hook) -> Tuple[Future, ProcessPoolExecutor]:
        """Dispatch one attempt; returns its future and the pool it went
        to (a pool that broke under the submit yields a failed future)."""
        with self._lock:
            if self._closed:
                raise ReproError("the executor has been shut down")
            if self._pool is None:
                # Workers MUST be spawn-started: the job server creates
                # its pool while client connections are open, and a
                # fork-started worker inherits duplicates of every open
                # socket, which keep a streamed HTTP response alive
                # after the server closes it (the client never sees
                # EOF).  Spawn re-executes the interpreter instead.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("spawn"),
                )
                self.counters["pools_spawned"] += 1
            pool = self._pool
            self.counters["units_dispatched"] += 1
            try:
                return pool.submit(_attempt, fn, unit, label, hook), pool
            except BrokenProcessPool as exc:
                future: Future = Future()
                future.set_exception(exc)
                return future, pool

    def _broken(self, pool: ProcessPoolExecutor) -> None:
        """Drop ``pool`` after a worker died in it, once however many
        of its futures report the break; the next dispatch rebuilds."""
        with self._lock:
            if self._pool is not pool:
                return
            self._pool = None
            self.counters["pools_broken"] += 1
        pool.shutdown(wait=False)

    def map(
        self,
        fn: Callable[[Any], Any],
        units: Iterable[Any],
        label: Callable[[Any], str] = str,
    ) -> Iterator[Tuple[int, Any]]:
        """Run ``fn(unit)`` for every unit on the pool, yielding
        ``(index, outcome)`` in completion order; see :func:`run_units`."""
        hook = os.environ.get(CRASH_ENV)
        units = list(units)
        labels = [label(unit) for unit in units]
        attempts: Dict[Future, Tuple[int, int, ProcessPoolExecutor]] = {}
        for index, unit in enumerate(units):
            future, pool = self._submit(fn, unit, labels[index], hook)
            attempts[future] = (index, 0, pool)
        try:
            while attempts:
                done, _ = wait(attempts, return_when=FIRST_COMPLETED)
                for future in done:
                    index, attempt, pool = attempts.pop(future)
                    error = future.exception()
                    if error is None:
                        yield index, future.result()
                        continue
                    if isinstance(error, BrokenProcessPool):
                        self._broken(pool)
                    if attempt < CRASH_RETRIES:
                        with self._lock:
                            self.counters["unit_retries"] += 1
                        future, pool = self._submit(
                            fn, units[index], labels[index], hook
                        )
                        attempts[future] = (index, attempt + 1, pool)
                    else:
                        yield index, UnitCrashed(labels[index], repr(error))
        finally:
            for future in attempts:
                future.cancel()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; queued attempts are cancelled.  ``wait=False``
        returns without waiting for running attempts."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)


def run_units(
    fn: Callable[[Any], Any],
    units: Iterable[Any],
    jobs: Union[int, Executor] = 1,
    label: Callable[[Any], str] = str,
) -> Iterator[Tuple[int, Any]]:
    """Run ``fn(unit)`` for every unit and yield ``(index, outcome)``
    as each finishes (completion order; ``index`` is the unit's
    position in ``units``).

    ``fn`` and the units must pickle when the units go to a pool (a
    module-level function, or a ``functools.partial`` of one).  The
    outcome is ``fn``'s return value, or a :class:`UnitCrashed` for a
    unit whose every attempt raised; ``label(unit)`` names the unit in
    that error and in the crash hook.
    """
    if isinstance(jobs, Executor):
        yield from jobs.map(fn, units, label)
    elif check_jobs(jobs) > 1:
        with Executor(jobs) as executor:
            yield from executor.map(fn, units, label)
    else:
        hook = os.environ.get(CRASH_ENV)
        for index, unit in enumerate(units):
            name = label(unit)
            for _ in range(CRASH_RETRIES + 1):
                try:
                    outcome = _attempt(fn, unit, name, hook)
                    break
                except Exception as exc:
                    outcome = UnitCrashed(name, repr(exc))
            yield index, outcome
