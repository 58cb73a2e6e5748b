"""Nested-tuple snapshots: the reference oracle for the slot encoding.

Product designs snapshot to interned flat slot vectors
(:mod:`repro.rtl.design`).  The designs here are the same designs with
the original representation instead — each snapshot a nested tuple of
the components' registers, each restore an unpack — and the generic
per-input :meth:`~repro.rtl.design.Design.step_batch` loop in place of
any batched expansion.  Two states are equal here exactly when they are
equal architecturally, so reach graphs, verdicts, and counterexamples
built on these designs must match the product's bit for bit.

The ``dict_*_factory`` callables are module-level, so an
:class:`~repro.core.rtlcheck.RTLCheck` using them still pickles.
"""

from __future__ import annotations

from typing import Hashable

from repro.rtl.design import Design
from repro.vscale.memory import BuggyMemory
from repro.vscale.soc import MultiVScale
from repro.vscale.tso import MultiVScaleTSO


def core_snapshot(core) -> Hashable:
    return (
        core.pc_if, core.fetch_stop,
        core.dx_valid, core.dx_word, core.dx_pc,
        core.wb_valid, core.wb_pc, core.wb_type, core.wb_store_data,
        core.wb_load_dest, core.wb_is_halt, core.wb_writes_reg,
        core.wb_alu, core.wb_mem_addr, core.halted, tuple(core.regs),
    )


def core_restore(core, state: Hashable) -> None:
    (
        core.pc_if, core.fetch_stop,
        core.dx_valid, core.dx_word, core.dx_pc,
        core.wb_valid, core.wb_pc, core.wb_type, core.wb_store_data,
        core.wb_load_dest, core.wb_is_halt, core.wb_writes_reg,
        core.wb_alu, core.wb_mem_addr, core.halted, regs,
    ) = state
    core.regs = list(regs)


def memory_snapshot(memory) -> Hashable:
    state = (tuple(sorted(memory.array.items())), memory.pending)
    if isinstance(memory, BuggyMemory):
        state += (memory.wvalid, memory.waddr, memory.wdata)
    return state


def memory_restore(memory, state: Hashable) -> None:
    array, memory.pending = state[:2]
    memory.array = dict(array)
    if isinstance(memory, BuggyMemory):
        memory.wvalid, memory.waddr, memory.wdata = state[2:]


class NestedTupleState:
    """Mixin: nested-tuple snapshots and per-input expansion in place
    of interned slot vectors and batched expansion."""

    step_batch = Design.step_batch

    def _components(self) -> Hashable:
        raise NotImplementedError

    def _restore_components(self, state: Hashable) -> None:
        raise NotImplementedError

    def snapshot(self) -> Hashable:
        return (
            tuple(core_snapshot(core) for core in self.cores),
            (self.arbiter.cur_core, self.arbiter.prev_core),
        ) + self._components()

    def restore(self, state: Hashable) -> None:
        core_states, arbiter_state = state[:2]
        for core, core_state in zip(self.cores, core_states):
            core_restore(core, core_state)
        self.arbiter.cur_core, self.arbiter.prev_core = arbiter_state
        self._restore_components(state[2:])


class DictMultiVScale(NestedTupleState, MultiVScale):
    def _components(self) -> Hashable:
        return (memory_snapshot(self.memory),)

    def _restore_components(self, state: Hashable) -> None:
        memory_restore(self.memory, state[0])
        self._pending_tick = None


class DictMultiVScaleTSO(NestedTupleState, MultiVScaleTSO):
    def _components(self) -> Hashable:
        return (
            tuple(sorted(self.array.items())),
            tuple(tuple(buf) for buf in self.buffers),
            self.pending,
        )

    def _restore_components(self, state: Hashable) -> None:
        array, buffers, self.pending = state
        self.array = dict(array)
        self.buffers = [list(buf) for buf in buffers]
        self._tick_plan = None


def dict_multi_vscale_factory(compiled, variant):
    """:class:`~repro.core.rtlcheck.RTLCheck` design factory for the
    SC design on nested-tuple snapshots."""
    return DictMultiVScale(compiled, variant)


def dict_multi_vscale_tso_factory(compiled, variant):
    """The TSO counterpart ("buggy" selects the LIFO drain, as in
    ``RTLCheck.for_tso``)."""
    drain = "lifo" if variant == "buggy" else "fifo"
    return DictMultiVScaleTSO(compiled, drain_order=drain)
