"""A SystemVerilog Assertions (SVA) subset.

This models the fragment RTLCheck generates (paper §4): boolean
expressions over design signals, sequences built from boolean cycles,
``##1`` concatenation and ``[*m:n]`` repetition (including unbounded
``$``), sequence/property ``and`` / ``or``, overlapping implication
``|->``, and ``assert`` / ``assume property`` directives clocked on
``posedge clk``.

Every node knows how to emit itself as SystemVerilog text (so the tool
produces real ``.sv`` output, Figures 8/10) and how to evaluate /
compile itself for the trace monitor in :mod:`repro.sva.monitor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.errors import SvaError
from repro.rtl.design import Frame

# ---------------------------------------------------------------------------
# Boolean expressions over a cycle's signals
# ---------------------------------------------------------------------------


class BoolExpr:
    """Base class for single-cycle boolean expressions."""

    def emit(self) -> str:
        raise NotImplementedError

    def evaluate(self, frame: Frame) -> bool:
        raise NotImplementedError

    def signals(self) -> FrozenSet[str]:
        """Names of the frame signals :meth:`evaluate` reads.  Two
        frames that agree on these evaluate identically, which is what
        lets the graph explorer memoize monitor steps per letter; a
        node type that does not declare its reads must not be memoized,
        so the base class refuses."""
        raise SvaError(
            f"{type(self).__name__} does not declare the signals it reads"
        )


@dataclass(frozen=True)
class BConst(BoolExpr):
    value: bool

    def emit(self) -> str:
        return "1'b1" if self.value else "1'b0"

    def evaluate(self, frame: Frame) -> bool:
        return self.value

    def signals(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(frozen=True)
class Sig(BoolExpr):
    """A signal used as a boolean (non-zero = true)."""

    name: str

    def emit(self) -> str:
        return self.name

    def evaluate(self, frame: Frame) -> bool:
        return bool(frame.get(self.name, 0))

    def signals(self) -> FrozenSet[str]:
        return frozenset((self.name,))


@dataclass(frozen=True)
class SigEq(BoolExpr):
    """``signal == 32'd<value>``."""

    name: str
    value: int
    width: int = 32

    def emit(self) -> str:
        return f"{self.name} == {self.width}'d{self.value}"

    def evaluate(self, frame: Frame) -> bool:
        return frame.get(self.name, 0) == self.value

    def signals(self) -> FrozenSet[str]:
        return frozenset((self.name,))


@dataclass(frozen=True)
class BNot(BoolExpr):
    body: BoolExpr

    def emit(self) -> str:
        return f"~({self.body.emit()})"

    def evaluate(self, frame: Frame) -> bool:
        return not self.body.evaluate(frame)

    def signals(self) -> FrozenSet[str]:
        return self.body.signals()


@dataclass(frozen=True)
class BAnd(BoolExpr):
    operands: Tuple[BoolExpr, ...]

    def emit(self) -> str:
        return " && ".join(_paren(op) for op in self.operands)

    def evaluate(self, frame: Frame) -> bool:
        return all(op.evaluate(frame) for op in self.operands)

    def signals(self) -> FrozenSet[str]:
        return frozenset().union(*(op.signals() for op in self.operands))


@dataclass(frozen=True)
class BOr(BoolExpr):
    operands: Tuple[BoolExpr, ...]

    def emit(self) -> str:
        return " || ".join(_paren(op) for op in self.operands)

    def evaluate(self, frame: Frame) -> bool:
        return any(op.evaluate(frame) for op in self.operands)

    def signals(self) -> FrozenSet[str]:
        return frozenset().union(*(op.signals() for op in self.operands))


def _paren(expr: BoolExpr) -> str:
    text = expr.emit()
    if isinstance(expr, (BAnd, BOr)):
        return f"({text})"
    return text


def band(*operands: BoolExpr) -> BoolExpr:
    ops = [op for op in operands if not (isinstance(op, BConst) and op.value)]
    if any(isinstance(op, BConst) and not op.value for op in ops):
        return BConst(False)
    if not ops:
        return BConst(True)
    if len(ops) == 1:
        return ops[0]
    return BAnd(tuple(ops))


def bor(*operands: BoolExpr) -> BoolExpr:
    ops = [op for op in operands if not (isinstance(op, BConst) and not op.value)]
    if any(isinstance(op, BConst) and op.value for op in ops):
        return BConst(True)
    if not ops:
        return BConst(False)
    if len(ops) == 1:
        return ops[0]
    return BOr(tuple(ops))


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


class Sequence:
    """Base class for SVA sequences (consume one frame per cycle)."""

    def emit(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SBool(Sequence):
    """A one-cycle sequence: the boolean holds this cycle."""

    expr: BoolExpr

    def emit(self) -> str:
        return f"({self.expr.emit()})"


@dataclass(frozen=True)
class SRepeat(Sequence):
    """``expr [*lo:hi]``; ``hi=None`` means unbounded (``$``)."""

    expr: BoolExpr
    lo: int
    hi: Optional[int]

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise SvaError(f"bad repetition bounds [{self.lo}:{self.hi}]")

    def emit(self) -> str:
        hi = "$" if self.hi is None else str(self.hi)
        return f"({self.expr.emit()}) [*{self.lo}:{hi}]"


@dataclass(frozen=True)
class SCat(Sequence):
    """``left ##<delay> right`` (delay >= 1)."""

    left: Sequence
    right: Sequence
    delay: int = 1

    def __post_init__(self):
        if self.delay < 1:
            raise SvaError("only ##1-or-more concatenation is supported")

    def emit(self) -> str:
        return f"{self.left.emit()} ##{self.delay} {self.right.emit()}"


def scat(*parts: Sequence) -> Sequence:
    """Left-fold ``##1`` concatenation."""
    if not parts:
        raise SvaError("empty sequence concatenation")
    out = parts[0]
    for part in parts[1:]:
        out = SCat(out, part, 1)
    return out


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class Property:
    """Base class for SVA properties."""

    def emit(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PSeq(Property):
    """A (weak) sequence used as a property."""

    seq: Sequence

    def emit(self) -> str:
        return f"({self.seq.emit()})"


@dataclass(frozen=True)
class PConst(Property):
    value: bool

    def emit(self) -> str:
        return "(1)" if self.value else "(0)"


@dataclass(frozen=True)
class PAnd(Property):
    operands: Tuple[Property, ...]

    def emit(self) -> str:
        return "(" + " and ".join(op.emit() for op in self.operands) + ")"


@dataclass(frozen=True)
class POr(Property):
    operands: Tuple[Property, ...]

    def emit(self) -> str:
        return "(" + " or ".join(op.emit() for op in self.operands) + ")"


@dataclass(frozen=True)
class PImpl(Property):
    """Overlapping implication ``antecedent |-> consequent`` with a
    boolean antecedent (the only form RTLCheck generates)."""

    antecedent: BoolExpr
    consequent: Property

    def emit(self) -> str:
        return f"{self.antecedent.emit()} |-> {self.consequent.emit()}"


def pand(*operands: Property) -> Property:
    ops = [op for op in operands if not (isinstance(op, PConst) and op.value)]
    if any(isinstance(op, PConst) and not op.value for op in ops):
        return PConst(False)
    if not ops:
        return PConst(True)
    if len(ops) == 1:
        return ops[0]
    return PAnd(tuple(ops))


def por(*operands: Property) -> Property:
    ops = [op for op in operands if not (isinstance(op, PConst) and not op.value)]
    if any(isinstance(op, PConst) and op.value for op in ops):
        return PConst(True)
    if not ops:
        return PConst(False)
    if len(ops) == 1:
        return ops[0]
    return POr(tuple(ops))


# ---------------------------------------------------------------------------
# Directives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Directive:
    """An ``assert property`` or ``assume property`` directive.

    ``structural`` marks assumptions that our verifier enforces by
    construction (memory/register initialization applied to the reset
    state) rather than by monitoring; they are still emitted as SVA.
    """

    kind: str  # 'assert' or 'assume'
    name: str
    prop: Property
    clock: str = "posedge clk"
    structural: bool = False

    def __post_init__(self):
        if self.kind not in ("assert", "assume"):
            raise SvaError(f"bad directive kind {self.kind!r}")

    def emit(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.kind} property (@({self.clock}) {self.prop.emit()});"
