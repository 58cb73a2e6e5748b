"""Brute-force diy cycle enumeration: the reference oracle for
:func:`repro.litmus.diy.enumerate_cycles`.

The enumerator in ``src/`` extends cycles edge by edge, skipping
strings whose event types do not chain.  This one is the original
construction: filter every string in the full ``alphabet ** length``
product.  Both must return the same sorted list.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from repro.errors import LitmusError
from repro.litmus.diy import CYCLE_EDGES, cycle_signature, validate_cycle


def enumerate_cycles(
    alphabet: Sequence[str],
    length: int,
    require: Sequence[str] = (),
    forbid: Sequence[str] = (),
) -> List[Tuple[str, ...]]:
    """Enumerate all valid canonical cycles of ``length`` over ``alphabet``.

    ``require`` lists edges at least one of which must appear; ``forbid``
    lists edges that must not.  Results are sorted deterministically, so
    suite construction is reproducible.
    """
    for name in tuple(alphabet) + tuple(require) + tuple(forbid):
        if name not in CYCLE_EDGES:
            raise LitmusError(f"unknown cycle edge {name!r}")
    found = set()
    for combo in itertools.product(alphabet, repeat=length):
        if require and not any(r in combo for r in require):
            continue
        if any(f in combo for f in forbid):
            continue
        if validate_cycle(combo) is not None:
            continue
        found.add(cycle_signature(combo))
    return sorted(found)
