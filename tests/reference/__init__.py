"""Reference oracles: straightforward implementations that the product's
optimized paths must match bit for bit.  They live with the tests, not
in ``src/``: nothing in the product chooses between them.

* :mod:`tests.reference.explorer` — the per-property explorer, which
  re-simulates the design for every walk (oracle for ``GraphExplorer``).
* :mod:`tests.reference.snapshots` — nested-tuple design snapshots
  (oracle for the interned slot-vector encoding).
* :mod:`tests.reference.diy` — diy cycle enumeration over the full edge
  product (oracle for the type-chained ``enumerate_cycles``).
"""
