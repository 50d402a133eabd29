"""Cross-checks of the two table builds at sizes tier-1 leaves out.

The Chevalley tables of A16, B16, C16 and D16 against
``oracles.chevalley_reference`` (store and extraspecial pairs), and the
compact forms of E7 and E8 against ``oracles.compact_reference`` (store and
Killing form), item for item and in key and term order.  Run from the
repository root as ``PYTHONPATH=src python tests/table_cross_check.py``; it
prints one line per type and exits 1 if any differs.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from kleinfour.realform import compact_form  # noqa: E402
from kleinfour.rootsys import build_root_system, cartan_matrix, chevalley_table  # noqa: E402
from helpers import root_index  # noqa: E402
from oracles import chevalley_reference, compact_reference  # noqa: E402


def rows(adj):
    return [list(row.items()) for row in adj]


def chevalley_differs(label):
    rs = build_root_system(cartan_matrix(label))
    t = chevalley_table(rs)
    adj, _, extraspecial = chevalley_reference(rs)
    special = [(root_index(rs, g), (root_index(rs, a), root_index(rs, b)))
               for g, (a, b) in extraspecial.items()]
    return rows(t._adj) != rows(adj) or list(t.extraspecial.items()) != special


def compact_differs(label):
    cb = compact_form(chevalley_table(build_root_system(cartan_matrix(label))))
    adj, killing = compact_reference(cb)
    return rows(cb._adj) != rows(adj) or rows(cb.killing) != rows(killing)


CHECKS = [("chevalley", label, chevalley_differs) for label in ("A16", "B16", "C16", "D16")] + [
    ("compact", label, compact_differs) for label in ("E7", "E8")]


def main():
    bad = 0
    for kind, label, differs in CHECKS:
        start = time.perf_counter()
        verdict = "DIFFERS" if differs(label) else "same"
        bad += verdict != "same"
        print(f"{kind} {label}: {verdict} ({time.perf_counter() - start:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
