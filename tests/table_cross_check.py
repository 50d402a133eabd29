"""Cross-checks of the table builds and the real-form split at sizes tier-1 leaves out.

The Chevalley tables of A16, B16, C16 and D16 against
``oracles.chevalley_reference`` (store and extraspecial pairs), item for item
and in key and term order; the compact Killing forms of E7 and E8 against
``oracles.compact_reference``, item for item and in key order; the splits
of E7 and E8 under torus:1,0,...,0, whose relations ``helpers.split_defects``
walks on the compact brackets, over the k and p that ``oracles.compact_cols``
gives, and on the Chevalley table; and the Jacobi identity of the Chevalley
tables of E8, A16, B16, C16 and D16 by ``oracles.sparse_jacobi_defect``, and
their root grading, the premise of the compact Killing form's blocks, by
``oracles.grading_defect``; and the whole Chevalley tables of A31 and D32,
every entry, against Kac's lattice construction by ``oracles.cocycle_defect``;
and ``autos.joint_fixed_dim`` of seeded triples of torus involutions on B16,
C16 and D16 against the joint-parity dimension of ``oracles.torus_parity_type``;
and every constructed kind of automorphism on E7 and E8 against its
references (``helpers.constructed_kind_defects``); and the lookup
certificate ``StructureTable.root_map_defects`` against
``oracles.first_homomorphism_defect`` on every Weyl lift, on omega where it
is defined and on omega_0 of E8, A16, B16, C16 and D16, and on one Weyl lift
of each with the sign of x_+-a flipped, a its middle non-simple root.
Each Chevalley table is built once, and the first check that reads it is
timed with its build.
Run from the repository root as ``PYTHONPATH=src python
tests/table_cross_check.py``; it prints one line per check and exits 1 if
any differs.
"""

import random
import sys
import time
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from kleinfour.autos import (joint_fixed_dim, omega_automorphism, torus_involution,  # noqa: E402
                             weyl_lift)
from kleinfour.verify import VerifyContext  # noqa: E402
from kleinfour.realform import compact_form  # noqa: E402
from kleinfour.rootsys import build_root_system, cartan_matrix, chevalley_table  # noqa: E402
from helpers import (constructed, constructed_kind_defects, root_index,  # noqa: E402
                     root_map_cols, split_defects)
from oracles import (chevalley_reference, cocycle_defect, compact_reference,  # noqa: E402
                     first_homomorphism_defect, grading_defect, homomorphism_fails_at,
                     sparse_jacobi_defect, torus_parity_type)


def rows(adj):
    return [list(row.items()) for row in adj]


@lru_cache(maxsize=None)
def table(label):
    return chevalley_table(build_root_system(cartan_matrix(label)))


def chevalley_differs(label):
    t = table(label)
    rs = t.rs
    adj, _, extraspecial = chevalley_reference(rs)
    special = [(root_index(rs, g), (root_index(rs, a), root_index(rs, b)))
               for g, (a, b) in extraspecial.items()]
    return rows(t._adj) != rows(adj) or list(t.extraspecial.items()) != special


def killing_differs(label):
    cb = compact_form(table(label))
    return rows(cb.killing) != rows(compact_reference(cb)[1])


def split_differs(label):
    """The relations that fail in the split under torus:1,0,...,0."""
    ctx = VerifyContext(algebra=label)
    theta = "torus:" + ",".join(["1"] + ["0"] * (ctx.table.rank - 1))
    return split_defects(ctx.cb, ctx.automorphism(theta))


def jacobi_fails(label):
    """The first basis triple whose Jacobi sum is not zero, or None."""
    return sparse_jacobi_defect(table(label))


def grading_fails(label):
    """The first stored term off the root grading, or None."""
    return grading_defect(table(label))


def cocycle_fails(label):
    """The basis pairs whose bracket is not the lattice construction's."""
    return cocycle_defect(table(label))


def torus_triples_differ(label, count=30):
    """The seeded triples of parity vectors whose character dimension
    is not the oracle's."""
    t, rng = table(label), random.Random(label)
    triples = [[tuple(rng.randrange(2) for _ in range(t.rank)) for _ in range(3)]
               for _ in range(count)]
    bad = []
    for triple in triples:
        expected = torus_parity_type(t.rs.cartan, *triple)
        got = joint_fixed_dim([torus_involution(t, c) for c in triple])
        if got != (t.dim if expected is None else expected[1]):
            bad.append(triple)
    return bad


def constructed_kinds_differ(label):
    """The constructed automorphisms that differ from their references."""
    t = table(label)
    return constructed_kind_defects(t, constructed(t, compact_form(t)))


def certificate_differs(label):
    """The maps on which the lookup certificate and the all-pairs reference
    disagree: each Weyl lift, omega where defined and omega_0 must pass both,
    and the first lift with the sign of x_+-a flipped, for the middle
    non-simple root a, must fail both at the pair the certificate names."""
    t = table(label)
    maps = [weyl_lift(t, i) for i in range(t.rank)] + [compact_form(t).omega0]
    try:
        maps.append(omega_automorphism(t))
    except ValueError:
        pass
    bad = [a.descriptor for a in maps
           if t.root_map_defects(a.img, [a.eta]) != [None]
           or first_homomorphism_defect(t, a.cols) is not None]
    k = (t.rank + t.npos) // 2
    eta = list(maps[0].eta)
    eta[k], eta[k + t.npos] = -eta[k], -eta[k + t.npos]
    (pair,), cols = t.root_map_defects(maps[0].img, [eta]), root_map_cols(t, (maps[0].img, eta))
    if pair is None or not homomorphism_fails_at(t, cols, *pair):
        bad.append("flipped " + maps[0].descriptor)
    return bad


CHECKS = [("chevalley", label, chevalley_differs) for label in ("A16", "B16", "C16", "D16")] + [
    ("compact killing", label, killing_differs) for label in ("E7", "E8")] + [
    ("split torus:1,0,...,0", label, split_differs) for label in ("E7", "E8")] + [
    ("jacobi", label, jacobi_fails) for label in ("E8", "A16", "B16", "C16", "D16")] + [
    ("grading", label, grading_fails) for label in ("E8", "A16", "B16", "C16", "D16")] + [
    ("cocycle", label, cocycle_fails) for label in ("A31", "D32")] + [
    ("torus triples", label, torus_triples_differ) for label in ("B16", "C16", "D16")] + [
    ("constructed kinds", label, constructed_kinds_differ) for label in ("E7", "E8")] + [
    ("root-map certificate", label, certificate_differs)
    for label in ("E8", "A16", "B16", "C16", "D16")]


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
