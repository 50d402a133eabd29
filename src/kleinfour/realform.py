"""Compact real form, Cartan decompositions, real forms of fixed algebras.

The compact form u is held in the rational basis
    u_a = X_a - X_{-a},   v_a = sqrt(-1)(X_a + X_{-a}),   w_i = sqrt(-1) h_i
for positive roots a; sqrt(-1) lives only in the basis labels, never in an
entry.  u is the fixed set of omega_0 o (complex conjugation), with omega_0:
X_a -> -X_{-a}, h_i -> -h_i the Chevalley involution (Knapp, Lie Groups
Beyond an Introduction, VI.1), so u is closed under the bracket once omega_0
is certified as an automorphism: N(-a,-b) = -N(a,b) on every pair, with the
[X_a, X_{-a}] relations.  Its brackets are never tabulated.  An automorphism
has rational columns, so it commutes with conjugation, and it preserves u
exactly when it commutes with omega_0.  The Killing form of u is built from
npos + rank^2 traces that a root-graded table leaves nonzero (Humphreys, 8.1)
and must be negative definite -- a failure signals a structure-constant bug
and is fatal.

Real forms are described by a Cartan involution theta: k is its fixed part,
p its antifixed part (understood as multiplied by sqrt(-1) in the noncompact
form), and (g_type, k_type, signature) is looked up in the one shipped catalog
of real form names, whose every row a test derives by Cartan's rule.  One
routine, ``cartan_decomposition``, splits the fixed subalgebra of a group
gamma (trivial for the whole algebra) under theta on the Chevalley basis
alone: k_C and p_C are joint eigenspaces there (``autos.eigenspace``: a
Cartan block and orbit vectors on the root vectors), their relations are
walked on the Chevalley table, and k = u & k_C and p = u & p_C are real
forms of them once gamma and theta commute with omega_0.
"""

from __future__ import annotations

import json
import os
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .exactq import SpanSolver, rref, symmetric_inertia
from .autos import Automorphism, commutes, eigenspace, make_automorphism
from .identify import ReductiveType, center_of, first_escape, fixed_subalgebra, identify_type
from .rootsys import StructureTable


class RealFormError(Exception):
    """Compactness, commutation or Hermitian-type precondition failure."""


class CatalogMissError(LookupError):
    """No catalog row for a computed (g_type, k_type, signature) triple."""


# ---------------------------------------------------------------------------
# Compact form
# ---------------------------------------------------------------------------

def _trace(adj, i: int, j: int) -> int:
    """B(e_i, e_j) = tr(ad e_i o ad e_j) on the store adj of a bracket table:
    the sum of [e_j, e_c]_m [e_i, e_m]_c over the nonzero terms."""
    row = adj[i]
    return sum(v * w for c, terms in adj[j].items() for m, v in terms
               for r, w in row.get(m, ()) if r == c)


class CompactBasis:
    """The compact real form in its rational basis, with its Killing form.

    Basis indices: 0..npos-1 are u_a, npos..2npos-1 are v_a (positive roots in
    canonical order), 2npos..2npos+rank-1 are w_i.  ``parts[i] = (e, x)``
    says that basis vector i is sqrt(-1)^e times the Chevalley vector x.
    ``omega0`` is the certified Chevalley involution whose commutants are
    the automorphisms that preserve the compact form.

    ``killing`` is the Gram of the Killing form B on this basis, from npos +
    rank^2 traces on the Chevalley table: row u_a is {u_a: -2 B(x_a, x_-a)},
    row v_a the same on v_a, row w_i is {w_j: -B(h_i, h_j)} over its nonzeros.
    It equals the all-pairs trace carried to this basis, item for item:
    ``StructureTable._fill`` stores a root-graded table ([x_a, x_b] in
    g_{a+b}, h of weight 0), so ad e o ad f shifts weights by wt(e) + wt(f)
    and B(e, f) = 0 unless wt(e) + wt(f) = 0; B(x_-a, x_a) = B(x_a, x_-a),
    the trace being symmetric, so B(u_a, v_a) = 0; and sqrt(-1)^2 = -1 gives
    the signs.  It must be negative definite (Knapp, VI.1).
    """

    def __init__(self, table: StructureTable):
        self.table = table
        self.rank = rank = table.rank
        self.npos = npos = table.rs.npos
        self.dim = 2 * npos + rank
        self.parts: Tuple[Tuple[int, dict], ...] = tuple(
            [(0, {rank + k: 1, rank + npos + k: -1}) for k in range(npos)]
            + [(1, {rank + k: 1, rank + npos + k: 1}) for k in range(npos)]
            + [(1, {i: 1}) for i in range(rank)]
        )
        # omega_0: the root map a -> -a with every sign -1, certified in one walk
        n = 2 * npos
        self.omega0 = make_automorphism(
            table, (tuple((k + npos) % n for k in range(n)), (-1,) * n), "chevalley-involution")
        adj = table._adj
        pairs = [-2 * _trace(adj, rank + k, rank + npos + k) for k in range(npos)]
        self.killing: List[Dict[int, int]] = [{i: b} for i, b in enumerate(pairs + pairs)]
        for i in range(rank):
            row = (-_trace(adj, i, j) for j in range(rank))
            self.killing.append({2 * npos + j: b for j, b in enumerate(row) if b})
        inertia = symmetric_inertia(self.killing)
        if inertia != (0, self.dim, 0):
            raise RealFormError(
                f"Killing form of the compact basis has inertia {inertia}, "
                f"expected (0, {self.dim}, 0); structure constants are wrong"
            )

    @cached_property
    def complex_type(self) -> ReductiveType:
        """Reductive type of the whole complex algebra, identified once."""
        return identify_type(fixed_subalgebra(self.table, []))


def compact_form(table: StructureTable) -> CompactBasis:
    """Build the compact real form; closure and definiteness are verified inside."""
    return CompactBasis(table)


# ---------------------------------------------------------------------------
# Catalog of real form names
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def load_catalog() -> Dict[Tuple[str, str, int, int], str]:
    """The shipped catalog, data/realform_catalog.json beside this module, as
    {(g_type, k_type, dim k, dim p): name}.

    Each of its "real_forms" rows has strings "g", "k" and "name" and a
    "signature" [dim k, dim p].  tests/test_realform.py derives every row's
    name from its key by Cartan's rule and checks that the keys are distinct.
    The file is read once per process; callers only read the dict.
    """
    with open(os.path.join(os.path.dirname(__file__), "data", "realform_catalog.json"),
              encoding="utf-8") as fh:
        data = json.load(fh)
    return {(r["g"], r["k"], *r["signature"]): r["name"] for r in data["real_forms"]}


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class RealFormDescriptor(NamedTuple):
    """A Cartan decomposition k + p with identified types and catalog name."""

    g_type: str
    k_type: str
    k_dim: int
    p_dim: int
    name: str

    @property
    def signature(self) -> Tuple[int, int]:
        return (self.k_dim, self.p_dim)


def _check_theta(theta: Automorphism, others: Sequence[Automorphism]) -> None:
    """theta has order 1 or 2 and commutes with every automorphism in others."""
    if theta.order not in (1, 2):
        raise RealFormError(f"{theta.descriptor} has order {theta.order}; Cartan involutions "
                            "must square to the identity")
    for g in others:
        if not commutes(g, theta):
            raise RealFormError(f"{g.descriptor} does not commute with theta = {theta.descriptor}")


def cartan_decomposition(
    cb: CompactBasis,
    theta: Automorphism,
    gamma: Sequence[Automorphism] = (),
) -> RealFormDescriptor:
    """Split the gamma-fixed compact subalgebra under theta and name its real form.

    gamma lists the generators of the fixed group; empty means the whole
    algebra.  k_C and p_C are the joint eigenspaces of gamma and +-theta on
    the Chevalley basis, k_C being the fixed subalgebra that gives k's type
    and p_C a plain span (SpanSolver).  The noncompact real form is
    k + sqrt(-1) p.  Verified: theta has order 1 or 2 and commutes with
    gamma, gamma and theta commute with omega_0 (every certified root map
    does, its certificate forcing w(-a) = -w(a) and eta_-a = eta_a; the
    gate guards that premise), dim k_C + dim p_C is the dimension of
    gamma's complex fixed algebra, [k_C,k_C] in k_C (the closure
    walk of ``fixed_subalgebra``), [k_C,p_C] in p_C and [p_C,p_C] in k_C.

    Hence k = u & k_C and p = u & p_C satisfy [k,k] in k, [k,p] in p and
    [p,p] in k, and the signature is (dim k_C, dim p_C).  gamma and theta
    have rational columns and commute with omega_0, so they commute with
    sigma = omega_0 o conjugation, and sigma, a conjugate-linear involution,
    preserves k_C and p_C.  So k_C = k + sqrt(-1) k with k = Fix(sigma) & k_C
    = u & k_C of real dimension dim k_C, and likewise for p.  u is closed,
    omega_0 being certified, so [k,p] lies in u & [k_C,p_C], inside u & p_C
    = p, and so on.  The Killing form, negative definite on u, is so on k and
    on p.
    """
    gens = list(gamma)
    _check_theta(theta, gens)
    for g in gens + [theta]:
        if not commutes(g, cb.omega0):
            raise RealFormError(f"{g.descriptor} does not preserve the compact form")
    table = cb.table
    g_complex = fixed_subalgebra(table, gens)
    k_complex = fixed_subalgebra(table, gens + [theta])
    p_complex = SpanSolver(*rref(eigenspace([(g, 1) for g in gens] + [(theta, -1)])))
    if k_complex.dim + p_complex.dim != g_complex.dim:
        raise RealFormError(f"theta does not split the fixed algebra: dim k {k_complex.dim} + "
                            f"dim p {p_complex.dim} != dim {g_complex.dim} of gamma's complex "
                            "fixed space")
    for xs, ys, into, what in ((k_complex, p_complex, p_complex, "[k,p] escapes p"),
                               (p_complex, p_complex, k_complex, "[p,p] escapes k")):
        if first_escape(table, xs, ys, into):
            raise RealFormError(what)

    g_type = identify_type(g_complex) if gens else cb.complex_type
    k_type = identify_type(k_complex)
    key = (str(g_type), str(k_type), k_complex.dim, p_complex.dim)
    try:
        name = load_catalog()[key]
    except KeyError:
        raise CatalogMissError("no real form catalogued for g_type=%s, k_type=%s, "
                               "signature=(%d,%d)" % key) from None
    return RealFormDescriptor(*key, name)


def real_fixed_subalgebra(cb: CompactBasis, gamma: Sequence[Automorphism],
                          theta: Automorphism) -> RealFormDescriptor:
    """Real form of the fixed subalgebra of the generators gamma inside the
    theta real form: cartan_decomposition, with its split and certificates."""
    return cartan_decomposition(cb, theta, gamma)


def holomorphic_flags(
    cb: CompactBasis, sigmas: Sequence[Automorphism], theta: Automorphism
) -> List[bool]:
    """is_holomorphic_type of each sigma, building k(theta) and its center once.

    Every sigma must commute with theta, and theta must be of Hermitian type
    (center of k exactly 1-dimensional); both are verified.
    """
    _check_theta(theta, sigmas)
    z = center_of(fixed_subalgebra(cb.table, [theta]))
    if z.dim != 1:
        raise RealFormError(
            f"theta = {theta.descriptor} is not Hermitian: center of k has dim {z.dim}"
        )
    zvec = z.rows[0]
    return [sigma.apply(zvec) == zvec for sigma in sigmas]


def is_holomorphic_type(cb: CompactBasis, sigma: Automorphism, theta: Automorphism) -> bool:
    """True iff sigma acts as the identity on the 1-dim center of k(theta).

    Requires sigma to commute with theta and theta to be of Hermitian type
    (center of k exactly 1-dimensional); both are verified.
    """
    return holomorphic_flags(cb, [sigma], theta)[0]
