"""Compact real form, Cartan decompositions, real forms of fixed algebras.

The compact form u is held in the rational basis
    u_a = X_a - X_{-a},   v_a = sqrt(-1)(X_a + X_{-a}),   w_i = sqrt(-1) h_i
for positive roots a; sqrt(-1) lives only in the basis labels, never in an
entry.  u is the fixed set of omega_0 o (complex conjugation), with omega_0:
X_a -> -X_{-a}, h_i -> -h_i the Chevalley involution (Knapp, Lie Groups
Beyond an Introduction, VI.1), so u is closed under the bracket once omega_0
is certified as an automorphism: N(-a,-b) = -N(a,b) on every pair, with the
[X_a, X_{-a}] relations.  Its brackets are never tabulated.  The one map
``CompactBasis.to_compact`` gives automorphisms their compact columns and
rejects any image outside the compact form.  The Killing form is a trace, so
it is traced once on the Chevalley table and carried to this basis through
the same sqrt(-1)^e x; it must come out real and negative definite -- a
failure signals a structure-constant bug and is fatal.

Real forms are described by a Cartan involution theta: k is its fixed part,
p its antifixed part (understood as multiplied by sqrt(-1) in the noncompact
form), and (g_type, k_type, signature) is looked up in the one shipped catalog
of real form names, whose every row a test derives by Cartan's rule.  One
routine, ``cartan_decomposition``, splits the fixed subalgebra of a group
gamma (trivial for the whole algebra) under theta, reading k and p directly
as joint eigenspaces on the compact basis (for signed permutations, orbit
vectors of one or two entries); their relations are walked on the
Chevalley table over k_C and p_C, which they span, and where complexified
types are identified.
"""

from __future__ import annotations

import json
import os
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .exactq import SpanSolver, joint_eigenspace, lincomb, rref, symmetric_inertia
from .autos import Automorphism, commutes, make_automorphism
from .identify import ReductiveType, center_of, first_escape, fixed_subalgebra, identify_type
from .rootsys import StructureTable, killing_form


class RealFormError(Exception):
    """Compactness, commutation or Hermitian-type precondition failure."""


class CatalogMissError(LookupError):
    """No catalog row for a computed (g_type, k_type, signature) triple."""


# ---------------------------------------------------------------------------
# Compact form
# ---------------------------------------------------------------------------

class CompactBasis:
    """The compact real form in its rational basis, with its Killing form.

    Basis indices: 0..npos-1 are u_a, npos..2npos-1 are v_a (positive roots in
    canonical order), 2npos..2npos+rank-1 are w_i.  ``parts[i] = (e, x)``
    says that basis vector i is sqrt(-1)^e times the Chevalley vector x.
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
        powers, xs = zip(*self.parts)
        # omega_0, a signed permutation of order 2, certified in one walk
        make_automorphism(table, [{i: -1} for i in range(rank)]
                          + [{rank + (k + npos) % (2 * npos): -1} for k in range(2 * npos)],
                          "chevalley-involution")
        # the Killing form is a trace, so it is the Chevalley one carried through
        # parts: B(i, j) = sqrt(-1)^(e_i + e_j) sum x_i[p] x_j[q] B(p, q), which must
        # vanish when e_i + e_j is odd; holders[q] lists the (j, x_j[q]), two at most
        holders: List[List[Tuple[int, int]]] = [[] for _ in range(table.dim)]
        for j, x in enumerate(xs):
            for q, c in x.items():
                holders[q].append((j, c))
        B, self.killing = killing_form(table), []
        for i, x in enumerate(xs):
            acc: Dict[int, int] = {}
            for p, a in x.items():
                for q, b in B[p].items():
                    for j, c in holders[q]:
                        acc[j] = acc.get(j, 0) + a * b * c
            odd = next((j for j in acc if acc[j] and (powers[i] + powers[j]) % 2), None)
            if odd is not None:
                raise RealFormError(f"B({self.label(i)}, {self.label(odd)}) is not real")
            self.killing.append({j: acc[j] if powers[i] + powers[j] == 0 else -acc[j]
                                 for j in sorted(acc) if acc[j]})
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

    def label(self, i: int) -> str:
        if i < self.npos:
            return "u" + str(self.table.rs.roots[i].coords)
        if i < 2 * self.npos:
            return "v" + str(self.table.rs.roots[i - self.npos].coords)
        return f"w{i - 2 * self.npos + 1}"

    def to_compact(self, x: dict, e: int, what: Callable[[], str]) -> dict:
        """Compact coordinates of sqrt(-1)^e * x for a rational Chevalley vector x.

        A compact vector has coefficients z on X_a and -conj(z) on X_{-a} and
        an imaginary one on each h_i.  So for even e, x must be antisymmetric
        on every pair X_a, X_{-a} and vanish on the Cartan; for odd e it must
        be symmetric on every pair.  Otherwise RealFormError names what() and
        the first Chevalley basis vector where this fails; what is called only
        then, since a caller converts every basis vector and most pass.
        """
        rank, npos = self.rank, self.npos
        odd = e % 2
        sign = -1 if e % 4 >= 2 else 1
        # h_j goes to w_j = 2 npos + j, X_a (j = rank + a) to u_a = a or v_a = npos + a
        shift = npos * odd - rank
        out: dict = {}
        for j, c in x.items():
            if j < rank:
                ok = odd
                out[j + 2 * npos] = sign * c
            elif j < rank + npos:
                ok = x.get(j + npos, 0) == (c if odd else -c)
                out[j + shift] = sign * c
            else:
                ok = j - npos in x
            if not ok:
                raise RealFormError(
                    f"{what()} is not in the compact form (at {self.table.basis_label(j)})"
                )
        return out


def compact_form(table: StructureTable) -> CompactBasis:
    """Build the compact real form; closure and definiteness are verified inside."""
    return CompactBasis(table)


# ---------------------------------------------------------------------------
# Automorphisms in compact coordinates
# ---------------------------------------------------------------------------

def compact_matrix_cols(cb: CompactBasis, auto: Automorphism) -> Tuple[dict, ...]:
    """Columns of the automorphism on the compact basis; exact and verified.

    Basis vector i is sqrt(-1)^e x with x rational, so its image is
    sqrt(-1)^e auto(x), read back by ``to_compact``; RealFormError if any
    image leaves the compact form.
    """
    return tuple(
        cb.to_compact(auto.apply(x), e, lambda: f"{auto.descriptor} applied to {cb.label(i)}")
        for i, (e, x) in enumerate(cb.parts)
    )


def _restricted_inertia(cb: CompactBasis, span: SpanSolver) -> Tuple[int, int, int]:
    """Inertia of the Killing form on span, from the Gram matrix of its rows;
    Gram row r is the sparse combination row_r B of the transposed rows."""
    B = cb.killing
    cols: Dict[int, dict] = {}  # the transposed rows: column j -> {s: rows[s][j]}
    for s, y in enumerate(span.rows):
        for j, v in y.items():
            cols.setdefault(j, {})[s] = v
    xB = (lincomb(x.values(), (B[i] for i in x)) for x in span.rows)
    return symmetric_inertia([lincomb(xb.values(), (cols.get(j, {}) for j in xb)) for xb in xB])


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


def _negated(cols: Sequence[dict]) -> Tuple[dict, ...]:
    return tuple({i: -c for i, c in col.items()} for col in cols)


def cartan_decomposition(
    cb: CompactBasis,
    theta: Automorphism,
    gamma: Sequence[Automorphism] = (),
) -> RealFormDescriptor:
    """Split the gamma-fixed compact subalgebra under theta and name its real form.

    gamma lists the generators of the fixed group; empty means the whole
    algebra.  k and p are the joint eigenspaces of gamma and +-theta on the
    compact basis, plain spans (SpanSolver); k_C and p_C those on the
    Chevalley basis, k_C being the fixed subalgebra that gives k's type.  The
    noncompact real form is k + sqrt(-1) p.  Verified: theta has order 1 or 2
    and commutes with gamma, both preserve u, dim k + dim p is the dimension
    of gamma's complex fixed algebra, dim k_C = dim k, dim p_C = dim p,
    [k_C,k_C] in k_C (the closure walk of ``fixed_subalgebra``), [k_C,p_C] in
    p_C, [p_C,p_C] in k_C, and the Killing form is negative definite on k and p.

    Hence [k,k] in k, [k,p] in p and [p,p] in k.  gamma and theta act on u by
    their compact columns, so the complex span of k lies in k_C; it has
    dimension dim k = dim k_C, as u meets sqrt(-1) u in 0, so it is k_C, and
    x + sqrt(-1) y in u with x, y in k has y = 0: u & k_C = k, and likewise
    u & p_C = p.  u is closed, omega_0 being certified, so [k,p] lies in
    u & [k_C,p_C], inside u & p_C = p, and so on.
    """
    gens = list(gamma)
    _check_theta(theta, gens)
    gcols = [compact_matrix_cols(cb, g) for g in gens]
    tcols = compact_matrix_cols(cb, theta)
    kpart, ppart = (SpanSolver(*rref(joint_eigenspace(cb.dim, gcols + [cols])))
                    for cols in (tcols, _negated(tcols)))
    table = cb.table
    g_complex = fixed_subalgebra(table, gens)
    if kpart.dim + ppart.dim != g_complex.dim:
        raise RealFormError(f"theta does not split the fixed algebra: dim k {kpart.dim} + dim p "
                            f"{ppart.dim} != dim {g_complex.dim} of gamma's complex fixed space")
    k_complex = fixed_subalgebra(table, gens + [theta])
    p_complex = SpanSolver(*rref(joint_eigenspace(
        table.dim, [g.cols for g in gens] + [_negated(theta.cols)])))
    for span, cspan, name in ((kpart, k_complex, "k"), (ppart, p_complex, "p")):
        if cspan.dim != span.dim:
            raise RealFormError(f"dim {name}_C {cspan.dim} != dim {name} {span.dim}")
        if _restricted_inertia(cb, span) != (0, span.dim, 0):
            raise RealFormError(f"Killing form on {name} is not negative definite")
    for xs, ys, into, what in ((k_complex, p_complex, p_complex, "[k,p] escapes p"),
                               (p_complex, p_complex, k_complex, "[p,p] escapes k")):
        if first_escape(table, xs, ys, into):
            raise RealFormError(what)

    g_type = identify_type(g_complex) if gens else cb.complex_type
    k_type = identify_type(k_complex)
    key = (str(g_type), str(k_type), kpart.dim, ppart.dim)
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
