"""Compact real form, Cartan decompositions, real forms of fixed algebras.

The compact form is held in the rational basis
    u_a = X_a - X_{-a},   v_a = sqrt(-1)(X_a + X_{-a}),   w_i = sqrt(-1) h_i
for positive roots a; sqrt(-1) lives only in the basis labels, never in an
entry.  Structure constants in this basis are carried over from the Chevalley
table, not derived by hand: each basis vector is sqrt(-1)^e times a Chevalley
vector, so its brackets are sums of Chevalley brackets, read from the rows of
X_a and X_{-a} and taken back into compact coordinates by the one map
``CompactBasis.to_compact``, which rejects any result outside the compact
form.  The same map gives automorphisms their compact columns.  The Killing
form is a trace, so it is traced once on the Chevalley table and carried to
this basis through the same sqrt(-1)^e x; it must come out real and negative
definite -- a failure signals a structure-constant bug and is fatal.

Real forms are described by a Cartan involution theta: k is its fixed part,
p its antifixed part (understood as multiplied by sqrt(-1) in the noncompact
form), and (g_type, k_type, signature) is looked up in the one shipped catalog
of real form names, whose every row a test derives by Cartan's rule.  One
routine, ``cartan_decomposition``, splits the fixed subalgebra of a group
gamma (trivial for the whole algebra) under theta, reading k and p directly
as joint eigenspaces on the compact basis (for signed permutations, orbit
vectors of one or two entries).  Complexified types are
identified on the complex side: gamma and theta preserve the compact form, so
k + p is a real form of the complex fixed space once dim k + dim p equals its
dimension (asserted, not assumed).
"""

from __future__ import annotations

import json
import os
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .exactq import SpanSolver, joint_eigenspace, lincomb, rref, symmetric_inertia
from .autos import Automorphism, commutes
from .identify import ReductiveType, center_of, first_escape, fixed_subalgebra, identify_type
from .rootsys import BracketTable, StructureTable, killing_form


class RealFormError(Exception):
    """Compactness, commutation or Hermitian-type precondition failure."""


class CatalogMissError(LookupError):
    """No catalog row for a computed (g_type, k_type, signature) triple."""


# ---------------------------------------------------------------------------
# Compact form
# ---------------------------------------------------------------------------

class CompactBasis(BracketTable):
    """Rational structure table of the compact real form.

    Basis indices: 0..npos-1 are u_a, npos..2npos-1 are v_a (positive roots in
    canonical order), 2npos..2npos+rank-1 are w_i.  ``parts[i] = (e, x)``
    says that basis vector i is sqrt(-1)^e times the Chevalley vector x.
    """

    def __init__(self, table: StructureTable):
        super().__init__(2 * table.rs.npos + table.rank)
        self.table = table
        self.rank = rank = table.rank
        self.npos = npos = table.rs.npos
        self.parts: Tuple[Tuple[int, dict], ...] = tuple(
            [(0, {rank + k: 1, rank + npos + k: -1}) for k in range(npos)]
            + [(1, {rank + k: 1, rank + npos + k: 1}) for k in range(npos)]
            + [(1, {i: 1}) for i in range(rank)]
        )
        powers, xs = zip(*self.parts)
        self._fill(table._adj)
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

    def _fill(self, tadj: Sequence[dict]) -> None:
        """[e_i, e_j], i < j, from the Chevalley rows of x_a and x_-a, each
        through to_compact, stored in both orders and ascending.

        For each partner b of a (a key of either row), four lookups give
        n = [x_a, x_b], [x_a, x_-b], [x_-a, x_b], [x_-a, x_-b]; with
        e_i = x_a + s x_-a, e_j = x_b + t x_-b, [e_i, e_j] = n1 + t n2 + s n3 +
        st n4, summed in the order of ``row_brackets``.  [x_+-a, h_m] give the
        w_m entries, as the partner b = npos + m.  Row u_a takes [u_a, u_b] for
        b > a, then [u_a, v_b] and [u_a, w_m]; the rows v_a follow them all.
        """
        rank, npos, adj, to_compact = self.rank, self.npos, self._adj, self.to_compact
        ublocks, vblocks = [], []  # (i, j - b, e, t, s, [(b, n)]), row by row
        for a in range(npos):
            xa, xna = tadj[rank + a], tadj[rank + npos + a]
            ns = [(b, (xa.get(rank + b, ()), xa.get(rank + npos + b, ()),
                       xna.get(rank + b, ()), xna.get(rank + npos + b, ())))
                  for b in sorted({(l - rank) % npos for row in (xa, xna) for l in row if l >= rank})]
            ws = [(npos + m, (xa.get(m, ()), (), xna.get(m, ()), ()))
                  for m in sorted({l for row in (xa, xna) for l in row if l < rank})]
            up = [p for p in ns if p[0] > a]
            ublocks += [(a, 0, 0, -1, -1, up), (a, npos, 1, 1, -1, ns + ws)]
            vblocks.append((npos + a, npos, 2, 1, 1, up + ws))

        def what() -> str:  # the bracket at hand, named only when it fails
            return f"[{self.label(i)}, {self.label(j)}]"

        for i, j0, e, t, s, pairs in ublocks + vblocks:
            for b, (n1, n2, n3, n4) in pairs:
                j = j0 + b
                acc = dict(n1)
                for r, c in n2:
                    acc[r] = acc.get(r, 0) + t * c
                for r, c in n3:
                    acc[r] = acc.get(r, 0) + s * c
                for r, c in n4:
                    acc[r] = acc.get(r, 0) + s * t * c
                terms = tuple(to_compact(acc, e, what).items())
                adj[i][j] = terms
                adj[j][i] = (((terms[0][0], -terms[0][1]),) if len(terms) == 1
                             else tuple([(k, -c) for k, c in terms]))

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
        then, since most callers convert thousands of vectors that pass.
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
    """Build the compact real form table; definiteness is verified inside."""
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


def cartan_decomposition(
    cb: CompactBasis,
    theta: Automorphism,
    gamma: Sequence[Automorphism] = (),
) -> RealFormDescriptor:
    """Split the gamma-fixed compact subalgebra under theta and name its real form.

    gamma lists the generators of the fixed group; empty means the whole
    algebra.  k is the joint +1 eigenspace of gamma and theta on the compact
    basis, p that of gamma and -theta; both are plain spans (SpanSolver),
    since p is no subalgebra and k's closure is the [k,k] relation below.
    The noncompact real form is k + sqrt(-1) p.  Verified: theta has order 1
    or 2 and commutes with gamma, both preserve the compact form, dim k +
    dim p is the dimension of the complex fixed algebra of gamma, [k,k] in
    k, [k,p] in p, [p,p] in k, the Killing form is negative definite on k
    and on p.  k and p meet in 0 in the compact gamma-fixed space, of real
    dimension at most the complex one, so the fill check makes k + p all of it
    and dim k = dim k_C, the complex fixed algebra of gamma+theta that gives
    k's type (as dim p <= dim p_C and theta splits the space into k_C + p_C).
    """
    gens = list(gamma)
    _check_theta(theta, gens)
    gcols = [compact_matrix_cols(cb, g) for g in gens]
    tcols = compact_matrix_cols(cb, theta)
    minus = tuple({i: -c for i, c in col.items()} for col in tcols)
    kpart, ppart = (SpanSolver(*rref(joint_eigenspace(cb.dim, gcols + [cols])))
                    for cols in (tcols, minus))
    g_complex = fixed_subalgebra(cb.table, gens)
    if kpart.dim + ppart.dim != g_complex.dim:
        raise RealFormError(f"theta does not split the fixed algebra: dim k {kpart.dim} + dim p "
                            f"{ppart.dim} != dim {g_complex.dim} of gamma's complex fixed space")
    for xs, ys, into, what in ((kpart, kpart, kpart, "[k,k] escapes k"),
                               (kpart, ppart, ppart, "[k,p] escapes p"),
                               (ppart, ppart, kpart, "[p,p] escapes k")):
        if first_escape(cb, xs, ys, into):
            raise RealFormError(what)
    for span, name in ((kpart, "k"), (ppart, "p")):
        if _restricted_inertia(cb, span) != (0, span.dim, 0):
            raise RealFormError(f"Killing form on {name} is not negative definite")

    g_type = identify_type(g_complex) if gens else cb.complex_type
    k_type = identify_type(fixed_subalgebra(cb.table, gens + [theta]))
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
