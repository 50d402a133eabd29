"""Fixed-point subalgebras and reductive type identification.

A subalgebra is held as an echelon-normalized (RREF) basis in the canonical
coordinates of its ambient structure table, bracket-closed by construction
(the closure walk ``first_escape`` sums each bracket's residual against the
span).  Identification decomposes it under the fixed part t of the ambient
Cartan; closure makes it the sum of its t-weight spaces, so the centralizer
of t has the dimension the nonzero weights leave.  It reads off the weight root
system, recovers Cartan integers from actual coroot brackets
2*mu([e,f])/nu([e,f]), and matches each Dynkin component
(``rootsys.dynkin_components``), at any rank, against the finite-type catalog
with ``rootsys.match_cartan``.  Accounting closes it: the simple weights have
the lattice rank of all weights, and the type's dimension is the subalgebra's
(which, with the centralizer's dimension, makes its root count the number of
weights).

Weights are integer tuples: each toral basis row is scaled to a primitive
integer row, a positive rescaling of each weight coordinate that changes
neither negation stability, decomposability, lattice rank nor signs, and a
root's weight is then one integer dot product per row against the root
system's pairing table.  The positivity functional gives the weight
coordinates the values (1, M, M^2, ...) with every entry below M in absolute
value; base-M digit uniqueness then guarantees it never vanishes on a nonzero
weight, and its sign is that of the last nonzero coordinate.
"""

from __future__ import annotations

import re
from operator import mul, neg, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactq import SpanSolver, _primitive, joint_eigenspace, rank, rref, span_kernel
from .autos import Automorphism
from .rootsys import BracketTable, StructureTable, _catalog_for_rank, dynkin_components, match_cartan

Coords = Tuple[int, ...]


class IdentifyError(Exception):
    """Identification pipeline failure (reported, never guessed around)."""


# ---------------------------------------------------------------------------
# Subalgebras
# ---------------------------------------------------------------------------

class Subalgebra(SpanSolver):
    """Exact RREF basis inside an ambient bracket table, closed under bracket.

    ``subalgebra_from_vectors`` checks closure; the whole algebra is closed.
    """

    __slots__ = ("table",)

    def __init__(self, table: StructureTable, rows, pivots):
        super().__init__(rows, pivots)
        self.table = table


def subalgebra_from_vectors(table: StructureTable, vectors: Sequence[dict]) -> Subalgebra:
    """The span of vectors as a Subalgebra; IdentifyError if it is not bracket-closed."""
    s = Subalgebra(table, *rref(vectors))
    escape = first_escape(table, s, s, s)
    if escape:
        raise IdentifyError(
            f"span is not bracket-closed: [row {escape[0]}, row {escape[1]}] escapes"
        )
    return s


def first_escape(table: BracketTable, xs: SpanSolver, ys: SpanSolver,
                 target: SpanSolver) -> Optional[Tuple[int, int]]:
    """First row pair (i, j) with [xs row i, ys row j] outside target, or None.

    The spans are any SpanSolvers in the coordinates of table, which gives
    the bracket.  The first row i with an escape is reported with its least
    escaping j.  When xs is ys only pairs i < j are bracketed, since the
    bracket is antisymmetric and vanishes on the diagonal.

    w is in target exactly when target's residual N has N(w) = 0, so the walk
    sums N of each bracket, and most terms of a closed span vanish early.
    """
    for i, acc in table.row_brackets(xs.rows, ys.rows, target.residual):
        bad = [j for j, w in acc.items() if w]
        if bad:
            return i, min(bad)
    return None


def fixed_subalgebra(table: StructureTable, autos: Sequence[Automorphism]) -> Subalgebra:
    """Joint fixed-point subalgebra of certified automorphisms.

    The empty list yields the whole algebra.  Membership of every pairwise
    bracket in the span is verified, not assumed.
    """
    dim = table.dim
    for a in autos:
        if not isinstance(a, Automorphism):
            raise IdentifyError("uncertified automorphism rejected")
        if a.table is not table:
            raise IdentifyError("automorphism acts on a different algebra")
    if not autos:  # the unit rows are already in RREF
        return Subalgebra(table, [{i: 1} for i in range(dim)], range(dim))
    vecs = joint_eigenspace(dim, [a.cols for a in autos])
    return subalgebra_from_vectors(table, vecs)


def center_of(s: Subalgebra) -> Subalgebra:
    """Elements of s commuting with all of s.

    Refines the candidate space one constraint at a time: intersecting with
    ker(ad b_j |_candidates) usually collapses the space after a few basis
    elements, so the linear systems stay small.
    """
    cur: List[dict] = list(s.rows)
    for target in s.rows:
        acc = next(s.table.row_brackets([target], cur))[1]  # acc[j] = [target, cur[j]]
        cur = span_kernel(cur, [acc.get(j, {}) for j in range(len(cur))])
    return subalgebra_from_vectors(s.table, cur)


# ---------------------------------------------------------------------------
# Reductive types
# ---------------------------------------------------------------------------

_SIMPLE_DIM = {"A": lambda n: n * (n + 2), "B": lambda n: n * (2 * n + 1),
               "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1),
               "E": {6: 78, 7: 133, 8: 248}, "F": {4: 52}, "G": {2: 14}}


def simple_dim(letter: str, rank: int) -> int:
    v = _SIMPLE_DIM[letter]
    return v[rank] if isinstance(v, dict) else v(rank)


class ReductiveType(NamedTuple):
    """Multiset of simple summands plus an abelian center dimension."""

    summands: Tuple[Tuple[str, int], ...]
    center_dim: int

    @staticmethod
    def make(summands: Sequence[Tuple[str, int]], center_dim: int) -> "ReductiveType":
        key = lambda s: (-simple_dim(*s), s[0], -s[1])
        return ReductiveType(tuple(sorted(summands, key=key)), center_dim)

    def dim(self) -> int:
        return sum(simple_dim(l, n) for l, n in self.summands) + self.center_dim

    def __str__(self) -> str:
        parts = [f"{l}{n}" for l, n in self.summands]
        if self.center_dim == 1:
            parts.append("u(1)")
        elif self.center_dim > 1:
            parts.append(f"{self.center_dim}u(1)")
        return "+".join(parts) if parts else "0"


_SUMMAND = re.compile(r"([A-G])([1-9][0-9]*)")
_CENTER = re.compile(r"([0-9]*)u\(1\)")


def type_dim(label: str) -> int:
    """Dimension of a reductive type label in the form identify_type prints.

    Reads labels such as 'D4+2u(1)', 'C3+A1', 'u(1)' and '0'.  Any other form
    ('A1+C3', 'B1', '1u(1)', 'foo') raises ValueError: no subalgebra is ever
    printed that way, so a search for it could never match.
    """
    summands: List[Tuple[str, int]] = []
    center = 0
    for part in [] if label == "0" else label.split("+"):
        m = _SUMMAND.fullmatch(part)
        c = _CENTER.fullmatch(part)
        if m and (m[1], int(m[2])) in _catalog_for_rank(int(m[2])):
            summands.append((m[1], int(m[2])))
        elif c:
            center += int(c[1] or 1)
        else:
            raise ValueError(f"malformed type label {label!r}: cannot read {part!r}")
    ty = ReductiveType.make(summands, center)
    if str(ty) != label:
        raise ValueError(f"type label {label!r} is not in canonical form; use {str(ty)!r}")
    return ty.dim()


# ---------------------------------------------------------------------------
# Weight decomposition and type identification
# ---------------------------------------------------------------------------

def _intersect_by_class(s: Subalgebra, cls_of: dict) -> Dict:
    """Basis of {v in s : support(v) within class c} for each class c.

    cls_of maps a coordinate to its class; unmapped coordinates are in none.
    In RREF every pivot column is zero in all other rows, so any member
    supported inside a class is a combination of rows whose pivot lies in
    it; one pass hands each row to its pivot's class, and the kernel of the
    projection onto the other coordinates cleans up tails that stick out.
    Classes come in sorted order, and a class that no pivot lies in, whose
    basis is empty, is left out.
    """
    cands: Dict = {}
    for piv, row in zip(s.pivots, s.rows):
        c = cls_of.get(piv)
        if c is not None:
            cands.setdefault(c, []).append(row)
    return {c: span_kernel(cand, [{j: x for j, x in row.items() if cls_of.get(j) != c}
                                  for row in cand])
            for c, cand in sorted(cands.items())}


def _int_row(h: dict, n: int) -> List[int]:
    """Dense primitive integer row proportional to a sparse Cartan vector."""
    p = _primitive(h.items())
    return [p.get(i, 0) for i in range(n)]


def identify_type(s: Subalgebra) -> ReductiveType:
    """Reductive isomorphism type (simple summands + center dimension).

    Precondition: s is bracket-closed, as every Subalgebra is.  So s holds
    its toral part t and is the direct sum of its t-weight spaces, the zero
    one being the centralizer of t.  t must be maximal toral in s; this is
    checked, and failure is an error rather than a silent regular-element
    search.
    """
    table = s.table
    rs = table.rs
    rank_amb = table.rank
    toral = _intersect_by_class(s, dict.fromkeys(range(rank_amb), 0)).get(0, [])
    t_dim = len(toral)

    # weights: ambient roots restricted to the integer toral rows; roots[npos + k] = -roots[k]
    rows = [_int_row(h, rank_amb) for h in toral]
    pos = list(zip(*[[sum(map(mul, h, p)) for p in rs.pairings[:rs.npos]] for h in rows]))
    classes: Dict[Coords, List[int]] = {}
    for ridx, mu in enumerate(pos + [tuple(map(neg, mu)) for mu in pos]):
        if any(mu):
            classes.setdefault(mu, []).append(ridx)
    parts = _intersect_by_class(s, {rank_amb + r: mu for mu, ridxs in classes.items()
                                    for r in ridxs})
    cdim = s.dim - sum(map(len, parts.values()))
    if cdim != t_dim:
        raise IdentifyError(
            f"Cartan part (dim {t_dim}) is not maximal toral: centralizer has dim {cdim}; "
            "a regular-element extension would be needed"
        )

    weight_vecs: Dict[Coords, dict] = {}
    weight_rep: Dict[Coords, int] = {}
    for mu, part in parts.items():
        if len(part) > 1:
            raise IdentifyError(f"weight multiplicity {len(part)} > 1 at {mu}")
        if part:
            weight_vecs[mu] = part[0]
            weight_rep[mu] = classes[mu][0]

    weights = sorted(weight_vecs)
    for mu in weights:
        if tuple(-x for x in mu) not in weight_vecs:
            raise IdentifyError(f"weight set is not negation-stable at {mu}")

    if not weights:
        return ReductiveType.make([], t_dim)

    # provably generic positivity functional, nonzero on every weight as its top
    # term outweighs the rest (M^i > (M-1)(M^(i-1)+...+1)).  A positive root that
    # is not simple is a simple root plus a positive root, both of smaller fval, so
    # in fval order mu is simple when mu - nu is positive for no simple nu found before
    M = 1 + max(abs(e) for mu in weights for e in mu)
    powers = [M**i for i in range(t_dim)]
    fval = {mu: sum(map(mul, mu, powers)) for mu in weights}
    simple: List[Coords] = []
    for mu in sorted((mu for mu in weights if fval[mu] > 0), key=fval.get):
        if not any(fval.get(tuple(map(sub, mu, nu)), 0) > 0 for nu in simple):
            simple.append(mu)

    # Cartan integers 2 mu(h)/nu(h) from coroot brackets h = [e_nu, f_nu],
    # each as an integer row (the ratio ignores the scale)
    coroot_elts: List[List[int]] = []
    for mu in simple:
        e = weight_vecs[mu]
        f = weight_vecs[tuple(-x for x in mu)]
        h = next(table.row_brackets([e], [f]))[1].get(0, {})
        if not h or any(j >= rank_amb for j in h):
            raise IdentifyError(f"coroot bracket escapes the Cartan at weight {mu}")
        coroot_elts.append(_int_row(h, rank_amb))

    def evaluate(ridx: int, h: List[int]) -> int:
        return sum(map(mul, h, rs.pairings[ridx]))

    C: List[List[int]] = []
    for mu in simple:
        row = []
        for nu, h in zip(simple, coroot_elts):
            denom = evaluate(weight_rep[nu], h)
            if denom == 0:
                raise IdentifyError(f"degenerate coroot at weight {nu}")
            val, rem = divmod(2 * evaluate(weight_rep[mu], h), denom)
            if rem:
                raise IdentifyError(f"non-integral Cartan pairing at ({mu}, {nu})")
            row.append(val)
        C.append(row)

    summands = [match_cartan([[C[i][j] for j in comp] for i in comp])
                for comp in dynkin_components(C)]

    # accounting invariants
    n = len(simple)
    # the simple weights span every weight: the loop above writes each other
    # positive one as a positive weight plus an earlier simple one
    if rank(dict(enumerate(mu)) for mu in simple) != n:
        raise IdentifyError("weight lattice rank disagrees with the simple system")
    center_dim = t_dim - n
    out = ReductiveType.make(summands, center_dim)
    if out.dim() != s.dim:
        raise IdentifyError(
            f"dimension accounting failed: {out} has dim {out.dim()}, subalgebra has {s.dim}"
        )
    return out
