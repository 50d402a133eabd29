"""Root systems from Cartan matrices and Chevalley bases.

Roots are built by height induction over root strings, so the closed root set
comes out of the Cartan matrix alone; each positive root carries its pairings
with the simple coroots, and the up-step a + alpha_i adds row i of the Cartan
matrix to them.  Inside this module a root is named by
its index in ``RootSystem.roots``; coordinate tuples appear only at the edges
(basis labels, error messages, JSON).  Each root has the integer key
sum_i m_i 64^i, so a sum or difference of roots is one integer addition and
one dict lookup.  The structure constants N(a,b)
follow the extraspecial-pair construction on root indices: positive roots are
ordered by height, then lexicographic coordinates, the extraspecial pair of
each non-simple positive root gets the positive sign, and every other constant
is forced by antisymmetry, the negation rule N(-a,-b) = -N(a,b), and the
three- and four-root relations.  The pairs a < b of each g = a + b have
ht(a) <= ht(g)/2, so only those a are looked up.  Each positive triple gives
the constants of all six of its sign variants at once, by the 3-cycle rule;
every pair is checked against |N| = p+1 in both orders (p the largest k with
b - k*a a root, and with a and b swapped, walked on the keys), and both
brackets [x_a, x_b] = N(a,b) x_{a+b} = -[x_b, x_a] are stored;
``n_constant`` reads N back from that one store.

``BracketTable`` is the one sparse antisymmetric bracket, inherited by the
Chevalley table.  It has one store of the nonzero brackets and one walk over
it, ``row_brackets``, behind the closure check and every bracket of two
vectors (``identify``'s center and coroots); ``realform``'s Killing traces
read the same store.  ``StructureTable.root_map_defects`` is the one
certificate of automorphisms: it checks a root map x_a -> eta_a x_w(a) with
one lookup per stored root pair, and its docstring proves that this covers
every basis pair.  ``dynkin_components`` is the one walk over a Dynkin diagram:
``validate_cartan`` carries integer root lengths along it and reads positive
definiteness from ``exactq.symmetric_inertia``, and ``cartan_isomorphisms``
places nodes in its order, a backtracking walk behind diagram symmetries and
``match_cartan``, which names a connected Cartan matrix's simple type.

Conventions, fixed once and used everywhere:
  - cartan[i][j] = <alpha_i, alpha_j^vee>  (column j carries the coroot)
  - pairings[k][j] = <alpha, alpha_j^vee> = sum_i m_i cartan[i][j], alpha = roots[k]
  - basis order of a structure table: h_1..h_l, then x_a for positive a in
    canonical order, then x_{-a} mirrored.  This order is part of the public
    contract; automorphism matrices are comparable across runs because of it.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, eq, mul
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .exactq import axpy, symmetric_inertia

Coords = Tuple[int, ...]


class CartanMatrixError(ValueError):
    """Raised for matrices that are not valid finite-type Cartan matrices."""


# ---------------------------------------------------------------------------
# Cartan matrix catalog
# ---------------------------------------------------------------------------

# Largest rank cartan_matrix accepts.  The largest tables, B32 and C32 (dim
# 2080), build in 0.56-0.58 s and 0.56-0.68 s, each with 82 MB peak RSS, in
# its own process (three runs each, 2-core host, Python 3.11); their stored
# brackets grow as the cube of the rank (B16: 33,936, B32: 267,536).
MAX_RANK = 32


def cartan_matrix(label: str) -> Tuple[Tuple[int, ...], ...]:
    """Standard Cartan matrix for a simple type label like 'A3', 'E6', 'G2'.

    The rank is checked against MAX_RANK before anything is allocated.
    """
    letter, digits = label[:1].upper(), label[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise CartanMatrixError(
            f"malformed type label {label!r}: expected a letter and a rank, e.g. E6"
        )
    # a rank longer than MAX_RANK's digits is out of range; int() of thousands
    # of digits would raise its own ValueError
    significant = digits.lstrip("0")
    rank = int(significant or "0") if len(significant) <= len(str(MAX_RANK)) else MAX_RANK + 1
    if rank < 1:
        raise CartanMatrixError(f"type label {label!r}: rank must be at least 1")
    if rank > MAX_RANK:
        raise CartanMatrixError(f"type label {label!r}: rank must be at most {MAX_RANK}")
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if letter == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif letter == "B":
        if rank < 2:
            raise CartanMatrixError("B requires rank >= 2")
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -2, -1)  # last simple root short
    elif letter == "C":
        if rank < 2:
            raise CartanMatrixError("C requires rank >= 2")
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -1, -2)  # last simple root long
    elif letter == "D":
        if rank < 3:
            raise CartanMatrixError("D requires rank >= 3")
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise CartanMatrixError("E requires rank 6, 7 or 8")
        # Bourbaki numbering: node 2 hangs off node 4 of the chain 1-3-4-5-...
        chain = [0, 2, 3] + list(range(4, rank))
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif letter == "F":
        if rank != 4:
            raise CartanMatrixError("F requires rank 4")
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    elif letter == "G":
        if rank != 2:
            raise CartanMatrixError("G requires rank 2")
        edge(0, 1, -1, -3)
    else:
        raise CartanMatrixError(f"unknown type letter {letter!r}")
    return tuple(tuple(r) for r in A)


def dynkin_components(A: Sequence[Sequence[int]]) -> List[List[int]]:
    """The connected components of A's Dynkin diagram (i ~ j when A[i][j] != 0).

    Each is in breadth-first order from its least node, so every node after
    the first has an earlier neighbour; components come in order of least node.
    """
    comps: List[List[int]] = []
    for start in range(len(A)):
        if all(start not in c for c in comps):
            comp = [start]
            for i in comp:  # grows while it is read
                comp += [j for j in range(len(A)) if A[i][j] and j not in comp]
            comps.append(comp)
    return comps


def _symmetrizer(A: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Integer lengths L_i = (a_i, a_i)/2 with A[i][j] * L_j = A[j][i] * L_i.

    Each component starts at 1, and each node after its first is set from an
    earlier neighbour, an inexact quotient scaling the nodes placed so far.
    On a finite type a quotient is inexact only as L_i / d with d = 2 or 3
    not dividing L_i, so each component stays primitive, its shortest roots at 1.
    """
    L = [0] * len(A)
    for comp in dynkin_components(A):
        L[comp[0]] = 1
        for k, j in enumerate(comp[1:], 1):
            i = next(i for i in comp[:k] if A[i][j])
            if A[j][i] * L[i] % A[i][j]:
                for w in comp[:k]:
                    L[w] *= abs(A[i][j])
            L[j] = A[j][i] * L[i] // A[i][j]
    if any(x * L[j] != A[j][i] * L[i] for i, row in enumerate(A) for j, x in enumerate(row)):
        raise CartanMatrixError("matrix is not symmetrizable")
    return tuple(L)


def validate_cartan(A: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Check finite-type axioms; return the symmetrizer lengths.

    Rejects with a diagnostic naming the failed axiom: integrality, diagonal,
    sign pattern, zero symmetry, symmetrizability, or positive definiteness.
    """
    n = len(A)
    for i, row in enumerate(A):
        if len(row) != n:
            raise CartanMatrixError("matrix is not square")
        for j, x in enumerate(row):
            if not isinstance(x, int):
                raise CartanMatrixError(f"entry ({i},{j}) is not an integer")
            if i == j and x != 2:
                raise CartanMatrixError(f"diagonal entry ({i},{i}) = {x} != 2")
            if i != j and x > 0:
                raise CartanMatrixError(f"off-diagonal entry ({i},{j}) = {x} > 0")
            if i != j and (x == 0) != (A[j][i] == 0):
                raise CartanMatrixError(f"zero pattern not symmetric at ({i},{j})")
    L = _symmetrizer(A)
    # positive definiteness of the integer symmetrization S[i][j] = A[i][j] * L[j]
    inertia = symmetric_inertia([{j: x * L[j] for j, x in enumerate(row) if x} for row in A])
    if inertia != (n, 0, 0):
        raise CartanMatrixError(
            f"symmetrized matrix not positive definite (inertia {inertia}); "
            "not a finite-type Cartan matrix"
        )
    return L


def cartan_isomorphisms(A: Sequence[Sequence[int]],
                        C: Sequence[Sequence[int]]) -> Iterator[Tuple[int, ...]]:
    """Every permutation p with A[p[i]][p[j]] == C[i][j], for n x n A and C.

    C's nodes are placed in breadth-first order, one component after another;
    each goes to an unused node of A whose entries against every node placed
    so far match C's in both directions, and the walk backtracks when no node
    fits.  Each p passes the full entrywise check before it is yielded.
    """
    n = len(C)
    order = [v for comp in dynkin_components(C) for v in comp]
    return _place(A, C, order, [0] * n, [False] * n, 0)


def _place(A, C, order: List[int], p: List[int], used: List[bool],
           k: int) -> Iterator[Tuple[int, ...]]:
    """The relabelings that extend p on order[:k], placing order[k] next;
    used marks the nodes of A that p takes."""
    n = len(C)
    if k == n:
        if all(A[p[i]][p[j]] == C[i][j] for i in range(n) for j in range(n)):
            yield tuple(p)
        return
    v = order[k]
    for u in range(n):
        p[v] = u  # checked against itself too, for the diagonal
        if not used[u] and all(A[u][p[w]] == C[v][w] and A[p[w]][u] == C[w][v]
                               for w in order[:k + 1]):
            used[u] = True
            yield from _place(A, C, order, p, used, k + 1)
            used[u] = False


def _catalog_for_rank(n: int) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = [("A", n)]
    if n >= 2:
        out.append(("B", n))
    if n >= 3:
        out.append(("C", n))
    if n >= 4:
        out.append(("D", n))
    if n in (6, 7, 8):
        out.append(("E", n))
    if n == 4:
        out.append(("F", 4))
    if n == 2:
        out.append(("G", 2))
    return out


def match_cartan(A: Sequence[Sequence[int]]) -> Tuple[str, int]:
    """Simple type label of a Cartan matrix, up to simultaneous permutation.

    B2 is reported for the rank-2 double-bond matrix (C2 is the same type)
    and A3 for the D3 presentation; first match in catalog order A..G wins.
    A match passes the entrywise check against a catalog matrix, so it is
    valid; any other A, finite type or not, raises "no finite-type match".
    A non-int entry is rejected first, in validate_cartan's words.
    """
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if not isinstance(x, int):
                raise CartanMatrixError(f"entry ({i},{j}) is not an integer")
    sig = sorted(tuple(sorted(row)) for row in A)
    for letter, r in _catalog_for_rank(len(A)):
        C = cartan_matrix(f"{letter}{r}")
        if sorted(tuple(sorted(row)) for row in C) != sig:
            continue
        if next(cartan_isomorphisms(A, C), None) is not None:
            return (letter, r)
    raise CartanMatrixError(f"no finite-type match for Cartan matrix {A}")


# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------

class Root(NamedTuple):
    coords: Coords
    height: int


class RootSystem:
    """The closed root set of a finite-type Cartan matrix.

    ``roots`` lists positives in (height, lex) order, then their negatives in
    the mirrored order; ``pairings[k][i]`` is <roots[k], alpha_i^vee>.
    ``keys[k]`` is the key of roots[k], ``key_index`` maps it back to k; it
    is injective for coefficients below 32 in absolute value, and those of a
    root or a sum of two roots are at most 12.  ``norms[k]`` is the integer
    (roots[k], roots[k]) up to one factor per component (``validate_cartan``'s
    ``lengths``).  ``simple[i]`` is the index of alpha_i, and simple[i] + npos
    that of -alpha_i.
    """

    def __init__(self, cartan: Sequence[Sequence[int]]):
        lengths = validate_cartan(cartan)
        self.cartan: Tuple[Tuple[int, ...], ...] = tuple(tuple(r) for r in cartan)
        self.rank = len(self.cartan)
        self.lengths = lengths
        self._place = tuple(64 ** i for i in range(self.rank))
        pos = sorted(self._close_positive_roots().items(), key=lambda kv: (sum(kv[1][0]), kv[1][0]))
        roots: List[Root] = [Root(c, sum(c)) for _, (c, _) in pos]
        roots += [Root(tuple(-x for x in r.coords), -r.height) for r in roots]
        self.roots: Tuple[Root, ...] = tuple(roots)
        self.npos = len(pos)
        # height 1 comes first in lexicographic order: alpha_i is roots[rank-1-i]
        self.simple: Tuple[int, ...] = tuple(range(self.rank - 1, -1, -1))
        self.keys: Tuple[int, ...] = tuple(k for k, _ in pos) + tuple(-k for k, _ in pos)
        self.key_index: Dict[int, int] = {k: i for i, k in enumerate(self.keys)}
        ps = [p for _, (_, p) in pos]
        self.pairings: Tuple[Tuple[int, ...], ...] = tuple(ps + [tuple(-x for x in p) for p in ps])
        # (a, a) = sum_i m_i (a, alpha_i) = sum_i m_i L_i <a, alpha_i^vee> = (-a, -a)
        norms = [sum(map(mul, r.coords, map(mul, lengths, p))) for r, p in zip(roots, ps)]
        self.norms: Tuple[int, ...] = tuple(norms + norms)

    def _close_positive_roots(self) -> Dict[int, Tuple[Coords, Tuple[int, ...]]]:
        """key -> (coordinates, pairings) of every positive root, by height.

        The up-step a + alpha_i adds row i of the Cartan matrix to a's pairings.
        """
        rank, A, place = self.rank, self.cartan, self._place
        found = {place[i]: (tuple(int(j == i) for j in range(rank)), A[i]) for i in range(rank)}
        frontier = list(found)
        # no finite type of rank r has more than r * max(r, 15) positive roots
        # (B_r and C_r have r * r, E8 has 8 * 15), whatever its components
        cap = rank * max(rank, 15)
        while frontier:
            new: List[int] = []
            for ka in frontier:
                a, ps = found[ka]
                for i, step in enumerate(place):
                    # p = how far the string a, a - alpha_i, ... continues down
                    p, down = 0, ka - step
                    while down in found:
                        p, down = p + 1, down - step
                    if p > ps[i] and ka + step not in found:
                        found[ka + step] = (a[:i] + (a[i] + 1,) + a[i + 1:], tuple(map(add, ps, A[i])))
                        new.append(ka + step)
            frontier = new
            if len(found) > cap:
                raise CartanMatrixError("root set does not close; not finite type")
        return found

    def coroot(self, k: int) -> Tuple[int, ...]:
        """H_alpha of roots[k] as an integer combination of the simple coroots."""
        norm, coords = self.norms[k], self.roots[k].coords
        out = []
        for m, L in zip(coords, self.lengths):
            c, rem = divmod(2 * m * L, norm)
            if rem:
                raise ArithmeticError(f"non-integral coroot coefficient for {coords}")
            out.append(c)
        return tuple(out)


def build_root_system(cartan: Sequence[Sequence[int]]) -> RootSystem:
    """Construct the full root system; rejects non-finite-type input."""
    return RootSystem(cartan)


# ---------------------------------------------------------------------------
# Sparse bracket tables
# ---------------------------------------------------------------------------

class BracketTable:
    """Sparse exact antisymmetric bracket on the basis indices 0..dim-1.

    ``_adj[i][j]`` is [e_i, e_j] as a tuple of (index, coefficient) terms,
    stored for both orders (the (j, i) entry is the negated tuple) and only
    when nonzero, so ``_adj[i]`` lists exactly the basis vectors with a
    nonzero bracket against e_i, in ascending order.  It is the one store;
    ``brackets`` lists its i < j half.  No diagonal bracket is ever stored.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._adj: List[Dict[int, Tuple[Tuple[int, int], ...]]] = [{} for _ in range(dim)]

    def brackets(self) -> Iterator[Tuple[int, int, Tuple[Tuple[int, int], ...]]]:
        """(i, j, [e_i, e_j]) for every nonzero bracket with i < j, in index order."""
        return ((i, j, terms) for i, row in enumerate(self._adj)
                for j, terms in row.items() if j > i)

    def pair_bracket(self, i: int, j: int) -> Tuple[Tuple[int, int], ...]:
        """[e_i, e_j] as a sparse coefficient tuple."""
        return self._adj[i].get(j, ())

    def row_brackets(self, xs: Sequence[dict], ys: Sequence[dict], residual=None):
        """Yield (i, acc) with acc[j] = [xs[i], ys[j]] for every j (j > i if xs is ys).

        All j are accumulated at once from the nonzero brackets [e_k, e_l], k
        in supp(xs[i]) and l in supp(ys[j]).  A j reached by none is absent
        and brackets to zero; a reached j may hold an empty vector.

        ``residual`` maps basis indices c to the terms of N(e_c), for a linear
        N fixing every other e_m; acc[j] is then N([xs[i], ys[j]]).  Each
        [e_k, e_l] the walk can reach goes through N once, and zeros are dropped.
        """
        adj = self._adj
        at: List[List[Tuple[int, object]]] = [[] for _ in range(self.dim)]  # (j, ys[j][l]) at l
        for j, y in enumerate(ys):
            for l, b in y.items():
                at[l].append((j, b))
        if residual is not None:
            reduced = {}
            for k in {k for x in xs for k in x}:
                reduced[k] = row = {}
                for l, terms in adj[k].items():
                    if not at[l]:
                        continue
                    # most brackets have one term, N(t e_r) = t N(e_r): with a dict
                    # and axpy for each, this walk was no faster than testing whole
                    # brackets with SpanSolver.contains (2-core host, Python 3.11)
                    if len(terms) == 1:
                        (r, t), = terms
                        nr = residual.get(r)
                        if nr is None:
                            row[l] = terms
                        elif nr:
                            row[l] = tuple((m, t * u) for m, u in nr)
                        continue
                    nk: dict = {}
                    for r, t in terms:
                        axpy(nk, t, residual.get(r, ((r, 1),)))
                    if nk:
                        row[l] = tuple(nk.items())
            adj = reduced
        for i, x in enumerate(xs):
            low = i + 1 if xs is ys else 0  # antisymmetric, zero on the diagonal
            acc: Dict[int, dict] = defaultdict(dict)
            # inline, not exactq.axpy: axpy made this walk over the columns
            # of the six E6 Weyl lifts 3.26 -> 3.42 ms (best of 40, 2-core
            # host, Python 3.11)
            for k, a in x.items():
                for l, terms in adj[k].items():
                    for j, b in at[l]:
                        if j >= low:
                            out = acc[j]
                            ab = a * b
                            for r, t in terms:
                                nv = out.get(r, 0) + ab * t
                                if nv:
                                    out[r] = nv
                                else:
                                    del out[r]
            yield i, acc


class StructureTable(BracketTable):
    """Sparse exact bracket table of a Chevalley basis.

    Basis: indices 0..rank-1 are the simple coroots h_i, index rank+k is the
    root vector of roots[k].  ``extraspecial[g]`` is the extraspecial pair
    (a, b) of each non-simple positive root g = a + b, all three root indices.
    """

    def __init__(self, rs: RootSystem):
        super().__init__(rs.rank + len(rs.roots))
        self.rs = rs
        self.rank = rs.rank
        self.npos = rs.npos
        self.extraspecial: Dict[int, Tuple[int, int]] = {}
        self._fill()

    def _fill(self) -> None:
        """Constants and brackets on root indices; -a is a +- npos."""
        rs, rank, npos = self.rs, self.rank, self.npos
        cs, keys, at, norms = [r.coords for r in rs.roots], rs.keys, rs.key_index, rs.norms
        hts, adj = [r.height for r in rs.roots], self._adj
        # x[a][b] = [x_a, x_b] for the roots b with a + b a root or 0, in the
        # order found; the rows go into _adj sorted at the end
        x: List[Dict[int, Tuple[Tuple[int, int], ...]]] = [{} for _ in keys]

        def n(a: int, b: int) -> int:
            """N(a, b) for root indices whose sum is a root, once stored."""
            return x[a][b][0][1]

        # [x_a, x_-a] = H_a
        for a in range(npos):
            h = tuple((i, c) for i, c in enumerate(rs.coroot(a)) if c)
            x[a][a + npos] = h
            x[a + npos][a] = tuple((i, -c) for i, c in h)
        # special pairs, height-major; roots 0..rank-1 are the simple roots, and
        # the first `half` roots those of height <= ht(g)/2
        half = 0
        for g in range(rank, npos):
            kg = keys[g]
            while 2 * hts[half] <= hts[g]:
                half += 1
            pairs = [(a, b) for a in range(half) if (b := at.get(kg - keys[a], -1)) > a]
            ea, eb = pairs[0]  # extraspecial: minimal first member
            self.extraspecial[g] = (ea, eb)
            # p + 1 by its own walk, apart from the check's
            p, down = 1, keys[eb] - keys[ea]
            while down in at:
                p, down = p + 1, down - keys[ea]
            for a, b in pairs:
                v = p
                if a != ea:
                    # N(a,b) = (t1/|d1|^2 + t2/|d2|^2) |g|^2 / N(ea,eb) as num/den;
                    # each N read here is a sign variant of a triple summing to
                    # a root of lower height than g, so it is stored
                    num, den = 0, 1
                    d1 = at.get(keys[eb] - keys[a])
                    if d1 is not None:
                        num, den = n(eb, a + npos) * n(ea, b + npos), norms[d1]
                    d2 = at.get(keys[ea] - keys[a])
                    if d2 is not None:
                        num = num * norms[d2] + n(a + npos, ea) * n(eb, b + npos) * den
                        den *= norms[d2]
                    v, rem = divmod(num * norms[g], den * p)
                    if rem:
                        raise ArithmeticError(f"non-integral constant at {cs[a]} + {cs[b]} = {cs[g]}")
                # a + b - g = 0: the 3-cycle rule N(a,b)/|g|^2 = N(b,-g)/|a|^2 =
                # N(-g,a)/|b|^2 and N(-u,-w) = -N(u,w) give the other five sign
                # variants from v: (a,b) -> g: v, (-a,-b) -> -g: -v,
                # (b,-g) -> -a: s = v|a|^2/|g|^2, (a,-g) -> -b: -t with
                # t = v|b|^2/|g|^2, (g,-b) -> a: s and (g,-a) -> b: -t
                ng = g + npos
                s, rem = divmod(v * norms[a], norms[g])
                if rem:
                    raise ArithmeticError(f"non-integral constant for {cs[b]}, {cs[ng]}")
                t, rem = divmod(v * norms[b], norms[g])
                if rem:
                    raise ArithmeticError(f"non-integral constant for {cs[ng]}, {cs[a]}")
                na, nb = a + npos, b + npos
                for u, w, c, val in ((a, b, g, v), (na, nb, ng, -v), (b, ng, na, s),
                                     (a, ng, nb, -t), (g, nb, a, s), (g, na, b, -t)):
                    # |N| = p + 1 for both orders (pw roots w - u, w - 2u, ...,
                    # pu roots u - w, ...); nonzero by the check, and off the
                    # diagonal: 2a is never a root
                    ku, kw = keys[u], keys[w]
                    pw, down = 0, kw - ku
                    while down in at:
                        pw, down = pw + 1, down - ku
                    pu, down = 0, ku - kw
                    while down in at:
                        pu, down = pu + 1, down - kw
                    if not pw == pu == abs(val) - 1:
                        u, w, pw = (u, w, pw) if pw != abs(val) - 1 else (w, u, pu)
                        raise ArithmeticError(
                            f"|N{cs[u]},{cs[w]}| = {abs(val)} != p+1 = {pw + 1}")
                    x[u][w] = ((rank + c, val),)
                    x[w][u] = ((rank + c, -val),)
        # [h_i, x_a] = <a, alpha_i^vee> x_a
        for k, ps in enumerate(rs.pairings):
            for i, p in enumerate(ps):
                if p:
                    adj[i][rank + k] = ((rank + k, p),)
                    adj[rank + k][i] = ((rank + k, -p),)
        # then the partners of x_a, in ascending order like the h_i before them
        for a, row in enumerate(x):
            out = adj[rank + a]
            for b in sorted(row):
                out[rank + b] = row[b]

    def n_constant(self, a: int, b: int) -> int:
        """N(a,b) for root indices, read from [x_a, x_b] = N(a,b) x_{a+b}.

        0 when a + b is not a root, and when a + b = 0 (the bracket is then
        the coroot, in the Cartan).
        """
        terms = self._adj[self.rank + a].get(self.rank + b)
        return terms[0][1] if terms and terms[0][0] >= self.rank else 0

    def root_map_defects(self, img: Sequence[int],
                         etas: Sequence[Sequence[int]]) -> List[Optional[Tuple[int, int]]]:
        """For each eta in etas, the first basis pair (i, j), i < j, at which
        x_a -> eta[a] x_w(a), h_i -> H_w(alpha_i) with w = img is no
        homomorphism, or None where it is one.

        img, a permutation of the root indices, is shared; each eta holds ints.
        The checks, in this order, name these pairs:
          1. w(-a) = -w(a), at (x_a, x_-a);
          2. <w alpha_i, (w alpha_j)^vee> = <alpha_i, alpha_j^vee>, at (h_j, x_alpha_i);
          3. eta_a eta_-a = 1, at (x_a, x_-a);
          4. for each stored [x_a, x_b] = N(a, b) x_c, in basis order, one
             lookup finds [x_wa, x_wb] = N' x_wc with N' = +-N(a, b), so
             w(a + b) = wa + wb, and eta_a eta_b N' = eta_c N(a, b) holds.
        Each member's signs are one bit, so check 4 costs a member one XOR per
        pair, and for the identity img, as for every torus grading, only the
        XOR is left.

        They cover every basis pair.  By check 4 on the extraspecial pairs
        and check 1, w is the restriction of a linear map W of the root
        lattice, and W permutes the roots, as w does; so W(a + b) = wa + wb is
        a root or zero exactly when a + b is, and a pair that brackets to zero
        stays zero.  <wb, (w alpha_i)^vee> is additive in b, so check 2 holds
        for every root b: that is [h_i, x_b].  [h_i, h_j] = 0 on both sides.
        [x_a, x_-a] = H_a holds for simple a by check 3 and the image of h_i;
        for g = a + b with (a, b) extraspecial, Jacobi writes [[x_a, x_b],
        x_-g] through [x_a, x_-a], [x_b, x_-b] and brackets check 4 covers, so
        it holds by induction on height.
        """
        rs, rank, npos, adj = self.rs, self.rank, self.npos, self._adj
        out: List[Optional[Tuple[int, int]]] = [None] * len(etas)
        full, bad = (1 << len(etas)) - 1, 0

        def fail(f: int, i: int, j: int) -> bool:
            """Name (i, j) for the members in f not failed yet; True once all have."""
            nonlocal bad
            for m in range(len(out)):
                if (f & ~bad) >> m & 1:
                    out[m] = (i, j)
            bad |= f
            return bad == full

        for a in range(npos):
            if img[a + npos] != (img[a] + npos) % (2 * npos):
                fail(full, rank + a, rank + a + npos)
                return out
        cor = [rs.coroot(img[s]) for s in rs.simple]
        for j, c in enumerate(cor):
            for i, s in enumerate(rs.simple):
                if sum(map(mul, rs.pairings[img[s]], c)) != rs.cartan[i][j]:
                    fail(full, j, rank + s)
                    return out
        for m, eta in enumerate(etas):
            if eta[:npos] != eta[npos:] or not {1, -1}.issuperset(eta):
                k = next(k for k in range(npos) if eta[k] * eta[k + npos] != 1)
                fail(1 << m, rank + k, rank + k + npos)
        if bad == full:
            return out
        bits = [0] * rank + [sum((s < 0) << m for m, s in enumerate(col)) for col in zip(*etas)]
        if all(map(eq, img, range(2 * npos))):
            for i in range(rank, self.dim):
                bi = bits[i]
                for j, terms in adj[i].items():
                    if j > i:  # for [x_a, x_-a], an h term with bit 0: check 3 again
                        f = bi ^ bits[j] ^ bits[terms[0][0]]
                        if f and fail(f, i, j):
                            return out
            return out
        perm = [*range(rank), *(rank + m for m in img)]
        for i in range(rank, self.dim):
            image_row, bi = adj[perm[i]], bits[i]
            for j, terms in adj[i].items():
                k, c = terms[0]
                if j > i and k >= rank:  # [x_a, x_-a] is checks 1 and 3
                    d = image_row.get(perm[j], ((0, 0),))[0]
                    f = bi ^ bits[j] ^ bits[k]
                    if d != (perm[k], c):
                        f = f ^ full if d == (perm[k], -c) else full
                    if f and fail(f, i, j):
                        return out
        return out

    def basis_label(self, i: int) -> str:
        if i < self.rank:
            return f"h{i + 1}"
        r = self.rs.roots[i - self.rank]
        sign = "+" if r.height > 0 else "-"
        coords = ",".join(str(abs(c)) for c in r.coords)
        return f"x{sign}[{coords}]"


def chevalley_table(rs: RootSystem) -> StructureTable:
    """Integer Chevalley structure table with the extraspecial sign convention."""
    return StructureTable(rs)


# ---------------------------------------------------------------------------
# Serialization (golden-file schema)
# ---------------------------------------------------------------------------
# Schema: every number is a decimal string ("-3", "1/2") so files stay exact
# and never pass through floating point.
# RootSystem: {"cartan": [["2", ...], ...], "rank": "n", "npos": "n",
#              "roots": [{"coords": ["...", ...], "height": "h"}, ...]}
# StructureTable: {"rank": "n", "dim": "n", "roots": [["...", ...], ...],
#                  "brackets": [{"i": "i", "j": "j",
#                                "terms": [["k", "c"], ...]}, ...]}
# Basis indices: 0..rank-1 are the simple coroots, rank+k is the root vector
# of roots[k].  Brackets are listed for i < j in index order; absent pairs
# bracket to zero; [j, i] is the negation of [i, j].

def root_system_to_jsonable(rs: RootSystem) -> dict:
    return {
        "cartan": [[str(x) for x in row] for row in rs.cartan],
        "rank": str(rs.rank),
        "npos": str(rs.npos),
        "roots": [{"coords": [str(c) for c in r.coords], "height": str(r.height)} for r in rs.roots],
    }


def structure_table_to_jsonable(t: StructureTable) -> dict:
    brackets = [{"i": str(i), "j": str(j), "terms": [[str(k), str(c)] for k, c in terms]}
                for i, j, terms in t.brackets()]
    return {
        "rank": str(t.rank),
        "dim": str(t.dim),
        "roots": [[str(c) for c in r.coords] for r in t.rs.roots],
        "brackets": brackets,
    }
