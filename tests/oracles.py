"""Independent oracles used to freeze expected values.

Everything here is built from the classical 8-coordinate realization of the
E6 root system, with plain inner products.  No code from the package under
test is imported: root enumeration, positivity, torus fixed-space dimensions
(parity counts) and subsystem classification (ADE graph shapes) are all
derived separately, so agreement with the library is a genuine cross-check.
``chevalley_reference`` reads a ``RootSystem`` instance for its roots and
Cartan data and rebuilds the Chevalley table on coordinate tuples.
The references at the end read a bracket table only through its
``pair_bracket``: exp(ad x) as its power series, the generic all-pairs
homomorphism check and its check of one pair, the lexicographic closure
check with its own exact elimination (and, beside it, the closure walk that tests whole brackets with ``SpanSolver.contains``,
which reads the table's ``row_brackets``), the dimension
of a centralizer by the same elimination, the Killing form as a trace over
all pairs, and the antisymmetry, Jacobi and ad-invariance scans over all
basis pairs and triples; the sparse Jacobi scan, which visits only the
triples with a nonzero double bracket, also lists the table's
``brackets()``, and the grading check reads every stored term of its
``_adj`` with the root keys of its ``rs``.  ``cocycle_defect`` reads the same
store and only the roots and Cartan matrix of its ``rs``, and rebuilds every
bracket of a simply-laced type from Kac's sign cocycle.  ``pairing`` reads
only a root system's Cartan matrix, and ``cartan_symmetries_by_scan`` only a Cartan
matrix, trying all n! relabelings.  ``cartan_real_form_name`` names a real form from its
(complex type, compact type, signature) key by Cartan's rule, from type
labels alone.  ``torus_parity_type`` reads only a Cartan matrix: it names
the fixed type of a group of torus involutions on any simple type from the
rank, root count and long-root count of each component of its even roots.
``compose_cols`` multiplies sparse columns entry by entry, and
``compact_cols`` gives the columns of a map, certified or not, on a compact
basis by the compactness rule ``to_compact``, column by column, as the
library no longer does; ``compact_reference`` reads the compact brackets back by the same rule.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

HALF = Fraction(1, 2)

# the types the library is checked on against the tuple-keyed oracles
REFERENCE_TYPES = ["A1", "A2", "B2", "G2", "B3", "C3", "C4", "D4", "D5",
                   "B5", "F4", "A5", "E6", "E7", "E8"]

# Simple roots in the standard 8-coordinate realization, numbered so that the
# branch node is alpha_4 and the diagram involution swaps 1<->6, 3<->5.
SIMPLE_8D = (
    (HALF, -HALF, -HALF, -HALF, -HALF, -HALF, -HALF, HALF),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
)


def dot(x, y):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))


def e6_roots_8d():
    """All 72 roots: +-e_i +- e_j (i<j<=5) and the 32 half-integer roots."""
    roots = []
    for i, j in combinations(range(5), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [Fraction(0)] * 8
                v[i], v[j] = Fraction(si), Fraction(sj)
                roots.append(tuple(v))
    for signs in product((1, -1), repeat=5):
        if sum(1 for s in signs if s == -1) % 2 == 0:
            base = [HALF * s for s in signs] + [-HALF, -HALF, HALF]
            for outer in (1, -1):
                roots.append(tuple(outer * x for x in base))
    return roots


@lru_cache(maxsize=None)
def simple_coordinates(root):
    """Exact coordinates of a root over SIMPLE_8D (Gram-system solve), once per root."""
    n = 6
    G = [[dot(SIMPLE_8D[i], SIMPLE_8D[j]) for j in range(n)] for i in range(n)]
    b = [dot(root, SIMPLE_8D[i]) for i in range(n)]
    M = [row[:] + [b[i]] for i, row in enumerate(G)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        piv = M[c][c]
        M[c] = [x / piv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    coords = [M[i][n] for i in range(n)]
    assert all(x.denominator == 1 for x in coords)
    return tuple(int(x) for x in coords)


def pairing_parity_fixed_dim(bits):
    """dim of the fixed algebra of the torus involution with coefficients bits.

    Rank 6 for the Cartan plus the number of roots alpha with
    sum_i bits_i * (alpha, alpha_i) even; all E6 root lengths are 2, so the
    inner product equals the coroot pairing.
    """
    return joint_parity_fixed_dim([bits])


@lru_cache(maxsize=None)
def _root_pairings():
    """(alpha, alpha_i) over the simple roots alpha_i, as ints, for every root."""
    out = []
    for r in e6_roots_8d():
        ps = [dot(r, s) for s in SIMPLE_8D]
        assert all(p.denominator == 1 for p in ps)
        out.append(tuple(int(p) for p in ps))
    return tuple(out)


def joint_parity_fixed_dim(bit_vectors):
    """dim of the joint fixed algebra of the torus involutions bit_vectors.

    Rank 6 for the Cartan plus the number of roots alpha with
    sum_i bits_i * (alpha, alpha_i) even for every bit vector: a root vector
    is fixed by the group exactly when each generator fixes it.
    """
    return 6 + sum(
        all(sum(b * p for b, p in zip(bits, ps)) % 2 == 0 for bits in bit_vectors)
        for ps in _root_pairings()
    )


def torus_census_buckets():
    """Map fixed dim -> number of nonzero parity classes achieving it."""
    buckets = {}
    for bits in product((0, 1), repeat=6):
        if not any(bits):
            continue
        d = pairing_parity_fixed_dim(bits)
        buckets[d] = buckets.get(d, 0) + 1
    return buckets


def classify_even_subsystem(bits):
    """Type of the subsystem {alpha : parity pairing even}, by graph shape.

    Returns (sorted component labels, center dim): components are classified
    as A/D/E from their Dynkin graph (all subsystems here are simply laced).
    """
    # each root's pairings with SIMPLE_8D are computed once, by _root_pairings
    even = [
        r
        for r, ps in zip(e6_roots_8d(), _root_pairings())
        if sum(b * p for b, p in zip(bits, ps)) % 2 == 0
    ]
    coords = {r: simple_coordinates(r) for r in even}
    pos = [r for r in even if sum(coords[r]) > 0]
    posset = set(pos)
    simples = []
    for r in pos:
        decomposable = False
        for x in pos:
            rest = tuple(a - b for a, b in zip(r, x))
            if rest in posset:
                decomposable = True
                break
        if not decomposable:
            simples.append(r)
    n = len(simples)
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if dot(simples[i], simples[j]) != 0:
                adj[i].append(j)
                adj[j].append(i)
    seen, labels = set(), []
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        degs = sorted(len(adj[x]) for x in comp)
        k = len(comp)
        if all(d <= 2 for d in degs):
            labels.append(f"A{k}")
        elif degs.count(3) == 1:
            branch = next(x for x in comp if len(adj[x]) == 3)
            lens = []
            for nb in adj[branch]:
                ln, prev, cur = 1, branch, nb
                while True:
                    nxt = [y for y in adj[cur] if y != prev]
                    if not nxt:
                        break
                    prev, cur = cur, nxt[0]
                    ln += 1
                lens.append(ln)
            lens.sort()
            if lens[:2] == [1, 1]:
                labels.append(f"D{k}")
            elif lens[:2] == [1, 2]:
                labels.append(f"E{k}")
            else:
                labels.append(f"?{k}")
        else:
            labels.append(f"?{k}")
    return sorted(labels), 6 - n


def hand_kernel_2x2_ones():
    """Kernel direction of [[1,1],[1,1]] by hand elimination: x0 + x1 = 0."""
    return (Fraction(-1), Fraction(1))


def _add_scaled(acc, a, terms):
    """acc += a * terms, dropping entries that cancel to zero."""
    for k, x in terms:
        v = acc.get(k, 0) + a * x
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def _bracket(pb, u, v):
    """[u, v] of sparse vectors, expanded through pb over every pair of entries."""
    out = {}
    for k, a in u.items():
        for l, b in v.items():
            _add_scaled(out, a * b, pb(k, l))
    return out


def homomorphism_fails_at(table, cols, i, j):
    """[A e_i, A e_j] != A [e_i, e_j] for the sparse columns cols[k] = A e_k,
    both sides expanded through table.pair_bracket."""
    pb = table.pair_bracket
    cols = [{k: v for k, v in c.items() if v} for c in cols]
    rhs = {}
    for k, c in pb(i, j):
        _add_scaled(rhs, c, cols[k].items())
    return _bracket(pb, cols[i], cols[j]) != rhs


def first_homomorphism_defect(table, cols):
    """First basis pair (i, j), i < j, with [A e_i, A e_j] != A [e_i, e_j], or None.

    cols[j] is the sparse image A e_j.  Both sides are expanded through
    table.pair_bracket over every pair in lexicographic order; no other part
    of the table is read.
    """
    pb = table.pair_bracket
    cols = [{k: v for k, v in c.items() if v} for c in cols]
    for i in range(table.dim):
        for j in range(i + 1, table.dim):
            rhs = {}
            for k, c in pb(i, j):
                _add_scaled(rhs, c, cols[k].items())
            if _bracket(pb, cols[i], cols[j]) != rhs:
                return i, j
    return None


def apply_cols(cols, vec):
    """The sparse vector A vec for the columns cols[k] = A e_k, zeros dropped."""
    out = {}
    for k, v in vec.items():
        _add_scaled(out, v, cols[k].items())
    return out


def compose_cols(a, b):
    """The columns of a∘b (b applied first), each expanded by apply_cols."""
    return tuple(apply_cols(a, col) for col in b)


def exp_ad_cols(table, x):
    """exp(ad x) for a nilpotent x, column by column, every entry a Fraction.

    x is a sparse vector with int or Fraction coefficients.  Column j is the
    series sum_k (ad x)^k e_j / k!, each bracket expanded through
    table.pair_bracket; it stops at the first zero term.
    """
    pb = table.pair_bracket
    cols = []
    for j in range(table.dim):
        total, term, k = {j: Fraction(1)}, {j: Fraction(1)}, 1
        while term:
            if k > table.dim:  # (ad x)^dim is zero for a nilpotent x
                raise ValueError("ad x is not nilpotent")
            term = {r: Fraction(v, k) for r, v in _bracket(pb, x, term).items()}
            _add_scaled(total, 1, term.items())
            k += 1
        cols.append(total)
    return tuple(cols)


def _reduce(echelon, vec):
    """vec minus its components along the (pivot, row) pairs of echelon."""
    out = {k: Fraction(x) for k, x in vec.items() if x}
    for p, row in echelon:
        c = out.get(p)
        if c:
            _add_scaled(out, -c, row.items())
    return out


def _echelon(vectors):
    """(pivot, row) pairs spanning vectors: each row is 1 at its pivot and
    0 at the pivots of the rows before it, which are 0 at its pivot."""
    echelon = []
    for v in vectors:
        r = _reduce(echelon, v)
        if r:
            p = min(r)
            echelon.append((p, {k: x / r[p] for k, x in r.items()}))
    return echelon


def first_escape_reference(table, xs, ys, target):
    """First pair (i, j) in lexicographic order with [xs[i], ys[j]] outside
    the span of target, or None.  Only pairs i < j when xs is ys.

    xs, ys and target are sequences of sparse vectors.  Brackets go through
    table.pair_bracket; membership is tested by the elimination above.
    """
    pb = table.pair_bracket
    echelon = _echelon(target)
    for i, x in enumerate(xs):
        for j in range(i + 1 if xs is ys else 0, len(ys)):
            if _reduce(echelon, _bracket(pb, x, ys[j])):
                return i, j
    return None


def first_escape_by_membership(table, xs, ys, target):
    """First (i, least j) with [xs row i, ys row j] outside target, or None,
    by testing each whole bracket for membership.

    The closure walk as it was before it accumulated residuals: xs, ys and
    target are SpanSolvers, every [xs row i, ys row j] comes whole from
    table.row_brackets, and target.contains decides membership.  Only pairs
    i < j when xs is ys.
    """
    for i, acc in table.row_brackets(xs.rows, ys.rows):
        for j in sorted(acc):
            w = acc[j]
            if w and not target.contains(w):
                return i, j
    return None


def centralizer_dim(table, rows, toral):
    """dim of {x in span(rows) : [t, x] = 0 for every t in toral}.

    rows are linearly independent.  x = sum c_i rows[i] is central for toral
    exactly when c lies in the kernel of the map whose i-th column stacks
    the brackets [t, rows[i]], one block per t; the dimension is len(rows)
    minus that map's rank, the size of an echelon basis of its columns.
    Brackets go through table.pair_bracket.
    """
    pb = table.pair_bracket
    cols = [{(n, k): v for n, t in enumerate(toral) for k, v in _bracket(pb, t, x).items()}
            for x in rows]
    return len(rows) - len(_echelon(cols))


def killing_reference(table):
    """Sparse rows of B(e_i, e_j) = tr(ad e_i o ad e_j), keys ascending.

    ad[i][c] is the column [e_i, e_c], read from table.pair_bracket for
    every pair; the trace sums ad[j][c][m] * ad[i][m][c] over all m and c.
    """
    n = table.dim
    ad = [[dict(table.pair_bracket(i, c)) for c in range(n)] for i in range(n)]
    rows = []
    for i in range(n):
        row = {}
        for j in range(n):
            s = sum(v * ad[i][m].get(c, 0) for c in range(n) for m, v in ad[j][c].items())
            if s:
                row[j] = s
        rows.append(row)
    return rows


def verify_antisymmetry(t):
    """No diagonal brackets; the two stored orders of every pair negate each other."""
    for i in range(t.dim):
        if t.pair_bracket(i, i):
            return False
        for j in range(i + 1, t.dim):
            fwd = dict(t.pair_bracket(i, j))
            bwd = dict(t.pair_bracket(j, i))
            if fwd != {k: -c for k, c in bwd.items()}:
                return False
    return True


def jacobi_defect(t):
    """First basis triple violating Jacobi, or None.

    Scans unordered triples i < j < k.  Together with the antisymmetry of the
    operational bracket and bilinearity this covers all ordered triples:
    permuting a triple only permutes/negates the three summands, and a triple
    with a repeated element reduces to [[u,v],u] + [[v,u],u] = 0.
    """
    dim = t.dim
    pb = t.pair_bracket
    for i in range(dim):
        for j in range(i + 1, dim):
            uv = pb(i, j)
            for k in range(j + 1, dim):
                acc = {}
                for m, c in uv:  # [[i,j],k]
                    _add_scaled(acc, c, pb(m, k))
                for m, c in pb(j, k):  # [[j,k],i]
                    _add_scaled(acc, c, pb(m, i))
                for m, c in pb(k, i):  # [[k,i],j]
                    _add_scaled(acc, c, pb(m, j))
                if acc:
                    return (i, j, k)
    return None


def sparse_jacobi_defect(t):
    """jacobi_defect(t), visiting only the triples with a nonzero double bracket.

    [[e_i, e_j], e_k] is the sum of c [e_m, e_k] over the terms c e_m of
    [e_i, e_j], so it is nonzero only when [e_i, e_j] is and k is a partner
    of one of its m: some [e_m, e_k] is nonzero.  Every triple i < j < k
    with a nonzero double bracket among its three is therefore reached from
    the pair of that double bracket, through m to k, and its Jacobi sum is
    taken whole; a triple that is never reached has three zero double
    brackets, so its sum is zero.  Triples with a repeated index hold by
    antisymmetry, as in jacobi_defect.  The reached triples are checked in
    lexicographic order, so the first defect is jacobi_defect's.  Reads the
    table through its brackets() and pair_bracket.
    """
    pb = t.pair_bracket
    pairs = list(t.brackets())
    partners = defaultdict(set)
    for i, j, _ in pairs:
        partners[i].add(j)
        partners[j].add(i)
    triples = set()
    for i, j, terms in pairs:
        for m, _ in terms:
            triples.update(tuple(sorted((i, j, k))) for k in partners[m] if k != i and k != j)
    for i, j, k in sorted(triples):
        acc = {}
        for (a, b), c in (((i, j), k), ((j, k), i), ((k, i), j)):  # [[a, b], c]
            for m, v in pb(a, b):
                _add_scaled(acc, v, pb(m, c))
        if acc:
            return (i, j, k)
    return None


def grading_defect(t):
    """The first stored term (i, j, k) of [e_i, e_j] = ... + c e_k whose weight
    is not wt(e_i) + wt(e_j), or None.

    The weights are read off root keys: wt(x_a) is t.rs.keys[a], the sum of
    the coordinates of a weighted by powers of 64, and wt(h_i) is 0.  Keys
    add as the roots do, so a table passes exactly when [x_a, x_b] is a
    multiple of x_{a+b}, [x_a, x_-a] and [h_i, h_j] lie in the Cartan and
    [h_i, x_a] is a multiple of x_a.  Every stored term is read, in both
    orders, from the store t._adj itself.
    """
    wt = [0] * t.rank + list(t.rs.keys)
    for i, row in enumerate(t._adj):
        for j, terms in row.items():
            for k, _ in terms:
                if wt[k] != wt[i] + wt[j]:
                    return (i, j, k)
    return None


def cocycle_defect(t):
    """The basis pairs (i, j), i < j, where the simply-laced Chevalley table t
    differs from Kac's lattice construction, in index order; [] if none.

    Kac, Infinite-dimensional Lie algebras, 7.8 (after Frenkel and Kac):
    with m(a) the simple-root coordinates of a and M upper triangular, 1 on
    the diagonal and at each joined i < j, eps(a, b) = (-1)^(m(a)^T M m(b))
    is bimultiplicative with eps(a, a) = -1 on roots, and h + sum C E_a with
    [h_i, E_a] = <a, alpha_i^vee> E_a, [E_a, E_-a] = eps(a, -a) h_a and
    [E_a, E_b] = eps(a, b) E_{a+b} when a + b is a root (0 when it is not
    a root or 0) is the simple algebra of the type.  Any two Chevalley bases
    on one Cartan differ by signs x_a = s_a E_a (Carter, Simple Groups of Lie
    Type, 4.2).  The signs are read off t: s = 1 on the simple roots; for
    each other positive g, in height order, s_g = N(a, b) eps(a, b) s_a s_b
    on the first stored pair (a, b) of positive roots with a + b = g (the
    extraspecial pair, as t lists roots); and s_-a = eps(a, -a) s_a, so that
    [x_a, x_-a] = h_a.  Every bracket of t, in both orders, is then compared
    with that basis's, so no entry off this tree is taken on trust.

    [] therefore proves that t is the table of a Chevalley basis of the
    algebra.  Any other entry is reported where it stands: a coefficient
    other than +-1 between root vectors, a term off the root grading, a
    missing or extra bracket, a wrong [h_i, x_a] or [x_a, x_-a] (no choice
    of s moves them), and a wrong sign on a pair off the tree.  A wrong sign
    on a tree pair (a, b) flips s_g, and is reported at the entries with
    x_g or x_-g that it then contradicts, such as [x_g, x_-b] = +-x_a, not
    at (a, b) itself.  What it cannot see: a consistent re-choice of signs,
    which is a Chevalley basis again, so the library's convention that N is
    positive on extraspecial pairs is left to ``chevalley_reference``; a
    root missing from both rs.roots and the table, since the roots and the
    Cartan matrix are read from t.rs; and every type that is not simply
    laced (ValueError).
    """
    rs, rank, adj = t.rs, t.rank, t._adj
    A = rs.cartan
    if any(A[i][j] not in (0, -1) for i in range(rank) for j in range(rank) if i != j):
        raise ValueError("cocycle_defect needs a simply-laced type")
    cs = [r.coords for r in rs.roots]
    keys = [sum(m * 64 ** i for i, m in enumerate(c)) for c in cs]
    index = {k: a for a, k in enumerate(keys)}
    # bit i of lo[a] is m_i(a) mod 2, bit i of up[a] is (M m(a))_i mod 2
    lo = [sum((m & 1) << i for i, m in enumerate(c)) for c in cs]
    up = [sum((sum(c[j] for j in range(i, rank) if j == i or A[i][j]) & 1) << i
              for i in range(rank)) for c in cs]

    def eps(a, b):
        return -1 if (lo[a] & up[b]).bit_count() & 1 else 1

    pos = sorted((a for a, c in enumerate(cs) if min(c) >= 0), key=lambda a: sum(cs[a]))
    s = [1] * len(cs)
    for n, g in enumerate(pos):
        for a in pos[:n]:
            b = index.get(keys[g] - keys[a])
            terms = adj[rank + a].get(rank + b, ()) if b is not None else ()
            if len(terms) == 1 and terms[0][0] == rank + g:
                s[g] = (1 if terms[0][1] > 0 else -1) * eps(a, b) * s[a] * s[b]
                break
    for a in pos:
        na = index[-keys[a]]
        s[na] = eps(a, na) * s[a]
    want = [{} for _ in adj]
    for a, ka in enumerate(keys):
        i = rank + a
        for k in range(rank):
            p = sum(A[j][k] * m for j, m in enumerate(cs[a]))  # <a, alpha_k^vee>
            if p:
                want[k][i], want[i][k] = {i: p}, {i: -p}
        for b, kb in enumerate(keys):
            g = index.get(ka + kb)
            if ka + kb == 0:
                want[i][rank + b] = {k: m for k, m in enumerate(cs[a]) if m}
            elif g is not None:
                want[i][rank + b] = {rank + g: eps(a, b) * s[a] * s[b] * s[g]}
    return sorted({(min(i, j), max(i, j)) for i, (w, row) in enumerate(zip(want, adj))
                   for j in w.keys() | row.keys() if w.get(j) != dict(row.get(j, ()))})


def verify_jacobi(t):
    return jacobi_defect(t) is None


def verify_ad_invariance(t, killing):
    """B([u,v],w) + B(v,[u,w]) = 0 on all basis triples; killing is sparse rows."""
    dim = t.dim
    K = killing
    pb = t.pair_bracket
    for u in range(dim):
        for v in range(dim):
            uv = pb(u, v)
            for w in range(dim):
                s = 0
                for m, c in uv:
                    s += c * K[m].get(w, 0)
                for m, c in pb(u, w):
                    s += c * K[v].get(m, 0)
                if s:
                    return False
    return True


def root_inner(rs, a, b):
    """(a, b) for coordinate tuples a, b, from the symmetrized Cartan form.

    Only rs.cartan and rs.lengths are read: (alpha_i, alpha_j) is
    cartan[i][j] * lengths[j].
    """
    return sum(Fraction(m * n * rs.cartan[i][j]) * rs.lengths[j]
               for i, m in enumerate(a) for j, n in enumerate(b))


def pairing(rs, coords, i):
    """<alpha, alpha_i^vee> = sum_j m_j cartan[j][i] for the coordinate tuple alpha.

    Only rs.cartan is read.
    """
    return sum(m * rs.cartan[j][i] for j, m in enumerate(coords))


def chevalley_reference(rs):
    """(adj, n, extraspecial) of the Chevalley table of rs, on coordinate tuples.

    The extraspecial-pair construction of the library's table, kept as it
    was before the table moved to integer root keys: every root is a
    coordinate tuple, sums and root strings go through a set of tuples, and
    lengths are exact ``Fraction`` inner products of the symmetrized Cartan
    form.  Only rs.roots, rs.npos, rs.rank, rs.cartan and rs.lengths are
    read.  ``adj`` has the layout of ``BracketTable._adj``: adj[i][j] is
    [e_i, e_j] as (index, coefficient) terms, with keys in insertion order.
    """
    rank = rs.rank
    allroots = [r.coords for r in rs.roots]
    index = {c: k for k, c in enumerate(allroots)}
    pos = allroots[: rs.npos]
    order = {c: k for k, c in enumerate(pos)}

    def neg(a):
        return tuple(-x for x in a)

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    @lru_cache(maxsize=None)
    def length2(a):
        return root_inner(rs, a, a)

    def string_down(a, b):
        k, cur = 0, sub(b, a)
        while cur in index:
            k, cur = k + 1, sub(cur, a)
        return k

    special, memo = {}, {}

    def n(a, b):
        if (a, b) in memo:
            return memo[(a, b)]
        ap, bp = a in order, b in order
        if ap and bp:
            val = special[(a, b)] if order[a] < order[b] else -special[(b, a)]
        elif not ap and not bp:
            val = -n(neg(a), neg(b))
        elif not ap:
            val = -n(b, a)
        else:
            g = add(a, b)
            if g in order:
                v = -length2(g) / length2(a) * n(neg(b), g)
            else:
                v = length2(g) / length2(b) * n(neg(g), a)
            assert v.denominator == 1, (a, b)
            val = int(v)
        memo[(a, b)] = val
        return val

    extraspecial = {}
    for g in pos:
        if sum(g) < 2:
            continue
        pairs = sorted(((a, sub(g, a)) for a in pos
                        if sub(g, a) in order and order[a] < order[sub(g, a)]),
                       key=lambda ab: order[ab[0]])
        ea, eb = pairs[0]
        extraspecial[g] = (ea, eb)
        special[(ea, eb)] = string_down(ea, eb) + 1
        for a, b in pairs[1:]:
            t = Fraction(0)
            d1, d2 = sub(eb, a), sub(ea, a)
            if d1 in index:
                t += Fraction(n(eb, neg(a)) * n(ea, neg(b))) / length2(d1)
            if d2 in index:
                t += Fraction(n(neg(a), ea) * n(eb, neg(b))) / length2(d2)
            v = length2(g) / special[(ea, eb)] * t
            assert v.denominator == 1, (a, b)
            special[(a, b)] = int(v)

    nconst = {}
    for a in allroots:
        for b in allroots:
            if add(a, b) in index:
                nconst[(a, b)] = val = n(a, b)
                assert abs(val) == string_down(a, b) + 1, (a, b)

    adj = [{} for _ in range(rank + len(allroots))]

    def put(i, j, terms):
        terms = tuple((k, c) for k, c in terms if c)
        if terms:
            adj[i][j] = terms
            adj[j][i] = tuple((k, -c) for k, c in terms)

    for k, a in enumerate(allroots):
        for i in range(rank):
            put(i, rank + k, ((rank + k, pairing(rs, a, i)),))
    for k1, a in enumerate(allroots):
        for k2 in range(k1 + 1, len(allroots)):
            b = allroots[k2]
            s = add(a, b)
            if not any(s):
                half = length2(a) / 2
                coroot = [m * rs.lengths[i] / half for i, m in enumerate(a)]
                assert all(c.denominator == 1 for c in coroot), a
                put(rank + k1, rank + k2, ((i, int(c)) for i, c in enumerate(coroot)))
            elif s in index:
                put(rank + k1, rank + k2, ((rank + index[s], nconst[(a, b)]),))
    return adj, nconst, extraspecial


def to_compact(cb, x, e):
    """Compact coordinates of sqrt(-1)^e x for a rational Chevalley vector x:
    h_m goes to w_m, X_a to u_a for even e and to v_a for odd e, with the sign
    -1 when e is 2 mod 4.  A compact vector has coefficients z on X_a and
    -conj(z) on X_{-a} and an imaginary one on each h_m, so x must vanish on
    the Cartan for even e and be antisymmetric (even e) or symmetric (odd e)
    on every pair X_a, X_{-a}; AssertionError otherwise."""
    rank, npos = cb.rank, cb.npos
    out = {}
    for j, c in x.items():
        if j < rank:
            assert e % 2, (x, e)
            out[2 * npos + j] = -c if e % 4 >= 2 else c
        elif j < rank + npos:
            assert x.get(j + npos, 0) == (c if e % 2 else -c), (x, e)
            out[j - rank + npos * (e % 2)] = -c if e % 4 >= 2 else c
        else:
            assert j - npos in x, (x, e)
    return out


def compact_cols(cb, cols):
    """The columns on the compact basis of cb of the map with Chevalley
    columns cols: basis vector i is sqrt(-1)^e x with x rational, so its
    image sqrt(-1)^e A(x) is read back by ``to_compact``; AssertionError if
    an image leaves the compact form."""
    return tuple(to_compact(cb, apply_cols(cols, x), e) for e, x in cb.parts)


def compact_reference(cb):
    """(adj, killing) of a compact form: its brackets, which the library
    never stores, and its Killing form, by a generic route.

    One ``row_brackets`` walk brackets every pair of cb.parts on the Chevalley
    table; each bracket sqrt(-1)^(e_i + e_j) x is read back into compact
    coordinates by ``to_compact``, which checks that it is compact, and stored
    for both orders with its zero terms dropped.  The Killing form is the
    Chevalley trace, taken with ``defaultdict`` accumulators, carried through
    parts.  Reads cb.table (its _adj and row_brackets), cb.parts, cb.rank and
    cb.npos.
    """
    table = cb.table
    powers, xs = zip(*cb.parts)

    adj = [{} for _ in range(cb.dim)]
    for i, acc in table.row_brackets(xs, xs):
        for j in sorted(acc):
            bracket = to_compact(cb, acc[j], powers[i] + powers[j])
            terms = tuple((k, c) for k, c in bracket.items() if c)
            if terms:
                adj[i][j] = terms
                adj[j][i] = tuple((k, -c) for k, c in terms)
    into = [defaultdict(list) for _ in range(table.dim)]
    for j, row in enumerate(table._adj):
        for c, terms in row.items():
            for m, v in terms:
                into[c][m].append((j, v))
    B = []
    for row in table._adj:
        acc = defaultdict(int)
        for m, terms in row.items():
            for c, w in terms:
                for j, v in into[c].get(m, ()):
                    acc[j] += w * v
        B.append({j: acc[j] for j in sorted(acc) if acc[j]})
    holders = [[] for _ in range(table.dim)]
    for j, x in enumerate(xs):
        for q, c in x.items():
            holders[q].append((j, c))
    killing = []
    for i, x in enumerate(xs):
        acc = defaultdict(int)
        for p, a in x.items():
            for q, b in B[p].items():
                for j, c in holders[q]:
                    acc[j] += a * b * c
        assert not any(acc[j] and (powers[i] + powers[j]) % 2 for j in acc), i
        killing.append({j: acc[j] if powers[i] + powers[j] == 0 else -acc[j]
                        for j in sorted(acc) if acc[j]})
    return adj, killing


# -- real-form names by Cartan's rule ----------------------------------------------

EXCEPTIONAL_DIMS = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}


def _simple_dim(letter, n):
    if letter == "A":
        return n * (n + 2)
    if letter in "BC":
        return n * (2 * n + 1)
    if letter == "D":
        return n * (2 * n - 1)
    return EXCEPTIONAL_DIMS[(letter, n)]


def _parse_type(text):
    """(sorted simple summands as (letter, rank), center dim) of a label such as D4+2u(1)."""
    simple, center = [], 0
    for part in text.split("+"):
        if part.endswith("u(1)"):
            center += int(part[:-4] or 1)
        else:
            simple.append((part[0], int(part[1:])))
    return sorted(simple), center


def _so_type(m):
    """(simple summands, center dim) of so(m), by the low-rank isomorphisms."""
    if m < 2:
        return [], 0
    low = {2: ([], 1), 3: ([("A", 1)], 0), 4: ([("A", 1), ("A", 1)], 0), 5: ([("B", 2)], 0),
           6: ([("A", 3)], 0)}
    return low.get(m, ([("D", m // 2) if m % 2 == 0 else ("B", m // 2)], 0))


def cartan_real_form_name(g_type, k_type, k_dim, p_dim):
    """The real form with complex type g_type, maximal compact type k_type and
    signature (k_dim, p_dim) by Cartan's rule, or None where the rule names none.

    g_type is one simple type plus a center of c dimensions, taken to lie in
    k, which adds "+u(1)" c times; dim k + dim p must be dim g.  An exceptional
    type is named by its letter and rank with the index dim p - dim k of its
    simple part, as in e6(-14) (Helgason ch. X, Table V; Knapp App. C).  B_n
    and D_n are named so(p,q) (so(N) when q = 0) with p >= q, p + q = N the
    dimension of the standard representation and dim so(p) + dim so(q) =
    dim k - c, which must have exactly one solution, and k_type must then be
    so(p) + so(q) with the c central u(1).  A_n and C_n are outside the rule.
    """
    simple, center = _parse_type(g_type)
    if len(simple) != 1:
        return None
    (letter, n), = simple
    if k_dim + p_dim != _simple_dim(letter, n) + center:
        return None
    suffix = "+u(1)" * center
    if (letter, n) in EXCEPTIONAL_DIMS:
        return f"{letter.lower()}{n}({p_dim - (k_dim - center)}){suffix}"
    if letter not in "BD":
        return None
    N = 2 * n + 1 if letter == "B" else 2 * n
    solutions = [(p, N - p) for p in range(N - N // 2, N + 1)
                 if p * (p - 1) // 2 + (N - p) * (N - p - 1) // 2 == k_dim - center]
    if len(solutions) != 1:
        return None
    (p, q), = solutions
    (sp, cp), (sq, cq) = _so_type(p), _so_type(q)
    if _parse_type(k_type) != (sorted(sp + sq), cp + cq + center):
        return None
    return (f"so({p},{q})" if q else f"so({p})") + suffix


def cartan_symmetries_by_scan(cartan):
    """Every permutation p with A[p[i]][p[j]] == A[i][j], in lexicographic
    order, by trying all n! of them."""
    n = len(cartan)
    return [p for p in permutations(range(n))
            if all(cartan[p[i]][p[j]] == cartan[i][j] for i in range(n) for j in range(n))]


# -- the even-root subsystem of a torus involution, on any simple type ------------

@lru_cache(maxsize=None)
def positive_roots(cartan):
    """(m, k, p, long) for each positive root of the simple type with Cartan
    matrix cartan, a tuple of tuples.

    m are the root's coordinates over the simple roots, k those of its coroot
    over the simple coroots, p its pairings <m, alpha_i^vee>.  Every root is
    w(alpha_i) with coroot w(alpha_i^vee), so both close together from
    (e_i, e_i) under the simple reflections s_i(m) = m - <m, alpha_i^vee> e_i
    and s_i(k) = k - <alpha_i, k> e_i.  long says (m, m) = (t, t) for the
    highest root t: from g^vee = 2g/(g, g), k_i (g, g) = m_i (alpha_i, alpha_i),
    so (m, m)/(t, t) = m_i k'_i / (k_i m'_i) on any i where m is supported,
    (m', k') those of t.
    """
    n = len(cartan)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    found = {e: (e, row) for e, row in zip(unit, cartan)}  # m: (k, p)
    frontier = list(found)
    while frontier:
        new = []
        for m in frontier:
            k, p = found[m]
            for i in range(n):
                sm = m[:i] + (m[i] - p[i],) + m[i + 1:]
                if sm not in found:
                    b = sum(cartan[i][j] * k[j] for j in range(n))  # <alpha_i, k>
                    found[sm] = (k[:i] + (k[i] - b,) + k[i + 1:],
                                 tuple(x - p[i] * a for x, a in zip(p, cartan[i])))
                    new.append(sm)
        frontier = new
    pos = [m for m in found if sum(m) > 0]
    t = max(pos, key=sum)
    kt = found[t][0]
    out = []
    for m in pos:
        (k, p), i = found[m], next(i for i, x in enumerate(m) if x)
        out.append((m, k, p, m[i] * kt[i] == k[i] * t[i]))
    return tuple(out)


def _integer_rank(vectors):
    """Rank over the rationals of integer vectors, by fraction-free elimination."""
    basis = []  # (pivot, row): later rows are 0 at the pivots of earlier ones
    for v in vectors:
        for p, row in basis:
            if v[p]:
                v = [x * row[p] - y * v[p] for x, y in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            basis.append((p, v))
    return len(basis)


def _simple_type(rank, count, long_count):
    """(letter, rank) of the irreducible root system with these counts; A3 for
    D3 and B2 for C2, as the library prints them."""
    if long_count == count:
        if count == rank * (rank + 1):
            return "A", rank
        if count == 2 * rank * (rank - 1):
            return "D", rank
        if (rank, count) in ((6, 72), (7, 126), (8, 240)):
            return "E", rank
    elif count == 2 * rank * rank:
        if long_count == 2 * rank * (rank - 1):
            return "B", rank
        if long_count == 2 * rank:
            return "C", rank
    elif (rank, count, long_count) in ((4, 48, 24), (2, 12, 6)):
        return ("F", 4) if rank == 4 else ("G", 2)
    raise AssertionError(f"no irreducible root system of rank {rank} with {count} roots, "
                         f"{long_count} long")


def torus_parity_type(cartan, *bit_vectors):
    """(type label, dim) of the fixed algebra of the group that the involutions
    exp(pi i ad H_c), c in bit_vectors, generate on the simple type with
    Cartan matrix cartan; None when every root is fixed.

    The fixed algebra is the Cartan plus the roots E with alpha(H_c) =
    sum_i c_i <alpha, alpha_i^vee> even for every c (Kac, ch. 8): a root
    vector is fixed by the group exactly when each generator fixes it, so
    the dimension is the rank plus twice the positive roots in E.  E splits into
    irreducible components by non-orthogonality, <b, g^vee> != 0; each is
    named by its rank, its root count and its long-root count (all of them
    when it has no root long in the algebra), and the center is the rank of
    the algebra minus that of E.
    """
    n = len(cartan)
    pos = positive_roots(tuple(map(tuple, cartan)))
    even = [r for r in pos
            if all(sum(b * x for b, x in zip(bits, r[2])) % 2 == 0 for bits in bit_vectors)]
    if len(even) == len(pos):
        return None
    summands, rest = [], even
    while rest:
        comp, rest = rest[:1], rest[1:]
        for _, _, p, _ in comp:  # grows while it is read
            near, rest = _split(rest, lambda g: sum(x * y for x, y in zip(p, g[1])))
            comp += near
        count, nlong = 2 * len(comp), 2 * sum(r[3] for r in comp)
        summands.append(_simple_type(_integer_rank(r[0] for r in comp), count, nlong or count))
    center = n - sum(r for _, r in summands)
    summands.sort(key=lambda s: (-_simple_dim(*s), s[0], -s[1]))
    parts = [f"{l}{r}" for l, r in summands]
    if center:
        parts.append(f"{center if center > 1 else ''}u(1)")
    return "+".join(parts) or "0", n + 2 * len(even)


def _split(xs, test):
    """(the xs that pass test, the others), each in order."""
    out = ([], [])
    for x in xs:
        out[not test(x)].append(x)
    return out
