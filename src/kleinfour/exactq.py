"""Exact rational linear algebra over sparse rows.

Everything downstream (root systems, automorphism certificates, fixed-space
extraction, Killing-form signatures) runs on the primitives in this module.
There is no floating point anywhere: entries are Python ints or
``fractions.Fraction`` values, every elimination is exact, and every entry
point rejects any other scalar with TypeError.

There is one matrix representation: a sequence of sparse rows, dicts
{column: value}.  Sparse vectors are the same dicts, with no zero values.
Outputs list their keys in ascending column order, so iteration order is
reproducible.

Every row echelon form comes from one sparse eliminator, ``_echelon``, over
primitive integer rows ({column: int}, content 1).  Each input row is scaled
to integers once; elimination cross-multiplies rows in the fraction-free
manner of Bareiss (Math. Comp. 1968) and divides each result by its content
gcd, so entries stay small integers and no Fraction is built until the
output, where each row is divided by its pivot once.  ``rref``, ``rank`` and
``kernel`` are its public entry points; ``span_kernel`` builds its sparse
rows and calls ``kernel``, and so does ``joint_eigenspace`` unless its maps
are signed permutations, whose fixed space it reads off their orbits with
no elimination.  Inertia is a sparse symmetric congruence elimination that
reads the signs of the pivots, on ints until a division is inexact;
eigenvalues are never approximated.

The shared primitives over sparse vectors are ``axpy``/``lincomb``
(accumulation that drops cancelled entries), ``joint_eigenspace`` (the joint
fixed space, kernel of the stacked A - I of maps given by sparse columns;
orbit vectors for the signed permutations ``signed_permutation`` recognizes,
for it and the automorphism certificate), ``span_kernel`` (kernel of a linear
map restricted to a span) and ``SpanSolver`` (membership in the span of an
RREF basis).  The sparse bracket table built on them is ``rootsys.BracketTable``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

def as_num(x):
    """Normalize a scalar: Fractions with denominator 1 collapse to int."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


def _primitive(pairs) -> dict:
    """Primitive integer row proportional to the exact scalars in pairs.

    pairs are (column, value); values must be ints or Fractions, anything else
    raises TypeError.  The row is scaled by the lcm of the denominators and
    divided by the gcd of its entries, so it has content 1; zeros are dropped.
    """
    row = {}
    den = 1
    frac = False
    for j, x in pairs:
        if type(x) is int:
            if x:
                row[j] = x
        elif isinstance(x, (int, Fraction)):
            if x:
                row[j] = x
                frac = True
                den = lcm(den, x.denominator)
        else:
            raise TypeError(f"exact scalar expected, got {type(x).__name__}")
    if frac:
        row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    return _divide_content(row)


def _divide_content(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        return {j: x // g for j, x in row.items()}
    return row


def _clear(row: dict, c: int, prow: dict) -> dict:
    """p*row - row[c]*prow with p = prow[c]: a row that is zero in column c.

    Integer cross-multiplication, so nothing is divided; cancelled entries
    are removed, and row is updated in place when p is 1.
    """
    f, p = row[c], prow[c]
    if p != 1:
        row = {j: p * x for j, x in row.items()}
    return axpy(row, -f, prow.items())


def _echelon(rows: Iterable) -> Dict[int, dict]:
    """Sparse fraction-free Gauss-Jordan elimination.

    rows are iterables of (column, exact scalar) pairs; each is first made a
    primitive integer row.  Returns {pivot column: row}: each row is
    primitive, its leftmost entry sits in its pivot column and is positive,
    and every pivot column is zero in all other rows.  Dividing each row by
    its pivot gives the RREF of the span, which is unique, so the input order
    never changes the result.

    An incoming row is cleared against the pivot rows it meets; since a pivot
    row is zero in every other pivot column, one pass suffices.  The result
    is divided by its content gcd and, if nonzero, becomes a new pivot row
    whose column is then cleared from the existing rows the same way.
    """
    pivots: Dict[int, dict] = {}
    for pairs in rows:
        r = _primitive(pairs)
        hits = [c for c in r if c in pivots]
        if hits:
            for c in hits:
                r = _clear(r, c, pivots[c])
            r = _divide_content(r)
        if not r:
            continue
        c = min(r)
        if r[c] < 0:
            r = {j: -x for j, x in r.items()}
        for k, q in pivots.items():
            if c in q:
                pivots[k] = _divide_content(_clear(q, c, r))
        pivots[c] = r
    return pivots


def _quotient(x, p):
    """x / p for ints or Fractions: an int when it is one, else a Fraction."""
    return x // p if x % p == 0 else Fraction(x, p)


def _null_basis(pivots: Dict[int, dict], cols: int) -> List[dict]:
    """Kernel basis of the echelon rows, one sparse vector per free column.

    Each vector has a 1 in its free column and the pivot coordinates solved
    from the rows; a row is zero on every other pivot column, so each of its
    off-pivot entries lies in a free column, right of the row's pivot.  Keys
    therefore come out in ascending column order, the free column last.
    """
    basis: Dict[int, dict] = {free: {} for free in range(cols) if free not in pivots}
    for c in sorted(pivots):
        row = pivots[c]
        p = row[c]
        for j, x in row.items():
            if j != c:
                basis[j][c] = _quotient(-x, p)
    for free, vec in basis.items():
        vec[free] = 1
    return list(basis.values())


def rref(rows: Iterable[dict]) -> Tuple[Tuple[dict, ...], Tuple[int, ...]]:
    """Reduced row echelon form of the span of sparse rows.

    Returns (rows, pivot columns).  Each row has a 1 at its pivot, which is
    zero in every other row, and its keys in ascending column order; the
    result is the canonical basis of the row space, identical across runs.
    Entries must be ints or Fractions (TypeError otherwise).
    """
    pivots = _echelon(row.items() for row in rows)
    piv = tuple(sorted(pivots))
    out = []
    for c in piv:
        prow = pivots[c]
        out.append({j: _quotient(prow[j], prow[c]) for j in sorted(prow)})
    return tuple(out), piv


def rank(rows: Iterable[dict]) -> int:
    """Exact rank of sparse rows; rank + kernel dimension = column count."""
    return len(_echelon(row.items() for row in rows))


def kernel(rows: Iterable[dict], cols: int) -> List[dict]:
    """Exact null-space basis of sparse rows over cols columns.

    The basis is echelon-normalized: one sparse vector per free column, with
    a 1 there and the pivot coordinates solved from the RREF, so identical
    inputs yield identical bases.
    """
    return _null_basis(_echelon(row.items() for row in rows), cols)


def symmetric_inertia(rows: Sequence[dict]) -> Tuple[int, int, int]:
    """Counts (n_pos, n_neg, n_zero) of eigenvalue signs of a symmetric matrix.

    rows[i] is the sparse row i of an n x n matrix, n = len(rows).  Computed
    by sparse symmetric congruence elimination; by Sylvester's law the signs
    of the pivots give the inertia exactly.  A pivot on a nonzero diagonal
    entry updates only the Schur complement over its row's nonzeros; when
    every remaining diagonal entry is zero, the congruence e_i += e_j turns
    an off-diagonal a[i][j] into the pivot 2*a[i][j].  Int entries stay ints:
    each Schur multiplier -a[i][p]/a[p][p] is an int when the division is
    exact and a Fraction otherwise.
    """
    a: Dict[int, dict] = {i: {j: v for j, x in row.items() if (v := as_num(x))}
                          for i, row in enumerate(rows)}
    for i, row in a.items():
        for j, x in row.items():
            if j not in a or a[j].get(i) != x:
                raise ValueError("symmetric_inertia requires a symmetric matrix")
    pos = neg = 0
    while a:
        p = next((i for i, row in a.items() if i in row), None)
        if p is None:
            p = next((i for i, row in a.items() if row), None)
            if p is None:
                break
            ri = a[p]
            j = next(iter(ri))
            rj = a[j]
            new = axpy(dict(ri), 1, rj.items())
            new[p] = 2 * ri[j]
            # column p changes wherever row p did; mirror it to keep a symmetric
            for k in set(ri).union(rj) - {p}:
                if k in new:
                    a[k][p] = new[k]
                else:
                    a[k].pop(p, None)
            a[p] = new
        row = a.pop(p)
        d = row.pop(p)
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i, x in row.items():
            ai = a[i]
            del ai[p]
            axpy(ai, _quotient(-x, d), row.items())
    return pos, neg, len(a)


def axpy(acc: dict, a, terms) -> dict:
    """acc += a * x in place, x given as (coordinate, value) pairs.

    Entries that cancel to zero are removed, so acc stays a sparse vector.
    Returns acc.
    """
    for j, x in terms:
        nv = acc.get(j, 0) + a * x
        if nv:
            acc[j] = nv
        else:
            acc.pop(j, None)
    return acc


def lincomb(coeffs: Iterable, vecs: Iterable[dict]) -> dict:
    """Sparse vector sum(c * v) over paired coefficients and sparse vectors."""
    acc: dict = {}
    for c, v in zip(coeffs, vecs):
        if c:
            axpy(acc, c, v.items())
    return acc


def joint_eigenspace(dim: int, maps: Sequence[Sequence[dict]]) -> List[dict]:
    """Kernel basis of the stacked A - I over every map A: the joint fixed space.

    Each map is given by its sparse columns (``cols[j]`` is the image of basis
    vector j), so the result spans the vectors that every map fixes.  For
    signed permutations it is read off their orbits (``_orbit_eigenspace``);
    otherwise the sparse rows of each A - I are read straight off the columns
    and stacked for ``kernel``.
    """
    orbits = _orbit_eigenspace(dim, maps)
    if orbits is not None:
        return orbits
    stacked: List[dict] = []
    for cols in maps:
        rows: List[dict] = [{} for _ in range(dim)]
        for j, col in enumerate(cols):
            for r, v in col.items():
                rows[r][j] = v
        for r, row in enumerate(rows):
            row[r] = row.get(r, 0) - 1
        stacked.extend(rows)
    return kernel(stacked, dim)


def signed_permutation(cols: Sequence[dict]):
    """(pi, signs) when every column j is {pi(j): s_j}, s_j an int +-1, and pi
    is a bijection of range(len(cols)); else None.  One pass over the columns."""
    perm, signs = [], []
    for col in cols:
        (r, s), = col.items() if len(col) == 1 else [(0, 0)]
        if type(s) is not int or s * s != 1:
            return None
        perm.append(r)
        signs.append(s)
    return (tuple(perm), tuple(signs)) if set(perm) == set(range(len(cols))) else None


def _orbit_eigenspace(dim: int, maps: Sequence[Sequence[dict]]):
    """Joint +1 eigenspace of signed permutations A e_k = s e_pi(k), or None.

    None unless ``signed_permutation`` recognizes every map.  A fixed v has
    v[pi(k)] = s v[k]: each orbit of the group the maps generate gives one
    vector (none if its signs contradict), walked from and scaled to 1 on its
    largest index, as in the kernel's echelon basis.
    """
    edges: List[List[Tuple[int, int]]] = [[] for _ in range(dim)]
    for cols in maps:
        pi = signed_permutation(cols) if len(cols) == dim else None
        if pi is None:
            return None
        for k, edge in enumerate(zip(*pi)):
            edges[k].append(edge)
    sign: Dict[int, int] = {}
    basis = []
    for top in reversed(range(dim)):
        if top in sign:
            continue
        sign[top], orbit, ok = 1, [top], True
        for k in orbit:  # grows while it is walked
            for r, s in edges[k]:
                if r not in sign:
                    sign[r] = s * sign[k]
                    orbit.append(r)
                ok = ok and sign[r] == s * sign[k]
        if ok:
            basis.append({k: sign[k] for k in sorted(orbit)})
    return basis[::-1]


def span_kernel(vecs: Sequence[dict], images: Sequence[dict]) -> List[dict]:
    """Basis of {sum c_t vecs[t] : sum c_t images[t] = 0}.

    ``images[t]`` is the image of ``vecs[t]`` under a linear map, so this is
    the kernel of that map on the span of vecs.  When every image is zero the
    vectors themselves are returned and no elimination runs.
    """
    rows: Dict[int, dict] = {}
    for t, im in enumerate(images):
        for c, v in im.items():
            rows.setdefault(c, {})[t] = v
    if not rows:
        return [dict(v) for v in vecs]
    combos = kernel(rows.values(), len(vecs))
    return [lincomb(combo.values(), (vecs[t] for t in combo)) for combo in combos]


class SpanSolver:
    """Membership queries against a fixed RREF row basis.

    Rows are kept sparse ({column: value}).  ``residual`` maps each pivot c
    to the terms of N(e_c) = e_c - row_c; N fixes every other basis vector,
    and an RREF row is zero on every other pivot column, so N vanishes
    exactly on the span.  A query costs O(nnz of the vector x nnz of the
    rows it touches).  ``dim`` is the dimension of the span.
    """

    __slots__ = ("dim", "rows", "pivots", "residual")

    def __init__(self, rref_rows: Sequence[dict], pivots: Sequence[int]):
        self.rows: Tuple[dict, ...] = tuple(rref_rows)
        self.pivots: Tuple[int, ...] = tuple(pivots)
        self.dim = len(self.rows)
        self.residual = {c: tuple((m, -x) for m, x in row.items() if m != c)
                         for c, row in zip(self.pivots, self.rows)}

    def contains(self, vec: dict) -> bool:
        out: dict = {}
        for c, x in vec.items():
            axpy(out, x, self.residual.get(c, ((c, 1),)))
        return not out
