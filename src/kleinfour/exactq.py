"""Exact rational linear algebra.

Everything downstream (root systems, automorphism certificates, fixed-space
extraction, Killing-form signatures) runs on the primitives in this module.
There is no floating point anywhere: entries are Python ints or
``fractions.Fraction`` values, and every elimination is exact.

Row-echelon paths (``rref``, ``kernel``, ``rank``) clear denominators row by
row and run a fraction-free Bareiss elimination on integers, so intermediate
entries stay bounded by minors of the input.  Inertia uses a pivoted symmetric
congruence decomposition and reads the signs of the pivots; eigenvalues are
never approximated.

Sparse vectors are dicts {coordinate: value} with no zero values.  The shared
primitives over them are ``axpy``/``lincomb`` (accumulation that drops
cancelled entries), ``joint_eigenspace`` (kernel of the stacked A - lambda*I
of maps given by sparse columns), ``span_kernel`` (kernel of a linear map
restricted to a span) and ``SpanSolver`` (reduction against an RREF basis).
The sparse bracket table built on them is ``rootsys.BracketTable``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Sequence, Tuple

def as_num(x):
    """Normalize a scalar: Fractions with denominator 1 collapse to int."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


class QMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(as_num(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "QMatrix":
        return cls([[0] * c for _ in range(r)])

    def at(self, i: int, j: int):
        return self.entries[i][j]

    def transpose(self) -> "QMatrix":
        return QMatrix(zip(*self.entries)) if self.rows else QMatrix([])

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ot = tuple(zip(*other.entries))
        return QMatrix(
            [[_dot(r, c) for c in ot] for r in self.entries]
        )

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(as_num(_dot(r, vec)) for r in self.entries)

    def sub(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix difference")
        return QMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def _dot(a, b):
    s = 0
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def _row_to_int(row: Sequence) -> List[int]:
    """Scale a rational row to a primitive integer row (positive scale)."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
            den = den // gcd(den, d) * d
    ints = [int(x * den) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _bareiss_echelon(mat: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Deterministic pivoting: first row with a nonzero entry, columns in order.
    Returns (echelon rows, pivot column indices); divisions are exact.
    """
    rows = [r[:] for r in mat]
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols: List[int] = []
    prev = 1
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        for i in range(r + 1, m):
            f = rows[i][c]
            ri, rr = rows[i], rows[r]
            for j in range(c, n):
                ri[j] = (p * ri[j] - f * rr[j]) // prev
        piv_cols.append(c)
        prev = p
        r += 1
        if r == m:
            break
    return rows[:r], piv_cols


def rref(vectors: Iterable[Sequence]) -> Tuple[Tuple[tuple, ...], Tuple[int, ...]]:
    """Reduced row echelon form of the span of the given row vectors.

    Returns (rows, pivot columns).  Rows have leading entry 1 and zeros above
    and below each pivot; the result is the canonical basis of the row space,
    identical across runs.
    """
    int_rows = []
    for v in vectors:
        row = _row_to_int(v)
        if any(row):
            int_rows.append(row)
    if not int_rows:
        return (), ()
    ech, piv = _bareiss_echelon(int_rows)
    # normalize pivots to 1, then eliminate above
    work = [[Fraction(x, row[c]) for x in row] for row, c in zip(ech, piv)]
    for k in range(len(work) - 1, -1, -1):
        c = piv[k]
        for i in range(k):
            f = work[i][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    out = tuple(tuple(as_num(x) for x in row) for row in work)
    return out, tuple(piv)


def rank(m: QMatrix) -> int:
    """Exact rank; rank + kernel dimension = column count."""
    _, piv = rref(m.entries)
    return len(piv)


def kernel(m: QMatrix) -> List[tuple]:
    """Exact basis of the null space, one vector per free column.

    The basis is echelon-normalized: each vector has a 1 in its free
    coordinate and the pivot coordinates solved from the RREF, so identical
    inputs yield identical bases.
    """
    rows, piv = rref(m.entries)
    pivset = set(piv)
    basis = []
    for free in range(m.cols):
        if free in pivset:
            continue
        v = [0] * m.cols
        v[free] = 1
        for row, c in zip(rows, piv):
            if row[free]:
                v[c] = as_num(-row[free])
        basis.append(tuple(v))
    return basis


def symmetric_inertia(m: QMatrix) -> Tuple[int, int, int]:
    """Counts (n_pos, n_neg, n_zero) of eigenvalue signs of a symmetric matrix.

    Computed by pivoted symmetric congruence elimination; by Sylvester's law
    the signs of the pivots give the inertia exactly.  When the active block
    has a zero diagonal, a row+column congruence manufactures a pivot.
    """
    if not m.is_symmetric():
        raise ValueError("symmetric_inertia requires a symmetric matrix")
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.entries]
    pos = neg = zero = 0
    k = 0
    while k < n:
        p = None
        for i in range(k, n):
            if a[i][i] != 0:
                p = i
                break
        if p is None:
            hit = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                zero += n - k
                break
            i, j = hit
            # congruence row_i += row_j / col_i += col_j: makes a[i][i] = 2 a[i][j]
            for t in range(k, n):
                a[i][t] += a[j][t]
            for t in range(k, n):
                a[t][i] += a[t][j]
            p = i
        if p != k:
            a[k], a[p] = a[p], a[k]
            for t in range(n):
                a[t][k], a[t][p] = a[t][p], a[t][k]
        piv = a[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                for j in range(i, n):
                    v = a[i][j] - f * a[k][j]
                    a[i][j] = v
                    a[j][i] = v
        k += 1
    return pos, neg, zero


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


def dense_from_columns(dim: int, cols: Sequence[dict]) -> List[List]:
    """Dense rows of the dim x dim matrix whose column j is the sparse cols[j]."""
    rows = [[0] * dim for _ in range(dim)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows[r][j] = v
    return rows


def joint_eigenspace(dim: int, maps: Sequence[Sequence[dict]], eigen) -> List[tuple]:
    """Kernel basis of the stacked (A - eigen*I) over every map A.

    Each map is given by its sparse columns (``cols[j]`` is the image of basis
    vector j), so the result spans the vectors that every map sends to eigen
    times themselves.
    """
    stacked: List[List] = []
    for cols in maps:
        rows = dense_from_columns(dim, cols)
        for r in range(dim):
            rows[r][r] -= eigen
        stacked.extend(rows)
    return kernel(QMatrix(stacked))


def span_kernel(vecs: Sequence[dict], images: Sequence[dict]) -> List[dict]:
    """Basis of {sum c_t vecs[t] : sum c_t images[t] = 0}.

    ``images[t]`` is the image of ``vecs[t]`` under a linear map, so this is
    the kernel of that map on the span of vecs.  When every image is zero the
    vectors themselves are returned and no elimination runs.
    """
    coords = sorted(set().union(*images))
    if not coords:
        return [dict(v) for v in vecs]
    combos = kernel(QMatrix([[im.get(c, 0) for im in images] for c in coords]))
    return [lincomb(combo, vecs) for combo in combos]


class SpanSolver:
    """Membership queries against a fixed RREF row basis.

    Rows are kept sparse ({column: value}); reduction walks the pivots, so a
    query costs O(nnz of the vector x nnz of the touched rows).  ``dim`` is
    the dimension of the span.
    """

    __slots__ = ("dim", "rows", "pivots", "_by_pivot")

    def __init__(self, rref_rows: Sequence[Sequence], pivots: Sequence[int]):
        self.rows: Tuple[dict, ...] = tuple(sparse_from_dense(r) for r in rref_rows)
        self.pivots: Tuple[int, ...] = tuple(pivots)
        self.dim = len(self.rows)
        self._by_pivot = dict(zip(self.pivots, self.rows))

    def reduce(self, vec: dict) -> Tuple[dict, dict]:
        """Split vec into (coefficients over the basis, residual)."""
        v = dict(vec)
        coeffs = {}
        for idx, c in enumerate(self.pivots):
            f = v.get(c)
            if f:
                coeffs[idx] = f
                axpy(v, -f, self._by_pivot[c].items())
        return coeffs, v

    def contains(self, vec: dict) -> bool:
        _, residual = self.reduce(vec)
        return not residual


def sparse_from_dense(vec: Sequence) -> dict:
    return {j: as_num(x) for j, x in enumerate(vec) if x}
