"""Exact rational linear algebra.

Everything downstream (root systems, automorphism certificates, fixed-space
extraction, Killing-form signatures) runs on the primitives in this module.
There is no floating point anywhere: entries are Python ints or
``fractions.Fraction`` values, and every elimination is exact.

Every row echelon form comes from one sparse eliminator, ``_echelon``, over
primitive integer rows ({column: int}, content 1).  Each input row is scaled
to integers once; elimination cross-multiplies rows in the fraction-free
manner of Bareiss (Math. Comp. 1968) and divides each result by its content
gcd, so entries stay small integers and no Fraction is built until the
output, where each row is divided by its pivot once.  ``rref``, ``kernel``
and ``rank`` are dense wrappers over it; ``joint_eigenspace`` and
``span_kernel`` feed it sparse rows directly.  Inertia uses a pivoted
symmetric congruence decomposition and reads the signs of the pivots;
eigenvalues are never approximated.

Sparse vectors are dicts {coordinate: value} with no zero values.  The shared
primitives over them are ``axpy``/``lincomb`` (accumulation that drops
cancelled entries), ``joint_eigenspace`` (kernel of the stacked A - lambda*I
of maps given by sparse columns), ``span_kernel`` (kernel of a linear map
restricted to a span) and ``SpanSolver`` (reduction against an RREF basis).
The sparse bracket table built on them is ``rootsys.BracketTable``.
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
    f = row[c]
    p = prow[c]
    if p != 1:
        row = {j: p * x for j, x in row.items()}
    for j, x in prow.items():
        v = row.get(j, 0) - f * x
        if v:
            row[j] = v
        else:
            del row[j]
    return row


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


def _quotient(x: int, p: int):
    """x / p as an int when exact, else as a Fraction."""
    return x // p if x % p == 0 else Fraction(x, p)


def _null_basis(pivots: Dict[int, dict], cols: int) -> List[tuple]:
    """Kernel basis of the echelon rows, one vector per free column in order.

    Each vector has a 1 in its free column and the pivot coordinates solved
    from the rows; a row is zero on every other pivot column, so each of its
    off-pivot entries lies in a free column.
    """
    basis = {}
    for free in range(cols):
        if free not in pivots:
            basis[free] = [0] * cols
            basis[free][free] = 1
    for c, row in pivots.items():
        p = row[c]
        for j, x in row.items():
            if j != c:
                basis[j][c] = _quotient(-x, p)
    return [tuple(v) for v in basis.values()]


def rref(vectors: Iterable[Sequence]) -> Tuple[Tuple[tuple, ...], Tuple[int, ...]]:
    """Reduced row echelon form of the span of the given row vectors.

    Returns (rows, pivot columns).  Rows have leading entry 1 and zeros above
    and below each pivot; the result is the canonical basis of the row space,
    identical across runs.  Entries must be ints or Fractions (TypeError
    otherwise).
    """
    vectors = list(vectors)
    if not vectors:
        return (), ()
    pivots = _echelon(map(enumerate, vectors))
    piv = tuple(sorted(pivots))
    rows = []
    for c in piv:
        prow, row = pivots[c], [0] * len(vectors[0])
        for j, x in prow.items():
            row[j] = _quotient(x, prow[c])
        rows.append(tuple(row))
    return tuple(rows), piv


def rank(m: QMatrix) -> int:
    """Exact rank; rank + kernel dimension = column count."""
    return len(_echelon(map(enumerate, m.entries)))


def kernel(m: QMatrix) -> List[tuple]:
    """Exact basis of the null space, one vector per free column.

    The basis is echelon-normalized: each vector has a 1 in its free
    coordinate and the pivot coordinates solved from the RREF, so identical
    inputs yield identical bases.
    """
    return _null_basis(_echelon(map(enumerate, m.entries)), m.cols)


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
    times themselves.  The sparse rows of each A - eigen*I are read straight
    off the columns.
    """
    stacked: List[dict] = []
    for cols in maps:
        rows: List[dict] = [{} for _ in range(dim)]
        for j, col in enumerate(cols):
            for r, v in col.items():
                rows[r][j] = v
        for r, row in enumerate(rows):
            row[r] = row.get(r, 0) - eigen
        stacked.extend(rows)
    return _null_basis(_echelon(row.items() for row in stacked), dim)


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
    combos = _null_basis(_echelon(row.items() for row in rows.values()), len(vecs))
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
