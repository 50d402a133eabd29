"""Property tests of the exact core against sympy, a second exact route.

Random rational matrices are small (at most 6x6) so each example is cheap;
runs are derandomized so the suite is reproducible.
"""

from fractions import Fraction
from math import gcd

import sympy
from hypothesis import example, given, settings, strategies as st

from kleinfour.exactq import (
    _echelon,
    axpy,
    joint_eigenspace,
    kernel,
    lincomb,
    rank,
    rref,
    span_kernel,
    symmetric_inertia,
)

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# zeros are frequent so that rank deficiency and cancellation actually occur
scalars = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return [[draw(scalars) for _ in range(c)] for _ in range(r)]


@st.composite
def row_lists(draw):
    """Up to 9 rows of up to 6 columns (so often more rows than columns),
    with an inserted zero row and a scaled copy of an existing row."""
    rows = draw(matrices(max_rows=7))
    cols = len(rows[0])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    if draw(st.booleans()):
        src = draw(st.sampled_from(rows))
        k = draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
        rows.insert(draw(st.integers(0, len(rows))), [k * x for x in src])
    return rows


@st.composite
def symmetric_matrices(draw, max_n=6, entries=scalars):
    n = draw(st.integers(1, max_n))
    # a zero diagonal forces the row+column congruence branch of the inertia
    zero_diagonal = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                a[i][j] = a[j][i] = draw(entries)
    return a


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in rows])


def _frac(vec):
    return tuple(Fraction(int(e.p), int(e.q)) for e in vec)


def _rows(dense):
    """Sparse rows of a dense matrix; explicit zero entries are kept."""
    return [dict(enumerate(row)) for row in dense]


def _dense(vecs, n):
    """Dense tuples of sparse outputs, whose keys must come in ascending order."""
    assert all(list(v) == sorted(v) for v in vecs)
    return [tuple(v.get(j, 0) for j in range(n)) for v in vecs]


@PROPS
@given(matrices())
def test_kernel_and_rank_match_sympy(rows):
    m, s, cols = _rows(rows), _sym(rows), len(rows[0])
    assert rank(m) == s.rank()
    # both bases put a 1 on each free column and solve the pivots from the RREF
    assert _dense(kernel(m, cols), cols) == [_frac(v) for v in s.nullspace()]


@PROPS
@given(row_lists())
@example([[0, 0, 0], [Fraction(-1, 2), 1, 0], [Fraction(-1, 2), 1, 0], [3, 0, 1], [1, 1, 1]])
@example([[0, Fraction(-2, 3), 1], [0, 0, 0], [0, 2, -3]])
def test_rref_matches_sympy(rows):
    out, piv = rref(_rows(rows))
    s, s_piv = _sym(rows).rref()
    assert piv == s_piv
    assert _dense(out, len(rows[0])) == [_frac(s.row(i)) for i in range(len(piv))]
    # integral entries come back as int, never as Fraction(n, 1)
    assert all(type(x) is int or x.denominator != 1 for row in out for x in row.values())


@PROPS
@given(row_lists())
def test_echelon_rows_are_primitive_and_reduced(rows):
    pivots = _echelon(map(enumerate, rows))
    for c, row in pivots.items():
        assert min(row) == c and row[c] > 0
        assert gcd(*row.values()) == 1
        assert not any(other in row for other in pivots if other != c)


@PROPS
@given(matrices(max_rows=6, max_cols=5), st.integers(1, 4))
def test_span_kernel_spans_sympy_nullspace(rows, ambient):
    # column t of rows is the image of vecs[t]; vecs are dense in the ambient space
    cols = len(rows[0])
    images = [{c: row[t] for c, row in enumerate(rows) if row[t]} for t in range(cols)]
    vecs = [{j: (t + 1) * (j + 2) % 5 - 2 for j in range(ambient)} for t in range(cols)]
    vecs = [{j: x for j, x in v.items() if x} for v in vecs]
    expected = []
    for combo in _sym(rows).nullspace():
        combo = _frac(combo)
        dense = [sum(c * v.get(j, 0) for c, v in zip(combo, vecs)) for j in range(ambient)]
        expected.append({j: x for j, x in enumerate(dense) if x})
    assert span_kernel(vecs, images) == expected


@st.composite
def column_maps(draw):
    """(dim, maps): each map is I plus a perturbation with many zero columns,
    so the joint fixed space is often nonzero."""
    dim = draw(st.integers(1, 5))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        cols = []
        for j in range(dim):
            col = {r: draw(scalars) for r in range(dim)} if draw(st.booleans()) else {}
            col[j] = col.get(j, 0) + 1
            cols.append({r: x for r, x in col.items() if x})
        maps.append(cols)
    return dim, maps


@st.composite
def signed_permutation_maps(draw):
    """(dim, maps): each map sends e_j to +-e_pi(j).  Two or three random
    permutations rarely commute, and an orbit whose edge signs contradict
    each other (a cycle with sign product -1) has no fixed vector."""
    dim = draw(st.integers(1, 6))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(dim)))
        maps.append([{perm[j]: draw(st.sampled_from([1, -1]))} for j in range(dim)])
    return dim, maps


@PROPS
@given(st.one_of(column_maps(), signed_permutation_maps()))
# (0 1) and (1 2) do not commute; their one orbit has the fixed vector (-1, -1, 1)
@example((3, [[{1: 1}, {0: 1}, {2: 1}], [{0: 1}, {2: -1}, {1: -1}]]))
# the orbit {0, 1} contradicts itself, e_2 -> -e_2 too; only e_3 is fixed
@example((4, [[{1: 1}, {0: -1}, {2: -1}, {3: 1}]]))
def test_joint_eigenspace_matches_stacked_nullspace(dim_maps):
    """Equal lists, not only spans: the orbit route of signed permutations
    returns the elimination's echelon basis, vector for vector."""
    dim, maps = dim_maps
    blocks = []
    for cols in maps:
        dense = [[cols[j].get(r, 0) for j in range(dim)] for r in range(dim)]
        blocks.append(_sym(dense) - sympy.eye(dim))
    stacked = sympy.Matrix.vstack(*blocks)
    got = joint_eigenspace(dim, maps)
    assert _dense(got, dim) == [_frac(v) for v in stacked.nullspace()]
    eliminated = kernel(_rows(map(_frac, stacked.tolist())), dim)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in eliminated]


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _descartes_inertia(rows):
    # a symmetric matrix has only real eigenvalues, so Descartes' rule of signs
    # counts the positive (and, on p(-x), the negative) roots exactly
    coeffs = _sym(rows).charpoly().all_coeffs()  # highest degree first
    n = len(rows)
    zero = n - max(k for k, c in enumerate(coeffs) if c != 0)
    neg = _sign_changes([c * (-1) ** (n - k) for k, c in enumerate(coeffs)])
    return _sign_changes(coeffs), neg, zero


@PROPS
@given(symmetric_matrices())
def test_inertia_matches_descartes_count_of_characteristic_polynomial(rows):
    assert symmetric_inertia(_rows(rows)) == _descartes_inertia(rows)


@PROPS
@given(st.sampled_from([
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    scalars,
]).flatmap(lambda entries: symmetric_matrices(entries=entries)))
# all-zero diagonals: ints that divide exactly, ints that do not, and Fractions
@example([[0, 2, 4], [2, 0, 6], [4, 6, 0]])
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
@example([[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, Fraction(-3, 4)], [1, Fraction(-3, 4), 0]])
def test_inertia_of_ints_fractions_and_both_matches_descartes_count(rows):
    """Int entries stay ints through exact Schur quotients; the signs are
    those of the characteristic polynomial whatever the entries' types."""
    assert symmetric_inertia(_rows(rows)) == _descartes_inertia(rows)


sparse_vectors = st.dictionaries(
    st.integers(0, 7), st.integers(-3, 3).filter(bool), max_size=6
)


@PROPS
@given(st.lists(st.tuples(st.integers(-2, 2), sparse_vectors), min_size=1, max_size=4))
def test_lincomb_matches_dense_sum_and_drops_cancelled_entries(terms):
    coeffs = [c for c, _ in terms]
    vecs = [v for _, v in terms]
    got = lincomb(coeffs, vecs)
    dense = [sum(c * v.get(j, 0) for c, v in terms) for j in range(8)]
    assert got == {j: x for j, x in enumerate(dense) if x}
    assert all(got.values())
    assert axpy(dict(got), -1, got.items()) == {}


@PROPS
@given(sparse_vectors, st.integers(-3, 3).filter(bool))
def test_axpy_of_a_vector_and_its_negation_is_empty(vec, c):
    assert lincomb([c, -c], [vec, vec]) == {}
    acc = dict(vec)
    assert axpy(acc, -1, vec.items()) is acc
    assert acc == {}
