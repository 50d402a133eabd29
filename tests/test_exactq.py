import random
from fractions import Fraction

import pytest

from kleinfour.exactq import (
    joint_eigenspace,
    kernel,
    rank,
    rref,
    signed_permutation,
    symmetric_inertia,
    SpanSolver,
    span_kernel,
)
from oracles import hand_kernel_2x2_ones


def _rows(dense):
    """Sparse rows of a dense matrix; explicit zero entries are kept."""
    return [dict(enumerate(row)) for row in dense]


def _dense(vec, n):
    return tuple(vec.get(j, 0) for j in range(n))


def _eye(n):
    return [{i: 1} for i in range(n)]


def test_kernel_identity_trivial():
    assert kernel(_eye(3), 3) == []


def test_kernel_zero_full():
    basis = kernel(_rows([[0, 0], [0, 0]]), 2)
    assert len(basis) == 2
    assert [_dense(v, 2) for v in basis] == [(1, 0), (0, 1)]


def test_kernel_ones_matrix_matches_hand_elimination():
    basis = kernel(_rows([[1, 1], [1, 1]]), 2)
    assert len(basis) == 1
    (v,) = basis
    oracle = hand_kernel_2x2_ones()
    # same direction: cross multiply
    assert v.get(0, 0) * oracle[1] == v.get(1, 0) * oracle[0]


def test_kernel_vectors_annihilate():
    m = _rows([[2, 4, -2], [1, 2, -1], [0, 0, 0]])
    for v in kernel(m, 3):
        assert [sum(x * v.get(j, 0) for j, x in row.items()) for row in m] == [0, 0, 0]


def test_rank_examples():
    assert rank(_eye(4)) == 4
    assert rank(_rows([[0] * 5] * 3)) == 0
    assert rank(_rows([[1, 2], [2, 4]])) == 1  # hand elimination: one pivot


def test_rank_plus_kernel_dim_is_cols():
    rng = random.Random(7)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = _rows([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        assert rank(m) + len(kernel(m, c)) == c


def test_rref_is_deterministic_and_normalized():
    rows = _rows([[2, 4, 2], [1, 1, 1], [3, 5, 3]])
    out1, piv1 = rref(rows)
    out2, piv2 = rref(list(reversed(rows)))
    # same row space gives the same canonical basis regardless of input order
    assert out1 == out2
    assert piv1 == piv2
    for row, p in zip(out1, piv1):
        assert row[p] == 1


def test_inertia_diag_example():
    assert symmetric_inertia(_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) == (1, 1, 1)


def test_inertia_identity():
    assert symmetric_inertia(_eye(4)) == (4, 0, 0)


def test_inertia_offdiagonal_pair():
    # characteristic polynomial x^2 - 1 by hand: one positive, one negative
    assert symmetric_inertia(_rows([[0, 1], [1, 0]])) == (1, 1, 0)


def test_inertia_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        symmetric_inertia(_rows([[0, 1], [2, 0]]))


def test_inertia_components_sum_to_dimension():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        assert sum(symmetric_inertia(_rows(a))) == n


def _random_unimodular(n, rng):
    """Product of elementary integer operations: determinant +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-2, 2)
        for c in range(n):
            m[i][c] += f * m[j][c]
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_inertia_invariant_under_unimodular_congruence():
    rng = random.Random(2024)
    for _ in range(15):
        n = rng.randint(2, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        U = _random_unimodular(n, rng)
        congr = _matmul(_matmul([list(c) for c in zip(*U)], a), U)
        assert symmetric_inertia(_rows(congr)) == symmetric_inertia(_rows(a))


def test_span_solver_membership():
    rows, piv = rref(_rows([[1, 0, 2], [0, 1, 3]]))
    solver = SpanSolver(rows, piv)
    assert solver.contains({0: 1, 1: 1, 2: 5})
    assert not solver.contains({2: 1})
    assert not solver.contains({0: 1, 1: 1, 2: 4})  # both pivots, tail -1 on column 2


def test_signed_permutation_takes_only_int_units_on_a_bijection():
    assert signed_permutation([{1: -1}, {2: 1}, {0: 1}]) == ((1, 2, 0), (-1, 1, 1))
    assert signed_permutation([]) == ((), ())
    for cols in ([{1: 1}, {1: -1}],  # two columns on one target
                 [{0: 1}, {2: 1}],  # a target outside range(len(cols))
                 [{0: 2}, {1: 1}],  # magnitude two
                 [{0: Fraction(1)}, {1: 1}],  # a Fraction, not an int
                 [{0: 1.0}, {1: 1}],  # a float
                 [{0: 1, 1: 1}, {1: 1}],  # two entries
                 [{}, {1: 1}]):  # an empty column
        assert signed_permutation(cols) is None, cols


def test_matrix_no_floats_rejected():
    # without an explicit check, Fraction(x) would accept a float silently
    with pytest.raises(TypeError, match="exact scalar"):
        symmetric_inertia([{0: 0.5}])
    with pytest.raises(TypeError, match="exact scalar"):
        symmetric_inertia([{0: 1, 1: 0.0}, {0: 0.0, 1: 1}])


@pytest.mark.parametrize("rows", [[[0.5, 1.0]], [[0.5, 0.25]], [[0.0, 1]], [[1, 2], [3, 1.5]]])
def test_rref_rejects_floats(rows):
    # an integer elimination would silently truncate 0.5 to 0
    with pytest.raises(TypeError, match="exact scalar"):
        rref(_rows(rows))


def test_sparse_kernel_builders_reject_floats():
    with pytest.raises(TypeError, match="exact scalar"):
        span_kernel([{0: 1}, {1: 1}], [{0: 0.5}, {0: 1}])
    with pytest.raises(TypeError, match="exact scalar"):
        joint_eigenspace(2, [[{0: 0.5}, {1: 1}]])


def test_rref_fraction_entries_normalise_to_int_when_integral():
    rows, piv = rref(_rows([[Fraction(2, 3), Fraction(4, 3), 0], [0, 0, Fraction(-1, 2)]]))
    assert (tuple(_dense(r, 3) for r in rows), piv) == (((1, 2, 0), (0, 0, 1)), (0, 2))
    assert all(type(x) is int for row in rows for x in row.values())


def test_fraction_entries_survive_exactly():
    m = _rows([[Fraction(1, 3), Fraction(2, 3)]])
    assert rank(m) == 1
    (v,) = kernel(m, 2)
    assert Fraction(1, 3) * v.get(0, 0) + Fraction(2, 3) * v.get(1, 0) == 0
