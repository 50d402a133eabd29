import copy
import json
import random
import tracemalloc
from math import gcd

import pytest

from kleinfour import rootsys
from kleinfour.exactq import rank as mat_rank
from kleinfour.rootsys import (
    MAX_RANK,
    BracketTable,
    CartanMatrixError,
    RootSystem,
    build_root_system,
    cartan_matrix,
    chevalley_table,
    root_system_to_jsonable,
    structure_table_to_jsonable,
    validate_cartan,
)
from helpers import root_index, root_key, set_bracket, string_down
from oracles import (
    REFERENCE_TYPES,
    chevalley_reference,
    cocycle_defect,
    e6_roots_8d,
    grading_defect,
    jacobi_defect,
    killing_reference,
    pairing,
    root_inner,
    simple_coordinates,
    sparse_jacobi_defect,
    verify_ad_invariance,
    verify_antisymmetry,
    verify_jacobi,
)


def ordered_root_pairs(rs):
    """(a, b, coordinates of a + b) for every ordered pair of root indices."""
    cs = [r.coords for r in rs.roots]
    return [(a, b, tuple(x + y for x, y in zip(ca, cb)))
            for a, ca in enumerate(cs) for b, cb in enumerate(cs)]


# -- root system construction -------------------------------------------------

def test_a1_two_roots():
    rs = build_root_system(cartan_matrix("A1"))
    assert len(rs.roots) == 2
    assert {r.coords for r in rs.roots} == {(1,), (-1,)}


def test_a2_six_roots_hand_enumeration():
    rs = build_root_system(cartan_matrix("A2"))
    got = {r.coords for r in rs.roots}
    assert got == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}


def test_e6_root_counts_and_height(e6_rs):
    assert len(e6_rs.roots) == 72
    assert e6_rs.npos == 36
    assert max(r.height for r in e6_rs.roots) == 11


def test_e6_matches_eight_coordinate_enumeration(e6_rs):
    # the full coordinate sets agree with the independent classical model
    oracle = {simple_coordinates(r) for r in e6_roots_8d()}
    assert {r.coords for r in e6_rs.roots} == oracle


def test_canonical_order_contract(e6_rs):
    pos = e6_rs.roots[: e6_rs.npos]
    keys = [(r.height, r.coords) for r in pos]
    assert keys == sorted(keys)
    for k, r in enumerate(pos):
        mirrored = e6_rs.roots[e6_rs.npos + k]
        assert mirrored.coords == tuple(-c for c in r.coords)
    units = [tuple(int(j == i) for j in range(6)) for i in range(6)]
    assert [e6_rs.roots[k].coords for k in e6_rs.simple] == units


def test_closed_under_negation_and_reflection(e6_rs):
    allset = {r.coords for r in e6_rs.roots}
    for r in e6_rs.roots:
        assert tuple(-c for c in r.coords) in allset
    for r in e6_rs.roots:
        for i in range(6):
            n = pairing(e6_rs, r.coords, i)
            refl = list(r.coords)
            refl[i] -= n
            assert tuple(refl) in allset


def test_root_strings_unbroken(e6_rs):
    allset = {r.coords for r in e6_rs.roots}
    roots = [r.coords for r in e6_rs.roots]
    for ia, a in enumerate(roots):
        for ib, b in enumerate(roots):
            if b in (a, tuple(-x for x in a)):
                continue
            p = string_down(e6_rs, ia, ib)
            # walk upward to the top of the a-string through b
            q = 0
            cur = tuple(x + y for x, y in zip(b, a))
            while cur in allset:
                q += 1
                cur = tuple(x + y for x, y in zip(cur, a))
            # every intermediate point of the string must be a root
            for k in range(-p, q + 1):
                step = tuple(x + k * y for x, y in zip(b, a))
                assert step in allset
            # string length relation: p - q = <b, a^vee> = 2(b,a)/(a,a)
            assert p - q == 2 * root_inner(e6_rs, b, a) / root_inner(e6_rs, a, a)


@pytest.mark.parametrize("label", REFERENCE_TYPES)
def test_pairings_keys_and_norms_match_the_oracle(label):
    rs = build_root_system(cartan_matrix(label))
    assert rs.pairings == tuple(
        tuple(pairing(rs, r.coords, i) for i in range(rs.rank)) for r in rs.roots
    )
    assert rs.keys == tuple(sum(m * 64 ** i for i, m in enumerate(r.coords)) for r in rs.roots)
    # the lengths of a simple type are integers, so the common factor is 1
    assert list(rs.norms) == [root_inner(rs, r.coords, r.coords) for r in rs.roots]


@pytest.mark.parametrize("letter, npos", [
    ("A", MAX_RANK * (MAX_RANK + 1) // 2),
    ("B", MAX_RANK * MAX_RANK),
    ("C", MAX_RANK * MAX_RANK),
    ("D", MAX_RANK * (MAX_RANK - 1)),
])
def test_every_family_closes_at_the_maximum_rank(letter, npos):
    assert build_root_system(cartan_matrix(f"{letter}{MAX_RANK}")).npos == npos


@pytest.mark.parametrize("label", ["A1000", "D" + "9" * 5000])
def test_rank_above_the_maximum_is_rejected_before_allocating(label):
    tracemalloc.start()
    try:
        with pytest.raises(CartanMatrixError, match=f"at most {MAX_RANK}"):
            cartan_matrix(label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the rows of a 1000 x 1000 matrix take megabytes


def test_leading_zeros_do_not_count_towards_the_rank():
    assert cartan_matrix("E" + "0" * 5000 + "6") == cartan_matrix("E6")


def test_rejects_non_finite_type():
    with pytest.raises(CartanMatrixError):
        build_root_system([[2, -2], [-2, 2]])  # affine A1~
    with pytest.raises(CartanMatrixError):
        build_root_system([[2, -1], [-5, 2]])  # indefinite
    with pytest.raises(CartanMatrixError):
        build_root_system([[2, 1], [1, 2]])  # positive off-diagonal


@pytest.mark.parametrize("A, message", [
    ([[2, -1]], r"^matrix is not square$"),
    ([[2.0, -1], [-1, 2]], r"^entry \(0,0\) is not an integer$"),
    ([[3, -1], [-1, 2]], r"^diagonal entry \(0,0\) = 3 != 2$"),
    ([[2, 1], [1, 2]], r"^off-diagonal entry \(0,1\) = 1 > 0$"),
    ([[2, 0], [-1, 2]], r"^zero pattern not symmetric at \(0,1\)$"),
], ids=["not-square", "float", "diagonal", "positive", "zero-pattern"])
def test_root_system_names_the_axiom_a_matrix_breaks(A, message):
    with pytest.raises(CartanMatrixError, match=message):
        RootSystem(A)


def test_validate_cartan_rejects_affine_a2_and_a_non_symmetrizable_matrix():
    with pytest.raises(CartanMatrixError) as err:
        validate_cartan([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])  # affine A2~
    assert str(err.value) == ("symmetrized matrix not positive definite (inertia (2, 0, 1)); "
                              "not a finite-type Cartan matrix")
    with pytest.raises(CartanMatrixError, match="^matrix is not symmetrizable$"):
        validate_cartan([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize("label", ["B3", "C4", "F4", "G2"])
def test_validate_cartan_returns_the_lengths_of_the_short_and_long_roots(label):
    # L_i = (a_i, a_i)/2 with the short roots at 1
    L = validate_cartan(cartan_matrix(label))
    assert all(isinstance(x, int) for x in L)
    assert sorted(set(L)) == [1, 3 if label == "G2" else 2]


CATALOG_FAMILIES = {letter: [f"{letter}{n}" for n in range(low, MAX_RANK + 1)]
                    for letter, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4))}
CATALOG_FAMILIES["EFG"] = ["E6", "E7", "E8", "F4", "G2"]


def _relabel(A, p):
    return [[A[p[i]][p[j]] for j in range(len(p))] for i in range(len(p))]


def _direct_sum(A, B):
    n, m = len(A), len(B)
    return [list(row) + [0] * m for row in A] + [[0] * n + list(row) for row in B]


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_lengths_are_primitive_integers_that_symmetrize_and_follow_relabelings(family):
    """Every catalog type up to MAX_RANK, a seeded relabeling of it and its
    direct sum with B2 (whose lengths 2, 1 stay 2, 1 beside any type): positive
    ints, gcd 1 on each component, A[i][j] L[j] == A[j][i] L[i], and the
    relabeling permutes them."""
    for label in CATALOG_FAMILIES[family]:
        A = cartan_matrix(label)
        n = len(A)
        p = random.Random(label).sample(range(n), n)
        cases = [(A, [range(n)]), (_relabel(A, p), [range(n)]),
                 (_direct_sum(A, cartan_matrix("B2")), [range(n), range(n, n + 2)])]
        lengths = []
        for M, comps in cases:
            L = validate_cartan(M)
            assert all(type(x) is int and x > 0 for x in L), (label, M)
            assert all(gcd(*(L[i] for i in comp)) == 1 for comp in comps), (label, M)
            assert all(M[i][j] * L[j] == M[j][i] * L[i]
                       for i in range(len(M)) for j in range(len(M))), (label, M)
            lengths.append(L)
        L, relabeled, summed = lengths
        assert relabeled == tuple(L[q] for q in p), label
        assert summed == L + (2, 1), label


# -- Chevalley table -----------------------------------------------------------

def test_a1_bracket_relations():
    t = chevalley_table(build_root_system(cartan_matrix("A1")))
    assert t.pair_bracket(0, 1) == ((1, 2),)
    assert t.pair_bracket(0, 2) == ((2, -2),)
    assert t.pair_bracket(1, 2) == ((0, 1),)


def _bracket(t, u, v):
    """[u, v] by one row_brackets walk."""
    (_, acc), = t.row_brackets([u], [v])
    return acc.get(0, {})


def test_bracket_table_stores_each_pair_once_for_both_orders():
    t = BracketTable(3)
    set_bracket(t, 2, 0, [(1, 3), (2, 0)])
    assert list(t.brackets()) == [(0, 2, ((1, -3),))]
    assert t.pair_bracket(0, 2) == ((1, -3),)
    assert t.pair_bracket(2, 0) == ((1, 3),)
    assert t.pair_bracket(0, 1) == ()
    assert _bracket(t, {0: 1, 1: 5}, {2: 2}) == {1: -6}
    assert _bracket(t, {2: 2}, {0: 1, 1: 5}) == {1: 6}
    assert t.pair_bracket(1, 1) == () and _bracket(t, {1: 1}, {1: 1}) == {}
    assert verify_antisymmetry(t)
    t._adj[2][0] = ((1, 4),)  # one half edited alone
    assert not verify_antisymmetry(t)
    t._adj[2][0] = ((1, 3),)
    t._adj[1][1] = ((0, 2),)  # a diagonal bracket
    assert not verify_antisymmetry(t)


@pytest.mark.parametrize("label", REFERENCE_TYPES)
def test_every_row_is_stored_ascending(label):
    """brackets() reads each row in stored order, so the Chevalley table
    stores every row ascending."""
    t = chevalley_table(build_root_system(cartan_matrix(label)))
    assert all(list(row) == sorted(row) for row in t._adj), label
    assert [(i, j) for i, j, _ in t.brackets()] == sorted(
        (i, j) for i, row in enumerate(t._adj) for j in row if i < j)


def constants_on_root_sums(t):
    """N(a, b) over every ordered pair of root indices whose sum is a root."""
    return [t.n_constant(a, b) for a, b, s in ordered_root_pairs(t.rs)
            if root_index(t.rs, s) is not None]


def test_a2_constants_all_magnitude_one():
    t = chevalley_table(build_root_system(cartan_matrix("A2")))
    got = constants_on_root_sums(t)
    assert len(got) == 12 and all(abs(v) == 1 for v in got)


def test_e6_constants_all_magnitude_one(e6):
    got = constants_on_root_sums(e6)
    assert len(got) == 1440 and all(abs(v) == 1 for v in got)


def test_n_antisymmetry_and_negation(e6):
    rs = e6.rs
    for a, b, s in ordered_root_pairs(rs):
        if root_index(rs, s) is None:
            continue
        v = e6.n_constant(a, b)
        assert e6.n_constant(b, a) == -v
        na = root_index(rs, tuple(-x for x in rs.roots[a].coords))
        nb = root_index(rs, tuple(-x for x in rs.roots[b].coords))
        assert e6.n_constant(na, nb) == -v


def test_n_zero_iff_sum_not_root(e6):
    for a, b, s in ordered_root_pairs(e6.rs):
        if root_index(e6.rs, s) is not None:
            assert e6.n_constant(a, b) != 0
        else:
            assert e6.n_constant(a, b) == 0


@pytest.mark.parametrize("label", REFERENCE_TYPES)
def test_table_matches_the_tuple_keyed_reference(label):
    rs = build_root_system(cartan_matrix(label))
    t = chevalley_table(rs)
    adj, n, extraspecial = chevalley_reference(rs)
    # items, not dicts, so the key order of every row is compared as well
    assert [list(row.items()) for row in t._adj] == [list(row.items()) for row in adj]
    cs = [r.coords for r in rs.roots]
    assert [t.n_constant(a, b) for a, b, _ in ordered_root_pairs(rs)] == [
        n.get((cs[a], cs[b]), 0) for a, b, _ in ordered_root_pairs(rs)
    ]
    assert list(t.extraspecial.items()) == [
        (root_index(rs, g), (root_index(rs, a), root_index(rs, b)))
        for g, (a, b) in extraspecial.items()
    ]


def _lengthened_string_message(label, forward):
    """The |N| = p+1 raise of label's table when key_index claims the nonroot
    just past one root string, so that string is one step longer.

    The string is that of the pair (b, -g) of the first triple a + b = g,
    forward, or (-g, b), reversed; the reversed string keeps its length.
    Returns the raise's message and the one expected for that pair."""
    t = chevalley_table(build_root_system(cartan_matrix(label)))
    g = t.rank  # the first non-simple root, so its triple is checked first
    _, b = t.extraspecial[g]
    u, w = (b, g + t.npos) if forward else (g + t.npos, b)
    rs = build_root_system(cartan_matrix(label))
    rs.key_index[rs.keys[w] - (string_down(rs, u, w) + 1) * rs.keys[u]] = -1
    with pytest.raises(ArithmeticError) as exc:
        chevalley_table(rs)
    n, cs = abs(t.n_constant(u, w)), [r.coords for r in rs.roots]
    return str(exc.value), f"|N{cs[u]},{cs[w]}| = {n} != p+1 = {n + 1}"


@pytest.mark.parametrize("label", ["G2", "E6"])
def test_magnitude_certificate_runs_on_every_pair(label):
    # (b, -g) is not the extraspecial pair, whose constant walks its own
    # string, so a string one step too long can only show in the |N| = p+1 check
    got, want = _lengthened_string_message(label, forward=True)
    assert got == want


@pytest.mark.parametrize("label", ["G2", "E6"])
def test_magnitude_certificate_checks_the_reversed_order(label):
    # N is computed once per unordered pair; a string that is wrong only in
    # the reversed order must still fail the check, which names that order
    got, want = _lengthened_string_message(label, forward=False)
    assert got == want


def test_root_closure_stops_at_the_finite_type_cap(monkeypatch):
    """Affine A1, let past validate_cartan, has a root string without end."""
    monkeypatch.setattr(rootsys, "validate_cartan", lambda cartan: (1, 1))
    with pytest.raises(CartanMatrixError) as exc:
        RootSystem([[2, -2], [-2, 2]])
    assert str(exc.value) == "root set does not close; not finite type"


@pytest.mark.parametrize("k, norm, message", [
    (0, 3, "non-integral coroot coefficient for (0, 0, 1)"),
    (0, 1, "non-integral constant for (0, 1, 0), (0, -1, -1)"),
    (1, 1, "non-integral constant for (0, -1, -1), (0, 0, 1)"),
])
def test_a_wrong_root_norm_fails_an_integrality_check(k, norm, message):
    """A3 (norms 2) with the norm of roots[k] and of its negative changed: the
    coroot of (0,0,1), or one of the two quotients that give the sign variants
    of N((0,0,1), (0,1,0)) = 1 from it, is not an integer."""
    rs = build_root_system(cartan_matrix("A3"))
    rs.norms = tuple(norm if j % rs.npos == k else n for j, n in enumerate(rs.norms))
    with pytest.raises(ArithmeticError) as exc:
        chevalley_table(rs)
    assert str(exc.value) == message


def test_root_strings_one_step_too_long_fail_the_integrality_check():
    """A3's highest root is (0,0,1) + (1,1,0), its extraspecial pair, and
    (1,0,0) + (0,1,1).  With key_index claiming the six nonroots ±(1,1,-1),
    ±(2,2,1) and ±(1,1,2), the string of each sign variant of the extraspecial
    pair is one step longer, so that pair gets N = 2 and passes |N| = p+1, and
    the other pair's N comes out as 1/2."""
    rs = build_root_system(cartan_matrix("A3"))
    for c in ((1, 1, -1), (2, 2, 1), (1, 1, 2)):
        for sign in (1, -1):
            rs.key_index[root_key(rs, tuple(sign * x for x in c))] = -1
    with pytest.raises(ArithmeticError) as exc:
        chevalley_table(rs)
    assert str(exc.value) == "non-integral constant at (1, 0, 0) + (0, 1, 1) = (1, 1, 1)"


class _MembershipLog(dict):
    """A key_index that logs every key tested with ``in``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tested = []

    def __contains__(self, key):
        self.tested.append(key)
        return super().__contains__(key)


@pytest.mark.parametrize("label, calls", [("G2", 60), ("F4", 816), ("E6", 1440), ("E7", 4032),
                                          ("E8", 13440)])
def test_magnitude_certificate_walks_each_ordered_root_sum_once(label, calls):
    # a work pin: the |N| = p+1 check walks the string of each of the `calls`
    # ordered pairs (u, w) whose sum is a root once, testing the p roots
    # w - u, ..., w - pu and the nonroot below them; each extraspecial pair
    # walks its own string once more, and no other key is tested
    rs = build_root_system(cartan_matrix(label))
    rs.key_index = log = _MembershipLog(rs.key_index)
    t = chevalley_table(rs)
    tested = list(log.tested)
    walks = [(a, b) for a, b, s in ordered_root_pairs(rs) if root_index(rs, s) is not None]
    assert len(walks) == calls
    walks += t.extraspecial.values()
    keys = rs.keys
    assert sorted(tested) == sorted(keys[w] - k * keys[u] for u, w in walks
                                    for k in range(1, string_down(rs, u, w) + 2))


def test_jacobi_small_types():
    for label in ("A2", "B2", "G2", "C3", "D4", "F4"):
        t = chevalley_table(build_root_system(cartan_matrix(label)))
        assert verify_antisymmetry(t)
        assert jacobi_defect(t) is None


def test_jacobi_e6(e6):
    assert verify_antisymmetry(e6)
    assert verify_jacobi(e6)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3", "D4", "F4"])
def test_sparse_jacobi_matches_the_all_triples_scan(label):
    """sparse_jacobi_defect gives jacobi_defect's answer: None on the table,
    and the same first defect with one bracket between root vectors changed:
    the first, middle and last stored negated, and the last coroot bracket
    [x_a, x_-a] with its last term negated, a defect that a scan reaching k
    only through the first term of [e_i, e_j] misses on C3, D4 and F4."""
    t = chevalley_table(build_root_system(cartan_matrix(label)))
    assert sparse_jacobi_defect(t) is None is jacobi_defect(t)
    roots = [(i, j, terms) for i, j, terms in t.brackets() if i >= t.rank]
    i, j, terms = [r for r in roots if r[2][0][0] < t.rank][-1]
    tampered = [(i, j, terms[:-1] + ((terms[-1][0], -terms[-1][1]),))] + [
        (i, j, [(k, -c) for k, c in terms])
        for i, j, terms in (roots[0], roots[len(roots) // 2], roots[-1])]
    for i, j, terms in tampered:
        bad = copy.copy(t)
        bad._adj = [dict(row) for row in t._adj]
        set_bracket(bad, i, j, terms)
        assert sparse_jacobi_defect(bad) == jacobi_defect(bad) is not None, (i, j)


@pytest.mark.parametrize("label", ["E7", "A8", "B8", "C8", "D8"])
def test_jacobi_at_ranks_7_and_8(label):
    """The Jacobi identity on E7 and one type of each classical family at rank
    8, by the sparse scan (the all-triples one takes about 0.25 s on E7 alone)."""
    assert sparse_jacobi_defect(chevalley_table(build_root_system(cartan_matrix(label)))) is None


def _e7_with_one_forced_sign_negated(which):
    """The E7 table with the stored bracket of one pair of positive roots that
    is not extraspecial (the first, middle or last such pair) negated in both
    orders, and that pair of basis indices."""
    t = chevalley_table(build_root_system(cartan_matrix("E7")))
    r, n = t.rank, t.npos
    special = {(r + a, r + b) for a, b in t.extraspecial.values()}
    forced = [(i, j, terms) for i, j, terms in t.brackets()
              if r <= i < r + n and r <= j < r + n and (i, j) not in special]
    assert len(forced) == 336 - 56
    i, j, terms = forced[{"first": 0, "middle": len(forced) // 2, "last": -1}[which]]
    bad = copy.copy(t)
    bad._adj = [dict(row) for row in t._adj]
    set_bracket(bad, i, j, [(k, -c) for k, c in terms])
    return bad, (i, j)


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_e7_with_one_forced_sign_negated_fails_jacobi(which):
    """On E7, negating the stored bracket of one pair of positive roots that is
    not extraspecial (the first, middle or last such pair, in both orders)
    makes the sparse scan report a defect.  The mutant models a forced sign
    gone wrong.  Choosing the sign of an extraspecial pair the other way, with
    every forced sign rebuilt from it, would pass: any choice of those signs
    gives a Chevalley basis (Carter, Simple Groups of Lie Type, 4.2), so no
    identity of the table can single one out."""
    bad, _ = _e7_with_one_forced_sign_negated(which)
    assert sparse_jacobi_defect(bad) is not None


@pytest.mark.parametrize("label", [label for label in REFERENCE_TYPES if label[0] in "ADE"] + [
    "D16"])
def test_every_simply_laced_table_is_the_cocycle_table_up_to_signs(e6, label):
    """The whole table, every entry in both orders, against Kac's lattice
    construction: the simply-laced reference types and D16 (A31 and D32 are
    in tests/table_cross_check.py)."""
    t = e6 if label == "E6" else chevalley_table(build_root_system(cartan_matrix(label)))
    assert cocycle_defect(t) == []


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_e7_with_one_forced_sign_negated_fails_the_cocycle_oracle(which):
    """The forced-sign mutants of the Jacobi test above are reported at the
    negated pair and nowhere else: that pair is off the tree the signs are
    read along.  What the oracle cannot catch is a consistent re-choice of
    signs, x_a -> s_a x_a with s_-a = s_a, which is a Chevalley basis again."""
    bad, pair = _e7_with_one_forced_sign_negated(which)
    assert cocycle_defect(bad) == [pair]


def test_e7_with_an_extraspecial_sign_flipped_fails_the_cocycle_oracle():
    """The extraspecial pair of the highest root negated in both orders, with
    no forced sign rebuilt: the tree absorbs the flip into the sign of the
    highest root, so it is reported at the entries that then disagree, not
    at the pair itself."""
    t = copy.copy(chevalley_table(build_root_system(cartan_matrix("E7"))))
    t._adj = [dict(row) for row in t._adj]
    a, b = t.extraspecial[t.npos - 1]
    i, j = t.rank + a, t.rank + b
    set_bracket(t, i, j, [(k, -c) for k, c in t._adj[i][j]])
    report = cocycle_defect(t)
    assert len(report) == 95 and (i, j) not in report


def test_the_cocycle_oracle_rejects_a_multiply_laced_type():
    with pytest.raises(ValueError, match="simply-laced"):
        cocycle_defect(chevalley_table(build_root_system(cartan_matrix("B2"))))


# -- Killing form --------------------------------------------------------------

def test_killing_a1_value():
    t = chevalley_table(build_root_system(cartan_matrix("A1")))
    K = killing_reference(t)
    assert K[0].get(0, 0) == 8  # trace of (ad h)^2 over the 3-dim basis: 4 + 4


def test_killing_weight_grading_zeros(e6):
    K = killing_reference(e6)
    rank = e6.rank
    npos = e6.npos
    for k1 in range(len(e6.rs.roots)):
        # x_a pairs only with x_{-a}
        k_opp = k1 + npos if k1 < npos else k1 - npos
        for k2 in range(0, len(e6.rs.roots), 7):
            if k2 != k_opp:
                assert K[rank + k1].get(rank + k2, 0) == 0
        assert K[rank + k1].get(rank + k_opp, 0) != 0


def test_killing_e6_nondegenerate(e6):
    assert mat_rank(killing_reference(e6)) == 78


def test_killing_ad_invariance_e6(e6):
    assert verify_ad_invariance(e6, killing_reference(e6))


@pytest.mark.parametrize("label", REFERENCE_TYPES)
def test_every_stored_term_has_the_weight_of_its_pair(e6, label):
    """The table is root-graded, the premise of ``CompactBasis.killing``:
    each stored term e_k of [e_i, e_j] has weight wt(e_i) + wt(e_j)."""
    t = e6 if label == "E6" else chevalley_table(build_root_system(cartan_matrix(label)))
    assert grading_defect(t) is None


def test_an_off_grade_term_fails_the_grading_check():
    # [x_a, x_b] = N x_{a+b} + h_1 for the two simple roots, written in both
    # orders: h_1 has weight 0, not a + b
    t = copy.copy(chevalley_table(build_root_system(cartan_matrix("A2"))))
    t._adj = [dict(row) for row in t._adj]
    i, j = t.rank, t.rank + 1
    set_bracket(t, i, j, t._adj[i][j] + ((0, 1),))
    assert grading_defect(t) == (i, j, 0)


# -- serialization -------------------------------------------------------------

def test_serialization_roundtrip_deterministic(e6_rs, e6):
    a = json.dumps(root_system_to_jsonable(e6_rs), sort_keys=True)
    b = json.dumps(root_system_to_jsonable(build_root_system(cartan_matrix("E6"))),
                   sort_keys=True)
    assert a == b
    ta = json.dumps(structure_table_to_jsonable(e6), sort_keys=True)
    tb = json.dumps(
        structure_table_to_jsonable(chevalley_table(build_root_system(cartan_matrix("E6")))),
        sort_keys=True,
    )
    assert ta == tb
    data = json.loads(ta)
    assert data["dim"] == "78"
    # all coefficients serialized as strings
    for entry in data["brackets"][:50]:
        for k, c in entry["terms"]:
            assert isinstance(k, str) and isinstance(c, str)
