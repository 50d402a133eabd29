import gc
import itertools
import random
import re
import weakref
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from kleinfour import autos
from kleinfour.autos import (
    Automorphism,
    CertificationError,
    certify_batch,
    commutes,
    compose,
    compose_cols,
    conjugate,
    diagram_symmetries,
    identity_automorphism,
    inverse_cols,
    joint_fixed_dim,
    make_automorphism,
    make_klein,
    omega_automorphism,
    parse_descriptor,
    torus_columns,
    torus_involution,
    weyl_lift,
)
from kleinfour.exactq import as_num, lincomb, signed_permutation
from kleinfour.identify import fixed_subalgebra
from kleinfour.rootsys import (BracketTable, _catalog_for_rank, build_root_system, cartan_matrix,
                               chevalley_table)
from helpers import diagram_automorphism, root_index
from oracles import (
    cartan_symmetries_by_scan,
    exp_ad_cols,
    first_homomorphism_defect,
    joint_parity_fixed_dim,
    pairing,
    pairing_parity_fixed_dim,
    torus_parity_type,
)


def fixed_dim(table, auto):
    return fixed_subalgebra(table, [auto]).dim


# -- torus involutions ---------------------------------------------------------

def test_torus_zero_is_identity(e6):
    a = torus_involution(e6, [0] * 6)
    assert a.order == 1


def test_torus_wrong_length_rejected(e6):
    with pytest.raises(ValueError, match="^coefficient vector must have length 6$"):
        torus_involution(e6, [1, 0])


def test_sigma1_fixed_dim_matches_parity_oracle(e6):
    bits = (0, 1, 0, 0, 0, 0)
    a = torus_involution(e6, bits)
    assert a.order == 2
    assert fixed_dim(e6, a) == pairing_parity_fixed_dim(bits) == 38


def test_sigma2_fixed_dim_matches_parity_oracle(e6):
    bits = (1, 0, 0, 0, 0, 1)
    a = torus_involution(e6, bits)
    assert a.order == 2
    assert fixed_dim(e6, a) == pairing_parity_fixed_dim(bits) == 46


def test_torus_parity_oracle_random_sample(e6):
    rng = random.Random(5)
    for _ in range(8):
        bits = tuple(rng.randint(0, 1) for _ in range(6))
        if not any(bits):
            continue
        assert fixed_dim(e6, torus_involution(e6, bits)) == pairing_parity_fixed_dim(bits)


@pytest.mark.parametrize("label", ["A5", "E7", "E8", "B12"])
def test_torus_columns_are_the_direct_character(label):
    """torus:c fixes every h_i and gives every x_b, not only the simple ones,
    the sign (-1)^<b, sum c_i alpha_i^vee>, the pairing read from the Cartan
    matrix alone."""
    table = chevalley_table(build_root_system(cartan_matrix(label)))
    rs, r = table.rs, table.rank
    rng = random.Random(7)
    for _ in range(16):
        c = [rng.randint(-3, 3) for _ in range(r)]
        cols, descriptor = torus_columns(table, c)
        assert descriptor == "torus:" + ",".join(str(x % 2) for x in c)
        assert cols[:r] == [{i: 1} for i in range(r)]
        for k, root in enumerate(rs.roots):
            odd = sum(x * pairing(rs, root.coords, i) for i, x in enumerate(c)) % 2
            assert cols[r + k] == {r + k: -1 if odd else 1}, (label, c, root.coords)


# -- diagram automorphisms -----------------------------------------------------

def test_identity_permutation_gives_identity(e6):
    a = diagram_automorphism(e6, (0, 1, 2, 3, 4, 5))
    assert a.order == 1


def test_omega_involution_with_f4_fixed_dim(e6):
    om = omega_automorphism(e6)
    assert om.order == 2
    assert fixed_dim(e6, om) == 52
    # omega squared is the identity matrix
    sq = compose(om, om)
    assert sq.order == 1


def test_omega_generator_images(e6):
    om = omega_automorphism(e6)
    # h_1 -> h_6, h_2 -> h_2, h_3 -> h_5, h_4 -> h_4 (zero-based columns)
    assert om.cols[0] == {5: 1}
    assert om.cols[1] == {1: 1}
    assert om.cols[2] == {4: 1}
    assert om.cols[3] == {3: 1}
    # simple root vectors map with sign +1
    rs = e6.rs
    for i, j in ((0, 5), (1, 1), (2, 4), (3, 3)):
        src = root_index(rs, tuple(1 if k == i else 0 for k in range(6)))
        dst = root_index(rs, tuple(1 if k == j else 0 for k in range(6)))
        assert om.cols[6 + src] == {6 + dst: 1}


def permutation_order(perm):
    power, order = tuple(perm), 1
    while power != tuple(range(len(perm))):
        power, order = tuple(perm[i] for i in power), order + 1
    return order


@pytest.mark.parametrize("label", ["A3", "A5", "D4", "D5", "E6"])
def test_every_diagram_symmetry_maps_the_generators(e6, label):
    t = e6 if label == "E6" else chevalley_table(build_root_system(cartan_matrix(label)))
    rs, rank = t.rs, t.rank
    perms = diagram_symmetries(rs.cartan)
    assert len(perms) == {"A3": 2, "A5": 2, "D4": 6, "D5": 2, "E6": 2}[label]

    def root_vector(i, sign):
        return rank + root_index(rs, tuple(sign if k == i else 0 for k in range(rank)))

    for perm in perms:
        a = diagram_automorphism(t, perm)
        for i in range(rank):
            assert a.cols[i] == {perm[i]: 1}
            for sign in (1, -1):
                assert a.cols[root_vector(i, sign)] == {root_vector(perm[i], sign): 1}
        assert a.order == permutation_order(perm)
    # D4's triality: two permutations of order 3
    assert sum(permutation_order(p) == 3 for p in perms) == (2 if label == "D4" else 0)


@pytest.mark.parametrize("label", [f"{l}{r}" for n in range(1, 8) for l, r in _catalog_for_rank(n)])
def test_diagram_symmetries_equal_the_permutation_scan(label):
    cartan = cartan_matrix(label)
    assert diagram_symmetries(cartan) == cartan_symmetries_by_scan(cartan)


def test_diagram_symmetries_of_a_disconnected_matrix_equal_the_permutation_scan():
    # A2 + A1 + A1, the two A1 nodes split around A2: four symmetries
    cartan = [[2, 0, 0, 0], [0, 2, -1, 0], [0, -1, 2, 0], [0, 0, 0, 2]]
    assert diagram_symmetries(cartan) == cartan_symmetries_by_scan(cartan)
    assert len(diagram_symmetries(cartan)) == 4


def test_rank8_diagram_symmetry_groups():
    sizes = {t: len(diagram_symmetries(cartan_matrix(t))) for t in ("A8", "B8", "C8", "D8", "E8")}
    assert sizes == {"A8": 2, "B8": 1, "C8": 1, "D8": 2, "E8": 1}


# -- composition ---------------------------------------------------------------

def test_compose_with_identity(e6):
    a = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    assert compose(a, identity_automorphism(e6)) == a


def test_sigma4_is_involution(e6):
    om = omega_automorphism(e6)
    s4 = compose(om, torus_involution(e6, (0, 1, 0, 0, 0, 0)))
    assert s4.order == 2  # omega fixes H_{alpha_2}


def test_torus_composition_is_bitwise_sum(e6):
    c1, c2 = (1, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 1)
    both = compose(torus_involution(e6, c1), torus_involution(e6, c2))
    s = torus_involution(e6, tuple((a + b) % 2 for a, b in zip(c1, c2)))
    assert both == s


# -- commutation and Klein groups ------------------------------------------------

def test_omega_commutes_with_symmetric_torus(e6):
    om = omega_automorphism(e6)
    t = torus_involution(e6, (1, 0, 0, 0, 0, 1))
    assert commutes(om, t)
    ab = make_klein(om, t)
    assert ab == compose(om, t) and ab.order == 2


def test_klein_rejects_equal_generators(e6):
    t = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="equal"):
        make_klein(t, t)


def test_klein_rejects_non_involution(e6):
    t = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="involution"):
        make_klein(identity_automorphism(e6), t)


@pytest.mark.parametrize("op", [compose, commutes, conjugate, make_klein])
def test_automorphisms_of_different_algebras_are_rejected(e6, op):
    a5 = chevalley_table(build_root_system(cartan_matrix("A5")))
    x, y = torus_involution(e6, (1, 0, 0, 0, 0, 1)), torus_involution(a5, (1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="live on different algebras$"):
        op(x, y)


def test_any_two_torus_involutions_commute(e6):
    rng = random.Random(31)
    for _ in range(6):
        c1 = tuple(rng.randint(0, 1) for _ in range(6))
        c2 = tuple(rng.randint(0, 1) for _ in range(6))
        assert commutes(torus_involution(e6, c1), torus_involution(e6, c2))


def _reference_commutes(a, b):
    """Both full products, compared whole."""
    return compose_cols(a.cols, b.cols) == compose_cols(b.cols, a.cols)


def _census_autos(ctx, kind):
    return [ctx.automorphism(r.descriptor) for r in ctx.census.rows if r.kind == kind]


def test_diagonal_is_read_from_the_columns(ctx):
    """A certified signed permutation keeps the pi and signs of its columns; a
    diagonal is pi = identity.  Other shapes, and objects built by hand, have
    neither."""
    ident = tuple(range(78))
    for a in _census_autos(ctx, "inner"):
        assert a.pi == (ident, tuple(col[j] for j, col in enumerate(a.cols))), a
    for a in _census_autos(ctx, "outer") + [omega_automorphism(ctx.table)]:
        perm, signs = a.pi
        assert a.pi == signed_permutation(a.cols) and perm != ident, a
        assert signs == tuple(col[p] for col, p in zip(a.cols, perm)), a
    assert weyl_lift(ctx.table, 0).pi is None
    assert identity_automorphism(ctx.table).pi == (ident, (1,) * 78)
    torus = ctx.automorphism("torus:0,1,0,0,0,0")
    # the descriptor plays no part in the certificate, and a hand-built copy has no pi
    assert parse_descriptor(ctx.table, "omega").pi == omega_automorphism(ctx.table).pi
    assert Automorphism(ctx.table, torus.cols, 2, "torus:0,1,0,0,0,0").pi is None


def test_commutes_matches_full_products(ctx, cross_check_bases):
    """commutes agrees with the whole products, in both orders, on outer x
    outer pairs and on Weyl lifts and a conjugated involution (several entries
    per column) against outer rows (the generic path), on those against torus
    rows, and on torus x outer pairs (the diagonal path)."""
    rng = random.Random(17)
    inner, outer = _census_autos(ctx, "inner"), _census_autos(ctx, "outer")
    dense = [weyl_lift(ctx.table, i) for i in range(6)] + [cross_check_bases["conjugated"]]
    groups = [
        # the outer rows are omega times the omega-symmetric torus rows, which
        # generate an abelian group
        (list(itertools.product(outer, outer)), {True}),
        ([(w, o) for w in dense for o in rng.sample(outer, 4)], {True, False}),
        ([(w, t) for w in dense for t in rng.sample(inner, 12)], {True, False}),
        (list(zip(rng.choices(inner, k=40), rng.choices(outer, k=40))), {True, False}),
    ]
    for pairs, outcomes in groups:
        seen = set()
        for a, b in pairs:
            want = _reference_commutes(a, b)
            assert commutes(a, b) == commutes(b, a) == want, (a, b)
            seen.add(want)
        assert seen == outcomes


def _column_copy(a):
    """a built by hand: no pi, so every rule takes the column path."""
    return Automorphism(a.table, a.cols, a.order, a.descriptor)


def _mask_cols(m):
    """The columns of the signed permutation with masks m."""
    return tuple({p: -1 if m[1] >> j & 1 else 1} for j, p in enumerate(m[0]))


def test_pi_rules_match_the_column_rules(ctx, cross_check_bases):
    """Each pi rule gives what the column rule gives: the product by pi and
    signs and by masks (with the one-XOR rule when the right factor is
    diagonal), its mask trace and commutes on every ordered pair of census
    rows, the masks, the mask trace and the cycle order on every row and on
    signed permutations of order 3 and 4; compose hands the product's pi on
    through the shape certificate.  The inverse, a column rule, composes with
    each of these and with the six Weyl lifts and the conjugated involution
    to the unit columns.  The lifts and the conjugate have no pi and no
    masks, so they check that the column path is taken against the rows."""
    rows = [r.automorphism for r in ctx.census.rows]
    dense = [weyl_lift(ctx.table, i) for i in range(6)] + [cross_check_bases["conjugated"]]
    assert all(a.pi is not None for a in rows) and all(w.pi is w.masks is None for w in dense)
    copies = {id(a): _column_copy(a) for a in rows}
    # signed permutations of order 3 and 4, whose inverse is not themselves
    d4 = chevalley_table(build_root_system(cartan_matrix("D4")))
    om, tori = omega_automorphism(ctx.table), itertools.product((0, 1), repeat=6)
    higher = [diagram_automorphism(d4, (2, 1, 3, 0))]
    higher += [t for t in (compose(om, torus_involution(ctx.table, c)) for c in tori) if t.order == 4]
    assert {a.order for a in higher} == {3, 4}
    for a in rows + dense + higher:
        assert compose_cols(a.cols, inverse_cols(a)) == tuple({j: 1} for j in range(len(a.cols))), a
        if a.pi is not None:
            assert a.masks == autos._masks(a.pi) and _mask_cols(a.masks) == a.cols, a
            col_trace = sum(col.get(j, 0) for j, col in enumerate(a.cols))
            assert autos._mask_trace(*a.masks[1:]) == col_trace, a
            assert autos._cycle_order(a.pi) == autos._composed_order(a.cols) == a.order
    for a, b in itertools.product(rows, rows):
        pi, ab = autos._pi_compose(a.pi, b.pi), compose_cols(a.cols, b.cols)
        masks = autos._mask_compose(a.masks, b.masks)
        assert masks == autos._masks(pi) and _mask_cols(masks) == ab, (a, b)
        if b.diag:
            perm, neg, fix, nfix = a.masks
            assert masks == (perm, neg ^ b.masks[1], fix, nfix), (a, b)
        assert autos._mask_trace(*masks[1:]) == sum(col.get(j, 0) for j, col in enumerate(ab)), (a, b)
        assert commutes(a, b) == commutes(copies[id(a)], copies[id(b)]), (a, b)
    rng = random.Random(29)
    for a, b in [(rng.choice(rows), rng.choice(rows)) for _ in range(6)]:
        ab = compose(a, b)  # recertified: a signed-permutation product takes the shape path
        assert ab.cols == compose_cols(a.cols, b.cols) and ab.pi == autos._pi_compose(a.pi, b.pi)
    for n, w in enumerate(dense):
        for a in rng.sample(rows, 6):
            for x, y in ((w, a), (a, w)):
                assert commutes(x, y) == _reference_commutes(x, y)
                if n < 6:  # a product with the conjugated involution can have infinite order
                    xy = compose(x, y)
                    assert xy.cols == compose_cols(x.cols, y.cols) and xy.pi is None


def _forged(e6, cols, name):
    return Automorphism(e6, tuple(cols), 2, name)


def test_commutes_compares_up_to_the_last_column(e6):
    """Forged pairs whose products differ in the last column only, on the
    generic path and on the diagonal path, and diagonal entries other than
    +1 and -1."""
    n = e6.dim
    last = [{j: 1} for j in range(n - 1)] + [{n - 1: 1, 0: 1}]
    swap = [{1: 1}, {0: 1}] + [{j: 1} for j in range(2, n)]
    signs = [{j: 1} for j in range(n - 1)] + [{n - 1: -1}]
    weights = [{j: j % 3 + 2} for j in range(n)]
    scalar = [{j: 3} for j in range(n)]
    lift = weyl_lift(e6, 3).cols
    for x, y, want in [(swap, last, False), (signs, last, False), (weights, lift, False),
                       (scalar, lift, True), (weights, signs, True)]:
        a, b = _forged(e6, x, "x"), _forged(e6, y, "y")
        assert _reference_commutes(a, b) == commutes(a, b) == commutes(b, a) == want
    for x in (swap, signs):
        ab, ba = compose_cols(x, last), compose_cols(last, x)
        assert [j for j in range(n) if ab[j] != ba[j]] == [n - 1]


# -- Weyl lifts ------------------------------------------------------------------

def test_a1_lift_negates_cartan():
    t = chevalley_table(build_root_system(cartan_matrix("A1")))
    w = weyl_lift(t, 0)
    assert w.cols[0] == {0: -1}


@pytest.mark.parametrize("i", [6, -1])
def test_weyl_lift_rejects_an_index_out_of_range(e6, i):
    with pytest.raises(ValueError, match=f"^simple index out of range: {i}$"):
        weyl_lift(e6, i)


def test_lift_squared_acts_as_identity_on_cartan(e6):
    for i in (0, 3):
        w = weyl_lift(e6, i)
        sq = compose(w, w)
        for j in range(6):
            assert sq.cols[j] == {j: 1}


def test_lift_permutes_root_spaces_by_reflection(e6):
    rs = e6.rs
    i = 1
    w = weyl_lift(e6, i)
    for k, r in enumerate(rs.roots):
        col = w.cols[6 + k]
        assert len(col) == 1
        ((target, coeff),) = col.items()
        refl = list(r.coords)
        refl[i] -= pairing(rs, r.coords, i)
        assert target == 6 + root_index(rs, tuple(refl))
        assert coeff in (1, -1)


def test_conjugation_preserves_fixed_dim(e6):
    s1 = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    for i in (0, 2, 5):
        c = conjugate(weyl_lift(e6, i), s1)
        assert c.order == 2
        assert fixed_dim(e6, c) == 38


def _reference_compose(a, b):
    """a∘b column by column through lincomb, every entry normalised."""
    return tuple(
        {r: as_num(v) for r, v in lincomb(col.values(), (a[k] for k in col)).items()}
        for col in b
    )


def test_compose_cols_normalises_fraction_entries_only(e6):
    """Products of Fraction columns (the exp(ad) factors of a Weyl lift, with
    every entry a Fraction) are ints or non-integral Fractions, and equal and
    hash as the product normalised entry by entry."""
    plus, minus = (0, 0, 1, 0, 0, 0), (0, 0, -1, 0, 0, 0)
    x_plus = {6 + root_index(e6.rs, plus): Fraction(1)}
    e_plus = exp_ad_cols(e6, x_plus)
    e_minus = exp_ad_cols(e6, {6 + root_index(e6.rs, minus): Fraction(-1)})
    e_half = exp_ad_cols(e6, {k: v / 2 for k, v in x_plus.items()})
    for a, b in ((e_plus, e_minus), (e_minus, e_plus), (e_minus, e_half)):
        got = compose_cols(a, b)
        ref = _reference_compose(a, b)
        assert got == ref
        assert hash(tuple(tuple(sorted(c.items())) for c in got)) == hash(
            tuple(tuple(sorted(c.items())) for c in ref)
        )
        assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
                   for col in got for v in col.values())
    assert any(type(v) is Fraction for col in compose_cols(e_minus, e_half) for v in col.values())
    lift = compose_cols(e_plus, compose_cols(e_minus, e_plus))
    assert all(type(v) is int for col in lift for v in col.values())
    assert lift == weyl_lift(e6, 2).cols


def test_inverse_cols_from_the_certified_order(e6):
    for w in (weyl_lift(e6, 0), torus_involution(e6, (0, 1, 0, 0, 0, 0)),
              omega_automorphism(e6), identity_automorphism(e6)):
        ident = tuple({j: 1} for j in range(e6.dim))
        assert compose_cols(w.cols, inverse_cols(w)) == ident
        assert compose_cols(inverse_cols(w), w.cols) == ident


# -- certification ---------------------------------------------------------------

def test_trace_identity_for_involutions(e6):
    for bits in ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (1, 1, 1, 0, 0, 0)):
        a = torus_involution(e6, bits)
        assert 2 * fixed_dim(e6, a) == e6.dim + sum(col.get(j, 0) for j, col in enumerate(a.cols))


def test_joint_fixed_dim_of_one_generator(e6):
    assert joint_fixed_dim([identity_automorphism(e6)]) == 78
    assert joint_fixed_dim([omega_automorphism(e6)]) == 52
    assert joint_fixed_dim([torus_involution(e6, (0, 1, 0, 0, 0, 0))]) == 38


def test_joint_fixed_dim_rejects_other_orders(e6):
    w = weyl_lift(e6, 0)
    assert w.order == 4
    with pytest.raises(ValueError, match="order 4"):
        joint_fixed_dim([torus_involution(e6, (1, 0, 0, 0, 0, 1)), w])
    with pytest.raises(ValueError, match="^joint_fixed_dim needs at least one generator$"):
        joint_fixed_dim([])


def test_joint_fixed_dim_rejects_a_generator_without_pi(e6):
    """The Weyl conjugate of omega is a certified involution with no pi: the
    character sum rejects it, and fixed_subalgebra still gives omega's 52."""
    conj = conjugate(weyl_lift(e6, 0), omega_automorphism(e6))
    assert conj.order == 2 and conj.pi is conj.masks is None
    with pytest.raises(ValueError, match=r"^conj\(weyl:1,omega\) is not a signed permutation$"):
        joint_fixed_dim([torus_involution(e6, (0, 1, 0, 0, 0, 0)), conj])
    assert fixed_dim(e6, conj) == 52


def test_joint_fixed_dim_checks_divisibility(e6):
    # built around make_automorphism on purpose: an odd trace cannot come
    # from a certified involution, so only a forged one reaches the check.
    # A 3-cycle on three basis indices fixes 75 of E6's 78, so the sum is odd
    perm = (1, 2, 0) + tuple(range(3, e6.dim))
    cols = tuple({p: 1} for p in perm)
    forged = Automorphism(e6, cols, 2, "forged", (perm, (1,) * e6.dim))
    with pytest.raises(CertificationError, match="^character sum 153 of forged is not divisible by 2$"):
        joint_fixed_dim([forged])


def _bits(descriptor):
    return tuple(int(b) for b in descriptor[len("torus:"):].split(","))


def test_joint_fixed_dim_of_torus_tuples_matches_joint_parity_oracle(ctx):
    """The character formula on masks equals the parity count of the oracle
    on every pair of torus rows and on a seeded sample of triples."""
    tori = _census_autos(ctx, "inner")
    rng = random.Random(23)
    tuples = list(itertools.combinations(tori, 2)) + [tuple(rng.sample(tori, 3)) for _ in range(200)]
    for gens in tuples:
        want = joint_parity_fixed_dim([_bits(g.descriptor) for g in gens])
        assert joint_fixed_dim(gens) == want, gens


@lru_cache(maxsize=None)
def _type_table(label):
    return chevalley_table(build_root_system(cartan_matrix(label)))


@pytest.mark.parametrize("label", ["A5", "D5", "B4", "C4", "F4", "G2", "E7", "E8"])
def test_joint_fixed_dim_of_torus_groups_matches_the_parity_oracle_on_every_type(label):
    """The character formula on masks equals the rank plus twice the positive
    roots even on every parity vector (oracles.torus_parity_type): on every
    pair of distinct nonzero vectors up to rank 6, and on seeded triples of
    E7 and E8."""
    table, cartan = _type_table(label), cartan_matrix(label)
    vectors = [c for c in itertools.product((0, 1), repeat=table.rank) if any(c)]
    if table.rank <= 6:
        groups = list(itertools.combinations(vectors, 2))
    else:
        rng = random.Random(label)
        groups = [rng.sample(vectors, 3) for _ in range(100 if label == "E7" else 60)]
    tori = {c: torus_involution(table, c) for c in set().union(*groups)}
    for group in groups:
        expected = torus_parity_type(cartan, *group)  # None: the group is trivial
        got = joint_fixed_dim([tori[c] for c in group])
        assert got == (table.dim if expected is None else expected[1]), group


@pytest.mark.parametrize("label", ["A5", "D5"])
def test_joint_fixed_dim_of_twist_torus_pairs_matches_fixed_subalgebra(label):
    """Every commuting pair of an involutive twist omega∘t and a torus
    involution, in both orders: a torus generator second flips the twist's
    signs by the XOR, a twist second composes by _mask_compose, and both
    give the dimension of the fixed subalgebra."""
    table = _type_table(label)
    om = omega_automorphism(table)
    tori = list(dict.fromkeys(torus_involution(table, c)
                              for c in itertools.product((0, 1), repeat=table.rank)))
    twists = [w for w in dict.fromkeys(compose(om, t) for t in tori) if w.order == 2]
    pairs = [(w, t) for w in twists for t in tori if commutes(w, t)]
    assert len(pairs) == {"A5": 16, "D5": 256}[label]
    for w, t in pairs:
        want = fixed_subalgebra(table, [w, t]).dim
        assert joint_fixed_dim([w, t]) == joint_fixed_dim([t, w]) == want, (w, t)


def test_joint_fixed_dim_rejects_a_diagonal_entry_other_than_a_sign(e6):
    """An entry 3 on the diagonal cannot reach a pi rule: a hand-built copy never
    gets a pi, and certify_batch rejects the columns."""
    torus = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    cols = [{j: 3 if j == 10 else s} for j, s in enumerate(torus.pi[1])]
    assert _forged(e6, cols, "forged").pi is None
    with pytest.raises(CertificationError, match="^forged: homomorphism fails at basis pair"):
        certify_batch(e6, [(cols, "forged")])


def test_fixed_plus_antifixed_fills_algebra(e6):
    from kleinfour.exactq import kernel

    def shifted_rows(a, eigen):
        # sparse rows of A - eigen*I, transposed here from the columns of A
        rows = [{i: -eigen} for i in range(78)]
        for j, col in enumerate(a.cols):
            for i, x in col.items():
                rows[i][j] = rows[i].get(j, 0) + x
        return rows

    for desc_bits in ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)):
        involutions = [torus_involution(e6, desc_bits), omega_automorphism(e6)]
        for a in involutions:
            plus = kernel(shifted_rows(a, 1), 78)
            minus = kernel(shifted_rows(a, -1), 78)
            assert len(plus) + len(minus) == 78


def test_certification_rejects_sign_corruption(e6):
    good = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    cols = [dict(c) for c in good.cols]
    # flip one root-vector sign: no longer a homomorphism
    cols[6] = {k: -v for k, v in cols[6].items()}
    with pytest.raises(CertificationError):
        make_automorphism(e6, cols, "corrupted")


def _flip_col6(cols):
    cols[6] = {k: -v for k, v in cols[6].items()}


def _bump(col, row, delta):
    def edit(cols):
        cols[col][row] = cols[col].get(row, 0) + delta
    return edit


@pytest.mark.parametrize("descriptor, edit, pair", [
    ("torus:0,1,0,0,0,0", _flip_col6, "(x+[0,0,0,0,0,1], x+[0,0,0,0,1,0])"),
    ("torus:0,1,0,0,0,0", _bump(20, 20, Fraction(1, 2)), "(x+[0,0,0,0,1,0], x+[0,1,1,1,0,0])"),
    ("omega*torus:0,0,1,0,1,0", _bump(3, 3, 2), "(h4, x+[0,0,0,0,1,0])"),
    ("weyl:3", _bump(1, 40, 1), "(h2, h4)"),
    ("weyl:3", _bump(2, 0, -1), "(h3, x+[0,0,0,1,0,0])"),
])
def test_certification_names_first_failing_pair(ctx, descriptor, edit, pair):
    # the message names the lexicographically first basis pair i < j at which
    # [A e_i, A e_j] != A [e_i, e_j]
    good = weyl_lift(ctx.table, 2) if descriptor == "weyl:3" else ctx.automorphism(descriptor)
    cols = [dict(c) for c in good.cols]
    edit(cols)
    with pytest.raises(CertificationError) as err:
        make_automorphism(ctx.table, cols, "corrupted")
    assert str(err.value) == f"corrupted: homomorphism fails at basis pair {pair}"


@pytest.fixture(scope="module")
def certified(ctx):
    return {
        "torus": ctx.automorphism("torus:0,1,0,0,0,0"),
        "omega-twist": ctx.automorphism("omega*torus:0,0,1,0,1,0"),
        "weyl-lift": weyl_lift(ctx.table, 2),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["torus", "omega-twist", "weyl-lift"]),
    col=st.integers(0, 77),
    shift=st.one_of(st.just(0), st.integers(1, 77)),
    delta=st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3)]),
)
def test_certification_rejects_single_entry_corruption(certified, kind, col, shift, delta):
    # g + d e_row e_col^T = g(1 + u e_col^T) with u != 0; were it an
    # automorphism, 1 + u e_col^T would fix a codimension-1 subalgebra, which
    # E6 does not have.  shift 0 changes the diagonal entry.
    good = certified[kind]
    cols = [dict(c) for c in good.cols]
    row = (col + shift) % len(cols)
    cols[col][row] = cols[col].get(row, 0) + delta
    with pytest.raises(CertificationError):
        make_automorphism(good.table, cols, "corrupted")


# -- cross-check against the generic all-pairs certifier ----------------------

_LIFT_TYPES = ("E6", "B3", "C3", "F4", "G2")


@pytest.fixture(scope="module")
def lift_tables(e6):
    out = {"E6": e6}
    for label in _LIFT_TYPES[1:]:
        out[label] = chevalley_table(build_root_system(cartan_matrix(label)))
    return out


def _homomorphism_verdict(table, cols):
    """make_automorphism's homomorphism message for cols, or None if it holds."""
    try:
        make_automorphism(table, cols, "candidate")
    except CertificationError as err:
        if "homomorphism fails" in str(err):
            return str(err)
    return None


def _reference_verdict(table, cols):
    pair = first_homomorphism_defect(table, cols)
    if pair is None:
        return None
    i, j = pair
    return (f"candidate: homomorphism fails at basis pair "
            f"({table.basis_label(i)}, {table.basis_label(j)})")


def test_census_automorphisms_pass_the_reference_certifier(ctx):
    bits = [",".join(map(str, b)) for b in itertools.product((0, 1), repeat=6)]
    for descriptor in ["torus:" + b for b in bits[1:]] + ["omega*torus:" + b for b in bits]:
        a = ctx.automorphism(descriptor)
        assert first_homomorphism_defect(ctx.table, a.cols) is None, descriptor
        assert make_automorphism(ctx.table, a.cols, descriptor).order == a.order


@pytest.mark.parametrize("label", _LIFT_TYPES)
def test_weyl_lifts_pass_the_reference_certifier(lift_tables, label):
    table = lift_tables[label]
    for i in range(table.rank):
        assert first_homomorphism_defect(table, weyl_lift(table, i).cols) is None


@pytest.mark.parametrize("label", ("A1", "D4") + _LIFT_TYPES)
def test_weyl_lifts_equal_the_exponential_product(lift_tables, label):
    """weyl_lift(table, i) is exp(ad x_{a_i}) exp(ad -x_{-a_i}) exp(ad x_{a_i}),
    each factor the oracle's power series, column for column; its certified
    order is the order of that product, and only A1's lift (h -> -h,
    x_a -> -x_{-a}) is a signed permutation with a pi."""
    table = lift_tables.get(label) or chevalley_table(build_root_system(cartan_matrix(label)))
    rs, r = table.rs, table.rank
    ident = tuple({j: 1} for j in range(table.dim))
    for i in range(r):
        e_plus = exp_ad_cols(table, {r + rs.simple[i]: 1})
        e_minus = exp_ad_cols(table, {r + rs.simple[i] + rs.npos: -1})
        product = compose_cols(e_plus, compose_cols(e_minus, e_plus))
        lift = weyl_lift(table, i)
        assert lift.cols == product, (label, i)
        power, order = product, 1
        while power != ident:
            power, order = compose_cols(product, power), order + 1
        assert lift.order == order, (label, i)
        assert (lift.pi is None) == (label != "A1"), (label, i)


@pytest.fixture(scope="module")
def cross_check_bases(ctx, lift_tables):
    """Certified automorphisms to corrupt: monomial, Weyl-lift and dense columns."""
    t = ctx.table
    torus = ctx.automorphism("torus:0,1,0,0,0,0")
    # exp(ad x) torus exp(-ad x) for a root vector x that torus negates: an
    # involution whose root-vector columns have up to three entries
    k = t.rank + root_index(t.rs, (0, 0, 0, 1, 0, 0))
    conj = compose_cols(exp_ad_cols(t, {k: 1}), compose_cols(torus.cols, exp_ad_cols(t, {k: -1})))
    out = {
        "torus": torus,
        "omega-twist": ctx.automorphism("omega*torus:0,0,1,0,1,0"),
        "conjugated": make_automorphism(t, conj, "conjugated"),
    }
    for label in _LIFT_TYPES:
        out["weyl-" + label] = weyl_lift(lift_tables[label], 1)
    return out


_edit = st.tuples(
    st.integers(0, 10**4),
    st.one_of(st.just(0), st.integers(1, 10**4)),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 3), "cancel"]),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["torus", "omega-twist", "conjugated"]
                         + ["weyl-" + label for label in _LIFT_TYPES]),
    edits=st.lists(_edit, min_size=1, max_size=2),
)
def test_certification_agrees_with_reference_certifier(cross_check_bases, kind, edits):
    # one or two entries changed; "cancel" deletes an existing entry, so a
    # bracket can vanish on one side of the equation and not on the other
    good = cross_check_bases[kind]
    table = good.table
    cols = [dict(c) for c in good.cols]
    for col, shift, delta in edits:
        col %= table.dim
        row = (col + shift) % table.dim
        if delta == "cancel":
            keys = sorted(cols[col])
            if keys:
                del cols[col][keys[shift % len(keys)]]
        else:
            cols[col][row] = cols[col].get(row, 0) + delta
    assert _homomorphism_verdict(table, cols) == _reference_verdict(table, cols)


# -- shape and batch paths of signed permutations --------------------------------

def _flip(cols, i, j):
    cols[i] = {k: -v for k, v in cols[i].items()}


def _swap(cols, i, j):
    cols[i], cols[j] = cols[j], cols[i]


def _magnitude_two(cols, i, j):
    cols[i] = {k: 2 * v for k, v in cols[i].items()}


def _extra_entry(cols, i, j):
    cols[i][next(iter(cols[j]))] = 1


def _same_target(cols, i, j):
    cols[j] = dict(cols[i])


# (corruption, whether the columns stay a signed permutation)
_SHAPE_CORRUPTIONS = [
    (_flip, True),
    (_swap, True),
    (_magnitude_two, False),
    (_extra_entry, False),
    (_same_target, False),
]


@pytest.fixture(scope="module")
def shape_bases(ctx):
    """Certified signed permutations: diagonal, twisted and of order 3."""
    a5 = chevalley_table(build_root_system(cartan_matrix("A5")))
    d4 = chevalley_table(build_root_system(cartan_matrix("D4")))
    return {
        "E6 torus": ctx.automorphism("torus:0,1,0,0,0,0"),
        "E6 omega-twist": ctx.automorphism("omega*torus:0,0,1,0,1,0"),
        "A5 omega-twist": compose(omega_automorphism(a5), torus_involution(a5, (1, 0, 0, 1, 0))),
        "D4 triality": diagram_automorphism(d4, (2, 1, 3, 0)),
    }


def _batch_verdict(table, intact, cols):
    """The homomorphism message of cols certified in one batch between two
    intact members, or None."""
    batch = [(intact, "intact"), (cols, "candidate"), (intact, "intact")]
    try:
        certify_batch(table, batch)
    except CertificationError as exc:
        return str(exc) if "homomorphism fails" in str(exc) else None
    return None


@pytest.mark.parametrize("base", ["E6 torus", "E6 omega-twist", "A5 omega-twist", "D4 triality"])
def test_shape_and_batch_paths_agree_with_the_reference_certifier(shape_bases, monkeypatch, base):
    # every corruption, alone and inside one batch with the intact columns,
    # gets the reference verdict and first failing pair; a corruption that
    # leaves the shape falls back to the generic walk, one that merges two
    # targets never passes, and the intact member never needs the generic walk
    good = shape_bases[base]
    table = good.table
    assert signed_permutation(good.cols) is not None
    r, n, dim = table.rank, table.npos, table.dim
    candidates = []
    for corrupt, keeps_shape in _SHAPE_CORRUPTIONS:
        for i, j in [(0, r), (r + 1, dim - 1), (r + n, 1)]:
            cols = [dict(c) for c in good.cols]
            corrupt(cols, i, j)
            assert (signed_permutation(cols) is not None) == keeps_shape, (corrupt, i, j)
            if corrupt in (_magnitude_two, _same_target):
                assert first_homomorphism_defect(table, cols) is not None, (corrupt, i, j)
            candidates.append(cols)
    expected = [_reference_verdict(table, cols) for cols in candidates]
    assert [_homomorphism_verdict(table, cols) for cols in candidates] == expected
    generic = BracketTable.homomorphism_defect
    for cols, want in zip(candidates, expected):
        walked = []
        monkeypatch.setattr(BracketTable, "homomorphism_defect",
                            lambda self, c: walked.append(list(c)) or generic(self, c))
        assert _batch_verdict(table, good.cols, cols) == want
        assert walked == [cols]
    if base == "D4 triality":
        assert certify_batch(table, [(good.cols, "t")])[0].order == 3


@pytest.mark.parametrize("corrupt", [_flip, _swap, _magnitude_two])
def test_batch_isolates_a_corrupted_member(ctx, monkeypatch, corrupt):
    table = ctx.table
    batch = [torus_columns(table, bits) for bits in itertools.product((0, 1), repeat=table.rank)]
    cols = [dict(c) for c in batch[37][0]]
    corrupt(cols, table.rank + 2, table.rank + 9)
    walked = []
    generic = BracketTable.homomorphism_defect
    monkeypatch.setattr(BracketTable, "homomorphism_defect",
                        lambda self, c: walked.append(c) or generic(self, c))
    # the corrupted copy is certified last, after every intact member
    with pytest.raises(CertificationError) as err:
        certify_batch(table, batch + [(cols, "corrupted")])
    assert walked == [tuple(cols)]  # only the corrupted member ran the generic walk
    got = certify_batch(table, batch)
    monkeypatch.undo()
    assert walked == [tuple(cols)]
    with pytest.raises(CertificationError) as single_err:
        make_automorphism(table, cols, "corrupted")
    i, j = first_homomorphism_defect(table, cols)
    assert str(err.value) == str(single_err.value) == (
        f"corrupted: homomorphism fails at basis pair "
        f"({table.basis_label(i)}, {table.basis_label(j)})")
    for a, (cols, descriptor) in zip(got, batch):
        single = make_automorphism(table, cols, descriptor)
        assert (a.cols, a.order, a.pi, a.descriptor) == (
            single.cols, single.order, single.pi, single.descriptor), descriptor


def test_e7_torus_gradings_certify_in_one_batch():
    # E7's center has order 2: one nonzero torus descriptor is the identity,
    # and the other 126 give 63 distinct involutions
    table = chevalley_table(build_root_system(cartan_matrix("E7")))
    batch = [torus_columns(table, bits) for bits in itertools.product((0, 1), repeat=7)][1:]
    got = certify_batch(table, batch)
    for a, (cols, descriptor) in zip(got, batch):
        single = make_automorphism(table, cols, descriptor)
        assert (a.cols, a.order, a.pi, a.descriptor) == (
            single.cols, single.order, single.pi, single.descriptor), descriptor
    assert sum(a.order == 1 for a in got) == 1
    assert len({tuple(tuple(c.items()) for c in a.cols) for a in got if a.order != 1}) == 63
    for a in random.Random(127).sample(got, 3):
        assert first_homomorphism_defect(table, a.cols) is None, a.descriptor


@pytest.mark.parametrize("label", ["E6", "E7"])
def test_identity_pi_loop_agrees_with_the_generic_walk(monkeypatch, label):
    # every nontrivial torus grading, plus one member with the sign of one root
    # vector flipped, as one batch.  w∘A is a homomorphism iff A is, for an
    # automorphism w; the w-twisted batch shares w's pi, so the generic pi walk
    # must read there the verdicts the identity-pi loop reads on the gradings.
    # w is the Chevalley involution (h -> -h, x_a -> -x_-a), and omega on E6
    table = chevalley_table(build_root_system(cartan_matrix(label)))
    r, n = table.rank, table.npos
    batch = [torus_columns(table, bits) for bits in itertools.product((0, 1), repeat=r)][1:]
    flipped = [dict(c) for c in batch[0][0]]
    flipped[r + 3] = {r + 3: -flipped[r + 3][r + 3]}
    batch.append((flipped, "flipped"))
    full, flagged = (1 << len(batch)) - 1, 1 << (len(batch) - 1)
    chevalley = [{i: -1} for i in range(r)] + [{r + (k + n) % (2 * n): -1} for k in range(2 * n)]
    twists = [make_automorphism(table, chevalley, "chevalley")]
    twists += [omega_automorphism(table)] if label == "E6" else []

    def flags(members):
        pis = [signed_permutation(cols) for cols in members]
        assert len({pi[0] for pi in pis}) == 1
        bits = [sum((s < 0) << m for m, s in enumerate(signs)) for signs in zip(*(pi[1] for pi in pis))]
        return table.signed_permutation_flags(pis[0][0], bits, full), bits

    assert flags([cols for cols, _ in batch])[0] == flagged
    for w in twists:
        twisted, bits = flags([compose_cols(w.cols, cols) for cols, _ in batch])
        assert twisted == flagged, w.descriptor
        # so the twisted batch took the generic walk: read by the identity
        # loop, its bits (every h_i negated) would flag every member
        assert table.signed_permutation_flags(tuple(range(table.dim)), bits, full) == full
    walked = []
    generic = BracketTable.homomorphism_defect
    monkeypatch.setattr(BracketTable, "homomorphism_defect",
                        lambda self, c: walked.append(c) or generic(self, c))
    with pytest.raises(CertificationError) as err:  # flipped is the last member
        certify_batch(table, batch)
    monkeypatch.undo()
    assert walked == [tuple(flipped)]
    i, j = first_homomorphism_defect(table, flipped)
    assert str(err.value) == (f"flipped: homomorphism fails at basis pair "
                              f"({table.basis_label(i)}, {table.basis_label(j)})")


def test_certification_rejects_non_invertible(e6):
    cols = [{0: 1} for _ in range(e6.dim)]
    with pytest.raises(CertificationError):
        make_automorphism(e6, cols, "rank-one")


def test_certification_rejects_a_missing_column(e6):
    cols = torus_involution(e6, (0, 1, 0, 0, 0, 0)).cols
    with pytest.raises(CertificationError, match="^short: expected 78 columns$"):
        make_automorphism(e6, cols[:-1], "short")


def test_a_non_unit_extension_sign_fails_the_certificate():
    """alpha_1 <-> -alpha_1 on A2 is no lattice map: x_{a1+a2} gets the sign
    N(-a1, a2) / N(a1, a2) = 0, which _root_map_columns does not check, and
    the homomorphism certificate rejects the columns."""
    t = chevalley_table(build_root_system(cartan_matrix("A2")))
    a, npos = t.rs.simple[0], t.npos
    img = list(range(len(t.rs.roots)))
    img[a], img[a + npos] = a + npos, a
    with pytest.raises(CertificationError,
                       match=re.escape("bad: homomorphism fails at basis pair (h1, x+[0,1])")):
        make_automorphism(t, autos._root_map_columns(t, img, [1, 1]), "bad")


# -- descriptors -------------------------------------------------------------------

def test_parse_descriptor_roundtrip(e6):
    a = parse_descriptor(e6, "omega*torus:0,0,1,0,1,0")
    assert a.order == 2
    assert parse_descriptor(e6, "torus:0,1,0,0,0,0").descriptor == "torus:0,1,0,0,0,0"
    assert parse_descriptor(e6, "identity").order == 1
    with pytest.raises(ValueError):
        parse_descriptor(e6, "bogus:1")
    with pytest.raises(ValueError):
        parse_descriptor(e6, "torus:1,2")


@pytest.mark.parametrize("label, text", [
    ("A1", "torus:1"), ("A5", "torus:1,0,1,0,1"), ("D5", "torus:0,0,0,1,1"),
    ("E7", "torus:0,1,0,0,1,0,1"),
])
def test_torus_factor_that_is_the_identity_raises(label, text):
    """Odd coefficients on which every root is even name the identity: an
    error naming the descriptor and the type, with or without omega; all-even
    coefficients still name the identity on purpose."""
    table = chevalley_table(build_root_system(cartan_matrix(label)))
    assert torus_involution(table, [int(x) for x in text[6:].split(",")]).order == 1
    for desc in [text] + ["omega*" + text] * (label == "A5"):
        with pytest.raises(ValueError, match=f"'{re.escape(desc)}' is the identity of {label}$"):
            parse_descriptor(table, desc)
    assert parse_descriptor(table, "torus:" + ",".join(["2"] + ["0"] * (table.rank - 1))).order == 1


def test_a_twist_is_certified_once_as_the_product_of_its_factors(e6, monkeypatch):
    """omega*torus:c composes the uncertified columns of omega and the torus
    factor and certifies the product alone: on all 64 E6 twists (some of
    order 4) the columns, order, pi and descriptor of compose(omega, torus),
    each from one certify_batch member: neither factor is certified."""
    om = omega_automorphism(e6)
    want = {bits: compose(om, torus_involution(e6, bits))
            for bits in itertools.product((0, 1), repeat=6)}
    sizes = []
    certify = autos.certify_batch

    def counting(table, batch):
        batch = list(batch)
        sizes.append(len(batch))
        return certify(table, batch)

    monkeypatch.setattr(autos, "certify_batch", counting)
    for bits, w in want.items():
        # coefficients are read mod 2, and the descriptor names the bits
        text = "omega*torus:" + ",".join(str(b + 2 * (i == 0)) for i, b in enumerate(bits))
        a = parse_descriptor(e6, text)
        assert (a.cols, a.order, a.pi, a.descriptor) == (w.cols, w.order, w.pi, w.descriptor)
    assert sizes == [1] * 64
    assert {w.order for w in want.values()} == {2, 4}


# -- orders of signed permutations and the identity --------------------------------

def _pi_of(cols):
    """(pi, signs) of single-entry columns."""
    return tuple(next(iter(c)) for c in cols), tuple(next(iter(c.values())) for c in cols)


def test_cycle_orders_match_the_composing_loop(e6):
    """The cycle rule gives the composing loop's order on every signed
    permutation the package builds: the E6 tori, all 64 omega-twists (some of
    order 4), omega on A5, D4 triality and the nontrivial E7 tori."""
    om = omega_automorphism(e6)
    tori = [torus_involution(e6, bits) for bits in itertools.product((0, 1), repeat=6)]
    twists = [compose(om, t) for t in tori]
    a5 = chevalley_table(build_root_system(cartan_matrix("A5")))
    d4 = chevalley_table(build_root_system(cartan_matrix("D4")))
    e7 = chevalley_table(build_root_system(cartan_matrix("E7")))
    e7_tori = certify_batch(e7, [torus_columns(e7, bits)
                                 for bits in itertools.product((0, 1), repeat=7)][1:])
    autos_built = tori + twists + e7_tori
    autos_built += [omega_automorphism(a5), diagram_automorphism(d4, (2, 1, 3, 0))]
    assert len(autos_built) == 64 + 64 + 127 + 2
    for a in autos_built:
        assert signed_permutation(a.cols) == a.pi, a.descriptor
        assert autos._cycle_order(a.pi) == autos._composed_order(a.cols) == a.order
    assert {a.order for a in twists} == {2, 4}
    assert autos_built[-1].order == 3


def test_cycle_order_of_a_cycle_with_sign_product_minus_one():
    # e0 -> e1 -> -e2 -> e0: the third power is -1 on the cycle, the sixth is 1
    cols = ({1: 1}, {2: -1}, {0: 1}, {3: -1}, {4: 1})
    assert autos._cycle_order(_pi_of(cols)) == 6 == autos._composed_order(cols)
    assert autos._cycle_order(_pi_of(({1: -1}, {0: -1}))) == 2


def test_cycle_order_above_the_cap_raises_the_composing_message():
    # cycles of lengths 7 and 11: order 77 > _ORDER_CAP; a stub table lets
    # both order paths run on these 18 columns
    perm = tuple(list(range(1, 7)) + [0] + list(range(8, 18)) + [7])
    cols = tuple({p: 1} for p in perm)
    assert autos._cycle_order(_pi_of(cols)) == 77
    assert autos._composed_order(cols) == autos._ORDER_CAP + 1
    stub = SimpleNamespace(dim=18, homomorphism_defect=lambda cc: None)
    messages = []
    for generic in (False, True):
        with pytest.raises(CertificationError) as exc:
            autos._certify(stub, cols, "synthetic", generic, _pi_of(cols))
        messages.append(str(exc.value))
    assert messages == [f"synthetic: order exceeds cap {autos._ORDER_CAP}"] * 2


def test_parsing_keeps_nothing_on_the_table_and_the_identity_is_freed_with_it():
    table = chevalley_table(build_root_system(cartan_matrix("A2")))
    before = dict(vars(table))
    ident = identity_automorphism(table)
    assert ident.order == 1
    assert parse_descriptor(table, "identity") == parse_descriptor(table, "id") == ident
    for text in ("omega", "omega*torus:1,0"):
        parse_descriptor(table, text)
    assert vars(table) == before
    # Automorphism has no weakref slot; it holds its table, so the table
    # being collected means no live reference to the identity remains
    ref = weakref.ref(table)
    del table, ident
    gc.collect()
    assert ref() is None
