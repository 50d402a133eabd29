import gc
import itertools
import random
import re
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from kleinfour import autos
from kleinfour.autos import (
    Automorphism,
    CertificationError,
    certify_batch,
    commutes,
    compose,
    conjugate,
    diagram_symmetries,
    identity_automorphism,
    joint_fixed_dim,
    make_automorphism,
    make_klein,
    omega_automorphism,
    parse_descriptor,
    torus_columns,
    torus_involution,
    weyl_lift,
)
from kleinfour.exactq import signed_permutation
from kleinfour.identify import fixed_subalgebra
from kleinfour.verify import VerifyContext
from kleinfour.rootsys import (StructureTable, _catalog_for_rank, build_root_system, cartan_matrix,
                               chevalley_table)
from helpers import (composed_order, constructed, constructed_kind_defects, diagram_automorphism,
                     root_index, root_map_cols)
from oracles import (
    REFERENCE_TYPES,
    cartan_symmetries_by_scan,
    compose_cols,
    exp_ad_cols,
    first_homomorphism_defect,
    homomorphism_fails_at,
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
    """torus:c has the identity img and gives every x_b, not only the simple
    ones, the sign (-1)^<b, sum c_i alpha_i^vee>, the pairing read from the
    Cartan matrix alone."""
    table = chevalley_table(build_root_system(cartan_matrix(label)))
    rs, r = table.rs, table.rank
    rng = random.Random(7)
    for _ in range(16):
        c = [rng.randint(-3, 3) for _ in range(r)]
        (img, eta), descriptor = torus_columns(table, c)
        assert descriptor == "torus:" + ",".join(str(x % 2) for x in c)
        assert tuple(img) == tuple(range(len(rs.roots)))
        for k, root in enumerate(rs.roots):
            odd = sum(x * pairing(rs, root.coords, i) for i, x in enumerate(c)) % 2
            assert eta[k] == (-1 if odd else 1), (label, c, root.coords)


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
    """Both full products of the columns, compared whole."""
    return compose_cols(a.cols, b.cols) == compose_cols(b.cols, a.cols)


def _census_autos(ctx, kind):
    return [ctx.automorphism(r.descriptor) for r in ctx.census.rows if r.kind == kind]


def test_diagonal_is_read_from_the_columns(ctx):
    """A certified automorphism whose img sends each simple root to +- a
    simple root has the pi and signs of its columns; a diagonal is img = the
    identity.  A Weyl lift has no pi, and an object built by hand from the
    same root map derives the same pi."""
    ident = tuple(range(78))
    for a in _census_autos(ctx, "inner"):
        assert a.diag and a.pi == (ident, tuple(col[j] for j, col in enumerate(a.cols))), a
    for a in _census_autos(ctx, "outer") + [omega_automorphism(ctx.table)]:
        perm, signs = a.pi
        assert a.pi == signed_permutation(a.cols) and perm != ident and not a.diag, a
        assert signs == tuple(col[p] for col, p in zip(a.cols, perm)), a
    assert weyl_lift(ctx.table, 0).pi is None
    identity = identity_automorphism(ctx.table)
    assert identity.pi == (ident, (1,) * 78) and identity.diag
    torus = ctx.automorphism("torus:0,1,0,0,0,0")
    # the descriptor plays no part in the certificate
    assert parse_descriptor(ctx.table, "omega").pi == omega_automorphism(ctx.table).pi
    copy = Automorphism(ctx.table, torus.img, torus.eta, 2, "copy")
    assert (copy.pi, copy.masks, copy.cols) == (torus.pi, torus.masks, torus.cols)


def test_commutes_matches_full_products(ctx, cross_check_bases):
    """commutes agrees with the whole column products, in both orders, on
    outer x outer pairs and on Weyl lifts and a Weyl conjugate of omega (no
    pi) against outer rows (the root-map rule), on those against torus rows,
    and on torus x outer pairs (the diagonal tier)."""
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


def _mask_cols(m):
    """The columns of the signed permutation with masks m."""
    return tuple({p: -1 if m[1] >> j & 1 else 1} for j, p in enumerate(m[0]))


def _unit(table):
    return tuple({j: 1} for j in range(table.dim))


def _root_map(a):
    return a.img, a.eta


def test_pi_rules_match_the_column_rules(ctx, cross_check_bases):
    """Each root-index rule gives what the column rule gives: the product of
    every ordered pair of census rows, by img and eta and by masks (with the
    one-XOR rule when the right factor is diagonal), its mask trace, and
    commutes; the masks, the mask trace, the derived pi and the cycle order
    on every row and on signed permutations of order 3 and 4; compose hands
    the product's pi on.  The inverse composes with each of these and with
    the six Weyl lifts and the Weyl conjugate of omega to the identity, and
    its columns are the inverse's.  The lifts and the conjugate have no pi
    and no masks."""
    table = ctx.table
    rows = [r.automorphism for r in ctx.census.rows]
    dense = [weyl_lift(table, i) for i in range(6)] + [cross_check_bases["conjugated"]]
    assert all(a.pi is not None for a in rows) and all(w.pi is w.masks is None for w in dense)
    # signed permutations of order 3 and 4, whose inverse is not themselves
    d4 = chevalley_table(build_root_system(cartan_matrix("D4")))
    om, tori = omega_automorphism(table), itertools.product((0, 1), repeat=6)
    higher = [diagram_automorphism(d4, (2, 1, 3, 0))]
    higher += [t for t in (compose(om, torus_involution(table, c)) for c in tori) if t.order == 4]
    assert {a.order for a in higher} == {3, 4}
    for a in rows + dense + higher:
        inv, unit = autos._inverse(_root_map(a)), (tuple(range(len(a.img))), (1,) * len(a.img))
        assert autos._compose(_root_map(a), inv) == autos._compose(inv, _root_map(a)) == unit, a
        assert compose_cols(a.cols, root_map_cols(a.table, inv)) == _unit(a.table), a
        assert autos._cycle_order(_root_map(a)) == composed_order(a.cols) == a.order, a
        assert a.pi == signed_permutation(a.cols), a
        if a.pi is not None:
            assert a.masks == autos._masks(a.pi) and _mask_cols(a.masks) == a.cols, a
            col_trace = sum(col.get(j, 0) for j, col in enumerate(a.cols))
            assert autos._mask_trace(*a.masks[1:]) == col_trace, a
    for a, b in itertools.product(rows, rows):
        ab, root_ab = compose_cols(a.cols, b.cols), autos._compose(_root_map(a), _root_map(b))
        assert root_map_cols(table, root_ab) == ab, (a, b)
        masks = autos._mask_compose(a.masks, b.masks)
        assert masks == autos._masks(autos._compose(a.pi, b.pi)) and _mask_cols(masks) == ab
        if b.diag:
            perm, neg, fix, nfix = a.masks
            assert masks == (perm, neg ^ b.masks[1], fix, nfix), (a, b)
        assert autos._mask_trace(*masks[1:]) == sum(col.get(j, 0) for j, col in enumerate(ab)), (a, b)
        # root_ba is checked against the columns when (b, a) comes round
        assert commutes(a, b) == (root_ab == autos._compose(_root_map(b), _root_map(a))), (a, b)
    rng = random.Random(29)
    for a, b in [(rng.choice(rows), rng.choice(rows)) for _ in range(6)]:
        ab = compose(a, b)
        assert ab.cols == compose_cols(a.cols, b.cols) and ab.pi == autos._compose(a.pi, b.pi)
    for w in dense:
        for a in rng.sample(rows, 6):
            for x, y in ((w, a), (a, w)):
                assert commutes(x, y) == _reference_commutes(x, y)
                xy = compose(x, y)
                assert xy.cols == compose_cols(x.cols, y.cols) and xy.pi is None


def _forged(table, img, eta, name):
    return Automorphism(table, tuple(img), tuple(eta), 2, name)


def test_commutes_compares_up_to_the_last_column(e6):
    """Forged root maps whose products differ only at the last two root
    indices, on the diagonal tier and on the root-map rule, with the column
    products as the reference."""
    n = len(e6.rs.roots)
    ident, swap = list(range(n)), list(range(n - 2)) + [n - 1, n - 2]
    last, both = [1] * (n - 1) + [-1], [1] * (n - 2) + [-1, -1]
    for x, y, want in [((swap, [1] * n), (ident, last), False),
                       ((swap, [1] * n), (ident, both), True),
                       ((swap, [1] * n), (swap, last), False),
                       ((swap, [1] * n), (swap, both), True)]:
        a, b = _forged(e6, *x, "x"), _forged(e6, *y, "y")
        assert _reference_commutes(a, b) == commutes(a, b) == commutes(b, a) == want
        ab, ba = autos._compose(_root_map(a), _root_map(b)), autos._compose(_root_map(b), _root_map(a))
        assert [r for r in range(n) if ab[1][r] != ba[1][r]] == ([] if want else [n - 2, n - 1])


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


def test_inverse_cols_from_the_certified_order(e6):
    """The root-index inverse certifies, composes with w to the identity both
    ways and is w^(order - 1), by the certified order of w; its columns
    invert w's."""
    ident = identity_automorphism(e6)
    for w in (weyl_lift(e6, 0), torus_involution(e6, (0, 1, 0, 0, 0, 0)),
              omega_automorphism(e6), ident):
        inv = make_automorphism(e6, autos._inverse(_root_map(w)), "inverse")
        assert compose(w, inv) == compose(inv, w) == ident
        power = ident
        for _ in range(w.order - 1):
            power = compose(w, power)
        assert inv == power
        assert compose_cols(w.cols, inv.cols) == compose_cols(inv.cols, w.cols) == _unit(e6)


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
    # img a 3-cycle on three non-simple roots: pi fixes 75 of E6's 78 basis
    # indices, so the sum is odd
    img = tuple(range(6)) + (7, 8, 6) + tuple(range(9, 72))
    forged = Automorphism(e6, img, (1,) * 72, 2, "forged")
    assert forged.pi is not None
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
    """A sign 3 cannot reach a pi rule: certify_batch rejects it at (x_a,
    x_-a), where eta_a eta_-a = 3, and the reference expansion fails there."""
    torus = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    eta = list(torus.eta)
    eta[4] = 3  # x_alpha_2, basis index 10
    with pytest.raises(CertificationError, match=re.escape(
            "forged: homomorphism fails at basis pair (x+[0,1,0,0,0,0], x-[0,1,0,0,0,0])")):
        certify_batch(e6, [((torus.img, eta), "forged")])
    assert homomorphism_fails_at(e6, root_map_cols(e6, (torus.img, eta)), 10, 46)


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


def _edited(good, edit):
    img, eta = list(good.img), list(good.eta)
    edit(img, eta)
    return img, eta


def test_certification_rejects_sign_corruption(e6):
    good = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    # flip the sign of x_{+-a} for one root a: no longer a homomorphism
    with pytest.raises(CertificationError):
        make_automorphism(e6, _edited(good, _flip_col6), "corrupted")


def _flip_col6(img, eta):
    """The sign of x_{+-alpha_6} flipped: basis indices 6 and 42 of E6."""
    eta[0], eta[36] = -eta[0], -eta[36]


def _flip_root(k):
    """The sign of x_{+-a} flipped, for the positive E6 root a = roots[k]."""
    def edit(img, eta):
        eta[k], eta[k + 36] = -eta[k], -eta[k + 36]
    return edit


def _swap_images(k, m):
    """The images of x_{+-a} and x_{+-b} swapped, a = roots[k], b = roots[m] of E6."""
    def edit(img, eta):
        for u, v in ((k, m), (k + 36, m + 36)):
            img[u], img[v] = img[v], img[u]
    return edit


@pytest.mark.parametrize("descriptor, edit, pair", [
    ("torus:0,1,0,0,0,0", _flip_col6, "(x+[0,0,0,0,0,1], x+[0,0,0,0,1,0])"),
    ("torus:0,1,0,0,0,0", _flip_root(14), "(x+[0,0,0,0,1,0], x+[0,1,1,1,0,0])"),
    ("omega*torus:0,0,1,0,1,0", _swap_images(0, 1), "(h4, x+[0,0,0,0,1,0])"),
    ("weyl:3", _flip_root(6), "(x+[0,0,0,0,0,1], x+[0,0,0,0,1,0])"),
    ("weyl:3", _swap_images(2, 34), "(h3, x+[0,0,0,1,0,0])"),
])
def test_certification_names_first_failing_pair(ctx, descriptor, edit, pair):
    # the message names the pair of the first check of root_map_defects that
    # fails, and the reference expansion of the edited root map fails there
    good = weyl_lift(ctx.table, 2) if descriptor == "weyl:3" else ctx.automorphism(descriptor)
    img, eta = _edited(good, edit)
    with pytest.raises(CertificationError) as err:
        make_automorphism(ctx.table, (img, eta), "corrupted")
    assert str(err.value) == f"corrupted: homomorphism fails at basis pair {pair}"
    (i, j), = ctx.table.root_map_defects(img, [eta])
    assert homomorphism_fails_at(ctx.table, root_map_cols(ctx.table, (img, eta)), i, j)


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
    k=st.integers(0, 71),
    shift=st.integers(1, 71),
    how=st.sampled_from(["sign", "pair sign", "scale", "swap"]),
)
def test_certification_rejects_single_entry_corruption(certified, kind, k, shift, how):
    # one sign flipped (x_a alone, or x_a and x_-a), scaled by 2, or two images
    # swapped: the map then differs from an automorphism g only on x_{+-a}
    # (and x_{+-b}), and on E6 some root vector brackets x_a into a third
    # root, so the quotient by g, and the map, would not be a homomorphism
    good = certified[kind]
    img, eta = list(good.img), list(good.eta)
    if how == "swap":
        m = (k + shift) % 72
        img[k], img[m] = img[m], img[k]
    else:
        eta[k] *= 2 if how == "scale" else -1
        if how == "pair sign":
            eta[(k + 36) % 72] *= -1
    with pytest.raises(CertificationError):
        make_automorphism(good.table, (img, eta), "corrupted")


# -- cross-check against the generic all-pairs certifier ----------------------

_LIFT_TYPES = ("E6", "B3", "C3", "F4", "G2")


@pytest.fixture(scope="module")
def lift_tables(e6):
    out = {"E6": e6}
    for label in _LIFT_TYPES[1:]:
        out[label] = chevalley_table(build_root_system(cartan_matrix(label)))
    return out


def _check_against_the_reference(table, img, eta):
    """make_automorphism accepts (img, eta) exactly when the reference finds
    no failing pair in its columns, and a named pair fails there too."""
    cols = root_map_cols(table, (img, eta))
    try:
        make_automorphism(table, (img, eta), "candidate")
    except CertificationError:
        assert first_homomorphism_defect(table, cols) is not None
        if sorted(img) == list(range(len(img))):
            (pair,) = table.root_map_defects(img, [eta])
            assert homomorphism_fails_at(table, cols, *pair), pair
        return False
    assert first_homomorphism_defect(table, cols) is None
    return True


def test_census_automorphisms_pass_the_reference_certifier(ctx):
    bits = [",".join(map(str, b)) for b in itertools.product((0, 1), repeat=6)]
    for descriptor in ["torus:" + b for b in bits[1:]] + ["omega*torus:" + b for b in bits]:
        a = ctx.automorphism(descriptor)
        assert first_homomorphism_defect(ctx.table, a.cols) is None, descriptor
        assert make_automorphism(ctx.table, (a.img, a.eta), descriptor).order == a.order


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
    """Certified automorphisms to corrupt: diagonal, twisted and Weyl-lift root
    maps, and a Weyl conjugate of omega, an involution without pi."""
    t = ctx.table
    out = {
        "torus": ctx.automorphism("torus:0,1,0,0,0,0"),
        "omega-twist": ctx.automorphism("omega*torus:0,0,1,0,1,0"),
        "conjugated": conjugate(weyl_lift(t, 0), omega_automorphism(t)),
    }
    for label in _LIFT_TYPES:
        out["weyl-" + label] = weyl_lift(lift_tables[label], 1)
    return out


_edit = st.tuples(
    st.integers(0, 10**4),
    st.integers(1, 10**4),
    st.sampled_from(["sign", "pair sign", "swap", "pair swap", "zero"]),
)


def _apply_edit(img, eta, edit):
    """One edit of the root map (img, eta) in place, at root k and root k + shift."""
    k, shift, how = edit
    n = len(img)
    k, m, neg = k % n, (k + shift) % n, lambda r: (r + n // 2) % n
    if how in ("sign", "pair sign"):
        eta[k] = -eta[k]
        if how == "pair sign":
            eta[neg(k)] = -eta[neg(k)]
    elif how == "zero":
        eta[k] = 0
    else:
        img[k], img[m] = img[m], img[k]
        if how == "pair swap" and neg(k) != m:
            img[neg(k)], img[neg(m)] = img[neg(m)], img[neg(k)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["torus", "omega-twist", "conjugated"]
                         + ["weyl-" + label for label in _LIFT_TYPES]),
    edits=st.lists(_edit, min_size=1, max_size=2),
)
def test_certification_agrees_with_reference_certifier(cross_check_bases, kind, edits):
    # one or two signs flipped or zeroed, or images swapped: the certificate
    # accepts exactly what the all-pairs reference accepts on the columns,
    # and the pair it names fails under the reference
    good = cross_check_bases[kind]
    img, eta = list(good.img), list(good.eta)
    for edit in edits:
        _apply_edit(img, eta, edit)
    _check_against_the_reference(good.table, img, eta)


@pytest.mark.parametrize("label", [label for label in REFERENCE_TYPES if label not in ("E7", "E8")])
def test_every_constructed_kind_matches_its_independent_reference(ctx, label):
    """helpers.constructed_kind_defects on each reference type but E7 and E8,
    which tests/table_cross_check.py runs, finds nothing."""
    c = ctx if label == "E6" else VerifyContext(label)
    built = constructed(c.table, c.cb)
    assert constructed_kind_defects(c.table, built) == []
    has_omega = label[0] in "ADE" and label not in ("A1", "D4")
    assert {kind for kind, _ in built} == {"identity", "torus", "weyl", "omega0", "compose",
                                           "conjugate"} | ({"omega", "twist"} if has_omega else set())


_HEIGHTS = {"first": lambda r, npos: r, "middle": lambda r, npos: (r + npos) // 2,
            "last": lambda r, npos: npos - 1}  # non-simple positive roots, by height


def _mutant(e6, kind):
    """(table, img, eta) of a root map the certificate must reject."""
    r, npos = e6.rank, e6.npos
    lift, torus = weyl_lift(e6, 1), torus_involution(e6, (0, 1, 0, 0, 0, 1))
    if kind in _HEIGHTS:
        return (e6, *_edited(lift, _flip_root(_HEIGHTS[kind](r, npos))))
    if kind == "eta_-a != eta_a":
        eta = list(torus.eta)
        eta[r + 3] = -eta[r + 3]
        return e6, list(torus.img), eta
    if kind == "two images swapped":
        return (e6, *_edited(lift, _swap_images(r, npos - 2)))
    if kind == "two images swapped, signs kept":  # only the lookup's target sees it
        return e6, *_edited(identity_automorphism(e6), _swap_images(8, 9))
    if kind == "A1+A1 negatives swapped":  # no root pair: only w(-a) = -w(a) sees it
        a1a1 = chevalley_table(build_root_system([[2, 0], [0, 2]]))
        return a1a1, [0, 1, 3, 2], [1] * 4
    b3 = _type_table("B3")  # alpha_1 <-> alpha_3, a long and a short root
    img = list(range(len(b3.rs.roots)))
    a1, a3, n = b3.rs.simple[0], b3.rs.simple[2], b3.npos
    img[a1], img[a3], img[a1 + n], img[a3 + n] = a3, a1, a3 + n, a1 + n
    return b3, img, [1] * len(img)


@pytest.mark.parametrize("kind", list(_HEIGHTS) + [
    "eta_-a != eta_a", "two images swapped", "two images swapped, signs kept",
    "A1+A1 negatives swapped", "B3 non-isometric swap"])
def test_mutants_of_the_lookup_certificate_name_a_failing_pair(e6, kind):
    """Each mutant is rejected, and the pair its message names is one where
    the reference expansion of its columns also fails: the sign of x_+-a
    flipped in weyl:2, a first, middle or last in height order among the
    non-simple roots; eta_-a != eta_a in a torus map; the images of two
    roots swapped in weyl:2, and in the identity, where the signs still
    agree; the images of -alpha_1 and -alpha_2 swapped on A1+A1, which has
    no root pair; alpha_1 <-> alpha_3 on B3."""
    table, img, eta = _mutant(e6, kind)
    (pair,) = table.root_map_defects(img, [eta])
    assert not _check_against_the_reference(table, img, eta)
    with pytest.raises(CertificationError) as err:
        make_automorphism(table, (img, eta), "mutant")
    assert str(err.value) == ("mutant: homomorphism fails at basis pair "
                              f"({table.basis_label(pair[0])}, {table.basis_label(pair[1])})")


def test_a_mutant_member_of_a_torus_batch_fails_alone(e6):
    """One member of the batch of all E6 torus maps with the sign of x_+-a
    flipped, a first, middle or last in height order among the non-simple
    roots: the shared walk names it alone, at its own pair, and every other
    member certifies."""
    r, npos = e6.rank, e6.npos
    batch = [torus_columns(e6, bits) for bits in itertools.product((0, 1), repeat=r)]
    ident = tuple(range(2 * npos))
    for k in (f(r, npos) for f in _HEIGHTS.values()):
        etas = [list(eta) for (_, eta), _ in batch]
        etas[37][k], etas[37][k + npos] = -etas[37][k], -etas[37][k + npos]
        got = e6.root_map_defects(ident, etas)
        assert [m for m, pair in enumerate(got) if pair] == [37], k
        assert got[37] == e6.root_map_defects(ident, [etas[37]])[0]
        assert homomorphism_fails_at(e6, root_map_cols(e6, (ident, etas[37])), *got[37])
        members = [((ident, eta), d) for eta, (_, d) in zip(etas, batch)]
        with pytest.raises(CertificationError, match=re.escape(batch[37][1])):
            certify_batch(e6, members)
        assert len(certify_batch(e6, members[:37] + members[38:])) == 63


# -- batches of root maps ------------------------------------------------------------

def _flip(img, eta, i, j):
    eta[i] = -eta[i]


def _swap(img, eta, i, j):
    img[i], img[j] = img[j], img[i]


def _magnitude_two(img, eta, i, j):
    eta[i] *= 2


def _pair_flip(img, eta, i, j):
    n = len(eta) // 2
    eta[i], eta[(i + n) % (2 * n)] = -eta[i], -eta[(i + n) % (2 * n)]


def _same_target(img, eta, i, j):
    img[j] = img[i]


# (corruption, whether img stays a permutation)
_SHAPE_CORRUPTIONS = [
    (_flip, True),
    (_swap, True),
    (_magnitude_two, True),
    (_pair_flip, True),
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


def _message(table, batch):
    """The CertificationError message of certify_batch on batch, or None."""
    try:
        certify_batch(table, batch)
    except CertificationError as exc:
        return str(exc)
    return None


def _recording_walks(monkeypatch):
    """The (img, number of members) of each root_map_defects walk from now on."""
    walks = []
    real = StructureTable.root_map_defects
    monkeypatch.setattr(StructureTable, "root_map_defects",
                        lambda self, img, etas: walks.append((img, len(etas))) or real(self, img, etas))
    return walks


@pytest.mark.parametrize("base", ["E6 torus", "E6 omega-twist", "A5 omega-twist", "D4 triality"])
def test_shape_and_batch_paths_agree_with_the_reference_certifier(shape_bases, monkeypatch, base):
    # every corruption, alone and inside one batch between two intact
    # members, gets the same message, and the reference verdict and failing
    # pair; a member that keeps img shares the intact members' walk, one with
    # another img has its own, and one whose img is no permutation none
    good = shape_bases[base]
    table = good.table
    npos = table.npos
    intact = ((good.img, good.eta), "intact")
    for corrupt, permutes in _SHAPE_CORRUPTIONS:
        for i, j in [(0, 1), (npos + 1, 2 * npos - 1), (npos - 1, 0)]:
            img, eta = list(good.img), list(good.eta)
            corrupt(img, eta, i, j)
            assert (sorted(img) == list(range(2 * npos))) == permutes, (corrupt, i, j)
            assert not _check_against_the_reference(table, img, eta), (corrupt, i, j)
            alone = _message(table, [((img, eta), "candidate")])
            walks = _recording_walks(monkeypatch)
            assert _message(table, [intact, ((img, eta), "candidate"), intact]) == alone
            monkeypatch.undo()
            if not permutes:
                assert walks == [(good.img, 2)]
            elif tuple(img) == good.img:
                assert walks == [(good.img, 3)]
            else:
                assert walks == [(good.img, 2), (tuple(img), 1)]
    if base == "D4 triality":
        assert certify_batch(table, [((good.img, good.eta), "t")])[0].order == 3


@pytest.mark.parametrize("corrupt", [_flip, _swap, _magnitude_two])
def test_batch_isolates_a_corrupted_member(ctx, monkeypatch, corrupt):
    table = ctx.table
    batch = [torus_columns(table, bits) for bits in itertools.product((0, 1), repeat=table.rank)]
    (img, eta), _ = batch[37]
    img, eta = list(img), list(eta)
    corrupt(img, eta, 2, 9)
    walks = _recording_walks(monkeypatch)
    # the corrupted copy is certified last, after every intact member
    with pytest.raises(CertificationError) as err:
        certify_batch(table, batch + [((img, eta), "corrupted")])
    ident = tuple(range(72))
    assert walks == ([(ident, 65)] if corrupt is not _swap else [(ident, 64), (tuple(img), 1)])
    got = certify_batch(table, batch)
    monkeypatch.undo()
    with pytest.raises(CertificationError) as single_err:
        make_automorphism(table, (img, eta), "corrupted")
    (pair,) = table.root_map_defects(img, [eta])
    assert homomorphism_fails_at(table, root_map_cols(table, (img, eta)), *pair)
    assert str(err.value) == str(single_err.value) == (
        f"corrupted: homomorphism fails at basis pair "
        f"({table.basis_label(pair[0])}, {table.basis_label(pair[1])})")
    for a, (root_map, descriptor) in zip(got, batch):
        single = make_automorphism(table, root_map, descriptor)
        assert (a.img, a.eta, a.order, a.pi, a.descriptor) == (
            single.img, single.eta, single.order, single.pi, single.descriptor), descriptor


def test_e7_torus_gradings_certify_in_one_batch():
    # E7's center has order 2: one nonzero torus descriptor is the identity,
    # and the other 126 give 63 distinct involutions
    table = chevalley_table(build_root_system(cartan_matrix("E7")))
    batch = [torus_columns(table, bits) for bits in itertools.product((0, 1), repeat=7)][1:]
    got = certify_batch(table, batch)
    for a, (root_map, descriptor) in zip(got, batch):
        single = make_automorphism(table, root_map, descriptor)
        assert (a.cols, a.order, a.pi, a.descriptor) == (
            single.cols, single.order, single.pi, single.descriptor), descriptor
    assert sum(a.order == 1 for a in got) == 1
    assert len({a.eta for a in got if a.order != 1}) == 63
    for a in random.Random(127).sample(got, 3):
        assert first_homomorphism_defect(table, a.cols) is None, a.descriptor


@pytest.mark.parametrize("label", ["E6", "E7"])
def test_identity_pi_loop_agrees_with_the_generic_walk(monkeypatch, label):
    # every nontrivial torus grading, plus one member with the sign of x_{+-a}
    # flipped for one root a, as one batch.  w∘A is a homomorphism iff A is,
    # for an automorphism w; the w-twisted batch shares w's img, so the
    # lookup walk must read there the verdicts the identity-img loop reads on
    # the gradings.  w is the Chevalley involution (h -> -h, x_a -> -x_-a),
    # and omega on E6
    table = chevalley_table(build_root_system(cartan_matrix(label)))
    r, n = table.rank, table.npos
    batch = [torus_columns(table, bits) for bits in itertools.product((0, 1), repeat=r)][1:]
    flipped = list(batch[0][0][1])
    flipped[3], flipped[n + 3] = -flipped[3], -flipped[n + 3]
    batch.append(((batch[0][0][0], flipped), "flipped"))
    ident = tuple(range(2 * n))
    etas = [eta for (_, eta), _ in batch]
    verdicts = table.root_map_defects(ident, etas)
    assert [pair is None for pair in verdicts] == [True] * (len(batch) - 1) + [False]
    chevalley = (tuple((k + n) % (2 * n) for k in range(2 * n)), (-1,) * (2 * n))
    twists = [make_automorphism(table, chevalley, "chevalley")]
    twists += [omega_automorphism(table)] if label == "E6" else []
    for w in twists:
        twisted = [autos._compose((w.img, w.eta), (ident, eta)) for eta in etas]
        assert {img for img, _ in twisted} == {w.img}
        got = table.root_map_defects(w.img, [eta for _, eta in twisted])
        assert [pair is None for pair in got] == [pair is None for pair in verdicts], w.descriptor
    # read by the identity loop, the Chevalley-twisted signs (every sign
    # negated) flag every member
    assert None not in table.root_map_defects(ident, [tuple(-s for s in eta) for eta in etas])
    walks = _recording_walks(monkeypatch)
    with pytest.raises(CertificationError) as err:  # flipped is the last member
        certify_batch(table, batch)
    monkeypatch.undo()
    assert walks == [(ident, len(batch))]
    i, j = verdicts[-1]
    assert homomorphism_fails_at(table, root_map_cols(table, (ident, flipped)), i, j)
    assert str(err.value) == (f"flipped: homomorphism fails at basis pair "
                              f"({table.basis_label(i)}, {table.basis_label(j)})")


def test_certification_rejects_non_invertible(e6):
    with pytest.raises(CertificationError, match="^rank-one: expected a permutation"):
        make_automorphism(e6, ([0] * 72, (1,) * 72), "rank-one")


def test_certification_rejects_a_missing_column(e6):
    """A root map one sign short, and one whose signs on x_a and x_-a are
    the Fractions 2 and 1/2 (product 1, which the sign bits of the walk
    would not see), are rejected by the shape check of (img, eta)."""
    torus = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    fractions = list(torus.eta)
    fractions[8], fractions[44] = Fraction(2), Fraction(1, 2)
    for eta in (torus.eta[:-1], fractions):
        with pytest.raises(CertificationError, match="^short: expected a permutation of the 72 "
                                                     "root indices and 72 integer signs$"):
            make_automorphism(e6, (torus.img, eta), "short")


def test_a_non_unit_extension_sign_fails_the_certificate():
    """alpha_1 <-> -alpha_1 on A2 is no lattice map: x_{a1+a2} gets the sign
    N(-a1, a2) / N(a1, a2) = 0, which _root_map does not check, and the
    certificate rejects the root map at a pair where its columns fail."""
    t = chevalley_table(build_root_system(cartan_matrix("A2")))
    a, npos = t.rs.simple[0], t.npos
    img = list(range(len(t.rs.roots)))
    img[a], img[a + npos] = a + npos, a
    root_map = autos._root_map(t, img, [1, 1])
    assert 0 in root_map[1]
    with pytest.raises(CertificationError,
                       match=re.escape("bad: homomorphism fails at basis pair (h1, x+[0,1])")):
        make_automorphism(t, root_map, "bad")
    assert homomorphism_fails_at(t, root_map_cols(t, root_map), 0, t.rank + t.rs.simple[1])


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


# -- orders of root maps and the identity ----------------------------------------------

def _pi_of(cols):
    """(pi, signs) of single-entry columns."""
    return tuple(next(iter(c)) for c in cols), tuple(next(iter(c.values())) for c in cols)


def test_cycle_orders_match_the_composing_loop(e6):
    """The cycle rule gives the composing loop's order on every signed
    permutation the package builds: the E6 tori, all 64 omega-twists (some of
    order 4), omega on A5, D4 triality and the nontrivial E7 tori; on root
    indices and on the basis alike."""
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
        assert autos._cycle_order(_root_map(a)) == autos._cycle_order(a.pi) == a.order
        assert composed_order(a.cols) == a.order, a.descriptor
    assert {a.order for a in twists} == {2, 4}
    assert autos_built[-1].order == 3


def test_cycle_order_of_a_cycle_with_sign_product_minus_one():
    # e0 -> e1 -> -e2 -> e0: the third power is -1 on the cycle, the sixth is 1
    cols = ({1: 1}, {2: -1}, {0: 1}, {3: -1}, {4: 1})
    assert autos._cycle_order(_pi_of(cols)) == 6 == composed_order(cols)
    assert autos._cycle_order(_pi_of(({1: -1}, {0: -1}))) == 2


def test_cycle_order_above_the_cap_raises_the_composing_message():
    # a synthetic root map with cycles of lengths 7 and 11: order 77 >
    # _ORDER_CAP, also by composing its columns; the order check runs on no
    # table, after a certificate that found no failing pair
    perm = tuple(list(range(1, 7)) + [0] + list(range(8, 18)) + [7])
    cols = tuple({p: 1} for p in perm)
    assert autos._cycle_order((perm, (1,) * 18)) == 77
    assert composed_order(cols) == autos._ORDER_CAP + 1
    with pytest.raises(CertificationError, match=f"^synthetic: order exceeds cap {autos._ORDER_CAP}$"):
        autos._certify(None, perm, (1,) * 18, "synthetic", None)


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
