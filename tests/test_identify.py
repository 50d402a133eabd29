import itertools
import random
import re
from functools import lru_cache

import pytest

from kleinfour.autos import (
    compose,
    conjugate,
    omega_automorphism,
    torus_involution,
    weyl_lift,
)
from kleinfour import identify, realform
from kleinfour.exactq import SpanSolver, joint_eigenspace, rref
from kleinfour.identify import (
    IdentifyError,
    ReductiveType,
    center_of,
    first_escape,
    fixed_subalgebra,
    identify_type,
    simple_dim,
    subalgebra_from_vectors,
    type_dim,
)
from kleinfour.realform import compact_form
from kleinfour.rootsys import (CartanMatrixError, _catalog_for_rank, build_root_system,
                               cartan_isomorphisms, cartan_matrix, chevalley_table, match_cartan)
from kleinfour.verify import VerifyContext, run_all
from helpers import compact_table, root_index, set_bracket
from oracles import (
    centralizer_dim,
    classify_even_subsystem,
    compact_cols,
    first_escape_by_membership,
    first_escape_reference,
    pairing,
    torus_parity_type,
)


# -- fixed subalgebras ----------------------------------------------------------

def test_empty_list_gives_whole_algebra(e6):
    s = fixed_subalgebra(e6, [])
    assert s.dim == 78
    # the unit rows are taken as they are: the same basis as eliminating them
    rows, pivots = rref([{i: 1} for i in range(78)])
    assert (s.rows, s.pivots) == (tuple(rows), tuple(pivots))


def test_sigma2_fixed_dim(e6):
    s = fixed_subalgebra(e6, [torus_involution(e6, (1, 0, 0, 0, 0, 1))])
    assert s.dim == 46


def test_klein_pair_fixed_dim_36(e6, ctx):
    g7 = ctx.so9_klein
    a = ctx.automorphism(g7.a)
    b = ctx.automorphism(g7.b)
    s = fixed_subalgebra(e6, [a, b])
    assert s.dim == 36
    assert str(identify_type(s)) == "B4"


def test_uncertified_rejected(e6):
    with pytest.raises(IdentifyError):
        fixed_subalgebra(e6, [object()])


def test_automorphism_of_another_algebra_rejected(e6):
    a5 = chevalley_table(build_root_system(cartan_matrix("A5")))
    with pytest.raises(IdentifyError, match="^automorphism acts on a different algebra$"):
        fixed_subalgebra(e6, [torus_involution(a5, (1, 0, 0, 0, 0))])


def test_fixed_subalgebra_closure_is_verified(e6):
    # the constructor re-checks closure; a non-closed span must be rejected
    rs = e6.rs
    x_a = {6 + root_index(rs, (1, 0, 0, 0, 0, 0)): 1}
    x_b = {6 + root_index(rs, (0, 0, 1, 0, 0, 0)): 1}
    with pytest.raises(IdentifyError, match="closed"):
        subalgebra_from_vectors(e6, [x_a, x_b])


@lru_cache(maxsize=None)
def _escape_tables():
    """(bracket table, its Chevalley table, compact form or None) for A2, G2,
    B3 and the compact brackets of B3, whose many two-term brackets take the
    walk's general residual path."""
    out = []
    for label in ("A2", "G2", "B3"):
        t = chevalley_table(build_root_system(cartan_matrix(label)))
        out.append((t, t, None))
    cb = compact_form(out[-1][1])
    out.append((compact_table(cb), cb.table, cb))
    return tuple(out)


def _random_span(rng, table, chevalley, cb):
    """The span of a torus-fixed subalgebra with some rows dropped and random
    vectors added; mostly not bracket-closed."""
    a = torus_involution(chevalley, [rng.randint(0, 1) for _ in range(chevalley.rank)])
    cols = a.cols if cb is None else compact_cols(cb, a.cols)
    vecs = [v for v in joint_eigenspace(table.dim, [cols]) if rng.random() < 0.8]
    for _ in range(rng.randint(0, 2)):
        support = rng.sample(range(table.dim), rng.randint(1, 3))
        vecs.append({k: rng.choice((-2, -1, 1, 3)) for k in support})
    return SpanSolver(*rref(vecs or [{0: 1}]))


def test_first_escape_matches_the_lexicographic_reference():
    """Same first pair, or None, as the all-pairs reference in the three call
    shapes of the closure checks: [s,s] in s, [s,t] in s and [t,s] in t."""
    rng = random.Random(12)
    seen = {"none": 0, "first": 0, "later": 0}
    for _ in range(150):
        table, chevalley, cb = rng.choice(_escape_tables())
        s = _random_span(rng, table, chevalley, cb)
        t = _random_span(rng, table, chevalley, cb)
        for xs, ys, into in ((s, s, s), (s, t, s), (t, s, t)):
            got = first_escape(table, xs, ys, into)
            assert got == first_escape_reference(table, xs.rows, ys.rows, into.rows)
            if got is None:
                seen["none"] += 1
            else:
                seen["first" if got == (0, 1 if xs is ys else 0) else "later"] += 1
    # the spans reach all three outcomes, so the order of the scan is pinned
    assert min(seen.values()) >= 20, seen


def test_residual_walk_matches_the_membership_walk(monkeypatch):
    """On every closure and split call of a cold verify all, and on each of
    those calls with its target's middle row removed, first_escape gives the
    pair of the walk that tests whole brackets for membership."""
    calls = []

    def recording(table, xs, ys, target):
        calls.append((table, xs, ys, target))
        return first_escape(table, xs, ys, target)

    monkeypatch.setattr(identify, "first_escape", recording)
    monkeypatch.setattr(realform, "first_escape", recording)
    run_all(VerifyContext())
    monkeypatch.undo()
    assert len(calls) == 27
    escapes = 0
    for table, xs, ys, target in calls:
        assert first_escape(table, xs, ys, target) is None
        assert first_escape_by_membership(table, xs, ys, target) is None
        t = target.dim // 2
        fewer = SpanSolver(target.rows[:t] + target.rows[t + 1:],
                           target.pivots[:t] + target.pivots[t + 1:])
        got = first_escape(table, xs, ys, fewer)
        assert got == first_escape_by_membership(table, xs, ys, fewer)
        escapes += got is not None
    assert escapes >= 24


@pytest.mark.parametrize("scale", [0.5, 1.0, 0.0])
def test_subalgebra_from_float_vectors_rejected(e6, scale):
    # a float scalar would be truncated or dropped by an integer elimination
    row = {0: 1, 1: scale}
    with pytest.raises(TypeError, match="exact scalar"):
        subalgebra_from_vectors(e6, [row])


# -- center -----------------------------------------------------------------------

def test_center_of_simple_algebra_is_zero(e6):
    z = center_of(fixed_subalgebra(e6, []))
    assert z.dim == 0 and str(identify_type(z)) == "0"


def test_center_of_sigma2_fixed_is_one_dimensional(e6):
    s = fixed_subalgebra(e6, [torus_involution(e6, (1, 0, 0, 0, 0, 1))])
    z = center_of(s)
    assert z.dim == 1
    # the center lies in the Cartan
    assert all(k < 6 for k in z.rows[0])


def test_center_of_abelian_is_itself(e6):
    cartan = [{i: 1} for i in range(6)]
    s = subalgebra_from_vectors(e6, cartan)
    assert center_of(s).dim == 6


@pytest.mark.parametrize("label", ["A5", "D5", "B4", "C4", "F4"])
def test_center_of_torus_fixed_counts_the_oracle_u1(label):
    # every nonzero c: the center of the fixed algebra of exp(pi i ad H_c) has
    # the dimension of the u(1) part that oracles.torus_parity_type names
    t, cartan = sweep_table(label), cartan_matrix(label)
    for bits in itertools.product((0, 1), repeat=t.rank):
        expected = torus_parity_type(cartan, bits) if any(bits) else None
        if expected is None:
            continue
        last = expected[0].split("+")[-1]
        u1 = int(last[:-len("u(1)")] or 1) if last.endswith("u(1)") else 0
        assert center_of(fixed_subalgebra(t, [torus_involution(t, bits)])).dim == u1, bits


# -- identify_type ------------------------------------------------------------------

def test_whole_e6_round_trip(e6):
    ty = identify_type(fixed_subalgebra(e6, []))
    assert str(ty) == "E6"
    assert ty.dim() == 78


def test_omega_fixed_is_f4(e6):
    ty = identify_type(fixed_subalgebra(e6, [omega_automorphism(e6)]))
    assert str(ty) == "F4"


def test_sigma2_fixed_is_d5_u1(e6):
    ty = identify_type(
        fixed_subalgebra(e6, [torus_involution(e6, (1, 0, 0, 0, 0, 1))])
    )
    assert str(ty) == "D5+u(1)"
    assert ty.center_dim == 1


def test_sigma1_fixed_is_a5_a1(e6):
    ty = identify_type(
        fixed_subalgebra(e6, [torus_involution(e6, (0, 1, 0, 0, 0, 0))])
    )
    assert str(ty) == "A5+A1"


def test_torus_classes_match_subsystem_oracle(e6):
    """Identified types agree with the independent 8-coordinate classification."""
    rng = random.Random(17)
    cases = [(0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)]
    cases += [tuple(rng.randint(0, 1) for _ in range(6)) for _ in range(6)]
    for bits in cases:
        if not any(bits):
            continue
        labels, center = classify_even_subsystem(bits)
        ty = identify_type(fixed_subalgebra(e6, [torus_involution(e6, bits)]))
        got = sorted(f"{l}{n}" for l, n in ty.summands)
        assert got == labels, bits
        assert ty.center_dim == center, bits


def test_census_inner_types_match_subsystem_oracle(census):
    """Every inner census row agrees with the 8-coordinate classification,
    and so does the type-generic parity oracle on the same c."""
    inner = [row for row in census.rows if row.kind == "inner"]
    assert len(inner) == 63
    for row in inner:
        bits = tuple(int(b) for b in row.descriptor[len("torus:"):].split(","))
        labels, center = classify_even_subsystem(bits)
        expected = ReductiveType.make([(l[0], int(l[1:])) for l in labels], center)
        assert row.fixed_type == str(expected), row.descriptor
        assert torus_parity_type(cartan_matrix("E6"), bits)[0] == str(expected), row.descriptor


def test_weight_root_counts_match_root_systems(e6):
    # nonzero weight count of each summand equals the root count of its type
    for bits in ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)):
        s = fixed_subalgebra(e6, [torus_involution(e6, bits)])
        ty = identify_type(s)
        total = sum(
            len(build_root_system(cartan_matrix(f"{l}{n}")).roots)
            for l, n in ty.summands
        )
        assert total == s.dim - 6  # weights = everything outside the Cartan
        for l, n in ty.summands:
            assert simple_dim(l, n) - n == len(
                build_root_system(cartan_matrix(f"{l}{n}")).roots
            )


def test_identify_conjugation_invariance(e6):
    s1 = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    w = compose(weyl_lift(e6, 0), weyl_lift(e6, 3))
    c = conjugate(w, s1)
    assert str(identify_type(fixed_subalgebra(e6, [c]))) == "A5+A1"


def test_dimension_accounting(e6, census, ctx):
    for row in census.rows[:20]:
        a = ctx.automorphism(row.descriptor)
        s = fixed_subalgebra(e6, [a])
        ty = identify_type(s)
        assert ty.dim() == s.dim


def _maximal_toral_message(t_dim, cdim):
    return (f"Cartan part (dim {t_dim}) is not maximal toral: centralizer has dim {cdim}; "
            "a regular-element extension would be needed")


@pytest.mark.parametrize("label, cartan, root, t_dim, cdim", [
    ("E6", [], (1, 0, 0, 0, 0, 0), 0, 1),
    ("A2", [{0: 1, 1: 2}], (1, 0), 1, 2),
], ids=["E6-root", "A2-toral"])
def test_identify_fails_loudly_without_maximal_toral_part(label, cartan, root, t_dim, cdim):
    # closed abelian spans: a single nilpotent root vector, whose Cartan part
    # is zero, and span{h1 + 2h2, x_a1} on A2, where a1(h1 + 2h2) = 2 - 2 = 0;
    # identification must refuse rather than guess
    table = sweep_table(label)
    s = subalgebra_from_vectors(table, cartan + [{table.rank + root_index(table.rs, root): 1}])
    with pytest.raises(IdentifyError) as err:
        identify_type(s)
    assert str(err.value) == _maximal_toral_message(t_dim, cdim)


def test_maximal_toral_check_agrees_with_a_centralizer_count():
    """On closed spans of Cartan unit rows and root vectors (A2, B3, D4, E6),
    identify_type refuses with the maximal-toral message, naming the count,
    exactly when the oracle's centralizer of the Cartan rows is larger than
    they are."""
    rng = random.Random(25)
    seen = {"refused, t = 0": 0, "refused, t != 0": 0, "accepted": 0}
    for _ in range(300):
        table = sweep_table(rng.choice(("A2", "B3", "D4", "E6")))
        n = table.rank
        toral = [{i: 1} for i in sorted(rng.sample(range(n), rng.randint(0, n)))]
        roots = rng.sample(range(len(table.rs.roots)), rng.randint(1, 4))
        try:
            s = subalgebra_from_vectors(table, toral + [{n + r: 1} for r in roots])
        except IdentifyError:
            continue
        cdim = centralizer_dim(table, s.rows, toral)
        try:
            identify_type(s)
            message = None
        except IdentifyError as exc:
            message = str(exc)
        if cdim > len(toral):
            assert message == _maximal_toral_message(len(toral), cdim)
            seen["refused, t != 0" if toral else "refused, t = 0"] += 1
        else:
            assert message is None or "maximal toral" not in message, message
            seen["accepted"] += 1
    assert min(seen.values()) >= 10, seen


def test_identify_rejects_borel_as_not_negation_stable(e6):
    # Cartan plus the 36 positive root vectors: maximal toral, multiplicity
    # one and full accounting, but no weight has its negative
    rows = [{i: 1} for i in range(6 + 36)]
    s = subalgebra_from_vectors(e6, rows)
    assert s.dim == 42
    with pytest.raises(IdentifyError, match="negation-stable") as err:
        identify_type(s)
    assert re.fullmatch(r"weight set is not negation-stable at \(-?\d+(, -?\d+)*\)", str(err.value))


@pytest.mark.parametrize("roots, message", [
    ([(0, 1), (-1, 0), (-1, -1)], "weight multiplicity 2 > 1 at (-1,)"),
    ([(0, 1), (1, 1)], "coroot bracket escapes the Cartan at weight (1,)"),
], ids=["multiplicity", "coroot"])
def test_identify_names_the_weight_check_a_closed_a2_span_fails(roots, message):
    """h_1 and root vectors of A2: closed spans in which h_1 is maximal toral."""
    table = sweep_table("A2")
    s = subalgebra_from_vectors(table, [{0: 1}] + [{table.rank + root_index(table.rs, r): 1}
                                                   for r in roots])
    with pytest.raises(IdentifyError, match=f"^{re.escape(message)}$"):
        identify_type(s)


@pytest.mark.parametrize("a, b, message", [
    (-1, -2, "degenerate coroot at weight (-2, 1)"),
    (-3, -2, "non-integral Cartan pairing at ((1, 1), (-2, 1))"),
    (-2, -1, "dimension accounting failed: B2 has dim 10, subalgebra has 8"),
], ids=["degenerate", "non-integral", "accounting"])
def test_identify_names_the_pairing_check_a_tampered_a2_coroot_fails(a, b, message):
    """A2 with [x_alpha, x_-alpha] = a h_1 + b h_2 for alpha = roots[1] = (1, 0),
    in both orders: the span stays closed and h_1, h_2 stay maximal toral, but
    the coroot of the simple weight (-2, 1) is wrong."""
    table = chevalley_table(build_root_system(cartan_matrix("A2")))
    assert table.rs.roots[1].coords == (1, 0)
    set_bracket(table, table.rank + 1, table.rank + table.npos + 1, ((0, a), (1, b)))
    with pytest.raises(IdentifyError, match=f"^{re.escape(message)}$"):
        identify_type(fixed_subalgebra(table, []))


# -- type sweep over the catalog ---------------------------------------------------

SWEEP = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "C2", "C3", "C4",
         "D3", "D4", "D5", "D6", "E6", "E7", "F4", "G2")
WHOLE_ALIAS = {"D3": "A3", "C2": "B2"}  # the labels match_cartan reports
OMEGA_FIXED = {"A2": "A1", "A3": "B2", "A4": "B2", "A5": "C3", "A6": "B3", "A7": "C4",
               "D3": "B2", "D5": "B4", "D6": "B5", "E6": "F4"}


@lru_cache(maxsize=None)
def sweep_table(label):
    return chevalley_table(build_root_system(cartan_matrix(label)))


@pytest.mark.parametrize("label", SWEEP)
def test_whole_algebra_identifies_as_itself(label):
    t = sweep_table(label)
    ty = identify_type(fixed_subalgebra(t, []))
    assert str(ty) == WHOLE_ALIAS.get(label, label)
    assert ty.dim() == t.dim


@pytest.mark.parametrize("label", SWEEP)
def test_omega_fixed_type(label):
    t = sweep_table(label)
    if label in OMEGA_FIXED:
        assert str(identify_type(fixed_subalgebra(t, [omega_automorphism(t)]))) == OMEGA_FIXED[label]
    else:
        # the message names the type as match_cartan reports it
        with pytest.raises(ValueError, match=f"omega is not defined on {WHOLE_ALIAS.get(label, label)}"
                                             ": it has [0-9]+ nontrivial diagram involutions"):
            omega_automorphism(t)


@pytest.mark.parametrize("label", SWEEP)
def test_pairing_table_matches_pairing(label):
    rs = sweep_table(label).rs
    assert len(rs.pairings) == len(rs.roots)
    for r, row in zip(rs.roots, rs.pairings):
        assert row == tuple(pairing(rs, r.coords, i) for i in range(rs.rank))


# -- match_cartan ---------------------------------------------------------------------

def test_match_a1():
    assert match_cartan([[2]]) == ("A", 1)


def test_match_b4_and_reversed():
    B4 = cartan_matrix("B4")
    assert match_cartan(B4) == ("B", 4)
    rev = [[B4[3 - i][3 - j] for j in range(4)] for i in range(4)]
    assert match_cartan(rev) == ("B", 4)


def test_match_distinguishes_b4_from_c4():
    assert match_cartan(cartan_matrix("C4")) == ("C", 4)


def test_match_rank2_collapse():
    # C2 is the same abstract type as B2
    assert match_cartan(cartan_matrix("C2")) == ("B", 2)
    assert match_cartan(cartan_matrix("G2")) == ("G", 2)


def test_match_d3_is_a3():
    assert match_cartan(cartan_matrix("D3")) == ("A", 3)


NOT_FINITE = [
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2~
    [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],  # not symmetrizable
    [[2, -1], [-4, 2]],  # twisted affine A2^(2)
    [[2, -3], [-3, 2]],  # hyperbolic
]


def test_match_rejects_unknown():
    # the catalog walk alone rejects each, as given and relabeled: no axiom
    # of validate_cartan runs first to name another reason
    for A in NOT_FINITE:
        rng = random.Random(str(A))
        for p in [range(len(A))] + [rng.sample(range(len(A)), len(A)) for _ in range(5)]:
            with pytest.raises(CartanMatrixError, match="^no finite-type match for Cartan matrix "):
                match_cartan(_relabel(A, p))


@pytest.mark.parametrize("A, at", [([[2.0, -1], [-1, 2]], "(0,0)"),
                                   ([[2, -1], ["-1", 2]], "(1,0)")])
def test_match_rejects_a_non_int_entry_first(A, at):
    # a float equal to a catalog entry would pass the == match, and a str
    # would fail the row-signature sort with TypeError
    with pytest.raises(CartanMatrixError, match=f"^{re.escape(f'entry {at} is not an integer')}$"):
        match_cartan(A)


def _relabel(C, p):
    """The matrix A with A[i][j] = C[p[i]][p[j]]."""
    return [[C[p[i]][p[j]] for j in range(len(C))] for i in range(len(C))]


@pytest.mark.parametrize("label", ["C2", "D3"] + [f"{l}{r}" for n in (*range(1, 9), 12, 16)
                                                  for l, r in _catalog_for_rank(n)])
def test_match_reads_seeded_relabelings(label):
    C = cartan_matrix(label)
    want = {"C2": ("B", 2), "D3": ("A", 3)}.get(label, (label[0], int(label[1:])))
    rng = random.Random(label)
    for _ in range(5):
        assert match_cartan(_relabel(C, rng.sample(range(len(C)), len(C)))) == want


def test_match_undoes_a_first_placement_on_the_branch_node():
    # the walk places E6's node 0, an end node, first and tries A's node 0,
    # the branch node, before any other
    C = cartan_matrix("E6")
    degree = [sum(1 for j in range(6) if j != i and C[i][j]) for i in range(6)]
    branch = degree.index(3)
    assert degree[0] == 1
    A = _relabel(C, [branch] + [i for i in range(6) if i != branch])
    assert match_cartan(A) == ("E", 6)
    isos = list(cartan_isomorphisms(A, C))
    assert len(isos) == 2 and all(p[0] != 0 for p in isos)


@pytest.mark.parametrize("label, walk", [
    ("D4", [(0, 1, 2, 3), (0, 1, 3, 2), (2, 1, 0, 3), (2, 1, 3, 0), (3, 1, 0, 2), (3, 1, 2, 0)]),
    ("E6", [(0, 1, 2, 3, 4, 5), (5, 1, 4, 3, 2, 0)]),
])
def test_walk_yields_the_diagram_symmetries_in_placement_order(label, walk):
    # literal and unsorted: the order in which the walk yields is pinned
    C = cartan_matrix(label)
    assert list(cartan_isomorphisms(C, C)) == walk


def test_walk_tells_b4_from_c4_in_every_relabeling():
    # B4 and C4 are transposes, so a match read in one direction only can
    # confuse them; the catalog's row-signature filter is not used here
    B4, C4 = cartan_matrix("B4"), cartan_matrix("C4")
    rng = random.Random(4)
    for _ in range(10):
        p = rng.sample(range(4), 4)
        assert list(cartan_isomorphisms(_relabel(C4, p), B4)) == []
        assert list(cartan_isomorphisms(_relabel(B4, p), C4)) == []
        assert len(list(cartan_isomorphisms(_relabel(B4, p), B4))) == 1


def test_folded_cartan_inside_omega_fixed_is_f4(e6):
    # the weight pipeline itself produces the folded matrix; cross-check the
    # standard F4 matrix matches it
    ty = identify_type(fixed_subalgebra(e6, [omega_automorphism(e6)]))
    assert ty.summands == (("F", 4),)
    assert match_cartan(cartan_matrix("F4")) == ("F", 4)


# -- ReductiveType rendering -----------------------------------------------------------

def test_rendering_conventions():
    assert str(ReductiveType.make([("A", 5), ("A", 1)], 0)) == "A5+A1"
    assert str(ReductiveType.make([("D", 5)], 1)) == "D5+u(1)"
    assert str(ReductiveType.make([("D", 4)], 2)) == "D4+2u(1)"
    assert str(ReductiveType.make([], 3)) == "3u(1)"
    assert str(ReductiveType.make([], 0)) == "0"
    # ordering is by descending dimension
    assert str(ReductiveType.make([("A", 1), ("B", 2), ("A", 1)], 0)) == "B2+A1+A1"


@pytest.mark.parametrize("label, dim", [
    ("A5+A1", 38), ("D5+u(1)", 46), ("F4", 52), ("C4", 36),  # census fixed types
    ("E6", 78), ("B4", 36), ("D4", 28), ("D4+2u(1)", 30), ("C3+A1", 24), ("B3", 21),
    ("A1", 3), ("G2", 14), ("B2+A1+A1", 16), ("u(1)", 1), ("6u(1)", 6), ("0", 0),
])
def test_type_dim_reads_printed_labels(label, dim):
    assert type_dim(label) == dim


@pytest.mark.parametrize("label, message", [
    ("foo", "cannot read 'foo'"),
    ("", "cannot read ''"),
    ("D4+", "cannot read ''"),
    ("A0", "cannot read 'A0'"),
    ("B1", "cannot read 'B1'"),
    ("C2", "cannot read 'C2'"),
    ("D3", "cannot read 'D3'"),
    ("E9", "cannot read 'E9'"),
    ("b4", "cannot read 'b4'"),
    ("A1+C3", "use 'C3+A1'"),
    ("1u(1)", "use 'u(1)'"),
    ("u(1)+u(1)", "use '2u(1)'"),
    ("0u(1)", "use '0'"),
    ("A01", "cannot read 'A01'"),
])
def test_type_dim_rejects_labels_identify_never_prints(label, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        type_dim(label)
