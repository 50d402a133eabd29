import copy
import json
import re
from importlib import resources
from operator import mul

import pytest

from kleinfour.autos import (
    Automorphism,
    CertificationError,
    commutes,
    conjugate,
    make_automorphism,
    make_klein,
    omega_automorphism,
    parse_descriptor,
    torus_involution,
    weyl_lift,
)
from kleinfour import autos, exactq, identify, realform
from kleinfour.exactq import (
    SpanSolver,
    axpy,
    kernel,
    lincomb,
    rref,
    span_kernel,
    symmetric_inertia,
)
from kleinfour.identify import IdentifyError, Subalgebra, subalgebra_from_vectors
from kleinfour.realform import (
    CatalogMissError,
    RealFormError,
    cartan_decomposition,
    compact_form,
    holomorphic_flags,
    is_holomorphic_type,
    load_catalog,
    real_fixed_subalgebra,
)
from kleinfour.rootsys import build_root_system, cartan_matrix, chevalley_table
from kleinfour.verify import VerifyContext
from helpers import (auto_cols, compact_table, root_index, set_bracket, split_defects,
                     split_spans, stacked_kernel)
from oracles import (REFERENCE_TYPES, cartan_real_form_name, cocycle_defect, compact_cols,
                     compact_reference, compose_cols, exp_ad_cols, first_homomorphism_defect, jacobi_defect, killing_reference,
                     sparse_jacobi_defect, to_compact)


# -- compact form -----------------------------------------------------------------

def test_a1_compact_form_is_su2():
    t = chevalley_table(build_root_system(cartan_matrix("A1")))
    cb = compact_form(t)
    assert cb.dim == 3
    assert symmetric_inertia(cb.killing) == (0, 3, 0)


def test_a1_table_with_a_negated_coroot_bracket_fails_the_inertia_check():
    # [x_a, x_-a] = -h_a in both orders: every compact bracket is still
    # compact, but the Killing form has the wrong signs, and this whole-u
    # inertia is the one definiteness certificate of every split
    t = copy.copy(chevalley_table(build_root_system(cartan_matrix("A1"))))
    t._adj = [dict(row) for row in t._adj]
    for i, j in ((1, 2), (2, 1)):
        t._adj[i][j] = tuple((k, -c) for k, c in t._adj[i][j])
    with pytest.raises(RealFormError, match=re.escape(
            "Killing form of the compact basis has inertia (2, 1, 0), expected (0, 3, 0);")):
        compact_form(t)


@pytest.mark.parametrize("label, coords, inertia", [
    ("A2", (1, 1), (2, 6, 0)), ("B2", (1, 2), (2, 8, 0)), ("G2", (3, 2), (0, 12, 2))])
def test_a_negated_non_simple_coroot_bracket_fails_the_inertia_check(label, coords, inertia):
    # [x_a, x_-a] = -h_a in both orders for a non-simple root a moves B(x_a, x_-a)
    # by -8 (A2 and B2: 6 to -2, G2: 8 to 0), so u_a and v_a leave the negative
    # cone; where B(x_a, x_-a) > 8, as on every root of E6 (24 to 16), the
    # Gram stays definite and only a Jacobi scan or the cocycle oracle sees the
    # change (test_e6_with_a_negated_coroot_bracket_passes_the_inertia_check)
    t = copy.copy(chevalley_table(build_root_system(cartan_matrix(label))))
    t._adj = [dict(row) for row in t._adj]
    i = t.rank + root_index(t.rs, coords)
    set_bracket(t, i, i + t.npos, [(k, -c) for k, c in t._adj[i][i + t.npos]])
    with pytest.raises(RealFormError, match=re.escape(
            f"Killing form of the compact basis has inertia {inertia}, "
            f"expected (0, {t.rank + 2 * t.npos}, 0);")):
        compact_form(t)


def test_e6_with_a_negated_coroot_bracket_passes_the_inertia_check():
    """A limit of the definiteness certificate: on E6, [x_a, x_-a] = -h_a in
    both orders for the highest root a = roots[35] moves B(x_a, x_-a) only
    from 24 to 16, so compact_form raises nothing and its Gram keeps inertia
    (0, 78, 0).  No certificate in src reads that bracket again; the sparse
    Jacobi scan reports the triple (10, 40, 77), and the cocycle oracle the
    negated pair itself."""
    t = copy.copy(chevalley_table(build_root_system(cartan_matrix("E6"))))
    t._adj = [dict(row) for row in t._adj]
    i = t.rank + 35
    set_bracket(t, i, i + t.npos, [(k, -c) for k, c in t._adj[i][i + t.npos]])
    assert symmetric_inertia(compact_form(t).killing) == (0, 78, 0)
    assert sparse_jacobi_defect(t) == (10, 40, 77)
    assert cocycle_defect(t) == [(i, i + t.npos)] == [(41, 77)]


def test_e6_compact_inertia_negative_definite(e6_compact):
    assert symmetric_inertia(e6_compact.killing) == (0, 78, 0)


@pytest.mark.parametrize("label", ["G2", "B3", "C3", "F4", "D5", "E6", "E7"])
def test_compact_killing_matches_the_all_pairs_trace(e6_compact, label):
    # cb.killing is the Chevalley trace carried through cb.parts; the
    # reference traces the compact brackets of compact_reference, pair by pair
    cb = e6_compact if label == "E6" else compact_form(
        chevalley_table(build_root_system(cartan_matrix(label)))
    )
    # items, not dicts, so the ascending key order is compared as well
    assert [list(r.items()) for r in cb.killing] == [
        list(r.items()) for r in killing_reference(compact_table(cb))
    ]


@pytest.mark.parametrize("label", [label for label in REFERENCE_TYPES if label not in ("E7", "E8")])
def test_compact_table_and_killing_match_the_row_brackets_route(e6_compact, label):
    # item for item, in key order, against the Killing form of the route
    # through one row_brackets walk over parts; tests/table_cross_check.py
    # runs E7 and E8
    cb = e6_compact if label == "E6" else compact_form(
        chevalley_table(build_root_system(cartan_matrix(label)))
    )
    _, killing = compact_reference(cb)
    assert [list(r.items()) for r in cb.killing] == [list(r.items()) for r in killing]


@pytest.mark.parametrize("label", ["G2", "B3", "C3"])
def test_compact_form_of_multiply_laced_types(label):
    """The compact brackets that the Chevalley tables of G2, B3 and C3 give
    are integral and satisfy Jacobi."""
    ct = compact_table(compact_form(chevalley_table(build_root_system(cartan_matrix(label)))))
    assert all(isinstance(c, int) for _, _, terms in ct.brackets() for _, c in terms)
    assert jacobi_defect(ct) is None


def test_f4_compact_form_builds():
    cb = compact_form(chevalley_table(build_root_system(cartan_matrix("F4"))))
    assert cb.dim == 52


def test_to_compact_reads_back_the_basis(e6_compact):
    """The compactness rule of oracles.compact_cols, the reference that the
    omega_0 gate of the split is checked against, reads each compact basis
    vector back as itself, and its negative with e + 2."""
    cb = e6_compact
    for i, (e, x) in enumerate(cb.parts):
        assert to_compact(cb, x, e) == {i: 1}
        assert to_compact(cb, x, e + 2) == {i: -1}


def test_to_compact_rejects_vectors_outside_the_compact_form(e6_compact):
    cb = e6_compact
    x_a = {cb.rank: 1}  # X_a of the first positive root, without X_{-a}
    for e in (0, 1):
        with pytest.raises(AssertionError):
            to_compact(cb, x_a, e)
    with pytest.raises(AssertionError):
        to_compact(cb, {0: 1}, 0)  # a real h1


@pytest.mark.parametrize("label", REFERENCE_TYPES)
def test_compact_form_certifies_the_chevalley_involution(label, monkeypatch):
    """compact_form certifies omega_0: x_a -> -x_-a, h_i -> -h_i, once, as a
    signed permutation of order 2, on every reference type."""
    t = chevalley_table(build_root_system(cartan_matrix(label)))
    made = []
    real = realform.make_automorphism
    monkeypatch.setattr(realform, "make_automorphism",
                        lambda *args: made.append(real(*args)) or made[-1])
    compact_form(t)
    (omega0,) = made
    rank, npos = t.rank, t.npos
    assert omega0.order == 2
    assert auto_cols(omega0) == tuple([{i: -1} for i in range(rank)] + [
        {rank + (k + npos) % (2 * npos): -1} for k in range(2 * npos)])


@pytest.mark.parametrize("order", ["-a,-b", "-b,-a"])
def test_compact_form_names_the_pair_where_the_chevalley_involution_fails(order):
    """N(-a,-b) = -N(a,b) is what makes the compact form closed: on A3, with
    a = alpha_3 and b = alpha_2, the stored [x_-a, x_-b] negated (in both
    orders) fails omega_0's certificate at the pair (x_a, x_b)."""
    t = copy.copy(chevalley_table(build_root_system(cartan_matrix("A3"))))
    t._adj = [dict(row) for row in t._adj]
    rs, rank, npos = t.rs, t.rank, t.npos
    a, b = rank + npos + root_index(rs, (0, 0, 1)), rank + npos + root_index(rs, (0, 1, 0))
    i, j = (a, b) if order == "-a,-b" else (b, a)
    set_bracket(t, i, j, [(k, -c) for k, c in t._adj[i][j]])
    with pytest.raises(CertificationError) as err:
        compact_form(t)
    assert str(err.value) == ("chevalley-involution: homomorphism fails at basis pair "
                              "(x+[0,0,1], x+[0,1,0])")


# -- automorphisms in compact coordinates ---------------------------------------------

def test_torus_compact_matrix_is_diagonal(e6, e6_compact):
    a = torus_involution(e6, (1, 0, 0, 0, 0, 1))
    cols = compact_cols(e6_compact, auto_cols(a))
    for j, col in enumerate(cols):
        assert set(col) == {j}
        assert col[j] in (1, -1)


def test_weyl_lift_preserves_compact_form(e6, e6_compact):
    cols = compact_cols(e6_compact, auto_cols(weyl_lift(e6, 2)))
    assert len(cols) == 78


def _unipotent_conjugate(table, root_coords, sigma):
    """The columns of exp(ad x_a) sigma exp(-ad x_a): an automorphism, no root
    map, that moves the compact form whenever a pairs oddly with sigma's
    torus vector."""
    rs = table.rs
    x = {6 + root_index(rs, root_coords): 1}
    e_cols = exp_ad_cols(table, x)
    e_inv = exp_ad_cols(table, {k: -v for k, v in x.items()})
    return compose_cols(e_cols, compose_cols(auto_cols(sigma), e_inv))


def _commutes_with_omega0(cols, cb):
    omega0 = auto_cols(cb.omega0)
    return compose_cols(cols, omega0) == compose_cols(omega0, cols)


def test_unipotent_conjugate_fails_compactness(e6, e6_compact):
    """An involution that moves the compact form, given by plain columns:
    it does not commute with omega_0, and its compact columns do not exist."""
    sigma = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    moved = _unipotent_conjugate(e6, (0, 0, 0, 1, 0, 0), sigma)
    assert compose_cols(moved, moved) == tuple({j: 1} for j in range(e6.dim))
    assert moved != auto_cols(sigma) and first_homomorphism_defect(e6, moved) is None
    assert not _commutes_with_omega0(moved, e6_compact)
    with pytest.raises(AssertionError):
        compact_cols(e6_compact, moved)


def test_the_omega0_gate_rejects_a_forged_root_map_with_eta_minus_a_not_eta_a(e6, e6_compact):
    """No certified root map fails the split's omega_0 gate (the certificate
    forces w(-a) = -w(a) and eta_-a = eta_a), so a forged one reaches it: the
    identity img with the sign -1 on x_a alone, for the first positive root a."""
    eta = (-1,) + (1,) * 71
    forged = Automorphism(e6, tuple(range(72)), eta, 2, "forged")
    assert e6.root_map_defects(forged.img, [eta]) == [(6, 42)]
    with pytest.raises(RealFormError, match="^forged does not preserve the compact form$"):
        cartan_decomposition(e6_compact, forged)


def test_the_omega0_gate_agrees_with_the_compact_columns(e6, e6_compact, census):
    """A map commutes with omega_0 exactly when oracles.compact_cols reads
    every column of it back into the compact form: on the 79 census rows, the
    six Weyl lifts and omega, certified root maps that all commute with it,
    and on the columns of the two unipotent conjugates, the only maps here
    that move the compact form."""
    sigma = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    moving = [_unipotent_conjugate(e6, a, sigma) for a in ((0, 0, 0, 1, 0, 0), (0, 0, 1, 1, 0, 0))]
    autos = ([r.automorphism for r in census.rows] + [weyl_lift(e6, i) for i in range(6)]
             + [omega_automorphism(e6)])

    def compact(cols):
        try:
            compact_cols(e6_compact, cols)
        except AssertionError:
            return False
        return True

    verdicts = [(commutes(a, e6_compact.omega0), compact(auto_cols(a))) for a in autos]
    verdicts += [(_commutes_with_omega0(cols, e6_compact), compact(cols)) for cols in moving]
    assert verdicts == [(True, True)] * 86 + [(False, False)] * 2


# -- Cartan decompositions --------------------------------------------------------------

def test_identity_theta_gives_compact_form(e6, e6_compact):
    d = cartan_decomposition(e6_compact, parse_descriptor(e6, "identity"))
    assert d.signature == (78, 0)
    assert d.name == "e6(-78)"


def _split_cases(ctx):
    """(label, theta, gamma) of the whole-algebra split and the so82 and so81 splits."""
    a, b, theta = (ctx.automorphism(d) for d in (ctx.rank3.a, ctx.rank3.b, ctx.rank3.theta))
    return [("whole", ctx.automorphism("torus:0,1,0,0,0,0"), []),
            ("so82", theta, [b]), ("so81", theta, [a, b])]


def _captured_split(cb, theta, gamma, monkeypatch):
    """The (rows, pivots) of each span the split eliminates, in order, and its
    result (None on a catalog miss: the spans are made before the name is
    looked up)."""
    made = []
    real_rref = realform.rref
    monkeypatch.setattr(realform, "rref", lambda vs: made.append(real_rref(vs)) or made[-1])
    try:
        d = cartan_decomposition(cb, theta, gamma)
    except CatalogMissError:
        d = None
    monkeypatch.undo()
    return made, d


@pytest.mark.parametrize("case, dim", [("whole", 40), ("so82", 16), ("so81", 8)],
                         ids=["whole", "so82", "so81"])
def test_split_eliminates_only_p_c(ctx, case, dim, monkeypatch):
    """The split eliminates p_C, p on the Chevalley basis, and nothing else
    (k_C is fixed_subalgebra's), and builds no Subalgebra of its own: p_C is
    a plain span."""
    (theta, gamma), = [(t, g) for label, t, g in _split_cases(ctx) if label == case]
    assert not any(hasattr(realform, name) for name in ("Subalgebra", "subalgebra_from_vectors"))
    made, d = _captured_split(ctx.cb, theta, gamma, monkeypatch)
    assert [len(rows) for rows, _ in made] == [dim] == [d.p_dim]


def _split_by_the_compact_fixed_algebra(cb, theta, gamma):
    """k and p by a second route: the compact Fix(gamma) first, then theta's +1
    and -1 eigenspaces on its rows by span_kernel."""
    tcols = compact_cols(cb, auto_cols(theta))
    fixed = subalgebra_from_vectors(
        compact_table(cb), stacked_kernel(cb.dim, [(compact_cols(cb, auto_cols(g)), 1)
                                                   for g in gamma]))

    def part(eigen):
        images = [axpy(lincomb(row.values(), (tcols[j] for j in row)), -eigen, row.items())
                  for row in fixed.rows]
        return SpanSolver(*rref(span_kernel(fixed.rows, images)))

    return part(1), part(-1)


# (type, theta, gamma) of splits on G2, F4 and E7, with and without gamma
OTHER_TYPE_SPLITS = [("G2", "torus:1,0", []), ("G2", "torus:1,0", ["torus:0,1"]),
                     ("F4", "torus:1,0,0,0", []), ("F4", "torus:0,0,0,1", ["torus:1,0,0,0"]),
                     ("E7", "torus:1,0,0,0,0,0,0", [])]


def _eleven_splits(ctx, census):
    """(cb, theta, gamma) of the four census representatives, so82, so81 and
    the splits on G2, F4 and E7."""
    cases = [(ctx.cb, r.automorphism, []) for r in census.rows if r.provenance == "generic"]
    cases += [(ctx.cb, theta, gamma) for _, theta, gamma in _split_cases(ctx)[1:]]
    for label, theta, gamma in OTHER_TYPE_SPLITS:
        other = VerifyContext(algebra=label)
        cases.append((other.cb, other.automorphism(theta), [other.automorphism(g) for g in gamma]))
    assert len(cases) == 11
    return cases


def test_k_and_p_match_the_compact_fixed_algebra_route(ctx, census, monkeypatch):
    """On the four census representatives, so82, so81 and splits on G2, F4 and
    E7, the k and p that helpers.split_spans reads as joint eigenspaces on
    the compact basis have the rows and pivots of the route through the
    compact fixed algebra, and the split's p_C those of the elimination
    route: the stacked kernel of the Chevalley columns in place of
    autos.eigenspace.  The split runs no kernel over more than rank
    columns: its only ones are the Cartan blocks of autos.eigenspace."""
    for cb, theta, gamma in _eleven_splits(ctx, census):
        widths = []
        for mod in (exactq, autos):
            monkeypatch.setattr(mod, "kernel", lambda rows, n: widths.append(n) or kernel(rows, n))
        made, _ = _captured_split(cb, theta, gamma, monkeypatch)
        assert widths and max(widths) <= cb.table.rank and len(made) == 1
        assert [(s.rows, s.pivots) for s in split_spans(cb, theta, gamma)[:2]] == [
            (s.rows, s.pivots) for s in _split_by_the_compact_fixed_algebra(cb, theta, gamma)]
        dim = cb.table.dim
        for mod in (identify, realform):
            monkeypatch.setattr(mod, "eigenspace", lambda pairs: stacked_kernel(
                dim, [(auto_cols(a), e) for a, e in pairs]))
        assert _captured_split(cb, theta, gamma, monkeypatch)[0] == made


def test_split_relations_hold_on_the_compact_and_the_chevalley_brackets(ctx, census):
    """On the same eleven splits, [k,k] in k, [k,p] in p and [p,p] in k hold
    on the compact brackets of compact_reference over the split's k and p,
    and the split's walks pass over its k_C and p_C, which k and p span."""
    for cb, theta, gamma in _eleven_splits(ctx, census):
        assert split_defects(cb, theta, gamma) == [], (theta.descriptor, gamma)


def test_fill_check_fires_when_p_loses_a_vector(ctx, monkeypatch):
    """k_C + p_C must fill the complex fixed space of gamma: drop the last
    vector of p_C (the split's one eigenspace) and the split fails naming
    all three dims."""
    (_, theta, gamma), = [c for c in _split_cases(ctx) if c[0] == "so82"]
    eigen = realform.eigenspace
    monkeypatch.setattr(realform, "eigenspace", lambda pairs: eigen(pairs)[:-1])
    with pytest.raises(RealFormError, match=r"dim k 30 \+ dim p 15 != dim 46 of gamma's"):
        cartan_decomposition(ctx.cb, theta, gamma)


def test_split_checks_the_dimensions_of_k_c_and_p_c(ctx, monkeypatch):
    """The signature is (dim k_C, dim p_C), and the fill check reads both: k_C
    with its first row dropped fails it, naming dim k 29."""
    (_, theta, gamma), = [c for c in _split_cases(ctx) if c[0] == "so82"]
    fixed = realform.fixed_subalgebra
    monkeypatch.setattr(realform, "fixed_subalgebra", lambda table, autos: (
        Subalgebra(table, *rref(fixed(table, autos).rows[1:])) if theta in autos
        else fixed(table, autos)))
    with pytest.raises(RealFormError, match=r"dim k 29 \+ dim p 16 != dim 46 of gamma's"):
        cartan_decomposition(ctx.cb, theta, gamma)


def _a2_split():
    """A fresh A2 compact form, never the session's, and theta = torus:1,0.
    theta fixes h1, h2 and x_+-alpha_1 (k_C) and negates x_+-alpha_2 and
    x_+-(alpha_1+alpha_2) (p_C), since only alpha_1 pairs evenly with
    alpha_1^vee."""
    t = chevalley_table(build_root_system(cartan_matrix("A2")))
    return compact_form(t), parse_descriptor(t, "torus:1,0")


def test_split_rejects_a_bracket_of_k_that_escapes_k():
    """[h1, h2] = x_alpha_2 tampered into the Chevalley table after the
    compact form is built: h1 and h2 lie in k_C and x_alpha_2 in p_C, so the
    closure walk of k_C, the fixed subalgebra that gives k's type, fails."""
    cb, theta = _a2_split()
    set_bracket(cb.table, 0, 1, [(cb.rank + root_index(cb.table.rs, (0, 1)), 1)])
    with pytest.raises(IdentifyError, match="span is not bracket-closed"):
        cartan_decomposition(cb, theta)


@pytest.mark.parametrize("pair, terms, message", [
    # [h1, x_alpha_2] = -x_alpha_2 + x_alpha_1 leaves p_C
    ((0, (0, 1)), [((0, 1), -1), ((1, 0), 1)], "[k,p] escapes p"),
    # [x_alpha_2, x_alpha_1+alpha_2], zero in A2, = x_alpha_2 leaves k_C
    (((0, 1), (1, 1)), [((0, 1), 1)], "[p,p] escapes k"),
], ids=["[k,p]", "[p,p]"])
def test_split_rejects_a_bracket_that_escapes_its_part(pair, terms, message):
    """One bracket tampered into the Chevalley table after the compact form
    is built fails the split's walk on k_C and p_C that reaches it."""
    cb, theta = _a2_split()
    t = cb.table

    def index(x):  # a simple coroot by its number, a root by its coordinates
        return x if isinstance(x, int) else t.rank + root_index(t.rs, x)

    set_bracket(t, *map(index, pair), [(index(x), c) for x, c in terms])
    with pytest.raises(RealFormError) as exc:
        cartan_decomposition(cb, theta)
    assert str(exc.value) == message


def test_split_walks_k_and_p_into_the_whole_of_p(ctx, monkeypatch):
    """With one row of p_C dropped from the target of the [k,p] walk, so82's
    split fails that walk: [k_C, p_C] fills p_C."""
    (_, theta, gamma), = [c for c in _split_cases(ctx) if c[0] == "so82"]
    real = realform.first_escape

    def dropping(table, xs, ys, into):
        if into is ys:  # the [k,p] walk
            t = into.dim // 2
            into = SpanSolver(into.rows[:t] + into.rows[t + 1:],
                              into.pivots[:t] + into.pivots[t + 1:])
        return real(table, xs, ys, into)

    monkeypatch.setattr(realform, "first_escape", dropping)
    with pytest.raises(RealFormError) as exc:
        cartan_decomposition(ctx.cb, theta, gamma)
    assert str(exc.value) == "[k,p] escapes p"


def test_sigma2_gives_e6_minus_14(e6, e6_compact):
    theta = torus_involution(e6, (1, 0, 0, 0, 0, 1))
    d = cartan_decomposition(e6_compact, theta)
    assert d.signature == (46, 32)
    assert d.k_type == "D5+u(1)"
    assert d.name == "e6(-14)"


def test_omega_gives_e6_minus_26(e6, e6_compact):
    d = cartan_decomposition(e6_compact, omega_automorphism(e6))
    assert d.signature == (52, 26)
    assert d.k_type == "F4"
    assert d.name == "e6(-26)"


def test_decomposition_rejects_higher_order(e6, e6_compact):
    w = weyl_lift(e6, 0)
    assert w.order == 4
    with pytest.raises(RealFormError):
        cartan_decomposition(e6_compact, w)


# -- real fixed subalgebras ---------------------------------------------------------------

def test_klein_pair_names_so_8_1(ctx):
    cfg = ctx.rank3
    a = ctx.automorphism(cfg.a)
    b = ctx.automorphism(cfg.b)
    theta = ctx.automorphism(cfg.theta)
    make_klein(a, b)
    d = real_fixed_subalgebra(ctx.cb, (a, b), theta)
    assert d.g_type == "B4"
    assert d.k_type == "D4"
    assert d.signature == (28, 8)
    assert d.name == "so(8,1)"


def test_rank_one_gamma_names_so_8_2_plus_u1(ctx):
    cfg = ctx.rank3
    b = ctx.automorphism(cfg.b)
    theta = ctx.automorphism(cfg.theta)
    d = real_fixed_subalgebra(ctx.cb, [b], theta)
    assert d.g_type == "D5+u(1)"
    assert d.k_type == "D4+2u(1)"
    assert d.signature == (30, 16)
    assert d.name == "so(8,2)+u(1)"


def test_gamma_containing_theta_gives_compact_result(ctx):
    cfg = ctx.rank3
    a = ctx.automorphism(cfg.a)
    b = ctx.automorphism(cfg.b)
    make_klein(a, b)
    d = real_fixed_subalgebra(ctx.cb, (a, b), b)
    assert d.signature == (36, 0)  # p-part vanishes: theta lies in gamma
    assert d.name == "so(9)"


def test_noncommuting_gamma_rejected(ctx, e6):
    from kleinfour.autos import commutes

    theta = torus_involution(e6, (1, 0, 0, 0, 0, 1))
    # omega conjugated by the lift of the reflection in alpha_3
    moved = conjugate(weyl_lift(e6, 2), omega_automorphism(e6))
    assert moved.order == 2 and not commutes(moved, theta)
    with pytest.raises(RealFormError, match="commute"):
        real_fixed_subalgebra(ctx.cb, [moved], theta)


# -- holomorphic type ----------------------------------------------------------------------

def test_theta_is_holomorphic_for_itself(ctx):
    theta = ctx.automorphism(ctx.rank3.theta)
    assert is_holomorphic_type(ctx.cb, theta, theta) is True


def test_torus_sigma_is_holomorphic(ctx, e6):
    theta = ctx.automorphism(ctx.rank3.theta)
    sigma = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    assert is_holomorphic_type(ctx.cb, sigma, theta) is True


def test_sigma3_generator_is_anti_holomorphic(ctx):
    theta = ctx.automorphism(ctx.rank3.theta)
    a = ctx.automorphism(ctx.rank3.a)
    assert is_holomorphic_type(ctx.cb, a, theta) is False


def test_holomorphic_flags_build_the_center_once(ctx, e6, monkeypatch):
    from kleinfour import realform

    theta = ctx.automorphism(ctx.rank3.theta)
    a = ctx.automorphism(ctx.rank3.a)
    sigmas = [theta, a, torus_involution(e6, (0, 1, 0, 0, 0, 0))]
    calls = []
    center_of = realform.center_of
    monkeypatch.setattr(realform, "center_of", lambda s: calls.append(s) or center_of(s))
    assert holomorphic_flags(ctx.cb, sigmas, theta) == [True, False, True]
    assert len(calls) == 1


def test_whole_algebra_is_identified_once_per_compact_basis(ctx, e6, monkeypatch):
    from kleinfour import realform

    thetas = [torus_involution(e6, bits)
              for bits in ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0))]
    expected = [cartan_decomposition(ctx.cb, theta) for theta in thetas]
    cb = compact_form(e6)
    whole = []
    identify_type = realform.identify_type

    def counting(s):
        if s.dim == e6.dim:
            whole.append(s)
        return identify_type(s)

    monkeypatch.setattr(realform, "identify_type", counting)
    assert [cartan_decomposition(cb, theta) for theta in thetas] == expected
    assert len(whole) == 1


def test_holomorphic_flags_reject_noncommuting_sigma(ctx, e6):
    theta = torus_involution(e6, (1, 0, 0, 0, 0, 1))
    moved = conjugate(weyl_lift(e6, 2), omega_automorphism(e6))
    with pytest.raises(RealFormError, match="commute"):
        holomorphic_flags(ctx.cb, [theta, moved], theta)


def test_non_hermitian_theta_rejected(ctx, e6):
    sigma1 = torus_involution(e6, (0, 1, 0, 0, 0, 0))  # k = A5+A1: no center
    with pytest.raises(RealFormError, match="Hermitian"):
        is_holomorphic_type(ctx.cb, sigma1, sigma1)


# -- catalog ----------------------------------------------------------------------------------

def test_catalog_so_consistency_and_miss():
    """The catalog names so(8,1) by its key, and a split whose key has no row
    (A2 under omega, the split form sl(3,R)) raises the miss naming that key."""
    assert load_catalog()[("B4", "D4", 28, 8)] == "so(8,1)"
    a2 = VerifyContext(algebra="A2")
    with pytest.raises(CatalogMissError, match=re.escape(
            "no real form catalogued for g_type=A2, k_type=A1, signature=(3,5)")):
        cartan_decomposition(a2.cb, a2.automorphism("omega"))


def test_every_catalog_name_follows_from_its_key_by_cartans_rule():
    """Each of the 22 shipped rows, whose keys are distinct, is named as
    Cartan's rule names its (g_type, k_type, signature) key, and load_catalog
    maps each key to its name."""
    data = resources.files("kleinfour.data").joinpath("realform_catalog.json").read_text()
    rows = [((r["g"], r["k"], *r["signature"]), r["name"]) for r in json.loads(data)["real_forms"]]
    assert len(rows) == len(set(key for key, _ in rows)) == 22
    assert [cartan_real_form_name(*key) for key, _ in rows] == [name for _, name in rows]
    assert load_catalog() == dict(rows)


@pytest.mark.parametrize("key, name", [
    (("E6", "D5+u(1)", 46, 32), "e6(-15)"),  # the index of e6(-14) off by one
    (("B4", "D4", 27, 9), "so(8,1)"),        # k dim 27 with the same total
    (("B4", "D4", 27, 8), "so(8,1)"),        # k dim 27 alone
    (("B4", "B4", 28, 8), "so(8,1)"),        # k type not so(8)+so(1)
    (("D5+u(1)", "B4", 36, 10), "so(9,1)+u(1)"),  # the center in p, not k
])
def test_cartans_rule_rejects_a_wrong_row(key, name):
    assert cartan_real_form_name(*key) != name


def _automorphism(c, descriptor):
    """c.automorphism(descriptor), or for "grading:b1,...,bl" the coweight
    grading: the identity img and the sign (-1)^(sum_j b_j m_j(alpha)) on
    x_alpha for alpha = sum_j m_j alpha_j, certified by make_automorphism.  A
    coweight outside the coroot lattice gives an involution that no torus:
    descriptor writes."""
    if not descriptor.startswith("grading:"):
        return c.automorphism(descriptor)
    b = [int(x) for x in descriptor[len("grading:"):].split(",")]
    eta = [-1 if sum(map(mul, b, r.coords)) % 2 else 1 for r in c.rs.roots]
    return make_automorphism(c.table, (range(len(eta)), eta), descriptor)


# One committed split per catalog row: the whole algebra of E6, F4, B4 and D5,
# the Gamma-fixed D5+u(1) in E6, and the Gamma-fixed D5+u(1) in D6, whose
# so(9,1)+u(1) no split inside E6 prints (an outer theta there negates the
# center of D5+u(1)).
REALIZED = {
    "e6(-78)": ("E6", "identity", ()),
    "e6(2)": ("E6", "torus:0,1,0,0,0,0", ()),
    "e6(-14)": ("E6", "torus:1,0,0,0,0,1", ()),
    "e6(-26)": ("E6", "omega", ()),
    "e6(6)": ("E6", "omega*torus:0,1,0,0,0,0", ()),
    "f4(-52)": ("F4", "identity", ()),
    "f4(4)": ("F4", "torus:0,1,0,0", ()),
    "f4(-20)": ("F4", "torus:0,0,0,1", ()),
    "so(9)": ("B4", "identity", ()),
    "so(8,1)": ("B4", "torus:1,0,1,0", ()),
    "so(7,2)": ("B4", "grading:0,0,1,1", ()),
    "so(6,3)": ("B4", "grading:0,0,1,0", ()),
    "so(5,4)": ("B4", "torus:0,0,1,0", ()),
    "so(10)": ("D5", "identity", ()),
    "so(9,1)": ("D5", "omega", ()),
    "so(8,2)": ("D5", "torus:0,1,0,0,1", ()),
    "so(7,3)": ("D5", "omega*torus:0,0,0,0,1", ()),
    "so(6,4)": ("D5", "torus:0,0,0,0,1", ()),
    "so(5,5)": ("D5", "omega*torus:0,0,1,0,0", ()),
    "so(10)+u(1)": ("E6", "identity", ("torus:1,0,0,0,0,1",)),
    "so(9,1)+u(1)": ("D6", "omega", ("grading:1,0,0,0,0,0",)),
    "so(8,2)+u(1)": ("E6", "torus:1,0,0,0,0,1", ("torus:0,0,1,0,1,0",)),
}


def test_each_reachable_catalog_row_comes_out_of_a_certified_split(ctx):
    keys = {name: key for key, name in load_catalog().items()}
    assert set(REALIZED) == set(keys) and len(REALIZED) == 22
    contexts = {"E6": ctx}
    for name, (label, theta, gamma) in REALIZED.items():
        c = contexts.setdefault(label, VerifyContext(algebra=label))
        d = cartan_decomposition(c.cb, _automorphism(c, theta),
                                 [_automorphism(c, g) for g in gamma])
        assert ((d.g_type, d.k_type, d.k_dim, d.p_dim), d.name) == (keys[name], name)


def test_the_signature_is_the_dims_of_the_compact_eigenspaces(ctx, census):
    """The split prints (dim k_C, dim p_C): on the whole-algebra, so82 and so81
    splits, the four census representatives and the 22 catalog splits above,
    that is (dim k, dim p) of the joint +-theta eigenspaces of gamma on the
    compact basis, which helpers.split_spans reads through oracles.compact_cols."""
    cases = [(ctx.cb, theta, gamma) for _, theta, gamma in _split_cases(ctx)]
    cases += [(ctx.cb, r.automorphism, []) for r in census.rows if r.provenance == "generic"]
    contexts = {"E6": ctx}
    for label, theta, gamma in REALIZED.values():
        c = contexts.setdefault(label, VerifyContext(algebra=label))
        cases.append((c.cb, _automorphism(c, theta), [_automorphism(c, g) for g in gamma]))
    assert len(cases) == 29
    for cb, theta, gamma in cases:
        k, p = split_spans(cb, theta, gamma)[:2]
        assert cartan_decomposition(cb, theta, gamma).signature == (k.dim, p.dim), theta.descriptor
