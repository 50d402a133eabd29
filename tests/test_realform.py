import copy
import json
import re
from importlib import resources
from operator import mul
from types import SimpleNamespace

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from kleinfour.autos import (
    compose_cols,
    make_automorphism,
    make_klein,
    omega_automorphism,
    parse_descriptor,
    torus_involution,
    weyl_lift,
)
from kleinfour import exactq, realform
from kleinfour.exactq import (
    SpanSolver,
    axpy,
    joint_eigenspace,
    kernel,
    lincomb,
    rref,
    span_kernel,
    symmetric_inertia,
)
from kleinfour.identify import subalgebra_from_vectors
from kleinfour.realform import (
    CatalogMissError,
    RealFormError,
    cartan_decomposition,
    compact_form,
    compact_matrix_cols,
    holomorphic_flags,
    is_holomorphic_type,
    load_catalog,
    real_fixed_subalgebra,
)
from kleinfour.rootsys import build_root_system, cartan_matrix, chevalley_table
from kleinfour.verify import VerifyContext, run_all
from helpers import root_index, set_bracket
from oracles import (REFERENCE_TYPES, cartan_real_form_name, compact_reference, exp_ad_cols,
                     jacobi_defect, killing_reference, pairing)


# -- compact form -----------------------------------------------------------------

def test_a1_compact_form_is_su2():
    t = chevalley_table(build_root_system(cartan_matrix("A1")))
    cb = compact_form(t)
    assert cb.dim == 3
    assert symmetric_inertia(cb.killing) == (0, 3, 0)


def test_a1_table_with_a_negated_coroot_bracket_fails_the_inertia_check():
    # [x_a, x_-a] = -h_a in both orders: every compact bracket still passes
    # to_compact, but the Killing form has the wrong signs
    t = copy.copy(chevalley_table(build_root_system(cartan_matrix("A1"))))
    t._adj = [dict(row) for row in t._adj]
    for i, j in ((1, 2), (2, 1)):
        t._adj[i][j] = tuple((k, -c) for k, c in t._adj[i][j])
    with pytest.raises(RealFormError, match=re.escape(
            "Killing form of the compact basis has inertia (2, 1, 0), expected (0, 3, 0);")):
        compact_form(t)


def test_a_chevalley_killing_form_that_pairs_odd_and_even_phases_is_not_real(monkeypatch):
    # B(h, x_a) = 1 makes B(u_a, w) = sqrt(-1) (B(x_a, h) - B(x_-a, h)) imaginary
    t = chevalley_table(build_root_system(cartan_matrix("A1")))
    B = [dict(row) for row in realform.killing_form(t)]
    B[0][1] = B[1][0] = 1
    monkeypatch.setattr(realform, "killing_form", lambda table: B)
    with pytest.raises(RealFormError, match=re.escape("B(u(1,), w1) is not real")):
        compact_form(t)


def test_e6_compact_inertia_negative_definite(e6_compact):
    assert symmetric_inertia(e6_compact.killing) == (0, 78, 0)


@pytest.mark.parametrize("label", ["G2", "B3", "C3", "F4", "D5", "E6", "E7"])
def test_compact_killing_matches_the_all_pairs_trace(e6_compact, label):
    # cb.killing is the Chevalley trace carried through cb.parts; the
    # reference traces the compact store itself, pair by pair
    cb = e6_compact if label == "E6" else compact_form(
        chevalley_table(build_root_system(cartan_matrix(label)))
    )
    # items, not dicts, so the ascending key order is compared as well
    assert [list(r.items()) for r in cb.killing] == [
        list(r.items()) for r in killing_reference(cb)
    ]


@pytest.mark.parametrize("label", [label for label in REFERENCE_TYPES if label not in ("E7", "E8")])
def test_compact_table_and_killing_match_the_row_brackets_route(e6_compact, label):
    # item for item, in key and term order, against the route through one
    # row_brackets walk over parts; tests/table_cross_check.py runs E7 and E8
    cb = e6_compact if label == "E6" else compact_form(
        chevalley_table(build_root_system(cartan_matrix(label)))
    )
    adj, killing = compact_reference(cb)
    assert [list(r.items()) for r in cb._adj] == [list(r.items()) for r in adj]
    assert [list(r.items()) for r in cb.killing] == [list(r.items()) for r in killing]


def test_w_bracket_u_proportional_to_v(e6_compact):
    cb = e6_compact
    rs = cb.table.rs
    for i in range(6):
        for k in range(0, cb.npos, 5):
            terms = cb.pair_bracket(2 * cb.npos + i, k)
            c = pairing(rs, rs.roots[k].coords, i)
            if c:
                assert terms == ((cb.npos + k, c),)
            else:
                assert terms == ()


def test_compact_table_satisfies_jacobi(e6_compact):
    assert jacobi_defect(e6_compact) is None


def test_compact_brackets_are_integral(e6_compact):
    for _, _, terms in e6_compact.brackets():
        for _, c in terms:
            assert isinstance(c, int)


@pytest.mark.parametrize("label", ["G2", "B3", "C3"])
def test_compact_form_of_multiply_laced_types(label):
    cb = compact_form(chevalley_table(build_root_system(cartan_matrix(label))))
    assert all(isinstance(c, int) for _, _, terms in cb.brackets() for _, c in terms)
    assert jacobi_defect(cb) is None


def test_f4_compact_form_builds():
    cb = compact_form(chevalley_table(build_root_system(cartan_matrix("F4"))))
    assert cb.dim == 52


def test_to_compact_reads_back_the_basis(e6_compact):
    cb = e6_compact
    for i, (e, x) in enumerate(cb.parts):
        assert cb.to_compact(x, e, lambda: cb.label(i)) == {i: 1}
        assert cb.to_compact(x, e + 2, lambda: cb.label(i)) == {i: -1}


def test_to_compact_rejects_vectors_outside_the_compact_form(e6_compact):
    cb = e6_compact
    x_a = {cb.rank: 1}  # X_a of the first positive root, without X_{-a}
    for e in (0, 1):
        with pytest.raises(RealFormError, match=r"X_a alone .*x\+\[0,0,0,0,0,1\]"):
            cb.to_compact(x_a, e, lambda: "X_a alone")
    with pytest.raises(RealFormError, match=r"real h1 .*\(at h1\)"):
        cb.to_compact({0: 1}, 0, lambda: "real h1")


def test_compact_form_failure_names_the_bracket_pair():
    """A bracket that leaves the compact form is named by its pair of compact
    basis vectors, and the Chevalley vector where it leaves: A1 with
    [X_a, X_-a] = h + X_a gives [u, v] = 2 h + 2 X_a, an X_a without its X_-a."""
    t = chevalley_table(build_root_system(cartan_matrix("A1")))
    set_bracket(t, 1, 2, ((0, 1), (1, 1)))
    with pytest.raises(RealFormError) as err:
        compact_form(t)
    assert str(err.value) == "[u(1,), v(1,)] is not in the compact form (at x+[1])"


# -- automorphisms in compact coordinates ---------------------------------------------

def test_torus_compact_matrix_is_diagonal(e6, e6_compact):
    a = torus_involution(e6, (1, 0, 0, 0, 0, 1))
    cols = compact_matrix_cols(e6_compact, a)
    for j, col in enumerate(cols):
        assert set(col) == {j}
        assert col[j] in (1, -1)


def test_weyl_lift_preserves_compact_form(e6, e6_compact):
    cols = compact_matrix_cols(e6_compact, weyl_lift(e6, 2))
    assert len(cols) == 78


def _unipotent_conjugate(table, root_coords, sigma):
    """exp(ad x_a) sigma exp(-ad x_a): certified, but moves the compact form
    whenever a pairs oddly with sigma's torus vector."""
    rs = table.rs
    x = {6 + root_index(rs, root_coords): 1}
    e_cols = exp_ad_cols(table, x)
    e_inv = exp_ad_cols(table, {k: -v for k, v in x.items()})
    cols = compose_cols(e_cols, compose_cols(sigma.cols, e_inv))
    return make_automorphism(table, cols, "unipotent-conjugate")


def test_unipotent_conjugate_fails_compactness(e6, e6_compact):
    sigma = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    moved = _unipotent_conjugate(e6, (0, 0, 0, 1, 0, 0), sigma)
    assert moved.order == 2
    assert moved != sigma
    with pytest.raises(RealFormError) as err:
        compact_matrix_cols(e6_compact, moved)
    assert str(err.value) == ("unipotent-conjugate applied to u(0, 0, 0, 0, 1, 0) is not in "
                              "the compact form (at x+[0,0,0,1,1,0])")


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


@pytest.mark.parametrize("case, dims", [("whole", [38, 40]), ("so82", [30, 16]),
                                        ("so81", [28, 8])], ids=["whole", "so82", "so81"])
def test_split_eliminates_only_k_and_p(ctx, case, dims, monkeypatch):
    """The split eliminates k and then p, nothing else, and builds no
    Subalgebra: k and p are plain spans."""
    (theta, gamma), = [(t, g) for label, t, g in _split_cases(ctx) if label == case]
    assert not any(hasattr(realform, name) for name in ("Subalgebra", "subalgebra_from_vectors"))
    made, d = _captured_split(ctx.cb, theta, gamma, monkeypatch)
    assert [len(rows) for rows, _ in made] == dims == [d.k_dim, d.p_dim]


def _split_by_the_compact_fixed_algebra(cb, theta, gamma):
    """k and p by a second route: the compact Fix(gamma) first, then theta's +1
    and -1 eigenspaces on its rows by span_kernel."""
    tcols = compact_matrix_cols(cb, theta)
    fixed = subalgebra_from_vectors(
        cb, joint_eigenspace(cb.dim, [compact_matrix_cols(cb, g) for g in gamma]))

    def part(eigen):
        images = [axpy(lincomb(row.values(), (tcols[j] for j in row)), -eigen, row.items())
                  for row in fixed.rows]
        return SpanSolver(*rref(span_kernel(fixed.rows, images)))

    return part(1), part(-1)


# (type, theta, gamma) of splits on G2, F4 and E7, with and without gamma
OTHER_TYPE_SPLITS = [("G2", "torus:1,0", []), ("G2", "torus:1,0", ["torus:0,1"]),
                     ("F4", "torus:1,0,0,0", []), ("F4", "torus:0,0,0,1", ["torus:1,0,0,0"]),
                     ("E7", "torus:1,0,0,0,0,0,0", [])]


def test_k_and_p_match_the_compact_fixed_algebra_route(ctx, census, monkeypatch):
    """On the four census representatives, so82, so81 and splits on G2, F4 and
    E7, the split's k and p have the rows and pivots of the route through the
    compact fixed algebra, and of the elimination route: the stacked kernel
    that joint_eigenspace takes when the orbits of signed permutations are
    not read.  Every theta and gamma here is a signed permutation on the
    compact basis, so the split itself runs no kernel."""
    cases = [(ctx.cb, r.automorphism, []) for r in census.rows if r.provenance == "generic"]
    cases += [(ctx.cb, theta, gamma) for _, theta, gamma in _split_cases(ctx)[1:]]
    for label, theta, gamma in OTHER_TYPE_SPLITS:
        other = VerifyContext(algebra=label)
        cases.append((other.cb, other.automorphism(theta), [other.automorphism(g) for g in gamma]))
    assert len(cases) == 11
    for cb, theta, gamma in cases:
        kernels = []
        monkeypatch.setattr(exactq, "kernel", lambda *a: kernels.append(1) or kernel(*a))
        made, _ = _captured_split(cb, theta, gamma, monkeypatch)
        assert not kernels
        assert [(tuple(rows), tuple(pivots)) for rows, pivots in made] == [
            (s.rows, s.pivots) for s in _split_by_the_compact_fixed_algebra(cb, theta, gamma)]
        monkeypatch.setattr(exactq, "_orbit_eigenspace", lambda dim, maps: None)
        assert _captured_split(cb, theta, gamma, monkeypatch)[0] == made


def test_fill_check_fires_when_p_loses_a_vector(ctx, monkeypatch):
    """k + p must fill the complex fixed space of gamma: drop one vector of p
    (the split's second eigenspace) and the split fails naming all three dims.
    Dropping one of k fails the same check, which is what makes dim k the
    dimension of its complexification."""
    (_, theta, gamma), = [c for c in _split_cases(ctx) if c[0] == "so82"]
    real = realform.joint_eigenspace
    for short, dims in ((2, r"dim k 30 \+ dim p 15"), (1, r"dim k 29 \+ dim p 16")):
        calls = []

        def dropping(dim, maps):
            calls.append(1)
            vecs = real(dim, maps)
            return vecs[:-1] if len(calls) == short else vecs

        monkeypatch.setattr(realform, "joint_eigenspace", dropping)
        with pytest.raises(RealFormError, match=dims + r" != dim 46 of gamma's"):
            cartan_decomposition(ctx.cb, theta, gamma)


def _a2_split():
    """A fresh A2 compact table, never the session's, and theta = torus:1,0."""
    t = chevalley_table(build_root_system(cartan_matrix("A2")))
    return compact_form(t), parse_descriptor(t, "torus:1,0")


def test_split_rejects_a_bracket_of_k_that_escapes_k():
    """[w1, w2] = u_0 tampered into the table: w1 and w2 lie in k, and u_0,
    whose root alpha_2 pairs oddly with alpha_1^vee, in p."""
    cb, theta = _a2_split()
    set_bracket(cb, 2 * cb.npos, 2 * cb.npos + 1, [(0, 1)])
    with pytest.raises(RealFormError) as exc:
        cartan_decomposition(cb, theta)
    assert str(exc.value) == "[k,k] escapes k"


def test_split_rejects_a_killing_form_that_is_not_negative_definite_on_k():
    cb, theta = _a2_split()
    cb.killing[2 * cb.npos][2 * cb.npos] *= -1  # w1 lies in k
    with pytest.raises(RealFormError) as exc:
        cartan_decomposition(cb, theta)
    assert str(exc.value) == "Killing form on k is not negative definite"


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _dense_gram_inertia(rows, killing, dim):
    """(n_pos, n_neg, n_zero) of the dense Gram X B X^T by sympy: a symmetric
    matrix has real eigenvalues, so Descartes' rule on its characteristic
    polynomial counts their signs exactly."""
    X, B = (DomainMatrix.from_Matrix(sympy.Matrix([[r.get(j, 0) for j in range(dim)]
                                                   for r in m])) for m in (rows, killing))
    coeffs = (X * B * X.transpose()).charpoly()  # highest degree first
    n = len(rows)
    zero = n - max(k for k, c in enumerate(coeffs) if c != 0)
    neg = _sign_changes([c * (-1) ** (n - k) for k, c in enumerate(coeffs)])
    return _sign_changes(coeffs), neg, zero


def test_restricted_inertia_matches_the_dense_gram(monkeypatch):
    """On the 12 k and p spans of a cold verify all, the sparse Gram's inertia
    is sympy's inertia of the dense Gram; with one diagonal sign of the
    Killing form flipped, on the first pivot of the span, both change."""
    spans = []
    real = realform._restricted_inertia
    monkeypatch.setattr(realform, "_restricted_inertia",
                        lambda cb, span: spans.append((cb, span)) or real(cb, span))
    run_all(VerifyContext())
    monkeypatch.undo()
    assert len(spans) == 12
    for cb, span in spans:
        got = real(cb, span)
        assert got == _dense_gram_inertia(span.rows, cb.killing, cb.dim) == (0, span.dim, 0)
        c = span.pivots[0]
        flipped = [dict(row) for row in cb.killing]
        flipped[c][c] = -flipped[c][c]
        got = real(SimpleNamespace(killing=flipped), span)
        assert got == _dense_gram_inertia(span.rows, flipped, cb.dim) != (0, span.dim, 0)


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
    sigma = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    # alpha_3 + alpha_4 pairs oddly with both torus vectors
    moved = _unipotent_conjugate(e6, (0, 0, 1, 1, 0, 0), sigma)
    assert not commutes(moved, theta)
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
    sigma = torus_involution(e6, (0, 1, 0, 0, 0, 0))
    moved = _unipotent_conjugate(e6, (0, 0, 1, 1, 0, 0), sigma)
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
    grading: the identity on the Cartan, and (-1)^(sum_j b_j m_j(alpha)) on
    x_alpha for alpha = sum_j m_j alpha_j, certified by make_automorphism.  A
    coweight outside the coroot lattice gives an involution that no torus:
    descriptor writes."""
    if not descriptor.startswith("grading:"):
        return c.automorphism(descriptor)
    b = [int(x) for x in descriptor[len("grading:"):].split(",")]
    rank = c.table.rank
    cols = [{i: 1} for i in range(rank)]
    cols += [{rank + k: -1 if sum(map(mul, b, r.coords)) % 2 else 1}
             for k, r in enumerate(c.rs.roots)]
    return make_automorphism(c.table, cols, descriptor)


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
