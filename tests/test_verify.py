import json
import random
from itertools import combinations, combinations_with_replacement, islice

import pytest

from kleinfour import verify
from kleinfour.autos import (
    CertificationError,
    commutes,
    compose,
    conjugate,
    joint_fixed_dim,
    omega_automorphism,
    parse_descriptor,
    torus_involution,
    weyl_lift,
)
from kleinfour.identify import fixed_subalgebra, identify_type, type_dim
from kleinfour.verify import (
    CLASS_INVARIANTS,
    CensusError,
    classify_involution,
    find_rank3_configuration,
    find_so9_klein,
    reports_to_json,
    run_all,
    search_configuration,
    verify_census,
    verify_holomorphic,
    verify_so82_fixed_form,
    verify_so81_klein_pair,
)
from oracles import torus_census_buckets


# -- classification -------------------------------------------------------------

def test_classify_the_named_representatives(e6):
    assert classify_involution(e6, torus_involution(e6, (0, 1, 0, 0, 0, 0))) == "sigma1"
    assert classify_involution(e6, torus_involution(e6, (1, 0, 0, 0, 0, 1))) == "sigma2"
    assert classify_involution(e6, omega_automorphism(e6)) == "sigma3"
    om = omega_automorphism(e6)
    s4 = compose(om, torus_involution(e6, (0, 1, 0, 0, 0, 0)))
    assert classify_involution(e6, s4) == "sigma4"


def test_classify_rejects_identity(e6):
    from kleinfour.autos import identity_automorphism

    with pytest.raises(ValueError):
        classify_involution(e6, identity_automorphism(e6))


def test_class_invariant_pairs_are_distinct():
    assert len(set(CLASS_INVARIANTS.values())) == 4


# -- census ----------------------------------------------------------------------

def test_census_inner_bucket_counts_match_parity_oracle(census):
    oracle = torus_census_buckets()  # fixed dim -> class count
    assert oracle == {38: 36, 46: 27}
    assert census.inner_counts == {"sigma1": 36, "sigma2": 27}


def test_census_outer_buckets_only_sigma3_sigma4(census):
    assert set(census.outer_counts) == {"sigma3", "sigma4"}
    assert sum(census.outer_counts.values()) == census.twist_involutions == 16
    assert census.twist_candidates == 64


def test_census_realform_names(census):
    assert census.realform_names == {
        "sigma1": "e6(2)",
        "sigma2": "e6(-14)",
        "sigma3": "e6(-26)",
        "sigma4": "e6(6)",
    }


def test_census_total_and_trace_identity(census):
    assert len(census.rows) == 63 + 16
    assert all(r.trace_identity_ok for r in census.rows)


def test_census_invariants_recomputed(census):
    for row in census.rows:
        assert (row.fixed_dim, row.fixed_type) == CLASS_INVARIANTS[row.label]


def test_census_type_labels_parse_to_their_dimension(census):
    for row in census.rows:
        assert type_dim(row.fixed_type) == row.fixed_dim


# -- character formula -------------------------------------------------------------

CLASS_TUPLES = [list(p) for p in combinations_with_replacement(sorted(CLASS_INVARIANTS), 2)] + [
    ["sigma1", "sigma1", "sigma1"],
    ["sigma3", "sigma2", "sigma1"],
    ["sigma3", "sigma2", "sigma2"],
    ["sigma4", "sigma4", "sigma2"],
]


@pytest.mark.parametrize("labels", CLASS_TUPLES, ids=",".join)
def test_character_dim_matches_fixed_subalgebra(ctx, labels):
    """The search enumerator's first tuples: distinct, pairwise commuting, of
    the requested classes, and carrying their true joint fixed dimension."""
    label_of = {r.descriptor: r.label for r in ctx.census.rows}
    tuples = list(islice(verify._commuting_tuples(ctx, labels, 0), 3))
    assert tuples, labels
    for descs, autos, dim in tuples:
        assert [label_of[d] for d in descs] == labels
        assert len(set(descs)) == len(descs)
        assert all(commutes(x, y) for x, y in combinations(autos, 2))
        assert dim == joint_fixed_dim(autos) == fixed_subalgebra(ctx.table, autos).dim, descs


def test_so9_klein_character_mismatch_raises(ctx, monkeypatch):
    monkeypatch.setattr(verify, "joint_fixed_dim", lambda gens: 35)
    with pytest.raises(CertificationError, match="character formula gives 35"):
        find_so9_klein(ctx)


# -- searches ----------------------------------------------------------------------

def test_so9_klein_found_with_b4_gate(ctx):
    g7 = ctx.so9_klein
    assert g7.labels["a"] == "sigma3"
    assert g7.labels["b"] == "sigma2"
    assert g7.labels["ab"] in CLASS_INVARIANTS  # reported, not asserted
    assert g7.provenance["pairs_gated"] >= 1
    s = fixed_subalgebra(ctx.table, [ctx.automorphism(g7.a), ctx.automorphism(g7.b)])
    assert (s.dim, str(identify_type(s))) == (36, "B4")


def test_so9_klein_deterministic(ctx):
    again = find_so9_klein(ctx)
    assert (again.a, again.b) == (ctx.so9_klein.a, ctx.so9_klein.b)


def test_rank3_configuration(ctx, rank3):
    a = ctx.automorphism(rank3.a)
    b = ctx.automorphism(rank3.b)
    theta = ctx.automorphism(rank3.theta)
    assert classify_involution(ctx.table, a) == "sigma3"
    assert classify_involution(ctx.table, b) == "sigma2"
    assert classify_involution(ctx.table, theta) == "sigma2"
    assert classify_involution(ctx.table, compose(b, theta)) == "sigma2"
    s3 = fixed_subalgebra(ctx.table, [a, b, theta])
    assert (s3.dim, str(identify_type(s3))) == (28, "D4")
    s_bt = fixed_subalgebra(ctx.table, [b, theta])
    assert (s_bt.dim, str(identify_type(s_bt))) == (30, "D4+2u(1)")


def test_rank3_deterministic(ctx, rank3):
    again = find_rank3_configuration(ctx)
    assert (again.a, again.b, again.theta) == (rank3.a, rank3.b, rank3.theta)


def test_generic_search_matches_so9_klein(ctx):
    config = search_configuration(ctx, ["sigma3", "sigma2"], "B4", 36)
    assert (config.a, config.b) == (ctx.so9_klein.a, ctx.so9_klein.b)


def test_generic_search_exhausts_impossible_target(ctx):
    from kleinfour.verify import SearchExhausted

    with pytest.raises(SearchExhausted) as exc:
        search_configuration(ctx, ["sigma1", "sigma1"], "E6", 78)
    assert str(exc.value) == (
        "no configuration with classes ['sigma1', 'sigma1'] and fixed type E6 dim 78"
    )


def _exhausted(classes, target):
    return f"no configuration with classes {classes} and fixed type {target}"


# first-found (a, b, theta) or exhaustion message: the benchmark's five search
# calls, then a hit whose theta is the product a*b, so the partial pair already
# has the target dimension (the edge of partial-tuple pruning), then the rank-3
# and so(9) configurations as generic searches
SEARCH_PINS = [
    (["sigma2", "sigma2"], "D4+2u(1)", ("torus:0,0,0,1,0,1", "torus:0,1,1,0,0,0", None)),
    (["sigma3", "sigma1"], "C3+A1", ("omega*torus:0,0,0,0,0,0", "torus:0,0,0,1,0,0", None)),
    (["sigma3", "sigma4"], "B4", _exhausted(["sigma3", "sigma4"], "B4")),
    (["sigma4", "sigma2"], "B4", _exhausted(["sigma4", "sigma2"], "B4")),
    (["sigma3", "sigma2", "sigma1"], "B3", _exhausted(["sigma3", "sigma2", "sigma1"], "B3")),
    (["sigma2", "sigma2", "sigma2"], "D4+2u(1)",
     ("torus:0,0,0,1,0,1", "torus:0,1,1,0,0,0", "torus:0,1,1,1,0,1")),
    (["sigma3", "sigma2", "sigma2"], "D4",
     ("omega*torus:0,0,0,0,0,0", "torus:0,0,1,0,1,0", "torus:1,0,0,0,0,1")),
    (["sigma3", "sigma2"], "B4", ("omega*torus:0,0,0,0,0,0", "torus:0,0,1,0,1,0", None)),
]


@pytest.mark.parametrize("classes, target, expected", SEARCH_PINS)
def test_generic_search_results_pinned(ctx, classes, target, expected):
    from kleinfour.verify import SearchExhausted

    try:
        config = search_configuration(ctx, classes, target)
    except SearchExhausted as exc:
        got = str(exc)
    else:
        got = (config.a, config.b, config.theta)
    assert got == expected


def test_so9_klein_pinned(ctx):
    g = ctx.so9_klein
    assert (g.a, g.b, g.labels, g.provenance["pairs_gated"]) == (
        "omega*torus:0,0,0,0,0,0",
        "torus:0,0,1,0,1,0",
        {"a": "sigma3", "b": "sigma2", "ab": "sigma3"},
        12,
    )


def test_context_uses_the_catalog_it_is_given():
    from kleinfour.realform import load_catalog

    given = load_catalog()
    assert verify.VerifyContext(catalog=given).catalog is given


def test_context_builds_omega_once_for_twists(monkeypatch):
    ctx = verify.VerifyContext()
    parsed = []

    def counting(table, text):
        parsed.append(text)
        return parse_descriptor(table, text)

    monkeypatch.setattr(verify, "parse_descriptor", counting)
    twists = ["omega*torus:0,1,0,0,0,0", "omega*torus:1,0,0,0,0,1", "omega*torus:0,0,0,0,0,0"]
    for d in twists:
        got = ctx.automorphism(d)
        ref = parse_descriptor(ctx.table, d)
        assert (got.descriptor, got.cols, got.order) == (ref.descriptor, ref.cols, ref.order)
    assert parsed.count("omega") == 1
    assert not [t for t in parsed if t.startswith("omega*")]


def test_rank3_pinned(rank3):
    assert (rank3.a, rank3.b, rank3.theta) == (
        "omega*torus:0,0,0,0,0,0",
        "torus:0,0,1,0,1,0",
        "torus:1,0,0,0,0,1",
    )


# -- conjugation invariance (sampled) -------------------------------------------------

def test_classify_invariant_under_weyl_conjugation(ctx):
    e6 = ctx.table
    rng = random.Random(99)
    reps = [
        ("sigma1", torus_involution(e6, (0, 1, 0, 0, 0, 0))),
        ("sigma2", torus_involution(e6, (1, 0, 0, 0, 0, 1))),
        ("sigma3", omega_automorphism(e6)),
        ("sigma4", compose(omega_automorphism(e6), torus_involution(e6, (0, 1, 0, 0, 0, 0)))),
    ]
    lifts = [weyl_lift(e6, i) for i in range(6)]
    checked = 0
    for label, rep in reps:
        for _ in range(5):
            w = lifts[rng.randrange(6)]
            for _ in range(rng.randint(0, 2)):
                w = compose(w, lifts[rng.randrange(6)])
            moved = conjugate(w, rep)
            assert classify_involution(e6, moved) == label
            checked += 1
    assert checked >= 20


# -- scenario reports -------------------------------------------------------------------

def test_all_scenarios_pass(ctx):
    reports = run_all(ctx)
    assert [r.scenario for r in reports] == ["census", "so82", "so81", "holomorphic"]
    for r in reports:
        assert r.passed, r.render_text()


def test_reports_json_schema(ctx):
    reports = [verify_census(ctx)]
    data = json.loads(reports_to_json(reports))
    assert data[0]["scenario"] == "census"
    assert data[0]["passed"] is True
    for step in data[0]["steps"]:
        assert set(step) == {"claim", "computed", "expected", "provenance", "passed"}
        assert step["provenance"] in ("reference", "derived", "structural", "reported")


def test_report_text_rendering(ctx):
    r = verify_holomorphic(ctx)
    text = r.render_text()
    assert text.startswith("[PASS] holomorphic")
    assert "anti-holomorphic" in text
