import hashlib
import json
import random
import re
from itertools import combinations, combinations_with_replacement, islice, product
from pathlib import Path

import pytest

from kleinfour import autos, exactq, verify
from kleinfour.autos import (
    CertificationError,
    certify_batch,
    commutes,
    compose,
    conjugate,
    joint_fixed_dim,
    make_automorphism,
    make_klein,
    omega_automorphism,
    parse_descriptor,
    torus_involution,
    weyl_lift,
)
from kleinfour.identify import ReductiveType, fixed_subalgebra, identify_type, type_dim
from kleinfour.verify import (
    CLASS_INVARIANTS,
    CensusError,
    SearchExhausted,
    VerifyContext,
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
from kleinfour.rootsys import StructureTable
from helpers import diagram_automorphism
from oracles import apply_cols, compose_cols, first_homomorphism_defect, torus_census_buckets


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

    with pytest.raises(ValueError, match="^identity is not a nonidentity involution$"):
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


def _census_batches(ctx, census, monkeypatch):
    """The descriptors of each batch a census on a fresh context certifies."""
    batches = []
    certify = verify.certify_batch

    def recording(table, batch):
        batch = list(batch)
        batches.append([d for _, d in batch])
        return certify(table, batch)

    monkeypatch.setattr(verify, "certify_batch", recording)
    fresh = VerifyContext()
    fresh.__dict__.update(table=ctx.table, cb=ctx.cb)
    assert verify.involution_census(fresh) == census
    return batches


def test_census_certifies_only_the_involutive_twists(ctx, census, monkeypatch):
    """The 48 omega*torus products the census leaves uncertified pass the
    reference certifier and are neither the identity nor an involution; a
    census on a fresh context certifies exactly the 16 it keeps."""
    table = ctx.table
    identity = tuple({j: 1} for j in range(table.dim))
    kept = [r.descriptor for r in census.rows if r.kind == "outer"]
    omega = ctx.automorphism("omega").cols
    dropped = 0
    for bits in product((0, 1), repeat=table.rank):
        if "omega*torus:" + ",".join(map(str, bits)) in kept:
            continue
        cols = compose_cols(omega, torus_involution(table, bits).cols)
        assert first_homomorphism_defect(table, cols) is None, bits
        assert cols != identity and compose_cols(cols, cols) != identity, bits
        dropped += 1
    assert dropped == 48
    assert _census_batches(ctx, census, monkeypatch)[1] == kept


def test_census_certifies_in_one_walk_per_root_map(ctx, census, monkeypatch):
    """omega takes one walk of the certificate; the 64 torus maps share the
    identity img and the 16 kept twists omega's img, so each batch is one
    walk; the 6 Weyl lifts take one walk each."""
    table = ctx.table
    walks = []
    real = StructureTable.root_map_defects
    monkeypatch.setattr(StructureTable, "root_map_defects",
                        lambda self, img, etas: walks.append((img, len(etas))) or real(self, img, etas))
    batches = _census_batches(ctx, census, monkeypatch)
    monkeypatch.undo()
    omega = ctx.automorphism("omega")
    assert walks == [(omega.img, 1), (tuple(range(72)), 64), (omega.img, 16)] + [
        (weyl_lift(table, i).img, 1) for i in range(table.rank)]
    assert len(batches) == 2 and len(batches[1]) == 16
    assert batches[0] == ["torus:" + ",".join(map(str, bits))
                          for bits in product((0, 1), repeat=table.rank)]


def test_census_invariants_recomputed(census):
    for row in census.rows:
        assert (row.fixed_dim, row.fixed_type) == CLASS_INVARIANTS[row.label]


def test_census_type_labels_parse_to_their_dimension(census):
    for row in census.rows:
        assert type_dim(row.fixed_type) == row.fixed_dim


def test_census_rows_match_the_generic_classifier(ctx, census):
    """Every transported row carries the fixed dimension and type of its own
    fixed subalgebra and the class of that invariant pair, and exactly one
    row per class was classified generically."""
    class_of = {inv: label for label, inv in CLASS_INVARIANTS.items()}
    for row in census.rows:
        s = fixed_subalgebra(ctx.table, [row.automorphism])
        ty = str(identify_type(s))
        assert (class_of[(s.dim, ty)], s.dim, ty) == (row.label, row.fixed_dim, row.fixed_type), row
    generic = [r.label for r in census.rows if r.provenance == "generic"]
    assert sorted(generic) == sorted(CLASS_INVARIANTS)


def test_census_provenance_edges_lead_to_a_generic_row(census):
    """Each recorded edge (g, x) is a certified conjugation row = g x g^-1 of
    a row of the same class, and following the edges ends at a generic row."""
    by_desc = {r.descriptor: r for r in census.rows}
    conjugators = {g.descriptor: g for g in census.conjugators}
    for row in census.rows:
        seen = set()
        r = row
        while r.provenance != "generic":
            assert r.descriptor not in seen
            seen.add(r.descriptor)
            g_desc, x_desc = r.provenance
            g, x = conjugators[g_desc], by_desc[x_desc]
            assert compose_cols(r.automorphism.cols, g.cols) == compose_cols(
                g.cols, x.automorphism.cols)
            r = x
        assert r.label == row.label


def _values(census):
    """The value fields of a census: the first six of each row (all but its
    automorphism and provenance) and its own first six (all but its
    conjugators), which a census walked another way must reproduce."""
    return (tuple(r[:6] for r in census.rows),) + census[1:6]


def test_census_without_conjugators_is_all_generic(ctx, census, monkeypatch):
    monkeypatch.setattr(verify, "_conjugators", lambda table, tori: [])
    plain = verify.involution_census(ctx)
    assert all(r.provenance == "generic" for r in plain.rows)
    assert _values(plain) == _values(census)


def _walk_indexes(ctx, monkeypatch):
    """The vector v and the index of the census walk and of the so(9) gate's
    walk, each recorded from its _fingerprint_index call on a fresh run."""
    real = verify._fingerprint_index
    seen = []

    def recording(tuples, vec):
        seen.append((vec, real(tuples, vec)))
        return seen[-1][1]

    monkeypatch.setattr(verify, "_fingerprint_index", recording)
    verify.involution_census(ctx)
    find_so9_klein(ctx)
    monkeypatch.setattr(verify, "_fingerprint_index", real)
    (v, census_index), (v_so9, so9_index) = seen
    assert v_so9 == v
    return v, census_index, so9_index


def test_census_walk_skips_diagonal_conjugations(ctx, census, monkeypatch):
    """A torus row conjugated by a simple torus involution is the row itself,
    so the walk computes 510 keys, one fingerprint each, besides the index's
    one per row."""
    real = verify._fingerprint
    calls = []

    def counting(cols, vec):
        calls.append(1)
        return real(cols, vec)

    monkeypatch.setattr(verify, "_fingerprint", counting)
    again = verify.involution_census(ctx)
    assert again == census
    assert [r.provenance for r in again.rows] == [r.provenance for r in census.rows]
    assert len(calls) == len(census.rows) + 510


def _inverse_of(g):
    """The certified inverse of g, by the root-index rule."""
    return make_automorphism(g.table, autos._inverse((g.img, g.eta)), "inverse")


def test_walk_keys_are_fingerprints_of_the_certified_conjugates(ctx, census, monkeypatch):
    """The key of g x g^-1, read off the columns of g and x and g^-1(v), is
    the fingerprint on v of the certified conjugate, factor by factor: for
    every census row and every gated so(9) pair under each of the 12
    conjugators, and for every key the census and so(9) gate walks look up.
    The conjugates are the root maps autos.conjugate builds, certified in one
    batch per conjugator; g^-1(v) is read off the certified inverse."""
    table = ctx.table
    v, _, _ = _walk_indexes(ctx, monkeypatch)
    rows = [ctx.automorphism(r.descriptor) for r in census.rows]
    assert len(census.conjugators) == 12
    want = {}
    for g in census.conjugators:
        gm = (g.img, g.eta)
        batch = [(autos._compose(gm, autos._compose((x.img, x.eta), autos._inverse(gm))),
                  f"conj({x.descriptor})") for x in rows]
        conj = certify_batch(table, batch)
        for x, y in zip(rows, conj):
            want[g.descriptor, x.descriptor] = verify._fingerprint(y.cols, v)
            assert compose_cols(y.cols, g.cols) == compose_cols(g.cols, x.cols), (g, x)
        for n in (0, -1):  # an inner and an outer row through autos.conjugate itself
            assert conjugate(g, rows[n]) == conj[n]
    tuples = [(x,) for x in rows] + list(_so9_pairs(ctx).values())
    assert len(tuples) == len(rows) + 12
    for g in census.conjugators:
        g_inv_v = _inverse_of(g).apply(v)
        for xs in tuples:
            assert verify._conjugate_key(g, g_inv_v, xs) == tuple(
                want[g.descriptor, x.descriptor] for x in xs), (g, xs)
    real = verify._conjugate_key
    seen = []

    def recording(g, g_inv_vec, xs):
        seen.append((g.descriptor, xs, real(g, g_inv_vec, xs)))
        return seen[-1][2]

    monkeypatch.setattr(verify, "_conjugate_key", recording)
    assert verify.involution_census(ctx) == census
    walked = len(seen)
    assert walked == 510
    find_so9_klein(ctx)
    assert len(seen) > walked and {len(xs) for _, xs, _ in seen[walked:]} == {2}
    for g, xs, key in seen:
        assert key == tuple(want[g, x.descriptor] for x in xs), (g, xs)


def test_walk_fingerprints_decode_to_the_generator_images(ctx, census, monkeypatch):
    """The walk's v weights the 12 generators x_{+-alpha_i} by 1..12, and
    every census row and so(9) factor sends each generator to a signed
    generator, so each coefficient of its fingerprint decodes by magnitude to
    one generator's image: the fingerprint fixes the row.  The census index
    holds one key per row (79) and the so(9) gate's one per gated pair."""
    table = ctx.table
    v, census_index, so9_index = _walk_indexes(ctx, monkeypatch)
    gens = sorted(v, key=v.get)
    assert [v[k] for k in gens] == list(range(1, 13))
    assert set(gens) == {table.rank + k for s in table.rs.simple for k in (s, s + table.rs.npos)}
    pairs = _so9_pairs(ctx).values()
    factors = [r.automorphism for r in census.rows] + [x for pair in pairs for x in pair]
    for a in factors:
        decoded = {gens[abs(c) - 1]: {k: 1 if c > 0 else -1}
                   for k, c in verify._fingerprint(a.cols, v)}
        assert decoded == {k: a.cols[k] for k in gens}, a
    assert len(census_index) == len(census.rows) == 79
    assert len(so9_index) == len(pairs) == ctx.so9_klein.provenance["pairs_gated"]


def test_edge_rule_on_signed_permutations_matches_the_column_products(ctx, census, monkeypatch):
    """The walk's edge rule, y∘g == g∘x read off the pi and signs of x and y,
    agrees with the products of the columns, compared up to the first
    difference, for each of the 12
    conjugators and every census row x: True on the row y that the walk key
    finds, if any, and False on another row with y's pi (another torus row
    for an inner x, another twist for an outer x).  Every factor the walks
    see, each census row and each gated so(9) factor, is a signed
    permutation."""
    pairs = _so9_pairs(ctx).values()
    assert all(r.automorphism.pi is not None for r in census.rows)
    assert all(x.pi is not None for pair in pairs for x in pair)
    rows = [r.automorphism for r in census.rows]
    v, index, _ = _walk_indexes(ctx, monkeypatch)
    same_pi, found = {}, 0
    for a in rows:
        same_pi.setdefault(a.pi[0], []).append(a)
    for g in census.conjugators:
        g_inv_v = _inverse_of(g).apply(v)
        for x in rows:
            m = index.get(verify._conjugate_key(g, g_inv_v, (x,)))
            if m is None:  # g x g^-1 is no census row
                continue
            found += 1
            y = rows[m]
            z = next(a for a in same_pi[y.pi[0]] if a is not y)
            for other, want in ((y, True), (z, False)):
                assert verify._conjugates(other.pi, g.cols, x.pi) is want, (g, x, other)
                assert all(apply_cols(other.cols, a) == apply_cols(g.cols, b)
                           for a, b in zip(g.cols, x.cols)) is want
    assert found == 79 * 12 - 64  # 64 Weyl conjugates of twists are no census row


def test_walk_provenance_is_pinned(ctx, census):
    """The walk's edges, which verify all never prints: every census row's
    provenance and the so(9) gate's pair provenance, in order, hash to pinned
    values, so a change of key, conjugators or walk order that moves any edge
    fails here."""
    rows = [(r.descriptor, r.provenance) for r in census.rows]
    pairs = list(ctx.so9_klein.provenance["pairs"].items())
    digest = lambda x: hashlib.sha256(repr(x).encode()).hexdigest()
    assert (len(rows), digest(rows)) == (
        79, "caa86ec1bcb681d38e1a36a56f61f6313f92288bf21473485c127f3afb9feb6c")
    assert (len(pairs), digest(pairs)) == (
        12, "27d7fbd89758b4540d36ca1f333c82f7041f6c4dd569cfe8d62734059135642e")


def test_census_rejects_a_fingerprint_hit_that_fails_column_equality(ctx, census, monkeypatch):
    """A sigma1 row's fingerprint pointed at a sigma2 row: the walk finds the
    sigma2 row, its column equality fails, and no edge is taken."""
    rows = census.rows
    start = [n for n, r in enumerate(rows) if r.provenance == "generic"]
    assert rows[start[0]].label == "sigma1"
    y = next(n for n, r in enumerate(rows) if r.label == "sigma1" and n not in start)
    z = next(n for n, r in enumerate(rows) if r.label == "sigma2" and n not in start)
    real_index = verify._fingerprint_index
    hits = []

    class Spy(dict):
        def get(self, key, default=None):
            if super().get(key) == z and key != z_key:
                hits.append(key)
            return super().get(key, default)

    def poisoned(autos, vec):
        nonlocal z_key
        index = Spy(real_index(autos, vec))
        z_key = next(k for k, n in index.items() if n == z)
        index[next(k for k, n in index.items() if n == y)] = z
        return index

    z_key = None
    monkeypatch.setattr(verify, "_fingerprint_index", poisoned)
    got = verify.involution_census(ctx)
    assert hits  # the walk looked up y's fingerprint and found z
    assert _values(got) == _values(census)  # z was not labelled sigma1 through that hit
    # y is unreachable by fingerprint, so it starts an orbit of its own
    assert got.rows[y].provenance == "generic"
    by_desc = {r.descriptor: r for r in got.rows}
    if got.rows[z].provenance != "generic":
        assert by_desc[got.rows[z].provenance[1]].label == "sigma2"


def test_census_error_names_an_involution_that_matches_no_class(ctx, census, monkeypatch):
    """Without sigma4 in the catalogue, the first sigma4 row (an orbit
    representative, so classified generically) falsifies the census."""
    first = next(r.descriptor for r in census.rows if r.label == "sigma4")
    monkeypatch.delitem(verify.CLASS_INVARIANTS, "sigma4")
    with pytest.raises(CensusError, match=re.escape(
            f"involution {first} has invariants (36, 'C4'), matching no known class")):
        verify.involution_census(ctx)


def test_certify_raises_the_first_failure_of_a_batch(ctx):
    """autos.certify_batch on an intact member and then two corrupted ones
    raises the first corrupted member's error; the intact member alone
    certifies."""
    table = ctx.table

    def flipped(bits, k, descriptor):
        (img, eta), _ = autos.torus_columns(table, bits)
        eta = list(eta)
        eta[k] = -eta[k]
        return (img, eta), descriptor

    good = autos.torus_columns(table, (1, 0, 0, 0, 0, 0))
    bad = [flipped((0, 1, 0, 0, 0, 0), 0, "bad:1"), flipped((0, 0, 1, 0, 0, 0), 5, "bad:2")]
    messages = []
    for root_map, descriptor in bad:
        with pytest.raises(CertificationError) as exc:
            autos.make_automorphism(table, root_map, descriptor)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    with pytest.raises(CertificationError) as exc:
        autos.certify_batch(table, [good] + bad)
    assert str(exc.value) == messages[0]
    assert [a.descriptor for a in autos.certify_batch(table, [good])] == [good[1]]


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
    for autos, dim in tuples:
        descs = [a.descriptor for a in autos]
        assert [label_of[d] for d in descs] == labels
        assert len(set(descs)) == len(descs)
        assert all(commutes(x, y) for x, y in combinations(autos, 2))
        assert dim == joint_fixed_dim(autos) == fixed_subalgebra(ctx.table, autos).dim, descs


@pytest.mark.parametrize("labels, count", [(["sigma3", "sigma2", "sigma1"], 144),
                                           (["sigma2", "sigma2", "sigma2"], 2925),
                                           (["sigma2", "sigma3", "sigma4"], 144),
                                           (["sigma3", "sigma4", "sigma4"], 264)],
                         ids=["sigma3,sigma2,sigma1", "sigma2,sigma2,sigma2",
                              "sigma2,sigma3,sigma4", "sigma3,sigma4,sigma4"])
def test_enumerator_dims_match_column_character_sums(ctx, labels, count):
    """The whole enumeration at floor 0: each tuple's dim is the character sum
    computed from scratch on the columns, so a prefix state left stale by
    backtracking would show.  The class orders take each mask rule at each
    level: diagonal generators after a twist, twists after a diagonal one
    (the last composing with a product of twists), and twists alone.  Pair
    products are kept by identity only to keep the test short; each is a
    column-path product."""
    pair_traces, pair_prods = {}, {}
    product_trace = lambda a, b: sum(v * a[k].get(j, 0) for j, col in enumerate(b)
                                     for k, v in col.items())

    def pair(a, b):
        key = (id(a), id(b))
        if key not in pair_prods:
            pair_prods[key] = compose_cols(a.cols, b.cols)
            pair_traces[key] = product_trace(a.cols, b.cols)
        return key

    seen = 0
    for (a, b, c), dim in verify._commuting_tuples(ctx, labels, 0):
        total = ctx.table.dim + sum(sum(col.get(j, 0) for j, col in enumerate(x.cols))
                                    for x in (a, b, c))
        total += sum(pair_traces[pair(x, y)] for x, y in ((a, b), (a, c), (b, c)))
        total += product_trace(pair_prods[pair(a, b)], c.cols)
        assert total == 8 * dim, (a, b, c)
        seen += 1
    assert seen == count


@pytest.mark.parametrize("labels", [["sigma2", "sigma2"], ["sigma3", "sigma2", "sigma2"],
                                    ["sigma4", "sigma4", "sigma2"]], ids=",".join)
def test_enumerator_yields_each_commuting_set_once(ctx, labels):
    """Equal consecutive classes take increasing census positions: the sets
    yielded are exactly the sets of distinct pairwise commuting census rows
    of those classes, and none is yielded twice."""
    pools = [[r.automorphism for r in ctx.census.rows if r.label == lab] for lab in labels]
    sets = {frozenset(a.descriptor for a in t) for t in product(*pools)
            if len(set(map(id, t))) == len(t) and all(commutes(x, y) for x, y in combinations(t, 2))}
    yielded = [frozenset(a.descriptor for a in t)
               for t, _ in verify._commuting_tuples(ctx, labels, 0)]
    assert len(yielded) == len(set(yielded)) == len(sets)
    assert set(yielded) == sets


def test_so9_klein_character_mismatch_raises(ctx, census, monkeypatch):
    # the census fixture builds the shared census before the patch, so its
    # cached trace-identity rows never see the fake dimension
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


def test_so9_klein_exhausted_without_sigma3_rows(ctx, census, monkeypatch):
    rows = tuple(r for r in census.rows if r.label != "sigma3")
    monkeypatch.setitem(ctx.__dict__, "census", census._replace(rows=rows))
    with pytest.raises(SearchExhausted, match=r"^no commuting \(sigma3, sigma2\) pair found$"):
        find_so9_klein(ctx)


def test_every_gated_so9_pair_is_a_klein_pair(ctx, census):
    """find_so9_klein calls make_klein on its first pair only: every pair it
    gates passes the axioms, and each product is an involution of the census."""
    pairs = _so9_pairs(ctx).values()
    assert len(pairs) == ctx.so9_klein.provenance["pairs_gated"] == 12
    for a, b in pairs:
        ab = make_klein(a, b)
        assert ab.order == 2 and ab in ctx.census_labels


def test_so9_klein_deterministic(ctx):
    again = find_so9_klein(ctx)
    assert (again.a, again.b) == (ctx.so9_klein.a, ctx.so9_klein.b)


def _so9_pairs(ctx):
    """Descriptor pair -> automorphism pair of every gated (sigma3, sigma2) pair."""
    return {(a.descriptor, b.descriptor): (a, b)
            for (a, b), _ in verify._commuting_tuples(ctx, ["sigma3", "sigma2"], 0)}


def _so9_roots(how):
    """The generically classified pair that each pair's edges lead back to."""
    by_joined = {",".join(d): d for d in how}
    roots = {}
    for d in how:
        r, seen = d, set()
        while how[r] != "generic":
            assert r not in seen
            seen.add(r)
            r = by_joined[how[r][1]]
        roots[d] = r
    return roots


def _check_so9_edges(ctx, how):
    """Each recorded edge (g, x) of a pair y is y_i∘g == g∘x_i on both factors."""
    pairs = _so9_pairs(ctx)
    assert list(how) == list(pairs)
    by_joined = {",".join(d): d for d in pairs}
    lifts = {f"weyl:{i + 1}": weyl_lift(ctx.table, i) for i in range(ctx.table.rank)}
    for d, edge in how.items():
        if edge != "generic":
            g = lifts.get(edge[0]) or ctx.automorphism(edge[0])
            for y, x in zip(pairs[d], pairs[by_joined[edge[1]]]):
                assert compose_cols(y.cols, g.cols) == compose_cols(g.cols, x.cols), d


def test_so9_pairs_match_the_generic_classifier(ctx):
    """Every gated pair's fixed subalgebra is B4 of dimension 36, as the census
    rows are checked against _classify; every recorded edge is a certified
    simultaneous conjugation, and the edges lead to one of exactly three
    generically classified pairs."""
    how = ctx.so9_klein.provenance["pairs"]
    assert len(how) == ctx.so9_klein.provenance["pairs_gated"] == 12
    for d, (a, b) in _so9_pairs(ctx).items():
        s = fixed_subalgebra(ctx.table, [a, b])
        assert (s.dim, str(identify_type(s))) == (36, "B4"), d
    _check_so9_edges(ctx, how)
    roots = _so9_roots(how)
    assert sorted(set(roots.values())) == sorted(d for d in how if how[d] == "generic")
    assert len(set(roots.values())) == 3


def test_so9_klein_without_conjugators_is_all_generic(ctx, census, monkeypatch):
    g = ctx.so9_klein
    monkeypatch.setitem(ctx.__dict__, "census", census._replace(conjugators=()))
    plain = find_so9_klein(ctx)
    how = plain.provenance["pairs"]
    assert len(how) == 12 and set(how.values()) == {"generic"}
    assert (plain.a, plain.b, plain.labels, plain.provenance["pairs_gated"]) == (
        g.a, g.b, g.labels, g.provenance["pairs_gated"])


@pytest.mark.parametrize("shared", [0, 1], ids=["same-a", "same-b"])
def test_so9_gate_rejects_a_fingerprint_hit_that_fails_column_equality(ctx, monkeypatch, shared):
    """A pair y, labelled from the first representative, has its fingerprint
    pointed at a pair z that shares one factor with y and is still unlabelled
    when y is looked up: the walk finds z, the column equality fails on the
    other factor, and no edge is taken."""
    g = ctx.so9_klein
    how = g.provenance["pairs"]
    roots = _so9_roots(how)
    keys = list(how)

    def from_first(n):
        return n == 0 or how[keys[n]] != "generic" and how[keys[n]][1] == ",".join(keys[0])

    y, z = next((m, n) for m, n in product(range(1, len(keys)), repeat=2)
                if from_first(m) and not from_first(n) and keys[n][shared] == keys[m][shared])
    real_index = verify._fingerprint_index
    real_equal = verify._conjugates
    hits, equalities = [], []

    class Spy(dict):
        def get(self, key, default=None):
            if super().get(key) == z and key != z_key:
                hits.append(key)
            return super().get(key, default)

    def poisoned(tuples, vec):
        nonlocal z_key
        index = Spy(real_index(tuples, vec))
        z_key = next(k for k, n in index.items() if n == z)
        index[next(k for k, n in index.items() if n == y)] = z
        return index

    def recording(y, g, x):
        equalities.append(real_equal(y, g, x))
        return equalities[-1]

    z_key = None
    monkeypatch.setattr(verify, "_fingerprint_index", poisoned)
    monkeypatch.setattr(verify, "_conjugates", recording)
    got = find_so9_klein(ctx)
    assert hits  # the walk looked up y's fingerprint and found z
    assert False in equalities  # z failed the column equality
    assert (got.a, got.b, got.labels, got.provenance["pairs_gated"]) == (
        g.a, g.b, g.labels, g.provenance["pairs_gated"])
    got_how = got.provenance["pairs"]
    # y is unreachable by fingerprint, so it starts an orbit of its own; every
    # edge taken is certified and stays inside its orbit
    assert got_how[keys[y]] == "generic"
    _check_so9_edges(ctx, got_how)
    for d, r in _so9_roots(got_how).items():
        assert roots[d] == roots[r], d


def test_so9_klein_falsified_when_an_orbit_representative_is_not_b4(ctx, census, monkeypatch):
    """The second orbit representative identified as C4: the gate raises
    SearchExhausted naming that pair."""
    how = ctx.so9_klein.provenance["pairs"]
    da, db = [d for d, v in how.items() if v == "generic"][1]
    real = verify.identify_type
    calls = []

    def fake(s):
        calls.append(s)
        return ReductiveType.make([("C", 4)], 0) if len(calls) == 2 else real(s)

    monkeypatch.setattr(verify, "identify_type", fake)
    with pytest.raises(SearchExhausted, match=re.escape(
            f"pair ({da}, {db}) has fixed type C4 dim 36; the unique-class claim is falsified")):
        find_so9_klein(ctx)
    assert len(calls) == 3  # one per orbit representative


def test_so9_klein_falsified_when_a_labelled_pair_has_another_character_dim(ctx, census,
                                                                            monkeypatch):
    """An edge-labelled pair is never classified, so its character dimension
    is checked on its own: reported as 35, the gate names that pair."""
    how = ctx.so9_klein.provenance["pairs"]
    da, db = next(d for d, v in how.items() if v != "generic")
    real = verify._commuting_tuples

    def shifted(*args):
        for gens, dim in real(*args):
            yield gens, dim - 1 if tuple(a.descriptor for a in gens) == (da, db) else dim

    monkeypatch.setattr(verify, "_commuting_tuples", shifted)
    with pytest.raises(SearchExhausted, match=re.escape(
            f"pair ({da}, {db}) has fixed type B4 dim 35; the unique-class claim is falsified")):
        find_so9_klein(ctx)


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
    config = search_configuration(ctx, ["sigma3", "sigma2"], "B4")
    assert (config.a, config.b) == (ctx.so9_klein.a, ctx.so9_klein.b)


def test_generic_search_exhausts_impossible_target(ctx):
    from kleinfour.verify import SearchExhausted

    with pytest.raises(SearchExhausted) as exc:
        search_configuration(ctx, ["sigma1", "sigma1"], "E6")
    assert str(exc.value) == "no configuration with classes ['sigma1', 'sigma1'] and fixed type E6"


def _exhausted(classes, target):
    return f"no configuration with classes {classes} and fixed type {target}"


# first-found (a, b, theta) or exhaustion message: the benchmark's five search
# calls, then a hit whose theta is the product a*b, so the partial pair already
# has the target dimension (the edge of partial-tuple pruning), then the rank-3
# and so(9) configurations as generic searches, then two deep exhaustions (an
# all-torus one and one with an outer generator last)
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
    (["sigma2", "sigma2", "sigma2"], "B3", _exhausted(["sigma2", "sigma2", "sigma2"], "B3")),
    (["sigma1", "sigma2", "sigma4"], "B3", _exhausted(["sigma1", "sigma2", "sigma4"], "B3")),
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


SEARCH_MENU = [(classes, target) for classes, target, _ in SEARCH_PINS[:5]]


def _enumeration_oracle(ctx, labels, floor):
    """(descriptors, dim) of every tuple the enumerator must yield, in order:
    itertools.product over the census pools in census order, keeping rows
    that are distinct and pairwise commuting, with increasing positions
    within equal consecutive classes, and dropping a tuple when a proper
    prefix has character dimension below floor."""
    pools = [[r for r in ctx.census.rows if r.label == lab] for lab in labels]
    dims = {}

    def dim(rows):
        key = tuple(map(id, rows))
        if key not in dims:
            dims[key] = joint_fixed_dim([r.automorphism for r in rows])
        return dims[key]

    out = []
    for idx in product(*(range(len(p)) for p in pools)):
        rows = [p[i] for p, i in zip(pools, idx)]
        if any(labels[k] == labels[k + 1] and idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
            continue
        if len(set(map(id, rows))) < len(rows) or not all(
                commutes(x.automorphism, y.automorphism) for x, y in combinations(rows, 2)):
            continue
        if any(dim(rows[:k]) < floor for k in range(1, len(rows))):
            continue
        out.append(([r.descriptor for r in rows], dim(rows)))
    return out


@pytest.mark.parametrize("labels, floor", [
    *[(labels, 0) for labels, _ in SEARCH_MENU],
    *[(labels, type_dim(target)) for labels, target in SEARCH_MENU],
    (["sigma3", "sigma2", "sigma2"], 0), (["sigma3", "sigma2", "sigma2"], type_dim("D4")),
    (["sigma4", "sigma4", "sigma2"], 0),
    # sigma4 pairs fix 16 or 20 dimensions, so floor 20 prunes some prefixes
    (["sigma4", "sigma4", "sigma2"], 20),
    # a class repeated after another: x must leave the later sigma2 list
    (["sigma2", "sigma4", "sigma2"], 0),
], ids=lambda v: ",".join(v) if isinstance(v, list) else str(v))
def test_enumerator_yields_the_oracle_sequence_in_order(ctx, labels, floor):
    """First match in census order wins, so the order is part of the contract:
    the enumerator yields exactly the oracle's sequence of census rows and
    dims, as the rows' certified automorphisms."""
    by_desc = {r.descriptor: r.automorphism for r in ctx.census.rows}
    got = []
    for autos, dim in verify._commuting_tuples(ctx, labels, floor):
        descs = [a.descriptor for a in autos]
        assert all(a is by_desc[d] for d, a in zip(descs, autos))
        got.append((descs, dim))
    assert got == _enumeration_oracle(ctx, labels, floor)


@pytest.mark.parametrize("labels, target, calls",
                         [(*menu, calls) for menu, calls in zip(SEARCH_MENU, (26, 36, 48, 324, 396))],
                         ids=lambda v: ",".join(v) if isinstance(v, list) else str(v))
def test_search_tests_each_commutation_once_per_chosen_generator(ctx, monkeypatch, labels, target,
                                                                   calls):
    # a work pin: choosing x filters each later list by x once per prefix
    # that ends in x, whole, before the first candidate is extended.  The
    # exhaustion tests the 27 sigma2 and 36 sigma1 rows against each of the 4
    # sigma3 rows, and the 36 commuting (sigma2, sigma1) pairs once under
    # each: 108 + 144 + 144 = 396, where re-testing every candidate against
    # every chosen generator at each prefix makes 684.  An early hit pays for
    # the whole later list of each generator it chose: the first sigma2 is
    # tested against the 26 after it, and the first sigma3 against the 36
    # sigma1 rows.
    ctx.census
    seen = []
    real = verify.commutes
    monkeypatch.setattr(verify, "commutes", lambda a, b: seen.append((a, b)) or real(a, b))
    try:
        search_configuration(ctx, labels, target)
    except SearchExhausted:
        pass
    assert len(seen) == calls


def test_b3_exhaustion_flips_signs_and_keeps_no_last_level_product(ctx, monkeypatch):
    """A work pin: in the (sigma3, sigma2, sigma1) -> B3 exhaustion every
    generator after the first is diagonal, so no product is composed, by
    root maps or by masks, and none of the 144 last-level character sums
    keeps a product."""
    ctx.census
    composed, kept = [], []
    for name in ("_compose", "_mask_compose"):
        real = getattr(autos, name)
        monkeypatch.setattr(autos, name, lambda *args, _real=real, _name=name:
                            composed.append(_name) or _real(*args))
    real_add = verify.add_generator

    def counting(*args):
        more = real_add(*args)
        if len(more.gens) == 3:
            kept.append(len(more.prods))
        return more

    monkeypatch.setattr(verify, "add_generator", counting)
    with pytest.raises(SearchExhausted):
        search_configuration(ctx, ["sigma3", "sigma2", "sigma1"], "B3")
    assert composed == []
    assert kept == [0] * 144


def test_census_searches_compose_no_columns(ctx, census, monkeypatch):
    """Searches over census rows run on root maps and masks: no column is
    applied, for every pinned search, all-torus or with an outer generator,
    and a Weyl lift commutes with an outer row by root maps too.  The
    counter is live: applying an automorphism applies its columns."""
    from kleinfour.verify import SearchExhausted

    lift = weyl_lift(ctx.table, 0)
    outer = next(r.automorphism for r in census.rows if r.kind == "outer")
    calls = []
    real = autos._apply_cols
    monkeypatch.setattr(autos, "_apply_cols", lambda *args: calls.append(1) or real(*args))
    for classes, target, _ in SEARCH_PINS:
        try:
            search_configuration(ctx, classes, target)
        except SearchExhausted:
            pass
    commutes(lift, outer)
    assert calls == []
    outer.apply({0: 1})
    assert calls == [1]


def test_so9_klein_pinned(ctx):
    g = ctx.so9_klein
    assert (g.a, g.b, g.labels, g.provenance["pairs_gated"]) == (
        "omega*torus:0,0,0,0,0,0",
        "torus:0,0,1,0,1,0",
        {"a": "sigma3", "b": "sigma2", "ab": "sigma3"},
        12,
    )


def test_context_twists_are_omega_after_their_torus_factor(ctx):
    """Each twist parsed on the context's table is omega∘t, omega the diagram
    automorphism of E6's one nontrivial diagram symmetry."""
    (perm,) = [p for p in autos.diagram_symmetries(ctx.table.rs.cartan) if p != tuple(range(6))]
    omega = diagram_automorphism(ctx.table, perm).cols
    twists = ["omega*torus:0,1,0,0,0,0", "omega*torus:1,0,0,0,0,1", "omega*torus:0,0,0,0,0,0"]
    got = [ctx.automorphism(d) for d in twists]
    for d, a in zip(twists, got):
        bits = [int(c) for c in d[len("omega*torus:"):].split(",")]
        assert (a.descriptor, a.order) == (d, 2)
        assert a.cols == compose_cols(omega, torus_involution(ctx.table, bits).cols)


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


def test_verify_all_matches_golden(ctx):
    """`kleinfour verify all` output, text and JSON, byte for byte."""
    golden = Path(__file__).resolve().parent.parent / "golden"
    reports = run_all(ctx)
    text = "".join(r.render_text() + "\n" for r in reports)
    assert text == (golden / "verify_all.txt").read_text(encoding="utf-8")
    assert reports_to_json(reports) + "\n" == (golden / "verify_all.json").read_text(encoding="utf-8")


def test_cold_verify_all_eliminations_are_pinned(monkeypatch):
    """A cold verify all runs exactly 44 eliminations (exactq._echelon), 9 of
    them through exactq.kernel, all for center_of; each of its 6 splits
    eliminates p_C only.  Fixed spaces of signed permutations are read off
    orbits; a change that sends them back to the stacked kernel, or adds
    eliminations elsewhere, moves these counts."""
    counts = {"_echelon": 0, "kernel": 0}

    def counting(name):
        real = getattr(exactq, name)

        def wrapped(*args):
            counts[name] += 1
            return real(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(exactq, name, counting(name))
    run_all(VerifyContext())
    assert counts == {"_echelon": 44, "kernel": 9}


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


# -- classes and fixed types the scenarios read ------------------------------------

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def _claims(report):
    return {s.claim: s for s in report.steps}


def test_census_labels_match_the_generic_classifier(ctx, rank3):
    """Every class so82, so81 and the so(9) gate read from the census index
    equals the generic route, classify_involution."""
    a, b, theta = (ctx.automorphism(d) for d in (rank3.a, rank3.b, rank3.theta))
    so9 = ctx.so9_klein
    ab = make_klein(ctx.automorphism(so9.a), ctx.automorphism(so9.b))
    for x in (a, b, theta, compose(b, theta), ab):
        assert ctx.census_labels.get(x) == classify_involution(ctx.table, x), x.descriptor
    assert so9.labels["ab"] == classify_involution(ctx.table, ab)


def test_so81_fixed_types_match_fixed_subalgebra(ctx, rank3):
    """The <a,b> and <a,b,theta> steps read from so81's real-form split equal
    fixed_subalgebra + identify_type on those generators."""
    a, b, theta = (ctx.automorphism(d) for d in (rank3.a, rank3.b, rank3.theta))
    steps = _claims(verify_so81_klein_pair(ctx))
    for name, gens in (("<a,b>", [a, b]), ("<a,b,theta>", [a, b, theta])):
        s = fixed_subalgebra(ctx.table, gens)
        assert (steps[f"{name} fixed dim"].computed, steps[f"{name} fixed type"].computed) == (
            s.dim, str(identify_type(s))), name


def test_census_rows_carry_the_context_automorphisms(ctx, census):
    for row in census.rows:
        assert row.automorphism.cols == ctx.automorphism(row.descriptor).cols, row.descriptor


@pytest.mark.parametrize("name", ["rank3", "so9_klein"])
def test_configurations_carry_the_automorphisms_they_name(ctx, name):
    cfg = getattr(ctx, name)
    names = (cfg.a, cfg.b) if cfg.theta is None else (cfg.a, cfg.b, cfg.theta)
    assert tuple(x.descriptor for x in cfg.automorphisms) == names


def test_census_labels_match_by_columns_not_by_name(ctx, rank3):
    labels = ctx.census_labels
    assert len(labels) == len(ctx.census.rows)
    # a fresh parse of a row is a different object with the same columns
    assert labels.get(parse_descriptor(ctx.table, rank3.b)) == "sigma2"
    weyl = weyl_lift(ctx.table, 0)
    assert labels.get(weyl) is None
    # a certified non-row automorphism named like a row is still no row
    assert labels.get(make_automorphism(ctx.table, (weyl.img, weyl.eta), rank3.b)) is None


def test_so82_reads_the_class_of_b_from_the_census(ctx, census, rank3, monkeypatch):
    """b's census row relabelled: the b class step shows the census's label and fails."""
    rows = tuple(r._replace(label="sigma1") if r.descriptor == rank3.b else r
                 for r in census.rows)
    monkeypatch.setitem(ctx.__dict__, "census", census._replace(rows=rows))
    monkeypatch.delitem(ctx.__dict__, "census_labels", raising=False)
    report = verify_so82_fixed_form(ctx)
    steps = _claims(report)
    assert (steps["b class"].computed, steps["b class"].passed) == ("sigma1", False)
    assert steps["theta class"].passed and not report.passed


def test_scenario_steps_fail_on_a_census_miss(ctx, rank3, monkeypatch):
    """An empty index: every class step of so82 and so81 shows None and fails
    (the so(9) gate, built first, is not rerun)."""
    ctx.so9_klein
    monkeypatch.setitem(ctx.__dict__, "census_labels", {})
    for report in (verify_so82_fixed_form(ctx), verify_so81_klein_pair(ctx)):
        missed = [s for s in report.steps if s.claim.endswith(" class") and s.expected]
        assert len(missed) == 3 and all(s.computed is None and not s.passed for s in missed)


def test_so9_klein_raises_when_its_product_is_no_census_row(ctx, census, monkeypatch):
    so9 = ctx.so9_klein
    ab = make_klein(ctx.automorphism(so9.a), ctx.automorphism(so9.b))
    index = {x: lab for x, lab in ctx.census_labels.items() if x != ab}
    assert len(index) == len(ctx.census_labels) - 1
    monkeypatch.setitem(ctx.__dict__, "census_labels", index)
    with pytest.raises(CensusError, match=re.escape(f"product {ab.descriptor} of the first pair")):
        find_so9_klein(ctx)


@pytest.mark.parametrize("name", list(verify.SCENARIOS))
def test_each_scenario_alone_renders_its_golden_block(name):
    """Each scenario on a fresh context prints exactly its block of
    `verify all`, text and JSON."""
    text = (GOLDEN / "verify_all.txt").read_text(encoding="utf-8")
    block = re.search(rf"^\[PASS\] {re.escape(name)}\n(?:  .*\n)*", text, re.M).group(0)
    report = verify.SCENARIOS[name](VerifyContext())
    assert report.render_text() + "\n" == block
    golden_json = json.loads((GOLDEN / "verify_all.json").read_text(encoding="utf-8"))
    assert [report.to_jsonable()] == [r for r in golden_json if r["scenario"] == name]
