"""Involution census, configuration searches, and verification scenarios.

A conjugacy class of involutions is recognized by computed invariants: the
pair (fixed-space dimension, fixed-point type).  The four classes in scope:

    sigma1 <-> (38, A5+A1)      sigma2 <-> (46, D5+u(1))
    sigma3 <-> (52, F4)         sigma4 <-> (36, C4)

The four dimensions are distinct, but the type is matched as well, as a
certificate that the invariant pair is one of the catalogued ones.  The census
checks the invariant pair on one representative per conjugacy orbit only, and
reads it from the representative's real-form split (cartan_decomposition):
Fix(theta) is the split's k part, and the split also names the real form.
Every other involution y is certified conjugate to a classified one x,
y = g x g^-1 with g a certified Weyl lift or simple torus involution, by the
column equality y∘g == g∘x alone, and takes x's class; y is looked up by its
image of a weighted sum of the generators.  Both read x and y by their
certified pi and signs: column j of g∘x is s_x(j) g_{pi_x(j)}, a column of g,
and y∘g moves g's entries by pi_y.  Each row's dimension is checked against
its trace.  The so(9) Klein gate walks its pairs alike, on both factors
(_label_by_conjugacy).  Scenarios look each involution's class up by
columns in the census (VerifyContext.census_labels) and never reclassify.

Searches run over the census: the full torus 2-group (63 nonzero classes) and
the 64 twisted products omega*torus(c), keeping the twists that square to the
identity.  One enumerator (_commuting_tuples) walks the pairwise commuting
tuples of distinct census involutions, one per requested class, depth first in
census order, so identical inputs find identical first configurations.  Each
level carries, for every later class, the census rows still eligible
(distinct from every chosen generator and commuting with each); choosing a
generator filters those lists by it once, so a commutation is tested once per
chosen generator and prefix, not again for every deeper candidate.

Both per-tuple gates are exact and need no elimination: commutation
(autos.commutes, by root maps on census rows, by diag flags on two torus
rows) and the character dimension (autos.joint_fixed_dim).  For pairwise
commuting involutions g_1..g_k the joint fixed space has dimension
2^-k * sum over subsets S of tr(prod of S), and the enumerator keeps each
prefix's sum (autos.add_generator), whose products are bitsets: a torus
row, diagonal, flips their signs by one XOR each.  Fixed
spaces only shrink as generators are added, so a partial tuple whose
character dimension is below its floor (the target dimension of a search)
is not extended, and a tuple whose character dimension differs from the
target never reaches fixed_subalgebra and identify_type.  This is exact:
identify_type's dimension accounting ties the printed type to the
subalgebra's dimension, so such a tuple could never have matched.  A tuple
that passes still goes through the full closure check and identification,
and its fixed subalgebra must have exactly the character dimension.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .autos import (
    Automorphism,
    CertificationError,
    Cols,
    CharacterSum,
    Pi,
    _apply_cols,
    _compose,
    add_generator,
    certify_batch,
    commutes,
    compose,
    joint_fixed_dim,
    make_klein,
    parse_descriptor,
    torus_columns,
    weyl_lift,
)
from .identify import Subalgebra, fixed_subalgebra, identify_type, type_dim
from .realform import cartan_decomposition, compact_form, holomorphic_flags, real_fixed_subalgebra
from .rootsys import build_root_system, cartan_matrix, chevalley_table

CLASS_INVARIANTS: Dict[str, Tuple[int, str]] = {
    "sigma1": (38, "A5+A1"),
    "sigma2": (46, "D5+u(1)"),
    "sigma3": (52, "F4"),
    "sigma4": (36, "C4"),
}


class CensusError(Exception):
    """An involution failed to match any catalogued class (falsification)."""


class SearchExhausted(Exception):
    """A configuration search ran out of candidates (falsification)."""


def _class_label(auto: Automorphism, dim: int, ty: str) -> str:
    """The class whose invariant pair is (dim, ty); CensusError if none is."""
    for label, inv in CLASS_INVARIANTS.items():
        if inv == (dim, ty):
            return label
    raise CensusError(
        f"involution {auto.descriptor} has invariants {(dim, ty)}, matching no known class"
    )


def classify_involution(table, auto: Automorphism) -> str:
    """Class label of a nonidentity involution, from its (fixed dim, fixed type) pair."""
    if not auto.is_involution():
        raise ValueError(f"{auto.descriptor} is not a nonidentity involution")
    s = fixed_subalgebra(table, [auto])
    return _class_label(auto, s.dim, str(identify_type(s)))


def check_class_labels(class_labels: Sequence[str]) -> None:
    """Reject a generator class list that search_configuration cannot run."""
    if len(class_labels) not in (2, 3):
        raise ValueError(f"search needs 2 or 3 generator classes, got {len(class_labels)}")
    for lab in class_labels:
        if lab not in CLASS_INVARIANTS:
            raise ValueError(
                f"unknown class label {lab!r}; known: {', '.join(CLASS_INVARIANTS)}"
            )


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

class CensusRow(NamedTuple):
    descriptor: str
    kind: str  # "inner" | "outer"
    fixed_dim: int
    fixed_type: str
    label: str
    trace_identity_ok: bool
    automorphism: Automorphism
    # how the row was labelled: "generic" (classified from its real-form split), or
    # (g, x): conjugate by g of the census row with descriptor x, certified
    # by row∘g == g∘x
    provenance: Union[str, Tuple[str, str]] = "generic"


class Census(NamedTuple):
    rows: Tuple[CensusRow, ...]
    inner_counts: Dict[str, int]
    outer_counts: Dict[str, int]
    realform_names: Dict[str, str]
    twist_candidates: int
    twist_involutions: int
    # the certified g the census walked with; the so(9) gate reuses them
    conjugators: Sequence[Automorphism] = ()


def _conjugators(table, tori: Sequence[Automorphism]) -> Tuple[Automorphism, ...]:
    """Certified inner automorphisms the census conjugates by.

    The Weyl lifts of the simple reflections and the simple torus involutions,
    read from tori, the census's batch of all torus involutions in bit order
    (bit i alone set is entry 2^(rank-1-i)).
    """
    rank = table.rank
    gens = [weyl_lift(table, i) for i in range(rank)]
    return tuple(gens + [tori[2 ** (rank - 1 - i)] for i in range(rank)])


def _fingerprint(cols, vec: dict) -> tuple:
    """The image of the sparse vector vec under cols, hashable."""
    return tuple(sorted(_apply_cols(cols, vec).items()))


def _fingerprint_index(tuples, vec: dict) -> Dict[tuple, int]:
    """Position of each tuple, keyed by its factors' fingerprints on vec."""
    return {tuple(_fingerprint(a.cols, vec) for a in t): n for n, t in enumerate(tuples)}


def _conjugate_key(g: Automorphism, g_inv_vec: dict, xs) -> tuple:
    """_fingerprint_index's key of (g x_i g^-1), read off g, x_i's pi and signs and g^-1(vec)."""
    return tuple(_fingerprint(g.cols, {pi[k]: signs[k] * c for k, c in g_inv_vec.items()})
                 for pi, signs in (x.pi for x in xs))


def _conjugates(y: Pi, g: Cols, x: Pi) -> bool:
    """y∘g == g∘x for signed permutations x and y, by pi and signs, one
    column at a time up to the first difference (see the module docstring)."""
    (py, sy), (px, sx) = y, x
    return all({py[k]: s * sy[k] * c for k, c in col.items()} == g[p]
               for col, p, s in zip(g, px, sx))


def _label_by_conjugacy(table, tuples, conjugators, classify) -> List[tuple]:
    """(classify(t), provenance) of each tuple t of involutions in tuples.

    The first unlabelled tuple is classified by classify and its orbit is
    walked depth first: for a labelled x = (x_1, ..., x_k) and a conjugator
    g, the tuple y = (g x_i g^-1) gets x's label once y_i∘g == g∘x_i holds
    column for column on every factor (_conjugates).  y is looked up by its
    factors' images g(x_i(g^-1 v)) of v = sum_n (n+1) e_n over the
    generators e_n = x_{+-alpha_i}; a census row sends each e_n to some
    +-e_m, so its key's magnitudes fix the row, and any other y with that
    key fails the column equality.  Both read every factor by its pi, with
    no column route: each is a census row, certified a signed permutation
    (torus rows diagonal, twists omega∘t).  The provenance is "generic", or
    (g, ",".join(x's descriptors)).
    """
    gens = [table.rank + k for s in table.rs.simple for k in (s, s + table.rs.npos)]
    v = {k: n + 1 for n, k in enumerate(gens)}
    index = _fingerprint_index(tuples, v)
    # g^-1(v): g sends x_k to eta_k x_img(k), and v is a sum of root vectors
    conjugators = [(g, {table.rank + k: g.eta[k] * v[table.rank + m]
                        for k, m in enumerate(g.img) if table.rank + m in v})
                   for g in conjugators]
    labels: List[Optional[tuple]] = [None] * len(tuples)
    left = len(tuples)
    for start, t in enumerate(tuples):
        if labels[start] is not None:
            continue
        labels[start] = (classify(t), "generic")
        left -= 1
        stack = [start]
        while stack and left:
            n = stack.pop()
            xs = tuples[n]
            for g, g_inv_v in conjugators:
                if g.diag and all(x.diag for x in xs):
                    continue  # diagonal matrices commute: g x g^-1 is x
                m = index.get(_conjugate_key(g, g_inv_v, xs))
                if m is None or labels[m] is not None:
                    continue
                if not all(_conjugates(y.pi, g.cols, x.pi) for y, x in zip(tuples[m], xs)):
                    continue
                labels[m] = (labels[n][0], (g.descriptor, ",".join(x.descriptor for x in xs)))
                left -= 1
                stack.append(m)
    return labels


def involution_census(ctx: "VerifyContext") -> Census:
    """Classify all nonzero torus involutions and all involutive omega-twists.

    One row per conjugacy orbit is classified from its real-form split, and
    every other row takes its class from a certified conjugation
    (_label_by_conjugacy); a row that no orbit reaches is split itself.
    """
    table = ctx.table
    omega = ctx.automorphism("omega")
    # all 64 torus root maps, torus:0,...,0 (the identity) first, as one batch
    tori = certify_batch(table, (torus_columns(table, bits)
                                 for bits in product((0, 1), repeat=table.rank)))
    # omega∘t squares to the identity exactly when t commutes with omega (both
    # have order <= 2); a twist of order above 2 is not certified
    twists = ((_compose((omega.img, omega.eta), (t.img, t.eta)), "omega*" + t.descriptor)
              for t in tori if commutes(omega, t))

    realform_names: Dict[str, str] = {}

    def classify(t):
        split = cartan_decomposition(ctx.cb, t[0])
        label = _class_label(t[0], split.k_dim, split.k_type)
        realform_names.setdefault(label, split.name)
        return label, split.k_dim, split.k_type

    found = [("inner", a) for a in tori[1:]]
    found += [("outer", a) for a in certify_batch(table, twists)]
    conjugators = _conjugators(table, tori)
    labels = _label_by_conjugacy(table, [(a,) for _, a in found], conjugators, classify)

    rows: List[CensusRow] = []
    counts: Dict[str, Dict[str, int]] = {"inner": {}, "outer": {}}
    for (kind, a), ((label, dim, ty), how) in zip(found, labels):
        trace_ok = dim == joint_fixed_dim([a])
        rows.append(CensusRow(a.descriptor, kind, dim, ty, label, trace_ok, a, how))
        counts[kind][label] = counts[kind].get(label, 0) + 1
    names = dict(sorted(realform_names.items()))
    return Census(tuple(rows), counts["inner"], counts["outer"], names, len(tori),
                  sum(counts["outer"].values()), conjugators)


# ---------------------------------------------------------------------------
# Configuration searches
# ---------------------------------------------------------------------------

class Configuration(NamedTuple):
    """Named automorphisms realizing a searched-for subgroup, with provenance;
    ``automorphisms`` holds the certified a, b[, theta] in that order."""

    a: str
    b: str
    theta: Optional[str]
    labels: Dict[str, str]
    provenance: Dict[str, object]
    automorphisms: Tuple[Automorphism, ...]


def _gated_fixed(table, autos: Sequence[Automorphism], dim: int) -> Subalgebra:
    """Joint fixed subalgebra of a tuple whose character dimension is dim."""
    s = fixed_subalgebra(table, autos)
    if s.dim != dim:
        raise CertificationError(
            f"fixed subalgebra of {', '.join(a.descriptor for a in autos)} has dim "
            f"{s.dim}, but the character formula gives {dim}"
        )
    return s


def _commuting_tuples(ctx: "VerifyContext", class_labels: Sequence[str], floor: int):
    """Pairwise commuting tuples of distinct census involutions, one per class.

    Yields (automorphisms, joint_fixed_dim), depth first in census order
    (_extend).
    """
    pools = [[r for r in ctx.census.rows if r.label == lab] for lab in class_labels]
    return _extend(class_labels, floor, CharacterSum(), pools)


def _extend(class_labels: Sequence[str], floor: int, chars: CharacterSum, cands: list):
    """The tuples that extend the prefix chars.gens, from cands: for the next
    class and every later one, the census rows still eligible (distinct from
    every chosen generator and commuting with each), in census order.

    Each prefix keeps its character sum (autos.add_generator).  Choosing x
    filters each later list by x once, so a row is tested against each
    chosen generator once per prefix, earlier generators first.  Where two
    consecutive classes are equal, the next list is the rows after x in x's
    own list, so census positions increase and a set is yielded once, in
    the order that comes first.  A partial tuple whose character dimension
    is below ``floor`` is not extended: fixed spaces only shrink as
    generators are added, so none of its extensions reaches ``floor`` either.
    """
    k = len(chars.gens)
    last = k + 1 == len(class_labels)
    for i, row in enumerate(cands[0]):
        x = row.automorphism
        more = add_generator(chars, x, last)
        if last:
            yield more.gens, more.dim
        elif more.dim >= floor:
            later = cands[1:]
            if class_labels[k + 1] == class_labels[k]:
                later[0] = cands[0][i + 1:]
            later = [[r for r in c if r.automorphism is not x and commutes(x, r.automorphism)]
                     for c in later]
            yield from _extend(class_labels, floor, more, later)


def find_so9_klein(ctx: "VerifyContext") -> Configuration:
    """First Klein group <a, b> with a sigma3-class, b sigma2-class, fixed B4.

    Every commuting candidate pair must have character dimension 36 and be
    labelled B4 by _label_by_conjugacy with the census's conjugators: one
    pair per orbit is identified from its fixed subalgebra, whose dimension
    must equal its character dimension, and the others are certified
    conjugate to it.  Every such pair is two commuting census involutions of
    different classes, so it would pass make_klein, which runs on the first
    pair only: its product ab takes the class of its census row (CensusError
    if none).  The count of gated pairs and each pair's provenance are recorded.
    """
    table = ctx.table
    found = list(_commuting_tuples(ctx, ["sigma3", "sigma2"], 0))
    if not found:
        raise SearchExhausted("no commuting (sigma3, sigma2) pair found")
    labels = _label_by_conjugacy(
        table, [pair for pair, _ in found], ctx.census.conjugators,
        lambda pair: str(identify_type(_gated_fixed(table, pair, joint_fixed_dim(pair)))))
    for ((a, b), dim), (ty, _) in zip(found, labels):
        if dim != 36 or ty != "B4":
            raise SearchExhausted(
                f"pair ({a.descriptor}, {b.descriptor}) has fixed type {ty} "
                f"dim {dim}; the unique-class claim is falsified"
            )
    (a, b), _ = found[0]
    ab = make_klein(a, b)
    if ab not in ctx.census_labels:
        raise CensusError(f"product {ab.descriptor} of the first pair is no census row")
    pairs = {(x.descriptor, y.descriptor): how for ((x, y), _), (_, how) in zip(found, labels)}
    return Configuration(a.descriptor, b.descriptor, None,
                         {"a": "sigma3", "b": "sigma2", "ab": ctx.census_labels[ab]},
                         {"search": "so9-klein", "pairs_gated": len(found), "pairs": pairs}, (a, b))


def find_rank3_configuration(ctx: "VerifyContext") -> Configuration:
    """Rank-3 configuration (a, b, theta): a sigma3, b and theta sigma2.

    The first such tuple whose joint fixed algebra is D4 (dimension 28).
    That <a,b> is of so(9) type and b*theta is sigma2-class are certified by
    the so81 and so82 scenarios.
    """
    return search_configuration(ctx, ["sigma3", "sigma2", "sigma2"], "D4")


def search_configuration(
    ctx: "VerifyContext", class_labels: Sequence[str], target_type: str
) -> Configuration:
    """Generic deterministic search for commuting involution tuples.

    ``class_labels`` gives the class of each generator (2 or 3 of them); the
    joint fixed algebra must identify as ``target_type``.  First match in
    census order wins.

    The target dimension is ``type_dim(target_type)`` (a malformed label
    raises ValueError).  A commuting tuple is eliminated and identified only
    when its character dimension (joint_fixed_dim) equals the target
    dimension, and partial tuples below it are pruned.  Neither changes the
    result: a subalgebra of another dimension can never identify as the
    target type.
    """
    check_class_labels(class_labels)
    want = type_dim(target_type)
    for autos, dim in _commuting_tuples(ctx, class_labels, want):
        if dim == want and str(identify_type(_gated_fixed(ctx.table, autos, dim))) == target_type:
            break
    else:
        raise SearchExhausted(
            f"no configuration with classes {list(class_labels)} and fixed type {target_type}"
        )
    return Configuration(
        a=autos[0].descriptor,
        b=autos[1].descriptor,
        theta=autos[2].descriptor if len(autos) == 3 else None,
        labels=dict(zip(("a", "b", "theta"), class_labels)),
        provenance={"search": "generic", "classes": ",".join(class_labels),
                    "target": target_type},
        automorphisms=autos,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class Step(NamedTuple):
    claim: str
    computed: object
    expected: object  # None marks a reported-only value
    provenance: str   # "reference" | "derived" | "structural" | "reported"
    passed: bool


class Report(NamedTuple):
    scenario: str
    steps: Tuple[Step, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "steps": [
                {
                    "claim": s.claim,
                    "computed": _stringify(s.computed),
                    "expected": _stringify(s.expected),
                    "provenance": s.provenance,
                    "passed": s.passed,
                }
                for s in self.steps
            ],
        }

    def render_text(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.scenario}"]
        for s in self.steps:
            mark = "ok" if s.passed else "FAIL"
            exp = "" if s.expected is None else f" expected={_stringify(s.expected)}"
            lines.append(
                f"  {mark:4} {s.claim}: computed={_stringify(s.computed)}{exp}"
                f" [{s.provenance}]"
            )
        return "\n".join(lines)


def _stringify(x):
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, (list, tuple)):
        return [_stringify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _stringify(v) for k, v in sorted(x.items())}
    return str(x)


def _step(claim, computed, expected, provenance) -> Step:
    return Step(claim, computed, expected, provenance, expected is None or computed == expected)


# ---------------------------------------------------------------------------
# Context (shared lazily built objects)
# ---------------------------------------------------------------------------

class VerifyContext:
    """Caches the E6 tables and derived objects across scenarios."""

    def __init__(self, algebra: str = "E6"):
        self.algebra = algebra

    @cached_property
    def rs(self):
        return build_root_system(cartan_matrix(self.algebra))

    @cached_property
    def table(self):
        return chevalley_table(self.rs)

    @cached_property
    def cb(self):
        return compact_form(self.table)

    @cached_property
    def census(self) -> Census:
        return involution_census(self)

    @cached_property
    def census_labels(self) -> Dict[Automorphism, str]:
        """Class label of each census row, keyed by its certified root map."""
        return {r.automorphism: r.label for r in self.census.rows}

    @cached_property
    def so9_klein(self) -> Configuration:
        return find_so9_klein(self)

    @cached_property
    def rank3(self) -> Configuration:
        return find_rank3_configuration(self)

    def automorphism(self, descriptor: str) -> Automorphism:
        """The certified automorphism the descriptor names (autos.parse_descriptor)."""
        return parse_descriptor(self.table, descriptor)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def verify_census(ctx: VerifyContext) -> Report:
    census = ctx.census
    steps = [
        _step("nonzero torus involutions", len([r for r in census.rows if r.kind == "inner"]),
              63, "structural"),
        _step("torus bucket sigma1 count", census.inner_counts.get("sigma1", 0), 36, "derived"),
        _step("torus bucket sigma2 count", census.inner_counts.get("sigma2", 0), 27, "derived"),
        _step("inner classes seen", sorted(census.inner_counts), ["sigma1", "sigma2"],
              "derived"),
        _step("omega-twist candidates", census.twist_candidates, 64, "structural"),
        _step("omega-twist involutions", census.twist_involutions, 16, "derived"),
        _step("outer classes seen", sorted(census.outer_counts), ["sigma3", "sigma4"],
              "derived"),
        _step("outer bucket counts", dict(sorted(census.outer_counts.items())), None,
              "reported"),
        _step("every involution classified", all(r.label for r in census.rows), True,
              "structural"),
        _step("trace identity dim fixed = (dim + tr)/2",
              all(r.trace_identity_ok for r in census.rows), True, "structural"),
    ]
    real_forms = {"sigma1": "e6(2)", "sigma2": "e6(-14)", "sigma3": "e6(-26)", "sigma4": "e6(6)"}
    steps += [_step(f"real form of {label}", census.realform_names.get(label), name, "reference")
              for label, name in real_forms.items()]
    for label, inv in sorted(CLASS_INVARIANTS.items()):
        seen = sorted({(r.fixed_dim, r.fixed_type) for r in census.rows if r.label == label})
        steps.append(_step(f"{label} invariant pair", seen, [inv], "derived"))
    return Report("census", tuple(steps))


def verify_so82_fixed_form(ctx: VerifyContext) -> Report:
    _, b, theta = ctx.rank3.automorphisms
    labels = ctx.census_labels
    desc = real_fixed_subalgebra(ctx.cb, [b], theta)
    steps = [
        _step("b class", labels.get(b), "sigma2", "structural"),
        _step("theta class", labels.get(theta), "sigma2", "structural"),
        _step("b*theta class", labels.get(compose(b, theta)), "sigma2", "reference"),
        _step("b and theta commute", commutes(b, theta), True, "structural"),
        _step("complexified fixed type of b", desc.g_type, "D5+u(1)", "reference"),
        _step("maximal compact part type", desc.k_type, "D4+2u(1)", "reference"),
        _step("signature", list(desc.signature), [30, 16], "derived"),
        _step("real form name", desc.name, "so(8,2)+u(1)", "reference"),
    ]
    return Report("so82", tuple(steps))


def verify_so81_klein_pair(ctx: VerifyContext) -> Report:
    so9 = ctx.so9_klein
    a, b, theta = ctx.rank3.automorphisms
    labels = ctx.census_labels
    # the split identifies the complex fixed algebras of <a,b> and <a,b,theta>
    desc = real_fixed_subalgebra(ctx.cb, (a, b), theta)
    s_bt = fixed_subalgebra(ctx.table, [b, theta])
    steps = [
        _step("so(9) Klein search nonempty", bool(so9.a), True, "reference"),
        _step("so(9) Klein recomputation gate: pairs checked, all B4",
              so9.provenance.get("pairs_gated"), None, "reported"),
        _step("so(9) Klein product element class", so9.labels.get("ab"), None, "reported"),
        _step("a class", labels.get(a), "sigma3", "structural"),
        _step("b class", labels.get(b), "sigma2", "structural"),
        _step("theta class", labels.get(theta), "sigma2", "structural"),
        _step("<a,b> fixed dim", desc.k_dim + desc.p_dim, 36, "reference"),
        _step("<a,b> fixed type", desc.g_type, "B4", "reference"),
        _step("<a,b,theta> fixed dim", desc.k_dim, 28, "reference"),
        _step("<a,b,theta> fixed type", desc.k_type, "D4", "reference"),
        _step("<b,theta> fixed dim", s_bt.dim, 30, "reference"),
        _step("<b,theta> fixed type", str(identify_type(s_bt)), "D4+2u(1)", "reference"),
        _step("complexified fixed type of <a,b>", desc.g_type, "B4", "reference"),
        _step("maximal compact part type", desc.k_type, "D4", "reference"),
        _step("signature", list(desc.signature), [28, 8], "derived"),
        _step("real form name", desc.name, "so(8,1)", "reference"),
    ]
    return Report("so81", tuple(steps))


def verify_holomorphic(ctx: VerifyContext) -> Report:
    a, _, theta = ctx.rank3.automorphisms
    # the census's inner rows: every nonzero torus involution, in torus order
    tori = [r.automorphism for r in ctx.census.rows
            if r.kind == "inner" and commutes(r.automorphism, theta)]
    # one k(theta) and one center for all three checks
    self_holo, a_holo, *tori_holo = holomorphic_flags(ctx.cb, [theta, a] + tori, theta)
    steps = [
        _step("theta is holomorphic for itself", self_holo, True, "structural"),
        _step("torus involutions commuting with theta", len(tori), 63, "structural"),
        _step("holomorphic among them", sum(tori_holo), 63, "derived"),
        _step("sigma3-class generator is anti-holomorphic", a_holo, False, "reference"),
    ]
    return Report("holomorphic", tuple(steps))


SCENARIOS = {
    "census": verify_census,
    "so82": verify_so82_fixed_form,
    "so81": verify_so81_klein_pair,
    "holomorphic": verify_holomorphic,
}


def run_all(ctx: VerifyContext) -> List[Report]:
    return [scenario(ctx) for scenario in SCENARIOS.values()]


def reports_to_json(reports: Sequence[Report]) -> str:
    return json.dumps([r.to_jsonable() for r in reports], indent=2, sort_keys=True)
