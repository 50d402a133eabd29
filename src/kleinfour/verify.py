"""Involution census, configuration searches, and verification scenarios.

Conjugacy classes of involutions are recognized by computed invariants: the
pair (fixed-space dimension, fixed-point type).  The four classes in scope:

    sigma1 <-> (38, A5+A1)      sigma2 <-> (46, D5+u(1))
    sigma3 <-> (52, F4)         sigma4 <-> (36, C4)

The four dimensions are distinct, but the type is matched as well, as a
certificate that the invariant pair is one of the catalogued ones.  Searches
run over the census: the full torus 2-group (63 nonzero classes) and the 64
twisted products omega*torus(c), keeping the twists that square to the
identity.  One enumerator (_commuting_tuples) walks the pairwise commuting
tuples of distinct census involutions, one per requested class, depth first in
census order, so identical inputs find identical first configurations.

Each tuple carries its character dimension: for pairwise commuting
involutions g_1..g_k the joint fixed space has dimension
2^-k * sum over subsets S of tr(prod of S) (autos.joint_fixed_dim), read off
traces without any elimination.  Fixed spaces only shrink as generators are
added, so the enumerator does not extend a partial tuple whose character
dimension is already below its floor (the target dimension of a search).  A
tuple whose character dimension differs from the target is never passed to
fixed_subalgebra and identify_type.  This is exact: identify_type's dimension
accounting ties the printed type to the subalgebra's dimension, so such a
tuple could never have matched.  A tuple that passes still goes through the
full closure check and identification, and its fixed subalgebra must have
exactly the character dimension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .autos import (
    Automorphism,
    CertificationError,
    commutes,
    compose,
    joint_fixed_dim,
    make_klein,
    parse_descriptor,
)
from .identify import ReductiveType, Subalgebra, fixed_subalgebra, identify_type, type_dim
from .realform import (
    Catalog,
    cartan_decomposition,
    compact_form,
    holomorphic_flags,
    load_catalog,
    real_fixed_subalgebra,
)
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


def _classify(table, auto: Automorphism) -> Tuple[str, Subalgebra, ReductiveType]:
    """Class label, fixed subalgebra and fixed type of a nonidentity involution.

    The label comes from the (fixed dim, fixed type) invariant pair.
    """
    if not auto.is_involution():
        raise ValueError(f"{auto.descriptor} is not a nonidentity involution")
    s = fixed_subalgebra(table, [auto])
    ty = identify_type(s)
    key = (s.dim, str(ty))
    for label, inv in CLASS_INVARIANTS.items():
        if inv == key:
            return label, s, ty
    raise CensusError(
        f"involution {auto.descriptor} has invariants {key}, matching no known class"
    )


def classify_involution(table, auto: Automorphism) -> str:
    """Class label from the (fixed dim, fixed type) invariant pair."""
    return _classify(table, auto)[0]


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

@dataclass(frozen=True)
class CensusRow:
    descriptor: str
    kind: str  # "inner" | "outer"
    fixed_dim: int
    fixed_type: str
    label: str
    trace_identity_ok: bool


@dataclass(frozen=True)
class Census:
    rows: Tuple[CensusRow, ...]
    inner_counts: Dict[str, int]
    outer_counts: Dict[str, int]
    realform_names: Dict[str, str]
    twist_candidates: int
    twist_involutions: int


def involution_census(ctx: "VerifyContext") -> Census:
    """Classify all nonzero torus involutions and all involutive omega-twists."""
    table = ctx.table
    rows: List[CensusRow] = []
    inner_counts: Dict[str, int] = {}
    outer_counts: Dict[str, int] = {}
    reps: Dict[str, Automorphism] = {}
    twist_candidates = 0
    twist_involutions = 0
    for bits in product((0, 1), repeat=table.rank):
        if not any(bits):
            continue
        a = ctx.automorphism("torus:" + ",".join(map(str, bits)))
        label, s, ty = _classify(table, a)
        rows.append(_census_row(a, "inner", s, ty, label))
        inner_counts[label] = inner_counts.get(label, 0) + 1
        reps.setdefault(label, a)
    for bits in product((0, 1), repeat=table.rank):
        twist_candidates += 1
        a = ctx.automorphism("omega*torus:" + ",".join(map(str, bits)))
        if not a.is_involution():
            continue
        twist_involutions += 1
        label, s, ty = _classify(table, a)
        rows.append(_census_row(a, "outer", s, ty, label))
        outer_counts[label] = outer_counts.get(label, 0) + 1
        reps.setdefault(label, a)
    realform_names = {
        label: cartan_decomposition(ctx.cb, rep, ctx.catalog).name
        for label, rep in sorted(reps.items())
    }
    return Census(
        tuple(rows),
        inner_counts,
        outer_counts,
        realform_names,
        twist_candidates,
        twist_involutions,
    )


def _census_row(auto, kind, s, ty, label):
    trace_ok = s.dim == joint_fixed_dim([auto])
    return CensusRow(auto.descriptor, kind, s.dim, str(ty), label, trace_ok)


# ---------------------------------------------------------------------------
# Configuration searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """Named automorphisms realizing a searched-for subgroup, with provenance."""

    a: str
    b: str
    theta: Optional[str]
    labels: Dict[str, str]
    provenance: Dict[str, object]


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

    Yields (descriptors, automorphisms, joint_fixed_dim) in census order,
    depth first.  A partial tuple whose character dimension is below
    ``floor`` is not extended: fixed spaces only shrink as generators are
    added, so none of its extensions reaches ``floor`` either.
    """
    pools = [[r.descriptor for r in ctx.census.rows if r.label == lab] for lab in class_labels]

    def extend(descs: List[str], autos: List[Automorphism]):
        for d in pools[len(descs)]:
            if d in descs:
                continue
            x = ctx.automorphism(d)
            if not all(commutes(c, x) for c in autos):
                continue
            chosen, gens = descs + [d], autos + [x]
            dim = joint_fixed_dim(gens)
            if len(chosen) == len(pools):
                yield chosen, gens, dim
            elif dim >= floor:
                yield from extend(chosen, gens)

    yield from extend([], [])


def find_so9_klein(ctx: "VerifyContext") -> Configuration:
    """First Klein group <a, b> with a sigma3-class, b sigma2-class, fixed B4.

    Every commuting candidate pair is pushed through the recomputation gate
    (fixed type must be B4 of dimension 36); the count of gate-checked pairs
    is recorded in the provenance.  Each fixed subalgebra's dimension must
    also equal the pair's character dimension.
    """
    checked = 0
    first: Optional[Tuple[str, str, str]] = None
    for (da, db), (a, b), dim in _commuting_tuples(ctx, ["sigma3", "sigma2"], 0):
        make_klein(a, b)
        s = _gated_fixed(ctx.table, [a, b], dim)
        checked += 1
        ty = identify_type(s)
        if s.dim != 36 or str(ty) != "B4":
            raise SearchExhausted(
                f"pair ({da}, {db}) has fixed type {ty} "
                f"dim {s.dim}; the unique-class claim is falsified"
            )
        if first is None:
            first = (da, db, classify_involution(ctx.table, compose(a, b)))
    if first is None:
        raise SearchExhausted("no commuting (sigma3, sigma2) pair found")
    da, db, ab = first
    return Configuration(
        da,
        db,
        None,
        {"a": "sigma3", "b": "sigma2", "ab": ab},
        {"search": "so9-klein", "pairs_gated": checked},
    )


def find_rank3_configuration(ctx: "VerifyContext") -> Configuration:
    """Rank-3 configuration (a, b, theta): a sigma3, b and theta sigma2.

    The first such tuple whose joint fixed algebra is D4 (dimension 28).
    That <a,b> is of so(9) type and b*theta is sigma2-class are certified by
    the so81 and so82 scenarios.
    """
    return search_configuration(ctx, ["sigma3", "sigma2", "sigma2"], "D4")


def search_configuration(
    ctx: "VerifyContext",
    class_labels: Sequence[str],
    target_type: str,
    target_dim: Optional[int] = None,
) -> Configuration:
    """Generic deterministic search for commuting involution tuples.

    ``class_labels`` gives the class of each generator (2 or 3 of them); the
    joint fixed algebra must identify as ``target_type`` (and match
    ``target_dim`` when given).  First match in census order wins.

    The target dimension is ``target_dim``, or else ``type_dim(target_type)``
    (a malformed label raises ValueError).  A commuting tuple is eliminated
    and identified only when its character dimension (joint_fixed_dim) equals
    the target dimension, and partial tuples below it are pruned.  Neither
    changes the result: a subalgebra of another dimension can never identify
    as the target type.
    """
    check_class_labels(class_labels)
    want = type_dim(target_type) if target_dim is None else target_dim
    for found, autos, dim in _commuting_tuples(ctx, class_labels, want):
        if dim == want and str(identify_type(_gated_fixed(ctx.table, autos, dim))) == target_type:
            break
    else:
        raise SearchExhausted(
            f"no configuration with classes {list(class_labels)} and fixed type "
            f"{target_type}{'' if target_dim is None else f' dim {target_dim}'}"
        )
    return Configuration(
        a=found[0],
        b=found[1],
        theta=found[2] if len(found) == 3 else None,
        labels=dict(zip(("a", "b", "theta"), class_labels)),
        provenance={"search": "generic", "classes": ",".join(class_labels),
                    "target": target_type},
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    claim: str
    computed: object
    expected: object  # None marks a reported-only value
    provenance: str   # "reference" | "derived" | "structural" | "reported"
    passed: bool


@dataclass(frozen=True)
class Report:
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
    if x is None:
        return None
    if isinstance(x, (list, tuple)):
        return [_stringify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _stringify(v) for k, v in sorted(x.items())}
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return str(x)
    return str(x)


def _step(claim, computed, expected, provenance) -> Step:
    if expected is None:
        return Step(claim, computed, None, provenance, True)
    return Step(claim, computed, expected, provenance, computed == expected)


# ---------------------------------------------------------------------------
# Context (shared lazily built objects)
# ---------------------------------------------------------------------------

class VerifyContext:
    """Caches the E6 tables and derived objects across scenarios."""

    def __init__(self, catalog: Optional[Catalog] = None, algebra: str = "E6"):
        self.algebra = algebra
        if catalog is not None:
            self.catalog = catalog
        self._autos: Dict[str, Automorphism] = {}

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
    def catalog(self) -> Catalog:
        return load_catalog()

    @cached_property
    def census(self) -> Census:
        return involution_census(self)

    @cached_property
    def so9_klein(self) -> Configuration:
        return find_so9_klein(self)

    @cached_property
    def rank3(self) -> Configuration:
        return find_rank3_configuration(self)

    def automorphism(self, descriptor: str) -> Automorphism:
        got = self._autos.get(descriptor)
        if got is None:
            text = descriptor.strip()
            if text.startswith("omega*torus:"):
                # the cached omega and torus; compose recertifies the product
                got = compose(self.automorphism("omega"), self.automorphism(text[len("omega*"):]))
            else:
                got = parse_descriptor(self.table, descriptor)
            self._autos[descriptor] = got
            self._autos.setdefault(got.descriptor, got)
        return got


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
    for label, expected in (
        ("sigma1", "e6(2)"),
        ("sigma2", "e6(-14)"),
        ("sigma3", "e6(-26)"),
        ("sigma4", "e6(6)"),
    ):
        steps.append(
            _step(f"real form of {label}", census.realform_names.get(label), expected,
                  "reference")
        )
    for label, (d, t) in sorted(CLASS_INVARIANTS.items()):
        seen = sorted(
            {(r.fixed_dim, r.fixed_type) for r in census.rows if r.label == label}
        )
        steps.append(
            _step(f"{label} invariant pair", seen, [(d, t)], "derived")
        )
    return Report("census", tuple(steps))


def verify_so82_fixed_form(ctx: VerifyContext) -> Report:
    cfg = ctx.rank3
    b = ctx.automorphism(cfg.b)
    theta = ctx.automorphism(cfg.theta)
    bt = compose(b, theta)
    steps = [
        _step("b class", classify_involution(ctx.table, b), "sigma2", "structural"),
        _step("theta class", classify_involution(ctx.table, theta), "sigma2", "structural"),
        _step("b*theta class", classify_involution(ctx.table, bt), "sigma2", "reference"),
        _step("b and theta commute", commutes(b, theta), True, "structural"),
    ]
    desc = real_fixed_subalgebra(ctx.cb, b, theta, ctx.catalog)
    steps += [
        _step("complexified fixed type of b", desc.g_type, "D5+u(1)", "reference"),
        _step("maximal compact part type", desc.k_type, "D4+2u(1)", "reference"),
        _step("signature", list(desc.signature), [30, 16], "derived"),
        _step("real form name", desc.name, "so(8,2)+u(1)", "reference"),
    ]
    return Report("so82", tuple(steps))


def verify_so81_klein_pair(ctx: VerifyContext) -> Report:
    cfg = ctx.rank3
    so9 = ctx.so9_klein
    a = ctx.automorphism(cfg.a)
    b = ctx.automorphism(cfg.b)
    theta = ctx.automorphism(cfg.theta)
    klein = make_klein(a, b)
    s_ab = fixed_subalgebra(ctx.table, [a, b])
    s_abt = fixed_subalgebra(ctx.table, [a, b, theta])
    s_bt = fixed_subalgebra(ctx.table, [b, theta])
    steps = [
        _step("so(9) Klein search nonempty", bool(so9.a), True, "reference"),
        _step("so(9) Klein recomputation gate: pairs checked, all B4",
              so9.provenance.get("pairs_gated"), None, "reported"),
        _step("so(9) Klein product element class", so9.labels.get("ab"), None, "reported"),
        _step("a class", classify_involution(ctx.table, a), "sigma3", "structural"),
        _step("b class", classify_involution(ctx.table, b), "sigma2", "structural"),
        _step("theta class", classify_involution(ctx.table, theta), "sigma2", "structural"),
        _step("<a,b> fixed dim", s_ab.dim, 36, "reference"),
        _step("<a,b> fixed type", str(identify_type(s_ab)), "B4", "reference"),
        _step("<a,b,theta> fixed dim", s_abt.dim, 28, "reference"),
        _step("<a,b,theta> fixed type", str(identify_type(s_abt)), "D4", "reference"),
        _step("<b,theta> fixed dim", s_bt.dim, 30, "reference"),
        _step("<b,theta> fixed type", str(identify_type(s_bt)), "D4+2u(1)", "reference"),
    ]
    desc = real_fixed_subalgebra(ctx.cb, klein, theta, ctx.catalog)
    steps += [
        _step("complexified fixed type of <a,b>", desc.g_type, "B4", "reference"),
        _step("maximal compact part type", desc.k_type, "D4", "reference"),
        _step("signature", list(desc.signature), [28, 8], "derived"),
        _step("real form name", desc.name, "so(8,1)", "reference"),
    ]
    return Report("so81", tuple(steps))


def verify_holomorphic(ctx: VerifyContext) -> Report:
    cfg = ctx.rank3
    a = ctx.automorphism(cfg.a)
    theta = ctx.automorphism(cfg.theta)
    tori = [
        ctx.automorphism("torus:" + ",".join(map(str, bits)))
        for bits in product((0, 1), repeat=ctx.table.rank)
        if any(bits)
    ]
    tori = [sigma for sigma in tori if commutes(sigma, theta)]
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


def run_all(ctx: Optional[VerifyContext] = None) -> List[Report]:
    if ctx is None:
        ctx = VerifyContext()
    return [SCENARIOS[name](ctx) for name in ("census", "so82", "so81", "holomorphic")]


def reports_to_json(reports: Sequence[Report]) -> str:
    return json.dumps([r.to_jsonable() for r in reports], indent=2, sort_keys=True)
