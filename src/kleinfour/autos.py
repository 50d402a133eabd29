"""Automorphisms of a Chevalley-basis Lie algebra, with mandatory certificates.

Every constructor funnels through certify_batch (make_automorphism is a
batch of one), which verifies the homomorphism property [Au, Av] = A[u, v] on
all basis pairs and computes the order before the object exists.  Nothing
downstream ever touches an uncertified matrix.

Torus involutions, diagram automorphisms and the Weyl lifts of simple
reflections are built by one rule, _root_map_columns: the permutation of
root indices that a lattice map induces, and signs on the simple root
vectors, extended to every root through x_{a+b} = [x_a, x_b] / N(a, b).
Sign mistakes in that extension are the dominant bug risk, and the
certificate is the firewall.

The homomorphism check takes one of two paths, chosen by the columns' shape.
A signed permutation A e_j = s_j e_pi(j) (one entry +-1 per column, distinct
targets; ``exactq.signed_permutation``) is checked by one lookup per nonzero bracket
(``BracketTable.signed_permutation_flags``), and the members of a batch that
share one pi share one walk, with a bit per member.  Any other shape, and any
member the walk flags, takes the generic walk
(``BracketTable.homomorphism_defect``), which names the first failing pair,
so a rejected candidate's message does not depend on the path.  A certified
signed permutation's order is the lcm over pi's cycles of their length L, or
of 2L where the signs around the cycle multiply to -1; every other order is
found by composing powers.

A certified signed permutation keeps its pi and signs (``Automorphism.pi``),
whether pi is the identity (``diag``) and pi with bitsets of the -1 signs
and of pi's fixed points (``masks``); its cycle order and commutation take
O(dim) rules on them, and diagonal matrices commute.  The character sums of
joint_fixed_dim take signed permutations only and read every trace, a
popcount, off masks: a diagonal generator flips a product's signs by one
XOR.  Composition and inverse take the column rules, the reference, and a
composed signed permutation gets its pi again from the shape certificate.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from math import lcm
from operator import itemgetter, mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exactq import as_num, signed_permutation
from .rootsys import StructureTable, cartan_isomorphisms, match_cartan

Cols = Tuple[Dict[int, object], ...]
Pi = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (pi, signs): A e_j = signs[j] e_pi[j]
Masks = Tuple[Tuple[int, ...], int, int, int]  # (pi, neg, fix, nfix): see _masks

_ORDER_CAP = 60
_INT = re.compile(r"-?[0-9]+")  # int() would also take "_", spaces and non-ASCII digits


class CertificationError(Exception):
    """An automorphism candidate failed certification."""


class Automorphism:
    """Certified algebra automorphism in the canonical basis.

    ``cols[j]`` is the sparse image of basis vector j.  ``pi`` is (pi, signs)
    when the certificate found a signed permutation, else None; ``diag``
    says that pi is the identity, and ``masks`` is _masks(pi), set with pi,
    else None.  Instances come only from certify_batch (make_automorphism
    is a batch of one) and are immutable afterwards.
    """

    __slots__ = ("table", "cols", "order", "descriptor", "pi", "diag", "masks")

    def __init__(self, table: StructureTable, cols: Cols, order: int, descriptor: str,
                 pi: Optional[Pi] = None):
        self.table = table
        self.cols = cols
        self.order = order
        self.descriptor = descriptor
        self.pi = pi
        self.diag = pi is not None and pi[0] == tuple(range(len(pi[0])))
        self.masks = None if pi is None else _masks(pi)

    def apply(self, vec: dict) -> dict:
        return _apply_cols(self.cols, vec)

    def is_involution(self) -> bool:
        return self.order == 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.table is other.table
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash(tuple(tuple(sorted(c.items())) for c in self.cols))

    def __repr__(self) -> str:
        return f"Automorphism({self.descriptor!r}, order={self.order})"


def _clean(vec) -> dict:
    """A copy of the sparse vector without zero entries, scalars normalised."""
    vec = dict(vec)
    for v in vec.values():  # a copy of nonzero ints is already clean
        if type(v) is not int or not v:
            return {k: as_num(v) for k, v in vec.items() if v}
    return vec


def _apply_cols(a: Cols, col: dict) -> dict:
    """The sparse vector a(col): column j of a∘b when col is b's column j."""
    # inline, not exactq.lincomb: this is the inner loop of every composition
    # and of the generic commutes(), and the call overhead slowed searches
    acc: dict = {}
    for k, v in col.items():
        for r, w in a[k].items():
            nv = acc.get(r, 0) + v * w
            if nv:
                acc[r] = nv
            else:
                acc.pop(r, None)
    # acc has no zeros; only a Fraction entry can need normalising (a loop,
    # not any(): this check runs once per column of every product)
    for v in acc.values():
        if type(v) is not int:
            return {r: as_num(x) for r, x in acc.items()}
    return acc


def compose_cols(a: Cols, b: Cols) -> Cols:
    """Columns of a∘b (apply b first)."""
    return tuple(_apply_cols(a, col) for col in b)


def products_equal(a: Cols, b: Cols, c: Cols, d: Cols) -> bool:
    """a∘b == c∘d, compared one column at a time up to the first difference."""
    return all(_apply_cols(a, x) == _apply_cols(c, y) for x, y in zip(b, d))


def _pi_compose(a: Pi, b: Pi) -> Pi:
    """(pi, signs) of a∘b: e_j goes to s_b(j) s_a(pi_b(j)) e_pi_a(pi_b(j))."""
    (pa, sa), (pb, sb) = a, b
    at = itemgetter(*pb)  # a tuple of pi_b's images, as dim > 1
    return at(pa), tuple(map(mul, sb, at(sa)))


@lru_cache(maxsize=64)  # a search meets few pi: products of its generators' pi
def _fixed_mask(perm: Tuple[int, ...]) -> int:
    return sum(1 << j for j, p in enumerate(perm) if p == j)


def _masks(a: Pi) -> Masks:
    """(pi, neg, fix, nfix) of a: bit j of neg is set where signs[j] = -1, bit j
    of fix where pi[j] = j, and nfix counts the bits of fix."""
    fix = _fixed_mask(a[0])
    return a[0], sum(1 << j for j, s in enumerate(a[1]) if s < 0), fix, fix.bit_count()


def _mask_compose(p: Masks, g: Masks) -> Masks:
    """The masks of p∘g: pi_p∘pi_g, and bit j of neg is bit j of g's neg
    flipped by bit pi_g(j) of p's."""
    at = itemgetter(*g[0])
    perm, bits = at(p[0]), format(p[1], f"0{len(g[0])}b")[::-1]  # bits[j]: bit j
    fix = _fixed_mask(perm)
    return perm, g[1] ^ int("".join(at(bits))[::-1], 2), fix, fix.bit_count()


def _mask_trace(neg: int, fix: int, nfix: int) -> int:
    """The sum of the signs at the fixed points of pi."""
    return nfix - 2 * (neg & fix).bit_count()


class CharacterSum(NamedTuple):
    """sum over subsets S of gens of tr(prod of S), the empty one included, and
    dim = total / 2^k; prods holds the masks (_masks) of the products of the
    nonempty subsets, and is empty once the last generator is added."""

    gens: Tuple[Automorphism, ...] = ()
    total: int = 0
    dim: int = 0
    prods: tuple = ()


def add_generator(chars: CharacterSum, g: Automorphism, last: bool = False) -> CharacterSum:
    """chars extended by the signed permutation g: g's trace plus tr(p∘g) for
    each kept product p, every trace read off masks, and, unless g is the
    last generator, the products extended by g.  A diagonal g keeps pi_p and
    flips p's signs by one XOR, and at the last level only the traces are
    read; any other g composes by _mask_compose.  A generator of order other
    than 1 or 2 is rejected, then one without pi, and a sum not divisible by
    2^k raises."""
    if g.order not in (1, 2):
        raise ValueError(f"{g.descriptor} has order {g.order}, not 1 or 2")
    if g.masks is None:
        raise ValueError(f"{g.descriptor} is not a signed permutation")
    x, prods = g.masks, chars.prods
    if g.diag:
        traces = [_mask_trace(neg ^ x[1], fix, nfix) for _, neg, fix, nfix in prods]
        new = [] if last else [(perm, neg ^ x[1], fix, nfix) for perm, neg, fix, nfix in prods]
    else:
        new = [_mask_compose(p, x) for p in prods]
        traces = [_mask_trace(*p[1:]) for p in new]
    gens = chars.gens + (g,)
    total = (chars.total if chars.gens else g.table.dim) + _mask_trace(*x[1:]) + sum(traces)
    den = 2 ** len(gens)
    if total % den:
        raise CertificationError(
            f"character sum {total} of {', '.join(h.descriptor for h in gens)} "
            f"is not divisible by {den}"
        )
    return CharacterSum(gens, total, total // den, () if last else (*prods, *new, x))


def joint_fixed_dim(gens: Sequence[Automorphism]) -> int:
    """dim Fix<g_1..g_k> = 2^-k * sum over subsets S of tr(prod of S).

    The sum is the trace of the projection prod (1 + g_i)/2 onto the joint
    fixed space, so the value is exact for pairwise commuting generators of
    order 1 or 2; commutation is the caller's to check.  Every generator must
    be a signed permutation (its pi set); fixed_subalgebra takes any shape.
    It is add_generator folded over gens from the empty tuple.
    """
    if not gens:
        raise ValueError("joint_fixed_dim needs at least one generator")
    return add_generator(reduce(add_generator, gens[:-1], CharacterSum()), gens[-1], True).dim


def certify_batch(
    table: StructureTable, batch: Iterable[Tuple[Sequence[dict], str]]
) -> List[Automorphism]:
    """Certify and wrap candidates given as (sparse columns, descriptor).

    Signed permutations that share one pi share one
    ``table.signed_permutation_flags`` walk and keep pi and their signs; a
    member it flags, and every other shape, runs the generic
    ``table.homomorphism_defect``, which names the first failing pair; the
    order is certified per member.  Members are certified in order, and the
    first that fails raises the CertificationError make_automorphism raises
    for it alone.  The batch is read once, so a generator's columns can be
    freed as soon as they are copied.
    """
    dim = table.dim
    descriptors: List[str] = []
    cleaned: List[Optional[Cols]] = []
    for cols, descriptor in batch:
        descriptors.append(descriptor)
        cleaned.append(tuple(map(_clean, cols)) if len(cols) == dim else None)
    pis = [None if cc is None else signed_permutation(cc) for cc in cleaned]
    by_perm: Dict[Tuple[int, ...], List[int]] = {}
    for n, pi in enumerate(pis):
        if pi is not None:
            by_perm.setdefault(pi[0], []).append(n)
    generic = set(range(len(cleaned))).difference(*by_perm.values())
    for perm, members in by_perm.items():
        bits = [0] * dim
        for m, n in enumerate(members):
            bits = [b | (s < 0) << m for b, s in zip(bits, pis[n][1])]
        flags = table.signed_permutation_flags(perm, bits, (1 << len(members)) - 1)
        generic.update(n for m, n in enumerate(members) if flags >> m & 1)
    return [_certify(table, cc, descriptor, n in generic, pis[n])
            for n, (descriptor, cc) in enumerate(zip(descriptors, cleaned))]


def _cycle_order(a: Pi) -> int:
    """Order of the signed permutation (pi, signs), from pi's cycles."""
    perm, signs = a
    order, seen = 1, [False] * len(perm)
    for j in range(len(perm)):
        length, sign, k = 0, 1, j
        while not seen[k]:
            seen[k] = True
            length, sign, k = length + 1, sign * signs[k], perm[k]
        if length:
            order = lcm(order, length if sign > 0 else 2 * length)
    return order


def _composed_order(cols: Cols) -> int:
    """Order of cols by composing powers until the identity; _ORDER_CAP + 1 past the cap."""
    power, order = cols, 1
    while order <= _ORDER_CAP and any(col != {j: 1} for j, col in enumerate(power)):
        power, order = compose_cols(cols, power), order + 1
    return order


def _certify(table: StructureTable, cc: Optional[Cols], descriptor: str, generic: bool,
             pi: Optional[Pi]) -> Automorphism:
    if cc is None:
        raise CertificationError(f"{descriptor}: expected {table.dim} columns")
    defect = table.homomorphism_defect(cc) if generic else None
    if defect:
        raise CertificationError(
            f"{descriptor}: homomorphism fails at basis pair "
            f"({table.basis_label(defect[0])}, {table.basis_label(defect[1])})"
        )
    order = _composed_order(cc) if generic else _cycle_order(pi)
    if order > _ORDER_CAP:
        raise CertificationError(f"{descriptor}: order exceeds cap {_ORDER_CAP}")
    return Automorphism(table, cc, order, descriptor, pi)


def make_automorphism(table: StructureTable, cols: Sequence[dict], descriptor: str) -> Automorphism:
    """Certify and wrap one candidate: a batch of one."""
    return certify_batch(table, [(cols, descriptor)])[0]


def identity_automorphism(table: StructureTable) -> Automorphism:
    """The identity of table, certified."""
    return make_automorphism(table, [{j: 1} for j in range(table.dim)], "identity")


# ---------------------------------------------------------------------------
# Constructed automorphisms: a root map and simple-root signs
# ---------------------------------------------------------------------------

def _root_map_columns(table: StructureTable, img: Sequence[int], signs: Sequence[int]) -> List[dict]:
    """Uncertified columns of the automorphism x_{alpha_i} -> signs[i] x_{img(alpha_i)}.

    img[k] is the index of the root that a lattice map sends roots[k] to.
    The signs extend to each non-simple positive root g with extraspecial
    pair (a, b) through x_g = [x_a, x_b] / N(a, b), so that
    eps_g = eps_a eps_b N(img a, img b) / N(a, b) in height order.  x_{-g}
    takes the sign of x_g, since h_g = [x_g, x_{-g}] goes to h_{img g}, and
    h_i goes to the coroot of img(alpha_i).  The certificate rejects an inexact
    or non-unit quotient.
    """
    rs, rank, npos, n = table.rs, table.rank, table.npos, table.n_constant
    eps = [1] * npos
    for s, e in zip(rs.simple, signs):
        eps[s] = e
    for g, (a, b) in table.extraspecial.items():  # height order: a, b precede g
        eps[g] = eps[a] * eps[b] * n(img[a], img[b]) // n(a, b)
    cols = [{j: c for j, c in enumerate(rs.coroot(img[s])) if c} for s in rs.simple]
    return cols + [{rank + m: eps[k % npos]} for k, m in enumerate(img)]


def torus_columns(table: StructureTable, c: Sequence[int]) -> Tuple[List[dict], str]:
    """Uncertified columns and descriptor of torus_involution(table, c): the
    identity root map, and the sign (-1)^<alpha_j, sum c_i alpha_i^vee> on x_{alpha_j}."""
    if len(c) != table.rank:
        raise ValueError(f"coefficient vector must have length {table.rank}")
    bits = tuple(x % 2 for x in c)
    signs = [-1 if sum(map(mul, bits, row)) % 2 else 1 for row in table.rs.cartan]
    cols = _root_map_columns(table, range(len(table.rs.roots)), signs)
    return cols, "torus:" + ",".join(map(str, bits))


def torus_involution(table: StructureTable, c: Sequence[int]) -> Automorphism:
    """exp(pi*sqrt(-1) ad H_c) for H_c = sum c_i H_{alpha_i}, c taken mod 2.

    Acts as identity on the Cartan and by (-1)^{alpha(H_c)} on each root
    vector; order 1 or 2.
    """
    return make_automorphism(table, *torus_columns(table, c))


def diagram_symmetries(cartan: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """All permutations p of simple roots with A[p(i)][p(j)] = A[i][j], in
    lexicographic order; found by ``rootsys.cartan_isomorphisms``."""
    return sorted(cartan_isomorphisms(cartan, cartan))


def _diagram_columns(table: StructureTable, perm: Sequence[int]) -> List[dict]:
    """Uncertified columns of the diagram symmetry perm: its root map, with the
    sign +1 on every x_{alpha_i}."""
    rs = table.rs
    # the key is additive, so the image of a root is sum_i m_i key(alpha_perm(i))
    place = [rs.keys[rs.simple[p]] for p in perm]
    img = [rs.key_index[sum(map(mul, r.coords, place))] for r in rs.roots]
    return _root_map_columns(table, img, [1] * table.rank)


def _omega_columns(table: StructureTable) -> List[dict]:
    """Uncertified columns of the unique nontrivial involutive diagram
    symmetry; ValueError when there is not exactly one."""
    n = table.rank
    sym = [p for p in diagram_symmetries(table.rs.cartan)
           if p != tuple(range(n)) and all(p[p[i]] == i for i in range(n))]
    if len(sym) != 1:
        raise ValueError("omega is not defined on %s%d: it has %d nontrivial diagram "
                         "involutions, not exactly one"
                         % (*match_cartan(table.rs.cartan), len(sym)))
    return _diagram_columns(table, sym[0])


def omega_automorphism(table: StructureTable) -> Automorphism:
    """The unique nontrivial involutive diagram automorphism, when it exists,
    certified under the descriptor "omega"."""
    return make_automorphism(table, _omega_columns(table), "omega")


# ---------------------------------------------------------------------------
# Composition, commutation, Klein groups
# ---------------------------------------------------------------------------

def compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """a∘b, re-certified from scratch."""
    if a.table is not b.table:
        raise ValueError("automorphisms live on different algebras")
    return make_automorphism(a.table, compose_cols(a.cols, b.cols), f"{a.descriptor}*{b.descriptor}")


def commutes(a: Automorphism, b: Automorphism) -> bool:
    """a∘b == b∘a, exactly.

    Two signed permutations compare their products by pi and signs, O(dim)
    with no columns, and two diagonal ones commute at once.  Otherwise the
    products are compared one column at a time up to the first difference.
    """
    if a.table is not b.table:
        raise ValueError("automorphisms live on different algebras")
    if a.pi is None or b.pi is None:
        return products_equal(a.cols, b.cols, b.cols, a.cols)
    if b.diag:
        a, b = b, a
    if a.diag:  # the products agree at j exactly when d_pi(j) == d_j
        return b.diag or itemgetter(*b.pi[0])(a.pi[1]) == a.pi[1]
    return _pi_compose(a.pi, b.pi) == _pi_compose(b.pi, a.pi)


def check_klein(a: Automorphism, b: Automorphism) -> None:
    """The Klein four axioms for <a, b>; ValueError names the first violated one."""
    if a.table is not b.table:
        raise ValueError("generators live on different algebras")
    if not a.is_involution():
        raise ValueError(f"generator {a.descriptor} is not an involution")
    if not b.is_involution():
        raise ValueError(f"generator {b.descriptor} is not an involution")
    if not commutes(a, b):
        raise ValueError(f"generators {a.descriptor}, {b.descriptor} do not commute")
    if a == b:
        raise ValueError("generators are equal; the product would be the identity")


def make_klein(a: Automorphism, b: Automorphism) -> Automorphism:
    """The certified product ab, after check_klein.  ab needs no check of its
    own: (ab)^2 = a^2 b^2 = 1, and ab = 1 would make b = a."""
    check_klein(a, b)
    return compose(a, b)


# ---------------------------------------------------------------------------
# Weyl-group lifts
# ---------------------------------------------------------------------------

def weyl_lift(table: StructureTable, i: int) -> Automorphism:
    """Inner lift n_i = exp(ad x_{a_i}) exp(ad -x_{-a_i}) exp(ad x_{a_i}) of the
    simple reflection s_i: the root map s_i(b) = b - <b, a_i^vee> a_i, with
    the sign -1 on x_{a_i}.  For j != i, x_{a_j} is the lowest vector of its
    a_i-string, which n_i sends to (ad x_{a_i})^q / q! of it, q = -<a_j, a_i^vee>;
    its sign is that of the product of N(a_i, a_j + k a_i), k < q, whose
    absolute values multiply to q! (Carter, Simple Groups of Lie Type, 6.4).
    """
    rs = table.rs
    if not 0 <= i < table.rank:
        raise ValueError(f"simple index out of range: {i}")
    a = rs.simple[i]
    step = rs.keys[a]
    img = [rs.key_index[key - p[i] * step] for key, p in zip(rs.keys, rs.pairings)]
    signs = []
    for j, s in enumerate(rs.simple):
        sign, key = 1, rs.keys[s]
        for _ in range(-rs.cartan[j][i]):  # no steps for j == i, where it is 2
            if table.n_constant(a, rs.key_index[key]) < 0:
                sign = -sign
            key += step
        signs.append(-1 if j == i else sign)
    return make_automorphism(table, _root_map_columns(table, img, signs), f"weyl:{i + 1}")


def inverse_cols(w: Automorphism) -> Cols:
    """Columns of w^{-1}, w^(order - 1) from the certified order of w."""
    inv = w.cols
    for _ in range(w.order - 2):
        inv = compose_cols(w.cols, inv)
    return inv


def conjugate(w: Automorphism, a: Automorphism) -> Automorphism:
    """w a w^{-1}, re-certified; the inverse comes from the certified order of w."""
    if w.table is not a.table:
        raise ValueError("automorphisms live on different algebras")
    cols = compose_cols(w.cols, compose_cols(a.cols, inverse_cols(w)))
    return make_automorphism(w.table, cols, f"conj({w.descriptor},{a.descriptor})")


# ---------------------------------------------------------------------------
# Textual descriptors (CLI surface)
# ---------------------------------------------------------------------------

def read_descriptor(text: str, rank: int) -> Tuple[bool, Optional[List[int]]]:
    """(has an omega factor, torus coefficients or None) of 'identity', 'id', 'omega',
    'torus:c1,...,cl' or 'omega*torus:c1,...,cl' with ASCII integers c; ValueError
    if text breaks that grammar or its torus factor does not have rank coefficients."""
    text = text.strip()
    if text in ("identity", "id", "omega"):
        return text == "omega", None
    omega = text.startswith("omega*")
    body = text[len("omega*"):] if omega else text
    if not body.startswith("torus:"):
        raise ValueError(f"cannot parse automorphism descriptor {text!r}")
    body = body[len("torus:"):]
    parts = body.split(",")
    if not all(_INT.fullmatch(x) for x in parts):
        raise ValueError(f"bad torus coefficients {body!r}")
    if len(parts) != rank:
        raise ValueError(f"descriptor {text!r} has {len(parts)} torus coefficients; "
                         f"the algebra has rank {rank}")
    return omega, [int(x) for x in parts]


def parse_descriptor(table: StructureTable, text: str) -> Automorphism:
    """The certified automorphism named by a descriptor (read_descriptor's grammar).
    A twist omega*torus:c is certified once, as the product of the uncertified
    columns of its two factors."""
    omega, c = read_descriptor(text, table.rank)
    if c is None:
        return omega_automorphism(table) if omega else identity_automorphism(table)
    cols, desc = torus_columns(table, c)
    # odd coefficients that no root sees
    if any(x % 2 for x in c) and all(col == {j: 1} for j, col in enumerate(cols)):
        raise ValueError("the torus factor of descriptor %r is the identity of %s%d"
                         % (text, *match_cartan(table.rs.cartan)))
    if omega:
        cols, desc = compose_cols(_omega_columns(table), cols), "omega*" + desc
    return make_automorphism(table, cols, desc)
