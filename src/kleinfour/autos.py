"""Automorphisms of a Chevalley-basis Lie algebra, with mandatory certificates.

Every automorphism the package builds keeps the Cartan subalgebra and sends
each root vector to plus or minus a root vector, so it is a root map
(img, eta): a permutation img of the root indices and signs eta on them,
x_a -> eta[a] x_img(a), with h_i -> H_img(alpha_i), the coroot of the image
of the simple root (Humphreys, Lie Algebras, 14.2).  Every constructor hands
its root map to certify_batch (make_automorphism is a batch of one).  There
one certificate, ``StructureTable.root_map_defects``, walks the stored root
pairs with one lookup each, and its docstring proves that this covers every
basis pair; the order is the lcm over img's cycles of their length L, or of
2L where the signs around the cycle multiply to -1.  Both run before the
object exists, so nothing downstream ever touches an uncertified map.

Torus involutions read their signs off the pairings.  Diagram automorphisms
and the Weyl lifts of simple reflections take the img of a lattice map and
signs on the simple root vectors, extended to every root through
x_{a+b} = [x_a, x_b] / N(a, b) (_root_map).  Sign mistakes in that extension
are the dominant bug risk, and the certificate is the firewall.

Composition, inverse and commutation are rules on root indices, and the
members of a batch that share one img share one walk, with a bit per member.
Fixed spaces (``eigenspace``) split into the Cartan block, one small
kernel, and orbit vectors on the root indices.  The character sums of
joint_fixed_dim read every trace, a popcount plus the Cartan block's trace,
off bitsets on the root indices (``masks``): a diagonal generator, whose img
is the identity (``diag``), flips a product's signs by one XOR.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from math import lcm
from operator import getitem, itemgetter, mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exactq import as_num, axpy, kernel
from .rootsys import RootSystem, StructureTable, cartan_isomorphisms, match_cartan

RootMap = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (img, eta): x_a -> eta[a] x_img[a]
Masks = Tuple[Tuple[int, ...], int, int, int]  # (img, neg, fix, base): see _masks

_ORDER_CAP = 60
_INT = re.compile(r"-?[0-9]+")  # int() would also take "_", spaces and non-ASCII digits


class CertificationError(Exception):
    """An automorphism candidate failed certification."""


class Automorphism:
    """Certified algebra automorphism x_a -> eta[a] x_img[a], h_i -> H_img(alpha_i).

    ``img`` and ``eta`` are tuples on the root indices; ``diag`` says that
    img is the identity, and ``masks`` is _masks of the root map.  Instances
    come only from certify_batch (make_automorphism is a batch of one) and
    are immutable afterwards.
    """

    __slots__ = ("table", "img", "eta", "order", "descriptor", "diag", "masks")

    def __init__(self, table: StructureTable, img: Tuple[int, ...], eta: Tuple[int, ...],
                 order: int, descriptor: str):
        self.table, self.img, self.eta = table, img, eta
        self.order, self.descriptor = order, descriptor
        self.diag = img == tuple(range(len(img)))
        self.masks = _masks(table.rs, img, eta)

    def apply(self, vec: dict) -> dict:
        """The sparse vector self(vec), read off the root map."""
        rs, rank, out = self.table.rs, self.table.rank, {}
        for j, c in vec.items():
            if j < rank:
                axpy(out, c, enumerate(rs.coroot(self.img[rs.simple[j]])))
            else:
                axpy(out, c * self.eta[j - rank], ((rank + self.img[j - rank], 1),))
        return {r: as_num(x) for r, x in out.items()}

    def is_involution(self) -> bool:
        return self.order == 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.table is other.table
            and self.img == other.img
            and self.eta == other.eta
        )

    def __hash__(self):
        return hash((self.img, self.eta))

    def __repr__(self) -> str:
        return f"Automorphism({self.descriptor!r}, order={self.order})"


def _compose(a: RootMap, b: RootMap) -> RootMap:
    """(img, eta) of a∘b: x_r goes to eta_b(r) eta_a(img_b(r)) x_img_a(img_b(r))."""
    (ia, ea), (ib, eb) = a, b
    at = itemgetter(*ib)  # a tuple of img_b's images, as there are at least two roots
    return at(ia), tuple(map(mul, eb, at(ea)))


def _inverse(a: RootMap) -> RootMap:
    """(img, eta) of a^-1: x_img(k) goes back to eta[k] x_k, as eta[k] = +-1."""
    img, eta = a
    inv = sorted(range(len(img)), key=img.__getitem__)  # inv[img[k]] = k
    return tuple(inv), itemgetter(*inv)(eta)


@lru_cache(maxsize=64)  # a search meets few img: products of its generators' img
def _fixed_mask(img: Tuple[int, ...]) -> int:
    return sum(1 << k for k, m in enumerate(img) if m == k)


def _masks(rs: RootSystem, img: Tuple[int, ...], eta: Tuple[int, ...]) -> Masks:
    """(img, neg, fix, base) of the root map (img, eta): bit k of neg is set
    where eta[k] = -1 and bit k of fix where img[k] = k, and base, the trace
    with every sign +1, counts the bits of fix and adds _cartan_trace."""
    fix = _fixed_mask(img)
    neg = sum(1 << k for k, s in enumerate(eta) if s < 0)
    return img, neg, fix, fix.bit_count() + _cartan_trace(rs, img)


def _cartan_trace(rs: RootSystem, img: Sequence[int]) -> int:
    """The trace of h_i -> H_img(alpha_i) on the Cartan: sum_i the alpha_i
    coefficient of img(alpha_i).  The simple root indices are 0..rank-1, so
    map pairs row s of rs.coeffs with img[s] and stops there.  The map keeps
    the pairing of roots with coroots, so on h it is the inverse transpose
    of img's map w of the root lattice, and tr w^-1 = tr w, as w has finite
    order and an integer trace."""
    return sum(map(getitem, rs.coeffs, img))


def _mask_compose(p: Masks, g: Masks, rs: RootSystem) -> Masks:
    """The masks of p∘g: img_p∘img_g, and bit k of neg is bit k of g's neg
    flipped by bit img_g(k) of p's."""
    at = itemgetter(*g[0])
    # a 1 above p's top bit keeps its zeros, and the slice drops "0b1": bits[k] is bit k
    img, bits = at(p[0]), bin(p[1] | 1 << len(g[0]))[:2:-1]
    fix = _fixed_mask(img)
    neg = g[1] ^ int("".join(at(bits))[::-1], 2)
    return img, neg, fix, fix.bit_count() + _cartan_trace(rs, img)


def _mask_trace(neg: int, fix: int, base: int) -> int:
    """The trace: base less twice the -1 signs at the fixed roots."""
    return base - 2 * (neg & fix).bit_count()


class CharacterSum(NamedTuple):
    """sum over subsets S of gens of tr(prod of S), the empty one included, and
    dim = total / 2^k; prods holds the masks (_masks) of the products of the
    nonempty subsets, and is empty once the last generator is added."""

    gens: Tuple[Automorphism, ...] = ()
    total: int = 0
    dim: int = 0
    prods: tuple = ()


def add_generator(chars: CharacterSum, g: Automorphism, last: bool = False) -> CharacterSum:
    """chars extended by g: g's trace plus tr(p∘g) for each kept product p,
    every trace read off masks, and, unless g is the last generator, the
    products extended by g.  A diagonal g keeps img_p and flips p's signs by
    one XOR, and at the last level only the traces are read; any other g
    composes by _mask_compose.  A generator of order other than 1 or 2 is
    rejected, and a sum not divisible by 2^k raises."""
    if g.order not in (1, 2):
        raise ValueError(f"{g.descriptor} has order {g.order}, not 1 or 2")
    x, prods = g.masks, chars.prods
    if g.diag:
        traces = [_mask_trace(neg ^ x[1], fix, base) for _, neg, fix, base in prods]
        new = [] if last else [(img, neg ^ x[1], fix, base) for img, neg, fix, base in prods]
    else:
        new = [_mask_compose(p, x, g.table.rs) for p in prods]
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
    order 1 or 2; commutation is the caller's to check.  It is add_generator
    folded over gens from the empty tuple.
    """
    if not gens:
        raise ValueError("joint_fixed_dim needs at least one generator")
    return add_generator(reduce(add_generator, gens[:-1], CharacterSum()), gens[-1], True).dim


def eigenspace(pairs: Sequence[Tuple[Automorphism, int]]) -> List[dict]:
    """Basis of {v : a(v) = e v for every (a, e) in pairs}, e = +-1, on a's table.

    Every root map keeps the Cartan h and permutes the root lines, so the
    space is its part in h plus its part on the root vectors.  On h, a acts
    by the matrix W whose column i is the coroot of img(alpha_i), and that
    part is the kernel of the stacked rank-column rows of W - e.  A v on the
    root vectors has v[img(k)] = e eta[k] v[k]: each orbit of the root
    indices under the maps gives one vector (none if its signs contradict),
    walked from and scaled to 1 on its largest index.  The list is the
    echelon kernel basis of the stacked A - e over every basis column.
    """
    rs = pairs[0][0].table.rs
    rank, rows = rs.rank, []
    for a, e in pairs:
        w = [rs.coroot(a.img[s]) for s in rs.simple]
        rows += [{i: h[r] - (e if i == r else 0) for i, h in enumerate(w)} for r in range(rank)]
    edges = list(zip(*([(m, e * s) for m, s in zip(a.img, a.eta)] for a, e in pairs)))
    sign: Dict[int, int] = {}
    orbits = []
    for top in reversed(range(len(edges))):
        if top in sign:
            continue
        sign[top], orbit, ok = 1, [top], True
        for k in orbit:  # grows while it is walked
            for m, s in edges[k]:
                if m not in sign:
                    sign[m] = s * sign[k]
                    orbit.append(m)
                ok = ok and sign[m] == s * sign[k]
        if ok:
            orbits.append({rank + k: sign[k] for k in sorted(orbit)})
    return kernel(rows, rank) + orbits[::-1]


def certify_batch(
    table: StructureTable, batch: Iterable[Tuple[RootMap, str]]
) -> List[Automorphism]:
    """Certify and wrap candidates given as ((img, eta), descriptor).

    The members that share one img share one ``table.root_map_defects``
    walk, which names each member's first failing basis pair; the order comes
    from img's signed cycles (_cycle_order).  Members are certified in order,
    and the first that fails raises the CertificationError make_automorphism
    raises for it alone.
    """
    n = len(table.rs.roots)
    maps = [(tuple(img), tuple(eta), descriptor) for (img, eta), descriptor in batch]
    by_img: Dict[Tuple[int, ...], List[int]] = {}
    for m, (img, eta, _) in enumerate(maps):
        if len(eta) == n and sorted(img) == list(range(n)) and set(map(type, eta)) <= {int}:
            by_img.setdefault(img, []).append(m)
    pairs: List[Optional[Tuple[int, ...]]] = [()] * len(maps)  # (): no permutation of the roots
    for img, members in by_img.items():
        for m, pair in zip(members, table.root_map_defects(img, [maps[m][1] for m in members])):
            pairs[m] = pair
    return [_certify(table, *m, pair) for m, pair in zip(maps, pairs)]


def _cycle_order(a: RootMap) -> int:
    """Order of the root map (img, eta), from img's cycles."""
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


def _certify(table: StructureTable, img: Tuple[int, ...], eta: Tuple[int, ...], descriptor: str,
             pair: Optional[Tuple[int, ...]]) -> Automorphism:
    if pair == ():
        n = len(table.rs.roots)
        raise CertificationError(f"{descriptor}: expected a permutation of the {n} "
                                 f"root indices and {n} integer signs")
    if pair:
        raise CertificationError(
            f"{descriptor}: homomorphism fails at basis pair "
            f"({table.basis_label(pair[0])}, {table.basis_label(pair[1])})"
        )
    order = _cycle_order((img, eta))
    if order > _ORDER_CAP:
        raise CertificationError(f"{descriptor}: order exceeds cap {_ORDER_CAP}")
    return Automorphism(table, img, eta, order, descriptor)


def make_automorphism(table: StructureTable, root_map: RootMap, descriptor: str) -> Automorphism:
    """Certify and wrap one root map (img, eta): a batch of one."""
    return certify_batch(table, [(root_map, descriptor)])[0]


def identity_automorphism(table: StructureTable) -> Automorphism:
    """The identity of table, certified."""
    n = len(table.rs.roots)
    return make_automorphism(table, (range(n), (1,) * n), "identity")


# ---------------------------------------------------------------------------
# Constructed automorphisms: a root map and simple-root signs
# ---------------------------------------------------------------------------

def _root_map(table: StructureTable, img: Sequence[int], signs: Sequence[int]) -> RootMap:
    """Uncertified root map of the automorphism x_{alpha_i} -> signs[i] x_{img(alpha_i)}.

    img[k] is the index of the root that a lattice map sends roots[k] to.
    The signs extend to each non-simple positive root g with extraspecial
    pair (a, b) through x_g = [x_a, x_b] / N(a, b), so that
    eps_g = eps_a eps_b N(img a, img b) / N(a, b) in height order.  x_{-g}
    takes the sign of x_g, since h_g = [x_g, x_{-g}] goes to h_{img g}.  The
    certificate rejects an inexact or non-unit quotient.
    """
    rs, npos, n = table.rs, table.npos, table.n_constant
    eps = [1] * npos
    for s, e in zip(rs.simple, signs):
        eps[s] = e
    for g, (a, b) in table.extraspecial.items():  # height order: a, b precede g
        eps[g] = eps[a] * eps[b] * n(img[a], img[b]) // n(a, b)
    return tuple(img), tuple(eps + eps)


def torus_columns(table: StructureTable, c: Sequence[int]) -> Tuple[RootMap, str]:
    """Uncertified root map and descriptor of torus_involution(table, c): the
    identity img, and the sign (-1)^<b, sum c_i alpha_i^vee> on each x_b."""
    if len(c) != table.rank:
        raise ValueError(f"coefficient vector must have length {table.rank}")
    bits = tuple(x % 2 for x in c)
    eta = tuple(-1 if sum(map(mul, bits, p)) % 2 else 1 for p in table.rs.pairings)
    return (range(len(eta)), eta), "torus:" + ",".join(map(str, bits))


def torus_involution(table: StructureTable, c: Sequence[int]) -> Automorphism:
    """exp(π sqrt(-1) ad H_c) for H_c = sum c_i H_{alpha_i}, c taken mod 2.

    Acts as identity on the Cartan and by (-1)^{alpha(H_c)} on each root
    vector; order 1 or 2.
    """
    return make_automorphism(table, *torus_columns(table, c))


def diagram_symmetries(cartan: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """All permutations p of simple roots with A[p(i)][p(j)] = A[i][j], in
    lexicographic order; found by ``rootsys.cartan_isomorphisms``."""
    return sorted(cartan_isomorphisms(cartan, cartan))


def _diagram_map(table: StructureTable, perm: Sequence[int]) -> RootMap:
    """Uncertified root map of the diagram symmetry perm: its img, with the
    sign +1 on every x_{alpha_i}."""
    rs = table.rs
    # the key is additive, so the image of a root is sum_i m_i key(alpha_perm(i))
    place = [rs.keys[rs.simple[p]] for p in perm]
    img = [rs.key_index[sum(map(mul, r.coords, place))] for r in rs.roots]
    return _root_map(table, img, [1] * table.rank)


def _omega_columns(table: StructureTable) -> RootMap:
    """Uncertified root map of the unique nontrivial involutive diagram
    symmetry; ValueError when there is not exactly one."""
    n = table.rank
    sym = [p for p in diagram_symmetries(table.rs.cartan)
           if p != tuple(range(n)) and all(p[p[i]] == i for i in range(n))]
    if len(sym) != 1:
        raise ValueError("omega is not defined on %s%d: it has %d nontrivial diagram "
                         "involutions, not exactly one"
                         % (*match_cartan(table.rs.cartan), len(sym)))
    return _diagram_map(table, sym[0])


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
    return make_automorphism(a.table, _compose((a.img, a.eta), (b.img, b.eta)),
                             f"{a.descriptor}*{b.descriptor}")


def commutes(a: Automorphism, b: Automorphism) -> bool:
    """a∘b == b∘a, exactly: the two products' root maps are equal, and two
    diagonal maps commute at once.  Both products act on the Cartan through
    their img, so the root maps decide."""
    if a.table is not b.table:
        raise ValueError("automorphisms live on different algebras")
    if b.diag:
        a, b = b, a
    if a.diag:  # the products agree at r exactly when eta_a(img_b(r)) == eta_a(r)
        return b.diag or itemgetter(*b.img)(a.eta) == a.eta
    x, y = (a.img, a.eta), (b.img, b.eta)
    return _compose(x, y) == _compose(y, x)


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
    return make_automorphism(table, _root_map(table, img, signs), f"weyl:{i + 1}")


def conjugate(w: Automorphism, a: Automorphism) -> Automorphism:
    """w a w^{-1}, re-certified; the inverse is the root-index rule _inverse."""
    if w.table is not a.table:
        raise ValueError("automorphisms live on different algebras")
    x = (w.img, w.eta)
    root_map = _compose(x, _compose((a.img, a.eta), _inverse(x)))
    return make_automorphism(w.table, root_map, f"conj({w.descriptor},{a.descriptor})")


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
    root maps of its two factors."""
    omega, c = read_descriptor(text, table.rank)
    if c is None:
        return omega_automorphism(table) if omega else identity_automorphism(table)
    root_map, desc = torus_columns(table, c)
    # odd coefficients that no root sees
    if any(x % 2 for x in c) and -1 not in root_map[1]:
        raise ValueError("the torus factor of descriptor %r is the identity of %s%d"
                         % (text, *match_cartan(table.rs.cartan)))
    if omega:
        root_map, desc = _compose(_omega_columns(table), root_map), "omega*" + desc
    return make_automorphism(table, root_map, desc)
