"""Test-side stand-ins for what the library itself never needs.

``set_bracket`` writes one bracket into a table's store, both orders, as a
corrupting test wants it; ``string_down`` walks a root string on the root
system's keys; ``root_key`` and ``root_index`` find a root by its
coordinates; ``diagram_automorphism`` certifies the automorphism of any
Dynkin-diagram symmetry (the library builds only omega's), and
``root_map_cols`` expands a root map, certified or not, into the columns
x_a -> eta[a] x_img[a], h_i -> H_img(alpha_i) that the reference
certifier reads, and ``auto_cols`` those of a certified automorphism;
``stacked_kernel`` is the joint eigenspace of maps given by columns, by one
elimination.  ``constructed`` builds every kind of automorphism the
library constructs, and ``constructed_kind_defects`` checks each against
the references, with ``composed_order`` the order by composing columns.  ``compact_table``
holds the brackets of the compact basis, which the library never stores, and
``split_spans`` gives the four spans of a real-form split, k and p on the
compact basis by ``oracles.compact_cols`` and k_C and p_C as the split walks
them, whose relations ``split_defects`` checks on both the compact and the
Chevalley brackets.  ``torus_walk`` runs the census's conjugacy walk over
the torus involutions of any type and checks each edge it takes by
``oracles.compose_cols``.
"""

from itertools import chain

import itertools
import random

from kleinfour import realform, verify
from kleinfour.autos import (_ORDER_CAP, _diagram_map, certify_batch, compose, conjugate,
                             identity_automorphism, joint_fixed_dim, make_automorphism,
                             omega_automorphism, parse_descriptor, torus_columns,
                             torus_involution, weyl_lift)
from kleinfour import autos
from kleinfour.exactq import SpanSolver, axpy, kernel, rref
from kleinfour.identify import first_escape
from kleinfour.rootsys import BracketTable
from oracles import (compact_cols, compact_reference, compose_cols, exp_ad_cols,
                     first_homomorphism_defect)


def set_bracket(table, i, j, terms):
    """[e_i, e_j] = terms and [e_j, e_i] = -terms in table._adj, i != j, zero
    terms dropped; an empty bracket is removed."""
    terms = tuple((k, c) for k, c in terms if c)
    for p, q, sign in ((i, j, 1), (j, i, -1)):
        if terms:
            table._adj[p][q] = tuple((k, sign * c) for k, c in terms)
        else:
            table._adj[p].pop(q, None)


def string_down(rs, a, b):
    """p = max k such that roots[b] - k*roots[a] is a root."""
    k, cur = 0, rs.keys[b] - rs.keys[a]
    while cur in rs.key_index:
        k, cur = k + 1, cur - rs.keys[a]
    return k


def root_key(rs, coords):
    """sum_i m_i 64^i, the key by which rs.key_index finds a root."""
    return sum(m * p for m, p in zip(coords, rs._place))


def root_index(rs, coords):
    """The index of the root with these coordinates, or None if none has them:
    keys collide off the root set, so the root found by the key must have
    exactly these coordinates."""
    k = rs.key_index.get(root_key(rs, coords))
    return k if k is not None and rs.roots[k].coords == tuple(coords) else None


def diagram_automorphism(table, perm):
    """The certified automorphism of the diagram symmetry perm (a relabeling
    of the simple roots that keeps the Cartan matrix): h_i -> h_perm(i) and
    x_{+-alpha_i} -> x_{+-alpha_perm(i)}."""
    return make_automorphism(table, _diagram_map(table, perm),
                             "diagram:" + ",".join(str(p + 1) for p in perm))


def root_map_cols(table, root_map):
    """The columns of x_a -> eta[a] x_img[a], h_i -> H_img(alpha_i) for
    root_map = (img, eta), zero entries dropped."""
    img, eta = root_map
    rs, rank = table.rs, table.rank
    cols = [{j: c for j, c in enumerate(rs.coroot(img[s])) if c} for s in rs.simple]
    return tuple(cols + [{rank + m: s} if s else {} for m, s in zip(img, eta)])


def auto_cols(a):
    """The columns of the certified automorphism a."""
    return root_map_cols(a.table, (a.img, a.eta))


def stacked_kernel(dim, maps):
    """Kernel of the stacked A - e over the pairs (columns of A, e) in maps:
    {v : A v = e v for every pair}, by one elimination over dim columns."""
    rows = []
    for cols, e in maps:
        block = [{r: -e} for r in range(dim)]
        for j, col in enumerate(cols):
            for r, v in col.items():
                axpy(block[r], v, ((j, 1),))
        rows += block
    return kernel(rows, dim)


def column_trace(cols):
    """The trace of the map with these columns."""
    return sum(col.get(j, 0) for j, col in enumerate(cols))


def composed_order(cols, cap=_ORDER_CAP):
    """The order of cols by composing powers until the unit columns; cap + 1 past the cap."""
    unit = tuple({j: 1} for j in range(len(cols)))
    power, order = tuple(cols), 1
    while order <= cap and power != unit:
        power, order = compose_cols(cols, power), order + 1
    return order


def constructed(table, cb):
    """(kind, automorphism) of each constructed kind on table: the identity,
    the torus involutions of every nonzero vector up to rank 6 and of 40
    seeded ones above, omega and its involutive twists where omega is
    defined, every Weyl lift, omega_0 (cb.omega0), one compose and one
    conjugate."""
    r = table.rank
    vectors = [c for c in itertools.product((0, 1), repeat=r) if any(c)]
    if r > 6:
        vectors = random.Random(r).sample(vectors, 40)
    out = [("identity", identity_automorphism(table))]
    out += [("torus", torus_involution(table, c)) for c in vectors]
    try:
        out.append(("omega", omega_automorphism(table)))
    except ValueError:
        pass
    else:
        # a nonzero vector of order 1 names no twist (parse_descriptor's raise)
        tori = (torus_involution(table, c) for c in itertools.product((0, 1), repeat=r))
        twists = (parse_descriptor(table, "omega*" + t.descriptor) for t in tori
                  if t.order == 2 or t.descriptor == "torus:" + ",".join("0" * r))
        out += [("twist", w) for w in twists if w.order == 2]
    lifts = [weyl_lift(table, i) for i in range(r)]
    out += [("weyl", w) for w in lifts] + [("omega0", cb.omega0)]
    t = torus_involution(table, (1,) + (0,) * (r - 1))
    out += [("compose", compose(lifts[0], t)), ("conjugate", conjugate(lifts[-1], out[-2][1]))]
    return out


def constructed_kind_defects(table, built):
    """The descriptors of the automorphisms in built (``constructed``) whose
    columns fail the reference certifier, whose trace read off its masks is
    not the trace of its columns, whose order is not the composed-power
    order, or, for a Weyl lift, whose columns are not the product of the
    oracle's exp(ad) factors."""
    rs, r = table.rs, table.rank
    bad = []
    for kind, a in built:
        cols = auto_cols(a)
        ok = (first_homomorphism_defect(table, cols) is None
              and autos._mask_trace(*a.masks[1:]) == column_trace(cols)
              and a.order == composed_order(cols))
        if kind == "weyl":
            i = int(a.descriptor[len("weyl:"):]) - 1
            e_plus = exp_ad_cols(table, {r + rs.simple[i]: 1})
            e_minus = exp_ad_cols(table, {r + rs.simple[i] + rs.npos: -1})
            ok = ok and cols == compose_cols(e_plus, compose_cols(e_minus, e_plus))
        if not ok:
            bad.append(a.descriptor)
    return bad


def compact_table(cb):
    """A BracketTable holding the compact brackets of cb, as
    ``oracles.compact_reference`` builds them from the Chevalley table."""
    table = BracketTable(cb.dim)
    table._adj = compact_reference(cb)[0]
    return table


def split_spans(cb, theta, gamma=()):
    """(k, p, k_C, p_C) of the split of gamma's fixed algebra under theta: k
    and p the joint eigenspaces of gamma and +-theta on the compact basis, by
    the columns of ``oracles.compact_cols``; k_C and p_C as the [k,p] walk of
    ``cartan_decomposition(cb, theta, gamma)`` gets them.  A catalog miss is
    ignored, since it comes after that walk."""
    gcols = [(compact_cols(cb, auto_cols(g)), 1) for g in gamma]
    tcols = compact_cols(cb, auto_cols(theta))
    k, p = (SpanSolver(*rref(stacked_kernel(cb.dim, gcols + [(tcols, e)]))) for e in (1, -1))
    walked = []
    escape = realform.first_escape
    realform.first_escape = lambda *args: walked.append(args[1:3]) or escape(*args)
    try:
        realform.cartan_decomposition(cb, theta, gamma)
    except realform.CatalogMissError:
        pass
    finally:
        realform.first_escape = escape
    (k_c, p_c), _ = walked
    return k, p, k_c, p_c


def split_defects(cb, theta, gamma=()):
    """The relations of the split of gamma's fixed algebra under theta that
    fail, [] when all hold.  [k,k] in k, [k,p] in p and [p,p] in k are walked
    on ``compact_table(cb)`` over the split's k and p; the closure of k_C and
    the split's own two walks, [k_C,p_C] in p_C and [p_C,p_C] in k_C, on the
    Chevalley table over its k_C and p_C.  Each of k and p must span its
    complexification: the real and the imaginary part of each of its rows in
    Chevalley coordinates lie in it, and the dimensions are equal."""
    k, p, k_c, p_c = split_spans(cb, theta, gamma)
    compact, table = compact_table(cb), cb.table
    bad = [what for on, xs, ys, into, what in (
        (compact, k, k, k, "[k,k] in k"), (compact, k, p, p, "[k,p] in p"),
        (compact, p, p, k, "[p,p] in k"), (table, k_c, k_c, k_c, "[k_C,k_C] in k_C"),
        (table, k_c, p_c, p_c, "[k_C,p_C] in p_C"), (table, p_c, p_c, k_c, "[p_C,p_C] in k_C"))
        if first_escape(on, xs, ys, into)]
    for real, cplx, name in ((k, k_c, "k"), (p, p_c, "p")):
        parts = [({}, {}) for _ in real.rows]  # sqrt(-1)^e x with e = 0 or 1
        for row, out in zip(real.rows, parts):
            for i, c in row.items():
                e, x = cb.parts[i]
                axpy(out[e], c, x.items())
        if cplx.dim != real.dim or not all(map(cplx.contains, chain(*parts))):
            bad.append(f"{name} spans {name}_C")
    return bad


def torus_walk(table):
    """(count, dims, bad) of the census walk, verify._label_by_conjugacy with
    verify._conjugators and joint_fixed_dim as classifier, over the count
    nontrivial torus involutions of table, one per root map: the sorted
    dimensions of the orbit representatives, and the involutions whose edge
    y∘g == g∘x fails on the columns (oracles.compose_cols) or whose own
    dimension is not their orbit's."""
    tori = certify_batch(table, (torus_columns(table, bits)
                                 for bits in itertools.product((0, 1), repeat=table.rank)))
    invs = list(dict.fromkeys(a for a in tori if a.order == 2))
    conjugators = verify._conjugators(table, tori)
    labels = verify._label_by_conjugacy([(a,) for a in invs], conjugators, joint_fixed_dim)
    by_desc = {a.descriptor: a for a in invs + list(conjugators)}
    bad = []
    for y, (dim, how) in zip(invs, labels):
        if how != "generic":
            g = auto_cols(by_desc[how[0]])
            if (compose_cols(auto_cols(y), g) != compose_cols(g, auto_cols(by_desc[how[1]]))
                    or joint_fixed_dim([y]) != dim):
                bad.append(y.descriptor)
    return len(invs), sorted(dim for dim, how in labels if how == "generic"), bad
