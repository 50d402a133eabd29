"""Test-side stand-ins for what the library itself never needs.

``set_bracket`` writes one bracket into a table's store, both orders, as a
corrupting test wants it; ``string_down`` walks a root string on the root
system's keys; ``root_key`` and ``root_index`` find a root by its
coordinates; ``diagram_automorphism`` certifies the automorphism of any
Dynkin-diagram symmetry (the library builds only omega's); ``replaced`` copies
a frozen record with some fields changed.
"""

from kleinfour.autos import _diagram_columns, make_automorphism


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
    return make_automorphism(table, _diagram_columns(table, perm),
                             "diagram:" + ",".join(str(p + 1) for p in perm))


def replaced(record, **changes):
    """A copy of the frozen record (a NamedTuple or a ``verify`` record) with
    the given fields changed."""
    fields = type(record).__annotations__
    return type(record)(**{f: changes.get(f, getattr(record, f)) for f in fields})
