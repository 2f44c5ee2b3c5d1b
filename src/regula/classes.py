"""Conjugacy classes and the regular/singular class-counting statistics.

Classes are found exactly: every element is visited and the group is
partitioned by a breadth-first walk of each class, one frontier at a
time, under conjugation by the group generators.  Representatives are
the first member of each class in ``PermGroup.elements()`` order, so
repeated runs produce identical tables.  A table is a ``ClassTable``,
|G| and a tuple of ``ClassInfo`` rows, and the counts at a prime are a
``ClassCounts``; all three are namedtuples, which need neither
``dataclasses`` nor ``inspect``.  The orbits of G on a normal subgroup
N are the classes of G that lie in N, so fused counts are read off G's
table.  A table is refused when |G| exceeds ``perm_core.ELEMENT_CAP`` as
it stands at the call, before the memo is read, so a table computed
under a larger cap is never returned under a smaller one.

Memory: an element is named by its rank in that order, which its base
images determine.  The chain splits after its first j levels: element
a + A*t is the t-th element of the stabiliser of the first j base points
followed by the a-th of the A = n0*...*n_{j-1} head coset
representatives.  The partition keeps one visited byte per element and,
per generator, a conjugation map of one 4-byte rank per element, so
1 + 4k bytes per element for k generators.  The stabiliser is kept as
|G|/A image tuples with a dict from their base images to A*t, 1/A of a
full element list; the tail base images name a row, a one-point tail
by the bare image.  The head grows by a level while the table of its A
cosets times one generator, A*degree images, stays within a quarter of
|G| entries; a one-level head is the level-0 transversal itself, so its
A*degree can reach |G| without a copy.  A map is built over the
stabiliser rows grouped by head key, the images of a row at the head
points moved by the generator: a group builds its tail columns once and
drops them when it is done, so they add at most degree*A entries at a
time, no more than the table itself.  The walk of a class keeps two
frontiers of ranks, the last one and the one it builds.  Only the class
representatives are built in full; each is walked once, for its order
and sort key, and becomes a ``Permutation`` unchecked.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from math import lcm
from operator import add, getitem, itemgetter

from .errors import NotNormal, RegulaError
from .numtheory import check_prime, is_p_power
from .perm_core import (PermGroup, Permutation, _chain_elements, _cycle_text, _cycles_of, _inv,
                        _mult, _wrap, check_element_cap)


ClassInfo = namedtuple("ClassInfo", "representative element_order class_size centralizer_order")
ClassCounts = namedtuple("ClassCounts", "p k_total k_regular k_singular")


class ClassTable(namedtuple("ClassTable", "group_order classes")):
    """|G| and its ``ClassInfo`` rows, sorted by element order, class size
    and representative cycle string."""

    __slots__ = ()

    @property
    def k_total(self) -> int:
        return len(self.classes)

    def counts(self, p: int) -> ClassCounts:
        check_prime(p)
        return _counts(p, [c.element_order for c in self.classes])

    def min_centralizer_order(self) -> int:
        return min(c.centralizer_order for c in self.classes)

    def class_size_multiset(self) -> tuple:
        return tuple(sorted(c.class_size for c in self.classes))

    def element_order_multiset(self) -> tuple:
        return tuple(sorted(c.element_order for c in self.classes))

    def singular_element_total(self, p: int) -> int:
        check_prime(p)
        return sum(c.class_size for c in self.classes if c.element_order % p == 0)

    def p_power_class_count(self, p: int) -> int:
        """Classes of elements whose order is a power of p (identity included)."""
        check_prime(p)
        return sum(1 for c in self.classes if is_p_power(c.element_order, p))

    def to_json_dict(self, descriptor: str = "") -> dict:
        return {
            "group": descriptor,
            "order": self.group_order,
            "classes": [
                {
                    "representative": c.representative.cycle_string(),
                    "element_order": c.element_order,
                    "class_size": c.class_size,
                    "centralizer_order": c.centralizer_order,
                }
                for c in self.classes
            ],
        }


def _counts(p: int, orders: list) -> ClassCounts:
    """Counts of the classes with these element orders; p is already checked."""
    regular = sum(1 for o in orders if o % p != 0)
    return ClassCounts(p=p, k_total=len(orders), k_regular=regular,
                       k_singular=len(orders) - regular)


class _RankSplit:
    """The chain of G split after a head of j levels, as ``_partition_into_orbits`` uses it.

    Rank a + A*t is y = ``stab[t] * w[a]``: w lists the A = n0*...*n_{j-1}
    head coset representatives (level 0 varying fastest) and ``stab`` the
    stabiliser of the first j base points, so ranks follow
    ``G.elements()`` order.  The head grows by a level while the table of
    the w[a] * g keeps within a quarter of |G| entries; a one-level head
    reuses the level-0 transversal tuples.  G must be non-trivial.
    """

    def __init__(self, G: PermGroup):
        levels = G._levels
        j, A = 1, len(levels[0].transversal)
        while j < len(levels) and 4 * A * len(levels[j].transversal) * G.degree <= G.order:
            A *= len(levels[j].transversal)
            j += 1
        if j == 1:
            top = levels[0].transversal
            w = [top[b][0] for b in sorted(top)]
            winv = [top[b][1] for b in sorted(top)]
        else:
            w = list(_chain_elements(levels[:j], G._ident))
            winv = list(map(_inv, w))
        base = [lvl.point for lvl in levels]
        self.j, self.A, self.w, self.winv, self.base = j, A, w, winv, base
        # head base images of w[a] -> a (one image for a one-level head)
        self.head_of = {x[base[0]] if j == 1 else tuple(map(x.__getitem__, base[:j])): a
                        for a, x in enumerate(w)}
        self.stab = list(_chain_elements(levels[j:], G._ident))
        # tail base images of stab[t] -> A*t (one image for a one-point tail)
        tail = base[j:]
        self.row_of = {s[tail[0]] if len(tail) == 1 else tuple(map(s.__getitem__, tail)): A * t
                       for t, s in enumerate(self.stab)}

    def conjugation_map(self, g, ginv) -> array:
        """The rank of g^-1 * y * g at the rank of each y, for g with inverse ginv."""
        j, A, w, winv, stab, row_of = self.j, self.A, self.w, self.winv, self.stab, self.row_of
        # cols[c][a] = (w[a] * g)[c] = g[w[a][c]], built a column of w at a time
        cols = [_mult(col, g) for col in zip(*w)]
        head = [ginv[b] for b in self.base[:j]]
        tail = [ginv[b] for b in self.base[j:]]
        # the head images of row t, stab[t][head], fix every a' of the row
        rows = {}
        for t, key in enumerate(map(itemgetter(*head), stab)):
            rows.setdefault(key, []).append(t)
        conj = array("i", [0]) * (A * len(stab))
        for key, ts in rows.items():
            heads = list(map(self.head_of.__getitem__,
                             cols[key] if j == 1 else zip(*[cols[c] for c in key])))
            if not tail:    # the head is the whole chain, so stab has one row
                return array("i", heads)
            # column c of the z * w[a']^-1, once for all rows of this key
            invs = list(map(winv.__getitem__, heads))
            column = {c: list(map(getitem, invs, cols[c]))
                      for c in {stab[t][p] for t in ts for p in tail}}
            for t in ts:
                s = stab[t]
                keys = column[s[tail[0]]] if len(tail) == 1 else zip(*[column[s[p]] for p in tail])
                conj[A * t:A * t + A] = array("i", map(add, heads, map(row_of.__getitem__, keys)))
        return conj


def _partition_into_orbits(G: PermGroup):
    """Split the elements of G into classes under conjugation by its generators.

    Returns (representative tuple, class size) pairs.  Each representative
    is the first member of its class in ``G.elements()`` order, and the
    pairs come in that order.  Elements are handled by their rank in that
    order, through the split chain of ``_RankSplit``: rank a + A*t is
    y = ``stab[t] * w[a]``.

    Phase 1 builds, per generator g, the map from the rank of y to the
    rank of z = g^-1 * y * g.  At a base point b, z[b] is
    ``(w[a] * g)[stab[t][g^-1(b)]]``, so one column of that table gives
    z[b] for all A ranks with the same t.  The head base images of z name
    a' through a dict, and the tail base images of z * w[a']^-1 name t'.
    Both depend on t only through the head key, the images of stab[t] at
    the g^-1(b) of the head points, and a tail column also on its index,
    so the rows are grouped by head key: a group builds its a' and
    w[a']^-1 once and each tail column once, writes each row's A ranks as
    one slice, and then drops its columns.  A one-point tail names t' by
    the bare image, so its column is the row keys themselves.  Phase 2
    walks each class on the integer maps breadth first: every map is
    applied to the whole frontier, which forms the next one, so only two
    frontiers are kept, and the class size is the sum of the frontiers'
    lengths.
    """
    if not G._levels:
        return [(G._ident, 1)]
    split = _RankSplit(G)
    A, w, stab = split.A, split.w, split.stab
    maps = [split.conjugation_map(g, ginv) for g, ginv in G._gen_pairs]
    visited = bytearray(A * len(stab))
    out = []
    r = visited.find(0)
    while r >= 0:
        visited[r] = 1
        size = 1
        frontier = [r]
        while frontier:
            new = []
            for m in maps:
                for x in frontier:
                    y = m[x]
                    if not visited[y]:
                        visited[y] = 1
                        new.append(y)
            size += len(new)
            frontier = new
        t, a = divmod(r, A)
        out.append((_mult(stab[t], w[a]), size))
        r = visited.find(0, r + 1)
    return out


def conjugacy_classes(G: PermGroup) -> ClassTable:
    """Exact class table of G, cached on the group instance."""
    check_element_cap(G)
    return G._cached("class_table", lambda: _class_table(G))


def _class_table(G: PermGroup) -> ClassTable:
    rows = []
    for rep, size in _partition_into_orbits(G):
        if G.order % size != 0:
            raise RegulaError("class size does not divide the group order")
        cycles = _cycles_of(rep)
        rows.append((lcm(*map(len, cycles)), size, _cycle_text(cycles, G.degree), rep))
    if sum(row[1] for row in rows) != G.order:
        raise RegulaError("class equation failed")
    rows.sort()  # by (order, size, cycle string); distinct classes, distinct strings
    return ClassTable(group_order=G.order, classes=tuple(
        ClassInfo(_wrap(rep), order, size, G.order // size) for order, size, _, rep in rows))


def class_counts(G: PermGroup, p: int) -> ClassCounts:
    """k(G), k_regular and k_singular with respect to the prime p."""
    return conjugacy_classes(G).counts(p)


def fused_counts(G: PermGroup, N: PermGroup, p: int) -> ClassCounts:
    """Counts of G-conjugation orbits on the elements of normal N <= G.

    These orbits are the classes of G that lie in N, read from G's class
    table, so the element cap bounds the order of G.
    """
    check_prime(p)
    if not N.is_normal_in(G):
        raise NotNormal("fused counts need a normal subgroup")
    return _counts(p, [c.element_order for c in conjugacy_classes(G).classes
                       if N.contains(c.representative)])


def singular_element_count(G: PermGroup, p: int) -> int:
    """Number of elements of G whose order is divisible by p."""
    return conjugacy_classes(G).singular_element_total(p)
