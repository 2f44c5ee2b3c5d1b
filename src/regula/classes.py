"""Conjugacy classes and the regular/singular class-counting statistics.

Classes are found exactly: enumerate every element (within the cap),
then partition by breadth-first closure under conjugation by the group
generators.  Representatives are the enumeration-first member of each
class, so repeated runs produce identical tables.

Memory: visited elements are tracked in a dense canonical encoding of
one byte per point (two bytes beyond degree 256), so the budget is
about degree bytes per group element plus the element list itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import perm_core
from .errors import CapExceeded, NotNormal, RegulaError
from .numtheory import is_p_power, is_prime
from .perm_core import PermGroup, Permutation, _conj, _encode, _order_of


@dataclass(frozen=True)
class ClassInfo:
    representative: Permutation
    element_order: int
    class_size: int
    centralizer_order: int


@dataclass(frozen=True)
class ClassTable:
    group_order: int
    classes: tuple[ClassInfo, ...]

    @property
    def k_total(self) -> int:
        return len(self.classes)

    def counts(self, p: int) -> "ClassCounts":
        if not is_prime(p):
            raise RegulaError(f"{p} is not prime")
        regular = sum(1 for c in self.classes if c.element_order % p != 0)
        return ClassCounts(p=p, k_total=len(self.classes),
                           k_regular=regular, k_singular=len(self.classes) - regular)

    def min_centralizer_order(self) -> int:
        return min(c.centralizer_order for c in self.classes)

    def class_size_multiset(self) -> tuple:
        return tuple(sorted(c.class_size for c in self.classes))

    def element_order_multiset(self) -> tuple:
        return tuple(sorted(c.element_order for c in self.classes))

    def singular_element_total(self, p: int) -> int:
        if not is_prime(p):
            raise RegulaError(f"{p} is not prime")
        return sum(c.class_size for c in self.classes if c.element_order % p == 0)

    def p_power_class_count(self, p: int) -> int:
        """Classes of elements whose order is a power of p (identity included)."""
        if not is_prime(p):
            raise RegulaError(f"{p} is not prime")
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


@dataclass(frozen=True)
class ClassCounts:
    p: int
    k_total: int
    k_regular: int
    k_singular: int


def _partition_into_orbits(elements, gen_pairs, degree):
    """Split ``elements`` (image tuples, fixed order) into conjugation orbits.

    Returns (representative tuple, orbit size) pairs in first-seen order.
    """
    visited = set()
    out = []
    for x in elements:
        ex = _encode(x, degree)
        if ex in visited:
            continue
        orbit = {ex}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, ginv in gen_pairs:
                z = _conj(y, g, ginv)
                ez = _encode(z, degree)
                if ez not in orbit:
                    orbit.add(ez)
                    queue.append(z)
        visited |= orbit
        out.append((x, len(orbit)))
    return out


def conjugacy_classes(G: PermGroup, cap: Optional[int] = None) -> ClassTable:
    """Exact class table of G, cached on the group instance."""
    cap = perm_core.ELEMENT_CAP if cap is None else cap
    if G.order > cap:
        raise CapExceeded(f"order {G.order} exceeds the element cap {cap}")
    return G._cached("class_table", lambda: _class_table(G, cap))


def _class_table(G: PermGroup, cap: int) -> ClassTable:
    elements = list(G._raw_elements(cap))
    orbits = _partition_into_orbits(elements, G._gen_pairs, G.degree)
    infos = []
    for rep, size in orbits:
        if G.order % size != 0:
            raise RegulaError("class size does not divide the group order")
        infos.append(ClassInfo(Permutation(rep), _order_of(rep), size, G.order // size))
    if sum(c.class_size for c in infos) != G.order:
        raise RegulaError("class equation failed")
    infos.sort(key=lambda c: (c.element_order, c.class_size, c.representative.cycle_string()))
    return ClassTable(group_order=G.order, classes=tuple(infos))


def class_counts(G: PermGroup, p: int) -> ClassCounts:
    """k(G), k_regular and k_singular with respect to the prime p."""
    return conjugacy_classes(G).counts(p)


def _fused_orbit_orders(G: PermGroup, N: PermGroup, cap: Optional[int]):
    """Element orders of G-orbit representatives on N; cached per (G, N)."""
    cap = perm_core.ELEMENT_CAP if cap is None else cap
    if N.order > cap:
        raise CapExceeded(f"order {N.order} exceeds the element cap {cap}")

    def orbit_orders():
        if not N.is_normal_in(G):
            raise NotNormal("fused counts need a normal subgroup")
        elements = list(N._raw_elements(cap))
        orbits = _partition_into_orbits(elements, G._gen_pairs, G.degree)
        return tuple(_order_of(rep) for rep, _ in orbits)

    return G._cached(("fused", N._gen_tuples), orbit_orders)


def fused_counts(G: PermGroup, N: PermGroup, p: int,
                 cap: Optional[int] = None) -> ClassCounts:
    """Counts of G-conjugation orbits on the elements of normal N <= G."""
    if not is_prime(p):
        raise RegulaError(f"{p} is not prime")
    orders = _fused_orbit_orders(G, N, cap)
    regular = sum(1 for o in orders if o % p != 0)
    return ClassCounts(p=p, k_total=len(orders), k_regular=regular,
                       k_singular=len(orders) - regular)


def singular_element_count(G: PermGroup, p: int) -> int:
    """Number of elements of G whose order is divisible by p."""
    return conjugacy_classes(G).singular_element_total(p)
