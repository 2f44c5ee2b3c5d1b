"""Structural normal subgroups: p-core, p'-core, solvable radical, Fitting.

Each core is the join of the normal closures of single elements whose
closure has the defining property, and the defining property is constant
on conjugacy classes, so only one representative per class is tested.
Closures are cached per representative since every core of the same
group reuses them.  For the solvable radical, a closure that contains a
closure already found non-solvable is skipped without a derived series,
since a group with a non-solvable subgroup is non-solvable.

``certify_core`` and ``certify_fitting`` are the second checks: they
test a result against its definition, independently of how the joins
below found it.
"""

from __future__ import annotations

from typing import Optional

from .classes import conjugacy_classes
from .errors import RegulaError
from .numtheory import is_p_power, is_prime, prime_factors
from .perm_core import PermGroup

CORE_KINDS = ("p-core", "p-prime-core", "solvable-radical")


def _closure_of_rep(G: PermGroup, rep) -> PermGroup:
    return G._cached(("closure", rep.images), lambda: G.normal_closure([rep]))


def _order_admissible(order: int, kind: str, p: Optional[int]) -> bool:
    if kind == "p-core":
        return is_p_power(order, p)
    if kind == "p-prime-core":
        return order % p != 0
    return True


def _check_kind(kind: str, p: Optional[int]) -> None:
    if kind in ("p-core", "p-prime-core"):
        if p is None or not is_prime(p):
            raise RegulaError(f"kind {kind!r} needs a prime p")
    elif kind != "solvable-radical":
        raise RegulaError(f"unknown core kind {kind!r}; one of {CORE_KINDS}")


def _qualifies(N: PermGroup, kind: str, p: Optional[int]) -> bool:
    if kind == "solvable-radical":
        return N.is_trivial or N._cached(
            "solvable", lambda: N.derived_series()[-1].is_trivial)
    return _order_admissible(N.order, kind, p)


def _rep_admissible(G: PermGroup, rep, kind: str, p: Optional[int]) -> bool:
    """Cheap necessary condition: rep and rep * rep^g lie in the closure,
    so their orders must already look like the target kind."""
    from .perm_core import _conj, _mult, _order_of

    if not _order_admissible(rep.order(), kind, p):
        return False
    if kind == "solvable-radical":
        return True
    x = rep.images
    xinv = rep.inverse().images
    for g, ginv in G._gen_pairs:
        xg = _conj(x, g, ginv)
        if not _order_admissible(_order_of(_mult(x, xg)), kind, p):
            return False
        if not _order_admissible(_order_of(_mult(xinv, xg)), kind, p):
            return False
    return True


def core(G: PermGroup, kind: str, p: Optional[int] = None) -> PermGroup:
    """Largest normal subgroup of the given kind.

    kind 'p-core' is the largest normal p-subgroup, 'p-prime-core' the
    largest normal subgroup of order coprime to p, 'solvable-radical'
    the largest normal solvable subgroup.
    """
    _check_kind(kind, p)

    def join_of_closures():
        join = PermGroup([], degree=G.degree)
        nonsolvable = []  # closures found non-solvable so far
        for cls in conjugacy_classes(G).classes:
            if join.order == G.order:
                break
            if cls.element_order == 1:
                continue
            # reps already inside the running join contribute nothing
            if join.contains(cls.representative):
                continue
            if not _rep_admissible(G, cls.representative, kind, p):
                continue
            N = _closure_of_rep(G, cls.representative)
            # a subgroup containing a non-solvable one is non-solvable
            if any(N.contains_subgroup(B) for B in nonsolvable):
                continue
            if _qualifies(N, kind, p):
                join = join._grown_by(N._gen_tuples)
            elif kind == "solvable-radical":
                nonsolvable.append(N)
        return join

    return G._cached(("core", kind, p), join_of_closures)


def certify_core(G: PermGroup, N: PermGroup, kind: str, p: Optional[int] = None) -> None:
    """Raise unless N is normal, has the defining property, and is maximal
    with it (the same core of G/N is trivial)."""
    _check_kind(kind, p)
    if not N.is_normal_in(G):
        raise RegulaError("core output is not normal")
    if not _qualifies(N, kind, p):
        raise RegulaError("core output lacks the defining property")
    Q = G if N.is_trivial else G.quotient(N)
    again = core(Q, kind, p)
    if not again.is_trivial:
        raise RegulaError("core is not maximal: the quotient has a nontrivial core")


def fitting(G: PermGroup) -> PermGroup:
    """Largest normal nilpotent subgroup: the join of the p-cores."""

    def join_of_p_cores():
        gens = []
        for p in prime_factors(G.order):
            gens.extend(core(G, "p-core", p).generators)
        return PermGroup(gens, degree=G.degree)

    return G._cached("fitting", join_of_p_cores)


def certify_fitting(G: PermGroup, F: PermGroup) -> None:
    """Raise unless F is normal, nilpotent, and contains every p-core."""
    if not F.is_normal_in(G):
        raise RegulaError("Fitting subgroup is not normal")
    if not F.is_trivial and not F.lower_central_series()[-1].is_trivial:
        raise RegulaError("Fitting subgroup is not nilpotent")
    for p in prime_factors(G.order):
        if not F.contains_subgroup(core(G, "p-core", p)):
            raise RegulaError("Fitting subgroup misses a p-core")


def structure_summary(G: PermGroup) -> dict:
    """Orders of the cores, the Fitting subgroup and the derived length."""
    primes = prime_factors(G.order)
    return {
        "order": G.order,
        "degree": G.degree,
        "p_cores": {str(p): core(G, "p-core", p).order for p in primes},
        "solvable_radical": core(G, "solvable-radical").order,
        "fitting": fitting(G).order,
        "derived_length": G.derived_length(),
    }
