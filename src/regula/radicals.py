"""Structural normal subgroups: p-core, p'-core, solvable radical, Fitting.

A core is the join of the normal closures of the class representatives
whose closure qualifies: the property is constant on classes, and a
representative already in the join adds nothing.  A p-core or p'-core
qualifies by its order.

The solvable radical R is read off the solvable residual D = G^(inf),
the last term of the derived series, which is memoised on the group:

- If D = 1, G is solvable and R = G.
- Otherwise R & D = R(D), the solvable radical of D, as R(D) is
  characteristic in D, normal in G.  R & D = 1 exactly when F & D = 1
  for the Fitting subgroup F: the last non-trivial derived term of
  R & D is abelian and normal in G, and F & D is solvable and normal.
  A non-trivial F & D has a non-trivial Sylow subgroup, characteristic
  in it, so normal in G and inside a p-core.  So R(D) is joined, over
  the classes in D with a solvable closure, only when a non-identity
  class of G inside D meets a memoised p-core.
- An element x of G lies in R exactly when [x, d] lies in R(D) for
  every generator d of D.  If x is in R, each [x, d] is in R & D.
  Conversely, if each [x, d] is in R, the image of x in G/R lies in the
  centraliser C of the image of D, which is (G/R)^(inf).  C is normal,
  and C^(inf) <= C & (G/R)^(inf), the centre of (G/R)^(inf).  So
  C^(inf) is perfect and abelian, hence trivial; C is then a solvable
  normal subgroup of G/R, so C = 1 and x lies in R.  The test costs a
  few products and sifts per class, and no closure.
- R is the normal closure of the representatives that pass.  Its order
  must be the total size of their classes, a free internal check.

Every core refuses |G| above ``perm_core.ELEMENT_CAP`` as it stands at
the call, before the memo is read, as the class table does: a result
computed under a larger cap is never returned under a smaller one, and
neither is the D = 1 shortcut, which needs no class table.  The Fitting
subgroup is not memoised; it is built from the memoised p-cores, so
their cap check refuses it too.

``certify_core`` and ``certify_fitting`` are the second checks: they
test a result against its definition, independently of how the joins
below found it.
"""

from __future__ import annotations

from typing import Optional

from .classes import conjugacy_classes
from .errors import RegulaError
from .numtheory import is_p_power, is_prime, prime_factors
from .perm_core import PermGroup, _conj, _inv, _mult, _order_of, check_element_cap

CORE_KINDS = ("p-core", "p-prime-core", "solvable-radical")


def _check_kind(kind: str, p: Optional[int]) -> None:
    if kind in ("p-core", "p-prime-core"):
        if p is None or not is_prime(p):
            raise RegulaError(f"kind {kind!r} needs a prime p")
    elif kind != "solvable-radical":
        raise RegulaError(f"unknown core kind {kind!r}; one of {CORE_KINDS}")


def _order_test(kind: str, p: Optional[int]):
    """The order predicate of a p-core or p'-core."""
    if kind == "p-core":
        return lambda order: is_p_power(order, p)
    return lambda order: order % p != 0


def _qualifies(N: PermGroup, kind: str, p: Optional[int]) -> bool:
    if kind == "solvable-radical":
        return N.derived_series()[-1].is_trivial
    return _order_test(kind, p)(N.order)


def _join(G: PermGroup, reps, qualifies) -> PermGroup:
    """The join of the normal closures N of ``reps`` with qualifies(N);
    a rep already inside the running join adds nothing."""
    join = PermGroup([], degree=G.degree)
    for x in reps:
        if not join.contains(x):
            N = G.normal_closure([x])
            if qualifies(N):
                join = join._grown_by(N.generators)
    return join


def _p_join(G: PermGroup, kind: str, p: int) -> PermGroup:
    """O_p(G) or O_p'(G), over the representatives x that pass the order
    test, as x * x^g and x^-1 * x^g must: both lie in x's closure."""
    ok = _order_test(kind, p)

    def passes(x):
        xinv = _inv(x)
        return all(ok(_order_of(_mult(x, xg))) and ok(_order_of(_mult(xinv, xg)))
                   for xg in (_conj(x, g, ginv) for g, ginv in G._gen_pairs))
    reps = (c.representative for c in conjugacy_classes(G).classes
            if c.element_order != 1 and ok(c.element_order) and passes(c.representative))
    return _join(G, reps, lambda N: ok(N.order))


def _solvable_radical(G: PermGroup, D: PermGroup) -> PermGroup:
    """R from a non-trivial solvable residual D: R(D), trivial unless a class
    inside D meets a p-core, then a commutator test per class (module notes)."""
    classes = conjugacy_classes(G).classes
    in_D = [c.representative for c in classes
            if c.element_order != 1 and D.contains(c.representative)]
    cores = [core(G, "p-core", p) for p in prime_factors(D.order)]
    RD = PermGroup([], degree=G.degree)
    if any(O.contains(x) for O in cores for x in in_D):
        # a closure of D's order is the perfect D: not solvable, at no cost
        RD = _join(G, in_D, lambda N: N.order != D.order
                   and _qualifies(N, "solvable-radical", None))
    passing = []
    for c in classes:
        x = c.representative
        xinv = _inv(x)
        if all(RD.contains(_mult(_mult(xinv, dinv), _mult(x, d)))
               for d, dinv in D._gen_pairs):
            passing.append(c)
    R = G.normal_closure([c.representative for c in passing])
    if R.order != sum(c.class_size for c in passing):
        raise RegulaError("solvable radical is not the union of the classes that pass")
    return R


def core(G: PermGroup, kind: str, p: Optional[int] = None) -> PermGroup:
    """Largest normal subgroup of the given kind.

    kind 'p-core' is the largest normal p-subgroup, 'p-prime-core' the
    largest normal subgroup of order coprime to p, 'solvable-radical'
    the largest normal solvable subgroup.
    """
    _check_kind(kind, p)
    check_element_cap(G)
    if kind == "solvable-radical":
        D = G.derived_series()[-1]
        if D.is_trivial:
            return G  # not memoised: G in its own memo would be a reference cycle
        return G._cached(("core", kind, p), lambda: _solvable_radical(G, D))
    return G._cached(("core", kind, p), lambda: _p_join(G, kind, p))


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
    return PermGroup([g for p in prime_factors(G.order) for g in core(G, "p-core", p).generators],
                     degree=G.degree)


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
    return dict(
        order=G.order,
        degree=G.degree,
        p_cores={str(p): core(G, "p-core", p).order for p in primes},
        solvable_radical=core(G, "solvable-radical").order,
        fitting=fitting(G).order,
        derived_length=G.derived_length(),
    )
