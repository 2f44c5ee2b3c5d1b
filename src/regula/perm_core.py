"""Permutations and stabilizer-chain permutation groups.

Everything downstream (class enumeration, radicals, the verification
suites) sits on the two types defined here: a ``Permutation``, which is
its validated image tuple and compares and hashes as one, and a
``PermGroup`` carrying a verified base and strong generating set.
The chain is built with a deterministic Schreier-Sims: base points are
the first moved points, orbits are explored in FIFO order, and every
Schreier generator is sifted, so orders and membership tests are exact.
A group built from generators (every named group) gets its chain from
scratch, so its transversals, and with them the enumeration order, do
not depend on how the group was reached.  A subgroup is made from its
generators, as a normal closure or as a commutator subgroup.  Normal
closures, commutator subgroups and cores grow through one step,
``PermGroup._grown_by``: it adds only non-members, one at a time, each
by extending a copy of the verified chain, keeping its transversal
entries and sifting only the Schreier pairs it has not checked.  The
levels below the first base point are a chain of that point's
stabilizer.

Two module constants bound the work, and each call reads them when it
runs: ``ELEMENT_CAP`` is the largest order a group may have to be
enumerated, and ``DEGREE_CAP`` the largest degree of a group, so also
the largest index of a coset walk, whose action has one point per coset.
``ELEMENT_CAP`` may be at most 2**31 - 1, the largest rank the int32
conjugation maps of a class table hold; the CLI refuses a larger
``REGULA_ELEMENT_CAP``.

A permutation is checked once, where it comes in: ``Permutation(...)``
of an outside value, and ``_element`` at each way into a group; a tuple
the package builds becomes one through ``_wrap``, unchecked.  Its order
and its cycle string read one walk of its cycles, ``_cycles_of``.
A permutation's degree is ``len(g)``, its image of x is ``g[x]``, and
composition is left-to-right: ``(a * b)[x] == b[a[x]]``.  A product
of image tuples is one C-level gather, ``itemgetter(*a)(b)``.  Each
level keeps its strong generators' inverses, so a new transversal entry
u * g gets its inverse as the product g^-1 * u^-1, not by inverting it;
a group keeps its generators' inverses, and a group extended by more
generators inverts only the new ones.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from operator import index, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded, DegreeMismatch, NotInGroup, NotNormal, RegulaError
from .numtheory import check_int

ELEMENT_CAP = 2_000_000
DEGREE_CAP = 2000


def check_element_cap(G: "PermGroup") -> None:
    """Refuse G when |G| exceeds ``ELEMENT_CAP`` as it stands now."""
    if G.order > ELEMENT_CAP:
        raise CapExceeded(f"order {G.order} exceeds the element cap {ELEMENT_CAP}")


def _mult(a, b):
    # apply a, then b; itemgetter of one index returns the bare item,
    # so degrees 0 and 1 build their tuple directly
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple([b[i] for i in a])


def _inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _conj(x, g, ginv):
    # g^-1 * x * g, left-to-right convention
    return _mult(_mult(ginv, x), g)


def _cycles_of(t):
    """The cycles of t that move a point, each from its least point, in
    the order of those points: the one walk over a permutation's cycles."""
    seen = bytearray(len(t))
    cycles = []
    for i, j in enumerate(t):
        if j == i or seen[i]:
            continue
        cyc = [i]
        while j != i:
            seen[j] = 1
            cyc.append(j)
            j = t[j]
        cycles.append(cyc)
    return cycles


def _order_of(t):
    return lcm(*map(len, _cycles_of(t)))


def _cycle_text(cycles):
    """``_cycles_of``'s cycles in 1-based notation; the identity is "()"."""
    return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycles) or "()"


def _merged_pairs(tuples):
    """(t, t^-1) pairs of a generating set of the group the tuples generate,
    no longer than the tuples.  While two commute and have coprime orders
    they are replaced by their product: <gh> = <g> x <h> holds both.
    Earlier entries need no second look: one that commutes with gh, its
    order prime to gh's, commutes with the powers g and h, its order
    prime to theirs, so it would have merged with g already."""
    gens = [(t, _order_of(t)) for t in tuples]
    i = 0
    while i < len(gens):
        a, oa = gens[i]
        for j in range(i + 1, len(gens)):
            b, ob = gens[j]
            ab = _mult(a, b)
            if gcd(oa, ob) == 1 and ab == _mult(b, a):
                gens[i] = (ab, oa * ob)
                del gens[j]
                break
        else:
            i += 1
    return tuple((t, _inv(t)) for t, _ in gens)


class Permutation(tuple):
    """A bijection of {0, ..., degree-1}: the validated tuple of its images,
    compared and hashed as that tuple; ``images`` is a read-only alias of it.
    A Permutation converts to itself, unchecked."""

    __slots__ = ()

    def __new__(cls, images: Sequence[int]):
        if type(images) is cls:
            return images  # validated when it was made
        try:  # integer images only: 1.0 sorts equal to 1 but indexes nothing
            t = tuple.__new__(cls, images)
            if sorted(map(index, t)) == list(range(len(t))):
                return t
        except TypeError:
            pass
        raise RegulaError(f"not a permutation: {images!r}")

    @property
    def images(self) -> "Permutation":
        return self

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(check_int("degree", degree)))
        try:  # a point outside range(degree) or not an int indexes nothing
            for cyc in cycles:
                for a, b in zip(cyc, cyc[1:]):
                    images[a] = b
                if cyc:
                    images[cyc[-1]] = cyc[0]
        except (IndexError, TypeError):
            raise RegulaError(f"cycles {cycles!r} are not on {degree} points") from None
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: Optional[int] = None) -> "Permutation":
        """Parse 1-based disjoint-cycle notation, e.g. "(1,2,3)(4,5)".

        The identity is written "()".  Points inside cycles may be
        separated by commas or spaces.  ``degree`` defaults to the largest
        point mentioned.
        """
        s = text.strip()
        if not re.fullmatch(r"(\(\s*(\d+(\s*[, ]\s*\d+)*)?\s*\)\s*)+", s):
            raise RegulaError(f"cannot parse permutation {text!r}")
        cycles = []
        for inner in re.findall(r"\(([^()]*)\)", s):
            pts = [int(p) for p in re.split(r"[,\s]+", inner.strip()) if p]
            if any(p < 1 for p in pts):
                raise RegulaError(f"points are 1-based in {text!r}")
            if len(set(pts)) != len(pts):
                raise RegulaError(f"repeated point inside a cycle in {text!r}")
            cycles.append([p - 1 for p in pts])
        need = max((max(c) + 1 for c in cycles if c), default=0)
        if degree is None:
            if need == 0:
                raise RegulaError("the identity needs an explicit degree")
            degree = need
        elif check_int("degree", degree) < need:
            raise RegulaError(f"degree {degree} too small for {text!r}")
        flat = [p for c in cycles for p in c]
        if len(set(flat)) != len(flat):
            raise RegulaError(f"cycles are not disjoint in {text!r}")
        return cls.from_cycles(degree, cycles)

    def __mul__(self, other: "Permutation") -> "Permutation":
        other = Permutation(other)
        if len(self) != len(other):
            raise DegreeMismatch(f"degree {len(self)} vs {len(other)}")
        return _wrap(_mult(self, other))

    def __add__(self, other):
        raise RegulaError("a permutation has no sum or repeat; p * q composes")

    __radd__ = __rmul__ = __add__

    def inverse(self) -> "Permutation":
        return _wrap(_inv(self))

    @property
    def is_identity(self) -> bool:
        return _first_moved(self) is None

    def order(self) -> int:
        return _order_of(self)

    def cycle_string(self) -> str:
        return _cycle_text(_cycles_of(self))

    __str__ = cycle_string

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={len(self)})"


def _element(g, degree):
    """g, a Permutation or any image sequence, validated as a Permutation of ``degree``:
    the one check at each way into a group (``PermGroup``, ``contains``, ``in``,
    ``normal_closure``).  The chain's loops sift the tuples they build unchecked."""
    g = Permutation(g)
    if len(g) != degree:
        raise DegreeMismatch(f"element degree {len(g)}, group degree {degree}")
    return g


def _wrap(t):
    """t, an image tuple the package built from permutations, as a Permutation, unchecked."""
    return tuple.__new__(Permutation, t)


class _Level:
    __slots__ = ("point", "ident", "gens", "gen_invs", "transversal", "checked")

    def __init__(self, point, ident):
        self.point = point
        self.ident = ident
        self.gens = []            # strong generators fixing all shallower base points
        self.gen_invs = []        # their inverses, in the same order
        self.transversal = {point: (ident, ident)}  # orbit pt -> (u, uinv), u[point] = pt
        self.checked = {}         # orbit pt -> how many leading gens its Schreier pairs passed

    def copy(self):
        new = _Level(self.point, self.ident)
        new.gens = list(self.gens)
        new.gen_invs = list(self.gen_invs)
        new.transversal = dict(self.transversal)
        new.checked = dict(self.checked)
        return new

    def add_gen(self, h, hinv, keep):
        """Append the strong generator h, with its inverse hinv, and close
        the orbit under it.

        With ``keep`` every transversal entry and checked pair stays: the
        orbit grows from old points under h and from new points under all
        generators.  Without it the orbit is rebuilt from the base point
        and every pair is unchecked again.  A new entry u * g is stored
        with its inverse g^-1 * u^-1.
        """
        self.gens.append(h)
        self.gen_invs.append(hinv)
        trans = self.transversal
        if keep:
            queue = []
            for a in list(trans):
                c = h[a]
                if c not in trans:
                    u, uinv = trans[a]
                    trans[c] = (_mult(u, h), _mult(hinv, uinv))
                    queue.append(c)
        else:
            trans = self.transversal = {self.point: (self.ident, self.ident)}
            self.checked = {}
            queue = [self.point]
        i = 0
        while i < len(queue):
            a = queue[i]
            i += 1
            u, uinv = trans[a]
            for g, ginv in zip(self.gens, self.gen_invs):
                c = g[a]
                if c not in trans:
                    trans[c] = (_mult(u, g), _mult(ginv, uinv))
                    queue.append(c)


def _first_moved(t):
    for i, j in enumerate(t):
        if i != j:
            return i
    return None


def _strip(levels, g, start=0):
    """Sift g through ``levels[start:]``: the residue and the level where it stopped."""
    i = start
    for lvl in levels[start:]:
        entry = lvl.transversal.get(g[lvl.point])
        if entry is None:
            break
        g = _mult(g, entry[1])
        i += 1
    return g, i


def _schreier_sims(degree, gen_tuples, chain=None):
    """Deterministic Schreier-Sims. Returns the verified list of levels.

    From scratch, each new strong generator rebuilds the orbits it joins.
    Given the verified levels ``chain`` of a subgroup, it extends copies
    of them by ``gen_tuples`` instead: transversal entries are kept, so a
    Schreier pair that once sifted to the identity stays verified, and
    only the pairs not yet checked are sifted.
    """
    ident = tuple(range(degree))
    keep = chain is not None
    levels = [lvl.copy() for lvl in chain] if keep else []

    def add_strong_gen(h, upto):
        # h fixes base[0..upto-1]; it belongs to every level <= upto
        if upto == len(levels):
            levels.append(_Level(_first_moved(h), ident))
        hinv = _inv(h)
        for j in range(upto + 1):
            levels[j].add_gen(h, hinv, keep)

    for g in gen_tuples:
        h, lev = _strip(levels, g)
        if h != ident:
            add_strong_gen(h, lev)

    # Bottom-up verification: sift every unchecked Schreier generator.
    i = len(levels) - 1
    while i >= 0:
        lvl = levels[i]
        gens = lvl.gens
        failed_at = None
        for beta in sorted(lvl.transversal):
            k = lvl.checked.get(beta, 0)
            u = lvl.transversal[beta][0]
            h = ident
            while k < len(gens):
                s = gens[k]
                sg = _mult(_mult(u, s), lvl.transversal[s[beta]][1])
                if sg != ident:
                    h, lev = _strip(levels, sg, i + 1)
                    if h != ident:
                        break
                k += 1
            lvl.checked[beta] = k
            if h != ident:
                add_strong_gen(h, lev)
                failed_at = lev
                break
        if failed_at is not None:
            i = failed_at
        else:
            i -= 1
    return levels


def _chain_elements(levels, ident):
    """Every element of the group with the chain ``levels``, as image tuples.

    An element is u_{k-1} * ... * u_1 * u_0 over transversal choices,
    taken in sorted orbit order with the level-0 choice varying fastest,
    so each step costs one product.  A slice ``levels[j:]`` enumerates
    the stabiliser of the first j base points in the same order.
    """
    orbits = [sorted(lvl.transversal) for lvl in levels]
    trans = [lvl.transversal for lvl in levels]
    k = len(orbits)
    idx = [0] * k
    suffix = [ident] * (k + 1)  # suffix[j] = u_{k-1} * ... * u_j, current choices
    for j in range(k - 1, -1, -1):
        suffix[j] = _mult(suffix[j + 1], trans[j][orbits[j][0]][0])
    while True:
        yield suffix[0]
        j = 0
        while j < k:
            idx[j] += 1
            if idx[j] < len(orbits[j]):
                break
            idx[j] = 0
            j += 1
        if j == k:
            return
        for m in range(j, -1, -1):
            suffix[m] = _mult(suffix[m + 1], trans[m][orbits[m][idx[m]]][0])


class PermGroup:
    """A permutation group with a verified base and strong generating set.

    The generators and the chain are fixed at construction.  Derived
    results (class tables, cores and the derived series) are computed on
    first use and memoised on the instance through ``_cached``, so no
    thread-safety is promised.  Closures and the Fitting subgroup are
    not memoised.

    ``generators`` are kept in the order given, each converted to a
    validated ``Permutation`` and the identity dropped: the chain is built
    from them, and the coset walk acts by them.  The loops that
    need only some generating set (the class partition, normal and
    commutator closures, ``is_normal_in`` and the cores' tests) conjugate
    by ``_gen_pairs``, a generating set as (t, t^-1) pairs in which
    commuting generators of coprime orders are merged into their product.
    """

    def __init__(self, generators: Iterable[Sequence[int]], degree: Optional[int] = None):
        gens = [Permutation(g) for g in generators]  # a one-shot sequence is read once
        if degree is None:
            if not gens:
                raise RegulaError("need generators or an explicit degree")
            degree = len(gens[0])
        if check_int("degree", degree) < 1 or degree > DEGREE_CAP:
            raise CapExceeded(f"degree {degree} outside [1, {DEGREE_CAP}]")
        gens = [_element(g, degree) for g in gens]
        gens = tuple(g for g in gens if not g.is_identity)
        self._setup(degree, gens, _merged_pairs(gens), _schreier_sims(degree, gens))

    def _setup(self, degree, generators, gen_pairs, levels):
        # gen_pairs: (t, t^-1) pairs of a generating set, no longer than
        # generators: merged at construction, extended pairs appended as they are
        self.degree = degree
        self._ident = tuple(range(degree))
        self.generators = generators
        self._gen_pairs = gen_pairs
        self._levels = levels
        o = 1
        for lvl in self._levels:
            o *= len(lvl.transversal)
        self.order = o
        self._cache = {}

    # -- basic data ------------------------------------------------------

    @property
    def base(self) -> tuple:
        return tuple(lvl.point for lvl in self._levels)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def fundamental_orbit_lengths(self) -> tuple:
        return tuple(len(lvl.transversal) for lvl in self._levels)

    def __repr__(self):
        return f"<PermGroup degree={self.degree} order={self.order} gens={len(self.generators)}>"

    def _cached(self, key, compute):
        """The memoised value under ``key``, computing it on the first call."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    # -- membership ------------------------------------------------------

    def contains(self, g: Sequence[int]) -> bool:
        """Whether the permutation whose images are g, a Permutation or a sequence, is a member."""
        return _strip(self._levels, _element(g, self.degree))[0] == self._ident

    __contains__ = contains

    def contains_subgroup(self, other: "PermGroup") -> bool:
        return other.degree == self.degree and all(map(self.contains, other.generators))

    # -- enumeration -----------------------------------------------------

    def _raw_elements(self) -> Iterator[tuple]:
        check_element_cap(self)
        return _chain_elements(self._levels, self._ident)

    def elements(self) -> Iterator[Permutation]:
        """Yield each element exactly once; raises CapExceeded if order > ELEMENT_CAP."""
        for t in self._raw_elements():
            yield _wrap(t)

    # -- subgroup constructions ------------------------------------------

    def _grown_by(self, tuples):
        """This group with each of ``tuples`` that is not yet a member added,
        one at a time and in order; the identity and members never become
        generators.  Each addition extends a copy of the verified chain by
        that one generator, sifting only the Schreier pairs not yet checked,
        and appends its (t, t^-1) pair unmerged, t as a Permutation."""
        H = self
        for t in tuples:
            if _strip(H._levels, t)[0] != H._ident:
                t = _wrap(t)
                G, H = H, PermGroup.__new__(PermGroup)
                H._setup(G.degree, G.generators + (t,), G._gen_pairs + ((t, _inv(t)),),
                         _schreier_sims(G.degree, (t,), chain=G._levels))
        return H

    def normal_closure(self, seeds: Iterable[Sequence[int]]) -> "PermGroup":
        """Smallest normal subgroup containing ``seeds``, permutations or image sequences."""
        seeds = [_element(s, self.degree) for s in seeds]
        for s in seeds:
            if not self.contains(s):
                raise NotInGroup(f"seed {s} is not in the group")
        return self._closure(seeds)

    def _closure(self, tuples):
        """Smallest normal subgroup containing ``tuples``, members of this
        group that the package built, so none of them is validated."""
        H = PermGroup([], degree=self.degree)._grown_by(tuples)
        # generators are only appended, so each one's conjugates are tested once
        i = 0
        while i < len(H.generators):
            h = H.generators[i]
            i += 1
            H = H._grown_by(_conj(h, g, ginv) for g, ginv in self._gen_pairs)
        return H

    def _commutator_closure(self, H: "PermGroup") -> "PermGroup":
        """Normal closure of the commutators [a, b] of the generators a of
        this group with the generators b of H."""
        comms = dict.fromkeys(_mult(_mult(ainv, binv), _mult(a, b))
                              for a, ainv in self._gen_pairs for b, binv in H._gen_pairs)
        return self._closure(comms)

    def commutator_subgroup(self) -> "PermGroup":
        """Normal closure of the pairwise generator commutators."""
        return self._commutator_closure(self)

    def _series(self, step) -> list["PermGroup"]:
        # apply step until the term is trivial or its order stops falling
        series = [self]
        while not series[-1].is_trivial:
            series.append(step(series[-1]))
            if series[-1].order == series[-2].order:
                break
        return series

    def derived_series(self) -> list["PermGroup"]:
        """G >= G' >= G'' >= ... down to the trivial group, or with the
        stable term repeated once when the series stops above it.
        Memoised: the last term is the solvable residual the radical uses.
        The memo holds the terms below G only, so it makes no reference
        cycle that would keep G alive until the cyclic collector runs."""
        below = self._cached("derived_series",
                             lambda: tuple(self._series(PermGroup.commutator_subgroup)[1:]))
        return [self, *below]

    def lower_central_series(self) -> list["PermGroup"]:
        """G >= [G,G] >= [G,[G,G]] >= ... down to the trivial group, or
        with the stable term repeated once."""
        return self._series(self._commutator_closure)

    def derived_length(self) -> Optional[int]:
        series = self.derived_series()
        if not series[-1].is_trivial:
            return None
        return len(series) - 1

    # -- quotients ---------------------------------------------------------

    def is_normal_in(self, G: "PermGroup") -> bool:
        if self.degree != G.degree or not G.contains_subgroup(self):
            return False
        for h in self.generators:
            for g, ginv in G._gen_pairs:
                if _strip(self._levels, _conj(h, g, ginv))[0] != self._ident:
                    return False
        return True

    def _coset_canonical(self, t):
        # Greedy lexicographic minimisation of base-point images over the
        # coset N*t; two elements reduce to the same tuple iff same coset.
        for lvl in self._levels:
            if len(lvl.transversal) > 1:
                o = min(lvl.transversal, key=t.__getitem__)
                t = _mult(lvl.transversal[o][0], t)
        return t

    def _coset_walk(self, N: "PermGroup"):
        """Breadth-first walk over the right cosets of a subgroup N <= G.

        Returns the canonical coset representatives, identity coset first,
        and for each generator the list of coset numbers it sends the
        representatives to: the coset action, one point per coset, so an
        index above ``DEGREE_CAP`` is refused before the walk.
        """
        index = self.order // N.order
        if index > DEGREE_CAP:
            raise CapExceeded(f"index {index} exceeds the degree cap {DEGREE_CAP}")
        start = N._coset_canonical(self._ident)
        reps = [start]
        number = {start: 0}
        images = [[] for _ in self.generators]
        i = 0
        while i < len(reps):
            r = reps[i]
            for gi, g in enumerate(self.generators):
                c = N._coset_canonical(_mult(r, g))
                j = number.get(c)
                if j is None:
                    j = len(reps)
                    number[c] = j
                    reps.append(c)
                images[gi].append(j)
            i += 1
        return reps, images

    def quotient(self, N: "PermGroup") -> "PermGroup":
        """Faithful image of G/N as the coset action, for normal N <= G."""
        if not N.is_normal_in(self):
            raise NotNormal("subgroup is not normal")
        reps, images = self._coset_walk(N)
        index = self.order // N.order
        if len(reps) != index:
            raise RegulaError("coset enumeration disagrees with the index")
        Q = PermGroup(images, degree=index)
        if Q.order * N.order != self.order:
            raise RegulaError("quotient order check failed")
        return Q
