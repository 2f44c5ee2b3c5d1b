"""Set-based brute-force oracles, independent of the stabilizer chain.

This is the one place where a test computes a reference value, with one
implementation of each quantity.  Everything here works on plain image
tuples with explicit set closure and imports nothing from ``regula``
(``test_guards`` checks this), so a bug in the chain machinery cannot
hide: the same quantity is recomputed a second way and compared.  A
group is read only through its ``generators``, each with ``images``,
and its ``degree``.  The one chain here is ``schreier_sims``, the eager
construction that makes every transversal entry at once and sifts every
Schreier pair: the package's chain must equal it in every detail.
"""

import hashlib
import json
from math import lcm


def mult(a, b):
    # apply a, then b; matches the package convention
    return tuple(b[x] for x in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def power(t, k):
    """t^k, by repeated squaring."""
    out, sq = tuple(range(len(t))), tuple(t)
    while k:
        if k & 1:
            out = mult(out, sq)
        sq, k = mult(sq, sq), k >> 1
    return out


def order_of(t):
    n = len(t)
    seen = [False] * n
    o = 1
    for i in range(n):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = t[j]
            length += 1
        o = lcm(o, max(length, 1))
    return o


def cycle_text(t):
    """t in 1-based disjoint cycle notation, each cycle written from its
    least point, in the order of those points; "()" for the identity."""
    seen = set()
    cycles = []
    for i in range(len(t)):
        if t[i] == i or i in seen:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(str(j + 1))
            j = t[j]
        cycles.append("(" + ",".join(cyc) + ")")
    return "".join(cycles) or "()"


def prime_divisors(n):
    """The primes dividing n, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def closure(gen_tuples):
    """All products of the generators, by breadth-first multiplication."""
    if not gen_tuples:
        return set()
    n = len(gen_tuples[0])
    elems = {tuple(range(n))}
    frontier = [g for g in gen_tuples if g not in elems]
    elems.update(frontier)
    while frontier:
        new = []
        for t in frontier:
            for g in gen_tuples:
                u = mult(t, g)
                if u not in elems:
                    elems.add(u)
                    new.append(u)
        frontier = new
    return elems


def generator_tuples(G):
    return [g.images for g in G.generators]


def elements_of(G):
    """The element set of G, closed from its generators; the identity
    alone when G has none."""
    return closure(generator_tuples(G)) or {tuple(range(G.degree))}


def _conj_orbit(seeds, gen_tuples):
    """The union of the conjugation orbits of ``seeds`` under the group."""
    pairs = [(g, inv(g)) for g in gen_tuples]
    orbit = set(seeds)
    queue = list(orbit)
    while queue:
        y = queue.pop()
        for g, gi in pairs:
            z = mult(mult(gi, y), g)
            if z not in orbit:
                orbit.add(z)
                queue.append(z)
    return orbit


def conj_classes(elements, gen_tuples):
    """Partition a set of tuples into conjugation orbits (set-based)."""
    remaining = set(elements)
    classes = []
    while remaining:
        orbit = _conj_orbit([min(remaining)], gen_tuples)
        remaining -= orbit
        classes.append(orbit)
    return classes


def class_table(G):
    """G's (element order, class size) pairs, sorted."""
    classes = conj_classes(elements_of(G), generator_tuples(G))
    return sorted((order_of(min(c)), len(c)) for c in classes)


def fused_counts(G, N, p):
    """(p, k_total, k_regular, k_singular) of the orbits of G on the normal
    subgroup N by conjugation."""
    orbits = conj_classes(elements_of(N), generator_tuples(G))
    regular = sum(1 for c in orbits if order_of(min(c)) % p != 0)
    return p, len(orbits), regular, len(orbits) - regular


def _generated(items):
    """The subgroup generated by ``items`` and a small generating subset.

    The subgroup is grown by adding an uncovered item and re-closing, at
    most log2 of its order times.
    """
    ordered = sorted(items)
    gens = [ordered[0]]
    sub = closure(gens)
    for t in ordered:
        if t not in sub:
            gens.append(t)
            sub = closure(gens)
    return sub, gens


def normal_closure_set(seed, gen_tuples):
    """<seed^G> as an element set: conjugate orbit, then subgroup closure."""
    orbit = _conj_orbit([seed], gen_tuples)
    sub, _ = _generated(orbit)
    assert orbit <= sub
    return sub


def is_p_group_order(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def nilpotent_set(elements):
    """A finite group is nilpotent iff, for each prime p, the p-power-order
    elements are exactly as many as the p-part of the order (the unique
    normal Sylow subgroup)."""
    n = len(elements)
    orders = [order_of(t) for t in elements]
    for p in prime_divisors(n):
        ppart = 1
        q = n
        while q % p == 0:
            q //= p
            ppart *= p
        count = sum(1 for o in orders if is_p_group_order(o, p))
        if count != ppart:
            return False
    return True


def derived_subgroup_set(elements):
    """H' as an element set: the normal closure in H of the commutators
    [s, t] of a generating subset S of H, since H' = <[s, t]>^H."""
    _, gens = _generated(elements)
    comms = {mult(mult(inv(a), inv(b)), mult(a, b)) for a in gens for b in gens}
    sub, _ = _generated(_conj_orbit(comms, gens))
    return sub


def solvable_set(elements, max_steps=20):
    cur = set(elements)
    for _ in range(max_steps):
        if len(cur) == 1:
            return True
        nxt = derived_subgroup_set(cur)
        if len(nxt) == len(cur):
            return False
        cur = nxt
    raise RuntimeError("derived series did not stabilise")


def core_orders(G):
    """The order of every core of G, from one closure of G: keys
    ("p-core", p) and ("p-prime-core", p) for each prime p dividing |G|,
    "solvable-radical" and "fitting".

    Each core is the join of the normal closures <x^G> that have its
    defining property: a p-group, a p'-group, solvable or nilpotent.
    """
    gens = generator_tuples(G)
    elems = elements_of(G)
    primes = prime_divisors(len(elems))
    closures = {frozenset(normal_closure_set(min(c), gens))
                for c in conj_classes(elems, gens) if order_of(min(c)) != 1}
    members = {}
    for cl in closures:
        n = len(cl)
        kinds = [("p-core", p) for p in primes if is_p_group_order(n, p)]
        kinds += [("p-prime-core", p) for p in primes if n % p]
        if solvable_set(cl):
            kinds.append("solvable-radical")
        if nilpotent_set(cl):
            kinds.append("fitting")
        for kind in kinds:
            members.setdefault(kind, set()).update(cl)
    keys = [(kind, p) for p in primes for kind in ("p-core", "p-prime-core")]
    return {key: len(_generated(members[key])[0]) if key in members else 1
            for key in keys + ["solvable-radical", "fitting"]}



def _strip(levels, g, start=0):
    """Sift g through ``levels[start:]``: the residue and the level where it stopped."""
    i = start
    for lvl in levels[start:]:
        entry = lvl["transversal"].get(g[lvl["point"]])
        if entry is None:
            break
        g = mult(g, entry[1])
        i += 1
    return g, i


def _add_gen(lvl, h, hinv, keep):
    # append h and close the orbit, building every (u, u^-1) at once
    lvl["gens"].append(h)
    lvl["gen_invs"].append(hinv)
    trans = lvl["transversal"]
    if keep:
        queue = []
        for a in list(trans):
            c = h[a]
            if c not in trans:
                u, uinv = trans[a]
                trans[c] = (mult(u, h), mult(hinv, uinv))
                queue.append(c)
    else:
        ident = tuple(range(len(h)))
        trans = lvl["transversal"] = {lvl["point"]: (ident, ident)}
        lvl["checked"] = {}
        queue = [lvl["point"]]
    i = 0
    while i < len(queue):
        a = queue[i]
        i += 1
        u, uinv = trans[a]
        for g, ginv in zip(lvl["gens"], lvl["gen_invs"]):
            c = g[a]
            if c not in trans:
                trans[c] = (mult(u, g), mult(ginv, uinv))
                queue.append(c)


def schreier_sims(degree, gen_tuples, chain=None):
    """The deterministic Schreier-Sims with eager transversals, the
    reference for the package's chain: each level is a dict of its base
    point, its strong generators and their inverses, its transversal
    (orbit point -> (u, u^-1), in insertion order) and its checked counts.
    From scratch each new strong generator rebuilds every (u, u^-1) of
    the orbits it joins; given the levels ``chain`` it extends copies of
    them, keeping their entries and checked counts.  Every Schreier pair
    not yet checked is formed as a product and sifted."""
    ident = tuple(range(degree))
    keep = chain is not None
    levels = [{"point": lvl["point"], "gens": list(lvl["gens"]), "gen_invs": list(lvl["gen_invs"]),
               "transversal": dict(lvl["transversal"]), "checked": dict(lvl["checked"])}
              for lvl in chain or []]

    def add_strong_gen(h, upto):
        if upto == len(levels):
            point = next(x for x in range(degree) if h[x] != x)
            levels.append({"point": point, "gens": [], "gen_invs": [],
                           "transversal": {point: (ident, ident)}, "checked": {}})
        hinv = inv(h)
        for j in range(upto + 1):
            _add_gen(levels[j], h, hinv, keep)

    for g in gen_tuples:
        h, lev = _strip(levels, g)
        if h != ident:
            add_strong_gen(h, lev)
    i = len(levels) - 1
    while i >= 0:
        lvl = levels[i]
        gens = lvl["gens"]
        failed_at = None
        for beta in sorted(lvl["transversal"]):
            k = lvl["checked"].get(beta, 0)
            u = lvl["transversal"][beta][0]
            h = ident
            while k < len(gens):
                s = gens[k]
                sg = mult(mult(u, s), lvl["transversal"][s[beta]][1])
                if sg != ident:
                    h, lev = _strip(levels, sg, i + 1)
                    if h != ident:
                        break
                k += 1
            lvl["checked"][beta] = k
            if h != ident:
                add_strong_gen(h, lev)
                failed_at = lev
                break
        i = i - 1 if failed_at is None else failed_at
    return levels


def grown_by(degree, levels, tuples):
    """``levels`` extended by each of ``tuples`` that does not sift to the
    identity, one at a time and in order."""
    for t in tuples:
        if _strip(levels, t)[0] != tuple(range(degree)):
            levels = schreier_sims(degree, [t], chain=levels)
    return levels


def chain_state(levels):
    """Each level's whole state, insertion orders included: base point,
    strong generators, their inverses, transversal items and checked items."""
    return [(lvl["point"], list(lvl["gens"]), list(lvl["gen_invs"]),
             list(lvl["transversal"].items()), list(lvl["checked"].items())) for lvl in levels]

def json_digest(docs):
    """The sha256 hex digest of the docs' JSON texts, sorted keys, one
    after another: one pinned string fixes a whole table."""
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()
