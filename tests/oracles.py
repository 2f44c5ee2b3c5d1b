"""Set-based brute-force oracles, independent of the stabilizer chain.

Everything here works on plain image tuples with explicit set closure,
so a bug in the chain machinery cannot hide: the same quantity is
recomputed a second way and compared.
"""

from math import lcm


def mult(a, b):
    # apply a, then b; matches the package convention
    return tuple(b[x] for x in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


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


def closure(gen_tuples, limit=None):
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
                    if limit is not None and len(elems) > limit:
                        raise OverflowError("closure exceeded the oracle limit")
        frontier = new
    return elems


def conj_classes(elements, gen_tuples):
    """Partition a set of tuples into conjugation orbits (set-based)."""
    pairs = [(g, inv(g)) for g in gen_tuples]
    remaining = set(elements)
    classes = []
    while remaining:
        x = min(remaining)
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, gi in pairs:
                z = mult(mult(gi, y), g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        remaining -= orbit
        classes.append(orbit)
    return classes


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


def normal_closure_set(elements, seed, gen_tuples):
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
    m = n
    p = 2
    primes = []
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    for p in primes:
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
