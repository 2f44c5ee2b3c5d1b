#!/usr/bin/env python3
"""Regenerate the bundled generator data files from first principles.

Every group is constructed here from scratch (card-shuffle generators,
projective planes, unitary geometry, the Suzuki ovoid), certified by its
order and conjugacy fingerprint, and written to src/regula/data/.  The
package itself only ever loads the frozen files and re-certifies them.

Each group is built along one path.  The plane's 21 lines are computed
once as point sets, and a collineation moves each line as it moves the
line's points.  Sz(8) is built from one set of translations and one
torus.  The element of M12 that conjugates like the square of the outer
automorphism is found by a scan of M12.

The certificates are asserts, so the script refuses to run under
``python -O``.

Run from the repository root:  python3 tools/build_atlas_data.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from itertools import combinations

from regula.classes import conjugacy_classes
from regula.constructors import _data_path, _mat_apply, _normalize_point, _plane_points
from regula.ffield import add, frobenius, inv, make_field, mul
from regula.perm_core import PermGroup, Permutation, _mult


def write_group(name, G, comment):
    table = conjugacy_classes(G)
    sizes = ",".join(str(s) for s in table.class_size_multiset())
    path = _data_path(name)
    with open(path, "w", encoding="ascii") as fh:
        for line in comment.strip().splitlines():
            fh.write(f"# {line}\n")
        fh.write(f"name: {name}\n")
        fh.write(f"degree: {G.degree}\n")
        fh.write(f"order: {G.order}\n")
        fh.write(f"class_sizes: {sizes}\n")
        for g in G.generators:
            fh.write(g.cycle_string() + "\n")
    print(f"wrote {path}: order {G.order}, degree {G.degree}, "
          f"{len(G.generators)} generators, {table.k_total} classes")


def reduce_generators(G):
    """The first generating pair in a fixed scan of the generators and
    their products."""
    gens = list(G.generators)
    if len(gens) <= 2:
        return G
    pool = gens + [g * h for g in gens for h in gens if not (g * h).is_identity][:40]
    seen = []
    for g in pool:
        if g not in seen and not g.is_identity:
            seen.append(g)
    for a, b in combinations(seen, 2):
        H = PermGroup([a, b], degree=G.degree)
        if H.order == G.order:
            return H
    raise AssertionError("no generating pair among the generators and their products")


# -- M12, M11 ---------------------------------------------------------------

def build_m12():
    """Card-shuffle generators: alternating top/bottom placement plus the
    deck reversal generate the sharply 5-transitive group on 12 points."""
    out = []
    for c in range(12):
        if not out or c % 2 == 0:
            out.append(c)
        else:
            out.insert(0, c)
    shuffle = [0] * 12
    for pos, card in enumerate(out):
        shuffle[card] = pos
    rev = [11 - i for i in range(12)]
    G = PermGroup([shuffle, rev])
    assert G.order == 95040, G.order
    assert G.fundamental_orbit_lengths()[:5] == (12, 11, 10, 9, 8)
    return G


def build_m11(M12):
    # the chain below the first base point is a chain of the stabilizer of 0
    assert M12.base[0] == 0
    st_gens = dict.fromkeys(g for lvl in M12._levels[1:] for g in lvl.gens)
    gens11 = [[g[j + 1] - 1 for j in range(11)] for g in st_gens]
    M11 = reduce_generators(PermGroup(gens11))
    assert M11.order == 7920
    t = conjugacy_classes(M11)
    assert t.element_order_multiset() == (1, 2, 3, 4, 5, 6, 8, 8, 11, 11)
    return M11


# -- M12.2 -------------------------------------------------------------------

def find_transitive_m11(M12):
    """The unique transitive point stabilizer-sized subgroup through a fixed
    11-element, found by a deterministic scan."""
    x = None
    for g in M12.elements():
        if g.order() == 11:
            x = g
            break
    assert x is not None
    for g in M12.elements():
        H = PermGroup([x, g], degree=12)
        if H.order == 7920 and H.fundamental_orbit_lengths()[0] == 12:
            return H
    raise AssertionError("no transitive subgroup of order 7920 found")


def hexad_system(gens):
    """Orbit of a 6-set under the group; the Steiner system has 132 blocks.

    Scans base 6-sets until one has an orbit of 132 blocks whose 5-subsets
    are 792 distinct sets.  As 132 * 6 = 792 = C(12, 5), every 5-set then
    lies in exactly one block.
    """
    for base in combinations(range(12), 6):
        orbit = {frozenset(base)}
        queue = [frozenset(base)]
        while queue and len(orbit) <= 132:
            s = queue.pop()
            for g in gens:
                t = frozenset(g[p] for p in s)
                if t not in orbit:
                    orbit.add(t)
                    queue.append(t)
        if len(orbit) == 132 and len({five for blk in orbit
                                      for five in combinations(sorted(blk), 5)}) == 792:
            return orbit
    raise AssertionError("no Steiner system found in the 6-set orbits")


def design_isomorphism(blocks_from, blocks_to):
    """A bijection of points carrying one block system onto the other."""
    from_sets = [set(b) for b in blocks_from]
    to_set = set(blocks_to)

    def extend(mapping, used):
        placed = len(mapping)
        if placed == 12:
            return dict(mapping)
        # prune: every block with >= 5 placed points forces its image
        for blk in from_sets:
            placed_pts = [p for p in blk if p in mapping]
            if len(placed_pts) >= 5:
                img = {mapping[p] for p in placed_pts}
                hits = [b for b in to_set if img <= b]
                if not hits:
                    return None
        nxt = min(set(range(12)) - set(mapping))
        for cand in range(12):
            if cand in used:
                continue
            mapping[nxt] = cand
            used.add(cand)
            # local consistency: fully mapped 6-sets must be blocks
            consistent = True
            for blk in from_sets:
                if all(p in mapping for p in blk):
                    if frozenset(mapping[p] for p in blk) not in to_set:
                        consistent = False
                        break
            if consistent:
                res = extend(mapping, used)
                if res is not None:
                    return res
            del mapping[nxt]
            used.discard(cand)
        return None

    mapping = extend({}, set())
    assert mapping is not None, "design isomorphism search failed"
    return Permutation([mapping[i] for i in range(12)])


def build_m12_2(M12):
    H = find_transitive_m11(M12)
    # the action on the right cosets of H (not normal)
    reps, images = M12._coset_walk(H)
    copy2 = PermGroup(images, degree=12)
    assert copy2.order == 95040

    hex1 = hexad_system(M12.generators)
    hex2 = hexad_system(copy2.generators)
    u = design_isomorphism(hex2, hex1)
    uinv = u.inverse()

    # sigma = conj_u o psi maps the group back into itself and is outer
    # (the coset space of a transitive subgroup is not the natural action)
    Hcanon = H._coset_canonical
    number = {r: i for i, r in enumerate(reps)}

    def psi_any(perm):
        return Permutation([number[Hcanon(_mult(r, perm))] for r in reps])

    def sigma_any(perm):
        return uinv * psi_any(perm) * u

    g1, g2 = M12.generators
    s1, s2 = sigma_any(g1), sigma_any(g2)
    assert M12.contains(s1) and M12.contains(s2)
    # sigma squared is conjugation by the one w in M12 with w^-1 g w =
    # sigma^2(g) for both generators: M12 has trivial centraliser in Sym(12)
    ss1, ss2 = sigma_any(s1), sigma_any(s2)
    w = next((w for w in M12.elements() if g1 * w == w * ss1 and g2 * w == w * ss2), None)
    assert w is not None

    def stack(a, b):
        return (*a, *(12 + x for x in b))

    tau = [12 + x for x in w] + list(range(12))
    K = PermGroup([stack(g1, s1), stack(g2, s2), tau], degree=24)
    assert K.order == 190080, K.order
    return reduce_generators(K)


# -- the PSL3(4) family -------------------------------------------------------

def build_l34_family():
    F = make_field(2, 2)
    pts = _plane_points(4)
    assert len(pts) == 21
    pt_index = {p: i for i, p in enumerate(pts)}

    # line u is the set of points v with u . v = 0, labelled 21 plus the
    # index of u; a collineation moves each line as it moves its points
    lines = [frozenset(i for i, v in enumerate(pts) if not _mat_apply(F, (u,), v)[0])
             for u in pts]
    line_label = {line: 21 + i for i, line in enumerate(lines)}

    def collineation(point_map):
        images = [pt_index[_normalize_point(F, point_map(v))] for v in pts]
        return Permutation(images + [line_label[frozenset(images[p] for p in line)]
                                     for line in lines])

    def matrix_perm(m):
        return collineation(lambda v: _mat_apply(F, m, v))

    g = F[2][1]                     # exp[1], the primitive element
    cyc = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    t1 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    t2 = ((1, g, 0), (0, 1, 0), (0, 0, 1))
    l34 = PermGroup([matrix_perm(m) for m in (cyc, t1, t2)], degree=42)
    assert l34.order == 20160, l34.order

    frob = collineation(lambda v: tuple(frobenius(F, c) for c in v))
    dual = [21 + i for i in range(21)] + list(range(21))
    # diagonal automorphism: any matrix whose determinant is not a cube
    diag = matrix_perm(((g, 0, 0), (0, 1, 0), (0, 0, 1)))

    A = PermGroup(list(l34.generators) + [diag, frob, dual], degree=42)
    assert A.order == 241920, A.order

    reps = [Permutation(r) for r in A._coset_walk(l34)[0]]
    # A/L34 acts regularly on the 12 cosets, so an element x is named by
    # x(0), the coset it sends coset 0 (L34 itself) to
    Q = A.quotient(l34)
    elements = list(Q.elements())
    classes = sorted(sorted({(y.inverse() * c.representative * y)[0] for y in elements})
                     for c in conjugacy_classes(Q).classes if c.element_order == 2)
    assert sorted(map(len, classes)) == [1, 3, 3], classes

    central = [c for c in classes if len(c) == 1][0][0]
    noncentral = [c[0] for c in classes if len(c) > 1]

    exts = {}
    for tag, idx in (("z", central), ("a", noncentral[0]), ("b", noncentral[1])):
        Hsub = PermGroup(list(l34.generators) + [reps[idx]], degree=42)
        assert Hsub.order == 40320, (tag, Hsub.order)
        exts[tag] = Hsub

    # Klein extension: central involution plus one non-central
    K4 = PermGroup(list(l34.generators) + [reps[central], reps[noncentral[0]]],
                   degree=42)
    assert K4.order == 80640, K4.order

    labelled = {}
    kregs = {}
    for tag, Hsub in exts.items():
        kregs[tag] = conjugacy_classes(Hsub).counts(2).k_regular
    four = [tag for tag, k in kregs.items() if k == 4]
    five = [tag for tag, k in kregs.items() if k == 5]
    assert len(four) == 1 and len(five) == 2, kregs
    labelled["L34.2_1"] = exts[four[0]]
    fives = sorted(five, key=lambda tag: conjugacy_classes(exts[tag]).class_size_multiset())
    labelled["L34.2_2"] = exts[fives[0]]
    labelled["L34.2_3"] = exts[fives[1]]
    labelled["L34.2^2"] = K4
    labelled["L34"] = l34
    assert conjugacy_classes(K4).counts(2).k_regular == 4
    return labelled


# -- PSU3(3) -------------------------------------------------------------------

def build_u33():
    F = make_field(3, 2)

    def conj(x):
        return frobenius(F, x)

    def herm(u, v):
        return _mat_apply(F, (u,), tuple(conj(c) for c in v))[0]

    vecs = [(x, y, z) for x in range(9) for y in range(9) for z in range(9)][1:]
    iso = []
    seen = set()
    for v in vecs:
        if not herm(v, v):
            n = _normalize_point(F, v)
            if n not in seen:
                seen.add(n)
                iso.append(n)
    assert len(iso) == 28, len(iso)
    index = {p: i for i, p in enumerate(iso)}

    # unitary reflections x -> x + h(x,v)/h(v,v) v along anisotropic v
    # generate the full unitary group; grow greedily until the point
    # action has the right order
    def refl_perm(v):
        hinv = inv(F, herm(v, v))

        def r(x):
            coef = mul(F, herm(x, v), hinv)
            return tuple(add(F, x[i], mul(F, coef, v[i])) for i in range(3))

        return Permutation([index[_normalize_point(F, r(p))] for p in iso])

    G = PermGroup([], degree=28)
    for v in vecs:
        if herm(v, v):
            G = G._grown_by([refl_perm(v)])
        if G.order == 6048:
            break
    assert G.order == 6048, G.order
    U33 = reduce_generators(G)

    frob = [index[_normalize_point(F, tuple(conj(c) for c in v))] for v in iso]
    U33_2 = PermGroup(list(U33.generators) + [frob], degree=28)
    assert U33_2.order == 12096, U33_2.order
    return U33, reduce_generators(U33_2)


# -- Sz(8) ---------------------------------------------------------------------

def build_sz8():
    F = make_field(2, 3)

    def theta(x):
        return frobenius(F, frobenius(F, x))  # x -> x^4, the square of Frobenius

    def pi(x, y):
        # x^(th+2) + xy + y^th
        return add(F, add(F, mul(F, theta(x), mul(F, x, x)), mul(F, x, y)), theta(y))

    chart = [(x, y) for x in range(8) for y in range(8)]
    for (x, y) in chart:
        if not pi(x, y):
            assert not x and not y, (x, y)

    # ovoid in PG(3): (pi(x,y), y, x, 1) plus (1, 0, 0, 0)
    def embed(x, y):
        return (pi(x, y), y, x, 1)

    INF = ("inf",)

    points = [INF] + chart
    index = {INF: 0}
    embed_index = {}
    for i, (x, y) in enumerate(chart):
        index[(x, y)] = i + 1
        embed_index[_normalize_point(F, embed(x, y))] = i + 1
    inf4 = (1, 0, 0, 0)
    embed_index[inf4] = 0

    def perm_from_chart(fn):
        images = [0]
        for (x, y) in chart:
            images.append(index[fn(x, y)])
        return Permutation(images)

    def trans(a, b):
        return lambda x, y: (add(F, x, a), add(F, add(F, y, b), mul(F, x, theta(a))))

    exp = F[2]
    g, g5 = exp[1], exp[5]  # the torus (x, y) -> (g x, g^(theta + 1) y), theta + 1 = 5

    # coordinate reversal on the projective ovoid
    rev = [0] * 65
    for i, p in enumerate(points):
        v4 = inf4 if p == INF else _normalize_point(F, embed(*p))
        r = _normalize_point(F, tuple(reversed(v4)))
        rev[i] = embed_index[r]

    gens = []
    for a in exp[:3]:  # 1, g, g^2
        gens.append(perm_from_chart(trans(a, 0)))
        gens.append(perm_from_chart(trans(0, a)))
    gens.append(perm_from_chart(lambda x, y: (mul(F, g, x), mul(F, g5, y))))
    gens.append(rev)
    G = PermGroup(gens, degree=65)
    assert G.order == 29120, G.order
    return reduce_generators(G)


def main():
    if not __debug__:
        raise SystemExit("build_atlas_data.py: the certificates are asserts; run it without -O")
    M12 = build_m12()
    write_group("M12", reduce_generators(M12),
                "Sharply 5-transitive group on 12 points from card-shuffle generators.")
    M11 = build_m11(M12)
    write_group("M11", M11, "Point stabilizer in the 12-point group, relabelled.")
    M12_2 = build_m12_2(M12)
    write_group("M12.2", M12_2,
                "Extension of the 12-point group by its outer automorphism,\n"
                "acting on two linked copies of the 12 points.")
    fam = build_l34_family()
    for name in ("L34", "L34.2_1", "L34.2_2", "L34.2_3", "L34.2^2"):
        write_group(name, reduce_generators(fam[name]),
                    "Projective plane of order 4: 21 points and 21 lines;\n"
                    "extensions by field and duality automorphisms, labelled\n"
                    "by their class fingerprints.")
    U33, U33_2 = build_u33()
    write_group("U33", U33, "Unitary geometry over GF(9): 28 isotropic points.")
    write_group("U33.2", U33_2,
                "Unitary group extended by the field automorphism.")
    Sz8 = build_sz8()
    write_group("Sz8", Sz8, "Suzuki ovoid in PG(3, 8): 65 points.")


if __name__ == "__main__":
    main()
