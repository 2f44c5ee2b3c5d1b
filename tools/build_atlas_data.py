#!/usr/bin/env python3
"""Regenerate the bundled generator data files from first principles.

Every group is constructed here from scratch (card-shuffle generators,
projective planes, unitary geometry, the Suzuki ovoid), certified by its
order and conjugacy fingerprint, and written to src/regula/data/.  The
package itself only ever loads the frozen files and re-certifies them.

Run from the repository root:  python3 tools/build_atlas_data.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from itertools import combinations

from regula.classes import conjugacy_classes
from regula.constructors import _data_path, _mat_apply, _normalize_point, _plane_points
from regula.ffield import make_field
from regula.perm_core import PermGroup, Permutation, _conj, _mult

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "regula", "data")


def write_group(name, G, comment=""):
    os.makedirs(DATA_DIR, exist_ok=True)
    table = conjugacy_classes(G)
    sizes = ",".join(str(s) for s in table.class_size_multiset())
    fname = os.path.basename(_data_path(name))
    path = os.path.join(DATA_DIR, fname)
    with open(path, "w", encoding="ascii") as fh:
        if comment:
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
    return path


def reduce_generators(G, tries=400):
    """Smallest 2- or 3-element generating set found by a bounded scan."""
    gens = list(G.generators)
    if len(gens) <= 2:
        return G
    pool = gens + [g * h for g in gens for h in gens if not (g * h).is_identity][:40]
    seen = []
    for g in pool:
        if g not in seen and not g.is_identity:
            seen.append(g)
    count = 0
    for a, b in combinations(seen, 2):
        count += 1
        if count > tries:
            break
        H = PermGroup([a, b], degree=G.degree)
        if H.order == G.order:
            return H
    for a, b, c in combinations(seen, 3):
        count += 1
        if count > 4 * tries:
            break
        H = PermGroup([a, b, c], degree=G.degree)
        if H.order == G.order:
            return H
    return G


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
    images = [0] * 12
    for pos, card in enumerate(out):
        images[card] = pos
    shuffle = Permutation(images)
    rev = Permutation([11 - i for i in range(12)])
    G = PermGroup([shuffle, rev])
    assert G.order == 95040, G.order
    assert G.fundamental_orbit_lengths()[:5] == (12, 11, 10, 9, 8)
    return G


def build_m11(M12):
    # the chain below the first base point is a chain of the stabilizer of 0
    assert M12.base[0] == 0
    st_gens = dict.fromkeys(g for lvl in M12._levels[1:] for g in lvl.gens)
    gens11 = [Permutation([g[j + 1] - 1 for j in range(11)]) for g in st_gens]
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
        if H.order == 7920 and len(H._levels[0].transversal) == 12:
            return H
    raise AssertionError("no transitive subgroup of order 7920 found")


def hexad_system(gens, npoints=12):
    """Orbit of a 6-set under the group; the Steiner system has 132 blocks.

    Scans base 6-sets until one whose orbit has length 132 and covers
    every 5-set exactly once is found.
    """
    from itertools import combinations as combs
    gen_images = [g.images for g in gens]
    for base in combs(range(npoints), 6):
        orbit = {frozenset(base)}
        queue = [frozenset(base)]
        ok = True
        while queue and ok:
            s = queue.pop()
            for img in gen_images:
                t = frozenset(img[p] for p in s)
                if t not in orbit:
                    orbit.add(t)
                    queue.append(t)
                    if len(orbit) > 132:
                        ok = False
                        break
        if not ok or len(orbit) != 132:
            continue
        cover = {}
        good = True
        for blk in orbit:
            for five in combs(sorted(blk), 5):
                if five in cover:
                    good = False
                    break
                cover[five] = blk
            if not good:
                break
        if good and len(cover) == 792:
            return orbit
    raise AssertionError("no Steiner system found in the 6-set orbits")


def design_isomorphism(blocks_from, blocks_to, npoints=12):
    """A bijection of points carrying one block system onto the other."""
    from_sets = [set(b) for b in blocks_from]
    to_set = set(blocks_to)

    def extend(mapping, used):
        placed = len(mapping)
        if placed == npoints:
            return dict(mapping)
        # prune: every block with >= 5 placed points forces its image
        for blk in from_sets:
            placed_pts = [p for p in blk if p in mapping]
            if len(placed_pts) >= 5:
                img = {mapping[p] for p in placed_pts}
                hits = [b for b in to_set if img <= b]
                if not hits:
                    return None
        nxt = min(set(range(npoints)) - set(mapping))
        for cand in range(npoints):
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
    return Permutation([mapping[i] for i in range(npoints)])


def solve_intertwiner(gens, target_images, npoints=12):
    """w with w(g(p)) = target(g)(w(p)) for all generators, by propagation."""
    pairs = [(g.images, t.images) for g, t in zip(gens, target_images)]
    for alpha in range(npoints):
        w = [None] * npoints
        w[0] = alpha
        queue = [0]
        ok = True
        while queue and ok:
            p = queue.pop()
            for g, t in pairs:
                qpt = g[p]
                forced = t[w[p]]
                if w[qpt] is None:
                    w[qpt] = forced
                    queue.append(qpt)
                elif w[qpt] != forced:
                    ok = False
                    break
        if ok and None not in w and len(set(w)) == npoints:
            good = all(w[g[p]] == t[w[p]] for g, t in pairs for p in range(npoints))
            if good:
                return Permutation(w)
    raise AssertionError("no intertwiner found")


def build_m12_2(M12):
    H = find_transitive_m11(M12)
    # the action on the right cosets of H (not normal)
    reps, images = M12._coset_walk(H)
    copy2 = PermGroup([Permutation(img) for img in images], degree=12)
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
        return Permutation([number[Hcanon(_mult(r, perm.images))] for r in reps])

    def sigma_any(perm):
        return Permutation(_conj(psi_any(perm).images, u.images, uinv.images))

    g1, g2 = M12.generators
    s1, s2 = sigma_any(g1), sigma_any(g2)
    assert M12.contains(s1) and M12.contains(s2)
    # sigma squared is inner; solve for its conjugating element
    ss1, ss2 = sigma_any(s1), sigma_any(s2)
    w = solve_intertwiner([g1, g2], [ss1, ss2])
    assert M12.contains(w)

    def stack(a, b):
        return Permutation(tuple(a.images) + tuple(12 + x for x in b.images))

    d1, d2 = stack(g1, s1), stack(g2, s2)
    for wflip in (w, w.inverse()):
        tau_img = [12 + wflip.images[i] for i in range(12)] + list(range(12))
        tau = Permutation(tau_img)
        K = PermGroup([d1, d2, tau], degree=24)
        if K.order == 190080:
            return reduce_generators(K)
    raise AssertionError("extension by the swap element has the wrong order")


# -- the PSL3(4) family -------------------------------------------------------

def build_l34_family():
    F = make_field(2, 2)
    one, zero = F.one(), F.zero()
    pts = _plane_points(F)
    assert len(pts) == 21
    pt_index = {p: i for i, p in enumerate(pts)}

    # line u is the set of points v with u . v = 0; lines share the
    # canonical-vector labels, shifted by 21
    def transpose(m):
        return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))

    def mat_inv(m):
        # adjugate over a field; det is invertible for group elements
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        dinv = det.inverse()
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        return tuple(tuple(dinv * x for x in row) for row in adj)

    def matrix_perm(m):
        minvt = transpose(mat_inv(m))
        images = [pt_index[_normalize_point(_mat_apply(m, v))] for v in pts]
        images += [21 + pt_index[_normalize_point(_mat_apply(minvt, u))] for u in pts]
        return Permutation(images)

    g = F.primitive_element()
    cyc = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
    t1 = ((one, one, zero), (zero, one, zero), (zero, zero, one))
    t2 = ((one, g, zero), (zero, one, zero), (zero, zero, one))
    l34 = PermGroup([matrix_perm(m) for m in (cyc, t1, t2)], degree=42)
    assert l34.order == 20160, l34.order

    frob = Permutation(
        [pt_index[_normalize_point(tuple(c.frobenius() for c in v))] for v in pts]
        + [21 + pt_index[_normalize_point(tuple(c.frobenius() for c in u))] for u in pts])
    dual = Permutation([21 + i for i in range(21)] + list(range(21)))
    # diagonal automorphism: any matrix whose determinant is not a cube
    diag = matrix_perm(((g, zero, zero), (zero, one, zero), (zero, zero, one)))

    A = PermGroup(list(l34.generators) + [diag, frob, dual], degree=42)
    assert A.order == 241920, A.order

    reps = [Permutation(r) for r in A._coset_walk(l34)[0]]
    # A/L34 acts regularly on the 12 cosets, so an element x is named by
    # x(0), the coset it sends coset 0 (L34 itself) to
    Q = A.quotient(l34)
    elements = list(Q.elements())
    classes = sorted(sorted({(y.inverse() * c.representative * y).images[0] for y in elements})
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
    zero, one = F.zero(), F.one()

    def conj(x):
        return x.frobenius()

    def herm(u, v):
        return u[0] * conj(v[0]) + u[1] * conj(v[1]) + u[2] * conj(v[2])

    vecs = [(x, y, z) for x in F.elements() for y in F.elements()
            for z in F.elements()][1:]
    iso = []
    seen = set()
    for v in vecs:
        if herm(v, v).is_zero():
            n = _normalize_point(v)
            if n not in seen:
                seen.add(n)
                iso.append(n)
    assert len(iso) == 28, len(iso)
    index = {p: i for i, p in enumerate(iso)}

    def mat_perm(m):
        return Permutation([index[_normalize_point(_mat_apply(m, v))] for v in iso])

    # unitary reflections x -> x + h(x,v)/h(v,v) v along anisotropic v
    # generate the full unitary group; grow greedily until the point
    # action has the right order
    def refl_perm(v):
        hinv = herm(v, v).inverse()

        def r(x):
            coef = herm(x, v) * hinv
            return tuple(x[i] + coef * v[i] for i in range(3))

        return Permutation([index[_normalize_point(r(p))] for p in iso])

    G = PermGroup([], degree=28)
    gens = []
    for v in vecs:
        if herm(v, v).is_zero():
            continue
        perm = refl_perm(v)
        if not G.contains(perm):
            gens.append(perm)
            G = PermGroup(gens, degree=28)
        if G.order == 6048:
            break
    assert G.order == 6048, G.order
    U33 = reduce_generators(G)

    frob = Permutation([index[_normalize_point(tuple(conj(c) for c in v))] for v in iso])
    U33_2 = PermGroup(list(U33.generators) + [frob], degree=28)
    assert U33_2.order == 12096, U33_2.order
    return U33, reduce_generators(U33_2)


# -- Sz(8) ---------------------------------------------------------------------

def build_sz8():
    F = make_field(2, 3)
    zero, one = F.zero(), F.one()

    def theta(x):
        return (x.frobenius()).frobenius()  # x -> x^4, the square of Frobenius

    def pi(x, y):
        return theta(x) * x * x + x * y + theta(y)  # x^(th+2) + xy + y^th

    chart = [(x, y) for x in F.elements() for y in F.elements()]
    for (x, y) in chart:
        if pi(x, y).is_zero():
            assert x.is_zero() and y.is_zero(), (x, y)

    # ovoid in PG(3): (pi(x,y), y, x, 1) plus (1, 0, 0, 0)
    def embed(x, y):
        return (pi(x, y), y, x, one)

    INF = ("inf",)

    points = [INF] + chart
    index = {INF: 0}
    embed_index = {}
    for i, (x, y) in enumerate(chart):
        index[(x, y)] = i + 1
        embed_index[_normalize_point(embed(x, y))] = i + 1
    inf4 = (one, zero, zero, zero)
    embed_index[inf4] = 0

    def perm_from_chart(fn):
        images = [0]
        for (x, y) in chart:
            images.append(index[fn(x, y)])
        return Permutation(images)

    variants = []
    for twist in ("xa", "ax"):
        def trans(a, b, twist=twist):
            if twist == "xa":
                return lambda x, y, a=a, b=b: (x + a, y + b + x * theta(a))
            return lambda x, y, a=a, b=b: (x + a, y + b + theta(x) * a)
        variants.append(trans)

    g = F.primitive_element()

    def torus(kappa, e):
        # (x, y) -> (kappa x, kappa^e y)
        ke = kappa ** e
        return lambda x, y: (kappa * x, ke * y)

    # coordinate reversal on the projective ovoid
    rev_images = [0] * 65
    for i, p in enumerate(points):
        v4 = inf4 if p == INF else _normalize_point(embed(*p))
        r = _normalize_point(tuple(reversed(v4)))
        rev_images[i] = embed_index[r]
    rev = Permutation(rev_images)

    field_gens = [one, g, g * g]
    for trans in variants:
        for e in (5, 6):  # theta + 1 = 5, theta + 2 = 6
            gens = []
            for a in field_gens:
                gens.append(perm_from_chart(trans(a, zero)))
                gens.append(perm_from_chart(trans(zero, a)))
            gens.append(perm_from_chart(torus(g, e)))
            gens.append(rev)
            G = PermGroup(gens, degree=65)
            if G.order == 29120:
                return reduce_generators(G)
    raise AssertionError("no Suzuki variant matched the expected order")


def main():
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
