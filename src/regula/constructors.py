"""Constructors for every group family the verification suites need.

Each family constructor takes the integers its expression gives it (the
table ``exprs._FAMILIES`` maps expression heads to these functions) and
checks its size cap before it factorises a field size, so a huge
argument fails at once with ``CapExceeded``.

Field-based actions label points by the field's fixed enumeration
(``FieldDesc.from_index``), so the same group built twice acts on the
same labels and subgroup relations between related constructions (for
example PSL2(q) inside PGammaL2(q)) hold on the nose.

Sporadic and hard-to-build groups enter through bundled generator data;
each file carries the expected order and class-size multiset and loading
fails hard if either certificate disagrees.
"""

from __future__ import annotations

import os
import re
from math import gcd

from .errors import CapExceeded, GroupDataError, RegulaError, UnknownGroupName
from .ffield import FieldDesc, make_field
from .numtheory import factorize
from .perm_core import DEGREE_CAP, PermGroup, Permutation

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

BASE_N_CAP = 12          # factorial growth; S12 is already 479M (order only)


def cyclic(n: int) -> PermGroup:
    if n < 1 or n > DEGREE_CAP:
        raise CapExceeded(f"cyclic degree {n} outside [1, {DEGREE_CAP}]")
    if n == 1:
        return PermGroup([], degree=1)
    return PermGroup([Permutation.from_cycles(n, [list(range(n))])])


def symmetric(n: int) -> PermGroup:
    if n < 1 or n > BASE_N_CAP:
        raise CapExceeded(f"symmetric degree {n} outside [1, {BASE_N_CAP}]")
    if n == 1:
        return PermGroup([], degree=1)
    gens = [Permutation.from_cycles(n, [[0, 1]])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [list(range(n))]))
    return PermGroup(gens)


def alternating(n: int) -> PermGroup:
    if n < 1 or n > BASE_N_CAP:
        raise CapExceeded(f"alternating degree {n} outside [1, {BASE_N_CAP}]")
    if n <= 2:
        return PermGroup([], degree=max(n, 1))
    if n == 3:
        return PermGroup([Permutation.from_cycles(3, [[0, 1, 2]])])
    three = Permutation.from_cycles(n, [[0, 1, 2]])
    if n % 2 == 1:
        big = Permutation.from_cycles(n, [list(range(n))])
    else:
        big = Permutation.from_cycles(n, [list(range(1, n))])
    return PermGroup([three, big])


def dihedral(n: int) -> PermGroup:
    """Symmetries of the regular n-gon, order 2n (n >= 3 natural action)."""
    if n < 1 or n > DEGREE_CAP:
        raise CapExceeded(f"dihedral parameter {n} outside [1, {DEGREE_CAP}]")
    if n == 1:
        return cyclic(2)
    if n == 2:
        return direct_product(cyclic(2), cyclic(2))
    rot = Permutation.from_cycles(n, [list(range(n))])
    refl = Permutation([(-i) % n for i in range(n)])
    return PermGroup([rot, refl])


def _shift(perm: Permutation, offset: int, total: int) -> Permutation:
    images = list(range(total))
    for i, j in enumerate(perm.images):
        images[offset + i] = offset + j
    return Permutation(images)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """G x H acting on the disjoint union of the two domains."""
    total = G.degree + H.degree
    if total > DEGREE_CAP:
        raise CapExceeded(f"product degree {total} exceeds {DEGREE_CAP}")
    gens = [_shift(g, 0, total) for g in G.generators]
    gens += [_shift(h, G.degree, total) for h in H.generators]
    P = PermGroup(gens, degree=total)
    if P.order != G.order * H.order:
        raise RegulaError("direct product order check failed")
    return P


def wreath(G: PermGroup, P: PermGroup) -> PermGroup:
    """G wr P in its imprimitive action on degree(G) * degree(P) points.

    The base is one copy of G per block; when P is transitive a single
    copy of G's generators suffices since P-conjugation reaches the rest.
    """
    d, m = G.degree, P.degree
    total = d * m
    if total > DEGREE_CAP:
        raise CapExceeded(f"wreath degree {total} exceeds {DEGREE_CAP}")
    expected = G.order ** m * P.order
    if expected > 10 ** 12:
        raise CapExceeded(f"wreath order {expected} is beyond desk scale")
    transitive = m == 1 or (len(P._levels) > 0 and len(P._levels[0].transversal) == m)
    block_range = range(1) if transitive else range(m)
    gens = []
    for b in block_range:
        for g in G.generators:
            gens.append(_shift(g, b * d, total))
    for p in P.generators:
        images = list(range(total))
        for blk in range(m):
            for i in range(d):
                images[blk * d + i] = p.images[blk] * d + i
        gens.append(Permutation(images))
    W = PermGroup(gens, degree=total)
    if W.order != expected:
        raise RegulaError("wreath product order check failed")
    return W


def sylow2_sym2l(l: int) -> PermGroup:
    """Sylow 2-subgroup of the symmetric group on 2^l points, as the
    l-fold iterated wreath power of C2; order 2^(2^l - 1)."""
    if l < 1 or l > 3:
        raise CapExceeded(f"iterated wreath parameter {l} outside [1, 3]")
    W = cyclic(2)
    for _ in range(l - 1):
        W = wreath(W, cyclic(2))
    if W.order != 2 ** (2 ** l - 1):
        raise RegulaError("iterated wreath order check failed")
    return W


# -- affine and field-module constructions ---------------------------------

def affine_semilinear(q: int, include_galois: bool) -> PermGroup:
    """x -> a*sigma(x) + b on GF(q); sigma ranges over the Galois group
    when ``include_galois`` is set, else sigma = identity."""
    if q > DEGREE_CAP:
        raise CapExceeded(f"field size {q} is beyond desk scale")
    fac = factorize(q) if q > 1 else {}
    if len(fac) != 1:
        raise RegulaError(f"field size must be a prime power, got {q}")
    (p, k), = fac.items()
    F = make_field(p, k)
    elems = list(F.elements())
    index = {x: i for i, x in enumerate(elems)}
    g = F.primitive_element()
    one = F.one()
    gens = [
        Permutation([index[x * g] for x in elems]),
        Permutation([index[x + one] for x in elems]),
    ]
    if include_galois and k > 1:
        gens.append(Permutation([index[x.frobenius()] for x in elems]))
    G = PermGroup(gens, degree=q)
    expected = q * (q - 1) * (k if include_galois else 1)
    if G.order != expected:
        raise RegulaError("affine semilinear order check failed")
    return G


def glq_family(l: int, q: int) -> PermGroup:
    """Scalar wreath group acting affinely on GF(q)^(2^l).

    H = C_(q-1) wr P with P the Sylow 2-subgroup of the symmetric group
    on the 2^l coordinates; the returned group is H acting on the vector
    group V = GF(q)^(2^l), i.e. the affine group H |x V on q^(2^l) points.
    """
    if l < 1:
        raise RegulaError("need l >= 1")
    P = sylow2_sym2l(l)         # caps l at 3, so 2^l stays small
    m = 2 ** l
    npoints = q ** m
    if npoints > DEGREE_CAP:
        raise CapExceeded(f"{npoints} points exceeds the degree cap {DEGREE_CAP}")
    fac = factorize(q)
    if len(fac) != 1 or q % 2 == 0:
        raise RegulaError(f"q = {q} must be an odd prime power")
    (p, k), = fac.items()
    F = make_field(p, k)

    vectors = []
    def gen_vectors(prefix):
        if len(prefix) == m:
            vectors.append(tuple(prefix))
            return
        for i in range(q):
            gen_vectors(prefix + [F.from_index(i)])
    gen_vectors([])
    index = {v: i for i, v in enumerate(vectors)}

    a = F.primitive_element()
    one, zero = F.one(), F.zero()

    def perm_of(fn):
        return Permutation([index[fn(v)] for v in vectors])

    gens = [perm_of(lambda v: (v[0] * a,) + v[1:])]           # scale coordinate 0
    for pgen in P.generators:                                  # permute coordinates
        img = pgen.images
        gens.append(perm_of(lambda v, img=img: tuple(v[img.index(i)] for i in range(m))))
    gens.append(perm_of(lambda v: (v[0] + one,) + v[1:]))      # translate by e_0
    G = PermGroup(gens, degree=npoints)
    expected = (q - 1) ** m * P.order * q ** m
    if G.order != expected:
        raise RegulaError("order check failed for the scalar wreath affine group")
    return G


# -- projective groups ------------------------------------------------------

def _mobius_perm(F: FieldDesc, a, b, c, d) -> Permutation:
    """Action of [[a, b], [c, d]] on the projective line, x -> (ax+b)/(cx+d)."""
    q = F.size
    zero = F.zero()
    images = []
    for i in range(q):
        x = F.from_index(i)
        num, den = a * x + b, c * x + d
        if den == zero:
            images.append(q)
        else:
            images.append(F.index_of(num / den))
    # infinity -> a/c
    if c == zero:
        images.append(q)
    else:
        images.append(F.index_of(a / c))
    return Permutation(images)


def _frobenius_line_perm(F: FieldDesc) -> Permutation:
    q = F.size
    images = [F.index_of(F.from_index(i).frobenius()) for i in range(q)]
    images.append(q)
    return Permutation(images)


PSL2_Q_CAP = 17


def projective_group(kind: str, q: int) -> PermGroup:
    """psl2 / pgl2 / pgammal2 on the q+1 projective points.

    The three kinds share point labels, so psl2(q) is a subgroup of
    pgl2(q) is a subgroup of pgammal2(q) as constructed.
    """
    if kind not in ("psl2", "pgl2", "pgammal2"):
        raise RegulaError(f"unknown projective kind {kind!r}")
    if q > PSL2_Q_CAP:
        raise CapExceeded(f"q = {q} exceeds the 2-dimensional cap {PSL2_Q_CAP}")
    fac = factorize(q)
    if len(fac) != 1:
        raise RegulaError(f"q = {q} is not a prime power")
    (p, f), = fac.items()
    F = make_field(p, f)
    zero, one = F.zero(), F.one()
    g = F.primitive_element()
    gens = [
        _mobius_perm(F, one, one, zero, one),        # x -> x + 1
        _mobius_perm(F, g * g, zero, zero, one),     # x -> g^2 x
        _mobius_perm(F, zero, -one, one, zero),      # x -> -1/x
    ]
    d = gcd(2, q - 1)
    if kind in ("pgl2", "pgammal2"):
        gens.append(_mobius_perm(F, g, zero, zero, one))
    if kind == "pgammal2" and f > 1:
        gens.append(_frobenius_line_perm(F))
    G = PermGroup(gens, degree=q + 1)
    expected = {"psl2": q * (q * q - 1) // d,
                "pgl2": q * (q * q - 1),
                "pgammal2": q * (q * q - 1) * f}[kind]
    if G.order != expected:
        raise RegulaError(f"{kind}({q}) order check failed: {G.order} != {expected}")
    return G


def _plane_points(F: FieldDesc):
    """Projective plane points as canonical vectors, first nonzero = 1."""
    one, zero = F.one(), F.zero()
    pts = [(one, y, z) for y in F.elements() for z in F.elements()]
    pts += [(zero, one, z) for z in F.elements()]
    pts += [(zero, zero, one)]
    return pts


def _normalize_point(v):
    for c in v:
        if not c.is_zero():
            inv = c.inverse()
            return tuple(inv * x for x in v)
    raise RegulaError("zero vector has no projective point")


def _mat_apply(mat, v):
    out = []
    for row in mat:
        acc = row[0] * v[0]
        for a, x in zip(row[1:], v[1:]):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


def psl3(q: int) -> PermGroup:
    """PSL3(q) on the q^2+q+1 points of the projective plane; q = 3 only."""
    if q != 3:
        raise CapExceeded("the 3-dimensional constructor is desk-scoped to q = 3")
    F = make_field(3, 1)
    pts = _plane_points(F)
    index = {p: i for i, p in enumerate(pts)}
    one, zero = F.one(), F.zero()

    def mat_perm(mat):
        return Permutation([index[_normalize_point(_mat_apply(mat, v))] for v in pts])

    cyc = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
    transvection = ((one, one, zero), (zero, one, zero), (zero, zero, one))
    G = PermGroup([mat_perm(cyc), mat_perm(transvection)], degree=len(pts))
    if G.order != 5616:
        raise RegulaError(f"psl3(3) order check failed: {G.order}")
    return G


# -- bundled generator data -------------------------------------------------

ATLAS_NAMES = ("M11", "M12", "M12.2", "L34", "L34.2_1", "L34.2_2", "L34.2_3",
               "L34.2^2", "U33", "U33.2", "Sz8")


def _data_path(name: str) -> str:
    fname = name.replace("^", "c").replace(".", "_") + ".txt"
    return os.path.join(_DATA_DIR, fname)


def from_generator_data(name: str) -> PermGroup:
    """Group built from a bundled generator file, certified by its stored
    order and class-size multiset (hard failure on any mismatch)."""
    if name not in ATLAS_NAMES:
        raise UnknownGroupName(f"no bundled data for {name!r}; known: {ATLAS_NAMES}")
    path = _data_path(name)
    if not os.path.exists(path):
        raise GroupDataError(f"data file missing for {name!r}: {path}")
    return load_generator_file(path, expect_name=name)


def load_generator_file(path: str, expect_name: str | None = None) -> PermGroup:
    header = {}
    gens = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise GroupDataError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^(name|degree|order|class_sizes):\s*(.*)$", line)
        if m:
            header[m.group(1)] = m.group(2).strip()
        else:
            gens.append(line)
    for key in ("name", "degree", "order", "class_sizes"):
        if key not in header:
            raise GroupDataError(f"{path}: missing header field {key!r}")
    if expect_name is not None and header["name"] != expect_name:
        raise GroupDataError(f"{path}: header names {header['name']!r}, expected {expect_name!r}")

    def integer(key, text):
        try:
            return int(text)
        except ValueError:
            raise GroupDataError(f"{path}: header field {key!r} has a non-integer "
                                 f"value {text!r}") from None

    degree = integer("degree", header["degree"])
    expected_order = integer("order", header["order"])
    expected_sizes = tuple(integer("class_sizes", s) for s in header["class_sizes"].split(","))
    perms = [Permutation.parse(line, degree) for line in gens]
    G = PermGroup(perms, degree=degree)
    if G.order != expected_order:
        raise GroupDataError(
            f"{path}: computed order {G.order} != stored order {expected_order}")
    from .classes import conjugacy_classes
    sizes = conjugacy_classes(G).class_size_multiset()
    if sizes != expected_sizes:
        raise GroupDataError(f"{path}: class-size multiset mismatch")
    return G


# -- derived named groups ----------------------------------------------------

def m10() -> PermGroup:
    """PSL2(9) extended by the diagonal times field automorphism.

    Of the three groups between PSL2(9) and PGammaL2(9), S6 and PGL2(9)
    have four 2-regular classes and M10 has three; that count and the
    order are its certificate.
    """
    from .classes import class_counts

    N = projective_group("psl2", 9)
    F = make_field(3, 2)
    zero, one = F.zero(), F.one()
    delta_phi = _mobius_perm(F, F.primitive_element(), zero, zero, one) * _frobenius_line_perm(F)
    # the coset's canonical element, not delta_phi itself, is the generator
    # the M10 class representatives are pinned with
    G = PermGroup(list(N.generators) + [Permutation(N._coset_canonical(delta_phi.images))])
    if G.order != 720 or class_counts(G, 2).k_regular != 3:
        raise RegulaError("M10 certificate failed: expected order 720 and "
                          "three 2-regular classes")
    return G
