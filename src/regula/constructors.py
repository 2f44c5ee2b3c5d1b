"""Constructors for every group family the verification suites need.

Each family constructor takes the integers its expression gives it (the
table ``exprs._FAMILIES`` maps expression heads to these functions) and
checks its size cap before it factorises a field size, so a huge
argument fails at once with ``CapExceeded``.

Field-based actions label points by the integer labels of the field
elements (``ffield``), so the same group built twice acts on the same
labels and subgroup relations between related constructions (for
example PSL2(q) inside PGammaL2(q)) hold on the nose.

Sporadic and hard-to-build groups enter through bundled generator data;
each file carries the expected order and class-size multiset and loading
fails hard if either certificate disagrees.
"""

from __future__ import annotations

import os
import re
from itertools import product
from math import gcd

from . import perm_core
from .errors import CapExceeded, GroupDataError, RegulaError, UnknownGroupName
from .ffield import add, field_of_size, frobenius, inv, make_field, mul
from .perm_core import PermGroup, Permutation

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

BASE_N_CAP = 12          # factorial growth; S12 is already 479M (order only)


def cyclic(n: int) -> PermGroup:
    if n < 1 or n > perm_core.DEGREE_CAP:
        raise CapExceeded(f"cyclic degree {n} outside [1, {perm_core.DEGREE_CAP}]")
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
    if n < 1 or n > perm_core.DEGREE_CAP:
        raise CapExceeded(f"dihedral parameter {n} outside [1, {perm_core.DEGREE_CAP}]")
    if n == 1:
        return cyclic(2)
    if n == 2:
        return direct_product(cyclic(2), cyclic(2))
    rot = Permutation.from_cycles(n, [list(range(n))])
    refl = [(-i) % n for i in range(n)]
    return PermGroup([rot, refl])


def _shift(perm: Permutation, offset: int, total: int) -> list:
    images = list(range(total))
    for i, j in enumerate(perm):
        images[offset + i] = offset + j
    return images


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """G x H acting on the disjoint union of the two domains."""
    total = G.degree + H.degree
    if total > perm_core.DEGREE_CAP:
        raise CapExceeded(f"product degree {total} exceeds {perm_core.DEGREE_CAP}")
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
    if total > perm_core.DEGREE_CAP:
        raise CapExceeded(f"wreath degree {total} exceeds {perm_core.DEGREE_CAP}")
    expected = G.order ** m * P.order
    if expected > 10 ** 12:
        raise CapExceeded(f"wreath order {expected} is beyond desk scale")
    transitive = m == 1 or P.fundamental_orbit_lengths()[:1] == (m,)
    block_range = range(1) if transitive else range(m)
    gens = []
    for b in block_range:
        for g in G.generators:
            gens.append(_shift(g, b * d, total))
    for p in P.generators:
        images = list(range(total))
        for blk in range(m):
            for i in range(d):
                images[blk * d + i] = p[blk] * d + i
        gens.append(images)
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
    if q > perm_core.DEGREE_CAP:
        raise CapExceeded(f"field size {q} is beyond desk scale")
    F = field_of_size(q)
    _, k, exp, _ = F
    gens = [[mul(F, x, exp[1]) for x in range(q)], [add(F, x, 1) for x in range(q)]]
    if include_galois and k > 1:
        gens.append([frobenius(F, x) for x in range(q)])
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
    if npoints > perm_core.DEGREE_CAP:
        raise CapExceeded(f"{npoints} points exceeds the degree cap {perm_core.DEGREE_CAP}")
    F = field_of_size(q)
    if q % 2 == 0:
        raise RegulaError(f"q = {q} must be odd")

    vectors = list(product(range(q), repeat=m))         # coordinate 0 varies slowest
    index = {v: i for i, v in enumerate(vectors)}
    a = F[2][1]                                         # exp[1], the primitive element

    def perm_of(fn):
        return [index[fn(v)] for v in vectors]

    gens = [perm_of(lambda v: (mul(F, v[0], a),) + v[1:])]    # scale coordinate 0
    for img in P.generators:                                   # permute coordinates
        gens.append(perm_of(lambda v, img=img: tuple(v[img.index(i)] for i in range(m))))
    gens.append(perm_of(lambda v: (add(F, v[0], 1),) + v[1:]))  # translate by e_0
    G = PermGroup(gens, degree=npoints)
    expected = (q - 1) ** m * P.order * q ** m
    if G.order != expected:
        raise RegulaError("order check failed for the scalar wreath affine group")
    return G


# -- projective groups ------------------------------------------------------

def _mobius_perm(F, a, b, c, d) -> Permutation:
    """Action of [[a, b], [c, d]] on the projective line, x -> (ax+b)/(cx+d);
    infinity is the point q."""
    q = len(F[3])           # one log entry per label
    images = []
    for x in range(q):
        num, den = add(F, mul(F, a, x), b), add(F, mul(F, c, x), d)
        images.append(mul(F, num, inv(F, den)) if den else q)
    images.append(mul(F, a, inv(F, c)) if c else q)      # infinity -> a/c
    return Permutation(images)


def _frobenius_line_perm(F) -> Permutation:
    q = len(F[3])           # one log entry per label
    return Permutation([frobenius(F, x) for x in range(q)] + [q])


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
    F = field_of_size(q)
    p, f, exp, _ = F
    g = exp[1]
    gens = [
        _mobius_perm(F, 1, 1, 0, 1),                 # x -> x + 1
        _mobius_perm(F, mul(F, g, g), 0, 0, 1),      # x -> g^2 x
        _mobius_perm(F, 0, p - 1, 1, 0),             # x -> -1/x; -1 has the label p - 1
    ]
    d = gcd(2, q - 1)
    if kind in ("pgl2", "pgammal2"):
        gens.append(_mobius_perm(F, g, 0, 0, 1))
    if kind == "pgammal2" and f > 1:
        gens.append(_frobenius_line_perm(F))
    G = PermGroup(gens, degree=q + 1)
    expected = {"psl2": q * (q * q - 1) // d,
                "pgl2": q * (q * q - 1),
                "pgammal2": q * (q * q - 1) * f}[kind]
    if G.order != expected:
        raise RegulaError(f"{kind}({q}) order check failed: {G.order} != {expected}")
    return G


def _plane_points(q):
    """Projective plane points over GF(q) as canonical vectors, first nonzero = 1."""
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)]
    pts += [(0, 0, 1)]
    return pts


def _normalize_point(F, v):
    for c in v:
        if c:
            s = inv(F, c)
            return tuple(mul(F, s, x) for x in v)
    raise RegulaError("zero vector has no projective point")


def _mat_apply(F, mat, v):
    out = []
    for row in mat:
        acc = 0
        for a, x in zip(row, v):
            acc = add(F, acc, mul(F, a, x))
        out.append(acc)
    return tuple(out)


def psl3(q: int) -> PermGroup:
    """PSL3(q) on the q^2+q+1 points of the projective plane; q = 3 only."""
    if q != 3:
        raise CapExceeded("the 3-dimensional constructor is desk-scoped to q = 3")
    F = make_field(3, 1)
    pts = _plane_points(3)
    index = {p: i for i, p in enumerate(pts)}

    def mat_perm(mat):
        return [index[_normalize_point(F, _mat_apply(F, mat, v))] for v in pts]

    cyc = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    transvection = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
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
    return load_generator_file(_data_path(name), expect_name=name)


def load_generator_file(path: str, expect_name: str | None = None) -> PermGroup:
    header = {}
    gens = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise GroupDataError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    except OSError as exc:
        raise GroupDataError(f"{path}: cannot read: {exc.strerror}") from None
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
    if degree < 1 or degree > perm_core.DEGREE_CAP:
        raise GroupDataError(f"{path}: header degree {degree} outside [1, {perm_core.DEGREE_CAP}]")
    expected_order = integer("order", header["order"])
    expected_sizes = tuple(integer("class_sizes", s) for s in header["class_sizes"].split(","))
    try:
        perms = [Permutation.parse(line, degree) for line in gens]
    except RegulaError as exc:   # the message quotes the generator line
        raise GroupDataError(f"{path}: {exc}") from None
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
    from .classes import conjugacy_classes

    N = projective_group("psl2", 9)
    F = make_field(3, 2)
    g = F[2][1]                                     # exp[1], the primitive element
    delta_phi = _mobius_perm(F, g, 0, 0, 1) * _frobenius_line_perm(F)
    # the coset's canonical element, not delta_phi itself, is the generator
    # the M10 class representatives are pinned with
    G = PermGroup(N.generators + (N._coset_canonical(delta_phi),))
    if G.order != 720 or conjugacy_classes(G).counts(2).k_regular != 3:
        raise RegulaError("M10 certificate failed: expected order 720 and "
                          "three 2-regular classes")
    return G
