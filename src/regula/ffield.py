"""Exact arithmetic in GF(p^k) on integer labels.

An element is its label in range(q): the polynomial c0 + c1*t + ... over
GF(p), constant term first, has the label c0 + c1*p + ..., so 0 and 1 are
the field's zero and one and every point label of a field-based action is
an element's label.  The modulus is the lexicographically smallest monic
irreducible in the same encoding of its non-leading coefficients, which
makes field construction deterministic with no external tables.  A monic
candidate of degree k is irreducible when no monic polynomial of degree
1 .. k//2 divides it; trial division is enough because no field has more
elements than ``perm_core.DEGREE_CAP`` (2000), the degree cap read when
``make_field`` runs: a larger p^k, however large k is, is refused with
``CapExceeded`` before any work.  The extension degree k passes
``numtheory.check_int`` and the characteristic p ``check_prime``.

A field is the tuple ``(p, k, exp, log)`` of two tables of length q.
``exp[i]`` is the label of g^i, where g = ``exp[1]`` is the first label of
multiplicative order q - 1, and ``log[x]`` is the i < q - 1 with
``exp[i] == x`` for each nonzero x; both are built once by polynomial
arithmetic.  Products, inverses and the Frobenius map (log x -> p * log x)
are lookups in these two tables, and sums are digit-wise mod p, which is
XOR when p = 2: the table method for small fields (Lidl and Niederreiter,
*Finite Fields*).

``field_of_size(q)`` is the one place that checks a field size: it
refuses a q that is not a prime power (1 and below included) and
returns GF(q).
"""

from __future__ import annotations

from . import perm_core
from .errors import CapExceeded, RegulaError
from .numtheory import check_int, check_prime, factorize


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _digits(i, p, k):
    """The k base-p digits of i, least significant first."""
    out = []
    for _ in range(k):
        i, d = divmod(i, p)
        out.append(d)
    return tuple(out)


def _label(c, p):
    """The label c0 + c1*p + ... of the polynomial with coefficients c."""
    i = 0
    for d in reversed(c):
        i = i * p + d
    return i


def _is_irreducible(m, p):
    """Whether no monic polynomial of degree 1 .. k//2 divides the monic m
    of degree k."""
    k = len(m) - 1
    return all(_poly_mod(m, _digits(j, p, d) + (1,), p)
               for d in range(1, k // 2 + 1) for j in range(p ** d))


def modulus(p: int, k: int) -> tuple:
    """The lexicographically smallest monic irreducible of degree k over
    GF(p), constant term first."""
    candidates = (_digits(i, p, k) + (1,) for i in range(p ** k))
    return next(m for m in candidates if _is_irreducible(m, p))


def make_field(p: int, k: int) -> tuple:
    """GF(p^k) as ``(p, k, exp, log)`` under the smallest irreducible
    modulus; p^k may be at most ``perm_core.DEGREE_CAP``."""
    check_prime(p)
    if check_int("k", k) < 1:
        raise RegulaError("extension degree must be >= 1")
    cap = perm_core.DEGREE_CAP
    # p^k >= 2^k > cap once k reaches the bit length of cap, so p^k is
    # built only for a k below it
    if k >= cap.bit_length() or p ** k > cap:
        raise CapExceeded(f"field size {p}^{k} exceeds the degree cap {cap}")
    m = modulus(p, k)
    q = p ** k
    for g in range(1, q):
        # the powers of g up to the first that is 1; g is primitive when
        # there are q - 1 of them
        x = _digits(g, p, k)
        y, exp = x, [1]
        while (label := _label(y, p)) != 1:
            exp.append(label)
            y = _poly_mod(_poly_mul(y, x, p), m, p)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, x in enumerate(exp):
        log[x] = i
    return p, k, exp + [1], log


def add(F, x, y):
    """x + y, digit by digit mod p."""
    p = F[0]
    if p == 2:
        return x ^ y
    s, place = 0, 1
    while x or y:
        x, a = divmod(x, p)
        y, b = divmod(y, p)
        s += (a + b) % p * place
        place *= p
    return s


def mul(F, x, y):
    """x * y."""
    if not x or not y:
        return 0
    exp, log = F[2], F[3]
    return exp[(log[x] + log[y]) % (len(exp) - 1)]


def inv(F, x):
    """The inverse of a nonzero x."""
    if not x:
        raise ZeroDivisionError("inverse of zero field element")
    exp, log = F[2], F[3]
    return exp[-log[x] % (len(exp) - 1)]


def frobenius(F, x):
    """x -> x^p, the generating field automorphism."""
    if not x:
        return 0
    p, _, exp, log = F
    return exp[log[x] * p % (len(exp) - 1)]


def field_of_size(q: int) -> tuple:
    """GF(q); the one check that a field size q is a prime power."""
    fac = factorize(q) if q > 1 else {}
    if len(fac) != 1:
        raise RegulaError(f"field size must be a prime power, got {q}")
    (p, k), = fac.items()
    return make_field(p, k)
