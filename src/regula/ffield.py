"""Exact arithmetic in GF(p^k).

Elements are coefficient tuples over GF(p), constant term first, reduced
modulo a fixed monic irreducible.  The modulus is the lexicographically
smallest irreducible in the integer encoding c0 + c1*p + ... of its
non-leading coefficients, which makes field construction deterministic
with no external tables.  A monic candidate of degree k is irreducible
when no monic polynomial of degree 1 .. k//2 divides it; trial division
is enough because no field here has more than 2000 elements.

``field_of_size(q)`` is the one place that checks a field size: it
refuses a q that is not a prime power (1 and below included) and
returns GF(q).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RegulaError
from .numtheory import factorize, is_prime, prime_factors


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


def _is_irreducible(m, p):
    """Whether no monic polynomial of degree 1 .. k//2 divides the monic m
    of degree k."""
    k = len(m) - 1
    return all(_poly_mod(m, _digits(j, p, d) + (1,), p)
               for d in range(1, k // 2 + 1) for j in range(p ** d))


@dataclass(frozen=True)
class FieldDesc:
    """GF(p^k) described by its characteristic, degree and modulus."""

    p: int
    k: int
    modulus: tuple  # length k+1, monic, constant term first

    @property
    def size(self) -> int:
        return self.p ** self.k

    def element(self, coeffs) -> "FieldElement":
        c = tuple(x % self.p for x in coeffs)
        if len(c) > self.k:
            c = _poly_mod(c, self.modulus, self.p)
        c = c + (0,) * (self.k - len(c))
        return FieldElement(self, c[: self.k])

    def zero(self) -> "FieldElement":
        return self.element(())

    def one(self) -> "FieldElement":
        return self.element((1,))

    def from_index(self, i: int) -> "FieldElement":
        """Element number i in the fixed enumeration c0 + c1*p + ...."""
        if not 0 <= i < self.size:
            raise RegulaError(f"index {i} out of range for field of size {self.size}")
        return FieldElement(self, _digits(i, self.p, self.k))

    def elements(self):
        for i in range(self.size):
            yield self.from_index(i)

    def index_of(self, x: "FieldElement") -> int:
        i = 0
        for c in reversed(x.coeffs):
            i = i * self.p + c
        return i

    def primitive_element(self) -> "FieldElement":
        """First element in enumeration order of multiplicative order p^k - 1."""
        target = self.size - 1
        for x in self.elements():
            if not x.is_zero() and x.multiplicative_order() == target:
                return x
        raise RegulaError("no primitive element found")  # unreachable

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


class FieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other):
        if self.field != other.field:
            raise RegulaError("elements of different fields")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        prod = _poly_mod(_poly_mul(_poly_trim(self.coeffs), _poly_trim(other.coeffs), f.p),
                         f.modulus, f.p)
        return f.element(prod)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # x^(q-2) = x^-1 in GF(q)
        return self ** (self.field.size - 2)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        f = self.field
        if n < 0:
            return self.inverse() ** (-n)
        result = f.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self):
        """x -> x^p, the generating field automorphism."""
        return self ** self.field.p

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise RegulaError("zero has no multiplicative order")
        n = self.field.size - 1
        o = n
        for q in prime_factors(n):
            while o % q == 0 and (self ** (o // q)) == self.field.one():
                o //= q
        return o

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"FieldElement({self.field!r}, {self.coeffs})"


def make_field(p: int, k: int) -> FieldDesc:
    """GF(p^k) with the lexicographically smallest monic irreducible modulus."""
    if not is_prime(p):
        raise RegulaError(f"{p} is not prime")
    if k < 1:
        raise RegulaError("extension degree must be >= 1")
    candidates = (_digits(i, p, k) + (1,) for i in range(p ** k))
    return FieldDesc(p=p, k=k, modulus=next(m for m in candidates if _is_irreducible(m, p)))


def field_of_size(q: int) -> FieldDesc:
    """GF(q); the one check that a field size q is a prime power."""
    fac = factorize(q) if q > 1 else {}
    if len(fac) != 1:
        raise RegulaError(f"field size must be a prime power, got {q}")
    (p, k), = fac.items()
    return make_field(p, k)
