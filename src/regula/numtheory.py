"""Number-theoretic helpers and the closed-form class-count bounds.

Everything here is exact where the quantity is rational (Fractions over
arbitrary-precision integers) and double precision where a logarithm is
unavoidable.  Each bound is a plain function of its parameters that
returns the bound as a number.  The ``bounds`` suite passes a row when
the exact count is ``>=`` its bound, with no tolerance: a rational bound
is compared exactly, and the two logarithmic bounds
(``regular_class_bound_rank1`` and ``min_centralizer_bound_linear``) are
still double-precision values, which every count in the suite clears by
more than 2.

Primality and factorisation are exact in plain Python for every number
the group-theory path meets.  ``is_prime`` is trial division by the
primes below 2048 followed by Miller-Rabin with the thirteen prime bases
2, ..., 41, which has no strong pseudoprime below
3 317 044 064 679 887 385 961 981 (Sorenson and Webster, 2015).
``factorize`` trial-divides by the same primes, which finds every prime
factor of a group order of degree at most 2000, and proves any cofactor
prime with ``is_prime``.  sympy is imported only when a number is beyond
that: ``is_prime`` of an integer at or above the Miller-Rabin bound, or
``factorize`` of a number with two or more prime factors above 2048
(a large ``zsigmondy_primes`` cofactor, say).

Every integer argument of a public function here passes ``check_int``,
the package's one integer check, so a float such as 2.5 is refused with
a ``RegulaError`` rather than given a wrong answer; an argument that
must be prime passes ``check_prime`` instead.  The class-count bounds
also refuse, with a one-line ``RegulaError``, parameters outside the
domain of their formula, where it would divide by zero, take a logarithm
to base 1 or read a non-prime characteristic.  Helpers whose cost grows
with their input refuse a large one with ``CapExceeded`` before any
work, against the input bounds below; no call overrides them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, takewhile

from .errors import CapExceeded, RegulaError

# input bounds
_LANDAU_MAX_BITS = 4096          # bits of r^a
_ZSIGMONDY_MAX_BITS = 256        # bits of r^b
_PSL2_SCAN_CAP = 10 ** 6
# largest bound per prime family; the r^n kinds walk the primes r below
# bound / 2 from one sieve, about 0.07 s at 10^6
_FAMILY_CAPS = {"fermat": 10 ** 9, "mersenne": 10 ** 9,
                "two_rn_plus1": 10 ** 6, "four_rn_plus1": 10 ** 6}


def _primes_below(n: int) -> list:
    sieve = bytearray([1]) * n
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return [p for p in range(2, n) if sieve[p]]


_SMALL_PRIMES = _primes_below(2048)
_MR_BASES = _SMALL_PRIMES[:13]          # 2, 3, 5, ..., 41
_MR_BOUND = 3317044064679887385961981   # least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Whether n is a prime int; a value of any other type is not one,
    even one equal to a prime, such as 2.0."""
    if not isinstance(n, int):
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n > 1
        if n % p == 0:
            return False
    if n >= _MR_BOUND:
        import sympy
        return sympy.isprime(n)
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Refuse a p that is not prime: the one check of the prime that the
    class counts, the p-part helpers and GF(p^k) are defined for."""
    if not is_prime(p):
        raise RegulaError(f"{p} is not prime")


def check_int(name: str, n):
    """``n``, refused unless it is an int: the one check of an integer
    argument, with the one message "{name} {n!r} is not an integer"."""
    if not isinstance(n, int):
        raise RegulaError(f"{name} {n!r} is not an integer")
    return n


def _check_bits(r: int, e: int, most: int, power: str) -> None:
    """Refuse r^e, written ``power``, with more than ``most`` bits.
    r^e has e*(bitlength(r) - 1) + 1 to e*bitlength(r) bits; only when the
    bound falls between the two is r^e built to count them."""
    bits = r.bit_length()
    if e * bits > most and (e * (bits - 1) >= most or (r ** e).bit_length() > most):
        raise CapExceeded(f"{power} needs more than {most} bits")


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}, keys ascending."""
    if check_int("n", n) < 1:
        raise RegulaError("factorize needs a positive integer")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    else:
        # no prime factor of n is below 2048
        if not is_prime(n):
            import sympy
            out.update(sorted((int(q), int(e)) for q, e in sympy.factorint(n).items()))
            return out
    if n > 1:
        out[n] = 1
    return out


def prime_factors(n: int) -> list:
    return sorted(factorize(n)) if check_int("n", n) > 1 else []


def is_p_power(n: int, p: int) -> bool:
    """Whether the positive integer n is a power of p (1 included).

    p is not checked: callers pass a prime that ``check_prime`` has passed.
    """
    check_int("n", n)
    while n % p == 0:
        n //= p
    return n == 1


def part_split(n: int, p: int) -> tuple[int, int]:
    """(n_p, n_p'): the p-part and p'-part of n."""
    if check_int("n", n) < 1:
        raise RegulaError("n must be positive")
    check_prime(p)
    np_ = 1
    while n % p == 0:
        n //= p
        np_ *= p
    return np_, n


def landau_quantity(r: int, a: int, p: int) -> Fraction:
    """(r^a - 1)_{p'} / (a * a_p), exactly; r^a may have at most 4096 bits."""
    if check_int("r", r) <= 1 or check_int("a", a) < 1:
        raise RegulaError("need r > 1 and a >= 1")
    _check_bits(r, a, _LANDAU_MAX_BITS, "r^a")
    _, num = part_split(r ** a - 1, p)
    ap, _ = part_split(a, p)
    return Fraction(num, a * ap)


def lewis_riedl_p_part(r: int, c: int, p: int) -> int:
    """The p-part of r^(p^c) - 1 in closed form, valid when p divides r - 1
    and c >= 1.

    Equals p^c * (r-1)_p when p > 2 or (r-1)_2 > 2, and p^c * (r+1)_2
    otherwise.
    """
    check_prime(p)
    if check_int("c", c) < 1 or check_int("r", r) <= 1:
        raise RegulaError("need r > 1 and c >= 1")
    if (r - 1) % p != 0:
        raise RegulaError(f"{p} does not divide r - 1 = {r - 1}")
    rm1_p, _ = part_split(r - 1, p)
    if p > 2 or rm1_p > 2:
        return p ** c * rm1_p
    rp1_2, _ = part_split(r + 1, 2)
    return p ** c * rp1_2


def zsigmondy_primes(r: int, b: int) -> frozenset:
    """Primes dividing r^b - 1 but no r^j - 1 with 1 <= j < b; r^b may
    have at most 256 bits."""
    if check_int("r", r) <= 1 or check_int("b", b) < 1:
        raise RegulaError("need r > 1 and b >= 1")
    _check_bits(r, b, _ZSIGMONDY_MAX_BITS, "r^b")
    m = r ** b - 1
    if m == 1:
        return frozenset()
    # a prime q with ord_q(r) < b has its order dividing b/l for some prime l
    for ell in prime_factors(b):
        d = b // ell
        g = math.gcd(m, r ** d - 1)
        while g > 1:
            m //= g
            g = math.gcd(m, r ** d - 1)
    if m == 1:
        return frozenset()
    return frozenset(factorize(m))


def prime_family(kind: str, bound: int) -> list:
    """Enumerate a named family of primes (or prime powers) up to ``bound``,
    which is at most 10^9, or 10^6 for the kinds that walk the primes."""
    if kind not in _FAMILY_CAPS:
        raise RegulaError(f"unknown family {kind!r}; one of {tuple(_FAMILY_CAPS)}")
    cap = _FAMILY_CAPS[kind]
    if check_int("bound", bound) > cap:
        raise CapExceeded(f"bound {bound} exceeds cap {cap}")
    if kind in ("fermat", "mersenne"):
        values = ((2 ** (2 ** m) + 1 for m in count()) if kind == "fermat"
                  else (2 ** n - 1 for n in count(2)))
        return [v for v in takewhile(lambda v: v <= bound, values) if is_prime(v)]
    mult = 2 if kind == "two_rn_plus1" else 4
    found = set()
    # every prime r with mult * r + 1 <= bound
    for r in _primes_below(max(0, (bound - 1) // mult + 1)):
        v = mult * r
        while v + 1 <= bound:
            cand = v + 1
            if kind == "two_rn_plus1":
                if is_prime(cand):
                    found.add(cand)
            else:
                # prime powers of the form 4*r^n + 1; cand <= 10^6 < 2048^2,
                # so factorize finds every prime factor by trial division
                if len(factorize(cand)) == 1:
                    found.add(cand)
            v *= r
    return sorted(found)


_COXETER = {
    "G2": 6, "F4": 12, "E6": 12, "E7": 18, "E8": 30,
}


def coxeter_number(family: str, rank: int = 0) -> int:
    """Coxeter number of the Weyl group of the given Lie family."""
    fam = family.upper()
    check_int("rank", rank)
    if fam in _COXETER:
        return _COXETER[fam]
    if rank < 1:
        raise RegulaError(f"family {family!r} needs a positive rank")
    if fam == "A":
        return rank + 1
    if fam in ("B", "C"):
        return 2 * rank
    if fam == "D":
        if rank < 2:
            raise RegulaError("D family needs rank >= 2")
        return 2 * rank - 2
    raise RegulaError(f"unknown family {family!r}")


# -- lower bounds for class counts, centralizers and proportions ----------

def regular_class_bound_linear(n: int, q: int) -> Fraction:
    """Lower bound q^(n-1) / (6 n^3) for the number of p-regular classes of
    PSL_n(q) or PSU_n(q)."""
    if check_int("n", n) < 1 or check_int("q", q) < 2:
        raise RegulaError("need n >= 1 and q >= 2")
    return Fraction(q ** (n - 1), 6 * n ** 3)


def regular_class_bound_rank1(q: int, f: int) -> float:
    """Lower bound q / (4 e f (1 + log_q 3) gcd(2, q-1)) for the number of
    p-regular classes of PSL2(q), q = r^f."""
    if check_int("q", q) < 2 or check_int("f", f) < 1:
        raise RegulaError("need q >= 2 and f >= 1")
    return q / (4 * math.e * f * (1 + math.log(3, q)) * math.gcd(2, q - 1))


def min_centralizer_bound_linear(n: int, q: int) -> float:
    """Lower bound q^(n-1) / (e (1 + log_q(n+1)) gcd(q-1, n)) for the
    smallest centralizer order of PSL_n(q).  At n = 2 it is the rank-1
    bound q / (e (1 + log_q 3) gcd(2, q-1)), float for float."""
    if check_int("n", n) < 1 or check_int("q", q) < 2:
        raise RegulaError("need n >= 1 and q >= 2")
    return q ** (n - 1) / (math.e * (1 + math.log(n + 1, q)) * math.gcd(q - 1, n))


def singular_proportion_bound_defining(q: int) -> Fraction:
    """Lower bound 2/(5q) for the proportion of p-singular elements of a
    group of Lie type over GF(q), p the defining characteristic."""
    if check_int("q", q) < 2:
        raise RegulaError("need q >= 2")
    return Fraction(2, 5 * q)


def singular_proportion_bound_cross(h: int, p: int) -> Fraction:
    """Lower bound (1/h)(1 - 1/p) for the proportion of p-singular elements,
    p a cross characteristic and h the Coxeter number."""
    if check_int("h", h) < 1:
        raise RegulaError("need h >= 1")
    check_int("p", p)
    check_prime(p)
    return Fraction(1, h) * (1 - Fraction(1, p))


def regular_proportion_bound(m: int) -> Fraction:
    """Lower bound 1/(2m) for the proportion of p-regular elements (any p)
    of a classical group of natural projective dimension m."""
    if check_int("m", m) < 1:
        raise RegulaError("need m >= 1")
    return Fraction(1, 2 * m)


# -- candidate scan for PSL2(q) with four-prime-divisor order --------------

def psl2_candidate_scan(bound: int) -> list:
    """Prime powers q <= bound such that |PSL2(q)| has exactly four distinct
    prime divisors and q / (4 e f (1 + log_q 3) gcd(2, q-1)^2) <= 5; the
    bound is at least 97 and at most 10^6.
    """
    if check_int("bound", bound) < 97:
        raise RegulaError("bound must be at least 97")
    if bound > _PSL2_SCAN_CAP:
        raise CapExceeded(f"bound {bound} exceeds cap {_PSL2_SCAN_CAP}")
    found = []
    for p in _primes_below(bound + 1):
        q, f = p, 1
        while q <= bound:
            if q >= 4:
                # for odd q the division by gcd(2, q-1) = 2 never removes
                # the prime 2 from q^2 - 1, so the divisor set is the union;
                # q + 1 <= 10^6 + 1 < 2048^2, so factorize is trial division
                primes = {p, *factorize(q - 1), *factorize(q + 1)}
                if len(primes) == 4:
                    lhs = regular_class_bound_rank1(q, f) / math.gcd(2, q - 1)
                    if lhs <= 5:
                        found.append(q)
            q *= p
            f += 1
    return sorted(found)
