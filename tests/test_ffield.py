import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_pow_mod, gf_rem

from regula import RegulaError, ffield
from regula.ffield import add, field_of_size, frobenius, inv, make_field, modulus, mul

# every field of order at most 64
SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                 53, 59, 61)
                for k in range(1, 7) if p ** k <= 64]


def power(F, x, n):
    y = 1
    for _ in range(n):
        y = mul(F, y, x)
    return y


def order(F, x):
    n, y = 1, x
    while y != 1:
        n, y = n + 1, mul(F, y, x)
    return n


class TestMakeField:
    def test_gf2_modulus_is_x(self):
        assert modulus(2, 1) == (0, 1)

    def test_gf9_modulus(self):
        # x^2 + 1 has no root mod 3 and is the smallest in the enumeration
        assert modulus(3, 2) == (1, 0, 1)

    def test_gf16_cyclic(self):
        p, k, exp, log = make_field(2, 4)
        assert len(modulus(p, k)) == 5
        assert sorted(exp[:15]) == list(range(1, 16))
        assert exp[15] == 1

    def test_deterministic(self):
        assert make_field(5, 2) == make_field(5, 2)

    def test_composite_characteristic(self):
        with pytest.raises(RegulaError):
            make_field(4, 1)

    def test_moduli_are_irreducible_no_small_roots(self):
        for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2)):
            m = modulus(p, k)
            # no roots in the prime field
            for a in range(p):
                val = sum(c * a ** i for i, c in enumerate(m)) % p
                assert val != 0

    def test_moduli_against_sympy(self):
        # the modulus is irreducible and every earlier candidate c0 + c1*p + ...
        # of the enumeration is reducible, for every field of at most 2000 elements
        x = sympy.Symbol("x")

        def irreducible(coeffs, p):
            return sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible

        fields = [(int(p), k) for p in sympy.primerange(2, 2001) for k in range(1, 11)
                  if p ** k <= 2000]
        assert len(fields) == 333
        for p, k in fields:
            m = modulus(p, k)
            assert len(m) == k + 1 and m[-1] == 1
            assert irreducible(m, p), (p, k)
            index = sum(c * p ** i for i, c in enumerate(m[:-1]))
            for i in range(index):
                lower = tuple((i // p ** j) % p for j in range(k)) + (1,)
                assert not irreducible(lower, p), (p, k, lower)

    def test_module_defines_only_functions(self):
        # a field is a tuple of tables and an element an int: the module
        # defines no class and builds nothing when it is imported
        own = [v for name, v in vars(ffield).items()
               if not name.startswith("__") and getattr(v, "__module__", None) == ffield.__name__]
        assert own and all(callable(v) and not isinstance(v, type) for v in own)
        assert "dataclasses" not in vars(ffield) and "dataclass" not in vars(ffield)


class TestFieldOfSize:
    def test_prime_powers(self):
        for q, (p, k) in ((2, (2, 1)), (9, (3, 2)), (16, (2, 4)), (1999, (1999, 1))):
            F = field_of_size(q)
            assert F[:2] == (p, k) and len(F[2]) == len(F[3]) == q
            assert F == make_field(p, k)

    def test_rejects_non_prime_powers(self):
        for q in (-4, 0, 1, 6, 12, 15, 1000):
            with pytest.raises(RegulaError, match=f"^field size must be a prime power, got {q}$"):
                field_of_size(q)


class TestArithmetic:
    def test_inverse_exhaustive_gf9(self):
        F = make_field(3, 2)
        for x in range(1, 9):
            assert mul(F, inv(F, x), x) == 1

    def test_zero_inverse(self):
        with pytest.raises(ZeroDivisionError):
            inv(make_field(3, 2), 0)

    def test_frobenius_fixes_prime_subfield(self):
        for p, k in ((3, 2), (5, 2), (2, 4)):
            F = make_field(p, k)
            fixed = sum(1 for x in range(p ** k) if frobenius(F, x) == x)
            assert fixed == p

    def test_frobenius_order(self):
        F = make_field(2, 4)
        for x in range(16):
            y = x
            for _ in range(4):
                y = frobenius(F, y)
            assert y == x

    def test_lagrange(self):
        for p, k in ((5, 1), (3, 2), (2, 4)):
            F = make_field(p, k)
            assert power(F, F[2][1], p ** k - 1) == 1

    def test_field_axioms_spot(self):
        F = make_field(3, 2)
        for a in range(9):
            for b in range(5):
                assert add(F, a, b) == add(F, b, a)
                assert mul(F, a, b) == mul(F, b, a)
        a, b, c = 3, 5, 7
        assert mul(F, a, add(F, b, c)) == add(F, mul(F, a, b), mul(F, a, c))

    def test_additive_exponent(self):
        for p, k in ((2, 3), (3, 2), (5, 1), (7, 1)):
            F = make_field(p, k)
            for x in range(p ** k):
                acc = 0
                for _ in range(p):
                    acc = add(F, acc, x)
                assert acc == 0

    def test_multiplicative_cyclic_small_fields(self):
        # the multiplicative group is cyclic of order p^k - 1
        for p, k in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                     (3, 1), (3, 2), (3, 3), (3, 4),
                     (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1),
                     (17, 1), (257, 1)):
            F = make_field(p, k)
            assert order(F, F[2][1]) == p ** k - 1


class TestPrimitiveElement:
    def test_gf2(self):
        assert make_field(2, 1)[2][1] == 1

    def test_gf5_is_two(self):
        assert make_field(5, 1)[2][1] == 2

    def test_gf9_order_eight(self):
        F = make_field(3, 2)
        assert order(F, F[2][1]) == 8

    def test_first_label_of_full_order(self):
        for p, k in SMALL_FIELDS:
            F = make_field(p, k)
            g = F[2][1]
            assert order(F, g) == p ** k - 1
            assert all(order(F, x) < p ** k - 1 for x in range(1, g)), (p, k)


class TestInterfaces:
    def test_labels_are_coefficients_in_base_p(self):
        # in GF(9) = GF(3)[t]/(t^2 + 1) the label of c0 + c1*t is c0 + 3*c1,
        # so t is 3, t^2 = -1 is 2 and 1 + t is 4
        F = make_field(3, 2)
        assert mul(F, 3, 3) == 2
        assert add(F, 1, 3) == 4
        assert add(F, 5, 7) == 0       # (2 + t) + (1 + 2t)


class TestAgainstSympy:
    # the table arithmetic against sympy's dense polynomials over GF(p),
    # exhaustively, under the same modulus, for every field of order <= 64
    def test_small_field_count(self):
        assert len(SMALL_FIELDS) == 27

    @pytest.mark.parametrize("p, k", SMALL_FIELDS)
    def test_arithmetic(self, p, k):
        q = p ** k
        F = make_field(p, k)
        m = list(reversed(modulus(p, k)))

        def poly(x):
            # highest coefficient first, no leading zeros
            c = []
            while x:
                x, d = divmod(x, p)
                c.insert(0, d)
            return c

        def label(c):
            x = 0
            for d in c:
                x = x * p + d
            return x

        polys = [poly(x) for x in range(q)]
        for x in range(q):
            for y in range(q):
                assert add(F, x, y) == label(gf_add(polys[x], polys[y], p, ZZ))
                assert mul(F, x, y) == label(gf_rem(gf_mul(polys[x], polys[y], p, ZZ), m, p, ZZ))
            assert frobenius(F, x) == label(gf_pow_mod(polys[x], p, m, p, ZZ))
            if x:
                assert inv(F, x) == label(gf_pow_mod(polys[x], q - 2, m, p, ZZ))

    @pytest.mark.parametrize("p, k", SMALL_FIELDS)
    def test_tables(self, p, k):
        q = p ** k
        F = make_field(p, k)
        _, _, exp, log = F
        assert len(exp) == len(log) == q
        assert sorted(exp[:-1]) == list(range(1, q)) and exp[-1] == 1
        assert all(log[exp[i]] == i for i in range(q - 1))
        assert all(exp[log[x]] == x for x in range(1, q))
        # the Frobenius map has order exactly k
        images = list(range(q))
        for j in range(1, k + 1):
            images = [frobenius(F, x) for x in images]
            assert (images == list(range(q))) == (j == k)
