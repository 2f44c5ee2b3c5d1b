import pytest
import sympy

from regula import RegulaError
from regula.ffield import field_of_size, make_field


class TestMakeField:
    def test_gf2_modulus_is_x(self):
        assert make_field(2, 1).modulus == (0, 1)

    def test_gf9_modulus(self):
        # x^2 + 1 has no root mod 3 and is the smallest in the enumeration
        assert make_field(3, 2).modulus == (1, 0, 1)

    def test_gf16_cyclic(self):
        F = make_field(2, 4)
        assert len(F.modulus) == 5
        orders = {x.multiplicative_order() for x in F.elements() if not x.is_zero()}
        assert max(orders) == 15
        assert sum(1 for x in F.elements() if not x.is_zero()) == 15

    def test_deterministic(self):
        assert make_field(5, 2).modulus == make_field(5, 2).modulus

    def test_composite_characteristic(self):
        with pytest.raises(RegulaError):
            make_field(4, 1)

    def test_moduli_are_irreducible_no_small_roots(self):
        for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2)):
            F = make_field(p, k)
            # no roots in the prime field
            for a in range(p):
                val = sum(c * a ** i for i, c in enumerate(F.modulus)) % p
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
            m = make_field(p, k).modulus
            assert len(m) == k + 1 and m[-1] == 1
            assert irreducible(m, p), (p, k)
            index = sum(c * p ** i for i, c in enumerate(m[:-1]))
            for i in range(index):
                lower = tuple((i // p ** j) % p for j in range(k)) + (1,)
                assert not irreducible(lower, p), (p, k, lower)


class TestFieldOfSize:
    def test_prime_powers(self):
        for q, (p, k) in ((2, (2, 1)), (9, (3, 2)), (16, (2, 4)), (1999, (1999, 1))):
            F = field_of_size(q)
            assert (F.p, F.k, F.size) == (p, k, q)
            assert F.modulus == make_field(p, k).modulus

    def test_rejects_non_prime_powers(self):
        for q in (-4, 0, 1, 6, 12, 15, 1000):
            with pytest.raises(RegulaError, match=f"^field size must be a prime power, got {q}$"):
                field_of_size(q)


class TestArithmetic:
    def test_inverse_exhaustive_gf9(self):
        F = make_field(3, 2)
        one = F.one()
        for x in F.elements():
            if not x.is_zero():
                assert x.inverse() * x == one

    def test_zero_inverse(self):
        with pytest.raises(ZeroDivisionError):
            make_field(3, 2).zero().inverse()

    def test_frobenius_fixes_prime_subfield(self):
        for p, k in ((3, 2), (5, 2), (2, 4)):
            F = make_field(p, k)
            fixed = sum(1 for x in F.elements() if x.frobenius() == x)
            assert fixed == p

    def test_frobenius_order(self):
        F = make_field(2, 4)
        for x in F.elements():
            y = x
            for _ in range(4):
                y = y.frobenius()
            assert y == x

    def test_lagrange(self):
        for p, k in ((5, 1), (3, 2), (2, 4)):
            F = make_field(p, k)
            g = F.primitive_element()
            assert g ** (F.size - 1) == F.one()

    def test_field_axioms_spot(self):
        F = make_field(3, 2)
        xs = list(F.elements())
        for a in xs:
            for b in xs[:5]:
                assert a + b == b + a
                assert a * b == b * a
        a, b, c = xs[3], xs[5], xs[7]
        assert a * (b + c) == a * b + a * c

    def test_additive_exponent(self):
        for p, k in ((2, 3), (3, 2), (5, 1), (7, 1)):
            F = make_field(p, k)
            zero = F.zero()
            for x in F.elements():
                acc = zero
                for _ in range(p):
                    acc = acc + x
                assert acc == zero

    def test_multiplicative_cyclic_small_fields(self):
        # the multiplicative group is cyclic of order p^k - 1
        for p, k in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                     (3, 1), (3, 2), (3, 3), (3, 4),
                     (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1),
                     (17, 1), (257, 1)):
            F = make_field(p, k)
            g = F.primitive_element()
            assert g.multiplicative_order() == F.size - 1


class TestPrimitiveElement:
    def test_gf2(self):
        assert make_field(2, 1).primitive_element().coeffs == (1,)

    def test_gf5_is_two(self):
        assert make_field(5, 1).primitive_element().coeffs == (2,)

    def test_gf9_order_eight(self):
        g = make_field(3, 2).primitive_element()
        assert g.multiplicative_order() == 8


class TestInterfaces:
    def test_printing(self):
        F = make_field(3, 2)
        assert str(F.element((2, 1))) == "[2,1]"

    def test_index_round_trip(self):
        F = make_field(3, 3)
        for i in (0, 1, 5, 26):
            assert F.index_of(F.from_index(i)) == i
