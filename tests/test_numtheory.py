import math
from fractions import Fraction

import pytest
import sympy

from regula import CapExceeded, RegulaError
from regula.numtheory import (
    coxeter_number,
    factorize,
    is_prime,
    landau_quantity,
    lewis_riedl_p_part,
    min_centralizer_bound_linear,
    part_split,
    prime_factors,
    prime_family,
    psl2_candidate_scan,
    regular_class_bound_linear,
    regular_class_bound_rank1,
    regular_proportion_bound,
    singular_proportion_bound_cross,
    singular_proportion_bound_defining,
    zsigmondy_primes,
)
from regula.suites import run_suite

KNOWN_SCAN_17 = (11, 13, 16, 19, 23, 25, 27, 31, 32, 37, 47, 49, 53, 73, 81, 97, 128)


# the least strong pseudoprimes to all of the first 1, 4, 11, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = (2047, 3215031751, 3825123056546413051,
                       318665857834031151167461, 3317044064679887385961981)


class TestPrimesAgainstSympy:
    def test_is_prime_range(self):
        for n in range(-5, 200_000):
            assert is_prime(n) == sympy.isprime(n), n

    def test_strong_pseudoprimes(self):
        for n in STRONG_PSEUDOPRIMES:
            assert not is_prime(n), n
            assert not sympy.isprime(n), n

    def test_above_miller_rabin_bound(self):
        # at or above 3317044064679887385961981 the test is sympy's
        big = (2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1, 10 ** 30 + 57,
               2 ** 89 + 1, (2 ** 61 - 1) * (2 ** 31 - 1) * 2053 ** 2, 10 ** 30 + 1)
        for n in big:
            assert n >= STRONG_PSEUDOPRIMES[-1]
            assert is_prime(n) == sympy.isprime(n), n
        assert [is_prime(n) for n in big] == [True, True, True, True, False, False, False]

    def test_factorize_range(self):
        for n in range(1, 100_000):
            assert list(factorize(n).items()) == list(sympy.factorint(n).items()), n

    def test_factorize_large(self):
        primes = [sympy.prevprime(10 ** 12), sympy.nextprime(10 ** 12),
                  sympy.nextprime(10 ** 12 + 10 ** 6)]
        cases = [math.factorial(2000), primes[0] * primes[1], primes[1] * primes[2],
                 primes[0] ** 2 * primes[2], 2 ** 5 * 2039 * primes[0] * primes[1]]
        for n in cases:
            # sympy lists factors found by Pollard rho in the order found
            assert list(factorize(n).items()) == sorted(sympy.factorint(n).items())
        assert prime_factors(math.factorial(2000)) == list(sympy.primerange(2, 2001))

    def test_factorize_rejects_nonpositive(self):
        for n in (0, -12):
            with pytest.raises(RegulaError):
                factorize(n)


class TestPartSplit:
    def test_examples(self):
        assert part_split(80, 2) == (16, 5)
        assert part_split(81, 2) == (1, 81)
        assert part_split(15, 3) == (3, 5)

    def test_reconstruction(self):
        for n in range(1, 500):
            for p in (2, 3, 5, 7):
                a, b = part_split(n, p)
                assert a * b == n
                assert b % p != 0

    def test_errors(self):
        with pytest.raises(RegulaError):
            part_split(0, 2)
        with pytest.raises(RegulaError):
            part_split(10, 4)


class TestLandauQuantity:
    def test_small(self):
        assert landau_quantity(2, 4, 3) == Fraction(5, 4)
        assert landau_quantity(2, 1, 3) == Fraction(1)

    def test_big_exact(self):
        assert landau_quantity(2, 24, 3) == Fraction(1864135, 72)

    def test_growth_window(self):
        for r, p in ((2, 3), (3, 2)):
            early = max(landau_quantity(r, a, p) for a in range(1, 5))
            late = min(landau_quantity(r, a, p) for a in range(17, 25))
            assert late > early

    def test_bit_cap(self):
        # checked before r^a is built
        assert landau_quantity(2, 2048, 3).denominator == 2048
        with pytest.raises(CapExceeded):
            landau_quantity(2, 10 ** 8, 3)
        with pytest.raises(CapExceeded):
            landau_quantity(2 ** 4096, 1, 3)

    def test_bit_cap_is_exact(self):
        # the cap counts the bits of r^a itself, not a * bitlength(r)
        assert landau_quantity(2, 4000, 3) == \
            Fraction(part_split(2 ** 4000 - 1, 3)[1], 4000)          # 4001 bits
        with pytest.raises(CapExceeded, match="more than 4096 bits"):
            landau_quantity(2, 4096, 3)                              # 4097 bits
        assert (3 ** 2584).bit_length() == 4096 < (3 ** 2585).bit_length()
        assert landau_quantity(3, 2584, 2) > 0
        with pytest.raises(CapExceeded):
            landau_quantity(3, 2585, 2)


class TestLewisRiedl:
    def test_examples(self):
        assert lewis_riedl_p_part(3, 2, 2) == 16 == part_split(3 ** 4 - 1, 2)[0]
        assert lewis_riedl_p_part(4, 1, 3) == 9 == part_split(4 ** 3 - 1, 3)[0]
        assert lewis_riedl_p_part(5, 1, 2) == 8 == part_split(5 ** 2 - 1, 2)[0]

    def test_full_sweep(self):
        for r in range(2, 51):
            for p in (2, 3, 5, 7):
                if (r - 1) % p != 0:
                    continue
                for c in (1, 2, 3):
                    assert lewis_riedl_p_part(r, c, p) == \
                        part_split(r ** (p ** c) - 1, p)[0], (r, c, p)

    def test_precondition(self):
        with pytest.raises(RegulaError):
            lewis_riedl_p_part(4, 1, 2)  # 2 does not divide 3
        with pytest.raises(RegulaError):
            lewis_riedl_p_part(3, 0, 2)


class TestZsigmondy:
    def test_classical_exception(self):
        assert zsigmondy_primes(2, 6) == frozenset()

    def test_two_four(self):
        assert zsigmondy_primes(2, 4) == frozenset({5})

    def test_b_one(self):
        assert zsigmondy_primes(2, 1) == frozenset()

    def test_definition(self):
        for r in (2, 3, 5, 6):
            for b in range(1, 11):
                zs = zsigmondy_primes(r, b)
                for q in zs:
                    assert (r ** b - 1) % q == 0
                    for j in range(1, b):
                        assert (r ** j - 1) % q != 0

    def test_bit_cap(self):
        with pytest.raises(CapExceeded):
            zsigmondy_primes(2, 300)

    def test_bit_cap_is_exact(self):
        # 3^161 has 256 bits although 161 * bitlength(3) = 322
        assert (3 ** 161).bit_length() == 256 < (3 ** 162).bit_length()
        zs = zsigmondy_primes(3, 161)
        assert zs and all((3 ** 161 - 1) % q == 0 for q in zs)
        with pytest.raises(CapExceeded, match="more than 256 bits"):
            zsigmondy_primes(3, 162)
        with pytest.raises(CapExceeded):
            zsigmondy_primes(2, 256)                                 # 257 bits


class TestPrimeFamilies:
    def test_fermat(self):
        assert prime_family("fermat", 10 ** 5) == [3, 5, 17, 257, 65537]

    def test_mersenne(self):
        assert prime_family("mersenne", 10 ** 4) == [3, 7, 31, 127, 8191]

    def test_two_rn(self):
        vals = prime_family("two_rn_plus1", 200)
        assert {7, 19, 23} <= set(vals)
        for v in vals:
            assert v <= 200

    def test_four_rn_prime_powers(self):
        vals = prime_family("four_rn_plus1", 300)
        assert 9 in vals         # 4*2 + 1 = 3^2, a prime power
        assert 13 in vals        # 4*3 + 1
        assert 125 in vals       # 4*31 + 1 = 5^3

    def test_four_rn_against_sympy(self):
        bound = 20_000
        values = {4 * r ** n + 1 for r in sympy.primerange(2, bound) for n in range(1, 14)}
        assert prime_family("four_rn_plus1", bound) == sorted(
            v for v in values if v <= bound and len(sympy.factorint(v)) == 1)

    def test_two_rn_against_sympy(self):
        bound = 20_000
        values = {2 * r ** n + 1 for r in sympy.primerange(2, bound) for n in range(1, 14)}
        assert prime_family("two_rn_plus1", bound) == sorted(
            v for v in values if v <= bound and sympy.isprime(v))

    def test_bounds_below_the_first_member(self):
        for kind in ("fermat", "mersenne", "two_rn_plus1", "four_rn_plus1"):
            for bound in (-7, 0, 1, 2):
                assert prime_family(kind, bound) == [], (kind, bound)

    def test_walk_cap(self):
        # the r^n kinds walk every prime below the bound; the others do not
        for kind in ("two_rn_plus1", "four_rn_plus1"):
            with pytest.raises(CapExceeded):
                prime_family(kind, 10 ** 6 + 1)
            with pytest.raises(CapExceeded):
                prime_family(kind, 10 ** 9)
        assert prime_family("fermat", 10 ** 9) == [3, 5, 17, 257, 65537]
        assert prime_family("mersenne", 10 ** 9)[-1] == 2 ** 19 - 1

    def test_unknown_kind(self):
        with pytest.raises(RegulaError):
            prime_family("sophie", 100)


class TestCoxeter:
    def test_table(self):
        assert coxeter_number("E8") == 30
        assert coxeter_number("A", 1) == 2
        assert coxeter_number("B", 3) == 6
        assert coxeter_number("C", 4) == 8
        assert coxeter_number("D", 4) == 6
        assert coxeter_number("G2") == 6
        assert coxeter_number("F4") == 12
        assert coxeter_number("E6") == 12
        assert coxeter_number("E7") == 18

    def test_roots_over_rank_oracle(self):
        roots = {("A", 4): 20, ("B", 3): 18, ("C", 5): 50, ("D", 4): 24}
        for (fam, rank), count in roots.items():
            assert coxeter_number(fam, rank) == count // rank

    def test_unknown(self):
        with pytest.raises(RegulaError):
            coxeter_number("H", 3)


class TestBounds:
    def test_linear_values_exact(self):
        assert regular_class_bound_linear(2, 7) == Fraction(7, 48)
        assert regular_class_bound_linear(3, 3) == Fraction(1, 18)
        assert regular_class_bound_linear(2, 5) == Fraction(5, 48)

    def test_rank1_value(self):
        # q = 9 = 3^2: 9 / (4 e * 2 * (1 + 1/2) * 2)
        assert regular_class_bound_rank1(9, 2) == pytest.approx(3 / (8 * math.e))

    def test_compare_slack(self):
        # the bounds suite records each bound with report.check
        by_id = {c.claim_id: c for c in run_suite("bounds").checks}
        row = by_id["bound.kreg.PSL2(7).p2"]
        assert row.expected == Fraction(7, 48) and row.computed == 4
        assert row.status == "pass"
        # exact equality passes thanks to the slack
        row = by_id["bound.sing.PSL2(5).p2"]
        assert row.expected == row.computed == singular_proportion_bound_cross(2, 2)
        assert row.status == "pass"

    def test_min_centralizer(self):
        v = min_centralizer_bound_linear(2, 7)
        assert 0 < v < 2  # q/(e (1+log_q 3) gcd(q-1, n)) with gcd = 2
        assert v == 7 / (math.e * (1 + math.log(3, 7)) * 2)
        assert min_centralizer_bound_linear(2, 13) > v

    def test_singular_proportions(self):
        assert singular_proportion_bound_defining(7) == Fraction(2, 35)
        assert singular_proportion_bound_cross(2, 2) == Fraction(1, 4)

    def test_regular_proportions(self):
        assert regular_proportion_bound(3) == Fraction(1, 6)
        # the bounds suite passes m = 2 for PSL2(q)
        assert regular_proportion_bound(2) == Fraction(1, 4)

    OUTSIDE = [(regular_class_bound_linear, (0, 3)), (regular_class_bound_linear, (2, 1)),
               (regular_class_bound_rank1, (1, 1)), (regular_class_bound_rank1, (0, 1)),
               (regular_class_bound_rank1, (4, 0)), (min_centralizer_bound_linear, (2, 1)),
               (min_centralizer_bound_linear, (0, 3)), (singular_proportion_bound_defining, (0,)),
               (singular_proportion_bound_cross, (0, 2)), (singular_proportion_bound_cross, (3, 4)),
               (regular_proportion_bound, (0,))]

    @pytest.mark.parametrize("bound, args", OUTSIDE,
                             ids=[f"{bound.__name__}{args}" for bound, args in OUTSIDE])
    def test_outside_the_domain_refused(self, bound, args):
        # each is outside its formula's domain: one error line, not a traceback or a number
        with pytest.raises(RegulaError) as refused:
            bound(*args)
        assert "\n" not in str(refused.value)


class TestPsl2Scan:
    def test_contains_all_seventeen(self):
        scan = psl2_candidate_scan(10 ** 5)
        assert set(KNOWN_SCAN_17) <= set(scan)

    def test_full_list_pinned(self):
        # the seventeen plus 107, 127, 163, 193, 243 and 257; nothing past
        # 257 qualifies, so the largest bound gives the same list
        want = [11, 13, 16, 19, 23, 25, 27, 31, 32, 37, 47, 49, 53, 73, 81, 97,
                107, 127, 128, 163, 193, 243, 257]
        assert psl2_candidate_scan(10 ** 5) == want
        assert psl2_candidate_scan(10 ** 6) == want

    def test_sixteen_qualifies(self):
        assert 16 * (16 * 16 - 1) == 4080  # |PSL2(16)| = 2^4 * 3 * 5 * 17: four primes
        assert 16 in psl2_candidate_scan(100)

    def test_nine_rejected(self):
        # |PSL2(9)| = 360 = 2^3 * 3^2 * 5 has only three prime divisors
        assert 9 not in psl2_candidate_scan(100)

    def test_bound_floor(self):
        with pytest.raises(RegulaError):
            psl2_candidate_scan(50)
