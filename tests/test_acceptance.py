"""Acceptance criteria, one test (or parametrized family) per criterion.

Each check prints a single PASS/FAIL line so a full run reads as a
checklist.  Expected runtimes are printed for information; they are not
asserted, since wall-clock limits depend on the host.
"""

import time
from fractions import Fraction

import pytest

import oracles
from regula import perm_core
from regula.classes import conjugacy_classes
from regula.corpus import corpus_groups
from regula.exprs import group_from_text
from regula.numtheory import (
    landau_quantity,
    lewis_riedl_p_part,
    part_split,
    prime_factors,
    prime_family,
    psl2_candidate_scan,
    zsigmondy_primes,
)
from regula.radicals import core, fitting


def _line(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


# -- criterion 1: exactly four p-regular classes ---------------------------

CRIT1 = [
    ("A(5)", 2), ("A(5)", 3), ("PSL2(7)", 7), ("S(6)", 2),
    ("PGL2(9)", 2), ("U33.2", 2), ("L34.2_1", 2), ("L34.2^2", 2),
]


@pytest.mark.parametrize("expr,p", CRIT1, ids=[f"{e}-p{p}" for e, p in CRIT1])
def test_criterion_1_four_regular_classes(expr, p):
    got = conjugacy_classes(group_from_text(expr)).counts(p).k_regular
    assert _line(1, f"k_{p}'({expr}) = 4", got == 4, f"computed {got}")


def test_criterion_1_tits_rows_out_of_scope(reports):
    rows = [c for c in reports["theorem-b"].checks if c.status == "out_of_scope"]
    assert _line(1, "order-35942400 row reported out_of_scope", len(rows) == 1)


# -- criterion 2: exactly three p-regular classes ---------------------------

CRIT2 = [
    ("S(5)", 2), ("PGL2(7)", 2), ("M10", 2),
    ("PGammaL2(9)", 2), ("PGammaL2(8)", 3), ("A(5)", 5),
]


@pytest.mark.parametrize("expr,p", CRIT2, ids=[f"{e}-p{p}" for e, p in CRIT2])
def test_criterion_2_three_regular_classes(expr, p):
    got = conjugacy_classes(group_from_text(expr)).counts(p).k_regular
    assert _line(2, f"k_{p}'({expr}) = 3", got == 3, f"computed {got}")


# -- criterion 3: exactly five 2-regular classes -----------------------------

CRIT3 = ["S(7)", "M11", "M12.2", "PGL2(11)", "L34.2_2", "L34.2_3"]


@pytest.mark.parametrize("expr", CRIT3)
def test_criterion_3_five_regular_classes(expr):
    t0 = time.monotonic()
    got = conjugacy_classes(group_from_text(expr)).counts(2).k_regular
    assert _line(3, f"k_2'({expr}) = 5", got == 5,
                 f"computed {got} in {time.monotonic() - t0:.1f}s")


# -- criterion 4: family counts ----------------------------------------------

CRIT4 = [
    ("AGL1(3)", 2, "k_regular", 2),
    ("AGL1(5)", 2, "k_regular", 2),
    ("AGL1(17)", 2, "k_regular", 2),
    ("AGL1(257)", 2, "k_regular", 2),
    ("GLQ(l=1, q=3)", 2, "k_regular", 3),
    ("GLQ(l=1, q=5)", 2, "k_regular", 3),
    ("GLQ(l=2, q=3)", 2, "k_regular", 5),
    ("PSL2(4)", 2, "k_singular", 1),
    ("PSL2(8)", 2, "k_singular", 1),
    ("PSL2(16)", 2, "k_singular", 1),
    ("PSL2(5)", 5, "k_singular", 2),
    ("PSL2(7)", 7, "k_singular", 2),
    ("PSL2(9)", 3, "k_singular", 2),
    ("PSL2(11)", 11, "k_singular", 2),
    ("PSL2(13)", 13, "k_singular", 2),
    ("PSL3(3)", 3, "p_power", 3),
    ("Sz8", 2, "k_singular", 3),
    ("x(S(5), AGL1(5))", 2, "k_regular", 6),
]


@pytest.mark.parametrize("expr,p,kind,expected", CRIT4,
                         ids=[f"{e}-{k}{p}" for e, p, k, _ in CRIT4])
def test_criterion_4_families(expr, p, kind, expected):
    t0 = time.monotonic()
    table = conjugacy_classes(group_from_text(expr))
    if kind == "k_regular":
        got = table.counts(p).k_regular
    elif kind == "k_singular":
        got = table.counts(p).k_singular
    else:
        got = table.p_power_class_count(p)
    detail = f"computed {got} in {time.monotonic() - t0:.1f}s"
    if expr == "GLQ(l=2, q=3)" and got != expected:
        # independent recount: odd-order elements are the 81 vector
        # translations and their classes are the monomial-group orbits,
        # which a direct Burnside count also puts at 6, not 2^2+1 = 5
        odd = [c for c in table.classes if c.element_order % 2]
        detail += (f"; stated value 2^l+1 = {expected} but the {sum(c.class_size for c in odd)}"
                   f" odd-order elements fall into {len(odd)} classes")
    assert _line(4, f"{kind}(p={p}) of {expr} = {expected}", got == expected, detail)


# -- criterion 5: structural correctness ----------------------------------

def test_criterion_5_structure_oracle():
    t0 = time.monotonic()
    checked = 0
    for expr, G in corpus_groups():
        if G.order > 2000:
            continue
        want = oracles.core_orders(G)
        assert core(G, "solvable-radical").order == want["solvable-radical"], expr
        for p in prime_factors(G.order):
            assert core(G, "p-core", p).order == want[("p-core", p)], (expr, p)
            assert core(G, "p-prime-core", p).order == want[("p-prime-core", p)], (expr, p)
        assert fitting(G).order == want["fitting"], expr
        checked += 1
    assert _line(5, f"core/fitting match the set-based oracle on {checked} groups "
                    f"of order <= 2000", True, f"{time.monotonic() - t0:.1f}s")


def test_criterion_5_quotient_cores_trivial():
    t0 = time.monotonic()
    count = 0
    for expr, G in corpus_groups():
        if G.order > perm_core.ELEMENT_CAP:
            continue
        for p in prime_factors(G.order):
            N = core(G, "p-core", p)
            Q = G if N.is_trivial else G.quotient(N)
            assert core(Q, "p-core", p).is_trivial, (expr, p)
            count += 1
    assert _line(5, f"p-core of the quotient by the p-core is trivial "
                    f"({count} cases over the whole corpus)", True,
                 f"{time.monotonic() - t0:.1f}s")


def test_criterion_5_radical_quotients_trivial():
    for expr, G in corpus_groups():
        if G.order > perm_core.ELEMENT_CAP:
            continue
        N = core(G, "solvable-radical")
        Q = G if N.is_trivial else G.quotient(N)
        assert core(Q, "solvable-radical").is_trivial, expr
    assert _line(5, "solvable radical of the quotient by the radical is trivial", True)


# -- criterion 6: property suites ------------------------------------------

def test_criterion_6_property_suite_no_violations(reports):
    from regula.corpus import CORPUS_EXPRS

    rep = reports["properties"]
    fails = [c.claim_id for c in rep.checks if c.status == "fail"]
    n_inv = sum(1 for c in rep.checks if c.claim_id.startswith("prop.classeq")
                and c.status == "pass")
    n_ineq = sum(1 for c in rep.checks if ".quotient-ineq." in c.claim_id
                 or ".subgroup-ineq." in c.claim_id)
    full_cover = n_inv == len(CORPUS_EXPRS)
    assert _line(6, f"class-table invariants on all {n_inv}/{len(CORPUS_EXPRS)} "
                    f"corpus groups and {n_ineq} counting inequalities, zero violations",
                 not fails and full_cover,
                 f"failures: {fails}" if fails else "")


# -- criterion 7: bounds -----------------------------------------------------

def test_criterion_7_bounds_all_satisfied(reports):
    rep = reports["bounds"]
    fails = [c.claim_id for c in rep.checks if c.status == "fail"]
    assert _line(7, f"all {len(rep.checks)} bound evaluations satisfied",
                 not fails, f"failures: {fails}" if fails else "")


# -- criterion 8: number theory ---------------------------------------------

def test_criterion_8_number_theory():
    t0 = time.monotonic()
    ok = landau_quantity(2, 24, 3) == Fraction(1864135, 72)
    assert _line(8, "growth quantity (2,24,3) = 1864135/72", ok)

    bad = []
    for r in range(2, 51):
        for p in (2, 3, 5, 7):
            if (r - 1) % p:
                continue
            for c in (1, 2, 3):
                if lewis_riedl_p_part(r, c, p) != part_split(r ** (p ** c) - 1, p)[0]:
                    bad.append((r, c, p))
    assert _line(8, "closed-form p-part sweep (r <= 50, c <= 3)", not bad, str(bad))

    assert _line(8, "no new prime at 2^6 - 1", zsigmondy_primes(2, 6) == frozenset())
    assert _line(8, "new prime at 2^4 - 1 is 5", zsigmondy_primes(2, 4) == frozenset({5}))
    assert _line(8, "fermat list to 1e5",
                 prime_family("fermat", 10 ** 5) == [3, 5, 17, 257, 65537])

    scan = set(psl2_candidate_scan(10 ** 5))
    known = {11, 13, 16, 19, 23, 25, 27, 31, 32, 37, 47, 49, 53, 73, 81, 97, 128}
    extras = sorted(scan - known)
    assert _line(8, "candidate scan contains all seventeen known values",
                 known <= scan, f"extras (reported, not failed): {extras}")
    print(f"criterion 8 total {time.monotonic() - t0:.1f}s")


# -- criterion 9: boundedness statements are declared out of scope -----------

def test_criterion_9_boundedness_statement(reports):
    rows = [c for c in reports["properties"].checks
            if c.claim_id == "prop.boundedness-statements"]
    ok = len(rows) == 1 and rows[0].status == "out_of_scope" \
        and "non-constructive" in rows[0].statement
    assert _line(9, "report states the boundedness results are not reproducible "
                    "and are covered via their checkable ingredients", ok)


# -- criterion 10: the recorded singular-count discrepancy --------------------

def test_criterion_10_flagged_discrepancy(reports):
    rep = reports["families"]
    rows = {c.claim_id: c for c in rep.checks if c.status == "flagged"}
    ok = set(rows) == {"flag.psl2_5.count", "flag.psl2_7.count"}
    ok = ok and rows["flag.psl2_5.count"].expected == 48 \
        and rows["flag.psl2_5.count"].computed == 24
    ok = ok and rows["flag.psl2_7.count"].expected == 96 \
        and rows["flag.psl2_7.count"].computed == 48
    never_pass = all(c.status == "flagged" for c in rows.values())
    assert _line(10, "both stated and computed singular element counts recorded "
                     "with status flagged, never pass", ok and never_pass)
