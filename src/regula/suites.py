"""Claim suites: execute every registered check and assemble a report.

Value claims live in the bundled ``data/claims.json`` registry; the
``bounds``, ``numtheory`` and ``properties`` suites generate their
checks programmatically over the fixed corpus.  Reports are plain dicts
with a stable ordering, so serialising one twice gives identical bytes.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .classes import class_counts, conjugacy_classes, fused_counts, singular_element_count
from .corpus import CORPUS_EXPRS, corpus_groups, normal_pairs
from .errors import RegulaError
from .exprs import group_from_text
from .numtheory import (
    BOUND_SLACK,
    coxeter_number,
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
from . import perm_core
from .radicals import core

SUITE_NAMES = ("theorem-b", "ninomiya-3", "five-classes", "families",
               "bounds", "numtheory", "properties")

_KNOWN_SCAN_17 = (11, 13, 16, 19, 23, 25, 27, 31, 32, 37, 47, 49, 53, 73, 81, 97, 128)


@dataclass
class ClaimCheck:
    claim_id: str
    statement: str
    status: str                  # pass | fail | out_of_scope | flagged
    expected: object = None
    computed: object = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "status": self.status,
            "expected": _jsonable(self.expected),
            "computed": _jsonable(self.computed),
            "detail": self.detail,
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (frozenset, set)):
        return sorted(v)
    if isinstance(v, tuple):
        return list(v)
    return v


@dataclass
class VerificationReport:
    suite: str
    description: str
    checks: list = field(default_factory=list)

    def add(self, check: ClaimCheck):
        self.checks.append(check)

    def check(self, claim_id: str, statement: str, ok: bool,
              expected=None, computed=None):
        """Record a check whose status is ``pass`` exactly when ``ok``."""
        self.add(ClaimCheck(claim_id, statement, "pass" if ok else "fail",
                            expected=expected, computed=computed))

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "out_of_scope": 0, "flagged": 0}
        for c in self.checks:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        ordered = sorted(self.checks, key=lambda c: c.claim_id)
        return {
            "suite": self.suite,
            "description": self.description,
            "tool_version": __version__,
            "element_cap": perm_core.ELEMENT_CAP,
            "corpus_size": len(CORPUS_EXPRS),
            "summary": self.summary(),
            "checks": [c.to_json_dict() for c in ordered],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        # imported here, as only --csv needs it: csv adds about 0.1 MB to
        # the peak RSS of every process that imports this module
        import csv

        # csv writes None as an empty field and any other value as its str()
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("claim_id", "status", "expected", "computed"))
        for c in sorted(self.checks, key=lambda c: c.claim_id):
            writer.writerow((c.claim_id, c.status,
                             _jsonable(c.expected), _jsonable(c.computed)))
        return out.getvalue()


def _registry() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "claims.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _value_check(report: VerificationReport, claim: dict):
    kind = claim["kind"]
    cid = claim["id"]
    statement = claim.get("statement", "")
    if kind == "out_of_scope":
        report.add(ClaimCheck(cid, claim.get("reason", statement), "out_of_scope",
                              detail=claim.get("group", "")))
        return
    G = group_from_text(claim["expr"])
    p = claim["p"]
    if kind == "k_regular":
        computed = class_counts(G, p).k_regular
    elif kind == "k_singular":
        computed = class_counts(G, p).k_singular
    elif kind == "p_power_classes":
        computed = conjugacy_classes(G).p_power_class_count(p)
    elif kind == "singular_elements_flagged":
        computed = singular_element_count(G, p)
        report.add(ClaimCheck(cid, statement, "flagged",
                              expected=claim["stated"], computed=computed,
                              detail="recorded discrepancy; neither value adopted"))
        return
    else:
        raise RegulaError(f"unknown claim kind {kind!r}")
    expected = claim["expected"]
    report.check(cid, statement, computed == expected, expected, computed)


def _k_regular_rows(spec: dict) -> list:
    """(expr, p) of the k_regular claims of a registry suite, in file order."""
    return [(c["expr"], c["p"]) for c in spec["claims"] if c["kind"] == "k_regular"]


def _run_registry_suite(name: str, spec: dict) -> VerificationReport:
    report = VerificationReport(suite=name, description=spec["description"])
    for claim in spec["claims"]:
        _value_check(report, claim)
    if name == "theorem-b":
        _converse_scan(report, _k_regular_rows(spec))
    return report


def _converse_scan(report: VerificationReport, positive_rows: list):
    """Corpus-limited converse: every corpus group with trivial solvable
    radical and exactly four p-regular classes matches a positive row.

    Groups are matched by (order, class-size multiset, p), the package's
    stand-in for isomorphism at desk scale."""
    listed = set()
    for expr, p in positive_rows:
        G = group_from_text(expr)
        listed.add((G.order, conjugacy_classes(G).class_size_multiset(), p))
    for expr, G in corpus_groups():
        if G.order > perm_core.ELEMENT_CAP:
            continue
        if not core(G, "solvable-radical").is_trivial:
            continue
        for p in prime_factors(G.order):
            if class_counts(G, p).k_regular == 4:
                fp = (G.order, conjugacy_classes(G).class_size_multiset(), p)
                report.check(
                    f"converse.{expr}.p{p}",
                    "corpus-limited converse: a corpus group with trivial solvable "
                    "radical and four p-regular classes must match a listed "
                    "positive by order and class-size fingerprint",
                    fp in listed,
                    expected="fingerprint listed", computed=f"{expr} at p={p}")


# -- bounds suite ------------------------------------------------------------

_BOUNDS_PSL2 = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
                11: (11, 1), 13: (13, 1)}


def _run_bounds() -> VerificationReport:
    report = VerificationReport(
        suite="bounds",
        description="Closed-form lower bounds for class counts, centralizer "
                    "orders and singular proportions, against exact counts.")

    def check(cid, statement, bound, exact):
        # lowering the bound by the slack lets an attained float bound pass
        report.check(cid, statement, exact > bound - BOUND_SLACK,
                     expected=bound, computed=exact)

    jobs = [("PSL2(%d)" % q, 2, q, ell, f) for q, (ell, f) in _BOUNDS_PSL2.items()]
    jobs.append(("PSL3(3)", 3, 3, 3, 1))
    for expr, n, q, ell, f in jobs:
        G = group_from_text(expr)
        table = conjugacy_classes(G)
        for p in prime_factors(G.order):
            k_regular = class_counts(G, p).k_regular
            check(f"bound.kreg.{expr}.p{p}",
                  f"exact count of p-regular classes exceeds q^(n-1)/(6n^3) for {expr}",
                  regular_class_bound_linear(n, q), k_regular)
            if n == 2:
                check(f"bound.kreg2.{expr}.p{p}",
                      f"exact count of p-regular classes exceeds the rank-1 bound for {expr}",
                      regular_class_bound_rank1(q, f), k_regular)
        min_cent = table.min_centralizer_order()
        cent_bound = min_centralizer_bound_linear(n, q)
        check(f"bound.cent.{expr}",
              f"smallest centralizer order in {expr} exceeds the classical-group bound",
              cent_bound, min_cent)
        if n == 2:
            # at n = 2 the linear bound is the rank-1 one, q/(e (1+log_q 3) gcd(2, q-1))
            check(f"bound.cent2.{expr}",
                  f"smallest centralizer order in {expr} exceeds the rank-1 bound",
                  cent_bound, min_cent)
        h = coxeter_number("A", n - 1)
        for p in prime_factors(G.order):
            exact = Fraction(table.singular_element_total(p), G.order)
            if p == ell:
                bound = singular_proportion_bound_defining(q)
            else:
                bound = singular_proportion_bound_cross(h, p)
            check(f"bound.sing.{expr}.p{p}",
                  f"proportion of p-singular elements of {expr} meets its lower bound",
                  bound, exact)
            # regular-element proportion bounds hold for every prime
            check(f"bound.regprop.{expr}.p{p}",
                  f"proportion of p-regular elements of {expr} meets its lower bound",
                  regular_proportion_bound(n), 1 - exact)
    return report


# -- numtheory suite -----------------------------------------------------------

def _run_numtheory() -> VerificationReport:
    report = VerificationReport(
        suite="numtheory",
        description="Closed-form number theory: part splits, the growth "
                    "quantity, the two-part formula, isolated prime searches "
                    "and the rank-1 candidate scan.")

    def check(cid, statement, expected, computed):
        report.check(cid, statement, expected == computed, expected, computed)

    check("nt.landau.2.4.3", "growth quantity at (2, 4, 3)",
          Fraction(5, 4), landau_quantity(2, 4, 3))
    check("nt.landau.2.24.3", "growth quantity at (2, 24, 3)",
          Fraction(1864135, 72), landau_quantity(2, 24, 3))
    lo = max(landau_quantity(2, a, 3) for a in range(1, 5))
    hi = min(landau_quantity(2, a, 3) for a in range(17, 25))
    check("nt.landau.growth.r2p3",
          "the growth quantity for r=2, p=3 over a in [17,24] dominates a in [1,4]",
          True, hi > lo)
    lo = max(landau_quantity(3, a, 2) for a in range(1, 5))
    hi = min(landau_quantity(3, a, 2) for a in range(17, 25))
    check("nt.landau.growth.r3p2",
          "the growth quantity for r=3, p=2 over a in [17,24] dominates a in [1,4]",
          True, hi > lo)

    bad = []
    for r in range(2, 51):
        for p in (2, 3, 5, 7):
            if (r - 1) % p != 0:
                continue
            for c in range(1, 4):
                formula = lewis_riedl_p_part(r, c, p)
                direct = part_split(r ** (p ** c) - 1, p)[0]
                if formula != direct:
                    bad.append((r, c, p))
    check("nt.lewisriedl.sweep",
          "closed-form p-part equals the direct p-part for all r <= 50, "
          "p in {2,3,5,7} dividing r-1, c <= 3", [], bad)

    check("nt.zsigmondy.2.6", "no new prime divisor appears at 2^6 - 1",
          set(), set(zsigmondy_primes(2, 6)))
    check("nt.zsigmondy.2.4", "the unique new prime divisor of 2^4 - 1 is 5",
          {5}, set(zsigmondy_primes(2, 4)))
    check("nt.fermat.1e5", "primes 2^(2^m)+1 up to 100000",
          [3, 5, 17, 257, 65537], prime_family("fermat", 10 ** 5))
    check("nt.mersenne.1e4", "primes 2^n-1 up to 10000",
          [3, 7, 31, 127, 8191], prime_family("mersenne", 10 ** 4))
    check("nt.coxeter.E8", "largest exceptional Coxeter number",
          30, coxeter_number("E8"))

    scan = psl2_candidate_scan(10 ** 5)
    missing = sorted(set(_KNOWN_SCAN_17) - set(scan))
    check("nt.psl2scan.superset",
          "the divisor-count scan contains all seventeen known candidates",
          [], missing)
    extras = sorted(set(scan) - set(_KNOWN_SCAN_17))
    report.add(ClaimCheck(
        "nt.psl2scan.extras",
        "candidates passing the divisor-count and inequality filter beyond "
        "the known seventeen (the published list also used Diophantine "
        "information, so extras are expected and only reported)",
        "flagged", expected=list(_KNOWN_SCAN_17), computed=extras))
    return report


# -- properties suite -----------------------------------------------------------

def _run_properties() -> VerificationReport:
    report = VerificationReport(
        suite="properties",
        description="Structural invariants over the whole corpus: the class "
                    "equation, centralizer products, quotient and subgroup "
                    "counting inequalities, fusion monotonicity and radical "
                    "hypotheses.")

    for expr, G in corpus_groups():
        if G.order > perm_core.ELEMENT_CAP:
            report.add(ClaimCheck(f"prop.classeq.{expr}", "class table invariants",
                                  "out_of_scope", detail="order above cap"))
            continue
        table = conjugacy_classes(G)
        ok = (sum(c.class_size for c in table.classes) == G.order
              and all(c.class_size * c.centralizer_order == G.order
                      for c in table.classes)
              and sum(1 for c in table.classes
                      if c.element_order == 1 and c.class_size == 1) == 1)
        report.check(
            f"prop.classeq.{expr}",
            "class sizes sum to the order, each size times its centralizer "
            "order is the order, and the identity class is unique",
            ok, expected=True, computed=ok)

    for gexpr, ndesc, G, N in normal_pairs():
        primes = prime_factors(G.order)
        Q = G.quotient(N)
        for p in primes:
            gc = class_counts(G, p)
            qc = class_counts(Q, p)
            nc = class_counts(N, p)
            index = G.order // N.order
            ok_q = qc.k_regular <= gc.k_regular and qc.k_singular <= gc.k_singular
            report.check(
                f"prop.quotient-ineq.{gexpr}|{ndesc}.p{p}",
                "regular and singular class counts never grow when passing "
                "to a quotient",
                ok_q,
                expected="quotient <= group",
                computed=f"quotient ({qc.k_regular},{qc.k_singular}) "
                         f"group ({gc.k_regular},{gc.k_singular})")
            ok_s = (nc.k_regular <= index * gc.k_regular
                    and nc.k_singular <= index * gc.k_singular)
            report.check(
                f"prop.subgroup-ineq.{gexpr}|{ndesc}.p{p}",
                "class counts of a normal subgroup are at most the index "
                "times the counts of the group",
                ok_s,
                expected="subgroup <= index * group",
                computed=f"subgroup ({nc.k_regular},{nc.k_singular}) "
                         f"index {index} group ({gc.k_regular},{gc.k_singular})")
            fc = fused_counts(G, N, p)
            ok_f = fc.k_regular <= nc.k_regular and fc.k_singular <= nc.k_singular
            report.check(
                f"prop.fusion.{gexpr}|{ndesc}.p{p}",
                "fusing under the larger group cannot increase orbit counts",
                ok_f,
                expected="fused <= subgroup",
                computed=f"fused ({fc.k_regular},{fc.k_singular}) "
                         f"subgroup ({nc.k_regular},{nc.k_singular})")

    # the classification rows assume a trivial solvable radical (theorem-b)
    # or a trivial p-core (ninomiya-3, five-classes); each is a claim here
    suites = _registry()["suites"]
    hypotheses = [(expr, "solvable-radical", None)
                  for expr, _ in _k_regular_rows(suites["theorem-b"])]
    hypotheses += [(expr, "p-core", p) for name in ("ninomiya-3", "five-classes")
                   for expr, p in _k_regular_rows(suites[name])]
    for expr, kind, p in dict.fromkeys(hypotheses):
        G = group_from_text(expr)
        N = core(G, kind, p)
        label = "solvable radical" if kind == "solvable-radical" else f"{p}-core"
        report.check(
            f"prop.radical.{expr}.{label.replace(' ', '-')}",
            f"the {label} of {expr} is trivial, as its classification row assumes",
            N.is_trivial,
            expected=1, computed=N.order)

    report.add(ClaimCheck(
        "prop.boundedness-statements",
        "the order-boundedness statements themselves are non-constructive "
        "and cannot be reproduced by finite computation at any scale; their "
        "checkable ingredients are exactly the inequality and bound checks "
        "in this suite and in the bounds suite",
        "out_of_scope", detail="covered via proof-ingredient property checks"))
    return report


def run_suite(name: str) -> VerificationReport:
    """Execute a named suite and return its report."""
    if name not in SUITE_NAMES:
        raise RegulaError(f"unknown suite {name!r}; one of {SUITE_NAMES}")
    if name == "bounds":
        return _run_bounds()
    if name == "numtheory":
        return _run_numtheory()
    if name == "properties":
        return _run_properties()
    registry = _registry()
    return _run_registry_suite(name, registry["suites"][name])
