"""Command-line interface.

    regula classes <expr> [--p P] [--json]
    regula structure <expr>
    regula verify <suite> [--report out.json] [--csv]
    regula numtheory landau --r R --a A --p P
    regula numtheory scan-psl2 --bound B
    regula numtheory primes --kind K --bound B

The environment variable REGULA_ELEMENT_CAP, a positive integer up to
2**31 - 1, overrides the element cap for one call of ``main``; the
previous cap is restored when it returns.  Every error, a malformed
command line included, is exit 1 with one ``error:`` line on stderr; a
suite with a failed check is exit 2.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import stat
import sys

from . import perm_core
from .classes import conjugacy_classes
from .errors import RegulaError
from .exprs import group_from_text
from .numtheory import check_prime, landau_quantity, prime_family, psl2_candidate_scan
from .radicals import structure_summary
from .suites import SUITE_NAMES, run_suite


# the largest rank the int32 maps of a class table hold
_CAP_LIMIT = 2**31 - 1


def _clip(message):
    """``message`` with each run of 40 or more non-space characters cut to 32."""
    return re.sub(r"\S{40,}", lambda m: m[0][:32] + "...", message)


def _apply_cap_env():
    cap = os.environ.get("REGULA_ELEMENT_CAP")
    if cap is not None:
        # the length test keeps int() inside its digit limit
        if not (cap.isascii() and cap.isdigit() and len(cap.lstrip("0")) <= 10
                and 0 < int(cap) <= _CAP_LIMIT):
            raise RegulaError(_clip(f"REGULA_ELEMENT_CAP must be a positive integer up to "
                                    f"{_CAP_LIMIT}, got {cap!r}"))
        perm_core.ELEMENT_CAP = int(cap)


def _cmd_classes(args) -> int:
    if args.p is not None:
        check_prime(args.p)    # before the class table is built
    G = group_from_text(args.expr)
    table = conjugacy_classes(G)
    counts = None if args.p is None else table.counts(args.p)
    if args.json:
        doc = table.to_json_dict(descriptor=args.expr)
        if args.p is not None:
            doc["counts"] = counts._asdict()
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"{args.expr}: order {G.order}, {table.k_total} classes")
        for c in table.classes:
            print(f"  order {c.element_order:>4}  size {c.class_size:>8}  "
                  f"centralizer {c.centralizer_order:>8}  {c.representative}")
        if args.p is not None:
            print(f"  p = {args.p}: regular {counts.k_regular}, singular {counts.k_singular}")
    return 0


def _cmd_structure(args) -> int:
    G = group_from_text(args.expr)
    print(json.dumps(structure_summary(G), indent=2, sort_keys=True))
    return 0


def _unwritable(path, exc) -> RegulaError:
    return RegulaError(f"cannot write report {path!r}: {exc.strerror}")


def _cmd_verify(args) -> int:
    if args.report:
        # a missing folder, a file in its place, or a folder at the report's
        # own path is refused before the suite runs; the report itself is
        # opened, and so truncated, only once it is ready
        try:
            if not stat.S_ISDIR(os.stat(os.path.dirname(args.report) or os.curdir).st_mode):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
            if os.path.isdir(args.report):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise _unwritable(args.report, exc) from None
    report = run_suite(args.suite)
    if args.csv:
        text = report.to_csv()
    else:
        text = report.to_json()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _unwritable(args.report, exc) from None
        summary = report.summary()
        print(f"{args.suite}: {summary} -> {args.report}")
    else:
        sys.stdout.write(text)
    return 2 if report.failed else 0


def _cmd_numtheory(args) -> int:
    if args.nt_command == "landau":
        value = landau_quantity(args.r, args.a, args.p)
        print(json.dumps({"r": args.r, "a": args.a, "p": args.p,
                          "value": str(value)}, sort_keys=True))
    elif args.nt_command == "scan-psl2":
        qs = psl2_candidate_scan(args.bound)
        print(json.dumps({"bound": args.bound, "candidates": qs}, sort_keys=True))
    else:    # primes
        ps = prime_family(args.kind, args.bound)
        print(json.dumps({"kind": args.kind, "bound": args.bound,
                          "values": ps}, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a RegulaError, with long echoed values clipped."""

    def error(self, message):
        raise RegulaError(_clip(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="regula",
        description="Exact conjugacy-class statistics, structural subgroups "
                    "and claim-verification suites for desk-scale groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="conjugacy class table of a group expression")
    p.add_argument("expr")
    p.add_argument("--p", type=int, default=None, help="also report counts for this prime")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("structure", help="cores, radical, Fitting subgroup, derived length")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("verify", help="run a named claim suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--report", help="write the report to this path")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("numtheory", help="number-theoretic helpers")
    nts = p.add_subparsers(dest="nt_command", required=True)
    q = nts.add_parser("landau")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q = nts.add_parser("scan-psl2")
    q.add_argument("--bound", type=int, required=True)
    q = nts.add_parser("primes")
    q.add_argument("--kind", required=True,
                   choices=("fermat", "mersenne", "two_rn_plus1", "four_rn_plus1"))
    q.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_numtheory)
    return parser


def main(argv=None) -> int:
    cap = perm_core.ELEMENT_CAP
    try:
        args = build_parser().parse_args(argv)
        _apply_cap_env()
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except RegulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        perm_core.ELEMENT_CAP = cap


if __name__ == "__main__":
    raise SystemExit(main())
