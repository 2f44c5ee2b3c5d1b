"""A tiny expression language naming the groups the suites work with.

Grammar:

    expr  := name "(" args ")" | "x(" expr "," expr ")"
           | "wr(" expr "," expr ")" | "q(" expr "," expr ")"
           | atlas-name
    args  := (integer | key "=" integer) ("," ...)*

Examples: ``A(5)``, ``x(S(5), AGL1(5))``, ``GLQ(l=2,q=3)``, ``M12.2``.
Parsed expressions round-trip through ``str`` and evaluate to PermGroup
instances.  ``evaluate`` keeps the one memo of named groups, keyed by
the expression text: the constructors it calls build a new group each
time, and data derived from a group is memoised on that group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import constructors as C
from .errors import CapExceeded, ExprParseError, NotNormal
from .numtheory import factorize
from .perm_core import DEGREE_CAP

_ATLAS_TOKENS = set(C.ATLAS_NAMES) | {"M10"}

_CONSTRUCTOR_HEADS = ("C", "S", "A", "D", "AGL1", "AGammaL1", "GLQ", "SYL2",
                      "PSL2", "PGL2", "PGammaL2", "PSL3", "x", "wr", "q")

# Deepest x/wr/q nesting accepted.  str(expr) and evaluate recurse about
# twice per level, so this stays well below Python's recursion limit.
_MAX_NESTING = 200

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_.^]*|\d+|[(),=])")


@dataclass(frozen=True)
class GroupExpr:
    head: str                      # constructor name, atlas name, or x/wr/q
    args: tuple = ()               # integers (possibly keyed) or GroupExpr

    def __str__(self) -> str:
        if not self.args:
            return self.head
        parts = []
        for a in self.args:
            if isinstance(a, tuple):
                parts.append(f"{a[0]}={a[1]}")
            else:
                parts.append(str(a))
        return f"{self.head}({', '.join(parts)})"

    def int_args(self) -> list:
        out = []
        for a in self.args:
            out.append(a[1] if isinstance(a, tuple) else a)
        return out

    def keyed(self) -> dict:
        return {a[0]: a[1] for a in self.args if isinstance(a, tuple)}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprParseError(f"unexpected character {text[pos]!r}", pos)
        tok = m.group(1)
        tokens.append((tok, pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, len(self.text))

    def take(self, expected: Optional[str] = None):
        tok, pos = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of input", pos,
                                 {expected} if expected else set())
        if expected is not None and tok != expected:
            raise ExprParseError(f"got {tok!r}", pos, {expected})
        self.i += 1
        return tok, pos

    def parse_expr(self, depth: int = 0) -> GroupExpr:
        tok, pos = self.peek()
        if tok is None:
            raise ExprParseError("empty expression", pos, {"name"})
        if tok in _ATLAS_TOKENS:
            self.take()
            return GroupExpr(tok)
        if tok not in _CONSTRUCTOR_HEADS:
            raise ExprParseError(f"got {tok!r}", pos,
                                 set(_CONSTRUCTOR_HEADS) | {"atlas-name"})
        self.take()
        self.take("(")
        if tok in ("x", "wr", "q"):
            if depth == _MAX_NESTING:
                raise ExprParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)
            left = self.parse_expr(depth + 1)
            self.take(",")
            right = self.parse_expr(depth + 1)
            self.take(")")
            return GroupExpr(tok, (left, right))
        args = []
        nxt, _ = self.peek()
        if nxt != ")":
            while True:
                args.append(self.parse_arg())
                nxt, _ = self.peek()
                if nxt == ",":
                    self.take()
                    continue
                break
        self.take(")")
        return GroupExpr(tok, tuple(args))

    def parse_arg(self):
        tok, pos = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of input", pos, {"integer", "key"})
        if tok.isdigit():
            return self.parse_int()
        if re.fullmatch(r"[A-Za-z]+", tok):
            self.take()
            self.take("=")
            return (tok, self.parse_int())
        raise ExprParseError(f"got {tok!r}", pos, {"integer", "key=value"})

    def parse_int(self) -> int:
        tok, pos = self.take()
        if not tok.isdigit():
            raise ExprParseError(f"got {tok!r}", pos, {"integer"})
        try:
            return int(tok)
        except ValueError:  # past the interpreter's limit on int() of a string
            raise ExprParseError(f"integer literal of {len(tok)} digits is too long",
                                 pos) from None


def parse_group_expr(text: str) -> GroupExpr:
    p = _Parser(text)
    expr = p.parse_expr()
    tok, pos = p.peek()
    if tok is not None:
        raise ExprParseError(f"trailing input {tok!r}", pos)
    return expr


_memo: dict = {}


def evaluate(expr: GroupExpr):
    """Evaluate an expression tree to a PermGroup (memoised)."""
    key = str(expr)
    if key in _memo:
        return _memo[key]
    G = _evaluate(expr)
    _memo[key] = G
    return G


def _single_int(expr, count=1):
    vals = expr.int_args()
    if len(vals) != count:
        raise ExprParseError(f"{expr.head} needs {count} argument(s)", 0)
    return vals if count > 1 else vals[0]


def _evaluate(expr: GroupExpr):
    head = expr.head
    keys = [a[0] for a in expr.args if isinstance(a, tuple)]
    stray = sorted(set(keys) - ({"l", "q"} if head == "GLQ" else set()))
    if stray:
        raise ExprParseError(f"{head} has no argument {', '.join(stray)}=", 0)
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ExprParseError(f"{head} has argument {', '.join(repeated)}= more than once", 0)
    if head in C.ATLAS_NAMES:
        return C.from_generator_data(head)
    if head == "M10":
        return C.m10()
    if head == "x":
        return C.direct_product(evaluate(expr.args[0]), evaluate(expr.args[1]))
    if head == "wr":
        return C.wreath(evaluate(expr.args[0]), evaluate(expr.args[1]))
    if head == "q":
        G = evaluate(expr.args[0])
        N = evaluate(expr.args[1])
        if not N.is_normal_in(G):
            raise NotNormal(f"{expr.args[1]} is not normal in {expr.args[0]}")
        return G.quotient(N)
    if head in ("C", "S", "A", "D"):
        n = _single_int(expr)
        kind = {"C": "cyclic", "S": "symmetric", "A": "alternating", "D": "dihedral"}[head]
        return C.base_group(kind, n)
    if head in ("AGL1", "AGammaL1"):
        q = _single_int(expr)
        if q > DEGREE_CAP:
            raise CapExceeded(f"field size {q} is beyond desk scale")
        factors = factorize(q) if q > 0 else {}
        if len(factors) != 1:
            raise ExprParseError(f"{head} needs a prime power, got {q}", 0)
        (p, k), = factors.items()
        return C.affine_semilinear(p, k, include_galois=(head == "AGammaL1"))
    if head == "GLQ":
        if not keys:
            l, q = _single_int(expr, 2)
            return C.glq_family(l, q)
        extra = [str(a) for a in expr.args if not isinstance(a, tuple)]
        if extra:
            raise ExprParseError(f"GLQ takes keyed or positional arguments, not both; "
                                 f"extra argument {', '.join(extra)}", 0)
        missing = sorted({"l", "q"} - set(keys))
        if missing:
            raise ExprParseError(f"GLQ needs l= and q=, missing {', '.join(missing)}", 0)
        kw = expr.keyed()
        return C.glq_family(kw["l"], kw["q"])
    if head == "SYL2":
        return C.sylow2_sym2l(_single_int(expr))
    if head in ("PSL2", "PGL2", "PGammaL2", "PSL3"):
        q = _single_int(expr)
        kind = {"PSL2": "psl2", "PGL2": "pgl2",
                "PGammaL2": "pgammal2", "PSL3": "psl3"}[head]
        return C.projective_group(kind, q)
    raise ExprParseError(f"unknown constructor {head!r}", 0, set(_CONSTRUCTOR_HEADS))


def group_from_text(text: str):
    return evaluate(parse_group_expr(text))
