"""A tiny expression language naming the groups the suites work with.

Grammar:

    expr  := name "(" args ")" | "x(" expr "," expr ")"
           | "wr(" expr "," expr ")" | "q(" expr "," expr ")"
           | atlas-name
    args  := (integer | key "=" integer) ("," ...)*

Examples: ``A(5)``, ``x(S(5), AGL1(5))``, ``GLQ(l=2,q=3)``, ``M12.2``.
The families a name can head are the table ``_FAMILIES``: each maps to
a function of the integers the expression gives, and the function's
parameter names are the argument keys.  ``_NAMED`` holds the names
written without arguments, the bundled atlas groups and ``M10``.  One
binder, ``_bind``, reads the arguments of every family, so adding a
family is one table entry; the parameter names come from the function's
code object.

A parsed expression is a ``GroupExpr``, a ``__slots__`` class that
compares and hashes by its head and args.  It is not a tuple, since a
keyed argument is the one tuple among its args.  Parsed expressions
round-trip through ``str`` and evaluate to PermGroup instances.
``evaluate`` keeps the one memo of named groups, keyed by the text and
both caps: the constructors it calls build a new group each time, and
data derived from a group is memoised on it.
"""

from __future__ import annotations

import re
from typing import Optional

from . import constructors as C
from . import perm_core
from .errors import ExprParseError, NotNormal

# head -> function of the expression's integers; its parameter names are
# the keys a keyed call uses.  Each entry reaches its constructor through
# the module at call time, so a constructor replaced on the module (as
# perfbench's tracer does) is the one called.
_FAMILIES = {
    "C": lambda n: C.cyclic(n),
    "S": lambda n: C.symmetric(n),
    "A": lambda n: C.alternating(n),
    "D": lambda n: C.dihedral(n),
    "AGL1": lambda q: C.affine_semilinear(q, False),
    "AGammaL1": lambda q: C.affine_semilinear(q, True),
    "GLQ": lambda l, q: C.glq_family(l, q),
    "SYL2": lambda l: C.sylow2_sym2l(l),
    "PSL2": lambda q: C.projective_group("psl2", q),
    "PGL2": lambda q: C.projective_group("pgl2", q),
    "PGammaL2": lambda q: C.projective_group("pgammal2", q),
    "PSL3": lambda q: C.psl3(q),
}

# names written without arguments
_NAMED = {name: (lambda name=name: C.from_generator_data(name)) for name in C.ATLAS_NAMES}
_NAMED["M10"] = lambda: C.m10()

_CONSTRUCTOR_HEADS = (*_FAMILIES, "x", "wr", "q")

# Deepest x/wr/q nesting accepted.  str(expr) and evaluate recurse about
# twice per level, so this stays well below Python's recursion limit.
_MAX_NESTING = 200

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_.^]*|\d+|[(),=])")


class GroupExpr:
    """``head`` is a constructor name, an atlas name or x/wr/q; ``args`` are
    its integers, (key, integer) pairs, or sub-expressions."""

    __slots__ = ("head", "args")

    def __init__(self, head: str, args: tuple = ()):
        self.head = head
        self.args = args

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.head == other.head and self.args == other.args

    def __hash__(self):
        return hash((self.head, self.args))

    def __repr__(self) -> str:
        return f"GroupExpr(head={self.head!r}, args={self.args!r})"

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
        if tok in _NAMED:
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
    """Evaluate an expression tree to a PermGroup, memoised under both caps
    at the call: a group built under a larger cap is built, and refused, again."""
    key = str(expr), perm_core.ELEMENT_CAP, perm_core.DEGREE_CAP
    if key in _memo:
        return _memo[key]
    G = _evaluate(expr)
    _memo[key] = G
    return G


def _bind(expr: GroupExpr, names: tuple) -> list:
    """The integer arguments of a family call, in the order of ``names``.

    They are all positional, or, when the family has more than one
    parameter, all keyed by the parameter names.
    """
    head = expr.head
    keys = [a[0] for a in expr.args if isinstance(a, tuple)]
    stray = sorted(set(keys) - (set(names) if len(names) > 1 else set()))
    if stray:
        raise ExprParseError(f"{head} has no argument {', '.join(stray)}=", 0)
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ExprParseError(f"{head} has argument {', '.join(repeated)}= more than once", 0)
    if not keys:
        if len(expr.args) != len(names):
            raise ExprParseError(f"{head} needs {len(names)} argument(s)", 0)
        return list(expr.args)
    extra = [str(a) for a in expr.args if not isinstance(a, tuple)]
    if extra:
        raise ExprParseError(f"{head} takes keyed or positional arguments, not both; "
                             f"extra argument {', '.join(extra)}", 0)
    missing = [n for n in names if n not in keys]
    if missing:
        raise ExprParseError(f"{head} needs {' and '.join(n + '=' for n in names)}, "
                             f"missing {', '.join(missing)}", 0)
    keyed = dict(expr.args)
    return [keyed[n] for n in names]


def _evaluate(expr: GroupExpr):
    head = expr.head
    if head in _NAMED:
        return _NAMED[head]()
    if head in _FAMILIES:
        build = _FAMILIES[head]
        code = build.__code__
        return build(*_bind(expr, code.co_varnames[:code.co_argcount]))
    if head not in ("x", "wr", "q"):
        raise ExprParseError(f"unknown constructor {head!r}", 0, set(_CONSTRUCTOR_HEADS))
    G, H = (evaluate(a) for a in expr.args)
    if head == "x":
        return C.direct_product(G, H)
    if head == "wr":
        return C.wreath(G, H)
    if not H.is_normal_in(G):
        raise NotNormal(f"{expr.args[1]} is not normal in {expr.args[0]}")
    return G.quotient(H)


def group_from_text(text: str):
    return evaluate(parse_group_expr(text))
