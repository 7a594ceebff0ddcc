"""Small arithmetic-expression language with exact first derivatives.

Source text is parsed once into an immutable AST; evaluation runs on
dual numbers (value and first derivative propagated together), so
callers get f and f' to machine rounding in one pass.
Evaluation works over real or complex scalars and elementwise over numpy
arrays of either, which keeps grid sampling vectorized.

Grammar, tightest binding first (``^`` is right-associative and its
exponent must fold to an integer constant):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Known functions: exp, ln, sin, cos, sinh, cosh, sqrt.  General real
powers are spelled exp(p*ln(x)).

Two limits, both refused by ``parse`` with ExprSyntaxError:

- every integer folded in a ``^`` exponent (the literals, each sum,
  difference, product and power, and the exponent itself) is at most
  2^53 in magnitude, checked before a power is formed;
- the parse tree is at most MAX_DEPTH = 100 levels deep: a number or
  name is one level, and each operator, function call and pair of
  parentheses is one level above its deepest operand.  Neither parsing
  nor evaluation recurses deeper than that.

``parse`` also evaluates each variable-free part of the expression once
and refuses, with DomainError, the first whose value overflows to inf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Union

import numpy as np

from .errors import (
    ArityError,
    DomainError,
    ExprError,
    ExprSyntaxError,
    NotUnivariateError,
    UnknownIdentifierError,
)

__all__ = ["Expr", "AxisPair", "EvalResult", "parse", "eval_dual",
           "eval_complex", "FUNCTIONS"]

FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh", "sqrt")

MAX_DEPTH = 100  # parse-tree levels, see the module docstring
_INT_BOUND = 2 ** 53  # largest magnitude of an integer folded in an exponent


def _too_deep(pos: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                           pos)


# --- AST ----------------------------------------------------------------

@dataclass(frozen=True)
class _Node:
    span: tuple[int, int]  # [start, end) byte offsets into the source
    depth: int = field(default=1, kw_only=True, compare=False)

    def __post_init__(self):
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.span[0])


@dataclass(frozen=True)
class _Num(_Node):
    value: float


@dataclass(frozen=True)
class _Var(_Node):
    name: str


@dataclass(frozen=True)
class _Neg(_Node):
    operand: _Node


@dataclass(frozen=True)
class _BinOp(_Node):
    op: str  # one of + - * /
    left: _Node
    right: _Node


@dataclass(frozen=True)
class _Pow(_Node):
    base: _Node
    exponent: int


@dataclass(frozen=True)
class _Call(_Node):
    func: str
    arg: _Node


# --- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # number | name | op | end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


# --- parser -------------------------------------------------------------

class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...]):
        self.vars = variables
        self.tokens = _tokenize(src)
        self.k = 0
        self.level = 0  # parse-tree levels above the subexpression in hand

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.pos)
        return self.next()

    def parse(self) -> _Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> _Node:
        return self.chain("+-", self.term)

    def term(self) -> _Node:
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand) -> _Node:
        """``operand (op operand)*``, left associative, op in ``ops``."""
        node = operand()
        while self.peek().kind == "op" and self.peek().text in ops:
            op = self.next()
            rhs = operand()
            node = _BinOp((node.span[0], rhs.span[1]), op.text, node, rhs,
                          depth=1 + max(node.depth, rhs.depth))
        return node

    def unary(self) -> _Node:
        # every nested subexpression is parsed through here, one level
        # below the enclosing one, so this bounds the parser's recursion
        tok = self.peek()
        self.level += 1
        if self.level > MAX_DEPTH:
            raise _too_deep(tok.pos)
        if tok.kind == "op" and tok.text == "-":
            self.next()
            operand = self.unary()
            node = _Neg((tok.pos, operand.span[1]), operand,
                        depth=1 + operand.depth)
        else:
            node = self.power()
        self.level -= 1
        return node

    def power(self) -> _Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exponent = self.unary()  # right-associative
            try:
                n = _const_int(exponent)
            except OverflowError:
                raise ExprSyntaxError(
                    "exponent of ^ must fold to integers of magnitude at "
                    "most 2^53", exponent.span[0]) from None
            if n is None:
                raise ExprSyntaxError(
                    "exponent of ^ must fold to an integer constant",
                    exponent.span[0],
                )
            return _Pow((base.span[0], exponent.span[1]), base, n,
                        depth=1 + max(base.depth, exponent.depth))
        return base

    def atom(self) -> _Node:
        tok = self.next()
        if tok.kind == "number":
            return _Num((tok.pos, tok.pos + len(tok.text)), float(tok.text))
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                opener = self.peek()
                if opener.kind != "op" or opener.text != "(":
                    raise ArityError(
                        f"function '{tok.text}' needs one parenthesized argument",
                        tok.pos,
                    )
                self.next()
                arg = self.expr()
                comma = self.peek()
                if comma.kind == "op" and comma.text == ",":
                    raise ArityError(
                        f"function '{tok.text}' takes exactly one argument",
                        comma.pos,
                    )
                closer = self.expect_op(")")
                return _Call((tok.pos, closer.pos + 1), tok.text, arg,
                             depth=1 + arg.depth)
            if tok.text in self.vars:
                return _Var((tok.pos, tok.pos + len(tok.text)), tok.text)
            raise UnknownIdentifierError(tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return replace(node, depth=1 + node.depth)
        raise ExprSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
        )


def _const_int(node: _Node):
    """Fold a variable-free subtree to an int, or return None.  Raises
    OverflowError as soon as a folded value would exceed 2^53 in
    magnitude, before a power that large is formed."""
    if isinstance(node, _Num):
        v = node.value
        n = int(v) if float(v).is_integer() else None
    elif isinstance(node, _Neg):
        inner = _const_int(node.operand)
        n = None if inner is None else -inner
    elif isinstance(node, _BinOp) and node.op in "+-*":
        a = _const_int(node.left)
        b = _const_int(node.right)
        if a is None or b is None:
            return None
        n = a + b if node.op == "+" else a - b if node.op == "-" else a * b
    elif isinstance(node, _Pow):
        a = _const_int(node.base)
        if a is None or node.exponent < 0:
            return None
        if abs(a) > 1 and node.exponent > 53:  # then |a^e| >= 2^e > 2^53
            raise OverflowError
        n = a ** node.exponent
    else:
        return None
    if n is not None and abs(n) > _INT_BOUND:
        raise OverflowError
    return n


# --- public expression object -------------------------------------------

@dataclass(frozen=True)
class Expr:
    """An immutable parsed expression over one or two named variables."""

    source: str
    vars: tuple[str, ...]
    ast: _Node

    def snippet(self, node: _Node) -> str:
        return self.source[node.span[0]:node.span[1]]


def parse(source: str, variables) -> Expr:
    """Parse ``source`` over the ordered variable names ``variables``."""
    names = tuple(variables)
    if not 1 <= len(names) <= 2:
        raise ExprError(f"expected 1 or 2 variable names, got {len(names)}")
    if len(set(names)) != len(names):
        raise ExprError(f"duplicate variable names in {names}")
    for name in names:
        if name in FUNCTIONS or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ExprError(f"invalid variable name {name!r}")
    expr = Expr(source, names, _Parser(source, names).parse())
    _check_constants(expr)
    return expr


# --- evaluation ---------------------------------------------------------

class EvalResult(NamedTuple):
    value: Union[float, complex, np.ndarray]
    d1: Union[float, complex, np.ndarray]


class _Evaluator:
    def __init__(self, expr: Expr, values: Mapping, wrt: str, is_complex: bool):
        self.expr = expr
        self.values = values
        self.wrt = wrt
        self.is_complex = is_complex

    def fail(self, node: _Node, message: str):
        raise DomainError(message, self.expr.snippet(node))

    def run(self, node: _Node) -> EvalResult:
        if isinstance(node, _Num):
            v = complex(node.value) if self.is_complex else node.value
            return EvalResult(v, 0.0)
        if isinstance(node, _Var):
            v = self.values[node.name]
            seed = 1.0 if node.name == self.wrt else 0.0
            return EvalResult(v, seed)
        if isinstance(node, _Neg):
            u, du = self.run(node.operand)
            if self.is_complex:
                # as the binary 0 - u, whose zero parts are +0: -1 lies
                # on the upper side of the cut of ln and sqrt, where
                # their principal values are
                return EvalResult(complex(0.0) - u, 0.0 - du)
            return EvalResult(-u, -du)
        if isinstance(node, _BinOp):
            return self.binop(node)
        if isinstance(node, _Pow):
            return self.intpow(node)
        if isinstance(node, _Call):
            return self.call(node)
        raise TypeError(node)

    def binop(self, node: _BinOp) -> EvalResult:
        u, du = self.run(node.left)
        w, dw = self.run(node.right)
        if node.op == "+":
            return EvalResult(u + w, du + dw)
        if node.op == "-":
            return EvalResult(u - w, du - dw)
        if node.op == "*":
            return EvalResult(u * w, du * w + u * dw)
        # division
        if np.any(w == 0):
            self.fail(node.right, "division by zero")
        v = u / w
        return EvalResult(v, (du - v * dw) / w)

    def intpow(self, node: _Pow) -> EvalResult:
        n = node.exponent
        u = self.run(node.base)
        t, dt = u
        if n == 0:
            one = np.ones_like(t) if isinstance(t, np.ndarray) else (t * 0 + 1.0)
            return EvalResult(one, 0.0)
        if n == 1:
            return u
        if n < 0 and np.any(t == 0):
            self.fail(node.base, "zero raised to a negative power")
        # f = p*t*t and f' = n*p*t with p = t^(n-2): one power evaluation,
        # and a rounding order that CLI output is pinned to byte for byte
        try:
            p = t ** (n - 2) if n != 2 else (np.ones_like(t) if isinstance(t, np.ndarray) else 1.0)
        except OverflowError:
            # a constant base is a Python scalar, whose ** raises where
            # numpy's would give inf
            self.fail(node, "the power overflows")
        f = p * t * t
        f1 = n * p * t
        return EvalResult(f, f1 * dt)

    def call(self, node: _Call) -> EvalResult:
        t, dt = self.run(node.arg)
        name = node.func
        if name == "exp":
            f = f1 = np.exp(t)
        elif name == "ln":
            if self.is_complex:
                if np.any(t == 0):
                    self.fail(node.arg, "log of zero (branch point)")
            elif np.any(np.real(t) <= 0):
                self.fail(node.arg, "log of a non-positive number")
            f = np.log(t)
            f1 = 1.0 / t
        elif name == "sqrt":
            if self.is_complex:
                if np.any(t == 0):
                    self.fail(node.arg, "sqrt at zero (branch point)")
            else:
                if np.any(t <= 0):
                    self.fail(node.arg, "sqrt of a non-positive number "
                                        "(the derivative is singular at zero)")
            f = np.sqrt(t)
            f1 = 0.5 / f
        elif name == "sin":
            f, f1 = np.sin(t), np.cos(t)
        elif name == "cos":
            f, f1 = np.cos(t), -np.sin(t)
        elif name == "sinh":
            f, f1 = np.sinh(t), np.cosh(t)
        elif name == "cosh":
            f, f1 = np.cosh(t), np.sinh(t)
        else:  # pragma: no cover - parser admits only known names
            raise UnknownIdentifierError(name, node.span[0])
        return EvalResult(f, f1 * dt)


class _Refused(Exception):
    """A subtree ``_ConstantChecker`` leaves to evaluation."""


def _check_constants(expr: Expr) -> None:
    """Evaluate each variable-free subtree once, children first, as real
    numbers, and raise DomainError naming the first whose value overflows
    to inf: such a constant leaves no finite value to the expression.  A
    subtree the evaluator refuses (ln or sqrt of a negative number, which
    complex evaluation accepts) is left to evaluation."""
    checker = _ConstantChecker(expr, {}, "", False)

    def reads_variable(node: _Node) -> bool:
        kids = [v for v in vars(node).values() if isinstance(v, _Node)]
        reads = [reads_variable(kid) for kid in kids]
        for kid, r in zip(kids, reads):
            if any(reads) and not r:
                checker.check(kid)
        return isinstance(node, _Var) or any(reads)

    if not reads_variable(expr.ast):
        checker.check(expr.ast)


class _ConstantChecker(_Evaluator):
    """The evaluator on a variable-free subtree, checking the value of
    every node (``_check_constants``)."""

    def fail(self, node: _Node, message: str):
        raise _Refused

    def run(self, node: _Node) -> EvalResult:
        res = super().run(node)
        if not np.isfinite(res.value):
            raise DomainError("the constant overflows", self.expr.snippet(node))
        return res

    def check(self, node: _Node) -> None:
        try:
            with np.errstate(all="ignore"):
                self.run(node)
        except _Refused:
            pass


def eval_dual(expr: Expr, at, wrt: str) -> EvalResult:
    """Evaluate ``expr`` with its value and d/d(wrt).

    ``at`` maps variable names to scalars or same-shaped numpy arrays (a
    bare scalar/array is accepted for univariate expressions).  Real
    inputs run with real-domain checks; any complex input switches to
    holomorphic evaluation.
    """
    if not isinstance(at, Mapping):  # a bare value names one variable
        if len(expr.vars) != 1:
            raise ExprError(f"pass a mapping of values for {expr.vars}")
        at = {expr.vars[0]: at}
    missing = [n for n in expr.vars if n not in at]
    if missing:
        raise ExprError(f"missing values for variables {missing}")
    if wrt not in expr.vars:
        raise ExprError(f"cannot differentiate with respect to {wrt!r}")
    return _Evaluator(expr, at, wrt,
                      any(map(np.iscomplexobj, at.values()))).run(expr.ast)


def eval_complex(expr: Expr, z) -> tuple:
    """Evaluate a univariate expression holomorphically; returns (F, F')."""
    if len(expr.vars) != 1:
        raise ExprError("eval_complex needs a univariate expression")
    z = z.astype(complex) if isinstance(z, np.ndarray) else complex(z)
    return tuple(eval_dual(expr, z, expr.vars[0]))


# --- one expression per grid axis ---------------------------------------

@dataclass(frozen=True)
class AxisPair:
    """A univariate expression along x and one along y: the characteristic
    pair f(x), g(y), the Goursat edge data phi(x), psi(y), or the wave
    solution w = phi(x) + psi(y)."""

    fx: Expr
    gy: Expr

    def __post_init__(self):
        for e, role in ((self.fx, "fx"), (self.gy, "gy")):
            if len(e.vars) != 1:
                raise NotUnivariateError(f"{role} must be univariate, has vars {e.vars}")

    @np.errstate(over="ignore", invalid="ignore")  # callers refuse inf, nan
    def sample(self, xs: np.ndarray, ys: np.ndarray) -> tuple:
        """``((fx, fx'), (gy, gy'))`` on ``xs`` and ``ys``, broadcast to each axis."""
        out = []
        for e, axis in ((self.fx, xs), (self.gy, ys)):
            res = eval_dual(e, axis, e.vars[0])
            out.append((np.broadcast_to(res.value, axis.shape),
                        np.broadcast_to(res.d1, axis.shape)))
        return tuple(out)
