"""Arithmetic expression parser and evaluator for problem data.

Problem definitions (source term, target profile, exact solutions) are
given as strings over the spatial variables x1, x2, so new problems can
be declared in a JSON config without touching code.  The grammar is a
small recursive-descent one:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

'^' binds tighter than unary minus and is right associative, so
-x1^2 == -(x1^2) and 2^3^2 == 2^(3^2).  Functions: sin, cos, exp, log,
sqrt, pow, abs.  Named constants: pi is always available; gamma and
any per-config extras (such as s) are resolved at evaluation time.

Evaluation is numpy-vectorized and raises EvalError on domain faults
(log of a nonpositive value, division by zero, overflow) instead of
propagating NaNs into an assembly loop.
"""

import re

import numpy as np

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "pow": 2, "abs": 1}
VARIABLES = ("x1", "x2")
DEFAULT_CONSTANTS = ("gamma", "pi")


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset into the source."""

    def __init__(self, message, offset):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class EvalError(ArithmeticError):
    """Numeric fault (domain error, overflow) during evaluation."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].isspace():
                break
            # skip leading blanks to report the offending byte itself
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError("unexpected character %r" % text[bad], bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.names = names
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError("expected '%s'" % op, off)
        return self.take()

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = ("mul" if op == "*" else "div", node, self.unary())
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            node = ("pow", node, self.unary())
        return node

    def atom(self):
        kind, text, off = self.take()
        if kind == "num":
            return ("num", float(text))
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise ParseError("unknown function '%s'" % text, off)
                self.take()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        "%s takes %d argument(s), got %d"
                        % (text, FUNCTIONS[text], len(args)), off)
                return ("call", text, tuple(args))
            if text in VARIABLES:
                return ("var", text)
            if text in self.names:
                return ("const", text)
            raise ParseError("unknown identifier '%s'" % text, off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", off)


def parse(text, constants=DEFAULT_CONSTANTS):
    """Parse an expression string into an immutable tree.

    Nodes are nested tuples: ("num", value), ("var", name),
    ("const", name), ("neg", child), (op, left, right) with op in
    add/sub/mul/div/pow, and ("call", fname, args).

    Keyword arguments:
        constants -- iterable of constant names allowed besides gamma
                     and pi

    Raises ParseError (with .offset) on syntax errors, unknown
    identifiers and wrong function arity.
    """
    names = frozenset(constants) | frozenset(DEFAULT_CONSTANTS)
    parser = _Parser(_tokenize(text), names)
    tree = parser.expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    return tree


_UNARY_FN = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
             "sqrt": np.sqrt, "abs": np.abs}


def _eval_node(node, x1, x2, consts):
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        return x1 if node[1] == "x1" else x2
    if kind == "const":
        if node[1] == "pi" and "pi" not in consts:
            return np.float64(np.pi)
        try:
            return np.float64(consts[node[1]])
        except KeyError:
            raise EvalError("constant '%s' has no value" % node[1]) from None
    if kind == "neg":
        return -_eval_node(node[1], x1, x2, consts)
    if kind == "call":
        args = [_eval_node(a, x1, x2, consts) for a in node[2]]
        if node[1] == "pow":
            return np.power(args[0], args[1])
        return _UNARY_FN[node[1]](args[0])
    a = _eval_node(node[1], x1, x2, consts)
    b = _eval_node(node[2], x1, x2, consts)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    return np.power(a, b)  # pow


def eval(tree, x1, x2, constants=None):
    """Evaluate a parsed tree at x1, x2 (scalars or broadcastable arrays).

    Keyword arguments:
        constants -- mapping of constant names to values (gamma, ...)

    Return: float for scalar input, ndarray otherwise.
    Raises EvalError on numeric faults.
    """
    consts = {} if constants is None else constants
    ax1 = np.asarray(x1, dtype=np.float64)
    ax2 = np.asarray(x2, dtype=np.float64)
    scalar = ax1.ndim == 0 and ax2.ndim == 0
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            out = _eval_node(tree, ax1, ax2, consts)
    except FloatingPointError as err:
        raise EvalError("evaluation failed: %s" % err) from None
    out = np.broadcast_to(np.asarray(out, dtype=np.float64),
                          np.broadcast_shapes(ax1.shape, ax2.shape))
    if scalar:
        return float(out)
    return np.array(out)
