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
sqrt, pow, abs.  Named constants are bound to numbers when the text
is parsed: pi is built in, and gamma and any per-config extras (such
as s) are given to parse with their values.

Evaluation is numpy-vectorized and raises EvalError on domain faults
(log of a nonpositive value, division by zero, overflow) instead of
propagating NaNs into an assembly loop.
"""

import re

import numpy as np

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "pow": 2, "abs": 1}
VARIABLES = ("x1", "x2")
BUILTINS = {"pi": np.pi}


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset into the source."""

    def __init__(self, message, offset):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class EvalError(ArithmeticError):
    """Numeric fault (domain error, overflow) during evaluation."""


_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):  # blanks match no group: skipped
        if m.lastgroup == "bad":
            raise ParseError("unexpected character %r" % m.group(), m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# left-associative binary operators by precedence level, loosest first
_BINARY = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})


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

    def expr(self, level=0):
        if level == len(_BINARY):
            return self.unary()
        node = self.expr(level + 1)
        while self.peek()[0] == "op" and self.peek()[1] in _BINARY[level]:
            op = _BINARY[level][self.take()[1]]
            node = (op, node, self.expr(level + 1))
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
                return (text, *args)
            if text in VARIABLES:
                return ("var", text)
            if text in self.names:
                return ("num", float(self.names[text]))
            raise ParseError("unknown identifier '%s'" % text, off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", off)


def parse(text, constants=None):
    """Parse an expression string into an immutable tree.

    Nodes are nested tuples: ("num", value), ("var", name), and
    (op, *children) with op one of add/sub/mul/div/pow/neg or a FUNCTIONS
    name, so pow(a, b) and a^b give the same ("pow", a, b).

    Keyword arguments:
        constants -- mapping of constant names (gamma, ...) to values,
                     bound into the tree as ("num", value) besides pi

    Raises ParseError (with .offset) on syntax errors, unknown
    identifiers and wrong function arity.
    """
    parser = _Parser(_tokenize(text), {**BUILTINS, **(constants or {})})
    tree = parser.expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    return tree


_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
        "div": np.divide, "pow": np.power, "neg": np.negative,
        "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
        "sqrt": np.sqrt, "abs": np.abs}


def _eval_node(node, x1, x2):
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        return x1 if node[1] == "x1" else x2
    return _OPS[kind](*[_eval_node(child, x1, x2) for child in node[1:]])


def eval(tree, x1, x2):
    """Evaluate a parsed tree at x1, x2 (scalars or broadcastable arrays);
    parse bound every other name to a number, so no constants are given.

    Return: float for scalar input, otherwise a new ndarray that shares
    no memory with x1 or x2.
    Raises EvalError on numeric faults.
    """
    ax1 = np.asarray(x1, dtype=np.float64)
    ax2 = np.asarray(x2, dtype=np.float64)
    scalar = ax1.ndim == 0 and ax2.ndim == 0
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            out = _eval_node(tree, ax1, ax2)
    except FloatingPointError as err:
        raise EvalError("evaluation failed: %s" % err) from None
    out = np.broadcast_to(np.asarray(out, dtype=np.float64),
                          np.broadcast_shapes(ax1.shape, ax2.shape))
    if scalar:
        return float(out)
    # a copy: the tree ("var", "x1") would otherwise return x1 itself
    return np.array(out)
