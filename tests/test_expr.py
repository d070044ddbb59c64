"""Expression parsing and evaluation.

The bulk check pits the recursive-descent parser against an
independent shunting-yard evaluator on ten thousand generated
expressions; fixed vectors pin the precedence corners.
"""

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbcfem.expr import EvalError, ParseError, eval as expr_eval, parse

GAMMA = {"gamma": 1.0}


# ---------------------------------------------------------------------------
# shunting-yard reference evaluator


def _numpy(fn):
    """fn of numpy on Python floats, as a float.  A non-finite value is
    an OverflowError, the way the math functions fail on overflow and
    outside their domain.  Powers, sin, cos and exp go through numpy
    because the evaluator does: libm's pow can differ from numpy's by
    an ulp, which sin of a large argument magnifies, and this oracle
    checks the parsing, not the libraries."""
    def call(*args):
        with np.errstate(all="ignore"):
            out = float(fn(*args))
        if math.isinf(out) or math.isnan(out):
            raise OverflowError("non-finite function value")
        return out
    return call


_FUNCS = {"sin": (_numpy(np.sin), 1), "cos": (_numpy(np.cos), 1),
          "exp": (_numpy(np.exp), 1), "log": (math.log, 1),
          "sqrt": (math.sqrt, 1), "abs": (abs, 1),
          "pow": (_numpy(np.power), 2)}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": _numpy(np.power)}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_RIGHT = {"^", "neg"}


def _tokens(text):
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-"
                                         and text[j - 1] in "eE")):
                j += 1
            out.append(("num", float(text[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        else:
            out.append(("op", c))
            i += 1
    return out


def shunting_yard_eval(text, env):
    """Evaluate with an operator-stack algorithm (no recursion)."""
    rpn, stack = [], []
    prev = None  # previous significant token decides unary minus
    for kind, val in _tokens(text):
        if kind == "num":
            rpn.append(("num", val))
        elif kind == "name":
            if val in _FUNCS:
                stack.append(("func", val))
            else:
                rpn.append(("var", val))
        elif val == "(":
            stack.append(("paren", "("))
        elif val == ",":
            while stack and stack[-1] != ("paren", "("):
                rpn.append(stack.pop())
        elif val == ")":
            while stack and stack[-1] != ("paren", "("):
                rpn.append(stack.pop())
            stack.pop()
            if stack and stack[-1][0] == "func":
                rpn.append(stack.pop())
        else:
            op = val
            if op == "-" and (prev is None or prev in "(,+-*/^"):
                stack.append(("op", "neg"))  # prefix position, never pops
            else:
                while (stack and stack[-1][0] == "op"
                       and (_PREC[stack[-1][1]] > _PREC[op]
                            or (_PREC[stack[-1][1]] == _PREC[op]
                                and op not in _RIGHT))):
                    rpn.append(stack.pop())
                stack.append(("op", op))
        prev = val if kind == "op" else "x"
    while stack:
        rpn.append(stack.pop())

    vals = []
    for kind, val in rpn:
        if kind == "num":
            vals.append(val)
        elif kind == "var":
            vals.append(env[val])
        elif kind == "func":
            fn, arity = _FUNCS[val]
            args = [vals.pop() for _ in range(arity)][::-1]
            vals.append(fn(*args))
        elif val == "neg":
            vals.append(-vals.pop())
        else:
            b, a = vals.pop(), vals.pop()
            vals.append(_BINOPS[val](a, b))
            if math.isinf(vals[-1]) or math.isnan(vals[-1]):
                raise ZeroDivisionError("non-finite intermediate")
    (result,) = vals
    if math.isinf(result) or math.isnan(result):
        raise ZeroDivisionError("non-finite result")
    return result


def random_expression(rng, depth):
    if depth == 0:
        return rng.choice([
            lambda: "%.4g" % rng.uniform(0.1, 4.0),
            lambda: str(rng.randint(1, 9)),
            lambda: "x1", lambda: "x2", lambda: "gamma", lambda: "pi",
        ])()
    a = random_expression(rng, depth - 1)
    b = random_expression(rng, depth - 1)
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice("+-*/")
        return "%s %s %s" % (a, op, b)
    if pick < 0.65:
        return "-%s" % a if not a.startswith("-") else "(%s)" % a
    if pick < 0.75:
        return "(%s)^%d" % (a, rng.randint(1, 3))
    if pick < 0.85:
        return "pow(%s, %d)" % (a, rng.randint(1, 2))
    fn = rng.choice(["sin", "cos", "exp", "sqrt", "log", "abs"])
    return "%s(%s)" % (fn, a)


class TestParsing:
    def test_problem_data_expressions_parse(self):
        parse("(x1^2 - x1 + x2^2 - x2)/gamma")
        parse("(x1^2 + x2^2)^s", constants=("gamma", "s"))
        parse("(2 + 1/gamma)*(x1^2 - x1 + x2^2 - x2)")

    @pytest.mark.parametrize("text,offset", [
        ("x1 + ", 5),
        ("", 0),
        ("1 2", 2),
        ("(x1", 3),
        ("2^", 2),
        ("1..2", 2),
    ])
    def test_syntax_error_positions(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", ["x3", "foo(1)", "sin(1, 2)", "pow(x1)",
                                      "sin()", "x1 $ x2"])
    def test_bad_names_and_arities(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_number_formats(self):
        assert expr_eval(parse("1e-5"), 0.0, 0.0) == pytest.approx(1e-5)
        assert expr_eval(parse(".5"), 0.0, 0.0) == 0.5
        assert expr_eval(parse("2."), 0.0, 0.0) == 2.0
        assert expr_eval(parse("3.25e2"), 0.0, 0.0) == 325.0


class TestEvaluation:
    def test_known_values(self):
        y = parse("(x1^2 - x1 + x2^2 - x2)/gamma")
        assert expr_eval(y, 0.0, 0.0, GAMMA) == 0.0
        z = parse("(x1^2 - x1)*(x2^2 - x2)")
        assert expr_eval(z, 0.5, 0.5) == pytest.approx(1 / 16, rel=1e-15)
        assert expr_eval(parse("0"), 0.3, 0.7) == 0.0

    @pytest.mark.parametrize("text,point,expect", [
        ("-2^2", (0, 0), -4.0),        # ^ binds tighter than unary minus
        ("2^3^2", (0, 0), 512.0),      # ^ is right-associative
        ("2^-3", (0, 0), 0.125),       # exponent may be a unary chain
        ("6/2/3", (0, 0), 1.0),        # / is left-associative
        ("6-2-3", (0, 0), 1.0),
        ("2+3*4", (0, 0), 14.0),
        ("-x1^2", (2, 0), -4.0),
        ("pow(2, 10)", (0, 0), 1024.0),
        ("abs(0-3)", (0, 0), 3.0),
        ("x1*x2 + x2", (3, 5), 20.0),
    ])
    def test_precedence_vectors(self, text, point, expect):
        assert expr_eval(parse(text), *map(float, point)) == pytest.approx(
            expect, rel=1e-15)

    def test_pi_is_bound(self):
        assert expr_eval(parse("sin(pi)"), 0.0, 0.0) == pytest.approx(
            0.0, abs=1e-15)
        assert expr_eval(parse("cos(2*pi)"), 0.0, 0.0) == pytest.approx(1.0)

    def test_vectorized_evaluation(self):
        e = parse("x1^2 + x2")
        x1 = np.array([1.0, 2.0, 3.0])
        x2 = np.array([0.5, 0.5, 0.5])
        assert expr_eval(e, x1, x2) == pytest.approx(x1 ** 2 + x2)

    def test_scalar_in_scalar_out(self):
        assert isinstance(expr_eval(parse("x1"), 1.0, 0.0), float)

    @pytest.mark.parametrize("text", [
        "log(0-1)", "sqrt(0-2)", "1/(x1-x1)", "exp(10000)",
        "(0-2)^0.5", "(x1-x1)^(0-1)",
    ])
    def test_domain_errors_surface_as_eval_errors(self, text):
        with pytest.raises(EvalError):
            expr_eval(parse(text), 1.0, 1.0)

    def test_missing_constant_is_an_eval_error(self):
        e = parse("x1*s", constants=("s",))
        with pytest.raises(EvalError):
            expr_eval(e, 1.0, 1.0)
        assert expr_eval(e, 2.0, 0.0, {"s": 3.0}) == 6.0

    def test_singular_exponent_data_evaluates(self):
        e = parse("(x1^2 + x2^2)^s", constants=("s",))
        got = expr_eval(e, 0.1, 0.2, {"s": 1e-5})
        assert got == pytest.approx((0.1 ** 2 + 0.2 ** 2) ** 1e-5, rel=1e-15)


class TestAgainstShuntingYard:
    def test_ten_thousand_random_expressions(self):
        rng = random.Random(12345)
        env = {"gamma": 1.7, "pi": math.pi}
        checked = 0
        for _ in range(10000):
            text = random_expression(rng, rng.randint(1, 3))
            env["x1"] = rng.uniform(0.1, 2.0)
            env["x2"] = rng.uniform(0.1, 2.0)
            try:
                want = shunting_yard_eval(text, env)
                oracle_ok = True
            except (ValueError, ZeroDivisionError, OverflowError, KeyError):
                oracle_ok = False
            try:
                got = expr_eval(parse(text), env["x1"], env["x2"],
                                {"gamma": env["gamma"]})
                lib_ok = True
            except EvalError:
                lib_ok = False
            assert lib_ok == oracle_ok, text
            if oracle_ok:
                checked += 1
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300), text
        # the generator must not error out so often the check is hollow
        assert checked > 8000

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9))
    @example(522691)  # sin((pow(6 + gamma, 2))^3): one ulp of pow, magnified
    def test_single_random_expression(self, seed):
        rng = random.Random(seed)
        text = random_expression(rng, rng.randint(1, 4))
        env = {"gamma": 0.01, "pi": math.pi,
               "x1": rng.uniform(0.1, 2.0), "x2": rng.uniform(0.1, 2.0)}
        try:
            want = shunting_yard_eval(text, env)
        except (ValueError, ZeroDivisionError, OverflowError):
            want = None
        try:
            got = expr_eval(parse(text), env["x1"], env["x2"],
                            {"gamma": env["gamma"]})
        except EvalError:
            got = None
        if want is None or got is None:
            assert want is None and got is None
        else:
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)
