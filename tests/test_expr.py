"""The small boundary-data expression language."""

import ast
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact._expr import Expression


def ev(text, *coords):
    return float(Expression(text)(np.array([coords], dtype=float))[0])


def test_arithmetic_precedence():
    assert ev("1 + 2*3", 0.0, 0.0) == 7.0
    assert ev("(1 + 2)*3", 0.0, 0.0) == 9.0
    assert ev("2^3^2", 0.0, 0.0) == 512.0  # right associative
    assert ev("-2^2", 0.0, 0.0) == -4.0
    assert ev("6/4/2", 0.0, 0.0) == 0.75
    assert ev("2^-1", 0.0, 0.0) == 0.5
    assert ev("--x1", 3.0, 0.0) == 3.0
    assert ev("x1*-x2", 3.0, 2.0) == -6.0


def test_number_forms_and_whitespace():
    # Every literal is read as a float; tabs and newlines are whitespace.
    assert ev(".5", 0.0, 0.0) == 0.5
    assert ev("5.", 0.0, 0.0) == 5.0
    assert ev("1e-3", 0.0, 0.0) == 0.001
    assert ev("1E+3", 0.0, 0.0) == 1000.0
    assert ev("\tx1\n*\n2 ", 3.0, 0.0) == 6.0
    assert ev(" (x1 +\n x2)\t", 3.0, 2.0) == 5.0


def test_coordinates_and_radius():
    assert ev("x1 - 2*x2", 0.5, 0.25) == 0.0
    assert ev("r", 3.0, 4.0) == 5.0


def test_constants_and_functions():
    assert ev("cos(pi)", 0.0, 0.0) == pytest.approx(-1.0)
    assert ev("log(e)", 0.0, 0.0) == pytest.approx(1.0)
    assert ev("sqrt(abs(-9))", 0.0, 0.0) == 3.0
    assert ev("min(x1, x2) + max(x1, x2)", 2.0, -5.0) == -3.0
    assert ev("max(min(x1, sqrt(abs(x2))), exp(log(2)))", 9.0, -16.0) == 4.0


def test_vectorized_evaluation():
    expr = Expression("x1^2 - x2^2")
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    assert np.allclose(expr(pts), [1.0, -1.0, 0.0])


def test_unknown_name_rejected():
    # Names and functions are resolved when the expression is built.
    for bad in ("x1 + banana", "banana", "sqrt", "x4", "foo(x1)", "x1(2)"):
        with pytest.raises(ValueError):
            Expression(bad)


def test_malformed_text_rejected():
    # Each is refused when the expression is built, before any evaluation:
    # text outside the grammar, literals other than decimal numbers, and
    # every other Python construct.
    for bad in (
        "1 +", "", "sin()", "max(x1)", "sin(x1, x2)", "sin(x1,)", "(sin)(x1)", "(1", "x1 x2",
        "2 ** 3", "+x1", "0x10", "1_0", "1j", "x1 < 2", "x1 if x2 else 1", "x1.real",
        "sin(x=1)", "sin(*x1)", "(1, 2)", "[1]", '"a"', "True", "lambda: 1",
        "__import__('os')", "x1 # comment", "1 // 2", "not x1", "\uff581", "\uff53in(x1)",
    ):
        with pytest.raises(ValueError):
            Expression(bad)


def test_constant_parts_are_folded_when_built():
    # A part that reads no coordinate is evaluated once, when the expression
    # is built: an arithmetic error there is a ValueError naming the part,
    # before any point is evaluated, and a folded part keeps the bits of
    # evaluating it per call.
    for text, part, cause in [
        ("1/0", "1/0", ZeroDivisionError),
        ("x1 + 10^400", "10^400", OverflowError),
        ("sin(x1) + (2 - 2^1) / (1 - 1)", "(2 - 2^1) / (1 - 1)", ZeroDivisionError),
        # A negative number to a fractional power: a complex result.
        ("(0-8)^(1/3) + x1", "(0-8)^(1/3)", TypeError),
        ("(0-8)^(1/3)", "(0-8)^(1/3)", TypeError),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"cannot evaluate '{part}'")) as err:
            Expression(text)
        assert type(err.value.__cause__) is cause
        assert (cause is TypeError) == str(err.value).endswith(": complex result")
    tree = Expression("2*pi*x1 + sqrt(2)/e")._tree
    assert isinstance(tree.right, ast.Constant) and isinstance(tree.left.left, ast.Constant)
    assert tree.left.left.value == 2.0 * math.pi
    assert tree.right.value == np.sqrt(2.0) / math.e
    pts = np.array([[0.3, -0.7], [1.5, 2.0]])
    want = 2.0 * math.pi * pts[:, 0] + np.sqrt(2.0) / math.e
    assert Expression("2*pi*x1 + sqrt(2)/e")(pts).tobytes() == want.tobytes()
    assert Expression("-2^2")(pts).tobytes() == np.full(2, -4.0).tobytes()


def test_dimension_checked():
    assert Expression("x1 + x3").dim == 3
    assert Expression("r + pi").dim == 0
    with pytest.raises(ValueError):
        Expression("x3")(np.zeros((1, 2)))


_FUNCTIONS = {"abs": np.abs, "sqrt": np.sqrt, "log": np.log, "exp": np.exp, "sin": np.sin,
              "cos": np.cos, "min": np.minimum, "max": np.maximum}


def _grammar(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(st.sampled_from(["abs", "sqrt", "log", "exp", "sin", "cos"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        ),
    )


# Expressions of the documented grammar, every literal written as a float.
EXPRESSIONS = st.recursive(
    st.one_of(
        st.floats(0.0, 1e3).map(repr),
        st.sampled_from(["x1", "x2", "r", "pi", "e"]),
    ),
    _grammar,
    max_leaves=12,
)


class _RealPowers(ast.NodeTransformer):
    """Each ``a ** b`` as ``_pow(a, b)``, operands first, left to right."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.Call(ast.Name("_pow", ast.Load()), [node.left, node.right], [])


def _pow(a, b):
    # Python's power, but a complex result, a negative number to a fractional
    # power, is refused where it is taken, as the language refuses it.
    out = a ** b
    if isinstance(out, complex):
        raise TypeError(f"{out!r} is not a real number")
    return out


def _outcome(evaluate):
    try:
        return evaluate().tobytes()
    except (ArithmeticError, TypeError) as exc:
        return type(exc)
    except ValueError as exc:  # a part refused when the expression was built
        return type(exc.__cause__)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
@example("-x1")  # -0.0 at the origin
@example("1.0 / (2.0 - 2.0)")  # ZeroDivisionError
@example("10.0 ^ 400.0")  # OverflowError
@example("-8.0 ^ (1.0 / 3.0) + (0.0 - 8.0) ^ (1.0 / 3.0)")  # a complex power: TypeError
@example("(0.0 - 8.0) ^ 0.5 + x1")  # a complex power beside a coordinate
@example("abs((0.0 - 8.0) ^ 0.5)")  # refused, though its absolute value is real
@example("(0.0 - 8.0) ^ 0.5 + 10.0 ^ 400.0")  # the complex power is refused first
def test_values_are_python_arithmetic_bit_for_bit(text):
    # Each expression evaluates to the bits Python's own arithmetic gives
    # the same text (^ as **) over the numpy functions, or fails as it does:
    # constants stay Python floats, so their errors are Python's, raised
    # when a part that reads no coordinate is folded at build as the cause
    # of a ValueError.  A power with a complex result fails with TypeError
    # where it is taken.
    pts = np.array([[0.0, 0.0], [0.5, -1.25], [-2.0, 3.0]])
    env = {"x1": pts[:, 0], "x2": pts[:, 1], "r": np.linalg.norm(pts, axis=1),
           "pi": math.pi, "e": math.e, "_pow": _pow, "__builtins__": {}, **_FUNCTIONS}

    def reference():
        tree = _RealPowers().visit(ast.parse(text.replace("^", "**"), mode="eval"))
        out = eval(compile(ast.fix_missing_locations(tree), "<reference>", "eval"), env)  # noqa: S307
        return np.broadcast_to(np.asarray(out, dtype=float), (len(pts),)).copy()

    with np.errstate(all="ignore"):
        assert _outcome(lambda: Expression(text)(pts)) == _outcome(reference)
