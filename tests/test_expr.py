"""The small boundary-data expression language."""

import numpy as np
import pytest

from artifact._expr import Expression


def ev(text, *coords):
    return float(Expression(text)(np.array([coords], dtype=float))[0])


def test_arithmetic_precedence():
    assert ev("1 + 2*3", 0.0, 0.0) == 7.0
    assert ev("(1 + 2)*3", 0.0, 0.0) == 9.0
    assert ev("2^3^2", 0.0, 0.0) == 512.0  # right associative
    assert ev("-2^2", 0.0, 0.0) == -4.0
    assert ev("6/4/2", 0.0, 0.0) == 0.75


def test_coordinates_and_radius():
    assert ev("x1 - 2*x2", 0.5, 0.25) == 0.0
    assert ev("r", 3.0, 4.0) == 5.0


def test_constants_and_functions():
    assert ev("cos(pi)", 0.0, 0.0) == pytest.approx(-1.0)
    assert ev("log(e)", 0.0, 0.0) == pytest.approx(1.0)
    assert ev("sqrt(abs(-9))", 0.0, 0.0) == 3.0
    assert ev("min(x1, x2) + max(x1, x2)", 2.0, -5.0) == -3.0


def test_vectorized_evaluation():
    expr = Expression("x1^2 - x2^2")
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    assert np.allclose(expr(pts), [1.0, -1.0, 0.0])


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        Expression("x1 + banana")(np.zeros((1, 2)))


def test_malformed_text_rejected():
    for bad in ("1 +", "sin()", "(1", "x1 x2", "2 ** 3"):
        with pytest.raises(ValueError):
            Expression(bad)(np.zeros((1, 2)))


def test_dimension_checked():
    with pytest.raises(ValueError):
        Expression("x3")(np.zeros((1, 2)))
