"""Scalar functions of position, written as text, for boundary data and oracles.

Scenarios give Dirichlet data and exact solutions as strings such as
``"x1^2 - x2^2"``.  The language: decimal numbers (``2``, ``.5``, ``1e-3``),
read as floats; the names ``x1``..``x3``, ``r`` (distance to the origin),
``pi`` and ``e``; ``+ - * /``, unary ``-``, ``^`` (power, right associative,
so ``-2^2`` is -4; ``**`` is no operator) and parentheses; and the functions
abs, sqrt, log, exp, sin, cos of one argument and min, max of two.

Python's parser reads the text (``^`` as ``**``); every node is checked, and every
name resolved, when the ``Expression`` is built.  Nothing goes to ``eval``.  Each
part that reads no coordinate is evaluated then too, once, so ``1/0`` or ``10^400``
is refused before any point is evaluated.
"""

import ast
import math
import operator
import re

import numpy as np

__all__ = ["Expression"]

_FUNCTIONS = {name: (1, getattr(np, name)) for name in ("abs", "sqrt", "log", "exp", "sin", "cos")}
_FUNCTIONS.update(min=(2, np.minimum), max=(2, np.maximum))
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.USub, ast.Call, ast.Name, ast.Load,
          ast.Constant, *_BINARY)
_CONSTANTS = {"pi": math.pi, "e": math.e}
_NAMES = ("x1", "x2", "x3", "r", *_CONSTANTS)
_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"


def _parse(text):
    """(checked tree of ``text`` with float literals, highest coordinate it reads)."""
    text = " ".join(text.split())
    bad = re.search(r"[^\w .+\-*/^(),]", text, re.ASCII)  # ASCII: no NFKC-folded names
    if bad:
        raise ValueError(f"unexpected character {bad[0]!r} in expression")
    if "**" in text:
        raise ValueError("'**' is not an operator; write '^'")
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        if not exc.offset:  # Python's place for an error at the end of input
            raise ValueError("incomplete expression") from None
        near = source[exc.offset - 1:].replace("**", "^")
        raise ValueError(f"{exc.msg} at {near!r}") from None
    functions, dim = set(), 0
    for node in ast.walk(tree):
        if not isinstance(node, _NODES):
            raise ValueError(f"{type(node).__name__} is not part of the expression language")
        if isinstance(node, ast.Constant):
            literal = ast.get_source_segment(source, node)
            if not re.fullmatch(_NUMBER, literal, re.ASCII):
                raise ValueError(f"{literal!r} is not a decimal number")
            node.value = float(literal)
        elif isinstance(node, ast.Call):
            call, name = ast.get_source_segment(source, node), getattr(node.func, "id", "")
            if name not in _FUNCTIONS or not call.startswith(name):  # not '(sin)(x1)'
                raise ValueError(f"unknown function in {call!r}")
            arity = _FUNCTIONS[name][0]
            if len(node.args) != arity or call[:-1].rstrip().endswith(","):
                raise ValueError(f"{name} expects {arity} argument(s) in {call!r}")
            functions.add(node.func)
        elif isinstance(node, ast.Name) and node not in functions:
            if node.id not in _NAMES:
                raise ValueError(f"unknown name {node.id!r} in expression")
            if node.id[0] == "x":
                dim = max(dim, int(node.id[1]))
    return _fold(tree.body, source), dim


def _fold(node, source):
    """``node`` with each part that reads no coordinate evaluated into a
    constant, children first and left to right, as a call evaluates them:
    the same Python float and numpy operations, so the same bits.  An
    arithmetic error there (``1/0``, ``10^400``) or a complex result (a
    negative number to a fractional power, ``(0-8)^(1/3)``) is a ValueError
    naming the part; its cause is Python's error, or for a complex result
    the TypeError that evaluating it as a float raises."""
    if isinstance(node, ast.Name):
        return ast.Constant(_CONSTANTS[node.id]) if node.id in _CONSTANTS else node
    if isinstance(node, ast.UnaryOp):
        node.operand = _fold(node.operand, source)
        parts = [node.operand]
    elif isinstance(node, ast.BinOp):
        node.left = _fold(node.left, source)
        node.right = _fold(node.right, source)
        parts = [node.left, node.right]
    elif isinstance(node, ast.Call):
        node.args = [_fold(arg, source) for arg in node.args]
        parts = node.args
    else:
        return node
    if not all(isinstance(part, ast.Constant) for part in parts):
        return node
    text = ast.get_source_segment(source, node).replace("**", "^")
    try:
        value = _evaluate(node, {})
    except ArithmeticError as exc:
        raise ValueError(f"cannot evaluate {text!r}: {exc}") from exc
    if isinstance(value, complex):
        raise ValueError(f"cannot evaluate {text!r}: complex result") from TypeError(
            f"{value!r} is not a real number")
    return ast.Constant(value)


def _evaluate(node, env):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return operator.neg(_evaluate(node.operand, env))
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    return _FUNCTIONS[node.func.id][1](*[_evaluate(arg, env) for arg in node.args])


class Expression:
    """An expression over (n, N) point arrays; ``dim`` is the highest coordinate it reads."""

    def __init__(self, text):
        self.text = text
        self._tree, self.dim = _parse(text)

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        if points.shape[1] < self.dim:
            raise ValueError(f"{self.text!r} reads x{self.dim} of {points.shape[1]}D points")
        env = {f"x{k + 1}": points[:, k] for k in range(points.shape[1])}
        env["r"] = np.linalg.norm(points, axis=1)
        out = _evaluate(self._tree, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (points.shape[0],)).copy()
