"""Tiny arithmetic expression grammar for boundary data and oracles.

Scenario files describe scalar functions of position as strings like
``"m * (1 - r^2)"`` or ``"x1^2 - x2^2"``.  The grammar is deliberately small
and evaluated with numpy, never ``eval``:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          (right associative)
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names: ``x1``..``x3`` (coordinates), ``r`` (distance to the origin), ``pi``,
``e``, plus any extra constants passed at evaluation time (scenarios use this
for parameters like ``m``).
Functions: abs, sqrt, log, exp, sin, cos, min, max.
"""

import math

import numpy as np

__all__ = ["Expression"]

_FUNCTIONS = {
    "abs": (1, np.abs),
    "sqrt": (1, np.sqrt),
    "log": (1, np.log),
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < len(text):
                ch = text[j]
                if ch.isdigit() or ch == ".":
                    j += 1
                elif ch in "eE" and not seen_e and j + 1 < len(text) and (
                    text[j + 1].isdigit() or text[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            tokens.append(("num", float(text[i:j])))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ValueError(f"unexpected character {c!r} in expression")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind}, found {tok[0]}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input at token {self.peek()}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return ("pow", base, self.factor())
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return ("num", value)
        if kind == "name":
            self.take()
            if self.peek()[0] == "(":
                self.take("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.take(",")
                    args.append(self.expr())
                self.take(")")
                if value not in _FUNCTIONS:
                    raise ValueError(f"unknown function {value!r}")
                arity, _ = _FUNCTIONS[value]
                if len(args) != arity:
                    raise ValueError(f"{value} expects {arity} argument(s)")
                return ("call", value, args)
            return ("var", value)
        if kind == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        raise ValueError(f"unexpected token {kind!r}")


class Expression:
    """A parsed scalar expression evaluated over point arrays."""

    def __init__(self, text):
        self.text = text
        self.node = _Parser(_tokenize(text)).parse()

    def __call__(self, points, **constants):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        env = {"pi": math.pi, "e": math.e}
        env.update({k: float(v) for k, v in constants.items()})
        for k in range(points.shape[1]):
            env[f"x{k + 1}"] = points[:, k]
        env["r"] = np.linalg.norm(points, axis=1)
        out = self._eval(self.node, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (points.shape[0],)).copy()

    def _eval(self, node, env):
        op = node[0]
        if op == "num":
            return node[1]
        if op == "var":
            name = node[1]
            if name not in env:
                raise ValueError(f"unknown name {name!r} in expression")
            return env[name]
        if op == "neg":
            return -self._eval(node[1], env)
        if op in ("add", "sub", "mul", "div", "pow"):
            a = self._eval(node[1], env)
            b = self._eval(node[2], env)
            if op == "add":
                return a + b
            if op == "sub":
                return a - b
            if op == "mul":
                return a * b
            if op == "div":
                return a / b
            return a**b
        if op == "call":
            _, fn = _FUNCTIONS[node[1]]
            args = [self._eval(arg, env) for arg in node[2]]
            return fn(*args)
        raise ValueError(f"corrupt expression node {op!r}")
