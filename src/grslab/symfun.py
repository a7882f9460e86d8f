"""A closed grammar of real symbol functions with exact derivatives.

Multiplication-type metric generators are configured from prefix expressions

    (scale 2 (atan x))          2 arctan(x)
    (scale -0.5 (pow x 2))      -x^2/2
    (add (tanh x) (scale 3 x))  tanh(x) + 3x
    (gauss 0.5)                 exp(-x^2/2)

Atoms: ``x`` and numeric literals.  Forms: ``(add e...)``, ``(scale c e)``,
``(pow e k)`` with integer k >= 0, ``(atan e)``, ``(tanh e)`` and
``(gauss c)`` for exp(-c x^2).  Evaluation returns the value together with
the first two derivatives (forward-mode, so they are exact up to rounding);
the finite-difference Hamiltonians rely on that.
"""

from __future__ import annotations

import numpy as np

from .errors import GrammarError

__all__ = ["parse", "eval012", "eval_values", "is_odd_on"]

_FORMS = {"add", "scale", "pow", "atan", "tanh", "gauss"}


def _tokenize(text: str) -> list[str]:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise GrammarError("empty expression")
    return tokens


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise GrammarError(f"expected a number, got {token!r}") from None


def _read(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == ")":
        raise GrammarError("unexpected ')'")
    if tok != "(":
        if tok == "x":
            return ("x",), pos + 1
        return ("const", _number(tok)), pos + 1
    pos += 1
    if pos >= len(tokens):
        raise GrammarError("unterminated form")
    head = tokens[pos]
    if head not in _FORMS:
        raise GrammarError(f"unknown form {head!r}")
    pos += 1
    args: list = []
    while pos < len(tokens) and tokens[pos] != ")":
        if head == "scale" and not args:
            args.append(_number(tokens[pos]))
            pos += 1
        elif head == "gauss" and not args:
            args.append(_number(tokens[pos]))
            pos += 1
        elif head == "pow" and len(args) == 1:
            k = _number(tokens[pos])
            if k != int(k) or k < 0:
                raise GrammarError(f"pow exponent must be an integer >= 0, got {tokens[pos]!r}")
            args.append(int(k))
            pos += 1
        else:
            node, pos = _read(tokens, pos)
            args.append(node)
    if pos >= len(tokens):
        raise GrammarError("missing ')'")
    pos += 1  # consume ')'

    if head == "add":
        if not args:
            raise GrammarError("add needs at least one argument")
        return ("add", tuple(args)), pos
    if head == "scale":
        if len(args) != 2:
            raise GrammarError("scale needs a number and one expression")
        return ("scale", args[0], args[1]), pos
    if head == "pow":
        if len(args) != 2:
            raise GrammarError("pow needs one expression and an integer exponent")
        return ("pow", args[0], args[1]), pos
    if head == "gauss":
        if len(args) != 1:
            raise GrammarError("gauss needs exactly one number")
        return ("gauss", args[0]), pos
    if len(args) != 1:
        raise GrammarError(f"{head} needs exactly one argument")
    return (head, args[0]), pos


def parse(text: str):
    """Parse a prefix expression into its tree form."""
    tokens = _tokenize(text)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise GrammarError(f"trailing tokens after expression: {' '.join(tokens[pos:])}")
    return node


def eval012(node, x: np.ndarray):
    """Return (value, first derivative, second derivative) at the points x."""
    x = np.asarray(x, dtype=float)
    head = node[0]
    if head == "x":
        return x, np.ones_like(x), np.zeros_like(x)
    if head == "const":
        c = node[1]
        return np.full_like(x, c), np.zeros_like(x), np.zeros_like(x)
    if head == "add":
        v = d1 = d2 = 0.0
        for child in node[1]:
            cv, cd1, cd2 = eval012(child, x)
            v = v + cv
            d1 = d1 + cd1
            d2 = d2 + cd2
        return v, d1, d2
    if head == "scale":
        c, child = node[1], node[2]
        cv, cd1, cd2 = eval012(child, x)
        return c * cv, c * cd1, c * cd2
    if head == "pow":
        child, k = node[1], node[2]
        u, du, ddu = eval012(child, x)
        if k == 0:
            return np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
        v = u**k
        d1 = k * u ** (k - 1) * du
        d2 = k * (k - 1) * u ** (k - 2) * du * du + k * u ** (k - 1) * ddu if k >= 2 else ddu
        return v, d1, d2
    if head == "atan":
        u, du, ddu = eval012(node[1], x)
        w = 1.0 / (1.0 + u * u)
        return np.arctan(u), du * w, ddu * w - 2.0 * u * du * du * w * w
    if head == "tanh":
        u, du, ddu = eval012(node[1], x)
        t = np.tanh(u)
        sech2 = 1.0 - t * t
        return t, du * sech2, ddu * sech2 - 2.0 * t * sech2 * du * du
    if head == "gauss":
        c = node[1]
        g = np.exp(-c * x * x)
        return g, -2.0 * c * x * g, (4.0 * c * c * x * x - 2.0 * c) * g
    raise GrammarError(f"unknown node {head!r}")  # pragma: no cover


def eval_values(node, x: np.ndarray) -> np.ndarray:
    """Values only (cheaper to read at call sites than eval012(...)[0])."""
    return eval012(node, x)[0]


def is_odd_on(node, nodes: np.ndarray, tol: float) -> bool:
    """max |q(x) + q(-x)| <= tol over the given points.

    The symbol comes from an exact grammar, so oddness is near-exact when
    true; tol guards only against rounding.
    """
    v = eval_values(node, np.asarray(nodes, dtype=float))
    vr = eval_values(node, -np.asarray(nodes, dtype=float))
    return bool(np.max(np.abs(v + vr), initial=0.0) <= tol)
