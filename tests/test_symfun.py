import numpy as np
import pytest

from grslab import GrammarError
from grslab.symfun import eval012, eval_values, is_odd_on, parse

X = np.linspace(-3.0, 3.0, 41)


def fd_derivatives(node, x, h=1e-5):
    """Central-difference oracle for the first two derivatives."""
    vp = eval_values(node, x + h)
    vm = eval_values(node, x - h)
    v0 = eval_values(node, x)
    return (vp - vm) / (2 * h), (vp - 2 * v0 + vm) / (h * h)


CASES = [
    ("x", lambda x: x),
    ("(scale 2 (atan x))", lambda x: 2 * np.arctan(x)),
    ("(scale -0.5 (pow x 2))", lambda x: -0.5 * x**2),
    ("(add (tanh x) (scale 3 x))", lambda x: np.tanh(x) + 3 * x),
    ("(gauss 0.5)", lambda x: np.exp(-0.5 * x**2)),
    ("(atan (scale 2 x))", lambda x: np.arctan(2 * x)),
    ("(pow (tanh x) 3)", lambda x: np.tanh(x) ** 3),
    ("(add 1.5 (scale -1 x))", lambda x: 1.5 - x),
]


@pytest.mark.parametrize("source,ref", CASES, ids=[c[0] for c in CASES])
def test_values(source, ref):
    node = parse(source)
    assert np.allclose(eval_values(node, X), ref(X), atol=1e-14)


@pytest.mark.parametrize("source", [c[0] for c in CASES])
def test_derivatives_against_finite_differences(source):
    node = parse(source)
    _, d1, d2 = eval012(node, X)
    fd1, fd2 = fd_derivatives(node, X)
    assert np.max(np.abs(d1 - fd1)) < 1e-7
    assert np.max(np.abs(d2 - fd2)) < 1e-4


def test_oddness():
    assert is_odd_on(parse("(scale 0.5 (atan x))"), X, 1e-12)
    assert is_odd_on(parse("(add (tanh x) (scale 2 x))"), X, 1e-12)
    assert not is_odd_on(parse("(scale -0.5 (pow x 2))"), X, 1e-12)
    assert not is_odd_on(parse("(gauss 1)"), X, 1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(",
        ")",
        "(mul x x)",
        "(scale x x)",
        "(pow x 1.5)",
        "(pow x -1)",
        "(atan x y)",
        "(gauss x)",
        "(add)",
        "x y",
        "(scale 1 x",
    ],
)
def test_grammar_errors(bad):
    with pytest.raises(GrammarError):
        parse(bad)
