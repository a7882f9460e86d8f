import numpy as np
import pytest

import grslab as g
from grslab.krein import unit_vector
from grslab.metric_ops import apply_exp_q


def member_reps(sys_, which):
    """Reference path for a built family: each member exp(+-Q/2) e_k, k < n,
    as its own FunctionRep (coefficients with an argument shift for
    translation, samples on the working rule for multiplication)."""
    t = 0.5 if which == "phi" else -0.5
    return [apply_exp_q(sys_.q, t, unit_vector(sys_.basis, k), sys_.rule) for k in range(sys_.n)]


@pytest.fixture(scope="session")
def shifted_sys():
    return g.make_example(g.ExampleSpec(id="shifted_ho", a=0.5, n=16))


@pytest.fixture(scope="session")
def shifted_sys32():
    return g.make_example(g.ExampleSpec(id="shifted_ho", a=0.5, n=32))


@pytest.fixture(scope="session")
def example1_sys():
    return g.make_example(g.ExampleSpec(id="example1", n=12))


@pytest.fixture(scope="session")
def perturbed_sys():
    return g.make_example(g.ExampleSpec(id="perturbed_anharmonic", beta=4.0, n=8))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
