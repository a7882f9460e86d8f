"""The float text of the CSV writers against ``repr``, and the Gram CSVs
against the writer that calls ``repr`` once per entry."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grslab import ExampleSpec, floattext, make_example, overlap_matrices
from grslab.floattext import float_text
from grslab.report import write_matrix_csv, write_overlap_csv

from reference import write_matrix_csv as reference_matrix_csv


def assert_repr(values):
    """float_text writes ``repr`` of each value: compared as one blob of
    lines, and line by line where the blobs differ."""
    values = np.asarray(values, dtype=float)
    lines = np.zeros((len(values), floattext.WIDTH + 1), np.uint8)
    lines[:, :-1] = float_text(values)
    lines[:, -1] = ord("\n")
    got = lines.tobytes().translate(None, b"\0").decode("ascii")
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got != want:
        bad = [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]
        pytest.fail(f"{len(bad)} of {len(values)} differ, first {bad[:5]}")


@pytest.fixture
def repr_calls(monkeypatch):
    """The values float_text hands to ``repr``."""
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(floattext, "repr", counted, raising=False)
    return calls


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_any_floats_read_as_repr(values):
    assert_repr(values)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_any_bit_patterns_read_as_repr(bits):
    assert_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def test_sweep_reads_as_repr():
    bits = np.random.default_rng(25).integers(0, 2**64, size=10**5, dtype=np.uint64)
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])
    assert_repr(np.concatenate([
        bits.view(np.float64), tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        twos, -twos, special,
    ]))


def test_ties_and_the_fringe_go_to_repr(repr_calls):
    # 2^50 + 1/4 lies halfway between the 17-digit candidates ...624.2 and
    # ...624.3; subnormals, non-finite values and magnitudes past 1e280 are
    # never digitized here; +-0.0 are written directly
    ties = [2.0**50 + 0.25, 2.0**50 + 0.75]
    fringe = [5e-324, 2e-300, -np.inf, np.nan, 1e281, -1.5e300]
    assert_repr(ties + fringe + [0.0, -0.0, 1.0])
    assert len(repr_calls) == len(ties) + len(fringe)


GRAMS = {
    "shifted-ho-128": dict(id="shifted_ho", a=0.5, n=128),
    "example1-128": dict(id="example1", n=128),
    "perturbed-anharmonic-64": dict(id="perturbed_anharmonic", beta=4.0, n=64),
    "shifted-ho-344": dict(id="shifted_ho", a=0.5, n=344),
}


@pytest.fixture(scope="module", params=list(GRAMS))
def gram(request):
    return make_example(ExampleSpec(**GRAMS[request.param])).biorth_gram


def test_gram_csv_bytes_match_the_reference_writer(gram, tmp_path, repr_calls):
    write_matrix_csv(gram, str(tmp_path / "fast.csv"))
    reference_matrix_csv(gram, str(tmp_path / "reference.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    # nearly every entry is digitized without repr
    assert len(repr_calls) <= 0.005 * gram.size


# the special values of float_text, and shapes with one row or one column, where
# the index width changes, where no block size divides the entry count, where a
# row holds more values than a block, and with no rows
SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e300, 0.0, 1.0]
EDGE_SHAPES = [(1, 1), (1, 513), (513, 1), (10, 10), (101, 3), (37, 91), (2, 1601), (0, 4)]


@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_edge_shape_csv_bytes_match_the_reference_writer(shape, kind, tmp_path):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    values.flat[: len(SPECIAL)] = SPECIAL[: values.size]
    if kind == "complex":
        values = values.astype(complex)
        values.imag = np.roll(values.real, 1)
    write_matrix_csv(values, str(tmp_path / "fast.csv"))
    reference_matrix_csv(values, str(tmp_path / "reference.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_peak_memory(tmp_path):
    # the complex and a real Gram at N = 128, and the overlap table at n_max = 30
    sh, e1 = (make_example(ExampleSpec(**GRAMS[name])).biorth_gram for name in ("shifted-ho-128", "example1-128"))
    closed, example1 = overlap_matrices(30)
    path = str(tmp_path / "table.csv")
    for write in (lambda: write_matrix_csv(sh, path), lambda: write_matrix_csv(e1, path),
                  lambda: write_overlap_csv(closed, example1.krein_gram, path)):
        write()  # builds the tables once per process
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6
