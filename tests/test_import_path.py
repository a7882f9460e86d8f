"""No CLI command imports ``scipy.linalg``.

The analytic systems and ``overlap`` never import scipy.  The
perturbed-anharmonic eigenbasis imports the top-level ``scipy`` package and
loads its compiled LAPACK wrapper, ``scipy.linalg._flapack``, without the
``scipy.linalg`` package, whose import pulls in ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``.  Either import order of grslab and
``scipy.linalg`` must leave both working.

Each case runs in a fresh interpreter, because the rest of the suite imports
scipy into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import grslab

SRC = str(Path(grslab.__file__).resolve().parent.parent)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_verify_and_overlap_leave_scipy_unimported(tmp_path):
    code = f"""
import contextlib, io, json, sys
import grslab.cli
codes = []
for argv in (["verify", "shifted-ho", "--n", "8"], ["verify", "example1", "--n", "8"],
             ["overlap"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(grslab.cli.main(argv + ["--json", {str(tmp_path / "r.json")!r}]))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
# the report's scipy version is read without importlib.metadata and its email parser
metadata = sorted(m for m in ("importlib.metadata", "email") if m in sys.modules)
print(json.dumps({{"codes": codes, "scipy": loaded, "metadata": metadata}}))
"""
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": [0, 0, 0], "scipy": [], "metadata": []
    }


def test_cli_and_overlap_leave_fractions_and_decimal_unimported(tmp_path):
    # the closed-form overlap sums its series in plain ints
    proc = run_fresh(
        "import contextlib, io, json, sys, grslab.cli\n"
        "gone = lambda: sorted(m for m in ('fractions', 'decimal') if m in sys.modules)\n"
        "after_import = gone()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = grslab.cli.main(['overlap', '--n-max', '30', '--csv', {str(tmp_path / 'o.csv')!r}])\n"
        "print(json.dumps({'import': after_import, 'rc': rc, 'overlap': gone()}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"import": [], "rc": 0, "overlap": []}


def test_only_a_csv_write_loads_the_formatter(tmp_path):
    # the set-up path (import and a verify without --csv) never imports floattext
    proc = run_fresh(
        "import contextlib, io, json, sys, grslab.cli\n"
        "argv = ['verify', 'shifted-ho', '--n', '8', '--json', %r]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [grslab.cli.main(argv)]\n"
        "    loaded = ['grslab.floattext' in sys.modules]\n"
        "    codes.append(grslab.cli.main(argv + ['--csv', %r]))\n"
        "    loaded.append('grslab.floattext' in sys.modules)\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
        % (str(tmp_path / "r.json"), str(tmp_path / "g.csv"))
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "loaded": [False, True]}


def test_perturbed_anharmonic_leaves_scipy_linalg_unimported():
    proc = run_fresh(
        "import contextlib, io, json, sys, grslab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = grslab.cli.main(['verify', 'perturbed-anharmonic', '--n', '8'])\n"
        "print(json.dumps({'rc': rc, 'loaded': sorted(m for m in ('scipy.linalg',\n"
        "    'scipy.linalg._flapack', 'scipy._lib._array_api') if m in sys.modules)}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": 0, "loaded": []}


# the same half-grid problem solved by grslab and by scipy.linalg in one process
SAME_EIGENPAIRS = """
import numpy as np
from grslab.basis import anharmonic_eigenbasis, uniform_trapezoid_rule
b = anharmonic_eigenbasis(4.0, uniform_trapezoid_rule(8.0, 2000), 5)
x = b.grid.nodes
h = x[1] - x[0]
off = np.full(999, -1.0 / h**2)
d = 2.0 / h**2 + x[1000:] ** 4.0 + np.r_[off[0], np.zeros(999)]
w, _ = scipy.linalg.eigh_tridiagonal(d, off, select="i", select_range=(0, 2))
assert np.array_equal(w, b.energies[::2]), (w, b.energies)
"""


def test_grslab_then_scipy_linalg():
    # the wrapper grslab loaded leaves no orphan sys.modules entry, so a later
    # import of the package loads it as a submodule
    proc = run_fresh(
        "import grslab.cli, sys\n"
        "grslab.cli.main(['verify', 'perturbed-anharmonic', '--n', '8'])\n"
        "assert 'scipy.linalg._flapack' not in sys.modules\n"
        "import scipy.linalg\n"
        "assert scipy.linalg._flapack is sys.modules['scipy.linalg._flapack']\n"
        + SAME_EIGENPAIRS
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_linalg_then_grslab():
    # grslab reuses the wrapper the package already loaded
    proc = run_fresh(
        "import scipy.linalg\n" + SAME_EIGENPAIRS
        + "from grslab.basis import _flapack\n"
        "assert _flapack() is scipy.linalg._flapack\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_missing_scipy_is_a_usage_error():
    proc = run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None  # import scipy raises ModuleNotFoundError\n"
        "import grslab.cli\n"
        "sys.exit(grslab.cli.main(['verify', 'perturbed-anharmonic', '--n', '8']))\n"
    )
    assert proc.returncode == 2, proc.stderr
    assert "cannot build perturbed_anharmonic:" in proc.stderr
    assert "scipy" in proc.stderr and "Traceback" not in proc.stderr


def test_versions_block_names_installed_scipy():
    proc = run_fresh(
        "import sys\n"
        "from grslab.report import versions_block\n"
        "versions = versions_block()\n"
        "assert 'scipy' not in sys.modules\n"
        "import scipy\n"
        "assert versions['scipy'] == scipy.__version__, versions\n"
    )
    assert proc.returncode == 0, proc.stderr
