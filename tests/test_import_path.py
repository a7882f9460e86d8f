"""The CLI imports scipy only for the perturbed-anharmonic eigenbasis.

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


def test_perturbed_anharmonic_imports_scipy_on_demand():
    proc = run_fresh(
        "import sys, grslab.cli\n"
        "sys.exit(grslab.cli.main(['verify', 'perturbed-anharmonic', '--n', '8']))\n"
    )
    assert proc.returncode == 0, proc.stderr


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
