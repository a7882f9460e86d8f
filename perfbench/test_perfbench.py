"""Tests of the benchmark itself: exact traced counts and the invocation gate.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from tracer import LAYERS, Tracer, layer_totals

sys.path.insert(0, str(run.SRC))

EXACT = [f"{layer}.calls" for _, _, layer in LAYERS] + [
    "basis.hermite_table_elems",
    "report.csv_bytes",
]


def traced_pass_counts(workload: str, seed: int) -> dict:
    """Exact counts of one traced pass, in a fresh runner."""
    runner = run.Runner(run.WORKLOADS[workload], seed)
    runner.tracer = Tracer()
    if not runner.wl.cold:
        import grslab.cli

        runner.main = grslab.cli.main
        runner.tracer.install()
    try:
        p = runner.run_pass()
    finally:
        runner.tracer.uninstall()
    assert all(o.ok for o in p.outcomes), [o.reason for o in p.outcomes]
    totals = layer_totals(runner.tracer.arrays(), [inv for inv, _ in p.invocations])
    return {key: totals[key] for key in EXACT}


@pytest.mark.parametrize(
    "workload, weighted_inner_calls",
    [("verify_large", 73_734), ("n_sweep", 12_516), ("cold_cli", None)],
)
def test_traced_counts_repeat_exactly(workload, weighted_inner_calls):
    first = traced_pass_counts(workload, seed=7)
    second = traced_pass_counts(workload, seed=7)
    assert first == second
    if weighted_inner_calls is not None:
        assert first["grs.weighted_inner.calls"] == weighted_inner_calls
    if workload == "verify_large":
        assert first["report.csv_bytes"] > 0


def _write_report(path, checks, expect="first_type", n=16):
    report = {
        "checks": [
            {"name": name, "value": value, "tolerance": 1e-8, "pass": ok, "wall_time_s": 0.001}
            for name, value, ok in checks
        ],
        "params": {"n": n},
        "settings": {"resolved": {"expect": expect}, "rule": {"points": 72}},
    }
    path.write_text(json.dumps(report))


def test_gate_accepts_an_honest_failure_and_rejects_departures(tmp_path):
    argv = ("verify", "shifted-ho", "--n", "16")
    names = run.expected_checks(argv)
    report = tmp_path / "r.json"

    _write_report(report, [(n, 2e-8 if n == "g0_agreement" else 1e-9, n != "g0_agreement")
                           for n in names])
    honest = run.judge(argv, 1, report)
    assert honest.ok and honest.failed == 1 and honest.attempted == len(names)
    assert honest.worst_check == "g0_agreement" and honest.worst_per_tol == pytest.approx(2.0)

    assert not run.judge(argv, 0, report).ok  # exit code disagrees with the pass flags
    _write_report(report, [(n, 1e-9, True) for n in names[:-1]])
    missing = run.judge(argv, 0, report)
    assert not missing.ok and missing.failed == missing.attempted
    _write_report(report, [(n, 1e-9, True) for n in names], expect="undetermined")
    assert not run.judge(argv, 0, report).ok
    assert not run.judge(argv, 0, tmp_path / "absent.json").ok


def _passes(*rows):
    argvs = [("verify", "example1", "--n", str(k)) for k in range(len(rows[0]))]
    return [run.Pass(sum(r), list(r), list(enumerate(argvs)), []) for r in rows]


def test_call_percentiles():
    # three invocations of different cost; each one's median over 3 passes
    three = _passes([1.0, 5.0, 9.0], [2.0, 6.0, 10.0], [3.0, 4.0, 11.0])
    assert run.call_p50(three) == 5.0
    assert run.call_tail(three)[0] == 5.0  # 9 calls: too few for a tail
    many = _passes(*[[float(10 * i + k) for k in range(4)] for i in range(10)])
    value, label = run.call_tail(many)
    assert value == 71.0 and label.startswith("p75.0 of 40")  # 10 calls beyond it
