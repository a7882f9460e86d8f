"""grslab benchmark: time from ``grslab verify`` to a trustworthy verdict.

One run measures one workload and prints, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``:

    python3 perfbench/run.py --workload verify_large --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from spans recorded around the
public functions of each ``src/grslab`` module (see ``tracer.py``).  Every
metric, with its unit, workload and sample count, is printed by

    python3 perfbench/run.py --all --seed 1 --seconds 10

Each workload is a closed loop: one client, one invocation at a time.  The
seed only shuffles the order of invocations inside each pass; the program
receives nothing but CLI arguments.  Each invocation must pass a gate: its
JSON report parses and lists the suite's named checks in order, the exit code
agrees with the pass flags, and ``classification`` passes against the
catalog's expected verdict.  An invocation that departs from the gate is a
failed operation and all of its checks count as failed.

BLAS and OpenMP are pinned to one thread for the benchmark and its children,
so the figures are a single-threaded baseline.  A run writes reports, spans
and a detail file with provenance under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

#: single-threaded baseline, set before anything can import numpy
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, ROOT_SPAN, Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER_PY = Path(__file__).resolve().parent / "tracer.py"

CALL_TIMEOUT_S = 120
SETUP_REPEATS = 5
IMPORT_PROBES = 3
#: in-process set-up is ``import grslab.cli`` plus this verify
WARMUP = ("verify", "shifted-ho", "--n", "8")
SETUP_PROBE = (
    "import contextlib, io, sys, time\n"
    "t = time.perf_counter()\n"
    "import grslab.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = grslab.cli.main(sys.argv[1:])\n"
    "print(rc, time.perf_counter() - t)\n"
)

EXPECTED_VERDICT = {
    "shifted-ho": "first_type",
    "perturbed-anharmonic": "first_type",
    "example1": "not_j_orthonormal",
}
COMMON_CHECKS = ("biorthogonality", "weighted_orthonormality", "g0_agreement", "g0_positivity")
FIRST_TYPE_CHECKS = COMMON_CHECKS + (
    "j_orthonormality", "sign_pattern", "partner", "classification",
    "c_squared", "jc_positivity", "c_metric_consistency", "expansion",
)
EXAMPLE1_CHECKS = COMMON_CHECKS + (
    "classification", "negative_witness", "indefinite_spot", "eigen_residuals",
)
OVERLAP_CHECKS = ("overlap_rel_even", "overlap_abs_odd", "radical_scope_pin")
#: checks whose value is a 0/1 verdict, not a defect with digits
VERDICT_CHECKS = frozenset({"g0_positivity", "classification", "jc_positivity"})
ALL_CHECKS = tuple(dict.fromkeys(FIRST_TYPE_CHECKS + ("gq_resolution", "eigen_residuals")
                                 + EXAMPLE1_CHECKS + OVERLAP_CHECKS))


def expected_checks(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The named checks, in order, that the CLI's suite reports for argv."""
    if argv[0] == "overlap":
        return OVERLAP_CHECKS
    if argv[1] == "example1":
        return EXAMPLE1_CHECKS
    n = int(argv[argv.index("--n") + 1])
    return FIRST_TYPE_CHECKS + (("gq_resolution",) if n >= 32 else ()) + ("eigen_residuals",)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    cold: bool  # a fresh ``python -m grslab.cli`` process per invocation
    csv: bool = False


# Why each workload exists is recorded in BENCHMARK.json; in short:
# cold_cli is what a CLI user pays (mostly import, which scipy dominates);
# verify_large is the O(N^2) Gram work at N = 128 with import excluded, and
# keeps the known g0_agreement failure at shifted-ho --n 128 visible;
# n_sweep is a convergence study where per-build fixed costs (rules,
# eigen-solves, parity evidence, emission) carry several times their share.
WORKLOADS = {
    "cold_cli": Workload(
        "cold_cli",
        (
            ("verify", "shifted-ho", "--n", "16"),
            ("verify", "example1", "--n", "12"),
            ("verify", "perturbed-anharmonic", "--n", "8"),
            ("overlap",),
        ),
        cold=True,
    ),
    "verify_large": Workload(
        "verify_large",
        (
            ("verify", "shifted-ho", "--n", "128"),
            ("verify", "example1", "--n", "128"),
            ("verify", "perturbed-anharmonic", "--n", "64"),
        ),
        cold=False,
        csv=True,
    ),
    "n_sweep": Workload(
        "n_sweep",
        tuple(
            ("verify", system, "--n", str(n))
            for n in (4, 8, 12, 16, 24, 32)
            for system in ("shifted-ho", "example1", "perturbed-anharmonic")
        ),
        cold=False,
    ),
}


# ---------------------------------------------------------------------------
# the per-invocation gate
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one invocation produced, judged against the gate."""

    ok: bool
    attempted: int
    failed: int
    reason: str = ""
    worst_per_tol: float = 0.0
    worst_check: str = ""
    check_s: dict = field(default_factory=dict)
    n: int = 0
    points: int = 0


def judge(argv: tuple[str, ...], rc, report_path: Path) -> Outcome:
    names = expected_checks(argv)
    attempted = len(names)

    def departure(reason: str) -> Outcome:
        return Outcome(False, attempted, attempted, reason)

    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        checks = report["checks"]
        got = tuple(c["name"] for c in checks)
        if got != names:
            return departure(f"report lists {got}, expected {names}")
        all_pass = all(c["pass"] is True for c in checks)
        if rc != (0 if all_pass else 1):
            return departure(f"exit code {rc!r} disagrees with pass flags (all pass: {all_pass})")
        out = Outcome(True, attempted, sum(1 for c in checks if c["pass"] is not True))
        if argv[0] == "verify":
            expect = report["settings"]["resolved"]["expect"]
            if expect != EXPECTED_VERDICT[argv[1]]:
                return departure(f"expect {expect!r}, but the catalog expects {EXPECTED_VERDICT[argv[1]]!r}")
            if checks[names.index("classification")]["pass"] is not True:
                return departure("classification does not match the catalog's expected verdict")
            out.n = int(report["params"]["n"])
            out.points = int(report["settings"]["rule"]["points"])
        for c in checks:
            out.check_s[c["name"]] = float(c["wall_time_s"])
            value = c["value"]
            if c["name"] in VERDICT_CHECKS or not value:
                continue
            ratio = abs(value) / c["tolerance"]
            if ratio > out.worst_per_tol:
                out.worst_per_tol, out.worst_check = ratio, c["name"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return departure(f"report unreadable: {exc!r}")
    return out


# ---------------------------------------------------------------------------
# running invocations
# ---------------------------------------------------------------------------

def run_child(cmd: list[str], capture: bool = False) -> subprocess.CompletedProcess:
    """Run one child to completion and reap it; a timer kills it after CALL_TIMEOUT_S.

    ``subprocess.run(timeout=...)`` would poll for the exit in sleeps of up
    to 50 ms, which quantizes the measured wall time of a 0.6 s call; a
    blocking wait does not.  A killed child returns -SIGKILL, which the
    invocation gate reports as a failed operation.
    """
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=out, text=capture) as proc:
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


@dataclass
class Pass:
    seconds: float  # sum of the pass's call times; harness work between calls excluded
    call_s: list
    invocations: list  # (invocation id, argv) in the order run
    outcomes: list


class Runner:
    """Runs passes of one workload, in this process or one process per call."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.rng = random.Random(seed)
        self.dir = OUT / wl.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.main = None
        self.tracer = None
        self.next_invocation = 0

    def argv(self, k: int) -> tuple[str, ...]:
        base = self.wl.invocations[k]
        argv = base + ("--json", str(self.dir / f"inv{k}.json"))
        if self.wl.csv and base[0] == "verify":
            argv += ("--csv", str(self.dir / f"inv{k}.csv"))
        return argv

    def setup(self) -> list[float]:
        """Set up SETUP_REPEATS times; returns each set-up's seconds."""
        warm = WARMUP + ("--json", str(self.dir / "warmup.json"))
        samples = []
        if not self.wl.cold:
            t = time.perf_counter()
            import grslab.cli

            with contextlib.redirect_stdout(io.StringIO()):
                rc = grslab.cli.main(list(warm))
            samples.append(time.perf_counter() - t)
            self._check_warmup(warm, rc)
            if not Path(grslab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
                raise SystemExit(f"error: imported grslab from {grslab.cli.__file__}, not {SRC}")
            self.main = grslab.cli.main
        while len(samples) < SETUP_REPEATS:
            if self.wl.cold:
                t = time.perf_counter()
                proc = run_child([sys.executable, "-m", "grslab.cli", *warm])
                samples.append(time.perf_counter() - t)
                rc = proc.returncode
            else:
                proc = run_child([sys.executable, "-c", SETUP_PROBE, *warm], capture=True)
                try:
                    rc_text, seconds = proc.stdout.split()[-2:]
                    rc = int(rc_text)
                    samples.append(float(seconds))
                except ValueError:
                    raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}") from None
            self._check_warmup(warm, rc)
        return samples

    def _check_warmup(self, warm, rc) -> None:
        outcome = judge(warm, rc, self.dir / "warmup.json")
        if not outcome.ok:
            raise SystemExit(f"error: warm-up {' '.join(warm)} failed: {outcome.reason}")

    def run_pass(self) -> Pass:
        order = list(range(len(self.wl.invocations)))
        self.rng.shuffle(order)
        plan = []
        for k in order:
            argv = self.argv(k)
            for flag in ("--json", "--csv"):
                if flag in argv:
                    Path(argv[argv.index(flag) + 1]).unlink(missing_ok=True)
            plan.append((self.next_invocation, k, argv))
            self.next_invocation += 1
        rcs, calls = [], []
        spans = self.dir / "child_spans.npz"
        for inv, _, argv in plan:
            if self.wl.cold:
                spans.unlink(missing_ok=True)
            else:
                gc.collect()  # every invocation starts from a collected heap, whatever ran before
            t = time.perf_counter()
            rcs.append(self._invoke(inv, argv, spans))
            calls.append(time.perf_counter() - t)
            if self.wl.cold and self.tracer is not None and spans.exists():
                self.tracer.extend(str(spans), inv)
        outcomes = [judge(self.wl.invocations[k], rc, Path(argv[argv.index("--json") + 1]))
                    for (_, k, argv), rc in zip(plan, rcs)]
        return Pass(sum(calls), calls, [(inv, self.wl.invocations[k]) for inv, k, _ in plan], outcomes)

    def _invoke(self, inv: int, argv: tuple[str, ...], spans: Path):
        if self.wl.cold:
            if self.tracer is None:
                cmd = [sys.executable, "-m", "grslab.cli", *argv]
            else:
                cmd = [sys.executable, str(TRACER_PY), str(spans), *argv]
            return run_child(cmd).returncode
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                if self.tracer is None:
                    return self.main(list(argv))
                with self.tracer.span(ROOT_SPAN, inv):
                    return self.main(list(argv))
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                print(f"invocation {' '.join(argv)} raised {exc!r}", file=sys.stderr)
                return None

    def run_for(self, budget: float) -> list[Pass]:
        """Whole passes until another would overrun the budget (at least one)."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            if time.perf_counter() - start + passes[-1].seconds > budget:
                return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def call_p50(passes: list[Pass]) -> float:
    """Median over the invocation list of each invocation's median seconds.

    A workload's invocations differ in cost by up to 40x, so the raw call
    times form one cluster per invocation; the median of a mixture sits on a
    cluster edge and moves with the noise of single calls.  Each
    invocation's median over the passes is steady, and so is their median.
    """
    by_argv: dict[tuple, list[float]] = {}
    for p in passes:
        for (_, argv), seconds in zip(p.invocations, p.call_s):
            by_argv.setdefault(argv, []).append(seconds)
    return statistics.median(statistics.median(v) for v in by_argv.values())


def call_tail(passes: list[Pass]) -> tuple[float, str]:
    """The highest percentile of call time with at least 10 calls beyond it.

    Below 20 calls that percentile would lie under the median, so the
    median (``call_p50``) is reported instead and labelled so.
    """
    ordered = sorted((c for p in passes for c in p.call_s), reverse=True)
    n = len(ordered)
    if n < 20:
        return call_p50(passes), f"p50 of {n} calls (fewer than 20)"
    return ordered[10], f"p{100.0 * (n - 10) / n:.1f} of {n} calls"


def end_to_end(wl: Workload, setup: list[float], passes: list[Pass]) -> dict:
    n_calls = sum(len(p.call_s) for p in passes)
    outcomes = [o for p in passes for o in p.outcomes]
    timed = sum(p.seconds for p in passes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    worst = max(outcomes, key=lambda o: o.worst_per_tol)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF)
    return {
        "setup_s": (statistics.median(setup), f"{len(setup)} set-ups"),
        "pass_s.p50": (statistics.median(p.seconds for p in passes), f"{len(passes)} passes"),
        "call_s.p50": (call_p50(passes),
                       f"{len(wl.invocations)} invocations x {len(passes)} passes = {n_calls} calls"),
        "call_s.tail": call_tail(passes),
        "checks_per_s": (attempted / timed, f"{attempted} checks / {timed:.3f} s"),
        "check_pass_ratio": ((attempted - failed) / attempted,
                             f"{attempted - failed}/{attempted} checks pass; "
                             f"check_fail_ratio {failed}/{attempted} over {len(passes)} passes"),
        "worst_defect_per_tol": (worst.worst_per_tol,
                                 f"{worst.worst_check}; log10 {_log10(worst.worst_per_tol):+.3f}"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0,
                        "largest child process" if wl.cold else "this process"),
    }


def _log10(x: float) -> float:
    return math.log10(x) if x > 0 else float("-inf")


def _median_over(passes: list[dict], key: str):
    values = [d[key] for d in passes]
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def import_times() -> tuple[float, float]:
    """(import grslab.cli, outermost scipy imports) from ``-X importtime``, medians."""
    cli, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import grslab.cli"], capture=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: import probe failed: {proc.stderr.strip()[-500:]}")
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name_field = parts[2].rstrip()
            depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
            rows.append((depth, name_field.strip(), int(parts[1]) * 1e-6))
        cli.append(sum(cum for depth, name, cum in rows if depth == 0 and name == "grslab.cli"))
        scipy.append(sum(cum for i, (depth, name, cum) in enumerate(rows)
                         if _is_scipy(name) and not _inside_scipy(rows, i)))
    return statistics.median(cli), statistics.median(scipy)


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def _inside_scipy(rows, i: int) -> bool:
    """importtime lists children before their parent, one level deeper."""
    level = rows[i][0]
    for depth, name, _ in rows[i + 1:]:
        if depth < level:
            if _is_scipy(name):
                return True
            level = depth
    return False


def per_layer(untraced: list[Pass], traced: list[Pass], spans: dict) -> dict:
    per_pass = []
    for p in traced:
        totals = layer_totals(spans, [inv for inv, _ in p.invocations])
        verify = [(inv, o) for (inv, argv), o in zip(p.invocations, p.outcomes) if argv[0] == "verify"]
        elems = layer_totals(spans, [inv for inv, _ in verify])["basis.hermite_table_elems"]
        needed = sum(2 * o.n * o.points for _, o in verify)
        totals["basis.hermite_elems_per_needed_sample"] = elems / needed if needed else 0.0
        totals["csymmetry.krein_gram.calls_per_verify"] = (
            totals["csymmetry.krein_gram.calls"] / len(verify) if verify else 0.0)
        per_pass.append(totals)
    elems_base = f"{elems} elems / {needed} = sum 2*N*P over {len(verify)} verifies per pass"

    n_traced = f"{len(traced)} traced passes"
    out = {}
    for _, _, layer in LAYERS:
        for suffix in ("s", "self_s", "calls"):
            key = f"{layer}.{suffix}"
            out[key] = (_median_over(per_pass, key), n_traced)
    for key in ("grs.build.decay_gate_s", "grs.build.materialize_s",
                "basis.hermite_table_elems", "report.csv_bytes"):
        out[key] = (_median_over(per_pass, key), n_traced)
    out["csymmetry.krein_gram.calls_per_verify"] = (
        _median_over(per_pass, "csymmetry.krein_gram.calls_per_verify"), n_traced + ", ideal 1")
    out["basis.hermite_elems_per_needed_sample"] = (
        _median_over(per_pass, "basis.hermite_elems_per_needed_sample"),
        elems_base + ", ideal about 1")

    for name in ALL_CHECKS:
        sums = [sum(o.check_s.get(name, 0.0) for o in p.outcomes) for p in untraced]
        out[f"check.{name}.s"] = (statistics.median(sums), f"{len(untraced)} untraced passes")

    cli_s, scipy_s = import_times()
    out["import.grslab_cli_s"] = (cli_s, f"{IMPORT_PROBES} -X importtime probes")
    out["import.scipy_s"] = (scipy_s, f"{IMPORT_PROBES} -X importtime probes")
    plain = statistics.median(p.seconds for p in untraced)
    with_spans = statistics.median(p.seconds for p in traced)
    out["trace.overhead_s"] = (with_spans - plain,
                               f"traced {with_spans:.4f} s - untraced {plain:.4f} s pass_s.p50")
    return out


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    from importlib import metadata

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "src_lines": src_lines,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_lines(workload: str, metrics: dict, units: dict) -> list[str]:
    return [f"{name:44s} {value!r:>24} {units[name]:6s} {workload:12s} n: {base}"
            for name, (value, base) in metrics.items()]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    spec = load_spec()
    wl = WORKLOADS[name]
    runner = Runner(wl, seed)
    setup = runner.setup()
    if not trace:
        passes = runner.run_for(seconds)
        metrics = end_to_end(wl, setup, passes)
        declared = spec["end_to_end"]
    else:
        untraced = runner.run_for(seconds / 2)
        runner.tracer = Tracer()
        if not wl.cold:
            runner.tracer.install()
        try:
            traced = runner.run_for(seconds / 2)
        finally:
            runner.tracer.uninstall()
        spans_path = OUT / f"spans-{name}.npz"
        runner.tracer.dump(str(spans_path))
        passes = untraced + traced
        metrics = per_layer(untraced, traced, runner.tracer.arrays())
        declared = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]
    for o in failed[:5]:
        print(f"gate departure: {o.reason}", file=sys.stderr)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[name]
    detail = {
        "workload": name,
        "why": why,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "metrics": {k: {"value": v, "unit": units[k], "n": base} for k, (v, base) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"detail-{name}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print("\n".join(metric_lines(name, metrics, units)), file=sys.stderr)
    print(f"provenance: {json.dumps(detail['provenance'], sort_keys=True)}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload in both modes, each in its own process; prints every metric."""
    spec = load_spec()
    status = 0
    for w in spec["workloads"]:
        print(f"# {w['name']}: {w['why']}")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
                continue
            detail = json.loads((OUT / f"detail-{w['name']}-trace{trace}.json").read_text())
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"#   trace {trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            units = {k: m["unit"] for k, m in detail["metrics"].items()}
            metrics = {k: (m["value"], m["n"]) for k, m in detail["metrics"].items()}
            print("\n".join(metric_lines(w["name"], metrics, units)))
    prov = provenance(seed)
    print("# provenance: " + json.dumps(prov, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    args = parser.parse_args(argv)
    if not (SRC / "grslab" / "cli.py").is_file():
        print(f"error: no grslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
