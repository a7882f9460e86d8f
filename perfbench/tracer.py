"""In-memory span tracer for grslab, applied from outside the package.

``Tracer.install`` wraps each public function listed in ``LAYERS`` at every
``grslab`` module attribute that holds it, because callers look functions up
through their own module globals (``grslab.grs.decay_scores`` is the
``decay_scores`` that ``build_system`` calls).  Each call becomes one span:
layer id, start, end, parent span, invocation id and an optional size
(Hermite table elements, CSV bytes).  Spans stay in flat arrays until
``dump`` writes them out.

Run as a script, this file is a traced stand-in for ``python -m grslab.cli``:

    python perfbench/tracer.py SPANS.npz verify shifted-ho --n 16 --json r.json

It imports ``grslab.cli``, installs the wrappers, runs ``main`` under one
root span, writes the spans to SPANS.npz and exits with ``main``'s code.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

#: (module, public function, layer name).  Layer names follow the modules.
LAYERS = (
    ("grslab.basis", "gauss_hermite_rule", "basis.gauss_hermite_rule"),
    ("grslab.basis", "hermite_function_table", "basis.hermite_function_table"),
    ("grslab.basis", "anharmonic_eigenbasis", "basis.anharmonic_eigenbasis"),
    ("grslab.metric_ops", "decay_scores", "metric_ops.decay_scores"),
    ("grslab.metric_ops", "apply_exp_q", "metric_ops.apply_exp_q"),
    ("grslab.metric_ops", "anticommutes_with_parity", "metric_ops.anticommutes_with_parity"),
    ("grslab.grs", "build_system", "grs.build_system"),
    ("grslab.grs", "weighted_inner", "grs.weighted_inner"),
    ("grslab.krein", "to_samples", "krein.to_samples"),
    ("grslab.krein", "gram_matrix", "krein.gram_matrix"),
    ("grslab.csymmetry", "krein_gram", "csymmetry.krein_gram"),
    ("grslab.csymmetry", "expansion_residual", "csymmetry.expansion_residual"),
    ("grslab.symfun", "eval_values", "symfun.eval_values"),
    ("grslab.hamiltonian", "fd_matrix", "hamiltonian.fd_matrix"),
    ("grslab.hamiltonian", "eigen_residual", "hamiltonian.eigen_residual"),
    ("grslab.catalog", "make_example", "catalog.make_example"),
    ("grslab.catalog", "overlap_matrices", "catalog.overlap_matrices"),
    ("grslab.report", "emit_json", "report.emit_json"),
    ("grslab.report", "write_matrix_csv", "report.write_matrix_csv"),
)

#: the root span the harness opens around one CLI invocation
ROOT_SPAN = "cli.main"
NAMES = tuple(layer for _, _, layer in LAYERS) + (ROOT_SPAN,)
_ID = {name: i for i, name in enumerate(NAMES)}


def _table_elems(args, kwargs, result) -> float:
    return float(result.size)  # rows x points of the computed table


def _file_bytes(args, kwargs, result) -> float:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return float(os.path.getsize(path))


#: per-span size recorded beside the timing, by layer
SIZES = {
    "basis.hermite_function_table": _table_elems,
    "report.write_matrix_csv": _file_bytes,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.size = array("d")
        self.current_invocation = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, layer_id: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.invocation.append(self.current_invocation)
        self.start.append(0.0)
        self.end.append(0.0)
        self.size.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name: str, invocation: int):
        """Root span around one invocation; nested spans inherit its id."""
        self.current_invocation = invocation
        idx = self._open(_ID[name])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap(self, layer: str, fn):
        layer_id = _ID[layer]
        size = SIZES.get(layer)

        def traced(*args, **kwargs):
            idx = self._open(layer_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
            if size is not None:
                self.size[idx] = size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every grslab module attribute bound to a listed function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "grslab" or name.startswith("grslab."))]
        for module_name, func_name, layer in LAYERS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        import numpy as np

        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
        }

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(NAMES), **self.arrays())

    def extend(self, path: str, invocation: int) -> None:
        """Append the spans another process dumped, as one invocation."""
        import numpy as np

        with np.load(path) as data:
            if tuple(data["names"]) != NAMES:
                raise ValueError(f"{path}: span layer table differs from this tracer's")
            offset = len(self.layer)
            parent = data["parent"]
            self.layer.extend(data["layer"].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(np.where(parent < 0, -1, parent + offset).tolist())
            self.invocation.extend([invocation] * parent.size)
            self.size.extend(data["size"].tolist())


def layer_totals(spans: dict, invocations) -> dict:
    """Per-layer calls, inclusive and self seconds over the given invocations.

    Self time is a span's duration minus the durations of its direct
    children.  Also returns the decay-gate share of ``build_system`` and the
    summed sizes.
    """
    import numpy as np

    keep = np.isin(spans["invocation"], np.asarray(list(invocations), dtype=np.int32))
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    layer = spans["layer"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    selfdur = dur - child

    out: dict[str, float] = {}
    for i, name in enumerate(NAMES):
        mask = keep & (layer == i)
        out[f"{name}.calls"] = int(np.count_nonzero(mask))
        out[f"{name}.s"] = float(np.sum(dur[mask]))
        out[f"{name}.self_s"] = float(np.sum(selfdur[mask]))
    gate = keep & (layer == _ID["metric_ops.decay_scores"]) & has_parent
    gate &= layer[np.where(has_parent, parent, 0)] == _ID["grs.build_system"]
    out["grs.build.decay_gate_s"] = float(np.sum(dur[gate]))
    out["grs.build.materialize_s"] = out["grs.build_system.s"] - out["grs.build.decay_gate_s"]
    table = keep & (layer == _ID["basis.hermite_function_table"])
    out["basis.hermite_table_elems"] = int(np.sum(spans["size"][table]))
    csv = keep & (layer == _ID["report.write_matrix_csv"])
    out["report.csv_bytes"] = int(np.sum(spans["size"][csv]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.npz grslab-cli-args...", file=sys.stderr)
        return 2
    import grslab.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(ROOT_SPAN, 0):
            rc = grslab.cli.main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[0])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
