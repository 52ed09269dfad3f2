"""Layer tracer that wraps dualct's public functions from outside the package.

``Tracer.install`` replaces every public function of the traced modules, in
every ``dualct`` namespace that binds it, with a wrapper that records a span
(name, parent span, start, end). The sparse matrix returned by
``tomo.system_matrix`` is handed out wrapped, so each ``A @ v`` becomes a
``tomo.A`` span and each ``A.T @ v`` a ``tomo.AT`` span. The wrappers call the
original functions with the original arguments, so no arithmetic changes.
Spans stay in memory until ``dump`` writes them; ``layer_metrics`` turns one
or more dumps into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import sys
import time

import numpy as np

TRACED_MODULES = ("tomo", "objective", "regularizer", "solver", "simdata",
                  "cli", "io", "metrics")

# Spans whose A/A^T applications estimate Lipschitz constants rather than
# advance the iterate; tomo.A.per_iter leaves them out.
LIPSCHITZ_SPANS = frozenset({"objective.block_lipschitz",
                             "objective.composite_lipschitz",
                             "objective.lipschitz_regularizers"})

# Each of these runs every conv layer of the stack once over the field.
CONV_PASSES = frozenset({"regularizer.feature_forward",
                         "regularizer.feature_vjp",
                         "regularizer.feature_jvp"})


def _conv_flops(y, stack) -> int:
    """Multiply-adds x 2 of one pass of ``stack`` over the 2-D field ``y``."""
    sites = int(np.prod(np.shape(y)))
    return sum(2 * int(np.prod(w.shape)) * sites for w in stack.layers)


def _matvec_bytes(mat) -> int:
    """Bytes one CSR mat-vec must move: the matrix, the input, the output."""
    n_rows, n_cols = mat.shape
    return (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
            + 8 * (n_rows + n_cols))


class _TracedMatrix:
    """Sparse matrix proxy: ``@`` and ``.T @`` become spans, all else passes."""

    def __init__(self, mat, tracer: "Tracer", name: str, t_name: str):
        self._mat = mat
        self._tracer = tracer
        self._name = name
        self._t_name = t_name

    def __matmul__(self, other):
        return self._tracer.call(self._name, operator.matmul, self._mat, other)

    @property
    def T(self):
        return _TracedMatrix(self._mat.T, self._tracer, self._t_name, self._name)

    def __getattr__(self, attr):
        return getattr(self._mat, attr)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters = {"regularizer.conv.flops_computed": 0,
                         "tomo.system_matrix.nnz": 0, "tomo.A.bytes": 0}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.starts[idx] = t0 - self._t0
            self.ends[idx] = t1 - self._t0

    def _wrap(self, name, fn):
        if name == "tomo.system_matrix":
            def body(*args, **kwargs):
                mat = fn(*args, **kwargs)
                self.counters["tomo.system_matrix.nnz"] = max(
                    self.counters["tomo.system_matrix.nnz"], int(mat.nnz))
                self.counters["tomo.A.bytes"] = _matvec_bytes(mat)
                return _TracedMatrix(mat, self, "tomo.A", "tomo.AT")
        elif name in CONV_PASSES:
            def body(y, stack, *args, **kwargs):
                self.counters["regularizer.conv.flops_computed"] += _conv_flops(y, stack)
                return fn(y, stack, *args, **kwargs)
        else:
            body = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, body, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Swap the public functions of the traced modules for wrappers."""
        import dualct.cli  # noqa: F401  (imports every traced module)

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "dualct" or n.startswith("dualct.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"dualct.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for ns, bound, fn in reversed(self._patched):
            setattr(ns, bound, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans and counters as one JSON object."""
        with open(str(path), "w") as fh:
            json.dump({"names": self.names, "parents": self.parents,
                       "starts": self.starts, "ends": self.ends,
                       "counters": self.counters}, fh)


def _quantile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _solver_metrics(trace: dict, branches: list[str]) -> dict:
    """Per-iteration numbers from the trace that holds ``solver.run``.

    Iteration k runs from the start of its ``candidate_step`` to the start
    of the next one (the last one to the end of ``solver.run``), so each
    iteration includes the objective value that opens the next.
    """
    names, parents = trace["names"], trace["parents"]
    starts, ends = trace["starts"], trace["ends"]
    in_run = [False] * len(names)
    in_lip = [False] * len(names)
    run_idx = -1
    for i, name in enumerate(names):
        p = parents[i]
        in_run[i] = name == "solver.run" or (p >= 0 and in_run[p])
        in_lip[i] = name in LIPSCHITZ_SPANS or (p >= 0 and in_lip[p])
        if name == "solver.run" and run_idx < 0:
            run_idx = i
    if run_idx < 0:
        return {}
    bounds = [starts[i] for i, n in enumerate(names)
              if n == "solver.candidate_step" and parents[i] == run_idx]
    bounds.append(ends[run_idx])
    n_iter = len(bounds) - 1
    a_per = np.zeros(max(n_iter, 0), dtype=int)
    at_per = np.zeros(max(n_iter, 0), dtype=int)
    a_total = at_total = 0
    for i, name in enumerate(names):
        if name not in ("tomo.A", "tomo.AT") or not in_run[i] or in_lip[i]:
            continue
        k = int(np.searchsorted(bounds, starts[i], side="right")) - 1
        if name == "tomo.A":
            a_total += 1
            if 0 <= k < n_iter:
                a_per[k] += 1
        else:
            at_total += 1
            if 0 <= k < n_iter:
                at_per[k] += 1
    iters = max(len(branches), 1)
    # The last iteration has no following objective value, so it is left out.
    edc = [k for k in range(n_iter - 1) if k < len(branches) and branches[k] == "EDC"]
    iter_ms = np.diff(bounds) * 1e3
    return {
        "tomo.A.per_iter": a_total / iters,
        "tomo.AT.per_iter": at_total / iters,
        "tomo.A.per_edc_iter": float(a_per[edc].mean()) if edc else 0.0,
        "tomo.AT.per_edc_iter": float(at_per[edc].mean()) if edc else 0.0,
        "solver.iter_ms.p50": _quantile(iter_ms, 50),
        "solver.iter_ms.p99": _quantile(iter_ms, 99),
    }


def _span_totals(traces: list[dict]):
    """Per-name call counts, total time and self time over all traces."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for tr in traces:
        names, parents = tr["names"], tr["parents"]
        dur = np.asarray(tr["ends"]) - np.asarray(tr["starts"])
        child = np.zeros(len(names))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + float(dur[i])
            self_time[name] = self_time.get(name, 0.0) + float(dur[i] - child[i])
    return calls, total, self_time


def layer_metrics(process_traces: dict[str, dict], branches: list[str],
                  backtracks: int, eps_reductions: int) -> dict[str, float]:
    """The per-layer metrics (name -> value) of one traced repetition.

    ``process_traces`` maps each process of the repetition (a CLI stage name
    for CLI runs) to its dump; ``branches`` is the solver's per-iteration
    branch list.
    """
    traces = list(process_traces.values())
    calls, total, self_time = _span_totals(traces)
    counters: dict[str, int] = {}
    for tr in traces:
        for key, val in tr["counters"].items():
            if key == "regularizer.conv.flops_computed":
                counters[key] = counters.get(key, 0) + val
            else:
                counters[key] = max(counters.get(key, 0), val)

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    def layer_self(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix))

    iters = len(branches)
    out = {
        "tomo.A.calls": n("tomo.A"), "tomo.AT.calls": n("tomo.AT"),
        "tomo.A.s": s("tomo.A"), "tomo.AT.s": s("tomo.AT"),
        "tomo.A.gbs_computed": (n("tomo.A") * counters.get("tomo.A.bytes", 0)
                                / s("tomo.A") / 1e9) if s("tomo.A") > 0 else 0.0,
        "tomo.system_matrix.s": s("tomo.system_matrix"),
        "tomo.system_matrix.nnz": counters.get("tomo.system_matrix.nnz", 0),
        "tomo.upsample.s": s("tomo.upsample_sinogram_linear"),
        "tomo.fbp.s": s("tomo.fbp_reconstruct"),
        "regularizer.conv.flops_computed":
            counters.get("regularizer.conv.flops_computed", 0),
        "objective.grad_f_x.calls": n("objective.grad_f_x"),
        "objective.grad_f_z.calls": n("objective.grad_f_z"),
        "objective.self_s": layer_self("objective."),
        "solver.edc_accept_ratio":
            (sum(b == "EDC" for b in branches) / iters) if iters else 0.0,
        "solver.backtracks": backtracks,
        "solver.eps_reductions": eps_reductions,
        "solver.candidate_step.s": s("solver.candidate_step"),
        "solver.edc_check.s": s("solver.edc_check"),
        "solver.bcd_safeguard.s": s("solver.bcd_safeguard"),
        "solver.self_s": layer_self("solver."),
        "simdata.make_phantom.s": s("simdata.make_phantom"),
        "simdata.simulate_measurement.s": s("simdata.simulate_measurement"),
        "simdata.initialize.s": s("simdata.initialize"),
        "metrics.report.s": s("metrics.report"),
    }
    for name in ("regularizer.lipschitz_estimate", "regularizer.feature_jvp",
                 "regularizer.smoothed_value", "regularizer.smoothed_grad",
                 "objective.phi_eps", "objective.grad_phi_eps",
                 "objective.block_lipschitz", "objective.composite_lipschitz"):
        out[f"{name}.calls"] = n(name)
        out[f"{name}.s"] = s(name)
    out["regularizer.feature_forward.s"] = s("regularizer.feature_forward")
    out["regularizer.feature_vjp.s"] = s("regularizer.feature_vjp")

    solver_trace = next((tr for tr in traces if "solver.run" in tr["names"]), None)
    per_iter = _solver_metrics(solver_trace, branches) if solver_trace else {}
    for key in ("tomo.A.per_iter", "tomo.AT.per_iter", "tomo.A.per_edc_iter",
                "tomo.AT.per_edc_iter", "solver.iter_ms.p50", "solver.iter_ms.p99"):
        out[key] = per_iter.get(key, 0.0)

    for stage in ("phantom", "simulate", "init", "fbp", "reconstruct", "metrics"):
        tr = process_traces.get(stage)
        out[f"cli.{stage}.s"] = _span_totals([tr])[1].get("cli.main", 0.0) if tr else 0.0
    return out
