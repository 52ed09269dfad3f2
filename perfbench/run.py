"""dualct benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload tv64 --seed 0 --seconds 36 --trace 0

Run from the repository root; dualct is imported from ``src/``. Every
repetition is a fresh process (one per CLI stage for ``pipeline128``), so the
per-process system-matrix cache starts cold as it does for users. The load is
a closed loop: one repetition at a time, each started when the last ended.

``--trace 0`` runs repetitions for about ``--seconds`` (at least MIN_REPS)
and reports the median of each end-to-end metric over them. ``setup_s`` and
``total_s`` are timed from the start of the (first) process, imports
included: cold start as a user meets it. ``--trace 1`` runs one untraced and one traced repetition
and reports the per-layer metrics of the traced one, which must produce the
same reconstruction bytes.

Human-readable lines (each metric with its unit and sample count, the error
rate, the environment) come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Working files go to ``.perfbench_work/<workload>/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
MIN_REPS = 2
RUN_LIMIT_S = 170.0   # a run must end within 180 s: children alive past this are killed

# Metric names and units are those of BENCHMARK.json next to this directory.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
CLI_STAGES = ("phantom", "simulate", "init", "fbp", "reconstruct", "metrics")
SETUP_STAGES = CLI_STAGES[:3]


def clock() -> float:
    """System-wide monotonic time, comparable with the workers' timestamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(root),
    }


class Bench:
    """Runs repetitions of one workload at one seed in fresh processes."""

    def __init__(self, root: Path, work: Path, wl: workloads.Workload, seed: int,
                 tiny: bool):
        self.root, self.work, self.wl, self.seed, self.tiny = root, work, wl, seed, tiny
        self.start = time.perf_counter()
        self.n_reps = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def _proc(self, cmd, log: Path):
        """Run one child to completion: (exit code, wall s, peak RSS MB)."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.start))
        t0 = clock()
        with open(log, "ab") as fh:
            proc = subprocess.Popen([str(c) for c in cmd], cwd=self.root, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def rep(self, trace: bool = False) -> dict:
        """One repetition; the result has ``ok`` and ``wall_s``, and an
        ``error`` when it failed."""
        self.n_reps += 1
        rep_dir = self.work / f"rep{self.n_reps}"
        rep_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        run = self._cli_rep if self.wl.kind == "cli" else self._library_rep
        try:
            res = run(rep_dir, trace)
        except (OSError, ValueError, KeyError) as exc:
            res = {"error": f"{type(exc).__name__}: {exc}"}
        if not res.get("error") and res.get("failed_checks"):
            res["error"] = "; ".join(res["failed_checks"])
        res["ok"] = not res.get("error")
        res["wall_s"] = time.perf_counter() - t0
        return res

    def _library_rep(self, rep_dir: Path, trace: bool) -> dict:
        out = rep_dir / "result.json"
        spans = rep_dir / "spans.json"
        cmd = [sys.executable, HERE / "worker.py", "--workload", self.wl.name,
               "--seed", self.seed, "--out", out]
        cmd += ["--trace", spans] if trace else []
        cmd += ["--tiny"] if self.tiny else []
        start = clock()
        code, _, _ = self._proc(cmd, rep_dir / "log.txt")
        if code != 0:
            return {"error": f"worker exited with {code} (see {rep_dir / 'log.txt'})"}
        res = json.loads(out.read_text())
        res["setup_s"] = res.pop("setup_end") - start
        res["total_s"] = res.pop("done") - start
        if trace:
            res["layers"] = layer_metrics({"worker": json.loads(spans.read_text())},
                                          res["branches"], res["backtracks"],
                                          res["eps_reductions"])
            res["layers"]["io.bytes_written"] = 0
        return res

    def _cli_rep(self, rep_dir: Path, trace: bool) -> dict:
        import numpy as np

        out = rep_dir / "out"
        config = rep_dir / "run.yaml"
        # JSON is valid YAML, so the config needs no YAML writer here.
        config.write_text(json.dumps(workloads.cli_config(self.wl, self.seed, str(out))))
        stages = {s: [s, "--config", config] for s in CLI_STAGES[:5]}
        stages["metrics"] = ["metrics", "--test", out / "recon.f64",
                             "--ref", out / "phantom.f64", "--out", out / "metrics.json"]
        walls, rss, traces = {}, 0.0, {}
        for stage, argv in stages.items():
            spans = rep_dir / f"spans_{stage}.json"
            prefix = ([HERE / "stage.py", spans] if trace else ["-m", "dualct.cli"])
            code, walls[stage], peak = self._proc([sys.executable, *prefix, *argv],
                                                  rep_dir / "log.txt")
            if code != 0:
                return {"error": f"stage {stage} exited with {code} "
                                 f"(see {rep_dir / 'log.txt'})"}
            rss = max(rss, peak)
            if trace:
                traces[stage] = json.loads(spans.read_text())

        def load(name):
            return np.fromfile(out / name, dtype="<f8")

        from dualct.metrics import psnr

        shape = (self.wl.n, self.wl.n)
        truth = load("phantom.f64").reshape(shape)
        fbp_psnr = psnr(load("fbp.f64").reshape(shape), truth)
        log = json.loads((out / "iterations.json").read_text())["iterations"]
        report = json.loads((out / "metrics.json").read_text())
        x_bytes = (out / "recon.f64").read_bytes()
        res = {
            "setup_s": sum(walls[s] for s in SETUP_STAGES),
            "solve_s": walls["reconstruct"],
            "total_s": sum(walls.values()),
            "iters": len(log),
            "recon_psnr_db": float(report["psnr_db"]),
            "recon_ssim": report["ssim"],
            "fbp_psnr_db": fbp_psnr,
            "peak_rss_mb": rss,
            "recon_sha256": hashlib.sha256(x_bytes).hexdigest(),
            "failed_checks": workloads.output_checks(
                [(r["phi_before"], r["phi_after"]) for r in log],
                [np.frombuffer(x_bytes, dtype="<f8"), load("recon_sino.f64")],
                float(report["psnr_db"]), fbp_psnr),
        }
        if trace:
            branches = [r["branch"] for r in log]
            res["layers"] = layer_metrics(
                traces, branches, sum(r["backtracks"] for r in log),
                sum(bool(r["eps_reduced"]) for r in log))
            res["layers"]["io.bytes_written"] = sum(
                f.stat().st_size for f in out.iterdir() if f.is_file())
        return res


def timed_run(bench: Bench, seconds: float):
    """Repetitions for about ``seconds``; the median of each metric."""
    deadline = bench.start + seconds
    reps = []
    while (len(reps) < MIN_REPS
           or time.perf_counter() + statistics.median(r["wall_s"] for r in reps)
           <= deadline):
        reps.append(bench.rep())

    good = [r for r in reps if r["ok"]]
    metrics, samples = {}, {}
    if good:
        values = {key: [r[key] for r in good]
                  for key in ("setup_s", "solve_s", "total_s", "iters", "recon_psnr_db",
                              "recon_ssim", "peak_rss_mb")}
        values["ms_per_iter"] = [1e3 * r["solve_s"] / r["iters"] for r in good]
        for key, unit in END_TO_END_UNITS.items():
            metrics[key] = {"value": statistics.median(values[key]), "unit": unit}
            samples[key] = len(values[key])
    return reps, metrics, samples


def traced_run(bench: Bench):
    """One untraced and one traced repetition; per-layer metrics of the second."""
    plain = bench.rep()
    traced = bench.rep(trace=True)
    reps = [plain, traced]
    metrics = {}
    if plain["ok"] and traced["ok"]:
        layers = dict(traced["layers"])
        layers["tracer.overhead"] = traced["solve_s"] / plain["solve_s"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    return reps, metrics, {k: 1 for k in metrics}


def recon_digests(reps: list[dict]) -> list[str]:
    """Distinct recon.f64 sha256 digests of the successful repetitions; a
    correct set of runs has exactly one."""
    return sorted({r["recon_sha256"] for r in reps if r["ok"] and "recon_sha256" in r})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="16x16 variant of the workload (self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "dualct" / "__init__.py").is_file():
        print("perfbench: src/dualct not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.get(args.workload, args.tiny)
    bench = Bench(root, work, wl, args.seed, args.tiny)
    if args.trace:
        reps, metrics, samples = traced_run(bench)
    else:
        reps, metrics, samples = timed_run(bench, args.seconds)

    failed = [r for r in reps if not r["ok"]]
    digests = recon_digests(reps)
    correct = not failed and len(digests) == 1 and bool(metrics)
    env = dict(environment(root), seed=args.seed,
               repetitions=len(reps), samples=samples)
    record = {"workload": wl.name, "why": wl.why, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "environment": env,
              "error_rate": len(failed) / len(reps),
              "recon_sha256": digests, "metrics": metrics,
              "errors": [r["error"] for r in failed],
              "repetitions": [{k: v for k, v in r.items() if k not in ("layers", "branches")}
                              for r in reps]}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): {wl.why}")
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:>16.6g} {m['unit']:8s} (n={samples[key]})")
    print(f"  {'error_rate':36s} {record['error_rate']:>16.6g} ratio    "
          f"({len(failed)} of {len(reps)} repetitions failed)")
    for err in record["errors"]:
        print(f"  error: {err}")
    if len(digests) > 1:
        print("  error: repetitions produced different recon.f64 bytes")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
