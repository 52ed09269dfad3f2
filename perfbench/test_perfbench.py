"""Self-test of the benchmark on the 16x16 variants of its workloads.

    python3 -m pytest -q perfbench

Runs the benchmark command end to end and pins the deterministic counts of
the unchanged solver. A change that moves a pinned count updates the pin and
says so in CHANGES.md.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import recon_digests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts of the tiny tv64 workload at seed 0 on the unchanged solver.
TV_TINY_ITERS = 765
TV_TINY_EDC_RATIO = 1.0
TV_TINY_EPS_REDUCTIONS = 11
A_PER_EDC_ITER = 9
AT_PER_EDC_ITER = 3


def bench(workload, trace, cwd=ROOT, seed=0):
    proc = subprocess.run(
        [sys.executable, SPEC["command"][1], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return {k: v["value"] for k, v in res["metrics"].items()}, res["metrics"]


def test_workloads_match_spec():
    assert ({name: wl.why for name, wl in workloads.WORKLOADS.items()}
            == {w["name"]: w["why"] for w in SPEC["workloads"]})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    values, metrics = result(workload, 0)
    assert {k: m["unit"] for k, m in metrics.items()} == END_TO_END
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, metrics = result(workload, 1)
    assert {k: m["unit"] for k, m in metrics.items()} == PER_LAYER


def test_tv_counts_are_pinned_and_repeat():
    first, _ = result("tv64", 1)
    assert first["tomo.A.per_edc_iter"] == A_PER_EDC_ITER
    assert first["tomo.AT.per_edc_iter"] == AT_PER_EDC_ITER
    assert first["solver.edc_accept_ratio"] == TV_TINY_EDC_RATIO
    assert first["solver.eps_reductions"] == TV_TINY_EPS_REDUCTIONS
    second, metrics = result("tv64", 1)
    counts = [k for k, m in metrics.items() if m["unit"] in ("count", "1/iter", "flop")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    e2e, _ = result("tv64", 0)
    assert e2e["iters"] == TV_TINY_ITERS


GOOD_PHI = [(2.0, 1.5), (1.5, 1.5)]
GOOD_ARRAYS = [[0.0, 1.0], [2.0]]


@pytest.mark.parametrize("phi, arrays, psnr_db, reported", [
    (GOOD_PHI, GOOD_ARRAYS, 20.0, []),
    ([(2.0, 1.5), (1.5, 1.6)], GOOD_ARRAYS, 20.0, ["objective increased"]),
    (GOOD_PHI, [[0.0, float("nan")], [2.0]], 20.0, ["non-finite output"]),
    (GOOD_PHI, GOOD_ARRAYS, float("nan"), ["non-finite output", "recon PSNR"]),
    (GOOD_PHI, GOOD_ARRAYS, 12.9, ["recon PSNR"]),
])
def test_output_checks_report_each_failure(phi, arrays, psnr_db, reported):
    failed = workloads.output_checks(phi, [np.asarray(a) for a in arrays],
                                     psnr_db, fbp_psnr_db=10.0)
    assert len(failed) == len(reported)
    assert all(msg.startswith(prefix) for msg, prefix in zip(failed, reported))


def test_differing_recon_bytes_are_reported():
    same = [{"ok": True, "recon_sha256": "aa"}, {"ok": True, "recon_sha256": "aa"}]
    assert recon_digests(same) == ["aa"]
    differ = same + [{"ok": True, "recon_sha256": "bb"}]
    assert recon_digests(differ) == ["aa", "bb"]


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("tv64", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
