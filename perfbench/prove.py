"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/prove.py [--out perfbench/baseline/seed.json]

Run from the repository root. For every workload it makes one untraced run
for each of the seeds 0 to SEEDS-1 and one traced run at seed 0, then prints, for each
end-to-end metric, the median over seeds and the spread: the distance
between the first and third quartiles as a share of the median. A spread
under a third of the metric's bound counts as steady. ``--out`` writes every
run and the summary as JSON, which serves as a recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = 10
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, SPEC["command"][1], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    env = next((ln for ln in lines if ln.startswith("environment ")), None)
    res["environment"] = json.loads(env[len("environment "):]) if env else {}
    return res


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    steady = True
    for wl in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(SEEDS):
            res = bench(wl, seed, 0)
            runs.append(dict(res, seed=seed))
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        entry = {"runs": runs, "median": {}, "spread": {}}
        print(f"{wl}: {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["median"][name] = statistics.median(values)
            entry["spread"][name] = spread(values)
            ok = entry["spread"][name] < bound / 3
            steady &= ok
            print(f"{wl}: {name:16s} {entry['median'][name]:12.6g} "
                  f"{entry['spread'][name]:8.4f} {bound:6.3f} {'' if ok else 'NOT STEADY'}")
        entry["all_correct"] = all(r["correct"] for r in runs)
        steady &= entry["all_correct"]
        entry["trace"] = dict(bench(wl, 0, 1), seed=0)
        steady &= entry["trace"]["correct"]
        summary["workloads"][wl] = entry
    summary["steady"] = steady
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
