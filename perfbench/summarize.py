"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py --seeds 1-10 [--out FILE]

For every workload and end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json; a
spread above a third of the bound is flagged.  One traced run per workload,
on the first seed, adds the per-layer metrics.  With `--out` it writes the
runs' stamps and the summary as JSON (the recorded baseline).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamps"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seed_list(args.seeds)]
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [result["metrics"][name]["value"] for _, result in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            flag = "" if spread <= bound / 3 else "  <-- above bound/3"
            print(f"{workload:17s} {name:20s} median {median:10.5g}  spread {spread:7.4f}"
                  f"  bound {bound:5.3f}{flag}", flush=True)
        traced_stamps, traced = run_once(workload, seed_list(args.seeds)[0], spec["run_seconds"], 1)
        correct = traced["correct"] and all(result["correct"] for _, result in runs)
        print(f"{workload:17s} all correct: {correct}", flush=True)
        summary[workload] = {
            "correct": correct,
            "stamps": [s for s, _ in runs],
            "metrics": rows,
            "traced_run": {"stamps": traced_stamps,
                           "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
