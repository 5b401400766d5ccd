"""fieldosc benchmark: time to a verified verdict, per scenario family.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload's scenario
files from the seed, then starts a fresh worker process (worker.py) with
`src/` on the path and BLAS/OpenMP pinned to one thread, times its set-up,
and collects its passes, set-up probes and reference-loop timings.
The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the `end_to_end` metrics of BENCHMARK.json when `--trace 0` and its
`per_layer` metrics when `--trace 1`.  The line before it holds the run's
stamps (nproc, versions, commit, seed, thread settings) and sample counts.
Exits non-zero without a result when the checkout lacks the program or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (start to `ready`)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py")), *args],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up: {line.strip() or 'no output'}")
    return proc, setup


def finish_worker(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "fieldosc" / "cli.py").exists():
        print("error: src/fieldosc/cli.py not found; run from a source checkout", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.write_configs(wl.name, args.seed, work / "cfg")
        worker_args = ["--configs", str(work / "cfg"), "--out", str(work / "out"),
                       "--threads", str(wl.threads),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if wl.check_only:
            worker_args.append("--check-only")
        proc, setup = start_worker(worker_args)
        result = json.loads(finish_worker(proc).strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Timings are normalised by the reference loop (see passes.py): other
    # tenants of the host slow everything by up to 1.8x for seconds to
    # minutes, and the reference loop timed next to each sample tracks that.
    verdicts = sorted(statistics.median(t) for t in result["latencies_ref"].values())
    pooled = [t for times in result["latencies_ref"].values() for t in times]
    setups_ref = [setup * result["setup_scale"]] + result["setups_ref"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["layers"]
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups_ref),
            "wall_s": statistics.median(result["walls_ref"]),
            "verdict_p50_s": statistics.median(verdicts),
            "verdict_max_s": verdicts[-1],
            "peak_rss_mb": result["peak_rss_mb"],
            "check_pass_ratio": (attempted - failed) / attempted,
            "min_margin_decades": result["min_margin_decades"],
        }
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1

    stamps = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "commit": git_commit(ROOT),
        "blas_threads": BLAS_THREADS,
        "pool_threads": wl.threads,
        "pass_walls_s": result["walls"],
        "setup_samples_s": [setup] + result["setups"],
        "reference_loop_s": result["reference_loop_s"],
        "scenario_latency_samples": len(pooled),
        "scenario_latency_p50_p90_ref_s": statistics.quantiles(pooled, n=10)[4::4],
        "failures": result["failures"],
    }
    if args.trace:
        stamps["traced_pass_walls_s"] = result["traced_walls"]
        stamps["untraced_layers"] = result["untraced_missing"]
    print(json.dumps({"stamps": stamps}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
