"""The measured part of a benchmark process: checked passes of `fieldosc run`.

worker.py imports this module only after set-up, so that set-up time is
the program's import and parsing and none of the harness's own imports.
`measure` runs an untimed, checked warm-up pass and timed passes through
`cli.main` until the time is up, with a set-up probe after each of the
first passes and `reference_loop` timed between all of them.

Every pass is checked: exit status 0, every check passed, the set of
artifact files and their row counts as each mode promises, and artifact
sha256 equal to the warm-up pass, which runs with `--threads 1` (so on
floquet-sweep the timed `--threads 2` passes must match a one-thread run).
Failures are counted, never fatal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# Set-up-only copies of this process started per run; they run between
# passes, so that a burst of load from other processes on the host does not
# cover every sample.
SETUP_PROBES = 5

# Repetitions of the reference loop per timing of it (see reference_loop).
LOOP_REPS = 8

# Fixed normaliser of the timings: each is reported as
# t * REFERENCE_S / (mean time of the `reference_loop` runs just before and
# after t), that is, in units of the loop's time.  The value is of the
# order of the loop's time on the reference host (Intel Xeon vCPU at
# 2.0 GHz, Python 3.11.7, numpy 2.4.6), which ranges from 0.030 s when
# idle to over 0.1 s under load; it is a constant, so it scales every run
# alike and does not enter comparisons.
REFERENCE_S = 0.034

# Margin assigned to a check whose defect is exactly 0, and the floor for
# a failed or non-finite one, in decades of tolerance/defect.
MARGIN_CAP = 20.0


def expected_artifacts(sc) -> dict:
    """Artifact file name -> data rows (None: any), as each mode writes."""
    p, n = sc.params, sc.name
    if sc.mode == "classical-equivalence":
        return {f"{n}_trajectory.csv": 1001, f"{n}_phase.csv": None}
    if sc.mode == "quantum-pipeline":
        return {f"{n}_wavefunction.csv": p["grid_n"] ** 2}
    if sc.mode == "hill-stability":
        return {f"{n}_stability.csv": p["a_count"] * p["q_count"]}
    suffix, rows = {
        "eigenstate-expansion": ("coefficients", None),
        "case1": ("rotation", 33),
        "case2": ("stiffness", 33),
    }[sc.mode]
    return {f"{n}_{suffix}.csv": rows}


def margin_decades(defect: float, tolerance: float) -> float:
    if not (defect <= tolerance):  # failed or NaN
        if math.isfinite(defect) and defect > 0:
            return max(-MARGIN_CAP, math.log10(tolerance / defect))
        return -MARGIN_CAP
    if defect == 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tolerance / defect))


def digest_and_lines(path: Path) -> tuple[str, int]:
    """sha256 and newline count of a file, read in 1 MiB chunks so that the
    check adds no memory that grows with the artifact to the peak RSS."""
    digest, lines = hashlib.sha256(), 0
    with path.open("rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def _loop_once(_=None) -> None:
    a, x = 0.5 * np.eye(6), np.ones(6)
    for _ in range(6000):
        x = a @ x + 0.1 * np.sin(x)
    total = 0
    for i in range(400000):
        total += i & 7


def reference_loop(threads: int) -> float:
    """Time a fixed piece of work that shares no code with fieldosc: small
    numpy calls and plain arithmetic in Python loops, the interpreter-bound
    work that most of every workload is.  Load from other processes on the
    host slows it as it slows the passes.  It runs on as many threads as
    the passes do, because the load differs between CPUs.  Returns the time
    per repetition, over LOOP_REPS of them: one takes about 30 ms, and the
    load changes within a second, so a single one samples it poorly."""
    started = time.perf_counter()
    if threads == 1:  # on the thread that runs the passes' main thread
        for _ in range(LOOP_REPS):
            _loop_once()
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_loop_once, range(LOOP_REPS)))
    return (time.perf_counter() - started) / LOOP_REPS


class Passes:
    """Runs and checks passes, keeping per-scenario latencies and reports."""

    def __init__(self, cli, configs, scenarios, out_root: Path, check_only: bool):
        self.cli = cli
        self.configs = [str(c) for c in configs]
        self.expected = {}
        for sc in scenarios:
            self.expected.update(expected_artifacts(sc))
        self.out_root = out_root
        self.check_only = check_only
        self.tracer = None
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.min_margin = MARGIN_CAP
        self._reports: list = []
        self._run = cli.run
        cli.run = self._timed_run  # main() looks `run` up at call time

    def _timed_run(self, scenario, *args, **kwargs):
        span = self.tracer.open("cli.run") if self.tracer else None
        started = time.perf_counter()
        try:
            report = self._run(scenario, *args, **kwargs)
        except Exception as exc:  # a raising scenario is a failed verdict
            report = self.cli.RunReport(
                scenario=scenario.name,
                checks=[self.cli.CheckResult(f"raised {type(exc).__name__}: {exc}", math.inf, 0.0)],
            )
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                self.tracer.close(span)
        self._reports.append((elapsed, report))
        return report

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def run(self, threads: int) -> tuple[float, dict]:
        """One checked pass; returns its wall time and each scenario's
        `cli.run` latency."""
        out = self.out_root / "pass"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", *self.configs, "--out-dir", str(out), "--threads", str(threads)]
        if self.check_only:
            argv.append("--check-only")
        self._reports = []
        sink = io.StringIO()
        span = self.tracer.open("pass") if self.tracer else None
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            status = self.cli.main(argv)
        wall = time.perf_counter() - started
        if span is not None:
            self.tracer.close(span)

        self.attempted += 1
        if status != 0:
            self._fail(f"exit status {status}")
        latencies = {}
        for elapsed, report in self._reports:
            latencies[report.scenario] = elapsed
            for check in report.checks:
                self.attempted += 1
                if not check.passed:
                    self._fail(f"{report.scenario}: {check.name} defect {check.defect} > {check.tolerance}")
                self.min_margin = min(self.min_margin, margin_decades(check.defect, check.tolerance))
        self._check_artifacts(out)
        return wall, latencies

    def _check_artifacts(self, out: Path) -> None:
        expected = {} if self.check_only else self.expected
        found = {p.name: p for p in out.iterdir()} if out.is_dir() else {}
        self.attempted += 1
        if set(found) != set(expected):
            self._fail(f"artifacts {sorted(found)} != {sorted(expected)}")
        digests = {}
        for name, path in found.items():
            digests[name], lines = digest_and_lines(path)
            rows = expected.get(name)
            if rows is not None:
                self.attempted += 1
                written = lines - 1  # minus the header line
                if written != rows:
                    self._fail(f"{name}: {written} rows, expected {rows}")
        if self.reference is None:
            self.reference = digests
        else:
            self.attempted += 1
            if digests != self.reference:
                self._fail("artifact sha256 differs from the warm-up pass")


def measure(cli, configs, scenarios, args) -> dict:
    """Run the warm-up and timed passes; return the raw result of the run."""
    passes = Passes(cli, configs, scenarios, args.out, args.check_only)
    passes.run(1)

    def probe() -> float:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *sys.argv, "--setup-only"],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line.strip() or proc.returncode}")
        return elapsed

    # Each sample is kept with its position among the reference-loop
    # timings: a sample at position k ran between loops[k - 1] and loops[k].
    loops = [reference_loop(args.threads)]
    setups, timed, traced_walls = [], [], []
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        # With tracing, untraced and traced passes alternate, so that their
        # ratio is the tracing overhead under the same machine conditions.
        traced = tracer is not None and len(traced_walls) < len(timed)
        if traced:
            tracer.install()
            passes.tracer = tracer
        try:
            wall, latencies = passes.run(args.threads)
        finally:
            if traced:
                tracer.uninstall()
                passes.tracer = None
        (traced_walls if traced else timed).append((wall, latencies, len(loops)))
        if len(setups) < SETUP_PROBES:
            setups.append((probe(), len(loops)))
        loops.append(reference_loop(args.threads))
        if time.perf_counter() >= deadline and (tracer is None or traced_walls):
            break
    while len(setups) < SETUP_PROBES:
        setups.append((probe(), len(loops)))
        loops.append(reference_loop(args.threads))

    def scale(k: int) -> float:
        """Normalised seconds per raw second for a sample at position k."""
        return REFERENCE_S / statistics.fmean(loops[max(0, k - 1): k + 1])

    latencies_ref: dict[str, list[float]] = {}
    for _, latencies, k in timed:
        for name, latency in latencies.items():
            latencies_ref.setdefault(name, []).append(latency * scale(k))
    walls_ref = [wall * scale(k) for wall, _, k in timed]

    result = {
        "walls": [wall for wall, _, _ in timed],
        "walls_ref": walls_ref,
        "latencies_ref": latencies_ref,
        "setups": [setup for setup, _ in setups],
        "setups_ref": [setup * scale(k) for setup, k in setups],
        "setup_scale": scale(0),
        "reference_loop_s": loops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "failures": passes.failures,
        "min_margin_decades": passes.min_margin,
        "numpy": np.__version__,
    }
    if tracer is not None:
        from spans import layer_metrics

        result["traced_walls"] = [wall for wall, _, _ in traced_walls]
        result["untraced_missing"] = tracer.missing
        overhead = (statistics.median(wall * scale(k) for wall, _, k in traced_walls)
                    / statistics.median(walls_ref))
        result["layers"] = layer_metrics(tracer, cli.MODES, result["traced_walls"], overhead)
    return result
