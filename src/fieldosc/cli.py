"""Scenario-driven command-line front end.

Scenario files are flat ``key = value`` text (UTF-8, ``#`` comments).
Every scenario names a ``mode``; remaining keys are validated against the
mode's schema (unknown keys, bad types, and missing required keys are
reported with the offending key and line).  ``run`` executes each
scenario's pipeline, evaluates the module invariants as named checks, and
writes plot-ready CSV artifacts.  Exit status: 0 if every check of every
scenario passes, 1 if a check fails, 2 for a bad scenario file, and 3 if a
scenario raised (it gets a failed ``error`` line; the others still run).

CSV artifacts use a one-line header, '.' decimals, and 17-significant-
digit scientific notation so repeated runs are byte-identical.

Example scenario::

    name    = demo
    mode    = classical-equivalence
    b3      = 2.0
    e_field = 0.0, 0.1, 0.0
    z0      = 0.1, 0.0, 0.2, 0.0, 0.0, 0.3
    horizon = 4.0
    dt      = 1e-3
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .core import OscParams, block_propagate_path, cross_matrix, rk4_steps, stage_memo
from .classical import (
    StaticField,
    equivalence_report,
    forced_path,
    frame_rotation,
    moving_origin_map,
    symplectic_defect,
)
from .quantum import (
    EigenLabel,
    Grid,
    check_shift_support,
    driven_hamiltonian,
    gaussian_wavepacket,
    oscillator_energy,
    oscillator_hamiltonian,
    planar_field_hamiltonian,
    rotated_product_coefficients,
    split_step_evolve,
    unitary_moving_origin,
    unitary_rotation,
    WaveFunction,
)
from .tdfields import (
    FixedAxisField,
    RotatingField,
    accumulated_rotation,
    coriolis_elimination,
    corotating_reduction,
    frame_conjugation_defect,
    hill_monodromy,
    mathieu_hill,
    mathieu_omega_sq,
    stability_map,
)

__all__ = [
    "Scenario",
    "CheckResult",
    "RunReport",
    "ScenarioError",
    "parse_scenario",
    "run",
    "wavefunction_rows",
    "main",
]

MODES = (
    "classical-equivalence",
    "quantum-pipeline",
    "eigenstate-expansion",
    "hill-stability",
    "case1",
    "case2",
)


class ScenarioError(ValueError):
    """Config problem, carrying the offending file/line/key."""


@dataclass
class Scenario:
    name: str
    mode: str
    params: dict


@dataclass(frozen=True)
class CheckResult:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


@dataclass
class RunReport:
    scenario: str
    checks: list
    wall_time: float = 0.0
    artifacts: list = dataclass_field(default_factory=list)
    error: str | None = None  # "Type: message" of an exception the run raised

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)


# ----------------------------------------------------------------------
# scenario parsing
# ----------------------------------------------------------------------


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_vec(n: int):
    def parse(text: str):
        parts = [p for p in text.replace(",", " ").split() if p]
        if len(parts) != n:
            raise ValueError(f"expected {n} comma-separated numbers")
        return tuple(_finite(p) for p in parts)

    return parse


def _positive(value):
    if not (value > 0):
        raise ValueError("must be positive")


def _non_negative(value):
    if not (value >= 0):
        raise ValueError("must be non-negative")


def _planar_field(value):
    if value[2] != 0.0:
        raise ValueError("axial electric field is not supported on the planar grid")


# key -> (parser, default or REQUIRED, validator or None)
_REQUIRED = object()

_COMMON_SCHEMA = {
    "name": (str, None, None),
    "seed": (int, 0, _non_negative),
}

_SCHEMAS = {
    "classical-equivalence": {
        "b3": (_finite, _REQUIRED, None),
        "e_field": (_parse_vec(3), (0.0, 0.0, 0.0), None),
        "z0": (_parse_vec(6), (0.1, 0.0, 0.2, 0.0, 0.0, 0.1), None),
        "charge": (_finite, 1.0, None),
        "mass": (_finite, 1.0, _positive),
        "horizon": (_finite, 4.0, _positive),
        "dt": (_finite, 1e-3, _positive),
        "deviation_tol": (_finite, 1e-6, _positive),
    },
    "quantum-pipeline": {
        "b3": (_finite, _REQUIRED, None),
        "e_field": (_parse_vec(3), (0.0, 0.0, 0.0), _planar_field),
        "grid_n": (int, 128, lambda n: Grid(dims=2, n=n, half_width=1.0)),
        "grid_x": (_finite, 8.0, _positive),
        "time": (_finite, 1.0, _positive),
        "dt": (_finite, 1e-3, _positive),
        "center": (_parse_vec(2), (0.5, -0.3), None),
        "momentum": (_parse_vec(2), (0.3, 0.1), None),
        "width": (_finite, 0.8, _positive),
        "hbar": (_finite, 1.0, _positive),
        "link_tol": (_finite, 1e-4, _positive),
    },
    "eigenstate-expansion": {
        "theta": (_finite, 0.6, None),
        "max_level": (int, 4, _positive),
    },
    "hill-stability": {
        "a_min": (_finite, 0.2, None),
        "a_max": (_finite, 2.2, None),
        "a_count": (int, 21, _positive),
        "q_min": (_finite, 0.0, None),
        "q_max": (_finite, 0.4, None),
        "q_count": (int, 5, _positive),
        "n_steps": (int, 2048, _positive),
    },
    "case1": {
        "b3_const": (_finite, 1.0, None),
        "b3_cos_amp": (_finite, 0.5, None),
        "b3_cos_freq": (_finite, 1.0, None),
        "charge": (_finite, 1.0, None),
        "mass": (_finite, 1.0, _positive),
        "time": (_finite, 3.0, _positive),
        "ode_steps": (int, 20000, _positive),
    },
    "case2": {
        "b1": (_finite, 0.7, None),
        "b3": (_finite, 1.1, None),
        "alpha": (_finite, 0.9, None),
        "charge": (_finite, 1.0, None),
        "mass": (_finite, 1.0, _positive),
        "samples": (int, 16, _positive),
    },
}


def parse_scenario(path) -> Scenario:
    """Parse and validate a scenario file; diagnostic messages carry the
    file, line number, and offending key."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"{path}: no such scenario file")
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ScenarioError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = (value.strip(), lineno)

    if "mode" not in raw:
        raise ScenarioError(f"{path}: missing required key 'mode'")
    mode, mode_line = raw.pop("mode")
    if mode not in MODES:
        raise ScenarioError(
            f"{path}:{mode_line}: key 'mode': unknown mode '{mode}' "
            f"(expected one of {', '.join(MODES)})"
        )

    schema = dict(_COMMON_SCHEMA)
    schema.update(_SCHEMAS[mode])
    params: dict = {}
    for key, (text, lineno) in raw.items():
        if key not in schema:
            raise ScenarioError(f"{path}:{lineno}: unknown key '{key}' for mode '{mode}'")
        parser, _, validator = schema[key]
        try:
            value = parser(text)
            if validator is not None:
                validator(value)
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(f"{path}:{lineno}: key '{key}': {exc}") from None
        params[key] = value
    for key, (parser, default, validator) in schema.items():
        if key in params:
            continue
        if default is _REQUIRED:
            raise ScenarioError(f"{path}: missing required key '{key}' for mode '{mode}'")
        params[key] = default

    name = params.pop("name") or path.stem
    return Scenario(name=name, mode=mode, params=params)


# ----------------------------------------------------------------------
# CSV artifacts
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    # 17 significant digits: round-trip exact for float64
    if type(value) is float:
        return format(value, ".16e")
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".16e")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def wavefunction_rows(wf: WaveFunction):
    """Rows (x[, y], re, im, abs2) of a wavefunction snapshot, row-major.
    The coordinates come formatted, each once; the amplitudes are Python
    complexes, whose abs2 `abs(v) ** 2` has the bits of numpy's scalar
    one (an overflow reads inf, as numpy's does)."""
    axis = [_fmt(x) for x in wf.grid.axis().tolist()]
    points = itertools.product(axis, repeat=wf.grid.dims)
    for xs, v in zip(points, wf.values.ravel().tolist()):
        try:
            abs2 = abs(v) ** 2
        except OverflowError:
            abs2 = math.inf
        yield (*xs, v.real, v.imag, abs2)


# ----------------------------------------------------------------------
# mode pipelines
# ----------------------------------------------------------------------
# A runner maps a scenario to (checks, {table: (header, rows)}) at unit
# tolerance scale; rows are lazy, so a check-only run computes none; `run`
# scales the tolerances and writes the tables.


def _run_classical(sc: Scenario):
    p = sc.params
    field = StaticField(b3=p["b3"], e=p["e_field"], charge=p["charge"], mass=p["mass"])
    report = equivalence_report(
        field, np.array(p["z0"]), p["horizon"], dt=p["dt"], seed=p["seed"]
    )
    checks = [
        CheckResult("equivalence-deviation", report.max_deviation, p["deviation_tol"]),
        CheckResult("homogeneous-invariant", report.invariant_drift, 1e-10),
        CheckResult("symplectic-rotating-frame", report.symplectic_defect_rotating, 1e-8),
        CheckResult("symplectic-moving-origin", report.symplectic_defect_moving, 1e-8),
    ]
    if all(c == 0.0 for c in p["e_field"]):
        checks.append(CheckResult("phase-vanishes-without-e", report.phase_max_abs, 1e-12))

    def trajectory():
        # the closed-form orbit, rotated back to the lab frame
        params = field.osc_params
        times = np.linspace(0.0, p["horizon"], 1001)
        closed = block_propagate_path(params, np.array(p["z0"]), times)
        in_frame = closed + forced_path(params, field.rotated_drive(), times)
        lab = frame_rotation(field.frame_rate).inverse(times, in_frame)
        yield from ((t, *z) for t, z in zip(times, lab))

    return checks, {
        "trajectory": (["t", "q1", "p1", "q2", "p2", "q3", "p3"], trajectory()),
        "phase": (["t", "action_phase"], zip(report.phase_times, report.phase_values)),
    }


def _run_quantum(sc: Scenario):
    p = sc.params
    field = StaticField(b3=p["b3"], e=p["e_field"])
    params = field.osc_params
    drive = field.rotated_drive()
    grid = Grid(dims=2, n=p["grid_n"], half_width=p["grid_x"])
    psi0 = gaussian_wavepacket(
        grid, center=p["center"], momentum=p["momentum"], width=p["width"], hbar=p["hbar"]
    )
    T, dt = p["time"], p["dt"]
    mover = moving_origin_map(params, drive, 2000)
    # a packet the grid cannot hold fails here, before any evolution
    check_shift_support(psi0, mover.q_nh(T)[:2])

    phi3 = split_step_evolve(psi0, oscillator_hamiltonian(params), T, dt)
    phi2_via = unitary_moving_origin(phi3, T, mover)
    phi2 = split_step_evolve(psi0, driven_hamiltonian(params, drive), T, dt)
    psi1_via = unitary_rotation(phi2, T, field.frame_rate)
    psi1 = split_step_evolve(psi0, planar_field_hamiltonian(field), T, dt)

    checks = [
        CheckResult("moving-origin-link", phi2_via.distance(phi2), p["link_tol"]),
        CheckResult("rotating-frame-link", psi1_via.distance(psi1), p["link_tol"]),
        CheckResult("norm-preservation", abs(psi1.norm() - 1.0), 1e-6),
    ]
    drive_free = p["e_field"][0] == 0.0 and p["e_field"][1] == 0.0
    if drive_free:
        checks.append(CheckResult("moving-origin-identity", phi2_via.distance(phi3), 1e-12))
    return checks, {"wavefunction": (["x", "y", "re", "im", "abs2"], wavefunction_rows(psi1))}


def _run_expansion(sc: Scenario):
    p = sc.params
    theta = p["theta"]
    rows = []
    ortho_defect = 0.0
    leak = 0.0
    for level in range(1, p["max_level"] + 1):
        mat = np.zeros((level + 1, level + 1))
        for k1 in range(level + 1):
            coeffs, leakage = rotated_product_coefficients(k1, level - k1, theta)
            leak = max(leak, leakage)
            for (m1, m2), c in coeffs.items():
                mat[k1, m1] = c
                rows.append((level, k1, level - k1, m1, m2, c))
        ortho_defect = max(
            ortho_defect, float(np.max(np.abs(mat @ mat.T - np.eye(level + 1))))
        )
    one, _ = rotated_product_coefficients(1, 0, theta)
    level1_defect = max(
        abs(one[(1, 0)] - math.cos(theta)), abs(one[(0, 1)] - math.sin(theta))
    )
    params = OscParams(1.0, 1.0)
    degeneracy = 0.0
    for level in range(1, p["max_level"] + 1):
        energies = [
            oscillator_energy(EigenLabel(k, level - k), params, 1.0)
            for k in range(level + 1)
        ]
        degeneracy = max(degeneracy, max(energies) - min(energies))
    checks = [
        CheckResult("level-orthogonality", ortho_defect, 1e-8),
        CheckResult("single-quantum-rotation", level1_defect, 1e-10),
        CheckResult("off-level-leakage", leak, 1e-10),
        CheckResult("degeneracy-consistency", degeneracy, 1e-12),
    ]
    return checks, {"coefficients": (["level", "k1", "k2", "m1", "m2", "coeff"], rows)}


def _run_hill(sc: Scenario):
    p = sc.params
    a_values = np.linspace(p["a_min"], p["a_max"], p["a_count"])
    q_values = np.linspace(p["q_min"], p["q_max"], p["q_count"])
    rows = stability_map(mathieu_omega_sq, math.pi, a_values, q_values, n_steps=p["n_steps"])
    det_defect = 0.0
    const_defect = 0.0
    for row in rows:
        if row.param2 == 0.0 and row.param1 > 0:
            const_defect = max(
                const_defect,
                abs(row.trace - 2.0 * math.cos(math.sqrt(row.param1) * math.pi)),
            )
            det_defect = max(det_defect, abs(row.det - 1.0))
    rep = hill_monodromy(mathieu_hill(1.2, 0.25), p["n_steps"])
    det_defect = max(det_defect, abs(rep.det - 1.0))
    checks = [
        CheckResult("monodromy-determinant", det_defect, 1e-8),
        CheckResult("constant-frequency-trace", const_defect, 1e-8),
    ]
    table = ((r.param1, r.param2, r.trace, r.classification) for r in rows)
    return checks, {"stability": (["param1", "param2", "trace", "classification"], table)}


def _run_case1(sc: Scenario):
    p = sc.params
    const, amp, freq = p["b3_const"], p["b3_cos_amp"], p["b3_cos_freq"]

    def b3(t):
        return const + amp * np.cos(freq * np.asarray(t, dtype=float))

    field = FixedAxisField(b3=b3, charge=p["charge"], mass=p["mass"])
    T = p["time"]
    n = p["ode_steps"]

    generator = stage_memo(lambda t: cross_matrix((0.0, 0.0, float(field.rate(t)))))

    def rhs(r, t):
        return generator(t) @ r

    for _, r in rk4_steps(rhs, np.eye(3), T / n, n):
        pass
    closed = accumulated_rotation(field, T)
    ortho = float(np.max(np.abs(closed.T @ closed - np.eye(3))))
    checks = [
        CheckResult("closed-form-vs-ode", float(np.max(np.abs(closed - r))), 1e-6),
        CheckResult("rotation-orthogonality", ortho, 1e-12),
    ]
    rows = ((t, *accumulated_rotation(field, float(t)).ravel()) for t in np.linspace(0.0, T, 33))
    return checks, {"rotation": (["t"] + [f"r{i}{j}" for i in range(3) for j in range(3)], rows)}


def _run_case2(sc: Scenario):
    p = sc.params
    field = RotatingField(
        b1=p["b1"], b3=p["b3"], alpha=p["alpha"], charge=p["charge"], mass=p["mass"]
    )
    reduced, cmap3 = corotating_reduction(field)
    system, cmap4 = coriolis_elimination(reduced)
    rng = np.random.default_rng(p["seed"])
    period = system.period if math.isfinite(system.period) else 2.0 * math.pi

    coriolis = reduced.coriolis
    antisym = float(np.max(np.abs(coriolis + coriolis.T)))
    conj = 0.0
    sym_defect = 0.0
    psd_defect = 0.0
    for t in np.linspace(0.0, period, p["samples"]):
        conj = max(conj, frame_conjugation_defect(field, t))
        s = system.omega_sq_matrix(float(t))
        sym_defect = max(sym_defect, float(np.max(np.abs(s - s.T))))
        psd_defect = max(psd_defect, max(0.0, -float(np.min(np.linalg.eigvalsh(s)))))
    period_defect = float(
        np.max(np.abs(system.omega_sq_matrix(0.37 + period) - system.omega_sq_matrix(0.37)))
    )
    map_defect = 0.0
    for _ in range(p["samples"]):
        t = rng.uniform(0.0, period)
        z = rng.normal(size=6)
        map_defect = max(map_defect, symplectic_defect(cmap3.forward, t, z))
        map_defect = max(map_defect, symplectic_defect(cmap4.forward, t, z))
    checks = [
        CheckResult("generator-conjugation", conj, 1e-10),
        CheckResult("coriolis-antisymmetry", antisym, 1e-15),
        CheckResult("stiffness-symmetry", sym_defect, 1e-12),
        CheckResult("stiffness-positive", psd_defect, 1e-10),
        CheckResult("stiffness-period", period_defect, 1e-10),
        CheckResult("symplectic-reductions", map_defect, 1e-8),
    ]
    samples = np.linspace(0.0, period, 33)
    rows = ((t, *system.omega_sq_matrix(float(t)).ravel()) for t in samples)
    return checks, {"stiffness": (["t"] + [f"s{i}{j}" for i in range(3) for j in range(3)], rows)}


_RUNNERS = {
    "classical-equivalence": _run_classical,
    "quantum-pipeline": _run_quantum,
    "eigenstate-expansion": _run_expansion,
    "hill-stability": _run_hill,
    "case1": _run_case1,
    "case2": _run_case2,
}


def run(
    scenario: Scenario,
    out_dir=None,
    tolerance_scale: float = 1.0,
    check_only: bool = False,
) -> RunReport:
    """Execute one scenario, with every check tolerance multiplied by
    `tolerance_scale`; unless check_only, write each table its runner
    returns as the artifact `<name>_<table>.csv`, in the runner's order."""
    started = time.perf_counter()
    checks, tables = _RUNNERS[scenario.mode](scenario)
    checks = [CheckResult(c.name, c.defect, tolerance_scale * c.tolerance) for c in checks]
    artifacts = []
    if not check_only:
        out = Path(out_dir) if out_dir is not None else Path("out")
        out.mkdir(parents=True, exist_ok=True)
        for table, (header, rows) in tables.items():
            path = out / f"{scenario.name}_{table}.csv"
            _write_csv(path, header, rows)
            artifacts.append(str(path))
    return RunReport(
        scenario=scenario.name,
        checks=checks,
        wall_time=time.perf_counter() - started,
        artifacts=artifacts,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fieldosc",
        description="Run field/oscillator equivalence scenarios and verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run scenario config files")
    runp.add_argument("configs", nargs="+", help="scenario files (key = value text)")
    runp.add_argument("--out-dir", default="out", help="directory for CSV artifacts")
    runp.add_argument(
        "--check-only", action="store_true", help="evaluate checks, write no artifacts"
    )
    runp.add_argument(
        "--threads", type=_positive_int, default=1, help="scenario worker pool size"
    )
    runp.add_argument(
        "--tolerance-scale",
        type=_positive_finite,
        default=1.0,
        help="multiply every check tolerance by this factor",
    )
    args = parser.parse_args(argv)

    try:
        scenarios = [parse_scenario(p) for p in args.configs]
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        print("error: scenario names must be unique within a batch", file=sys.stderr)
        return 2

    def execute(sc: Scenario) -> RunReport:
        # a scenario that raises is reported as such; the batch goes on
        started = time.perf_counter()
        try:
            return run(
                sc,
                out_dir=args.out_dir,
                tolerance_scale=args.tolerance_scale,
                check_only=args.check_only,
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            return RunReport(sc.name, [], time.perf_counter() - started, error=error)

    if args.threads > 1 and len(scenarios) > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            reports = list(pool.map(execute, scenarios))
    else:
        reports = [execute(sc) for sc in scenarios]

    reports.sort(key=lambda r: r.scenario)
    failures = 0
    for report in reports:
        if report.error is not None:
            print(f"[FAIL] {report.scenario}: error ({report.error})")
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            if not check.passed:
                failures += 1
            print(
                f"[{status}] {report.scenario}: {check.name} "
                f"(defect {check.defect:.3e} vs tolerance {check.tolerance:.3e})"
            )
        print(
            f"-- {report.scenario}: "
            f"{'ok' if report.passed else 'FAILED'} in {report.wall_time:.2f} s"
        )
    if any(r.error is not None for r in reports):
        return 3
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
