"""Acceptance suite: every top-level claim of the package checked against
an independent brute-force oracle at its stated tolerance, one printed
PASS/FAIL line per criterion (run with -s to see them on success)."""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy.integrate import solve_ivp

from fieldosc.core import OscParams, block_propagate_path, block_propagator
from fieldosc.classical import (
    StaticField,
    forced_path,
    h1_evaluator,
    frame_rotation,
    moving_origin_map,
    rk4_hamiltonian_flow,
    symplectic_defect,
)
from fieldosc.quantum import (
    EigenLabel,
    Grid,
    driven_hamiltonian,
    energy_expectation,
    evolved_eigenstate,
    gaussian_wavepacket,
    hermite,
    hermite_shift_coefficients,
    oscillator_energy,
    oscillator_hamiltonian,
    planar_field_hamiltonian,
    product_eigenstate,
    rotated_product_coefficients,
    split_step_evolve,
    unitary_moving_origin,
    unitary_rotation,
)
from fieldosc.tdfields import (
    FixedAxisField,
    HillSystem,
    RotatingField,
    accumulated_rotation,
    bisect_stability_boundary,
    coriolis_elimination,
    corotating_reduction,
    frame_conjugation_defect,
    hill_monodromy,
    mathieu_hill,
    rotation_ode,
)
from fieldosc.cli import main as cli_main

from test_tdfields import monodromy_oracle


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")


class TestClassicalEquivalence:
    def test_end_to_end_random_fields(self):
        """Ten random static fields: the brute-force trajectory mapped by
        rotating frame + moving origin lands on the oscillator closed form
        to 1e-6 over [0, 10/omega] at dt = 1e-4, within 10 s."""
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        dt = 1e-4
        fields = []
        for _ in range(10):
            b3 = float(rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 8.0))
            e = tuple(rng.uniform(-0.2, 0.2, 3))
            fields.append(StaticField(b3=b3, e=e))
        z0 = rng.uniform(-0.5, 0.5, (10, 6))
        omegas = np.array([f.osc_params.omega for f in fields])
        horizons = 10.0 / omegas
        steps = int(round(float(np.max(horizons)) / dt))
        steps += steps % 2
        h = float(np.max(horizons)) / steps

        times, path = rk4_hamiltonian_flow(h1_evaluator(fields), z0, float(np.max(horizons)), h)
        worst = 0.0
        for i, field in enumerate(fields):
            params = field.osc_params
            n_i = min(steps, int(round(horizons[i] / h)))
            n_i -= n_i % 2
            t_i = times[: n_i + 1]
            tr = frame_rotation(field.frame_rate).forward(t_i, path[: n_i + 1, i])
            mapped = tr - forced_path(params, field.rotated_drive(), t_i)
            reference = block_propagate_path(params, z0[i], t_i)
            worst = max(worst, float(np.max(np.abs(mapped - reference))))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-6 and elapsed <= 10.0
        report(
            "classical-equivalence",
            ok,
            f"sup deviation {worst:.3e} <= 1e-06, runtime {elapsed:.1f} s <= 10 s",
        )
        assert worst <= 1e-6
        assert elapsed <= 10.0


class TestSymplecticity:
    def test_all_four_maps(self):
        """Finite-difference Jacobians of the four canonical maps satisfy
        J^T S J = S entrywise to 1e-8 at 100 random (t, z) samples each."""
        rng = np.random.default_rng(7)
        quad = 2000.0
        field = StaticField(b3=2.1, e=(0.12, -0.2, 0.15))
        frame = frame_rotation(field.frame_rate)
        mover = moving_origin_map(field.osc_params, field.rotated_drive(), quad)
        rot_field = RotatingField(b1=0.7, b3=1.1, alpha=0.9)
        reduced, corotating = corotating_reduction(rot_field)
        _, eliminator = coriolis_elimination(reduced)

        worst = {}
        for label, mapper in (
            ("rotating-frame", frame.forward),
            ("moving-origin", mover.forward),
            ("corotating", corotating.forward),
            ("coriolis-elimination", eliminator.forward),
        ):
            defect = 0.0
            for _ in range(100):
                t = float(rng.uniform(0.0, 3.0))
                z = rng.normal(scale=1.0, size=6)
                defect = max(defect, symplectic_defect(mapper, t, z))
            worst[label] = defect
        top = max(worst.values())
        report(
            "symplecticity",
            top <= 1e-8,
            "max defect "
            + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
            + " <= 1e-08",
        )
        assert top <= 1e-8


class TestPropagatorInvariants:
    def test_energy_form_conjugation_and_orbit_invariant(self):
        """U^T H U = H to 1e-12 over sampled (m, w, t); the homogeneous
        quadratic form stays constant to 1e-10 along closed-form orbits."""
        rng = np.random.default_rng(11)
        conj = 0.0
        for _ in range(50):
            params = OscParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.0, 5.0)))
            t = float(rng.uniform(-5.0, 5.0))
            m, w = params.mass, params.omega
            # the energy form, 2*energy = <z, H z>, built here as the reference
            h6 = np.diag([m * w * w, 1.0 / m, m * w * w, 1.0 / m, 0.0, 1.0 / m])
            u6 = block_propagator(params, t)
            u2, h2 = u6[:2, :2], h6[:2, :2]
            conj = max(conj, float(np.max(np.abs(u2.T @ h2 @ u2 - h2))))
            conj = max(conj, float(np.max(np.abs(u6.T @ h6 @ u6 - h6))))

        drift = 0.0
        times = np.linspace(0.0, 10.0, 2001)
        for _ in range(5):
            params = OscParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 3.0)))
            z0 = rng.normal(size=6)
            orbit = block_propagate_path(params, z0, times)
            m, w = params.mass, params.omega
            form = (
                m * w * w * (orbit[:, 0] ** 2 + orbit[:, 2] ** 2)
                + (orbit[:, 1] ** 2 + orbit[:, 3] ** 2 + orbit[:, 5] ** 2) / m
            )
            drift = max(drift, float(np.max(np.abs(form - form[0]))))
        ok = conj <= 1e-12 and drift <= 1e-10
        report(
            "propagator-invariants",
            ok,
            f"conjugation defect {conj:.2e} <= 1e-12, orbit drift {drift:.2e} <= 1e-10",
        )
        assert conj <= 1e-12
        assert drift <= 1e-10


class TestHermiteIdentities:
    def test_shift_expansion_polynomial_identity(self):
        """H_n(u+v) reconstructed from the shift coefficients (with the
        doubled shift factor) for n <= 10, residual <= 1e-9 * max|H_n| at
        50 sample points, cross-checked against numpy's evaluator."""
        u = np.linspace(-4.0, 4.0, 50)
        worst_ratio = 0.0
        for n in range(11):
            for v in (-1.7, -0.4, 0.33, 0.9, 2.1):
                coeffs = hermite_shift_coefficients(n, v)
                basis = np.zeros(n + 1)
                basis[n] = 1.0
                lhs = hermval(u + v, basis)  # independent evaluation route
                rhs = sum(c * hermite(k, u) for k, c in coeffs.items())
                scale = max(1.0, float(np.max(np.abs(lhs))))
                worst_ratio = max(worst_ratio, float(np.max(np.abs(lhs - rhs))) / scale)
        report(
            "hermite-shift-identity",
            worst_ratio <= 1e-9,
            f"relative residual {worst_ratio:.2e} <= 1e-09 for n <= 10",
        )
        assert worst_ratio <= 1e-9


class TestRotatedProductExpansion:
    def test_levels_up_to_six_orthogonal(self):
        """Per-level coefficient matrices orthogonal to 1e-8 for
        n1+n2 <= 6; the one-quantum level reproduces (cos, sin) to 1e-10."""
        theta = 0.81
        ortho = 0.0
        for level in range(1, 7):
            mat = np.zeros((level + 1, level + 1))
            for k1 in range(level + 1):
                coeffs, _ = rotated_product_coefficients(k1, level - k1, theta)
                for (m1, _), c in coeffs.items():
                    mat[k1, m1] = c
            ortho = max(ortho, float(np.max(np.abs(mat @ mat.T - np.eye(level + 1)))))
        one, _ = rotated_product_coefficients(1, 0, theta)
        level1 = max(
            abs(one[(1, 0)] - math.cos(theta)),
            abs(one[(0, 1)] - math.sin(theta)),
        )
        ok = ortho <= 1e-8 and level1 <= 1e-10
        report(
            "rotated-product-expansion",
            ok,
            f"orthogonality defect {ortho:.2e} <= 1e-08, level-1 defect {level1:.2e} <= 1e-10",
        )
        assert ortho <= 1e-8
        assert level1 <= 1e-10


class TestSpectrum:
    def test_grid_expectations_match_ladder(self):
        """<phi|H|phi> on a 256-point grid matches hbar*w*(n1+n2+1) to
        1e-3 relative for all labels with n1+n2 <= 3, within 5 s."""
        started = time.perf_counter()
        grid = Grid(dims=2, n=256, half_width=8.0)
        params = OscParams(1.0, 1.0)
        ham = oscillator_hamiltonian(params)
        worst = 0.0
        for total in range(4):
            for n1 in range(total + 1):
                label = EigenLabel(n1, total - n1)
                psi = product_eigenstate(grid, label, params)
                expected = oscillator_energy(label, params, 1.0)
                got = energy_expectation(psi, ham)
                worst = max(worst, abs(got - expected) / expected)
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-3 and elapsed <= 5.0
        report(
            "oscillator-spectrum",
            ok,
            f"relative error {worst:.2e} <= 1e-03, runtime {elapsed:.1f} s <= 5 s",
        )
        assert worst <= 1e-3
        assert elapsed <= 5.0


class TestQuantumPipeline:
    def test_unitary_links_between_evolutions(self):
        """Oscillator evolution + moving-origin map equals the driven
        evolution, and driven + frame rotation equals the planar-field
        evolution, to 1e-4 in grid L2 at N=256, dt=1e-3."""
        field = StaticField(b3=2.6, e=(0.12, -0.08, 0.0))
        params = field.osc_params
        drive = field.rotated_drive()
        grid = Grid(dims=2, n=256, half_width=8.0)
        psi0 = gaussian_wavepacket(grid, (0.5, -0.3), (0.3, 0.1), 0.8)
        t, dt = 1.5, 1e-3
        quad = 2000.0

        phi3 = split_step_evolve(psi0, oscillator_hamiltonian(params), t, dt)
        mover = moving_origin_map(params, drive, quad)
        phi2 = split_step_evolve(psi0, driven_hamiltonian(params, drive), t, dt)
        link_a = unitary_moving_origin(phi3, t, mover).distance(phi2)
        link_b = unitary_rotation(phi2, t, 0.5 * field.cyclotron_rate).distance(
            split_step_evolve(psi0, planar_field_hamiltonian(field), t, dt)
        )
        ok = link_a <= 1e-4 and link_b <= 1e-4
        report(
            "quantum-pipeline",
            ok,
            f"moving-origin link {link_a:.2e}, rotating-frame link {link_b:.2e} <= 1e-04",
        )
        assert link_a <= 1e-4
        assert link_b <= 1e-4

    def test_magnetic_only_phase_ledger_is_dynamical(self):
        """Without an electric field the evolved eigenstate carries only
        the dynamical phase: action and axial ledger entries are zero."""
        grid = Grid(dims=2, n=128, half_width=8.0)
        field = StaticField(b3=2.0)
        t = 1.7
        state = evolved_eigenstate(EigenLabel(1, 1), t, field, grid)
        energy = oscillator_energy(EigenLabel(1, 1), field.osc_params, 1.0)
        extra = max(abs(state.action_phase), abs(state.axial_phase))
        dyn_err = abs(state.dynamical_phase - (-energy * t))
        ok = extra == 0.0 and dyn_err <= 1e-12
        report(
            "phase-ledger",
            ok,
            f"non-dynamical phase {extra:.1e} == 0, dynamical error {dyn_err:.1e}",
        )
        assert extra == 0.0
        assert dyn_err <= 1e-12


class TestHillAnalysis:
    def test_monodromy_and_reductions(self):
        """det(monodromy) = 1 +/- 1e-8; constant-frequency trace matches
        2 cos(wT) to 1e-8; closed-form frame rotation matches direct ODE
        integration to 1e-6; the rotating-field conjugation identity holds
        to 1e-10; the first Mathieu tongue edge at q = 0.1 is bracketed by
        bisection to 1e-3 and confirmed by the brute-force oracle."""
        rng = np.random.default_rng(5)
        det_defect = 0.0
        for _ in range(10):
            a, q = float(rng.uniform(0.3, 3.0)), float(rng.uniform(-0.4, 0.4))
            det_defect = max(det_defect, abs(hill_monodromy(mathieu_hill(a, q)).det - 1.0))

        w0, period = 1.3, 2.0
        const = HillSystem(
            omega_sq=lambda t: np.full_like(np.asarray(t, float), w0 * w0), period=period
        )
        trace_defect = abs(hill_monodromy(const).trace - 2.0 * math.cos(w0 * period))

        fixed = FixedAxisField(b3=lambda t: 1.0 + 0.5 * np.cos(1.3 * t))
        ode = rotation_ode(fixed, 3.0, 30000)
        case1_defect = float(np.max(np.abs(accumulated_rotation(fixed, 3.0) - ode)))

        rot = RotatingField(b1=0.7, b3=1.1, alpha=0.9)
        conj = max(frame_conjugation_defect(rot, t) for t in np.linspace(0.0, 7.0, 29))

        q = 0.1
        edge = bisect_stability_boundary(lambda a: mathieu_hill(a, q), 0.7, 1.0, tol=1e-4)
        oracle_trace = float(np.trace(monodromy_oracle(mathieu_hill(edge, q))))
        edge_defect = abs(abs(oracle_trace) - 2.0)

        ok = (
            det_defect <= 1e-8
            and trace_defect <= 1e-8
            and case1_defect <= 1e-6
            and conj <= 1e-10
            and edge_defect <= 5e-5
        )
        report(
            "hill-analysis",
            ok,
            f"det {det_defect:.1e} <= 1e-08, const-trace {trace_defect:.1e} <= 1e-08, "
            f"rotation-vs-ode {case1_defect:.1e} <= 1e-06, conjugation {conj:.1e} <= 1e-10, "
            f"tongue edge {edge:.5f} oracle |trace|-2 = {edge_defect:.1e}",
        )
        assert det_defect <= 1e-8
        assert trace_defect <= 1e-8
        assert case1_defect <= 1e-6
        assert conj <= 1e-10
        assert edge_defect <= 5e-5


class TestDeterminism:
    def test_cli_artifacts_hash_equal(self, tmp_path):
        """Identical scenario batches produce byte-identical artifacts."""
        cfgs = []
        texts = {
            "cls.cfg": (
                "mode = classical-equivalence\nb3 = 2.0\ne_field = 0, 0.1, 0.05\n"
                "horizon = 1.5\ndt = 2e-3\nseed = 3\n"
            ),
            "exp.cfg": "mode = eigenstate-expansion\nmax_level = 3\n",
            "hill.cfg": "mode = hill-stability\na_count = 5\nq_count = 2\nn_steps = 512\n",
            "case2.cfg": "mode = case2\nsamples = 6\n",
        }
        for fname, text in texts.items():
            p = tmp_path / fname
            p.write_text(text, encoding="utf-8")
            cfgs.append(str(p))

        def digest(out_dir: Path) -> dict:
            return {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out_dir.iterdir())
            }

        code1 = cli_main(["run", *cfgs, "--out-dir", str(tmp_path / "o1")])
        code2 = cli_main(["run", *cfgs, "--out-dir", str(tmp_path / "o2"), "--threads", "2"])
        same = digest(tmp_path / "o1") == digest(tmp_path / "o2")
        ok = code1 == 0 and code2 == 0 and same
        report(
            "determinism",
            ok,
            f"exit codes {code1}/{code2}, artifacts hash-equal: {same}",
        )
        assert code1 == 0 and code2 == 0
        assert same
