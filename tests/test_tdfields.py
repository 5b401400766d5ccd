import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fieldosc.core import OscParams, cross_matrix, rotation_about_z
from fieldosc.classical import (
    Drive,
    StaticField,
    equivalence_report,
    frame_rotation,
    h1_evaluator,
    rk4_hamiltonian_flow,
    symplectic_defect,
)
from fieldosc.tdfields import (
    FixedAxisField,
    HillSystem,
    ReducedQuadraticHamiltonian,
    RotatingField,
    accumulated_rotation,
    bisect_stability_boundary,
    coriolis_elimination,
    corotating_reduction,
    fixed_axis_hill,
    frame_conjugation_defect,
    h4_evaluator,
    hill_monodromy,
    mathieu_hill,
    rotating_field_generator,
    stability_map,
)
from fieldosc.tdfields import _monodromy_matrices


def integrate_rotation_ode(field: FixedAxisField, t: float, steps: int) -> np.ndarray:
    """RK4 on dR/dt = W(t) R(t), the defining equation of the frame."""
    h = t / steps
    starts = np.arange(steps) * h
    # the rate at every stage time of each kind: step start, midpoint, end
    rates = [field.rate(starts), field.rate(starts + 0.5 * h), field.rate(starts + h)]
    r = np.eye(3)
    for i in range(steps):
        g1, g2, g4 = (cross_matrix((0.0, 0.0, float(rate[i]))) for rate in rates)
        k1 = g1 @ r
        k2 = g2 @ (r + 0.5 * h * k1)
        k3 = g2 @ (r + 0.5 * h * k2)
        k4 = g4 @ (r + h * k3)
        r = r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


def reference_monodromy(omega_sq_values, period: float, n_steps: int) -> np.ndarray:
    """The monodromy RK4 in its first form, the four matrix entries
    unrolled as separate arrays, kept as the bit-for-bit reference of
    the package's."""
    h = period / n_steps
    w2_0 = np.asarray(omega_sq_values(0.0), dtype=float)
    shape = w2_0.shape
    y11 = np.ones(shape)
    y12 = np.zeros(shape)
    y21 = np.zeros(shape)
    y22 = np.ones(shape)

    def rhs(w2, a, b, c, d):
        # derivative of [[a, b], [c, d]] under [[0, 1], [-w2, 0]]
        return c, d, -w2 * a, -w2 * b

    for i in range(n_steps):
        t = i * h
        w2_a = np.asarray(omega_sq_values(t), dtype=float)
        w2_b = np.asarray(omega_sq_values(t + 0.5 * h), dtype=float)
        w2_c = np.asarray(omega_sq_values(t + h), dtype=float)
        k1 = rhs(w2_a, y11, y12, y21, y22)
        k2 = rhs(
            w2_b,
            y11 + 0.5 * h * k1[0],
            y12 + 0.5 * h * k1[1],
            y21 + 0.5 * h * k1[2],
            y22 + 0.5 * h * k1[3],
        )
        k3 = rhs(
            w2_b,
            y11 + 0.5 * h * k2[0],
            y12 + 0.5 * h * k2[1],
            y21 + 0.5 * h * k2[2],
            y22 + 0.5 * h * k2[3],
        )
        k4 = rhs(
            w2_c,
            y11 + h * k3[0],
            y12 + h * k3[1],
            y21 + h * k3[2],
            y22 + h * k3[3],
        )
        y11 = y11 + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y12 = y12 + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        y21 = y21 + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        y22 = y22 + (h / 6.0) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return np.stack(
        [np.stack([y11, y12], axis=-1), np.stack([y21, y22], axis=-1)], axis=-2
    )


def monodromy_oracle(sys: HillSystem) -> np.ndarray:
    """Brute-force monodromy via an adaptive high-order integrator."""

    def rhs(t, y):
        w2 = float(sys.omega_sq_values(t))
        return [y[2], y[3], -w2 * y[0], -w2 * y[1]]

    out = solve_ivp(
        rhs,
        (0.0, sys.period),
        [1.0, 0.0, 0.0, 1.0],
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
        dense_output=False,
    )
    y = out.y[:, -1]
    return np.array([[y[0], y[1]], [y[2], y[3]]])


@pytest.mark.parametrize("mass", [0.0, -1.0, math.inf, math.nan])
def test_fields_reject_bad_mass(mass):
    # FixedAxisField(mass=0) used to give "unstable" after RuntimeWarnings,
    # mass=-1 "stable", and RotatingField(mass=0) a ZeroDivisionError
    makers = (
        lambda: FixedAxisField(b3=lambda t: 1.0 + 0.0 * t, mass=mass),
        lambda: RotatingField(b1=0.7, b3=1.1, alpha=0.9, mass=mass),
        lambda: StaticField(b3=1.0, mass=mass),
        lambda: OscParams(mass, 1.0),
    )
    for make in makers:
        with pytest.raises(ValueError, match="mass"):
            make()


class TestFixedAxisRotation:
    def test_constant_field_reduces_to_plain_rotation(self):
        field = FixedAxisField(b3=lambda t: np.full_like(np.asarray(t, float), 1.4),
                               charge=0.8, mass=1.2)
        t = 2.1
        expected = rotation_about_z(0.8 * 1.4 / 1.2 * t)
        assert np.max(np.abs(accumulated_rotation(field, t) - expected)) <= 1e-12

    def test_cosine_field_closes_after_full_period(self):
        field = FixedAxisField(b3=np.cos)
        r = accumulated_rotation(field, 2.0 * math.pi)
        assert np.max(np.abs(r - np.eye(3))) <= 1e-12

    def test_matches_ode_integration(self):
        field = FixedAxisField(b3=lambda t: 1.0 + 0.5 * np.cos(1.3 * t))
        t = 3.0
        oracle = integrate_rotation_ode(field, t, 30000)
        assert np.max(np.abs(accumulated_rotation(field, t) - oracle)) <= 1e-7

    def test_uniform_agreement_over_ten_periods(self):
        period = 2.0 * math.pi / 1.3
        field = FixedAxisField(b3=lambda t: 0.8 + 0.4 * np.cos(1.3 * t))
        for frac in (0.5, 2.0, 5.0, 10.0):
            t = frac * period
            oracle = integrate_rotation_ode(field, t, int(20000 * max(frac, 1)))
            assert np.max(np.abs(accumulated_rotation(field, t) - oracle)) <= 1e-6

    def test_time_function_must_broadcast(self):
        field = FixedAxisField(b3=lambda t: 2.0)
        with pytest.raises(ValueError, match="shape"):
            field.rate(np.linspace(0.0, 1.0, 5))

    def test_reduced_hill_frequency_is_half_rate(self):
        field = FixedAxisField(b3=lambda t: 2.0 + np.sin(t), charge=1.0, mass=2.0)
        sys = fixed_axis_hill(field, period=2.0 * math.pi)
        t = np.array([0.0, 1.0, 2.5])
        expected = (0.5 * (2.0 + np.sin(t)) / 2.0) ** 2
        assert np.allclose(sys.omega_sq_values(t), expected, atol=1e-14)

    def test_frame_rate_is_half_the_rate(self):
        # the Hill frequency is read from the field's frame rate, which is
        # half the rate bit for bit
        field = FixedAxisField(b3=lambda t: 2.0 + np.sin(t), charge=1.5, mass=2.0)
        t = np.array([0.0, 1.0, 2.5])
        half = field.frame_rate(t)
        assert np.array_equal(half, 0.5 * field.rate(t))
        sys = fixed_axis_hill(field, period=2.0 * math.pi)
        assert np.array_equal(sys.omega_sq_values(t), half * half)


class TestRotatingGenerator:
    FIELD = RotatingField(b1=0.7, b3=1.1, alpha=0.9)

    def test_initial_structure(self):
        # cross-product structure of the scaled initial field (B1, 0, B3)
        w0 = rotating_field_generator(self.FIELD, 0.0)
        expected = np.array(
            [[0.0, -1.1, 0.0], [1.1, 0.0, -0.7], [0.0, 0.7, 0.0]]
        )
        assert np.max(np.abs(w0 - expected)) <= 1e-15

    def test_charge_mass_scaling(self):
        field = RotatingField(b1=0.7, b3=1.1, alpha=0.9, charge=2.0, mass=4.0)
        assert np.allclose(
            rotating_field_generator(field, 0.0),
            0.5 * rotating_field_generator(self.FIELD, 0.0),
            atol=1e-15,
        )

    def test_antisymmetric(self):
        w = rotating_field_generator(self.FIELD, 1.3)
        assert np.array_equal(w, -w.T)

    def test_axial_limit_matches_static_form(self):
        field = RotatingField(b1=0.0, b3=1.5, alpha=0.4)
        w = rotating_field_generator(field, 2.0)
        assert np.max(np.abs(w - cross_matrix((0.0, 0.0, 1.5)))) <= 1e-15

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 4.0, 6.1])
    def test_conjugation_invariant(self, t):
        assert frame_conjugation_defect(self.FIELD, t) <= 1e-10


class TestCorotatingReduction:
    def test_reduced_hamiltonian_holds_only_its_field(self):
        # M = W0/2 + L and W0^T W0 are computed from the field, bit for bit
        field = RotatingField(b1=0.7, b3=1.1, alpha=0.9)
        reduced = ReducedQuadraticHamiltonian(field)
        w0 = rotating_field_generator(field, 0.0)
        assert [f.name for f in dataclasses.fields(reduced)] == ["field"]
        assert np.array_equal(reduced.coriolis, 0.5 * w0 + cross_matrix((0.0, 0.0, 0.9)))
        assert np.array_equal(reduced.stiffness_form, w0.T @ w0)
        assert corotating_reduction(field)[0].field is field

    def test_e0_is_a_drive(self):
        # E0 defaults to the zero drive, and a non-finite E0 is rejected
        # when it is built: a NaN lambda used to give NaN energies
        field = RotatingField(b1=0.7, b3=1.1, alpha=0.9)
        assert isinstance(field.e0, Drive)
        assert np.array_equal(field.e0(1.3), np.zeros(3))
        z = np.random.default_rng(2).normal(size=(4, 6))
        assert np.all(np.isfinite(h4_evaluator(field)(z, 0.4)))
        with pytest.raises(ValueError, match="finite"):
            RotatingField(0.7, 1.1, 0.9, e0=Drive.constant((math.nan, 0.0, 0.0)))

    def test_static_limit_coriolis(self):
        field = RotatingField(b1=0.0, b3=1.5, alpha=0.0)
        reduced, _ = corotating_reduction(field)
        assert np.allclose(
            reduced.coriolis, 0.5 * rotating_field_generator(field, 0.0), atol=0
        )

    def test_coriolis_antisymmetric(self):
        reduced, _ = corotating_reduction(RotatingField(b1=0.6, b3=1.2, alpha=0.7))
        assert np.array_equal(reduced.coriolis, -reduced.coriolis.T)

    def test_axis_speed_match_generator_spectrum(self):
        # |M| spectrum is {0, +/- i speed}; the documented speed formula
        # must match the eigenvalues of the Coriolis generator
        field = RotatingField(b1=0.7, b3=1.1, alpha=0.9)
        reduced, _ = corotating_reduction(field)
        system, _ = coriolis_elimination(reduced)
        expected = math.sqrt((0.7 / 2.0) ** 2 + (0.9 + 1.1 / 2.0) ** 2)
        assert 2.0 * math.pi / system.period == pytest.approx(expected, abs=1e-14)
        eigs = np.linalg.eigvals(reduced.coriolis)
        assert np.max(np.abs(np.sort(np.abs(eigs.imag)) - [0.0, expected, expected])) <= 1e-12

    def test_pullback_matches_generating_rate(self):
        # H5 on mapped trajectories equals H4 plus dF/dt along the flow
        field = RotatingField(
            b1=0.7, b3=1.1, alpha=0.9,
            e0=Drive.sinusoids([(0.5, (0.1, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                (0.0, (0.0, -0.05, 0.08), (0.0, 0.0, 0.0))]),
        )
        reduced, cmap = corotating_reduction(field)
        h4 = h4_evaluator(field)
        rng = np.random.default_rng(1)
        z0 = rng.normal(scale=0.4, size=6)
        times, path = rk4_hamiltonian_flow(h4, z0, 2.0, 1e-3)
        worst = 0.0
        for idx in range(0, len(times), 250):
            t, z = float(times[idx]), path[idx]
            mapped = cmap.forward(t, z)
            x = z[0::2]
            p_new = mapped[1::2]

            def gen(tt):
                return float(rotation_about_z(-field.alpha * tt) @ x @ p_new)

            h = 1e-4
            rate = (gen(t - 2 * h) - 8 * gen(t - h) + 8 * gen(t + h) - gen(t + 2 * h)) / (12 * h)
            worst = max(worst, abs(float(reduced.value(mapped, t)) - float(h4(z, t)) - rate))
        assert worst <= 1e-6

    def test_map_is_frame_rotation_at_minus_alpha(self):
        # the co-rotating map is the static frame map at rate -alpha, and
        # checks its states as that map does
        field = RotatingField(b1=0.5, b3=1.3, alpha=0.8)
        _, cmap = corotating_reduction(field)
        static = frame_rotation(StaticField(b3=-1.6).frame_rate)  # frame rate -0.8
        z = np.random.default_rng(4).normal(size=(7, 6))
        times = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(cmap.forward(times, z), static.forward(times, z))
        assert np.array_equal(cmap.inverse(times, z), static.inverse(times, z))
        for frame in (cmap, static):
            with pytest.raises(ValueError, match="5"):
                frame.forward(0.5, np.zeros(5))

    def test_maps_symplectic(self):
        field = RotatingField(b1=0.5, b3=1.3, alpha=0.8)
        reduced, cmap3 = corotating_reduction(field)
        _, cmap4 = coriolis_elimination(reduced)
        rng = np.random.default_rng(9)
        for cmap in (cmap3, cmap4):
            worst = max(
                symplectic_defect(cmap.forward, float(rng.uniform(0, 5)), rng.normal(size=6))
                for _ in range(10)
            )
            assert worst <= 1e-8


class TestCoriolisElimination:
    FIELD = RotatingField(b1=0.7, b3=1.1, alpha=0.9)

    def test_zero_coriolis_keeps_constant_stiffness(self):
        field = RotatingField(b1=0.0, b3=0.0, alpha=0.0)
        reduced, _ = corotating_reduction(field)
        system, _ = coriolis_elimination(reduced)
        assert not math.isfinite(system.period)
        assert np.allclose(system.omega_sq_matrix(0.0), system.omega_sq_matrix(2.0), atol=0)

    def test_stiffness_symmetric_psd(self):
        reduced, _ = corotating_reduction(self.FIELD)
        system, _ = coriolis_elimination(reduced)
        for t in np.linspace(0.0, system.period, 9):
            s = system.omega_sq_matrix(float(t))
            assert np.max(np.abs(s - s.T)) <= 1e-13
            assert np.min(np.linalg.eigvalsh(s)) >= -1e-12

    def test_stiffness_period(self):
        reduced, _ = corotating_reduction(self.FIELD)
        system, _ = coriolis_elimination(reduced)
        speed = np.max(np.abs(np.linalg.eigvals(reduced.coriolis).imag))
        assert system.period == pytest.approx(2.0 * math.pi / speed)
        defect = np.max(
            np.abs(system.omega_sq_matrix(0.77 + system.period) - system.omega_sq_matrix(0.77))
        )
        assert defect <= 1e-12


class TestStaticLimit:
    def test_case2_degenerates_to_static_module(self):
        # alpha = 0, B1 = 0, constant E: the rotating-field energy is the
        # static-field energy, and the static chain passes its tolerances
        e = (0.1, -0.2, 0.15)
        rot = RotatingField(b1=0.0, b3=2.1, alpha=0.0, e0=Drive.constant(e))
        static = StaticField(b3=2.1, e=e)
        h4 = h4_evaluator(rot)
        h1 = h1_evaluator(static)
        rng = np.random.default_rng(4)
        z = rng.normal(size=(8, 6))
        assert np.max(np.abs(h4(z, 0.7) - h1(z, 0.7))) <= 1e-13
        rep = equivalence_report(
            static, np.array([0.2, 0.3, -0.1, 0.1, 0.4, -0.2]), 3.0, dt=1e-3
        )
        assert rep.max_deviation <= 1e-6
        assert rep.symplectic_defect_rotating <= 1e-8
        assert rep.symplectic_defect_moving <= 1e-8


class TestMonodromy:
    def test_free_particle(self):
        sys = HillSystem(omega_sq=lambda t: np.zeros_like(np.asarray(t, float)), period=2.0)
        rep = hill_monodromy(sys)
        assert np.allclose(rep.matrix, [[1.0, 2.0], [0.0, 1.0]], atol=1e-10)
        assert rep.trace == pytest.approx(2.0, abs=1e-10)
        assert rep.classification == "marginal"

    def test_constant_frequency_trace(self):
        w0, period = 1.1, 2.0
        sys = HillSystem(
            omega_sq=lambda t: np.full_like(np.asarray(t, float), w0 * w0), period=period
        )
        rep = hill_monodromy(sys)
        assert abs(rep.trace - 2.0 * math.cos(w0 * period)) <= 1e-8
        assert abs(rep.det - 1.0) <= 1e-8
        assert rep.classification == "stable"

    @pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
    def test_period_must_be_positive_and_finite(self, period):
        # both entry points share the check; an infinite period used to give
        # a nan monodromy, classified "unstable" for the stable omega^2 = 1,
        # and stability_map checked no period at all
        with pytest.raises(ValueError, match="period"):
            hill_monodromy(HillSystem(lambda t: 1.0 + 0 * t, period), 16)
        with pytest.raises(ValueError, match="period"):
            stability_map(
                lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t), period, [0.5, 1.0], [0.1], 16
            )

    def test_n_steps_must_be_positive(self):
        # both entry points share the check; -5 used to give trace 2.0 and
        # "marginal" everywhere, 0 a ZeroDivisionError
        for n_steps in (0, -5):
            with pytest.raises(ValueError, match="n_steps"):
                hill_monodromy(mathieu_hill(1.0, 0.1), n_steps)
            with pytest.raises(ValueError, match="n_steps"):
                stability_map(
                    lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t), math.pi, [1.0], [0.1], n_steps
                )

    def test_runaway_flagged_unstable(self):
        sys = HillSystem(
            omega_sq=lambda t: np.full_like(np.asarray(t, float), -1e4), period=math.pi
        )
        with np.errstate(over="ignore", invalid="ignore"):
            rep = hill_monodromy(sys)
        assert rep.classification == "unstable"

    @given(
        a=st.floats(0.3, 3.0),
        q=st.floats(-0.3, 0.3),
    )
    @settings(max_examples=20, deadline=None)
    def test_determinant_is_one(self, a, q):
        rep = hill_monodromy(mathieu_hill(a, q), n_steps=1024)
        assert abs(rep.det - 1.0) <= 1e-8

    def test_bit_identical_to_reference_loop(self):
        a, q = np.meshgrid(np.linspace(0.2, 2.2, 21), np.linspace(0.0, 0.4, 9), indexing="ij")
        a, q = a.ravel(), q.ravel()

        def family(t):
            return a + 2.0 * q * np.cos(2.0 * t)

        batch = _monodromy_matrices(family, math.pi, 1024)
        assert batch.shape == (189, 2, 2)
        assert np.array_equal(batch, reference_monodromy(family, math.pi, 1024))
        sys = mathieu_hill(1.2, 0.25)
        rep = hill_monodromy(sys, n_steps=1024)
        assert np.array_equal(rep.matrix, reference_monodromy(sys.omega_sq_values, math.pi, 1024))

    def test_stage_values_are_reused(self):
        # k3 reuses k2's midpoint value and a step's start the last step's
        # end: about 2.3 evaluations per step, not 3 + 1/n
        times = []

        def family(t):
            times.append(t)
            return 1.2 + 0.5 * np.cos(2.0 * t)

        _monodromy_matrices(family, math.pi, 2048)
        assert len(times) < 2.5 * 2048
        assert len(set(times)) == len(times)

    def test_runaway_non_finite_pattern_matches_reference(self):
        def runaway(t):
            return np.full_like(np.asarray(t, float), -1e4)

        # growth e^(100 t) overflows within four periods of pi
        with np.errstate(over="ignore", invalid="ignore"):
            new = _monodromy_matrices(runaway, 4.0 * math.pi, 4096)
            ref = reference_monodromy(runaway, 4.0 * math.pi, 4096)
        assert not np.isfinite(ref).all()
        assert np.array_equal(np.isfinite(new), np.isfinite(ref))
        assert np.array_equal(new, ref, equal_nan=True)

    def test_runaway_read_out_shared_with_stability_map(self):
        # the scalar report and the map's row read one matrix the same way
        period = 4.0 * math.pi
        sys = HillSystem(
            omega_sq=lambda t: np.full_like(np.asarray(t, float), -1e4), period=period
        )
        with np.errstate(over="ignore", invalid="ignore"):
            rep = hill_monodromy(sys, n_steps=4096)
            rows = stability_map(
                lambda a, q, t: a + q * np.cos(t), period, [-1e4, 1.2], [0.0], n_steps=4096
            )
        assert rep.trace == rows[0].trace == math.inf
        assert math.isnan(rep.det) and math.isnan(rows[0].det)
        assert rep.classification == rows[0].classification == "unstable"
        assert math.isfinite(rows[1].trace) and rows[1].classification == "stable"

    def test_against_brute_force_oracle(self):
        sys = mathieu_hill(0.9, 0.2)
        rep = hill_monodromy(sys)
        oracle = monodromy_oracle(sys)
        assert np.max(np.abs(rep.matrix - oracle)) <= 1e-7


class TestMathieuStability:
    def test_small_q_away_from_resonance_is_stable(self):
        assert hill_monodromy(mathieu_hill(0.5, 0.05)).classification == "stable"
        assert hill_monodromy(mathieu_hill(2.3, 0.05)).classification == "stable"

    def test_inside_first_tongue_is_unstable(self):
        assert hill_monodromy(mathieu_hill(1.0, 0.1)).classification == "unstable"

    def test_tongue_edges_located_and_cross_checked(self):
        q = 0.1
        lo = bisect_stability_boundary(lambda a: mathieu_hill(a, q), 0.7, 1.0, tol=1e-6)
        hi = bisect_stability_boundary(lambda a: mathieu_hill(a, q), 1.0, 1.3, tol=1e-6)
        # perturbative edges a = 1 -+ q - q^2/8 + O(q^3)
        assert abs(lo - (1.0 - q - q * q / 8.0)) <= 1e-3
        assert abs(hi - (1.0 + q - q * q / 8.0)) <= 1e-3
        for edge in (lo, hi):
            trace = np.trace(monodromy_oracle(mathieu_hill(edge, q)))
            assert abs(abs(trace) - 2.0) <= 1e-6

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_bisection_needs_positive_finite_tol(self, tol):
        # tol = nan used to return the bracket midpoint, and tol <= 0 to
        # loop for ever
        with pytest.raises(ValueError, match="tol"):
            bisect_stability_boundary(lambda a: mathieu_hill(a, 0.1), 0.7, 1.0, tol=tol)

    def test_stability_map_constant_row(self):
        a_values = np.array([0.3, 0.7, 1.44, 2.1])
        rows = stability_map(
            lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t),
            math.pi,
            a_values,
            [0.0],
            n_steps=2048,
        )
        for row in rows:
            expected = 2.0 * math.cos(math.sqrt(row.param1) * math.pi)
            assert abs(row.trace - expected) <= 1e-8
            assert row.classification == "stable"

    def test_stability_map_q_zero_resonance_is_marginal(self):
        # undriven column: stable everywhere except the trace = +/-2 points
        rows = stability_map(
            lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t),
            math.pi,
            [0.5, 1.0, 1.5, 4.0],
            [0.0],
            n_steps=2048,
        )
        by_a = {r.param1: r.classification for r in rows}
        assert by_a[0.5] == "stable" and by_a[1.5] == "stable"
        assert by_a[1.0] == "marginal" and by_a[4.0] == "marginal"

    def test_stability_map_q_zero_rows_equal_scalar_runs(self):
        # a = 1e10 overflows at this step size: trace inf and det nan, as
        # hill_monodromy reports a non-finite run
        n = 512
        with np.errstate(over="ignore", invalid="ignore"):
            rows = stability_map(
                lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t),
                math.pi,
                np.append(np.linspace(0.2, 2.2, 6), 1e10),
                [0.0, 0.25],
                n_steps=n,
            )
            zero = [r for r in rows if r.param2 == 0.0]
            reps = [hill_monodromy(mathieu_hill(r.param1, 0.0), n_steps=n) for r in zero]
        assert len(zero) == 7 and zero[-1].trace == math.inf
        for row, rep in zip(zero, reps):
            assert row.trace == rep.trace
            assert row.det == rep.det or math.isnan(row.det) and math.isnan(rep.det)

    def test_stability_map_grid_shape_and_order(self):
        rows = stability_map(
            lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t),
            math.pi,
            [0.5, 1.0],
            [0.0, 0.1, 0.2],
            n_steps=512,
        )
        assert len(rows) == 6
        assert [r.param1 for r in rows[:3]] == [0.5, 0.5, 0.5]
        assert [r.param2 for r in rows[:3]] == [0.0, 0.1, 0.2]
