import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import mathieu_a, mathieu_b

from fieldosc.core import OscParams, cross_matrix, rk4_steps, rotation_about_z
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
    coriolis_elimination,
    corotating_reduction,
    fixed_axis_hill,
    frame_conjugation_defect,
    h4_evaluator,
    hill_monodromy,
    mathieu_omega_sq,
    mathieu_tongue,
    rotating_field_generator,
    rotation_ode,
    stability_map,
)
from fieldosc.tdfields import _monodromy_matrices


def rotation_ode_matrix_form(field: FixedAxisField, t: float, steps: int) -> np.ndarray:
    """`rotation_ode` on a 3x3 array: the generator matrix of each stage
    times R, through `rk4_steps`' array form."""
    J = cross_matrix((0.0, 0.0, 1.0))

    def generators(times):
        return field.rate(times)[..., None, None] * J

    for _, r in rk4_steps(lambda r, a: a @ r, generators, np.eye(3), t / steps, steps):
        pass
    return r


def rotation_ode_reference_loop(field: FixedAxisField, t: float, steps: int) -> np.ndarray:
    """The same RK4 written out step by step, one generator matrix per
    stage: the bit reference that `rotation_ode` is checked against."""
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


def mathieu_system(a: float, q: float) -> HillSystem:
    return HillSystem(lambda t: mathieu_omega_sq(a, q, t), math.pi)


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


@pytest.mark.parametrize(
    "t, steps, message",
    [
        (3.0, -5, "steps must be an integer >= 1"),
        (3.0, 0, "steps must be an integer >= 1"),
        (3.0, 2.5, "steps must be an integer >= 1"),
        (3.0, 3.0, "steps must be an integer >= 1"),
        (3.0, True, "steps must be an integer >= 1"),
        (math.nan, 5, "t must be finite"),
        (math.inf, 5, "t must be finite"),
    ],
    ids=[
        "negative-steps", "zero-steps", "fractional-steps", "float-steps", "bool-steps", "nan",
        "inf",
    ],
)
def test_rotation_ode_checks_its_inputs(t, steps, message):
    # steps = -5 used to return the identity, steps = 0 to raise
    # ZeroDivisionError, and t = nan or inf to return a NaN matrix
    field = FixedAxisField(b3=lambda t: 1.0 + 0.0 * t)
    with pytest.raises(ValueError, match=f"^{message}"):
        rotation_ode(field, t, steps)


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
        oracle = rotation_ode(field, t, 30000)
        assert np.max(np.abs(accumulated_rotation(field, t) - oracle)) <= 1e-7

    def test_uniform_agreement_over_ten_periods(self):
        period = 2.0 * math.pi / 1.3
        field = FixedAxisField(b3=lambda t: 0.8 + 0.4 * np.cos(1.3 * t))
        for frac in (0.5, 2.0, 5.0, 10.0):
            t = frac * period
            oracle = rotation_ode(field, t, int(20000 * max(frac, 1)))
            assert np.max(np.abs(accumulated_rotation(field, t) - oracle)) <= 1e-6

    @pytest.mark.parametrize(
        "const, amp, charge, mass, steps",
        [
            (1.0, 0.5, 1.0, 1.0, 1000),  # b3 > 0
            (-1.2, 0.4, 1.0, 1.0, 1000),  # b3 < 0
            (0.2, 0.6, 1.0, 1.0, 1000),  # b3 changes sign during the run
            (0.9, -0.3, -1.0, 2.5, 1000),
            (1.0, 0.5, 1.0, 1.0, 1),
            (-0.7, 0.5, 1.0, 1.0, 97),  # not a multiple of the 32-step block
            (0.0, 0.0, 1.0, 1.0, 97),  # b3 = 0: no entry moves
            (-0.0, 0.0, 1.0, 1.0, 97),
            (-0.5, 0.5, 1.0, 1.0, 97),  # the rate is exactly 0 at t = 0
        ],
    )
    def test_float_and_matrix_forms_agree(self, const, amp, charge, mass, steps):
        field = FixedAxisField(b3=lambda t: const + amp * np.cos(1.3 * t), charge=charge, mass=mass)
        floats = rotation_ode(field, 4.0, steps)
        matrix = rotation_ode_matrix_form(field, 4.0, steps)
        assert np.array_equal(floats, matrix)
        assert np.array_equal(np.signbit(floats), np.signbit(matrix))
        # only the planar block moves: the third row and column are
        # exactly (0, 0, 1), with +0.0 zeros
        edge = np.concatenate((floats[2], floats[:2, 2]))
        assert edge.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert not np.signbit(edge).any()

    def test_non_finite_field_rejected(self):
        # a NaN field strength used to give a rotation with NaN planar
        # entries and no error
        field = FixedAxisField(b3=lambda t: np.full_like(np.asarray(t, float), np.nan))
        with pytest.raises(ValueError, match="angle must be finite"):
            accumulated_rotation(field, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field",
        [
            FixedAxisField(b3=lambda t: np.where(t > 1.0, np.inf, 2.0)),
            FixedAxisField(b3=lambda t: np.full_like(np.asarray(t, float), 1e308), charge=10.0),
        ],
        ids=["infinite-after-1", "rate-overflows"],
    )
    def test_ode_rejects_a_rate_it_cannot_integrate(self, field):
        # the infinite field used to give NaN rows and no error, and the
        # overflowing rate a numpy warning; the closed form rejects both
        for rotation in (accumulated_rotation, lambda f, t: rotation_ode(f, t, 100)):
            with pytest.raises(ValueError, match="^rotation angle must be finite: q\\*B3/m"):
                rotation(field, 2.0)

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
        assert np.all(np.isfinite(h4_evaluator(field)(0.4)(z.T)))
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
            worst = max(worst, abs(float(reduced.value(mapped, t)) - float(h4(t)(z)) - rate))
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

    @pytest.mark.parametrize(
        "field",
        [
            FIELD,
            RotatingField(b1=0.5, b3=1.3, alpha=0.8),
            RotatingField(b1=1.2, b3=-0.6, alpha=0.4, charge=2.0, mass=4.0),
        ],
        ids=["base", "slow", "charged"],
    )
    def test_group_direction(self, field):
        # G(t) = exp(tM) solves G' = G M with M = reduced.coriolis; the
        # reversed group exp(-tM) misses it by 0.78 to 2.9 on these fields
        # and passed every other check.  G is read off the map's images of
        # unit positions
        reduced, _ = corotating_reduction(field)
        _, cmap = coriolis_elimination(reduced)
        units = np.zeros((3, 6))
        units[[0, 1, 2], [0, 2, 4]] = 1.0

        def group(t):
            return cmap.forward(t, units)[:, 0::2].T  # column i is G(t) e_i

        h = 1e-4
        for t in (0.3, 1.7, 4.2):
            derivative = (group(t + h) - group(t - h)) / (2.0 * h)
            assert np.max(np.abs(derivative - group(t) @ reduced.coriolis)) <= 1e-6


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
        assert np.max(np.abs(h4(0.7)(z.T) - h1(0.7)(z.T))) <= 1e-13
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
        # every entry point shares the check; -5 used to give trace 2.0 and
        # "marginal" everywhere, 0 a ZeroDivisionError, and 2.5 or 3.0 a
        # TypeError from inside the RK4 loop; True used to run one step
        for n_steps in (0, -5, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="^n_steps must be an integer >= 1"):
                hill_monodromy(mathieu_system(1.0, 0.1), n_steps)
            with pytest.raises(ValueError, match="^n_steps must be an integer >= 1"):
                stability_map(
                    lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t), math.pi, [1.0], [0.1], n_steps
                )

    def test_runaway_flagged_unstable(self):
        sys = HillSystem(
            omega_sq=lambda t: np.full_like(np.asarray(t, float), -1e4), period=math.pi
        )
        rep = hill_monodromy(sys)
        assert rep.classification == "unstable"

    @given(
        a=st.floats(0.3, 3.0),
        q=st.floats(-0.3, 0.3),
    )
    @settings(max_examples=20, deadline=None)
    def test_determinant_is_one(self, a, q):
        rep = hill_monodromy(mathieu_system(a, q), n_steps=1024)
        assert abs(rep.det - 1.0) <= 1e-8

    def test_bit_identical_to_reference_loop(self):
        a, q = np.meshgrid(np.linspace(0.2, 2.2, 21), np.linspace(0.0, 0.4, 9), indexing="ij")
        a, q = a.ravel(), q.ravel()

        def family(t):
            return a + 2.0 * q * np.cos(2.0 * t)

        batch = _monodromy_matrices(lambda t: family(t[..., None]), math.pi, 1024)
        assert batch.shape == (189, 2, 2)
        assert np.array_equal(batch, reference_monodromy(family, math.pi, 1024))
        sys = mathieu_system(1.2, 0.25)
        rep = hill_monodromy(sys, n_steps=1024)
        assert np.array_equal(rep.matrix, reference_monodromy(sys.omega_sq_values, math.pi, 1024))

    def test_stage_values_are_reused(self):
        # one call per block of 32 steps on their three stage times each,
        # k3 reusing k2's midpoint value, plus the probe of the batch shape
        times = []

        def family(t):
            times.append(t)
            return 1.2 + 0.5 * np.cos(2.0 * t)

        _monodromy_matrices(family, math.pi, 2048)
        assert len(times) == 64 + 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_omega_sq_rejected(self, bad):
        # a NaN field strength used to give a NaN monodromy classified
        # "unstable"; both entry points now raise, naming the stage times
        field = FixedAxisField(b3=lambda t: np.full_like(np.asarray(t, float), bad))
        with pytest.raises(ValueError, match="omega\\^2 must be finite"):
            hill_monodromy(fixed_axis_hill(field, 1.0), 16)
        with pytest.raises(ValueError, match="omega\\^2 must be finite"):
            stability_map(
                lambda a, q, t: a + q * np.where(t > 0.5, bad, 1.0), 1.0, [1.0, 2.0], [0.1], 16
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_omega_sq_in_last_block_named(self, bad):
        # 97 steps of 1.0 run in blocks of 32, 32, 32 and 1; w2 turns
        # non-finite at the last step's midpoint, which the message names
        def omega_sq(t):
            return np.where(t >= 96.5, bad, 1.0)

        message = "^omega\\^2 must be finite, got a non-finite value at t = 96.5$"
        with pytest.raises(ValueError, match=message):
            hill_monodromy(HillSystem(omega_sq=omega_sq, period=97.0), 97)
        with pytest.raises(ValueError, match=message):
            stability_map(lambda a, q, t: a + q * omega_sq(t), 97.0, [1.0, 2.0], [0.1], 97)

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
        rep = hill_monodromy(sys, n_steps=4096)
        rows = stability_map(
            lambda a, q, t: a + q * np.cos(t), period, [-1e4, 1.2], [0.0], n_steps=4096
        )
        assert rep.trace == rows[0].trace == math.inf
        assert math.isnan(rep.det) and math.isnan(rows[0].det)
        assert rep.classification == rows[0].classification == "unstable"
        assert math.isfinite(rows[1].trace) and rows[1].classification == "stable"

    def test_against_brute_force_oracle(self):
        sys = mathieu_system(0.9, 0.2)
        rep = hill_monodromy(sys)
        oracle = monodromy_oracle(sys)
        assert np.max(np.abs(rep.matrix - oracle)) <= 1e-7


class TestMathieuStability:
    def test_small_q_away_from_resonance_is_stable(self):
        assert hill_monodromy(mathieu_system(0.5, 0.05)).classification == "stable"
        assert hill_monodromy(mathieu_system(2.3, 0.05)).classification == "stable"

    def test_inside_first_tongue_is_unstable(self):
        assert hill_monodromy(mathieu_system(1.0, 0.1)).classification == "unstable"

    def test_tongue_edges_located_and_cross_checked(self):
        # the characteristic values b_r(q) and a_r(q) of the standard
        # Mathieu equation; its q -> -q swaps a and b for odd r only
        for r in range(1, 6):
            for q in (-3.0, -0.1, 0.0, 0.1, 0.3, 3.0, 25.0):
                lo, hi = mathieu_tongue(q, r)
                expected = sorted((float(mathieu_b(r, q)), float(mathieu_a(r, q))))
                assert lo <= hi
                assert abs(lo - expected[0]) <= 1e-13 * abs(expected[0])
                assert abs(hi - expected[1]) <= 1e-13 * abs(expected[1])
        q = 0.1
        for edge in mathieu_tongue(q, 1):
            trace = np.trace(monodromy_oracle(mathieu_system(edge, q)))
            assert abs(abs(trace) - 2.0) <= 1e-6

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 7])
    def test_tongue_at_zero_q_and_negative_q(self, r):
        assert mathieu_tongue(0.0, r) == (r * r, r * r)
        for q in (0.1, 3.0):
            assert mathieu_tongue(-q, r) == mathieu_tongue(q, r)

    @pytest.mark.parametrize("r", [0, -1, 1.0, True])
    def test_tongue_index_is_a_positive_integer(self, r):
        with pytest.raises(ValueError, match="^r must be an integer >= 1"):
            mathieu_tongue(0.1, r)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_tongue_needs_a_finite_q(self, q):
        with pytest.raises(ValueError, match="^q must be finite"):
            mathieu_tongue(q, 1)

    @pytest.mark.parametrize("n_steps", [256, 4096])
    @pytest.mark.parametrize("r", [1, 2])
    def test_rk4_classes_agree_with_exact_edges(self, r, n_steps):
        # 1e-4 outside each edge is stable and 1e-4 inside is unstable,
        # at the coarse 256 steps too: ||trace| - 2| reads 1.3e-4 to 1.7e-4
        # at r = 1 and 2.8e-6 at r = 2 (at r = 3 only 1e-8 to 3e-8)
        q = 0.3
        lo, hi = mathieu_tongue(q, r)
        for a, expected in ((lo - 1e-4, "stable"), (lo + 1e-4, "unstable"),
                            (hi - 1e-4, "unstable"), (hi + 1e-4, "stable")):
            assert hill_monodromy(mathieu_system(a, q), n_steps).classification == expected

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
        rows = stability_map(
            lambda a, q, t: a + 2.0 * q * np.cos(2.0 * t),
            math.pi,
            np.append(np.linspace(0.2, 2.2, 6), 1e10),
            [0.0, 0.25],
            n_steps=n,
        )
        zero = [r for r in rows if r.param2 == 0.0]
        reps = [hill_monodromy(mathieu_system(r.param1, 0.0), n_steps=n) for r in zero]
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
