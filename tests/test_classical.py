import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldosc import classical, core
from fieldosc.tdfields import (
    FixedAxisField,
    RotatingField,
    accumulated_rotation,
    coriolis_elimination,
    corotating_reduction,
    h4_evaluator,
)
from fieldosc.core import OscParams, block_propagate_path, block_propagator, rotation_about_z
from fieldosc.classical import (
    Drive,
    FlowBlowupError,
    StaticField,
    equivalence_report,
    forced_path,
    frame_rotation,
    h1_evaluator,
    h2_evaluator,
    moving_origin_map,
    rk4_hamiltonian_flow,
    symplectic_defect,
)

QUAD = 2000.0


def _runaway(t):
    def energy(z):
        q, p = z[0], z[1]
        return q * q * p  # dq/dt = q^2

    return energy


def _duffing(t):
    """A driven Duffing oscillator in the first (Q, P) pair.  q^4 is two
    products, not q**4: numpy's vectorised power and the C library's pow,
    which a Python float takes, may round it differently."""
    force = math.cos(t)

    def energy(z):
        q, p = z[0], z[1]
        q2 = q * q
        return 0.5 * p * p + 0.5 * q2 + 0.25 * q2 * q2 - q * force

    return energy


def _zero_coupling(t):
    """H = -x3 * p1: from an all -0.0 state the path stays at zero, and
    the signs of its zeros depend on how the plus and the minus rows each
    sign the zeros they do not displace."""
    return lambda z: -(z[4] * z[1])


def _sides_form(hamiltonian):
    """`hamiltonian(t) -> energy(z)` as the reference's `(sides, time)`
    call on interleaved states."""
    return lambda sides, time: hamiltonian(time)(np.moveaxis(sides, -1, 0))


def _reference_rk4_path(hamiltonian, z0, t, dt, fd_step=1e-5):
    """The oracle's RK4 step in its first form (displacements stacked on a
    leading axis of the state, gradient rows moved back by np.moveaxis),
    kept as the bit-for-bit reference of `rk4_hamiltonian_flow`."""
    z = np.asarray(z0, dtype=float)
    dim = z.shape[-1]
    steps = max(1, int(round(t / dt)))
    h = t / steps
    signed_eye = np.concatenate((np.eye(dim), -np.eye(dim)), axis=0)
    signed_eye = signed_eye.reshape((2 * dim,) + (1,) * (z.ndim - 1) + (dim,))

    def velocity(state, time):
        scale = fd_step * (1.0 + np.max(np.abs(state), axis=-1, keepdims=True))
        sides = state + scale * signed_eye
        energies = hamiltonian(sides, time)
        grad = (energies[:dim] - energies[dim:]) / (2.0 * np.moveaxis(scale, -1, 0))
        out = np.empty_like(state)
        out[..., 0::2] = np.moveaxis(grad[1::2], 0, -1)
        out[..., 1::2] = -np.moveaxis(grad[0::2], 0, -1)
        return out

    path = [z]
    time = 0.0
    for i in range(steps):
        k1 = velocity(z, time)
        k2 = velocity(z + 0.5 * h * k1, time + 0.5 * h)
        k3 = velocity(z + 0.5 * h * k2, time + 0.5 * h)
        k4 = velocity(z + h * k3, time + h)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        time = (i + 1) * h
        if not np.all(np.isfinite(z)):
            raise FlowBlowupError(time)
        path.append(z)
    return np.array(path)


def _reference_eval_h1(field, z):
    """The single-field H1 formula in its first form, on interleaved
    states (z[..., 0] is x1)."""
    m = field.mass
    half_rate = 0.5 * field.cyclotron_rate * m
    x1, p1 = z[..., 0], z[..., 1]
    x2, p2 = z[..., 2], z[..., 3]
    x3, p3 = z[..., 4], z[..., 5]
    v1 = p1 + half_rate * x2
    v2 = p2 - half_rate * x1
    kinetic = (v1 * v1 + v2 * v2 + p3 * p3) / (2.0 * m)
    e1, e2, e3 = field.e
    potential = -field.charge * (x1 * e1 + x2 * e2 + x3 * e3)
    return kinetic + potential


def _reference_h1(fields):
    """The batched H1 evaluator in its first form."""
    half = np.array([0.5 * f.cyclotron_rate * f.mass for f in fields])
    mass = np.array([f.mass for f in fields])
    qe = np.array([np.asarray(f.e) * f.charge for f in fields])

    def evaluate(z, t):
        x1, p1 = z[..., 0], z[..., 1]
        x2, p2 = z[..., 2], z[..., 3]
        x3, p3 = z[..., 4], z[..., 5]
        v1 = p1 + half * x2
        v2 = p2 - half * x1
        kinetic = (v1 * v1 + v2 * v2 + p3 * p3) / (2.0 * mass)
        potential = -(x1 * qe[:, 0] + x2 * qe[:, 1] + x3 * qe[:, 2])
        return kinetic + potential

    return evaluate


def fourth_order_dt(f, t, h=1e-3):
    """5-point central difference, O(h^4)."""
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


class TestDrive:
    def test_constant(self):
        d = Drive.constant((1.0, -2.0, 0.5))
        assert np.array_equal(d(3.7), [1.0, -2.0, 0.5])
        assert d(np.array([0.0, 1.0])).shape == (2, 3)
        # a zero-frequency term evaluates to the force itself, bit for bit
        rng = np.random.default_rng(3)
        force = rng.normal(size=3) * 10.0 ** rng.integers(-300, 300, size=3)
        d = Drive.constant(force)
        for t in (0.0, 3.7, -1e6):
            assert np.array_equal(d(t), force)
        out = d(rng.uniform(-50.0, 50.0, size=(4, 5)))
        assert out.shape == (4, 5, 3)
        assert np.array_equal(out, np.broadcast_to(force, out.shape))

    def test_rotating_constant_matches_rotation(self):
        vec, rate = np.array([0.4, -0.7, 0.9]), 1.3
        d = Drive.rotating_constant(vec, rate)
        for t in (0.0, 0.8, 2.9):
            expected = rotation_about_z(rate * t) @ vec
            assert np.allclose(d(t), expected, atol=1e-14)

    @pytest.mark.parametrize(
        "term",
        [
            (math.nan, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            (math.inf, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            (0.5, (1.0, math.nan, 0.0), (0.0, 0.0, 0.0)),
            (0.5, (1.0, 0.0, 0.0), (0.0, 0.0, -math.inf)),
        ],
    )
    def test_non_finite_term_rejected(self, term):
        # a nan frequency used to give nan forces, and a nan frequency
        # scale that the split-step time-scale guard let through
        with pytest.raises(ValueError, match="finite"):
            Drive.sinusoids([term])

    def test_non_finite_constant_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Drive.constant((0.0, math.inf, 0.0))

    def test_frequency_scale_skips_zero_terms(self):
        # rotating_constant always emits a planar term at its rate; with a
        # zero planar vector that term is no force, and it used to set the
        # split-step's time scale
        assert Drive.rotating_constant((0.0, 0.0, 0.3), 5.0).frequency_scale() == 0.0
        assert Drive.rotating_constant((-0.0, 0.0, 0.0), 5.0).frequency_scale() == 0.0
        assert Drive.rotating_constant((0.0, 0.1, 0.3), 5.0).frequency_scale() == 5.0
        tiny = Drive.sinusoids([(-7.0, (0.0, 0.0, 0.0), (0.0, 0.0, 5e-324))])
        assert tiny.frequency_scale() == 7.0

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_component_is_one_slot_bit_for_bit(self, axis):
        rng = np.random.default_rng(17)
        d = Drive.sinusoids(
            [(w, rng.normal(size=3), rng.normal(size=3)) for w in (0.0, 1.3, -4.1)]
            + [(2.2, (-0.0, 0.7, 0.0), (0.0, -0.0, -0.9))]
        )
        part = d.component(axis)
        for t in (0.0, 0.8, -3.7, rng.uniform(-20.0, 20.0, size=(4, 5))):
            got, full = part(t), d(t)
            assert got.shape == full.shape
            assert np.array_equal(got[..., 0], full[..., axis])
            assert np.array_equal(np.signbit(got[..., 0]), np.signbit(full[..., axis]))
            assert not got[..., 1:].any()

    def test_component_frequency_scale(self):
        # the planar term at rate 5 has no z amplitude, and the z term has
        # rate 0, so the z component is a constant force
        d = Drive.rotating_constant((0.2, 0.0, 0.3), 5.0)
        assert [d.component(axis).frequency_scale() for axis in range(3)] == [5.0, 5.0, 0.0]
        # a component with zero amplitude in every term is no force at any rate
        d = Drive.sinusoids([(3.0, (0.4, 0.0, 0.0), (0.0, 0.0, -0.0))])
        assert d.component(0).frequency_scale() == 3.0
        assert d.component(1).frequency_scale() == 0.0
        assert d.component(2).frequency_scale() == 0.0


class TestHamiltonians:
    # the evaluators read component-major states: a 1-D state unpacks as
    # it is, and a batch of interleaved states is passed transposed
    def test_h1_zero_state(self):
        field = StaticField(b3=1.2, e=(0.3, -0.1, 0.2))
        assert h1_evaluator(field)(0.0)(np.zeros(6)) == 0.0

    def test_h1_free_limit(self):
        z = np.array([0.4, 1.0, -0.2, 2.0, 0.1, -3.0])
        field = StaticField(b3=0.0, e=(0.0, 0.0, 0.0), mass=2.0)
        assert np.isclose(h1_evaluator(field)(0.0)(z), (1.0 + 4.0 + 9.0) / 4.0, atol=1e-14)

    def test_h3_zero(self):
        assert h2_evaluator(OscParams(1.0, 2.0), Drive.zero())(0.0)(np.zeros(6)) == 0.0

    def test_h2_equals_h3_without_drive(self):
        # H3 is H2 at the zero drive: it does not depend on t
        h3 = h2_evaluator(OscParams(1.3, 0.9), Drive.zero())
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 6))
        energies = h3(0.0)(z.T)
        assert energies.shape == (5,)
        for t in (1.7, -3.2, 1e6):
            assert np.array_equal(h3(t)(z.T), energies)

    def test_h3_conserved_along_closed_form(self):
        params = OscParams(1.0, 1.4)
        z0 = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.6])
        times = np.linspace(0.0, 8.0, 401)
        path = block_propagate_path(params, z0, times)
        energies = h2_evaluator(params, Drive.zero())(0.0)(path.T)
        assert np.max(np.abs(energies - energies[0])) <= 1e-10

    def test_h1_maps_to_h2_with_generating_rate(self):
        # H2(map(t, z), t) - H1(z) must equal the time derivative of the
        # generating function, computed here by finite differences
        field = StaticField(b3=1.9, e=(0.15, -0.32, 0.21))
        params = field.osc_params
        frame = frame_rotation(field.frame_rate)
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = rng.normal(scale=0.8, size=6)
            t = rng.uniform(0.1, 3.0)
            mapped = frame.forward(t, z)
            p_new = mapped[1::2]

            def gen(tt):
                c, s = math.cos(field.frame_rate * tt), math.sin(field.frame_rate * tt)
                # <x_planar, G(tt)^-1 P_planar> + x3 P3
                px = c * p_new[0] + s * p_new[1]
                py = -s * p_new[0] + c * p_new[1]
                return z[0] * px + z[2] * py + z[4] * p_new[2]

            lhs = h2_evaluator(params, field.rotated_drive())(t)(mapped)
            rhs = h1_evaluator(field)(t)(z) + fourth_order_dt(gen, t, h=1e-4)
            assert abs(lhs - rhs) <= 1e-10


def driven_path(params, drive, z0, times):
    """The driven oscillator's exact path as the CLI's trajectory artifact
    computes it: the homogeneous orbit plus the forced path."""
    return block_propagate_path(params, z0, times) + forced_path(params, drive, times)


def driven_state(params, drive, z0, t):
    """`driven_path` at time t, on a grid of QUAD panels per unit time."""
    times = np.linspace(0.0, t, core.simpson_panels(QUAD, t) + 1)
    return driven_path(params, drive, z0, times)[-1]


class TestSolveDriven:
    # the driven oscillator H2 is the plain one plus the forced path
    def test_no_drive_reduces_to_propagator(self):
        params = OscParams(1.0, 1.7)
        z0 = np.array([0.2, -0.4, 0.6, 0.1, -0.3, 0.5])
        t = 2.3
        sol = driven_state(params, Drive.zero(), z0, t)
        assert np.allclose(sol, block_propagator(params, t) @ z0, atol=1e-13)
        # the forced part of the solution is the moving origin
        mover = moving_origin_map(params, Drive.zero(), QUAD)
        assert np.allclose(mover.q_nh(t), 0.0, atol=1e-13)
        assert np.allclose(mover.p_nh(t), 0.0, atol=1e-13)

    def test_constant_axial_force(self):
        # free particle under force F: Q3 = F t^2 / 2, P3 = F t
        force = 0.8
        sol = driven_state(
            OscParams(1.0, 0.0), Drive.constant((0.0, 0.0, force)), np.zeros(6), 2.0
        )
        assert abs(sol[4] - force * 2.0**2 / 2.0) <= 1e-12
        assert abs(sol[5] - force * 2.0) <= 1e-12

    def test_matches_rk4_oracle_for_sinusoidal_drive(self):
        params = OscParams(1.0, 1.1)
        drive = Drive.sinusoids([(0.9, (0.3, 0.0, 0.1), (0.0, 0.2, 0.0))])
        z0 = np.array([0.5, 0.0, -0.2, 0.3, 0.1, -0.4])
        horizon = 10.0
        times, path = rk4_hamiltonian_flow(h2_evaluator(params, drive), z0, horizon, 1e-3)
        # at every one of the oracle's samples
        assert np.max(np.abs(driven_path(params, drive, z0, times) - path)) <= 1e-6

    def test_linearity_in_drive(self):
        params = OscParams(1.0, 0.8)
        d1 = Drive.constant((0.2, -0.1, 0.3))
        d2 = Drive.sinusoids([(1.4, (0.0, 0.25, 0.0), (0.1, 0.0, 0.0))])
        both = Drive.sinusoids(
            [(0.0, (0.2, -0.1, 0.3), (0.0, 0.0, 0.0)), (1.4, (0.0, 0.25, 0.0), (0.1, 0.0, 0.0))]
        )
        z0 = np.array([0.1, 0.2, 0.3, -0.1, 0.0, 0.4])
        t = 3.0
        base = driven_state(params, Drive.zero(), z0, t)
        s1 = driven_state(params, d1, z0, t)
        s2 = driven_state(params, d2, z0, t)
        s12 = driven_state(params, both, z0, t)
        assert np.max(np.abs((s12 - base) - ((s1 - base) + (s2 - base)))) <= 1e-10

    def test_homogeneous_invariant(self):
        params = OscParams(1.3, 0.7)
        z0 = np.array([0.4, -0.6, 0.2, 0.5, -0.1, 0.3])
        times = np.linspace(0.0, 12.0, 801)
        path = block_propagate_path(params, z0, times)
        m, w = params.mass, params.omega
        form = (
            m * w * w * (path[:, 0] ** 2 + path[:, 2] ** 2)
            + (path[:, 1] ** 2 + path[:, 3] ** 2 + path[:, 5] ** 2) / m
        )
        assert np.max(np.abs(form - form[0])) <= 1e-10


class TestRotatingFrameMap:
    def test_identity_at_zero_time(self):
        frame = frame_rotation(StaticField(b3=2.2).frame_rate)
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert np.array_equal(frame.forward(0.0, z), z)
        assert frame.phase_A(1.0) == 0.0

    def test_half_turn_negates_planar(self):
        field = StaticField(b3=2.0)
        t = 2.0 * math.pi / field.cyclotron_rate  # frame angle = pi
        z = np.array([0.3, -0.2, 0.5, 0.1, 0.7, -0.4])
        out = frame = frame_rotation(field.frame_rate).forward(t, z)
        assert np.allclose(out[:4], -z[:4], atol=1e-13)
        assert np.allclose(out[4:], z[4:], atol=0)

    def test_rotated_field_matches_half_angle_rotation(self):
        field = StaticField(b3=1.6, e=(0.2, -0.3, 0.4), charge=1.5)
        drive = field.rotated_drive()
        for t in (0.0, 0.9, 2.7):
            expected = 1.5 * (rotation_about_z(field.frame_rate * t) @ np.array(field.e))
            assert np.allclose(drive(t), expected, atol=1e-14)

    def test_time_array_matches_scalar_calls(self):
        field = StaticField(b3=-2.3, e=(0.1, 0.2, -0.1), charge=0.7)
        frame = frame_rotation(field.frame_rate)
        times = np.linspace(0.0, 4.0, 41)
        path = np.random.default_rng(3).normal(size=(41, 6))
        rows = np.array([frame.forward(t, z) for t, z in zip(times, path)])
        assert np.array_equal(frame.forward(times, path), rows)
        rows = np.array([frame.inverse(t, z) for t, z in zip(times, path)])
        assert np.array_equal(frame.inverse(times, path), rows)

    @pytest.mark.parametrize("rate", [1.3, -0.7])
    def test_frame_rotation_turns_pairs_by_rate_times_t(self, rate):
        frame = frame_rotation(rate)
        z = np.array([0.3, -0.2, 0.5, 0.1, 0.7, -0.4])
        t = 0.9
        r = rotation_about_z(rate * t)
        out = frame.forward(t, z)
        assert np.allclose(out[0::2], r @ z[0::2], atol=1e-15)
        assert np.allclose(out[1::2], r @ z[1::2], atol=1e-15)
        assert np.allclose(frame.inverse(t, out), z, atol=1e-15)

    @given(t=st.floats(0.0, 5.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_symplectic(self, t, seed):
        frame = frame_rotation(StaticField(b3=1.8).frame_rate)
        z = np.random.default_rng(seed).normal(size=6)
        assert symplectic_defect(frame.forward, t, z) <= 1e-9


class TestMovingOriginMap:
    def test_identity_without_drive(self):
        mover = moving_origin_map(OscParams(1.0, 1.2), Drive.zero(), QUAD)
        z = np.array([0.5, -0.1, 0.2, 0.3, -0.4, 0.6])
        assert np.allclose(mover.forward(2.0, z), z, atol=1e-13)
        assert mover.phase_A(2.0) == pytest.approx(0.0, abs=1e-13)

    def test_identity_at_zero_time(self):
        drive = Drive.constant((0.3, 0.1, -0.2))
        mover = moving_origin_map(OscParams(1.0, 0.9), drive, QUAD)
        z = np.array([0.5, -0.1, 0.2, 0.3, -0.4, 0.6])
        assert np.array_equal(mover.forward(0.0, z), z)
        assert np.array_equal(mover.q_nh(0.0), np.zeros(3))
        assert np.array_equal(mover.p_nh(0.0), np.zeros(3))
        assert mover.phase_A(0.0) == 0.0

    def test_constant_force_phase(self):
        # free particle pushed by F: the accumulated action is F^2 t^3 / 3
        force = 0.7
        mover = moving_origin_map(
            OscParams(1.0, 0.0), Drive.constant((0.0, 0.0, force)), QUAD
        )
        for t in (0.5, 1.0, 2.0):
            assert abs(mover.phase_A(t) - force**2 * t**3 / 3.0) <= 1e-9

    def test_phase_rate_matches_lagrangian(self):
        params = OscParams(1.0, 1.3)
        drive = Drive.rotating_constant((0.25, -0.1, 0.15), 0.65)
        mover = moving_origin_map(params, drive, QUAD)
        for t in (0.8, 1.9):
            rate = fourth_order_dt(mover.phase_A, t, h=1e-3)
            q = mover.q_nh(t)
            p = mover.p_nh(t)
            k = drive(t)
            lagrangian = (
                np.sum(p**2) / (2.0 * params.mass)
                - 0.5 * params.mass * params.omega**2 * (q[0] ** 2 + q[1] ** 2)
                + float(q @ k)
            )
            assert abs(rate - lagrangian) <= 1e-7

    def test_round_trip(self):
        drive = Drive.rotating_constant((0.3, 0.2, -0.1), 0.8)
        mover = moving_origin_map(OscParams(1.0, 1.1), drive, QUAD)
        rng = np.random.default_rng(11)
        for t in (0.3, 1.7, 4.2):
            z = rng.normal(size=6)
            assert np.max(np.abs(mover.inverse(t, mover.forward(t, z)) - z)) <= 1e-10

    @given(t=st.floats(0.0, 4.0), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_symplectic(self, t, seed):
        drive = Drive.constant((0.2, -0.3, 0.1))
        mover = moving_origin_map(OscParams(1.0, 0.9), drive, QUAD)
        z = np.random.default_rng(seed).normal(size=6)
        assert symplectic_defect(mover.forward, t, z) <= 1e-8

    def test_origin_is_read_only(self):
        mover = moving_origin_map(OscParams(1.0, 1.0), Drive.constant((1.0, 0.0, 0.0)), QUAD)
        for part in (mover.q_nh(1.0), mover.p_nh(1.0)):
            with pytest.raises(ValueError):
                part[0] = 99.0
        # unit force from rest: Q1(t) = 1 - cos(t)
        assert mover.forward(1.0, np.zeros(6))[0] == pytest.approx(math.cos(1.0) - 1.0)

    def test_one_forced_pass_per_time(self, monkeypatch):
        calls = []
        original = classical._forced_path_on

        def counted(times, params, drive):
            calls.append(times[-1])
            return original(times, params, drive)

        monkeypatch.setattr(classical, "_forced_path_on", counted)
        mover = moving_origin_map(OscParams(1.0, 1.1), Drive.constant((0.3, 0.2, -0.1)), QUAD)
        z = np.ones(6)
        for t in (1.5, 2.0):
            mover.forward(t, z)
            mover.inverse(t, z)
            mover.q_nh(t)
            mover.p_nh(t)
            mover.phase_A(t)
        assert calls == [1.5, 2.0]


class TestSubnormalFrequency:
    # w = 5e-324 makes m w and w t subnormal; w = 1e-300 keeps m w normal,
    # but w t underflows to exactly 0 at t = 1e-30.  The paths must keep
    # the free-particle limit instead of a quotient of quantised values
    cases = ((OscParams(1.0, 5e-324), 2.5), (OscParams(1.0, 1e-300), 1e-30))

    def test_block_propagate_path_keeps_free_limit(self):
        for params, t in self.cases:
            out = block_propagate_path(params, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0), [t])
            assert out[0, 0] == pytest.approx(t, rel=1e-15, abs=0.0)
            assert out[0, 1] == 1.0

    def test_forced_path_keeps_free_limit(self):
        for params, t in self.cases:
            times = np.linspace(0.0, t, 33)
            out = forced_path(params, Drive.constant((1.0, 0.0, 0.0)), times)
            # unit force from rest: Q1 = t^2 / 2, P1 = t
            assert out[-1, 0] == pytest.approx(t * t / 2.0, rel=1e-14, abs=0.0)
            assert out[-1, 1] == pytest.approx(t, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mass", [1.3, 0.7])
    def test_zero_omega_is_the_subnormal_limit(self, mass):
        # w = 0 is the free particle, which is also the w -> 0 limit that
        # the subnormal w computes: both take one planar formula, bit for bit
        z = (0.3, -0.7, 0.1, 0.9, 0.2, -0.4)
        drive = Drive.sinusoids([(0.9, (0.3, -0.2, 0.1), (0.05, 0.1, 0.0))])
        zero, tiny = OscParams(mass, 0.0), OscParams(mass, 5e-324)
        times = np.linspace(0.0, 2.5, 11)
        assert np.array_equal(
            block_propagate_path(zero, z, times), block_propagate_path(tiny, z, times)
        )
        times = np.linspace(0.0, 2.5, 65)
        assert np.array_equal(forced_path(zero, drive, times), forced_path(tiny, drive, times))


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestAxialPair:
    # the axial (Q3, P3) pair is a planar pair at omega = 0: moved into the
    # (Q1, P1) slot and run at OscParams(m, 0.0), it has the same bits,
    # the sign of every zero included
    @pytest.mark.parametrize("omega", [0.4, 1.0, 2.7])
    @pytest.mark.parametrize("mass", [1.0, 1.3, 0.7])
    def test_block_propagate_path(self, mass, omega):
        rng = np.random.default_rng(17)
        z = rng.normal(size=(40, 6))
        z[:4, 4:6] = [[-0.0, -0.0], [0.0, -0.0], [-0.5, -0.0], [0.5, 0.0]]
        moved = np.zeros_like(z)
        moved[:, 0:2] = z[:, 4:6]
        times = np.linspace(0.0, 3.0, 17)
        axial = block_propagate_path(OscParams(mass, omega), z, times)[..., 4:6]
        planar = block_propagate_path(OscParams(mass, 0.0), moved, times)[..., 0:2]
        assert_same_bits(axial, planar)

    @pytest.mark.parametrize("omega", [0.4, 1.0, 2.7])
    @pytest.mark.parametrize("mass", [1.0, 1.3, 0.7])
    def test_forced_path(self, mass, omega):
        terms = [
            (0.9, (0.3, -0.2, 0.7), (0.05, 0.1, -0.4)),
            (0.0, (0.0, 0.0, -0.3), (0.0, 0.0, 0.0)),
            (2.2, (0.1, 0.0, 0.25), (0.0, 0.4, 0.6)),
        ]
        moved = [(w, (ca[2], 0.0, 0.0), (sa[2], 0.0, 0.0)) for w, ca, sa in terms]
        times = np.linspace(0.0, 2.5, 65)
        axial = forced_path(OscParams(mass, omega), Drive.sinusoids(terms), times)[:, 4:6]
        planar = forced_path(OscParams(mass, 0.0), Drive.sinusoids(moved), times)[:, 0:2]
        assert_same_bits(axial, planar)


def _ufunc_block_path(params, z0, times):
    """`block_propagate_path` with every group's cosine and sine taken by
    `np.cos` and `np.sin`, the ω = 0 group's included."""
    z0, times = np.asarray(z0, dtype=float), np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(times.shape + z0.shape)
    pad = (...,) + (None,) * (z0.ndim - 1)
    for pairs, group, *_ in core._pair_groups(params, 0.0):
        m, w = group.mass, group.omega
        c, s = np.cos(w * times)[pad], np.sin(w * times)
        upper, s = core._sin_over_mw(group, times, s)[pad], s[pad]
        for axis in pairs:
            q, p = z0[..., 2 * axis], z0[..., 2 * axis + 1]
            out[..., 2 * axis] = c * q + upper * p
            out[..., 2 * axis + 1] = -m * w * s * q + c * p
    return out


def _ufunc_forced_path(params, drive, times):
    """`forced_path` with every group's cosine and sine taken by `np.cos`
    and `np.sin`, the ω = 0 group's included."""
    dt = times[1] - times[0]
    k = drive(times)
    out = np.empty((times.size, 6))
    for pairs, group, *_ in core._pair_groups(params, 0.0):
        m, w = group.mass, group.omega
        c, s = np.cos(w * times), np.sin(w * times)
        upper = core._sin_over_mw(group, times, s)
        for axis in pairs:
            kx = k[:, axis]
            c1 = core.cumulative_simpson(core._sin_over_mw(group, times, s, -kx), dt)
            c2 = core.cumulative_simpson(c * kx, dt)
            out[:, 2 * axis] = c * c1 + upper * c2
            out[:, 2 * axis + 1] = -m * w * s * c1 + c * c2
    return out


class TestZeroFrequencyGroup:
    # the ω = 0 group's cosine is 1 and its sine is its argument w t, ±0:
    # the paths skip both ufuncs and keep every bit, the sign of each zero
    # and negative times included
    @pytest.mark.parametrize("omega", [0.0, 1.3])
    @pytest.mark.parametrize("mass", [1.0, 0.7])
    def test_block_propagate_path(self, mass, omega):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(40, 6))
        z[:4, :] = [[-0.0] * 6, [0.0, -0.0] * 3, [-0.5, -0.0] * 3, [0.5, 0.0] * 3]
        times = np.concatenate([np.linspace(-3.0, 3.0, 17), [0.0, -0.0]])
        params = OscParams(mass, omega)
        for z0 in (z, z[5]):
            assert_same_bits(
                block_propagate_path(params, z0, times), _ufunc_block_path(params, z0, times)
            )
        # times of any shape, padded once for the batch axes of the states
        grid, batch = times[-15:].reshape(3, 5), z[:24].reshape(4, 6, 6)
        assert_same_bits(
            block_propagate_path(params, batch, grid), _ufunc_block_path(params, batch, grid)
        )

    @pytest.mark.parametrize("omega", [0.0, 1.3])
    @pytest.mark.parametrize("end", [2.5, -2.5])
    def test_forced_path(self, end, omega):
        drive = Drive.sinusoids(
            [(0.9, (0.3, -0.2, 0.7), (0.05, 0.1, -0.4)), (0.0, (0.0, 0.0, -0.3), (0.0, 0.0, 0.0))]
        )
        params = OscParams(0.7, omega)
        times = np.linspace(0.0, end, 65)
        expected = _ufunc_forced_path(params, drive, times)
        assert_same_bits(forced_path(params, drive, times), expected)


def _two_call_path_and_action(times, params, drive):
    """The moving origin and its action as two calls made them: the forced
    path from one evaluation of the drive, then the Lagrangian along it
    from a second evaluation on the same grid."""
    dt = times[1] - times[0]
    k = drive(times)
    path = np.empty((times.size, 6))
    for pairs, group, *_ in core._pair_groups(params, 0.0):
        m, w = group.mass, group.omega
        x = w * times
        c, s = (1.0, x) if w == 0.0 else (np.cos(x), np.sin(x))
        upper = core._sin_over_mw(group, times, s)
        for axis in pairs:
            kx = k[:, axis]
            c1 = core.cumulative_simpson(core._sin_over_mw(group, times, s, -kx), dt)
            c2 = core.cumulative_simpson(c * kx, dt)
            path[:, 2 * axis] = c * c1 + upper * c2
            path[:, 2 * axis + 1] = -m * w * s * c1 + c * c2
    m, w = params.mass, params.omega
    q, p = path[:, 0::2], path[:, 1::2]
    k = drive(times)
    lagrangian = (
        np.sum(p * p, axis=-1) / (2.0 * m)
        - 0.5 * m * w * w * (q[:, 0] ** 2 + q[:, 1] ** 2)
        + np.sum(q * k, axis=-1)
    )
    return path, core.cumulative_simpson(lagrangian, times[1] - times[0])


_FIELD = StaticField(b3=2.1, e=(0.1, -0.2, 0.15), charge=0.8, mass=1.3)
_PATH_CASES = {
    "oscillator": (OscParams(0.7, 1.3), Drive.sinusoids(
        [(0.9, (0.3, -0.2, 0.7), (0.05, 0.1, -0.4)), (0.0, (0.0, 0.0, -0.3), (0.0, 0.0, 0.0))]
    )),
    "free": (OscParams(1.2, 0.0), Drive.sinusoids(
        [(2.2, (0.1, 0.0, 0.25), (0.0, 0.4, 0.6)), (0.0, (0.2, -0.1, 0.0), (0.0, 0.0, 0.0))]
    )),
    "rotating": (_FIELD.osc_params, _FIELD.rotated_drive()),
}


class TestForcedPathAndAction:
    # the moving origin and its action come from one function and one
    # evaluation of the drive, bit for bit the two-call form
    @pytest.mark.parametrize("end", [3.0, -1.5])
    @pytest.mark.parametrize("case", sorted(_PATH_CASES))
    def test_matches_two_call_form(self, case, end):
        params, drive = _PATH_CASES[case]
        times = np.linspace(0.0, end, 129)
        path, action = classical._forced_path_on(times, params, drive)
        expected_path, expected_action = _two_call_path_and_action(times, params, drive)
        assert_same_bits(path, expected_path)
        assert_same_bits(action, expected_action)
        assert_same_bits(forced_path(params, drive, times), expected_path)

    @pytest.mark.parametrize("case", sorted(_PATH_CASES))
    def test_drive_evaluated_once(self, case):
        params, drive = _PATH_CASES[case]
        calls = []

        def counted(t):
            calls.append(np.shape(t))
            return drive(t)

        classical._forced_path_on(np.linspace(0.0, 2.0, 65), params, counted)
        assert calls == [(65,)]
        # a moving origin reads the drive once for each new time
        mover = moving_origin_map(params, counted, QUAD)
        mover.forward(1.5, np.zeros(6))
        mover.phase_A(1.5)
        assert len(calls) == 2


class TestRK4Oracle:
    def test_free_particle_exact(self):
        params = OscParams(1.0, 0.0)
        z0 = np.array([0.2, 1.0, -0.5, 0.4, 0.3, -0.7])
        out = rk4_hamiltonian_flow(h2_evaluator(params, Drive.zero()), z0, 1.0, 1e-2)[1][-1]
        expected = block_propagator(params, 1.0) @ z0
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_oscillator_vs_closed_form(self):
        params = OscParams(1.0, 1.3)
        z0 = np.array([0.4, -0.2, 0.1, 0.5, -0.3, 0.2])
        out = rk4_hamiltonian_flow(h2_evaluator(params, Drive.zero()), z0, 1.0, 1e-4)[1][-1]
        expected = block_propagator(params, 1.0) @ z0
        assert np.max(np.abs(out - expected)) <= 1e-8

    def test_batched_states(self):
        params = OscParams(1.0, 0.9)
        rng = np.random.default_rng(5)
        z0 = rng.normal(size=(4, 6))
        out = rk4_hamiltonian_flow(h2_evaluator(params, Drive.zero()), z0, 0.8, 1e-3)[1][-1]
        expected = z0 @ block_propagator(params, 0.8).T
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_blowup_reported(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FlowBlowupError):
                rk4_hamiltonian_flow(_runaway, np.array([1.0, 0, 0, 0, 0, 0]), 5.0, 1e-2)

    @pytest.mark.parametrize(
        "t, dt, name",
        [
            (-5.0, 1e-3, "t"),
            (math.inf, 1e-3, "t"),
            (math.nan, 1e-3, "t"),
            (1.0, math.inf, "dt"),
            (1.0, math.nan, "dt"),
            (1.0, 0.0, "dt"),
            (1.0, -1e-3, "dt"),
        ],
    )
    def test_bad_horizon_rejected(self, t, dt, name):
        # t = -5 used to take one backward step of h = -5, dt = inf one
        # step of the whole horizon, and t = inf an OverflowError
        z0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"^{name} must"):
            rk4_hamiltonian_flow(h2_evaluator(OscParams(1.0, 1.0), Drive.zero()), z0, t, dt)

    def test_bit_identical_to_reference_step(self):
        rng = np.random.default_rng(8)
        fields = [
            StaticField(b3=-5.5, e=(0.12, -0.05, 0.2)),
            StaticField(b3=2.0, e=(-0.1, 0.3, 0.0), charge=1.7, mass=0.8),
            StaticField(b3=7.1, e=(0.0, 0.15, -0.2), charge=-0.6, mass=1.3),
        ]
        h3 = h2_evaluator(OscParams(1.3, 0.9), Drive.zero())

        # the CLI's case: one charge-1 field, no batch axis
        single = StaticField(b3=2.3, e=(0.05, -0.12, 0.08), mass=0.9)
        cases = (
            (h1_evaluator(fields), _reference_h1(fields), rng.uniform(-0.5, 0.5, (3, 6))),
            (h3, _sides_form(h3), rng.normal(size=(2, 3, 6))),
            (_duffing, _sides_form(_duffing), np.array([0.4, -0.0, 0.0, 0.0, 0.0, 0.0])),
            (_zero_coupling, _sides_form(_zero_coupling), np.full(6, -0.0)),
            (_zero_coupling, _sides_form(_zero_coupling), np.full((2, 3, 6), -0.0)),
            (
                h1_evaluator(single),
                lambda z, t: _reference_eval_h1(single, z),
                rng.uniform(-0.5, 0.5, 6),
            ),
        )
        for hamiltonian, reference_h, z0 in cases:
            _, path = rk4_hamiltonian_flow(hamiltonian, z0, 0.3, 1e-3)
            reference = _reference_rk4_path(reference_h, z0, 0.3, 1e-3)
            assert path.shape == (301,) + z0.shape
            assert np.array_equal(path, reference)
            assert np.array_equal(np.signbit(path), np.signbit(reference))

        # the per-step finiteness check fires at the same step
        runaway_z0 = np.array([1.0, 0, 0, 0, 0, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FlowBlowupError) as fired:
                rk4_hamiltonian_flow(_runaway, runaway_z0, 5.0, 1e-2)
            with pytest.raises(FlowBlowupError) as expected:
                _reference_rk4_path(_sides_form(_runaway), runaway_z0, 5.0, 1e-2)
        assert fired.value.time == expected.value.time

    @pytest.mark.parametrize("case", ["h1", "h2-sinusoid", "h4", "duffing", "signed-zeros"])
    def test_one_state_matches_batch_of_one(self, case):
        # one state takes the Python-float gradient, a batch the stacked
        # array one: the same path in every bit, the signs of zeros included
        field = StaticField(b3=-3.7, e=(0.2, -0.0, 0.11), charge=1.4, mass=0.7)
        drive = Drive.sinusoids(
            [(1.7, (0.3, -0.2, 0.1), (0.05, 0.0, -0.4)), (0.0, (0.0, 0.1, -0.0), (0.0, 0.0, 0.0))]
        )
        rotating = RotatingField(
            b1=0.6,
            b3=-1.9,
            alpha=1.3,
            e0=Drive.sinusoids([(0.8, (-0.0, 0.25, -0.1), (0.15, -0.0, -0.0))]),
            charge=-1.3,
            mass=0.6,
        )
        hamiltonian, z0 = {
            "h1": (h1_evaluator(field), np.array([0.3, -0.0, 0.15, 0.4, -0.1, 0.25])),
            "h2-sinusoid": (
                h2_evaluator(OscParams(1.2, 0.8), drive),
                np.array([-0.2, 0.5, -0.0, 0.1, 0.3, -0.0]),
            ),
            "h4": (h4_evaluator(rotating), np.array([0.1, -0.0, -0.3, 0.2, -0.0, 0.4])),
            "duffing": (_duffing, np.array([0.4, -0.0, 0.0, -0.0, -0.0, 0.0])),
            "signed-zeros": (_zero_coupling, np.full(6, -0.0)),
        }[case]
        times, one = rk4_hamiltonian_flow(hamiltonian, z0, 0.5, 1e-3)
        batch_times, batch = rk4_hamiltonian_flow(hamiltonian, z0[None], 0.5, 1e-3)
        assert one.shape == (501, 6)
        assert np.array_equal(times, batch_times)
        assert np.array_equal(one, batch[:, 0])
        assert np.array_equal(np.signbit(one), np.signbit(batch[:, 0]))
        if case in ("duffing", "signed-zeros"):
            # components that stay zero, some of them -0.0
            assert (np.signbit(one) & (one == 0.0)).any()

    @pytest.mark.parametrize(
        "y, k, f",
        [
            # stage components -0.0 + f * -0.0, 0.0 + f * -0.0, -0.0 + f * 0.0
            ([-0.0, 0.0, -0.0, 0.3, -0.2, 0.1], [-0.0, -0.0, 0.0, 0.7, 1.1, -0.4], 0.5e-3),
            ([0.4, -0.0, -0.0, -0.25, 0.0, 1.5], [-2.0, -0.0, 0.5, -0.0, -0.0, 0.3], 1e-3),
            ([0.4, -0.0, -0.0, -0.25, 0.0, 1.5], [-2.0, 3.0, -0.5, -0.0, 0.0, 0.3], 0.0),
        ],
    )
    def test_one_state_velocity_forms_its_stage(self, y, k, f):
        # the gradient at the stage y + f * k equals the gradient at that
        # stage formed beforehand, and `energy` is handed equal lists, in
        # every bit (float.hex tells -0.0 from 0.0)
        stage = [a + f * b for a, b in zip(y, k)]
        assert {math.copysign(1.0, v) for v in stage if v == 0.0} == {-1.0, 1.0}
        energy = h1_evaluator(StaticField(b3=-2.3, e=(0.2, -0.0, 0.11), mass=0.8))(0.0)

        def gradient(state, k, f):
            seen = []

            def recording(z):
                seen.append([v.hex() for v in z])
                return energy(z)

            velocity = classical._one_state_velocity(state, recording, k, f)
            return [v.hex() for v in velocity], seen

        in_place, formed = gradient(y, k, f), gradient(stage, None, 0.0)
        assert len(formed[1]) == 12
        assert in_place == formed

    def test_oracle_stage_times(self):
        # 97 steps cross rk4_steps' 32-step block boundaries, which one
        # state and a batch both step through
        steps = 97
        h = 0.97 / steps
        z0 = np.array([0.4, -0.1, 0.0, 0.0, 0.0, 0.0])
        one, batch = [], []
        for z, seen in ((z0, one), (z0[None], batch)):
            times, _ = rk4_hamiltonian_flow(
                lambda t: seen.append(t) or _duffing(t), z, 0.97, 1e-2
            )
            assert times.size == steps + 1
        expected = sorted(i * h + offset for i in range(steps) for offset in (0.0, h / 2, h))
        assert len(one) == len(batch) == 3 * steps
        assert all(type(t) is float for t in one + batch)
        assert sorted(one) == sorted(batch) == expected

    def test_one_state_blowup_matches_batch(self):
        z0 = np.array([1.0, 0, 0, 0, 0, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FlowBlowupError) as one:
                rk4_hamiltonian_flow(_runaway, z0, 5.0, 1e-2)
            with pytest.raises(FlowBlowupError) as batch:
                rk4_hamiltonian_flow(_runaway, z0[None], 5.0, 1e-2)
        assert one.value.time == batch.value.time


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "horizon, dt, message",
        [
            (1.0, 0.0, "^dt must"),
            (1.0, math.nan, "^dt must"),
            (math.nan, 1e-3, "^t must"),
            (math.inf, 1e-3, "^t must"),
            (0.0, 1e-3, "^horizon must"),
        ],
    )
    def test_bad_horizon_or_step_rejected(self, horizon, dt, message):
        # the report takes its step count from the integrators' step rule:
        # dt = 0 used to raise ZeroDivisionError, a NaN "cannot convert
        # float NaN to integer", and horizon = 0 a message naming dt
        with pytest.raises(ValueError, match=message):
            equivalence_report(StaticField(b3=1.0), np.zeros(6), horizon, dt=dt)

    def test_report_makes_one_forced_pass_per_time(self, monkeypatch):
        calls = []
        original = classical._forced_path_on

        def counted(times, params, drive):
            calls.append(times.size)
            return original(times, params, drive)

        monkeypatch.setattr(classical, "_forced_path_on", counted)
        field = StaticField(b3=1.5, e=(0.1, -0.05, 0.02))
        equivalence_report(field, np.full(6, 0.1), 0.5, dt=1e-2)
        # the oracle's grid once (origin and phase together), then one
        # grid per symplectic sample (20 of them)
        assert len(calls) == 21 and calls[0] == 51

    def test_chain_lands_on_oscillator_orbit(self):
        field = StaticField(b3=2.3, e=(0.05, -0.12, 0.08))
        params = field.osc_params
        z0 = np.array([0.3, -0.2, 0.15, 0.4, -0.1, 0.25])
        horizon = 3.0
        times, path = rk4_hamiltonian_flow(h1_evaluator(field), z0, horizon, 1e-3)
        frame = frame_rotation(field.frame_rate)
        mover = moving_origin_map(params, field.rotated_drive(), 1000.0)
        reference = block_propagate_path(params, z0, times)
        for idx in (300, 1500, 3000):
            mapped = mover.forward(times[idx], frame.forward(times[idx], path[idx]))
            assert np.max(np.abs(mapped - reference[idx])) <= 1e-6

    def test_report_trivial_field(self):
        rep = equivalence_report(
            StaticField(b3=0.0), np.array([0.1, 0.2, -0.3, 0.4, 0.5, -0.6]), 2.0, dt=1e-3
        )
        assert rep.max_deviation <= 1e-8
        assert rep.phase_max_abs == 0.0

    def test_report_magnetic_only_has_no_phase(self):
        rep = equivalence_report(
            StaticField(b3=1.7), np.array([0.3, -0.1, 0.2, 0.4, 0.0, 0.5]), 3.0, dt=1e-3
        )
        assert rep.phase_max_abs == 0.0
        assert rep.max_deviation <= 1e-6

    def test_report_generic_field(self):
        rep = equivalence_report(
            StaticField(b3=2.1, e=(0.1, -0.2, 0.15)),
            np.array([0.2, 0.3, -0.1, 0.1, 0.4, -0.2]),
            3.0,
            dt=1e-3,
        )
        assert rep.max_deviation <= 1e-6
        assert rep.invariant_drift <= 1e-10
        assert rep.symplectic_defect_rotating <= 1e-8
        assert rep.symplectic_defect_moving <= 1e-8
        assert rep.phase_max_abs > 0.0


def _state_takers() -> dict:
    """Every evaluator and map that takes a phase state, as z -> result."""
    field = StaticField(b3=1.3, e=(0.1, -0.2, 0.05))
    params, drive = field.osc_params, field.rotated_drive()
    reduced, corotating = corotating_reduction(RotatingField(b1=0.7, b3=1.1, alpha=0.9))
    _, coriolis = coriolis_elimination(reduced)
    takers = {
        "block_propagate_path": lambda z: block_propagate_path(params, z, [0.0, 0.3]),
        "driven-path": lambda z: driven_path(params, drive, z, np.linspace(0.0, 0.3, 33)),
        "symplectic_defect": lambda z: symplectic_defect(lambda t, y: y, 0.3, z),
        # a Hamiltonian that takes any number of components, so the oracle's
        # own check is what rejects the state
        "rk4_hamiltonian_flow": lambda z: rk4_hamiltonian_flow(
            lambda t: lambda y: 0.5 * sum(c * c for c in y), z, 0.3, 0.1
        ),
    }
    maps = {
        "frame": frame_rotation(field.frame_rate),
        "corotating": corotating,
        "coriolis": coriolis,
        "moving-origin": moving_origin_map(params, drive, QUAD),
    }
    for name, cmap in maps.items():
        takers[f"{name}.forward"] = lambda z, f=cmap.forward: f(0.3, z)
        takers[f"{name}.inverse"] = lambda z, f=cmap.inverse: f(0.3, z)
    return takers


_STATE_TAKERS = _state_takers()


@pytest.mark.parametrize(
    "state, message",
    [
        (np.zeros(2), "6 components"),
        (np.zeros(4), "6 components"),
        (np.zeros(5), "6 components"),
        (np.array([0.1, 0.2, math.nan, 0.4, 0.5, 0.6]), "finite"),
    ],
    ids=["2", "4", "5", "nan"],
)
@pytest.mark.parametrize("taker", sorted(_STATE_TAKERS))
def test_phase_state_contract(taker, state, message):
    # a phase state is six finite components: the frame map used to raise
    # IndexError on two, and the Coriolis map to pass nan through and fail
    # inside numpy's matmul on four or five
    with pytest.raises(ValueError, match=message):
        _STATE_TAKERS[taker](state)


_TIME_TAKERS = {
    "moving-origin.forward": lambda t: moving_origin_map(OscParams(), Drive.zero()).forward(
        t, np.zeros(6)
    ),
    "accumulated-rotation": lambda t: accumulated_rotation(FixedAxisField(b3=np.cos), t),
    "frame.forward": lambda t: frame_rotation(1.0).forward(t, np.zeros(6)),
    "frame.inverse": lambda t: frame_rotation(1.0).inverse(t, np.zeros(6)),
    "frame.forward-array": lambda t: frame_rotation(1.0).forward([0.0, t], np.zeros(6)),
    "block-propagate-path": lambda t: block_propagate_path(OscParams(), np.zeros(6), t),
    # forced_path used to return NaN rows for a NaN time
    "forced-path": lambda t: forced_path(OscParams(), Drive.zero(), np.array([0.0, 0.5, t])),
}


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("taker", sorted(_TIME_TAKERS))
def test_time_contract(taker, t):
    # a time is finite: the quadratures used to fail with "cannot convert
    # float NaN to integer" and the frame maps to return NaN pairs
    with pytest.raises(ValueError, match="time must be finite"):
        _TIME_TAKERS[taker](t)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_frame_rate_must_be_finite(rate):
    # frame_rotation(nan).forward(1.0, ones) used to give [nan nan nan nan 1 1]
    with pytest.raises(ValueError, match="rate"):
        frame_rotation(rate)


def test_forced_path_needs_an_even_panel_count():
    with pytest.raises(ValueError, match="even panel count"):
        forced_path(OscParams(), Drive.zero(), np.linspace(0.0, 1.0, 4))


def test_forced_path_needs_a_uniform_1d_grid():
    # the Simpson rules take the first step as the step everywhere: on the
    # times 2 s**2, s uniform over 2,001 samples, forced_path returned
    # 2.2e-4 where the path is F (1 - cos wt) / (m w^2) = 0.44 at t = 2
    params, drive = OscParams(1.0, 1.3), Drive.constant((0.4, 0.0, 0.0))
    squares = 2.0 * np.linspace(0.0, 1.0, 2001) ** 2
    with pytest.raises(ValueError, match="uniform"):
        forced_path(params, drive, squares)
    with pytest.raises(ValueError, match="1-D"):
        forced_path(params, drive, np.linspace(0.0, 2.0, 2001).reshape(1, -1))
    # the same span on a uniform grid
    q1 = forced_path(params, drive, np.linspace(0.0, 2.0, 2001))[-1, 0]
    assert abs(q1 - 0.4 * (1.0 - math.cos(2.6)) / 1.3**2) <= 1e-12
