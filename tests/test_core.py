import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldosc import core
from fieldosc.core import (
    OscParams,
    block_propagate_path,
    block_propagator,
    cumulative_simpson,
    cross_matrix,
    rk4_steps,
    rotation_about_z,
)

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestCrossMatrix:
    def test_axial_structure(self):
        b3 = 2.5
        expected = np.array([[0.0, -b3, 0.0], [b3, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(cross_matrix((0.0, 0.0, b3)), expected)

    def test_zero_field(self):
        assert np.array_equal(cross_matrix((0, 0, 0)), np.zeros((3, 3)))

    def test_known_cross_product(self):
        # (1,2,3) x (4,5,6) = (-3, 6, -3), frozen from direct evaluation
        w = cross_matrix((1.0, 2.0, 3.0))
        assert np.allclose(w @ np.array([4.0, 5.0, 6.0]), [-3.0, 6.0, -3.0], atol=0)

    def test_antisymmetry_and_trace_bit_exact(self):
        w = cross_matrix((0.3, -1.7, 2.2))
        assert np.array_equal(w, -w.T)
        assert w.trace() == 0.0

    @given(b=st.tuples(finite_floats, finite_floats, finite_floats),
           x=st.tuples(finite_floats, finite_floats, finite_floats))
    def test_matches_numpy_cross(self, b, x):
        w = cross_matrix(b)
        assert np.allclose(w @ np.array(x), np.cross(b, x), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cross_matrix((np.inf, 0.0, 0.0))


class TestRotationAboutZ:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(rotation_about_z(0.0), np.eye(3))

    def test_quarter_turn(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(rotation_about_z(math.pi / 2), expected, atol=1e-15)

    @given(a=finite_floats, b=finite_floats)
    @settings(max_examples=50)
    def test_composition(self, a, b):
        lhs = rotation_about_z(a) @ rotation_about_z(b)
        assert np.allclose(lhs, rotation_about_z(a + b), atol=1e-12)

    @given(a=finite_floats)
    @settings(max_examples=50)
    def test_orthogonal_unit_determinant(self, a):
        r = rotation_about_z(a)
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-14
        assert abs(np.linalg.det(r) - 1.0) <= 1e-14

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, angle):
        # a NaN angle used to give a matrix with NaN planar entries
        with pytest.raises(ValueError, match="angle must be finite"):
            rotation_about_z(angle)

    def test_symmetric_sine_variant_is_not_a_rotation(self):
        # regression guard: with +sin in both off-diagonal slots the block
        # is not orthogonal, which is why the antisymmetric generator is
        # the one we exponentiate
        a = 0.8
        c, s = math.cos(a), math.sin(a)
        bad = np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(bad.T @ bad - np.eye(3))) > 0.1


def energy_form(params: OscParams) -> np.ndarray:
    """Quadratic form H with 2*energy = <z, H z>: diag(m w^2, 1/m) on each
    planar pair and diag(0, 1/m) on the free axial one.  The propagator
    conjugates it to itself, U(t)^T H U(t) = H."""
    m, w = params.mass, params.omega
    return np.diag([m * w * w, 1.0 / m, m * w * w, 1.0 / m, 0.0, 1.0 / m])


def planar_block(params: OscParams, t: float) -> np.ndarray:
    """The (Q1, P1) block of the 6x6 propagator."""
    return block_propagator(params, t)[:2, :2]


def free_block(mass: float, t: float) -> np.ndarray:
    """The axial (Q3, P3) block of the 6x6 propagator, always free."""
    return block_propagator(OscParams(mass, 1.0), t)[4:, 4:]


class TestPropagator2x2:
    def test_identity_at_zero_time(self):
        assert np.allclose(planar_block(OscParams(1.0, 1.0), 0.0), np.eye(2), atol=0)

    def test_half_period(self):
        u = planar_block(OscParams(1.0, 2.0), math.pi / 2)
        assert np.allclose(u, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-15)

    def test_energy_form_invariance_spot(self):
        params = OscParams(1.0, 1.3)
        u = planar_block(params, 0.7)
        h = energy_form(params)[:2, :2]
        assert np.max(np.abs(u.T @ h @ u - h)) <= 1e-12

    @given(m=st.floats(0.2, 5.0), w=st.floats(0.0, 8.0), t=st.floats(-6.0, 6.0))
    @settings(max_examples=80)
    def test_symplectic_and_invariant(self, m, w, t):
        params = OscParams(m, w)
        u = planar_block(params, t)
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12
        h = energy_form(params)[:2, :2]
        assert np.max(np.abs(u.T @ h @ u - h)) <= 1e-12

    def test_small_frequency_limit(self):
        m, t = 1.4, 2.0
        u = planar_block(OscParams(m, 1e-6), t)
        assert np.max(np.abs(u - free_block(m, t))) <= 1e-5

    @pytest.mark.parametrize("m, w", [(1.0, 5e-324), (1.0, 1e-310), (1e-10, 1e-300)])
    def test_subnormal_products_keep_free_limit(self, m, w):
        # w t (or m w) is subnormal: sin(w t)/(m w) of the quantised values
        # read 2.0 instead of 2.5 for w = 5e-324, t = 2.5
        t = 2.5
        u = planar_block(OscParams(m, w), t)
        assert abs(u[0, 1] - t / m) <= 1e-15 * (t / m)
        assert u[0, 0] == u[1, 1] == 1.0
        assert abs(u[1, 0]) <= 1e-290

    def test_zero_frequency_is_free_block(self):
        assert np.array_equal(
            planar_block(OscParams(2.0, 0.0), 3.0), free_block(2.0, 3.0)
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            OscParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            OscParams(1.0, -0.5)
        with pytest.raises(ValueError):
            block_propagator(OscParams(1.0, 1.0), math.inf)


class TestBlockPropagator:
    def test_identity_at_zero_time(self):
        assert np.allclose(block_propagator(OscParams(1.0, 1.7), 0.0), np.eye(6), atol=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_raises(self, bad):
        # refused, rather than an orbit of nan and a RuntimeWarning
        z0 = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        for w in (0.0, 1.3):
            with pytest.raises(ValueError, match="time must be finite"):
                block_propagate_path(OscParams(1.0, w), z0, [0.0, bad])

    @given(w=st.floats(0.0, 5.0), t=finite_floats, s=finite_floats)
    @settings(max_examples=60)
    def test_semigroup(self, w, t, s):
        params = OscParams(1.0, w)
        lhs = block_propagator(params, t + s)
        rhs = block_propagator(params, t) @ block_propagator(params, s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_axial_free_motion(self):
        q3, p3, t = 0.7, -0.4, 1.9
        z = np.array([0.0, 0.0, 0.0, 0.0, q3, p3])
        out = block_propagator(OscParams(1.0, 2.0), t) @ z
        assert np.allclose(out, [0, 0, 0, 0, q3 + p3 * t, p3], atol=1e-15)

    @given(m=st.floats(0.3, 4.0), w=st.floats(0.0, 6.0), t=st.floats(-5.0, 5.0))
    @settings(max_examples=60)
    def test_six_dim_energy_form_invariance(self, m, w, t):
        params = OscParams(m, w)
        u = block_propagator(params, t)
        h = energy_form(params)
        assert np.max(np.abs(u.T @ h @ u - h)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mass, omega", [(1e200, 1e200), (1e10, 1e300), (1.7e308, 2.0)])
    def test_mass_times_omega_must_be_finite(self, mass, omega):
        # OscParams(1e200, 1e200) used to be accepted, and its propagator at
        # t = 0 had a NaN second row, -m w sin(0) = -inf * 0, with a warning
        with pytest.raises(ValueError, match=r"^mass \* omega must be finite"):
            OscParams(mass, omega)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mass_times_omega_near_the_float_limit_propagates(self):
        # m w = 1e308 is accepted, and U(0) is the identity with no warning
        u = block_propagator(OscParams(1e200, 1e108), 0.0)
        assert np.array_equal(u, np.eye(6))


class TestSimpson:
    def test_exact_on_cubic(self):
        x = np.linspace(0.0, 2.0, 11)
        vals = x**3 - 2 * x**2 + 0.5
        total = cumulative_simpson(vals, x[1] - x[0])[-1]
        assert abs(total - (4.0 - 16.0 / 3 + 1.0)) <= 1e-13

    def test_cumulative_matches_antiderivative(self):
        x = np.linspace(0.0, 3.0, 601)
        vals = np.sin(2.3 * x)
        got = cumulative_simpson(vals, x[1] - x[0])
        exact = (1.0 - np.cos(2.3 * x)) / 2.3
        assert np.max(np.abs(got - exact)) <= 1e-9

    def test_rejects_odd_panel_count(self):
        with pytest.raises(ValueError):
            cumulative_simpson(np.zeros(4), 0.1)


class TestTimeCheck:
    def test_finite_times_pass_as_floats(self):
        times = core._as_times([0, 1.5, -2])
        assert times.dtype == float and np.array_equal(times, [0.0, 1.5, -2.0])
        assert core._as_times(3).shape == ()

    def test_message_names_the_time(self):
        with pytest.raises(ValueError, match="^time must be finite, got nan$"):
            core._as_times(math.nan)
        # an array's message is kept short
        with pytest.raises(ValueError, match="^time must be finite$"):
            core._as_times(np.full(1000, math.inf))

    @pytest.mark.parametrize("span", [math.nan, math.inf])
    def test_simpson_panels_checks_its_span(self, span):
        with pytest.raises(ValueError, match="time must be finite"):
            core.simpson_panels(100.0, span)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, math.inf, math.nan])
    def test_simpson_panels_checks_its_resolution(self, resolution):
        # an infinite resolution used to pass the check and then raise
        # OverflowError: cannot convert float infinity to integer, in
        # moving_origin_map(OscParams(), Drive.zero(), math.inf).forward
        with pytest.raises(ValueError, match="quadrature resolution"):
            core.simpson_panels(resolution, 1.0)


class TestRK4Stages:
    def test_one_stage_call_per_step(self):
        # one call per block of steps on each step's three stage times,
        # i*h + h/2 shared by k2 and k3; the same values as evaluating the
        # coefficient at each of the four stage times
        calls = []

        def coefficient(t):
            return np.array([[0.0, 1.0], [-1.0 - t, 0.0]])

        def stage_values(times):
            calls.append(times.copy())
            return [[coefficient(t) for t in row] for row in times]

        steps, h = 7, 0.3
        for _, y in rk4_steps(lambda y, c: c @ y, stage_values, np.eye(2), h, steps):
            pass
        assert len(calls) == 1
        assert calls[0].shape == (steps, 3)
        for i, times in enumerate(calls[0]):
            assert np.array_equal(times, [i * h, i * h + h / 2, i * h + h])
        plain = np.eye(2)
        for i in range(steps):
            t = i * h
            k1 = coefficient(t) @ plain
            k2 = coefficient(t + 0.5 * h) @ (plain + 0.5 * h * k1)
            k3 = coefficient(t + 0.5 * h) @ (plain + 0.5 * h * k2)
            k4 = coefficient(t + h) @ (plain + h * k3)
            plain = plain + (h / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        assert np.array_equal(y, plain)

    @pytest.mark.parametrize("steps", [1, 31, 32, 33, 97])
    def test_blocks_match_the_per_step_loop(self, steps):
        # blocks of at most 32 steps, each step's stage times those of
        # Python's int i, and the path bit for bit that of one stage
        # evaluation per step
        h = 2.0 * math.pi / 97
        calls = []

        def stage_values(times):
            calls.append(times.copy())
            out = np.zeros(times.shape + (2, 2))
            out[..., 0, 1] = 1.0
            out[..., 1, 0] = -1.0 - 0.5 * np.square(times)
            return out

        def coefficient(t):
            return np.array([[0.0, 1.0], [-1.0 - 0.5 * t * t, 0.0]])

        path = [
            (t, y.copy())
            for t, y in rk4_steps(lambda y, c: c @ y, stage_values, np.eye(2), h, steps)
        ]
        assert len(calls) == -(-steps // 32)
        assert all(len(times) <= 32 for times in calls)
        stage_times = np.concatenate(calls)
        assert stage_times.shape == (steps, 3)
        for i, times in enumerate(stage_times):
            assert np.array_equal(times, i * h + np.array([0.0, h / 2, h]))
        plain = np.eye(2)
        for i in range(steps):
            start, mid, end = (coefficient(t) for t in i * h + np.array([0.0, h / 2, h]))
            k1 = start @ plain
            k2 = mid @ (plain + 0.5 * h * k1)
            k3 = mid @ (plain + 0.5 * h * k2)
            k4 = end @ (plain + h * k3)
            plain = plain + (h / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
            assert path[i][0] == (i + 1) * h
            assert np.array_equal(path[i][1], plain)

    # y' = c(t) * P y with P a signed permutation: component r is
    # c * (sign[r] * y[source[r]]), so both forms make the same products
    _SOURCE = (3, 2, 5, 0, 1, 4)
    _SIGN = (1.0, -1.0, -1.0, 1.0, 1.0, -1.0)

    @staticmethod
    def _coefficients(times):
        return (1.0 + 0.5 * np.sin(3.0 * times)).tolist()

    def _float_rhs(self, y, c, k, f):
        if k is not None:
            y = [a + f * b for a, b in zip(y, k)]
        return [c * (s * y[j]) for s, j in zip(self._SIGN, self._SOURCE)]

    def _array_rhs(self, y, c):
        return c * (np.array(self._SIGN) * y[list(self._SOURCE)])

    @pytest.mark.parametrize("steps", [1, 32, 33, 97])
    def test_float_and_array_forms_agree(self, steps):
        # 33 and 97 steps cross the 32-step block boundaries; the -0.0
        # start component checks that the two forms round zeros alike
        y0 = [0.4, -0.0, 1.3, -0.7, 0.0, 0.25]
        h = 0.731 / 97
        floats = [
            (t, y)
            for t, y in rk4_steps(self._float_rhs, self._coefficients, list(y0), h, steps)
        ]
        arrays = [
            (t, y.copy())
            for t, y in rk4_steps(self._array_rhs, self._coefficients, np.array(y0), h, steps)
        ]
        assert len(floats) == len(arrays) == steps
        for (t, y), (t_array, y_array) in zip(floats, arrays):
            assert t == t_array
            assert type(y) is list and all(type(v) is float for v in y)
            assert np.array_equal(y, y_array)
            assert np.array_equal(np.signbit(y), np.signbit(y_array))

    def test_float_rhs_calls(self):
        # four calls a step, all on the step's own list y, each naming its
        # stage as y + f * k with k the previous call's result: the float
        # form builds no stage list
        calls = []

        def rhs(y, c, k, f):
            out = self._float_rhs(y, c, k, f)
            calls.append((y, c, k, f, out))
            return out

        h, steps = 0.731 / 97, 33
        y0 = [0.4, -0.0, 1.3, -0.7, 0.0, 0.25]
        path = [y0] + [y for _, y in rk4_steps(rhs, self._coefficients, y0, h, steps)]
        stages = self._coefficients(np.arange(steps)[:, None] * h + np.array([0.0, h / 2, h]))
        assert len(calls) == 4 * steps
        for i, (start, mid, end) in enumerate(stages):
            step = calls[4 * i : 4 * i + 4]
            assert all(y is path[i] for y, *_ in step)
            assert [c for _, c, *_ in step] == [start, mid, mid, end]
            assert step[0][2] is None
            assert all(step[j][2] is step[j - 1][4] for j in (1, 2, 3))
            factors = [f for *_, f, _ in step]
            assert factors == [0.0, 0.5 * h, 0.5 * h, h]
            assert all(type(f) is float for f in factors)

    def test_kept_float_steps_stay_as_yielded(self):
        y0 = [0.4, -0.0, 1.3, -0.7, 0.0, 0.25]
        start = list(y0)
        kept, copies = [], []
        for _, y in rk4_steps(self._float_rhs, self._coefficients, y0, 0.01, 40):
            kept.append(y)
            copies.append(list(y))
        assert y0 == start
        assert kept == copies
        assert len({id(y) for y in kept}) == len(kept)
