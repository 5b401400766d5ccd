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
    composite_simpson,
    cumulative_simpson,
    cross_matrix,
    energy_form_6x6,
    rk4_steps,
    rotation_about_z,
    stage_memo,
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

    def test_symmetric_sine_variant_is_not_a_rotation(self):
        # regression guard: with +sin in both off-diagonal slots the block
        # is not orthogonal, which is why the antisymmetric generator is
        # the one we exponentiate
        a = 0.8
        c, s = math.cos(a), math.sin(a)
        bad = np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(bad.T @ bad - np.eye(3))) > 0.1


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
        h = energy_form_6x6(params)[:2, :2]
        assert np.max(np.abs(u.T @ h @ u - h)) <= 1e-12

    @given(m=st.floats(0.2, 5.0), w=st.floats(0.0, 8.0), t=st.floats(-6.0, 6.0))
    @settings(max_examples=80)
    def test_symplectic_and_invariant(self, m, w, t):
        params = OscParams(m, w)
        u = planar_block(params, t)
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12
        h = energy_form_6x6(params)[:2, :2]
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
        h = energy_form_6x6(params)
        assert np.max(np.abs(u.T @ h @ u - h)) <= 1e-12


class TestSimpson:
    def test_exact_on_cubic(self):
        x = np.linspace(0.0, 2.0, 11)
        vals = x**3 - 2 * x**2 + 0.5
        assert abs(composite_simpson(vals, x[1] - x[0]) - (4.0 - 16.0 / 3 + 1.0)) <= 1e-13

    def test_cumulative_matches_antiderivative(self):
        x = np.linspace(0.0, 3.0, 601)
        vals = np.sin(2.3 * x)
        got = cumulative_simpson(vals, x[1] - x[0])
        exact = (1.0 - np.cos(2.3 * x)) / 2.3
        assert np.max(np.abs(got - exact)) <= 1e-9

    def test_rejects_odd_panel_count(self):
        with pytest.raises(ValueError):
            composite_simpson(np.zeros(4), 0.1)


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


class TestStageMemo:
    def test_one_evaluation_per_distinct_stage_time(self):
        # h = 1/4 makes i*h + h == (i+1)*h exact, so a step's start reuses
        # the last step's end, and k3 reuses k2's midpoint value
        calls = []

        def coefficient(t):
            calls.append(t)
            return np.array([[0.0, 1.0], [-1.0 - t, 0.0]])

        memo = stage_memo(coefficient)
        steps, h = 8, 0.25
        for _, y in rk4_steps(lambda y, t: memo(t) @ y, np.eye(2), h, steps):
            pass
        stage_times = {i * h + d for i in range(steps) for d in (0.0, 0.5 * h, h)}
        assert sorted(calls) == sorted(stage_times)
        assert len(calls) == 2 * steps + 1
        # the same values as evaluating at every stage
        for _, plain in rk4_steps(lambda y, t: coefficient(t) @ y, np.eye(2), h, steps):
            pass
        assert np.array_equal(y, plain)

    def test_value_is_read_only(self):
        memo = stage_memo(lambda t: np.full(3, t))
        value = memo(0.5)
        assert memo(0.5) is value
        with pytest.raises(ValueError):
            value[0] = 1.0
        scalar = stage_memo(lambda t: 2.0 * t)(0.5)
        assert scalar == 1.0 and not scalar.flags.writeable
