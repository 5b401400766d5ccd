import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval

from fieldosc.core import OscParams
from fieldosc.classical import Drive, StaticField, moving_origin_map
from fieldosc.quantum import (
    EigenLabel,
    Grid,
    GridSupportError,
    WaveFunction,
    apply_hamiltonian,
    check_shift_support,
    driven_hamiltonian,
    energy_expectation,
    evolved_eigenstate,
    gaussian_wavepacket,
    hermite,
    hermite_shift_coefficients,
    oscillator_eigenfunction,
    oscillator_energy,
    oscillator_hamiltonian,
    planar_field_hamiltonian,
    product_eigenstate,
    rotated_product_coefficients,
    spectral_rotate,
    spectral_shift,
    split_step_evolve,
    unitary_moving_origin,
    unitary_rotation,
    _RotationPlan,
)

QUAD = 2000.0


@pytest.fixture(scope="module")
def grid256():
    return Grid(dims=2, n=256, half_width=8.0)


class TestHermite:
    def test_h0_is_one(self):
        assert hermite(0, 3.7) == 1.0

    def test_h2_value(self):
        # H_2(x) = 4x^2 - 2 -> H_2(1.5) = 7
        assert hermite(2, 1.5) == pytest.approx(7.0, abs=0)

    def test_recurrence_residual(self):
        x = np.linspace(-5.0, 5.0, 41)
        for n in range(1, 20):
            residual = hermite(n + 1, x) - 2 * x * hermite(n, x) + 2 * n * hermite(n - 1, x)
            scale = np.max(np.abs(hermite(n + 1, x)))
            assert np.max(np.abs(residual)) <= 1e-9 * scale

    def test_matches_numpy_hermval(self):
        x = np.linspace(-4.0, 4.0, 17)
        for n in range(12):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            assert np.allclose(hermite(n, x), hermval(x, coeffs), rtol=1e-12)


class TestEigenfunctions:
    def test_ground_state_norm_on_grid(self):
        params = OscParams(1.0, 1.0)
        x = np.linspace(-8.0, 8.0, 513)
        phi = oscillator_eigenfunction(0, params, 1.0, x)
        norm = np.trapezoid(phi**2, x)
        assert abs(norm - 1.0) <= 1e-6
        # profile is the Gaussian (alpha^2/pi)^(1/4) exp(-alpha^2 x^2 / 2)
        expected = (1.0 / math.pi) ** 0.25 * np.exp(-0.5 * x**2)
        assert np.max(np.abs(phi - expected)) <= 1e-12

    def test_orthogonality(self):
        params = OscParams(1.0, 1.0)
        x = np.linspace(-10.0, 10.0, 1025)
        p2 = oscillator_eigenfunction(2, params, 1.0, x)
        p5 = oscillator_eigenfunction(5, params, 1.0, x)
        assert abs(np.trapezoid(p2 * p5, x)) <= 1e-8

    def test_parity(self):
        params = OscParams(1.0, 1.3)
        x = np.linspace(0.1, 4.0, 10)
        lhs = oscillator_eigenfunction(1, params, 1.0, -x)
        rhs = -oscillator_eigenfunction(1, params, 1.0, x)
        assert np.array_equal(lhs, rhs)

    def test_energy_formula(self):
        params = OscParams(1.0, 1.0)
        assert oscillator_energy(EigenLabel(0, 0, 0.0), params, 1.0) == pytest.approx(1.0)
        k = 0.7
        assert oscillator_energy(EigenLabel(1, 2, k), params, 1.0) == pytest.approx(
            4.0 + k**2 / 2.0
        )

    def test_grid_expectation_matches_ladder(self, grid256):
        params = OscParams(1.0, 1.0)
        ham = oscillator_hamiltonian(params)
        psi = product_eigenstate(grid256, EigenLabel(1, 0), params)
        e = energy_expectation(psi, ham)
        assert abs(e - 2.0) / 2.0 <= 1e-3

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            EigenLabel(-1, 0)


class TestShiftExpansion:
    def test_degenerate_case(self):
        assert hermite_shift_coefficients(0, 1.7) == {0: 1.0}

    def test_linear_case(self):
        # H_1(u + v) = H_1(u) + 2v H_0(u): the doubled shift is essential
        v = 0.9
        assert hermite_shift_coefficients(1, v) == {1: 1.0, 0: 2.0 * v}

    def test_quadratic_case(self):
        # direct expansion: H_2(u+1) = 4u^2 + 8u + 2 = H_2 + 4 H_1 + 4 H_0
        assert hermite_shift_coefficients(2, 1.0) == {2: 1.0, 1: 4.0, 0: 4.0}

    @given(n=st.integers(0, 10), v=st.floats(-2.0, 2.0))
    @settings(max_examples=40)
    def test_polynomial_identity(self, n, v):
        u = np.linspace(-5.0, 5.0, 50)
        lhs = hermite(n, u + v)
        rhs = sum(c * hermite(k, u) for k, c in hermite_shift_coefficients(n, v).items())
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))



class TestRotatedProducts:
    def test_identity_rotation(self):
        coeffs, _ = rotated_product_coefficients(2, 1, 0.0)
        assert coeffs[(2, 1)] == pytest.approx(1.0, abs=1e-14)
        off = [abs(c) for key, c in coeffs.items() if key != (2, 1)]
        assert max(off) <= 1e-14

    def test_single_quantum(self):
        theta = 0.77
        coeffs, _ = rotated_product_coefficients(1, 0, theta)
        assert coeffs[(1, 0)] == pytest.approx(math.cos(theta), abs=1e-10)
        assert coeffs[(0, 1)] == pytest.approx(math.sin(theta), abs=1e-10)

    def test_two_quanta_quarter_turn(self):
        coeffs, _ = rotated_product_coefficients(2, 0, math.pi / 2)
        assert abs(coeffs[(0, 2)]) == pytest.approx(1.0, abs=1e-12)
        assert abs(coeffs[(2, 0)]) <= 1e-12
        assert abs(coeffs[(1, 1)]) <= 1e-12

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_level_orthogonality(self, level):
        theta = 0.43
        mat = np.zeros((level + 1, level + 1))
        for k1 in range(level + 1):
            coeffs, leakage = rotated_product_coefficients(k1, level - k1, theta)
            assert leakage <= 1e-10
            assert abs(math.sqrt(sum(c * c for c in coeffs.values())) - 1.0) <= 1e-8
            for (m1, _), c in coeffs.items():
                mat[k1, m1] = c
        assert np.max(np.abs(mat @ mat.T - np.eye(level + 1))) <= 1e-8

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        # a nan angle used to give four nan coefficients with leakage 0.0,
        # as max(0.0, nan) is 0.0 and the leakage guard passed
        with pytest.raises(ValueError, match="theta"):
            rotated_product_coefficients(2, 1, theta)


class TestSpectralOps:
    def test_shift_matches_analytic(self, grid256):
        x, y = grid256.meshgrid()
        f = np.exp(-((x - 0.3) ** 2) - 0.7 * (y + 0.2) ** 2).astype(complex)
        got = spectral_shift(f, grid256, (0.41, -0.27))
        exact = np.exp(-((x - 0.41 - 0.3) ** 2) - 0.7 * (y + 0.27 + 0.2) ** 2)
        assert np.max(np.abs(got - exact)) <= 1e-12

    @pytest.mark.parametrize("angle", [0.3, math.pi / 2, 2.2, -1.9, 3.9])
    def test_rotation_matches_analytic(self, grid256, angle):
        x, y = grid256.meshgrid()

        def f(xx, yy):
            return np.exp(-((xx - 0.7) ** 2) / 1.3 - (yy + 0.4) ** 2 / 0.7) * (1 + 0.3 * xx)

        c, s = math.cos(angle), math.sin(angle)
        got = spectral_rotate(f(x, y).astype(complex), grid256, angle)
        assert np.max(np.abs(got - f(c * x - s * y, s * x + c * y))) <= 1e-12


class TestUnitaryRotation:
    def test_identity_at_zero_time(self, grid256):
        psi = gaussian_wavepacket(grid256, (0.5, -0.2), (0.1, 0.3), 0.9)
        out = unitary_rotation(psi, 0.0, 1.2)
        assert np.array_equal(out.values, psi.values)

    def test_symmetric_gaussian_invariant(self, grid256):
        # width chosen so the edge amplitude is well below the tolerance
        psi = gaussian_wavepacket(grid256, (0.0, 0.0), (0.0, 0.0), 0.8)
        out = unitary_rotation(psi, 0.9, 1.2)
        assert np.max(np.abs(out.values - psi.values)) <= 1e-8

    def test_norm_preserved_for_offset_gaussian(self, grid256):
        psi = gaussian_wavepacket(grid256, (1.0, -0.7), (0.4, 0.1), 0.8)
        out = unitary_rotation(psi, 1.3, 0.65)
        assert abs(out.norm() - psi.norm()) <= 1e-4  # spectral: ~roundoff

    def test_support_violation_detected(self, grid256):
        psi = gaussian_wavepacket(grid256, (7.2, 0.0), (0.0, 0.0), 0.8)
        with pytest.raises(GridSupportError):
            unitary_rotation(psi, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_angle_must_be_finite(self, bad):
        # the rotation plan checks its angle, for every rotation: a NaN
        # angle used to fail with "cannot convert float NaN to integer"
        grid = Grid(dims=2, n=32, half_width=8.0)
        psi = gaussian_wavepacket(grid, (0.0, 0.0), (0.0, 0.0), 0.8)
        planar = dataclasses.replace(
            planar_field_hamiltonian(StaticField(b3=1.0)), rotation_rate=bad
        )
        calls = (
            lambda: _RotationPlan(grid, bad),
            lambda: spectral_rotate(psi.values, grid, bad),
            lambda: unitary_rotation(psi, 1.0, bad),
            lambda: split_step_evolve(psi, planar, 0.1, 0.01),
        )
        for call in calls:
            with pytest.raises(ValueError, match="angle"):
                call()


class TestUnitaryMovingOrigin:
    def make_mover(self, params, drive):
        return moving_origin_map(params, drive, QUAD)

    def test_identity_without_drive(self, grid256):
        params = OscParams(1.0, 1.2)
        mover = self.make_mover(params, Drive.zero())
        psi = gaussian_wavepacket(grid256, (0.4, -0.1), (0.2, 0.0), 0.9)
        out = unitary_moving_origin(psi, 1.7, mover)
        assert np.max(np.abs(out.values - psi.values)) <= 1e-12

    def test_position_expectation_shifts(self, grid256):
        params = OscParams(1.0, 1.1)
        drive = Drive.rotating_constant((0.2, -0.1, 0.0), 0.55)
        mover = self.make_mover(params, drive)
        psi = gaussian_wavepacket(grid256, (0.3, 0.2), (0.1, -0.2), 0.8)
        t = 1.4
        out = unitary_moving_origin(psi, t, mover)
        expected = psi.position_expectation() + mover.q_nh(t)[:2]
        assert np.max(np.abs(out.position_expectation() - expected)) <= 1e-8

    def test_position_operator_conjugation(self, grid256):
        params = OscParams(1.0, 1.3)
        drive = Drive.rotating_constant((0.12, -0.08, 0.0), 0.65)
        mover = self.make_mover(params, drive)
        psi = gaussian_wavepacket(grid256, (0.4, -0.3), (0.3, 0.1), 0.8)
        t = 1.3
        x, _ = grid256.meshgrid()
        mapped = unitary_moving_origin(psi, t, mover)
        lhs = (x - mover.q_nh(t)[0]) * mapped.values
        rhs = unitary_moving_origin(
            dataclasses.replace(psi, values=x * psi.values), t, mover
        ).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_norm_exact_in_phase_only_case(self, grid256):
        # axial-only drive: planar shift vanishes, map is a pure phase
        params = OscParams(1.0, 1.0)
        mover = self.make_mover(params, Drive.constant((0.0, 0.0, 0.3)))
        psi = gaussian_wavepacket(grid256, (0.2, 0.1), (0.0, 0.0), 0.9)
        out = unitary_moving_origin(psi, 1.1, mover)
        assert abs(out.norm() - psi.norm()) <= 1e-13

    def test_shift_support_guard(self):
        grid = Grid(dims=2, n=32, half_width=3.0)
        params = OscParams(1.0, 0.0)
        mover = self.make_mover(params, Drive.constant((2.0, 0.0, 0.0)))
        psi = gaussian_wavepacket(grid, (0.0, 0.0), (0.0, 0.0), 0.5)
        with pytest.raises(GridSupportError):
            unitary_moving_origin(psi, 3.0, mover)

    def test_check_shift_support_limits(self):
        grid = Grid(dims=2, n=32, half_width=6.0)
        psi = gaussian_wavepacket(grid, (0.0, 0.0), (0.0, 0.0), 0.5)
        check_shift_support(psi, (3.0, -3.0))  # half the half-width is allowed
        with pytest.raises(GridSupportError, match="shift exceeds"):
            check_shift_support(psi, (0.0, 3.1))
        wide = gaussian_wavepacket(grid, (0.0, 0.0), (0.0, 0.0), 2.0)
        with pytest.raises(GridSupportError, match="boundary mass"):
            check_shift_support(wide, (0.0, 0.0))


class TestSplitStep:
    def test_free_gaussian_dispersion(self):
        grid = Grid(dims=1, n=512, half_width=16.0)
        sigma0 = 0.9
        psi = gaussian_wavepacket(grid, (0.0,), (0.0,), (sigma0,))
        out = split_step_evolve(psi, oscillator_hamiltonian(OscParams(1.0, 0.0)), 1.7, 1e-3)
        x = grid.axis()
        var = float(np.sum(x**2 * np.abs(out.values) ** 2) / np.sum(np.abs(out.values) ** 2))
        exact = sigma0**2 * (1.0 + (1.7 / (2.0 * sigma0**2)) ** 2)
        assert abs(var - exact) / exact <= 1e-5

    def test_coherent_state_follows_classical_orbit(self, grid256):
        params = OscParams(1.0, 1.0)
        x0, p0, t = 1.2, 0.5, 1.1
        psi = gaussian_wavepacket(
            grid256, (x0, 0.0), (0.0, p0), (1.0 / math.sqrt(2.0),) * 2
        )
        out = split_step_evolve(psi, oscillator_hamiltonian(params), t, 1e-3)
        center = out.position_expectation()
        assert abs(center[0] - x0 * math.cos(t)) <= 1e-5
        assert abs(center[1] - p0 * math.sin(t)) <= 1e-5

    def test_driven_center_follows_forced_classical_orbit(self):
        # Ehrenfest with a drive: exact for quadratic Hamiltonians, so the
        # 1D wavepacket center must track the closed-form driven solution
        from fieldosc.classical import solve_driven

        grid = Grid(dims=1, n=256, half_width=10.0)
        params = OscParams(1.0, 1.2)
        drive = Drive.sinusoids([(0.8, (0.3, 0.0, 0.0), (0.0, 0.0, 0.0))])
        x0, p0, t = 0.6, -0.2, 1.3
        psi = gaussian_wavepacket(grid, (x0,), (p0,), (0.7,))
        out = split_step_evolve(psi, driven_hamiltonian(params, drive), t, 1e-3)
        z0 = np.array([x0, p0, 0.0, 0.0, 0.0, 0.0])
        expected = solve_driven(params, drive, z0, t, QUAD)[0]
        assert abs(out.position_expectation()[0] - expected) <= 1e-5

    def test_eigenstate_evolves_by_pure_phase(self, grid256):
        params = OscParams(1.0, 1.0)
        psi = product_eigenstate(grid256, EigenLabel(1, 0), params)
        t = 1.0
        out = split_step_evolve(psi, oscillator_hamiltonian(params), t, 1e-3)
        overlap = out.inner(psi)
        assert abs(abs(overlap) - 1.0) <= 1e-6
        energy = oscillator_energy(EigenLabel(1, 0), params, 1.0)
        # inner(out, psi) = conj(<psi|out>) = exp(+i E t)
        assert abs(overlap - np.exp(1j * energy * t)) <= 1e-5

    def test_evolution_keeps_the_packets_hbar(self):
        # the grid Hamiltonian holds no hbar: the packet's hbar = 2 drives
        # the evolution, so the energy is conserved at that hbar
        grid = Grid(dims=2, n=64, half_width=8.0)
        params = OscParams(1.0, 1.0)
        ham = oscillator_hamiltonian(params)
        psi = gaussian_wavepacket(grid, (0.5, -0.3), (0.3, 0.1), 0.8, hbar=2.0)
        out = split_step_evolve(psi, ham, 1.0, 1e-3)
        assert out.hbar == 2.0
        before = energy_expectation(psi, ham)
        assert abs(energy_expectation(out, ham) - before) <= 1e-6 * before

    def test_unitary_per_run(self, grid256):
        field = StaticField(b3=2.0, e=(0.1, 0.0, 0.0))
        psi = gaussian_wavepacket(grid256, (0.5, 0.0), (0.0, 0.2), 0.8)
        out = split_step_evolve(psi, planar_field_hamiltonian(field), 0.5, 1e-3)
        assert abs(out.norm() - 1.0) <= 1e-12

    def test_drive_timescale_guard(self):
        grid = Grid(dims=1, n=64, half_width=8.0)
        psi = gaussian_wavepacket(grid, (0.0,), (0.0,), (1.0,))
        fast = Drive.sinusoids([(200.0, (0.1, 0.0, 0.0), (0.0, 0.0, 0.0))])
        with pytest.raises(ValueError, match="time scale"):
            split_step_evolve(psi, driven_hamiltonian(OscParams(), fast), 1.0, 0.1)

    @pytest.mark.parametrize(
        "t, dt, name",
        [
            (-1.0, 1e-3, "t"),
            (math.inf, 1e-3, "t"),
            (math.nan, 1e-3, "t"),
            (1.0, math.inf, "dt"),
            (1.0, math.nan, "dt"),
            (1.0, 0.0, "dt"),
        ],
    )
    def test_bad_horizon_rejected(self, t, dt, name):
        # t = -1 used to take one Strang step of h = -1
        grid = Grid(dims=1, n=16, half_width=8.0)
        psi = gaussian_wavepacket(grid, (0.0,), (0.0,), (1.0,))
        with pytest.raises(ValueError, match=f"^{name} must"):
            split_step_evolve(psi, oscillator_hamiltonian(OscParams()), t, dt)


def _reference_rotate(plan, values):
    """A rotation plan applied out of place, in its first form."""
    out = values
    for _ in range(plan.quarters):
        out = out.T[:, ::-1]
    if plan.phases is not None:
        shear_x, shear_y = plan.phases
        out = np.fft.ifft(np.fft.fft(out, axis=0) * shear_x, axis=0)
        out = np.fft.ifft(np.fft.fft(out, axis=1) * shear_y, axis=1)
        out = np.fft.ifft(np.fft.fft(out, axis=0) * shear_x, axis=0)
    return out


def _reference_split_step(psi0, ham, t, dt):
    """The split-step loop in its first, out-of-place form: a new array
    for every transform and factor product, factors rebuilt every step."""
    steps = max(1, int(round(t / dt)))
    h = t / steps
    grid = psi0.grid
    hbar = psi0.hbar
    kinetic_phase = np.exp(-1j * h * hbar * grid.wavenumbers_sq() / (2.0 * ham.mass))

    ax = grid.axis()
    harm_half = np.exp(-1j * (0.5 * h) * 0.5 * ham.stiffness * ax**2 / hbar)
    harm_full = harm_half * harm_half

    def potential_factor(time, tau):
        factors = []
        base = harm_half if tau < h else harm_full
        force = ham.drive(time) if ham.drive is not None else None
        for axis in range(grid.dims):
            f = base
            if force is not None and force[axis] != 0.0:
                f = f * np.exp(1j * tau * ax * force[axis] / hbar)
            factors.append(f)
        return factors

    def apply_axis_factors(values, factors):
        for axis, f in enumerate(factors):
            values = values * f.reshape((-1,) + (1,) * (grid.dims - 1 - axis))
        return values

    angle = ham.rotation_rate * h
    rotation = _RotationPlan(grid, angle) if angle != 0.0 else None
    values = np.asarray(psi0.values, dtype=complex)
    values = apply_axis_factors(values, potential_factor(0.0, 0.5 * h))
    for i in range(steps):
        values = np.fft.ifftn(np.fft.fftn(values) * kinetic_phase)
        if rotation is not None:
            values = _reference_rotate(rotation, values)
        tau = h if i < steps - 1 else 0.5 * h
        values = apply_axis_factors(values, potential_factor((i + 1) * h, tau))
    return values


_BIT_FIELD = StaticField(b3=2.6, e=(0.12, -0.08, 0.0))
# frame rate 100: a 0.01 step turns by 1 rad > pi/4, so every step takes
# a quarter turn before its shears
_QUARTER_FIELD = StaticField(b3=200.0, e=(0.3, 0.1, 0.0))
_SPLIT_CASES = {
    "oscillator": (oscillator_hamiltonian(_BIT_FIELD.osc_params), 1e-3),
    "sinusoid-driven": (
        driven_hamiltonian(_BIT_FIELD.osc_params, _BIT_FIELD.rotated_drive()),
        1e-3,
    ),
    "planar": (planar_field_hamiltonian(_BIT_FIELD), 1e-3),
    "planar-quarter-turn": (planar_field_hamiltonian(_QUARTER_FIELD), 1e-2),
}


class TestSplitStepBits:
    """The split-step evolution is the out-of-place loop to the last bit."""

    @pytest.mark.parametrize("kind", sorted(_SPLIT_CASES))
    def test_matches_out_of_place_loop(self, kind):
        ham, dt = _SPLIT_CASES[kind]
        grid = Grid(dims=2, n=32, half_width=8.0)
        psi0 = gaussian_wavepacket(grid, (0.5, -0.3), (0.3, 0.1), 0.8, hbar=1.3)
        got = split_step_evolve(psi0, ham, 0.2, dt).values
        assert np.array_equal(got, _reference_split_step(psi0, ham, 0.2, dt))

    def test_quarter_turn_case_takes_both_rotation_paths(self):
        ham, dt = _SPLIT_CASES["planar-quarter-turn"]
        plan = _RotationPlan(Grid(dims=2, n=32, half_width=8.0), ham.rotation_rate * dt)
        assert plan.quarters != 0 and plan.phases is not None

    def test_one_dimensional_matches_out_of_place_loop(self):
        grid = Grid(dims=1, n=64, half_width=10.0)
        psi0 = gaussian_wavepacket(grid, (0.6,), (-0.2,), (0.7,))
        constant = Drive.constant((0.3, 0.0, 0.0))
        sinusoid = Drive.sinusoids([(0.8, (0.3, 0.0, 0.0), (0.0, 0.0, 0.0))])
        for drive in (constant, sinusoid):
            ham = driven_hamiltonian(OscParams(1.0, 1.2), drive)
            got = split_step_evolve(psi0, ham, 0.1, 1e-3).values
            assert np.array_equal(got, _reference_split_step(psi0, ham, 0.1, 1e-3))


class TestInputsNeverWritten:
    """The spectral passes work in place on buffers of their own; the
    arrays a caller hands in keep every bit."""

    grid = Grid(dims=2, n=32, half_width=8.0)

    def packet(self):
        return gaussian_wavepacket(self.grid, (0.5, -0.3), (0.3, 0.1), 0.8)

    @pytest.mark.parametrize("kind", sorted(_SPLIT_CASES))
    def test_split_step_evolve(self, kind):
        ham, dt = _SPLIT_CASES[kind]
        psi0 = self.packet()
        before = psi0.values.copy()
        split_step_evolve(psi0, ham, 0.05, dt)
        assert np.array_equal(psi0.values, before)

    def test_spectral_shift(self):
        values = self.packet().values
        before = values.copy()
        spectral_shift(values, self.grid, (0.4, -0.2))
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("angle", [0.3, 2.0])
    def test_spectral_rotate(self, angle):
        values = self.packet().values
        before = values.copy()
        spectral_rotate(values, self.grid, angle)
        assert np.array_equal(values, before)

    def test_unitary_rotation(self):
        phi = self.packet()
        before = phi.values.copy()
        unitary_rotation(phi, 0.4, _BIT_FIELD.frame_rate)
        assert np.array_equal(phi.values, before)

    def test_unitary_moving_origin(self):
        varphi = self.packet()
        before = varphi.values.copy()
        mover = moving_origin_map(_BIT_FIELD.osc_params, _BIT_FIELD.rotated_drive(), QUAD)
        unitary_moving_origin(varphi, 0.4, mover)
        assert np.array_equal(varphi.values, before)

    def test_apply_hamiltonian(self):
        psi = self.packet()
        before = psi.values.copy()
        apply_hamiltonian(psi, planar_field_hamiltonian(_BIT_FIELD), 0.3)
        assert np.array_equal(psi.values, before)


class TestPipelineLinks:
    def test_three_way_equivalence_desk_grid(self):
        field = StaticField(b3=2.6, e=(0.12, -0.08, 0.0))
        params = field.osc_params
        drive = field.rotated_drive()
        grid = Grid(dims=2, n=128, half_width=8.0)
        psi0 = gaussian_wavepacket(grid, (0.5, -0.3), (0.3, 0.1), 0.8)
        t, dt = 1.0, 1e-3

        phi3 = split_step_evolve(psi0, oscillator_hamiltonian(params), t, dt)
        mover = moving_origin_map(params, drive, QUAD)
        phi2_via = unitary_moving_origin(phi3, t, mover)
        phi2 = split_step_evolve(psi0, driven_hamiltonian(params, drive), t, dt)
        assert phi2_via.distance(phi2) <= 1e-4

        psi1_via = unitary_rotation(phi2, t, 0.5 * field.cyclotron_rate)
        psi1 = split_step_evolve(psi0, planar_field_hamiltonian(field), t, dt)
        assert psi1_via.distance(psi1) <= 1e-4


class TestEvolvedEigenstate:
    def test_magnetic_only_has_just_dynamical_phase(self, grid256):
        field = StaticField(b3=2.0)
        t = 1.3
        state = evolved_eigenstate(EigenLabel(1, 0), t, field, grid256)
        assert state.action_phase == 0.0
        assert state.axial_phase == 0.0
        assert np.array_equal(state.q_nh, np.zeros(3))
        energy = oscillator_energy(EigenLabel(1, 0), field.osc_params, 1.0)
        assert state.dynamical_phase == pytest.approx(-energy * t)
        # profile is exactly the rotated eigenstate
        base = product_eigenstate(grid256, EigenLabel(1, 0), field.osc_params)
        rotated = unitary_rotation(base, t, field.osc_params.omega)
        assert np.max(np.abs(state.wavefunction.values - rotated.values)) <= 1e-9

    def test_isotropic_ground_state_profile_invariant(self, grid256):
        field = StaticField(b3=1.8)
        state = evolved_eigenstate(EigenLabel(0, 0), 2.1, field, grid256)
        base = product_eigenstate(grid256, EigenLabel(0, 0), field.osc_params)
        assert np.max(np.abs(state.wavefunction.values - base.values)) <= 1e-8

    def test_schrodinger_residual(self, grid256):
        # centered time difference of the assembled solution against the
        # spectral application of the full planar Hamiltonian
        field = StaticField(b3=2.2, e=(0.15, -0.1, 0.0))
        ham = planar_field_hamiltonian(field)
        t, delta = 0.9, 1e-4

        def assembled(tt):
            state = evolved_eigenstate(EigenLabel(1, 0), tt, field, grid256)
            return state.with_scalar_phases()

        plus, minus, here = assembled(t + delta), assembled(t - delta), assembled(t)
        dpsi_dt = (plus.values - minus.values) / (2.0 * delta)
        residual = 1j * dpsi_dt - apply_hamiltonian(here, ham)
        rel = math.sqrt(float(np.sum(np.abs(residual) ** 2) / np.sum(np.abs(here.values) ** 2)))
        assert rel <= 5e-3

    def test_axial_ledger_with_axial_field(self, grid256):
        # an axial electric component shifts the symbolic plane wave: the
        # effective wavenumber gains the forced axial momentum and the
        # scalar axial phase tracks the forced axial displacement
        field = StaticField(b3=2.0, e=(0.0, 0.0, 0.2))
        k, t = 0.5, 1.1
        state = evolved_eigenstate(EigenLabel(0, 0, k), t, field, grid256)
        mover = moving_origin_map(field.osc_params, field.rotated_drive())
        q3, p3 = mover.q_nh(t)[2], mover.p_nh(t)[2]
        assert q3 != 0.0 and p3 != 0.0
        assert state.axial_wavenumber == pytest.approx(k + p3, abs=1e-12)
        assert state.axial_phase == pytest.approx(-(k + p3) * q3, abs=1e-12)
        energy = oscillator_energy(EigenLabel(0, 0, k), field.osc_params, 1.0)
        assert state.dynamical_phase == pytest.approx(-energy * t)
        assert state.action_phase != 0.0

    def test_matches_unitary_rotation_route(self, grid256):
        field = StaticField(b3=2.4, e=(0.1, 0.05, 0.0))
        t = 0.7
        state = evolved_eigenstate(EigenLabel(0, 1), t, field, grid256)
        params = field.osc_params
        mover = moving_origin_map(params, field.rotated_drive())
        base = product_eigenstate(grid256, EigenLabel(0, 1), params)
        shifted = unitary_moving_origin(base, t, mover)
        # strip the scalar action phase: the ledger holds it separately
        shifted = dataclasses.replace(
            shifted, values=shifted.values * np.exp(-1j * mover.phase_A(t))
        )
        rotated = unitary_rotation(shifted, t, 0.5 * field.cyclotron_rate)
        assert np.max(np.abs(rotated.values - state.wavefunction.values)) <= 1e-9


class TestGridValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid(dims=1, n=100, half_width=8.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(dims=1, n=8, half_width=8.0)

    def test_wavefunction_shape_checked(self):
        grid = Grid(dims=2, n=16, half_width=2.0)
        with pytest.raises(ValueError):
            WaveFunction(grid=grid, values=np.zeros(16, dtype=complex))
