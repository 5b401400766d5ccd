import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermval

from fieldosc.core import OscParams, block_propagate_path, simpson_panels
from fieldosc.classical import Drive, StaticField, forced_path, moving_origin_map
from fieldosc.quantum import (
    EigenLabel,
    Grid,
    GridHamiltonian,
    GridSupportError,
    WaveFunction,
    apply_hamiltonian,
    check_momentum_support,
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
    split_step_product,
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
        calls = (
            lambda: _RotationPlan(grid, bad),
            lambda: spectral_rotate(psi.values, grid, bad),
            lambda: unitary_rotation(psi, 1.0, bad),
        )
        for call in calls:
            with pytest.raises(ValueError, match="angle"):
                call()
        planar = planar_field_hamiltonian(StaticField(b3=1.0))
        # the Hamiltonian rejects a non-finite rate; a finite one can still
        # give split_step_evolve an infinite angle, rate * dt
        with pytest.raises(ValueError, match="rotation_rate"):
            dataclasses.replace(planar, rotation_rate=bad)
        huge = dataclasses.replace(planar, rotation_rate=1e308)
        with pytest.raises(ValueError, match="angle"):
            split_step_evolve(psi, huge, 2.0, 2.0)


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

    def test_check_momentum_support_limits(self):
        # k_max = pi/dx = 8.4 on this grid; a packet of width 0.5 has a
        # momentum spread of 1
        grid = Grid(dims=2, n=32, half_width=6.0)
        check_momentum_support(gaussian_wavepacket(grid, (0.0, 0.0), (0.0, 0.0), 0.5))
        for momentum in ((0.0, 4.0), (-4.0, 0.0)):
            moving = gaussian_wavepacket(grid, (0.0, 0.0), momentum, 0.5)
            assert moving.boundary_mass() <= 1e-8  # its positions are held
            with pytest.raises(GridSupportError, match="^momentum support") as raised:
                check_momentum_support(moving)
            assert raised.value.boundary_mass == moving.momentum_boundary_mass() > 1e-3

    @pytest.mark.parametrize(
        "grid, center, momentum, width",
        [
            (Grid(2, 128, 8.0), (0.5, -0.3), (0.3, 0.1), 0.8),  # quantum_demo's packet
            (Grid(2, 32, 6.0), (0.0, 0.0), (0.0, 4.0), 0.5),
            (Grid(2, 256, 8.0), (0.4, -0.1), (0.2, 0.0), 0.9),
            (Grid(1, 64, 6.0), (0.3,), (0.1,), 0.7),
        ],
        ids=["demo-packet", "momentum-edge", "n256", "one-dim"],
    )
    def test_boundary_masses_are_frame_sums(self, grid, center, momentum, width):
        # total minus the core's sum used to round to -2.2e-16 for the
        # first packet; a mass is a sum over the frame's cells
        psi = gaussian_wavepacket(grid, center, momentum, width)
        densities = (
            (psi.boundary_mass(), np.abs(psi.values) ** 2),
            (
                psi.momentum_boundary_mass(),
                np.fft.fftshift(np.abs(np.fft.fftn(psi.values)) ** 2),
            ),
        )
        for mass, dens in densities:
            frame = dens.copy()
            frame[(slice(4, -4),) * grid.dims] = 0.0
            assert mass >= 0.0
            assert mass == pytest.approx(np.sum(frame) / np.sum(dens), rel=1e-12, abs=0.0)


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
        # 1D wavepacket center must track the closed-form driven solution,
        # the homogeneous orbit plus the forced path
        grid = Grid(dims=1, n=256, half_width=10.0)
        params = OscParams(1.0, 1.2)
        drive = Drive.sinusoids([(0.8, (0.3, 0.0, 0.0), (0.0, 0.0, 0.0))])
        x0, p0, t = 0.6, -0.2, 1.3
        psi = gaussian_wavepacket(grid, (x0,), (p0,), (0.7,))
        out = split_step_evolve(psi, driven_hamiltonian(params, drive), t, 1e-3)
        z0 = np.array([x0, p0, 0.0, 0.0, 0.0, 0.0])
        times = np.linspace(0.0, t, simpson_panels(QUAD, t) + 1)
        path = block_propagate_path(params, z0, times) + forced_path(params, drive, times)
        expected = path[-1, 0]
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


def _reference_turn(plan, values):
    """A rotation plan's quarter turns, out of place."""
    for _ in range(plan.quarters):
        values = values.T[:, ::-1]
    return values


def _reference_rotate(plan, values):
    """A rotation plan applied out of place, in its first form."""
    out = _reference_turn(plan, values)
    if plan.shears:
        shear_x, shear_y = plan.shears[0][1], plan.shears[1][1]
        out = np.fft.ifft(np.fft.fft(out, axis=0) * shear_x, axis=0)
        out = np.fft.ifft(np.fft.fft(out, axis=1) * shear_y, axis=1)
        out = np.fft.ifft(np.fft.fft(out, axis=0) * shear_x, axis=0)
    return out


def _reference_shear_spectrum(plan, values):
    """A plan's three shears, out of place, on values already transformed
    along axis 0."""
    shear_x, shear_y = plan.shears[0][1], plan.shears[1][1]
    out = np.fft.ifft(values * shear_x, axis=0)
    out = np.fft.ifft(np.fft.fft(out, axis=1) * shear_y, axis=1)
    return np.fft.ifft(np.fft.fft(out, axis=0) * shear_x, axis=0)


def _reference_split_step(psi0, ham, t, dt, round_trip=False):
    """The split-step loop out of place: a new array for every transform
    and factor product, factors rebuilt every step.  A step turns by the
    plan's quarter turns, takes the kinetic factor, and hands its axis-0
    spectrum to the shears.  With `round_trip` a step is the loop's first
    form: the kinetic factor back to samples, then the whole rotation,
    quarter turns first, which transforms back along axis 0 and at once
    forward again."""
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

    rotation = _RotationPlan(grid, ham.rotation_rate * h)
    values = np.asarray(psi0.values, dtype=complex)
    values = apply_axis_factors(values, potential_factor(0.0, 0.5 * h))
    for i in range(steps):
        if round_trip:
            values = _reference_rotate(rotation, np.fft.ifftn(np.fft.fftn(values) * kinetic_phase))
        else:
            values = np.fft.fftn(_reference_turn(rotation, values)) * kinetic_phase
            if rotation.shears:
                values = _reference_shear_spectrum(rotation, np.fft.ifft(values, axis=1))
            else:
                values = np.fft.ifftn(values)
        tau = h if i < steps - 1 else 0.5 * h
        values = apply_axis_factors(values, potential_factor((i + 1) * h, tau))
    return values


_BIT_FIELD = StaticField(b3=2.6, e=(0.12, -0.08, 0.0))
# frame rate 100: a 0.01 step turns by 1 rad > pi/4, so every step takes
# a quarter turn before its shears
_QUARTER_FIELD = StaticField(b3=200.0, e=(0.3, 0.1, 0.0))
# frame rate 10 pi: a 0.05 step turns by pi/2 exactly, a quarter turn
# with no shears
_EXACT_QUARTER_FIELD = StaticField(b3=20.0 * math.pi, e=(0.3, 0.1, 0.0))
_SPLIT_CASES = {
    "oscillator": (oscillator_hamiltonian(_BIT_FIELD.osc_params), 1e-3),
    "sinusoid-driven": (
        driven_hamiltonian(_BIT_FIELD.osc_params, _BIT_FIELD.rotated_drive()),
        1e-3,
    ),
    "planar": (planar_field_hamiltonian(_BIT_FIELD), 1e-3),
    "planar-quarter-turn": (planar_field_hamiltonian(_QUARTER_FIELD), 1e-2),
    "planar-exact-quarter-turn": (planar_field_hamiltonian(_EXACT_QUARTER_FIELD), 5e-2),
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

    @pytest.mark.parametrize(
        "b3, n", [(2.5, 32), (-2.2, 32), (3.0, 32), (2.5, 64), (-2.2, 64), (3.0, 64), (1200.0, 32)]
    )
    def test_drive_free_driven_run_is_the_oscillator_run(self, b3, n):
        # the rotated drive of a field with e = 0 is a zero force, so every
        # driven factor is the oscillator's; at b3 = 1200 its frame rate
        # times dt is 0.6, which a zero-amplitude term no longer makes the
        # time-scale guard refuse
        field = StaticField(b3=b3)
        params = field.osc_params
        grid = Grid(dims=2, n=n, half_width=8.0)
        psi0 = gaussian_wavepacket(grid, (0.5, -0.3), (0.3, 0.1), 0.8)
        ham = driven_hamiltonian(params, field.rotated_drive())
        driven = split_step_evolve(psi0, ham, 0.2, 1e-3).values
        plain = split_step_evolve(psi0, oscillator_hamiltonian(params), 0.2, 1e-3).values
        assert np.array_equal(driven, plain)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(driven)), np.signbit(part(plain)))

    def test_quarter_turn_case_takes_both_rotation_paths(self):
        # a quarter turn and three shears every step
        ham, dt = _SPLIT_CASES["planar-quarter-turn"]
        plan = _RotationPlan(Grid(dims=2, n=32, half_width=8.0), ham.rotation_rate * dt)
        assert plan.quarters != 0 and len(plan.shears) == 3

    @pytest.mark.parametrize("t", [0.2, 0.05, 0.1])
    def test_exact_quarter_turn_case_has_no_shears(self, t):
        # at every horizon the tests run it: four 0.05 steps, one or two
        ham, dt = _SPLIT_CASES["planar-exact-quarter-turn"]
        steps = max(1, int(round(t / dt)))
        plan = _RotationPlan(Grid(dims=2, n=32, half_width=8.0), ham.rotation_rate * (t / steps))
        assert plan.quarters == 1 and plan.shears == []

    @pytest.mark.parametrize(
        "kind, n, t",
        [
            ("planar", 32, 0.2),
            ("planar", 64, 0.8),
            ("planar-quarter-turn", 32, 0.2),
            ("planar-exact-quarter-turn", 32, 0.2),
        ],
        ids=["32-0.2", "64-0.8", "quarter-turn-32-0.2", "exact-quarter-turn-32-0.2"],
    )
    def test_planar_run_within_roundoff_of_round_trip(self, kind, n, t):
        # skipping the axis-0 inverse and forward transforms between the
        # kinetic factor and the first shear, and taking the quarter turns
        # before the kinetic factor, change only roundoff
        ham, dt = _SPLIT_CASES[kind]
        grid = Grid(dims=2, n=n, half_width=8.0)
        psi0 = gaussian_wavepacket(grid, (0.5, -0.3), (0.3, 0.1), 0.8, hbar=1.3)
        got = split_step_evolve(psi0, ham, t, dt).values
        first = _reference_split_step(psi0, ham, t, dt, round_trip=True)
        assert np.max(np.abs(got - first)) <= 1e-12

    @pytest.mark.parametrize(
        "kind, dims, per_step",
        [
            ("planar", 2, 8),
            ("planar-quarter-turn", 2, 8),
            ("planar-exact-quarter-turn", 2, 4),
            ("oscillator", 2, 4),
            ("sinusoid-driven", 1, 2),
        ],
    )
    def test_one_axis_transforms_per_step(self, monkeypatch, kind, dims, per_step):
        counts = collections.Counter()
        for name in ("fft", "ifft", "fftn", "ifftn"):

            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        ham, dt = _SPLIT_CASES[kind]
        grid = Grid(dims=dims, n=32, half_width=8.0)
        psi0 = gaussian_wavepacket(grid, (0.5, -0.3)[:dims], (0.3, 0.1)[:dims], 0.8)
        split_step_evolve(psi0, ham, 2 * dt, dt)
        assert counts["fftn"] == counts["ifftn"] == 0
        assert counts["fft"] + counts["ifft"] == 2 * per_step

    def test_one_dimensional_matches_out_of_place_loop(self):
        grid = Grid(dims=1, n=64, half_width=10.0)
        psi0 = gaussian_wavepacket(grid, (0.6,), (-0.2,), (0.7,))
        constant = Drive.constant((0.3, 0.0, 0.0))
        sinusoid = Drive.sinusoids([(0.8, (0.3, 0.0, 0.0), (0.0, 0.0, 0.0))])
        for drive in (constant, sinusoid):
            ham = driven_hamiltonian(OscParams(1.0, 1.2), drive)
            got = split_step_evolve(psi0, ham, 0.1, 1e-3).values
            assert np.array_equal(got, _reference_split_step(psi0, ham, 0.1, 1e-3))


class TestRotationPlanBits:
    """Rotating the state in the frame map is the out-of-place rotation to
    the last bit, whatever the split-step does with the plan's shears."""

    @pytest.mark.parametrize("angle", [0.3, -0.7, math.pi / 2, 2.2, 3.9])
    def test_matches_out_of_place_rotation(self, angle):
        grid = Grid(dims=2, n=32, half_width=8.0)
        values = gaussian_wavepacket(grid, (0.5, -0.3), (0.3, 0.1), 0.8).values
        plan = _RotationPlan(grid, angle)
        expected = _reference_rotate(plan, values)
        assert np.array_equal(plan.apply(values.copy()), expected)
        assert np.array_equal(spectral_rotate(values, grid, angle), expected)


_LINE32 = Grid(dims=1, n=32, half_width=8.0)


def _product_factors(hbar=1.0):
    return [
        gaussian_wavepacket(_LINE32, c, k, 0.8, hbar) for c, k in ((0.5, 0.3), (-0.3, 0.1))
    ]


def _product_cases(b3):
    field = StaticField(b3=b3, e=(0.12, -0.08, 0.0))
    params = field.osc_params
    return {
        "oscillator": oscillator_hamiltonian(params),
        "sinusoid-driven": driven_hamiltonian(params, field.rotated_drive()),
        "sinusoid-driven-e1-only": driven_hamiltonian(
            params, StaticField(b3=b3, e=(0.12, 0.0, 0.0)).rotated_drive()
        ),
        "constant-force-x2-only": driven_hamiltonian(params, Drive.constant((0.0, -0.2, 0.0))),
    }


class TestSplitStepProduct:
    """The product of two 1-D runs is the 2-D run of the product state."""

    @pytest.mark.parametrize("b3", [2.6, -2.6])
    @pytest.mark.parametrize("kind", sorted(_product_cases(1.0)))
    def test_matches_planar_run(self, kind, b3):
        ham = _product_cases(b3)[kind]
        u, v = _product_factors(hbar=1.3)
        psi0 = WaveFunction(
            grid=Grid(dims=2, n=32, half_width=8.0),
            values=np.multiply.outer(u.values, v.values),
            hbar=1.3,
        )
        got = split_step_product((u, v), ham, 0.2, 1e-3)
        assert got.grid == psi0.grid and got.hbar == 1.3
        assert got.distance(split_step_evolve(psi0, ham, 0.2, 1e-3)) <= 1e-12

    def test_angular_momentum_refused(self):
        ham = GridHamiltonian(mass=1.0, stiffness=1.0, rotation_rate=0.5)
        with pytest.raises(ValueError, match="couples the axes"):
            split_step_product(_product_factors(), ham, 0.1, 1e-3)

    def test_coarse_dt_refused_as_in_the_planar_run(self):
        ham = driven_hamiltonian(_QUARTER_FIELD.osc_params, _QUARTER_FIELD.rotated_drive())
        psi0 = gaussian_wavepacket(Grid(dims=2, n=32, half_width=8.0), (0.5, -0.3), (0.3, 0.1), 0.8)
        with pytest.raises(ValueError, match="time scale"):
            split_step_evolve(psi0, ham, 0.1, 1e-2)
        with pytest.raises(ValueError, match="time scale"):
            split_step_product(_product_factors(), ham, 0.1, 1e-2)

    _U = _product_factors()[0]
    _PLANE = gaussian_wavepacket(Grid(dims=2, n=32, half_width=8.0), (0.0, 0.0), (0.0, 0.0), 0.8)

    @pytest.mark.parametrize(
        "factors",
        [
            (_U, gaussian_wavepacket(Grid(dims=1, n=64, half_width=8.0), 0.0, 0.0, 0.8)),
            (_U, gaussian_wavepacket(_LINE32, 0.0, 0.0, 0.8, hbar=2.0)),
            (_PLANE, _PLANE),
        ],
        ids=["grids-differ", "hbars-differ", "two-dimensional"],
    )
    def test_mismatched_factors_refused(self, factors):
        with pytest.raises(ValueError, match="one 1D grid and one hbar"):
            split_step_product(factors, oscillator_hamiltonian(OscParams()), 0.1, 1e-3)


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

    @pytest.mark.parametrize("kind", ["oscillator", "sinusoid-driven"])
    def test_split_step_product(self, kind):
        factors = _product_factors()
        before = [f.values.copy() for f in factors]
        split_step_product(factors, _product_cases(2.6)[kind], 0.05, 1e-3)
        for f, b in zip(factors, before):
            assert np.array_equal(f.values, b)

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

    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.inf, math.nan])
    def test_half_width_positive_and_finite(self, half_width):
        # an infinite half-width used to be accepted, and split_step_evolve
        # then warned three times and failed on "amplitudes must be finite"
        with pytest.raises(ValueError, match="half_width"):
            Grid(dims=2, n=16, half_width=half_width)

    @pytest.mark.parametrize("hbar", [0.0, math.inf, math.nan])
    def test_hbar_positive_and_finite(self, hbar):
        grid = Grid(dims=2, n=16, half_width=2.0)
        with pytest.raises(ValueError, match="hbar"):
            WaveFunction(grid=grid, values=np.zeros((16, 16), dtype=complex), hbar=hbar)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"mass": 0.0}, "mass"),
            ({"mass": math.inf}, "mass"),
            ({"mass": 1.0, "stiffness": math.nan}, "stiffness"),
            ({"mass": 1.0, "rotation_rate": math.inf}, "rotation_rate"),
        ],
    )
    def test_grid_hamiltonian_inputs_checked(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GridHamiltonian(**kwargs)


_LINE = Grid(dims=1, n=16, half_width=2.0)
_LINE_WF = WaveFunction(grid=_LINE, values=np.ones(16, dtype=complex))


class TestGuards:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: Grid(dims=3, n=16, half_width=2.0), "dims must be 1 or 2"),
            (
                lambda: WaveFunction(grid=_LINE, values=np.array([1.0] * 15 + [np.inf], complex)),
                "amplitudes must be finite",
            ),
            (lambda: hermite(-1, 0.5), "n must be >= 0"),
            (lambda: hermite_shift_coefficients(-1, 0.5), "n must be >= 0"),
            (lambda: rotated_product_coefficients(-1, 0, 0.3), "k1, k2 must be >= 0"),
            (
                lambda: oscillator_eigenfunction(0, OscParams(1.0, 0.0), 1.0, 0.0),
                "eigenfunctions need omega > 0",
            ),
        ],
        ids=["grid-dims-3", "inf-amplitude", "hermite", "shift", "rotated", "omega-0"],
    )
    def test_bad_input_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: spectral_rotate(_LINE_WF.values, _LINE, 0.3), "rotation needs a 2D grid"),
            (
                lambda: product_eigenstate(_LINE, EigenLabel(0, 0), OscParams()),
                "product eigenstates need a 2D grid",
            ),
            (lambda: unitary_rotation(_LINE_WF, 1.0, 0.5), "frame rotation needs a 2D grid"),
            (
                lambda: split_step_evolve(
                    _LINE_WF, GridHamiltonian(mass=1.0, rotation_rate=0.5), 0.1, 0.05
                ),
                "angular-momentum term needs a 2D grid",
            ),
            (
                lambda: evolved_eigenstate(EigenLabel(0, 0), 0.5, StaticField(b3=2.0), _LINE),
                "evolved eigenstates need a 2D grid",
            ),
        ],
        ids=["spectral_rotate", "product_eigenstate", "unitary_rotation", "lz-term", "evolved"],
    )
    def test_two_dimensional_only(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_zero_wavefunction_has_no_boundary_mass(self):
        zero = WaveFunction(grid=_LINE, values=np.zeros(16, dtype=complex))
        assert zero.boundary_mass() == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amplitude", [0.0, 1e-170], ids=["zero", "underflow"])
    def test_normalizing_needs_a_positive_norm(self, amplitude):
        # |1e-170|^2 underflows to 0: both used to divide by a norm of 0,
        # with numpy warnings and a wavefunction of NaN amplitudes
        tiny = WaveFunction(grid=_LINE, values=np.full(16, amplitude, dtype=complex))
        message = r"^cannot normalize a wavefunction of norm 0\.0 on its grid$"
        with pytest.raises(ValueError, match=message):
            tiny.normalized()
