"""Grid wavefunctions, oscillator eigenstates, and the unitary maps that
mirror the classical canonical transformations.

Wavefunctions live on square periodic grids with cell-centered points
x_i = -X + (i + 1/2) dx, which makes the point set symmetric under
negation so quarter turns are exact index permutations.  Shifts and
rotations are applied spectrally (FFT phase ramps; rotations as three
shears plus exact quarter turns), so unitarity holds to roundoff for
states supported away from the edges.  Global phases are tracked as
separate scalar ledger entries, never silently folded into amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .core import OscParams, _check_mass, _fixed_steps
from .classical import Drive, MovingOrigin, StaticField, moving_origin_map

__all__ = [
    "Grid",
    "WaveFunction",
    "EigenLabel",
    "GridSupportError",
    "GridHamiltonian",
    "check_shift_support",
    "check_momentum_support",
    "hermite",
    "oscillator_eigenfunction",
    "oscillator_energy",
    "hermite_shift_coefficients",
    "rotated_product_coefficients",
    "gaussian_wavepacket",
    "product_eigenstate",
    "spectral_shift",
    "spectral_rotate",
    "unitary_rotation",
    "unitary_moving_origin",
    "oscillator_hamiltonian",
    "driven_hamiltonian",
    "planar_field_hamiltonian",
    "split_step_evolve",
    "split_step_product",
    "apply_hamiltonian",
    "energy_expectation",
    "EvolvedEigenstate",
    "evolved_eigenstate",
]

_BOUNDARY_CELLS = 4  # width of the frame whose mass `boundary_mass` reports
_SUPPORT_LIMIT = 1e-8  # the most boundary mass a map may move
_LEAK_LIMIT = 1e-6  # the most off-level weight a Gauss-Hermite projection may find


class GridSupportError(RuntimeError):
    """Raised when a map would move significant amplitude across the grid
    boundary; carries the offending relative boundary mass."""

    def __init__(self, message: str, boundary_mass: float):
        super().__init__(f"{message} (relative boundary mass {boundary_mass:.3e})")
        self.boundary_mass = boundary_mass


# ----------------------------------------------------------------------
# grid and wavefunction values
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-X, X] per axis, N a power of two."""

    dims: int
    n: int
    half_width: float

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two >= 16")
        if not (0 < self.half_width < math.inf):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dims

    def axis(self) -> np.ndarray:
        dx = self.spacing
        return -self.half_width + (np.arange(self.n) + 0.5) * dx

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    def meshgrid(self):
        return np.meshgrid(*(self.axis(),) * self.dims, indexing="ij")

    def wavenumbers_sq(self) -> np.ndarray:
        """|k|^2 on the FFT grid, summed from sparse per-axis factors."""
        k = self.wavenumbers()
        return sum(kk**2 for kk in np.meshgrid(*(k,) * self.dims, indexing="ij", sparse=True))


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a grid; immutable value semantics."""

    grid: Grid
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        expected = (self.grid.n,) * self.grid.dims
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid {expected}")
        if not (0 < self.hbar < math.inf):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("amplitudes must be finite")

    def norm(self) -> float:
        return math.sqrt(self.grid.cell_volume * float(np.sum(np.abs(self.values) ** 2)))

    def normalized(self) -> "WaveFunction":
        norm = self.norm()
        if not (0 < norm < math.inf):
            raise ValueError(f"cannot normalize a wavefunction of norm {norm} on its grid")
        return replace(self, values=self.values / norm)

    def inner(self, other: "WaveFunction") -> complex:
        return complex(self.grid.cell_volume * np.sum(np.conj(self.values) * other.values))

    def distance(self, other: "WaveFunction") -> float:
        return math.sqrt(
            self.grid.cell_volume * float(np.sum(np.abs(self.values - other.values) ** 2))
        )

    def position_expectation(self) -> np.ndarray:
        dens = np.abs(self.values) ** 2
        total = np.sum(dens)
        coords = self.grid.meshgrid()
        return np.array([float(np.sum(c * dens) / total) for c in coords])

    def boundary_mass(self) -> float:
        """Relative probability mass in the outermost frame, 4 cells wide."""
        return _frame_share(np.abs(self.values) ** 2)

    def momentum_boundary_mass(self) -> float:
        """Relative probability mass in the outermost frame of the
        wavenumber grid, 4 bins wide: the same frame of the fftshift-ed
        |fftn|^2, whose edge is the grid's largest wavenumber pi/spacing."""
        return _frame_share(np.fft.fftshift(np.abs(np.fft.fftn(self.values)) ** 2))


def _frame_share(dens: np.ndarray) -> float:
    """Share of the total of `dens` in its outermost frame, 4 cells wide,
    summed over the frame's cells (total minus core could round below 0)."""
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    frame = np.ones(dens.shape, dtype=bool)
    frame[(slice(_BOUNDARY_CELLS, -_BOUNDARY_CELLS),) * dens.ndim] = False
    return float(np.sum(dens[frame]) / total)


@dataclass(frozen=True)
class EigenLabel:
    """Oscillator quantum numbers (n1, n2) plus the axial wavenumber k."""

    n1: int
    n2: int
    k: float = 0.0

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("quantum numbers must be non-negative")


# ----------------------------------------------------------------------
# Hermite machinery
# ----------------------------------------------------------------------


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n, the last row of `_hermite_table`."""
    if n < 0:
        raise ValueError("n must be >= 0")
    h = _hermite_table(n, np.asarray(x, dtype=float))[n]
    return h if h.ndim else float(h)


def _hermite_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """H_0..H_nmax stacked on the leading axis, by the three-term
    recurrence H_{k+1} = 2x H_k - 2k H_{k-1}."""
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2.0 * x
    for k in range(1, nmax):
        out[k + 1] = 2.0 * x * out[k] - 2.0 * k * out[k - 1]
    return out


def oscillator_eigenfunction(n: int, params: OscParams, hbar: float, x):
    """L2-normalized oscillator eigenfunction with alpha = sqrt(m w / hbar):
    (alpha / (sqrt(pi) 2^n n!))^(1/2) H_n(alpha x) exp(-(alpha x)^2 / 2)."""
    if params.omega <= 0:
        raise ValueError("eigenfunctions need omega > 0")
    alpha = math.sqrt(params.mass * params.omega / hbar)
    u = alpha * np.asarray(x, dtype=float)
    norm = math.sqrt(alpha / (math.sqrt(math.pi) * (2.0**n) * math.factorial(n)))
    return norm * hermite(n, u) * np.exp(-0.5 * u * u)


def oscillator_energy(label: EigenLabel, params: OscParams, hbar: float) -> float:
    """hbar w (n1 + 1/2) + hbar w (n2 + 1/2) + hbar^2 k^2 / 2m."""
    w, m = params.omega, params.mass
    return hbar * w * (label.n1 + 0.5) + hbar * w * (label.n2 + 0.5) + (
        hbar * label.k
    ) ** 2 / (2.0 * m)


def hermite_shift_coefficients(n: int, v: float) -> dict:
    """Coefficients c_k with H_n(u + v) = sum_k c_k H_k(u), exactly.

    c_k = C(n, k) (2v)^(n-k); the factor 2^(n-k) is required for the
    polynomial identity to hold (H_1(u+v) = H_1(u) + 2v H_0(u)).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return {k: math.comb(n, k) * (2.0 * v) ** (n - k) for k in range(n, -1, -1)}


def rotated_product_coefficients(k1: int, k2: int, theta: float) -> tuple[dict, float]:
    """Expansion of a rotated 2D oscillator product state over unrotated
    products within the same level: ({(m1, m2): c}, leakage).

    Convention: expands phi_k1(c x1 + s x2) phi_k2(-s x1 + c x2) as
    sum c_{m1,m2} phi_m1(x1) phi_m2(x2), so level one maps
    (1,0) -> cos(theta) (1,0) + sin(theta) (0,1).  The coefficients are
    independent of mass/frequency/hbar (both sides share the length
    scale), and are computed by 2D Gauss-Hermite projection of order
    k1 + k2 + 8.  Support is confined to m1 + m2 = k1 + k2; the largest
    coefficient found off that level is the `leakage`, and must stay
    below 1e-6.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("k1, k2 must be >= 0")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    n = k1 + k2
    nodes, weights = hermgauss(n + 8)
    u1 = nodes[:, None]
    u2 = nodes[None, :]
    w2 = weights[:, None] * weights[None, :]

    c, s = math.cos(theta), math.sin(theta)
    r1 = c * u1 + s * u2
    r2 = -s * u1 + c * u2

    norms = np.array(
        [math.sqrt(math.sqrt(math.pi) * (2.0**k) * math.factorial(k)) for k in range(n + 1)]
    )
    left = hermite(k1, r1) / norms[k1] * (hermite(k2, r2) / norms[k2])
    basis1 = _hermite_table(n, np.broadcast_to(u1, r1.shape).copy()) / norms[:, None, None]
    basis2 = _hermite_table(n, np.broadcast_to(u2, r1.shape).copy()) / norms[:, None, None]

    table = np.einsum("ij,aij,bij->ab", w2 * left, basis1, basis2)
    coeffs = {}
    leakage = 0.0
    for m1 in range(n + 1):
        for m2 in range(n + 1):
            if m1 + m2 == n:
                coeffs[(m1, m2)] = float(table[m1, m2])
            else:
                leakage = max(leakage, abs(float(table[m1, m2])))
    if leakage > _LEAK_LIMIT:
        raise ValueError(
            f"quadrature order {n + 8} too small: off-level leakage {leakage:.3e}"
        )
    return coeffs, leakage


# ----------------------------------------------------------------------
# spectral shifts and rotations
# ----------------------------------------------------------------------


def _spectral_passes(values: np.ndarray, passes) -> None:
    """Run each pass (forward axes, factor, inverse axes) in place on a
    complex array the caller owns: `fft` along each forward axis, times
    `factor`, then `ifft` along each inverse axis.  Every axis is
    transformed alone, in the order given; `fftn`'s order is last axis
    first.  A pass may leave an axis transformed for the next one."""
    for forward, factor, inverse in passes:
        for axis in forward:
            np.fft.fft(values, axis=axis, out=values)
        values *= factor
        for axis in inverse:
            np.fft.ifft(values, axis=axis, out=values)


def spectral_shift(values: np.ndarray, grid: Grid, displacement) -> np.ndarray:
    """Samples of f(x - d): FFT phase ramp per axis (exact for the
    band-limited interpolant)."""
    displacement = np.atleast_1d(np.asarray(displacement, dtype=float))
    out = np.array(values, dtype=complex)
    k = grid.wavenumbers()
    for axis, d in enumerate(displacement):
        if d != 0.0:
            ramp = np.exp(-1j * k * d).reshape((-1,) + (1,) * (out.ndim - 1 - axis))
            _spectral_passes(out, [((axis,), ramp, (axis,))])
    return out


def _quarter_pullback(values: np.ndarray) -> np.ndarray:
    """Exact pullback by a +90 degree rotation: g(x, y) = f(-y, x)."""
    return values.T[:, ::-1]


class _RotationPlan:
    """Precomputed shear phases for repeated rotations by a fixed angle:
    exact quarter turns plus a three-shear decomposition of the residual
    (|residual| <= pi/4, so the shear tangents stay bounded).  `shears`
    holds the three shears as spectral passes, along axes 0, 1 and 0;
    it is empty when the residual is 0."""

    def __init__(self, grid: Grid, angle: float):
        if not math.isfinite(angle):
            raise ValueError(f"rotation angle must be finite, got {angle}")
        angle = math.remainder(angle, 2.0 * math.pi)
        self.quarters = int(round(angle / (math.pi / 2.0)))
        residual = angle - self.quarters * (math.pi / 2.0)
        self.quarters %= 4
        self.shears = []
        if residual != 0.0:
            t = -math.tan(0.5 * residual)
            s = math.sin(residual)
            k = grid.wavenumbers()
            x = grid.axis()
            shear_x = np.exp(1j * t * np.outer(k, x))
            shear_y = np.exp(1j * s * np.outer(x, k))
            self.shears = [((0,), shear_x, (0,)), ((1,), shear_y, (1,)), ((0,), shear_x, (0,))]

    def turn(self, values: np.ndarray) -> np.ndarray:
        """Quarter-turned samples, C-contiguous (`values` itself if no copy is needed)."""
        for _ in range(self.quarters):
            values = _quarter_pullback(values)
        return np.ascontiguousarray(values)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The rotated samples.  The shears run in place, so `values`
        must be a complex array the caller owns and may lose."""
        out = self.turn(values)
        _spectral_passes(out, self.shears)
        return out


def spectral_rotate(values: np.ndarray, grid: Grid, angle: float) -> np.ndarray:
    """Samples of f(R(angle) x) on a 2D grid, exact for band-limited data."""
    if values.ndim != 2:
        raise ValueError("rotation needs a 2D grid")
    return _RotationPlan(grid, angle).apply(np.array(values, dtype=complex))


# ----------------------------------------------------------------------
# state constructors
# ----------------------------------------------------------------------


def gaussian_wavepacket(
    grid: Grid,
    center,
    momentum,
    width,
    hbar: float = 1.0,
) -> WaveFunction:
    """Normalized Gaussian exp(-(x-c)^2/(4 width^2) + i p (x-c) / hbar)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
    width = np.broadcast_to(np.asarray(width, dtype=float), (grid.dims,))
    coords = grid.meshgrid()
    values = np.ones((grid.n,) * grid.dims, dtype=complex)
    for axis in range(grid.dims):
        u = coords[axis] - center[axis]
        values = values * np.exp(
            -(u**2) / (4.0 * width[axis] ** 2) + 1j * momentum[axis] * u / hbar
        )
    wf = WaveFunction(grid=grid, values=values, hbar=hbar)
    return wf.normalized()


def product_eigenstate(
    grid: Grid, label: EigenLabel, params: OscParams, hbar: float = 1.0
) -> WaveFunction:
    """phi_n1(x1) phi_n2(x2) sampled on a 2D grid (axial factor excluded)."""
    if grid.dims != 2:
        raise ValueError("product eigenstates need a 2D grid")
    ax = grid.axis()
    f1 = oscillator_eigenfunction(label.n1, params, hbar, ax)
    f2 = oscillator_eigenfunction(label.n2, params, hbar, ax)
    return WaveFunction(grid=grid, values=np.outer(f1, f2).astype(complex), hbar=hbar)


# ----------------------------------------------------------------------
# unitary maps
# ----------------------------------------------------------------------


def _support_check(mass: float, message: str) -> None:
    if mass > _SUPPORT_LIMIT:
        raise GridSupportError(message, mass)


def check_shift_support(wf: WaveFunction, shift) -> None:
    """Raise GridSupportError unless the grid holds `wf` shifted by
    `shift` (one entry per grid axis): the shift stays within half the
    half-width, and wf's boundary mass within the maps' limit of 1e-8."""
    if np.max(np.abs(shift)) > 0.5 * wf.grid.half_width:
        raise GridSupportError("shift exceeds grid support", 1.0)
    _support_check(wf.boundary_mass(), "shift would move support across the grid edge")


def check_momentum_support(wf: WaveFunction) -> None:
    """Raise GridSupportError unless the grid resolves `wf`'s momenta:
    its momentum boundary mass stays within the maps' limit of 1e-8."""
    _support_check(
        wf.momentum_boundary_mass(), "momentum support reaches the grid's wavenumber edge"
    )


def unitary_rotation(phi: WaveFunction, t: float, rate: float) -> WaveFunction:
    """Unitary frame rotation: psi(x) = phi(R(rate*t) x) on the plane, for
    a signed angular rate (half the cyclotron rate for the rotating frame).

    Norm is preserved to roundoff; raises GridSupportError when the state
    already touches the boundary.
    """
    if phi.grid.dims != 2:
        raise ValueError("frame rotation needs a 2D grid")
    _support_check(phi.boundary_mass(), "rotation would move support across the grid edge")
    return replace(phi, values=spectral_rotate(phi.values, phi.grid, float(rate) * t))


def unitary_moving_origin(varphi: WaveFunction, t: float, cmap: MovingOrigin) -> WaveFunction:
    """Unitary shift onto the moving origin with its phase:
    phi(Q) = exp(i (f(Q) + A)/hbar) varphi(Q - Q_nh), where
    f(Q) = <Q - Q_nh, P_nh> on the grid's axes, the first `dims` of three.

    The quantized image of the classical shift: positions map to shifted
    positions and momenta pick up m * dQ_nh/dt.
    """
    dims = varphi.grid.dims
    q_nh = np.asarray(cmap.q_nh(t), dtype=float)[:dims]
    p_nh = np.asarray(cmap.p_nh(t), dtype=float)[:dims]
    check_shift_support(varphi, q_nh)
    shifted = spectral_shift(varphi.values, varphi.grid, q_nh)
    coords = varphi.grid.meshgrid()
    local = np.zeros_like(coords[0])
    for axis in range(dims):
        local = local + (coords[axis] - q_nh[axis]) * p_nh[axis]
    phase = np.exp(1j * (local + cmap.phase_A(t)) / varphi.hbar)
    return replace(varphi, values=shifted * phase)


# ----------------------------------------------------------------------
# split-step evolution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GridHamiltonian:
    """Quadratic grid Hamiltonian: kinetic + (stiffness/2)|x|^2
    - <x, drive(t)> - rotation_rate * L_z (planar angular momentum).
    It holds no hbar: the wavefunction it acts on carries that."""

    mass: float
    stiffness: float = 0.0
    rotation_rate: float = 0.0
    drive: Drive | None = None

    def __post_init__(self):
        _check_mass(self.mass)
        if not (math.isfinite(self.stiffness) and math.isfinite(self.rotation_rate)):
            raise ValueError("stiffness and rotation_rate must be finite")


def oscillator_hamiltonian(params: OscParams) -> GridHamiltonian:
    return GridHamiltonian(mass=params.mass, stiffness=params.mass * params.omega**2)


def driven_hamiltonian(params: OscParams, drive: Drive) -> GridHamiltonian:
    return GridHamiltonian(
        mass=params.mass,
        stiffness=params.mass * params.omega**2,
        drive=drive,
    )


def planar_field_hamiltonian(field: StaticField) -> GridHamiltonian:
    """Planar part of the charged-particle Hamiltonian: oscillator at the
    frame rate (half the cyclotron rate), the matching angular-momentum
    term, and the static planar electric force."""
    params = field.osc_params
    e = np.asarray(field.e)
    return GridHamiltonian(
        mass=field.mass,
        stiffness=field.mass * params.omega**2,
        rotation_rate=field.frame_rate,
        drive=Drive.constant(field.charge * np.array([e[0], e[1], 0.0])),
    )


def split_step_evolve(
    psi0: WaveFunction,
    ham: GridHamiltonian,
    t: float,
    dt: float,
) -> WaveFunction:
    """Strang splitting between the spectral kinetic factor and diagonal
    potential factors; each step is unitary to roundoff.

    Time-dependent drives are sampled at the step boundaries (second-order
    accurate); psi0 is the state at time 0 and carries the hbar.  The planar
    angular-momentum term is applied as an exact per-step rotation, which
    commutes with the kinetic factor.

    Each step is one list of spectral passes: the kinetic factor, then the
    rotation's three shears, the first taking the kinetic pass's output
    still transformed along axis 0 (8 one-axis transforms, not 10).  The
    quarter turns, index permutations that commute with the isotropic
    kinetic factor, run at the top of the step.
    """
    steps, h = _fixed_steps(t, dt)
    drive_rate = ham.drive.frequency_scale() if ham.drive is not None else 0.0
    if drive_rate * h > 0.5:
        raise ValueError("dt too coarse for the drive's time scale")
    if ham.rotation_rate != 0.0 and psi0.grid.dims != 2:
        raise ValueError("angular-momentum term needs a 2D grid")

    grid = psi0.grid
    hbar = psi0.hbar
    kinetic_phase = np.exp(-1j * h * hbar * grid.wavenumbers_sq() / (2.0 * ham.mass))

    ax = grid.axis()
    harm_half = np.exp(-1j * (0.5 * h) * 0.5 * ham.stiffness * ax**2 / hbar)
    harm_full = harm_half * harm_half

    def potential_factor(time: float, tau: float):
        # separable per-axis factors: harmonic + linear drive, each shaped
        # to broadcast along its own axis
        factors = []
        base = harm_half if tau < h else harm_full
        force = ham.drive(time) if ham.drive is not None else None
        for axis in range(grid.dims):
            f = base
            if force is not None and force[axis] != 0.0:
                f = f * np.exp(1j * tau * ax * force[axis] / hbar)
            factors.append(f.reshape((-1,) + (1,) * (grid.dims - 1 - axis)))
        return factors

    # a force that does not change gives the same full-step factors at
    # every step
    full_step = potential_factor(h, h) if drive_rate == 0.0 else None

    rotation = _RotationPlan(grid, ham.rotation_rate * h)
    axes = tuple(reversed(range(grid.dims)))
    passes = [(axes, kinetic_phase, axes)]
    if rotation.shears:
        (_, shear, inverse), *rest = rotation.shears
        passes = [(axes, kinetic_phase, axes[:-1]), ((), shear, inverse), *rest]
    values = np.array(psi0.values, dtype=complex)
    for f in potential_factor(0.0, 0.5 * h):
        values *= f
    for i in range(steps):
        values = rotation.turn(values)
        _spectral_passes(values, passes)
        tau = h if i < steps - 1 else 0.5 * h
        if tau == h and full_step is not None:
            factors = full_step
        else:
            factors = potential_factor((i + 1) * h, tau)
        for f in factors:
            values *= f
    return replace(psi0, values=values)


def split_step_product(factors, ham: GridHamiltonian, t: float, dt: float) -> WaveFunction:
    """`split_step_evolve` of the planar product state u(x1) v(x2), run as
    one 1-D evolution per axis, each under its own force component.

    Every kinetic, harmonic and force factor of a Strang step is a product
    of one-axis factors and the 2-D DFT is the tensor product of 1-D ones,
    so in exact arithmetic this is the 2-D run, at O(N log N) a step
    instead of O(N^2 log N).  `factors` are two wavefunctions on one 1-D
    grid with one hbar; the angular-momentum term couples the axes, so a
    Hamiltonian with a rotation rate is refused.  Each factor's time-scale
    guard reads its own component, so a drive term along x3 alone sets no
    rate here.
    """
    u, v = factors
    if u.grid.dims != 1 or u.grid != v.grid or u.hbar != v.hbar:
        raise ValueError("product factors need one 1D grid and one hbar")
    if ham.rotation_rate != 0.0:
        raise ValueError("angular-momentum term couples the axes")
    evolved = [
        split_step_evolve(
            f, ham if ham.drive is None else replace(ham, drive=ham.drive.component(axis)), t, dt
        ).values
        for axis, f in enumerate(factors)
    ]
    return WaveFunction(replace(u.grid, dims=2), np.multiply.outer(*evolved), u.hbar)


def apply_hamiltonian(psi: WaveFunction, ham: GridHamiltonian, t: float = 0.0) -> np.ndarray:
    """H psi on the grid with spectral derivatives (used by expectation
    values and residual checks)."""
    grid = psi.grid
    hbar = psi.hbar
    values = psi.values
    kin = np.fft.ifftn((hbar**2 * grid.wavenumbers_sq() / (2.0 * ham.mass)) * np.fft.fftn(values))
    coords = grid.meshgrid()
    out = kin + 0.5 * ham.stiffness * sum(c**2 for c in coords) * values
    if ham.drive is not None:
        force = ham.drive(t)
        out = out - sum(c * f for c, f in zip(coords, force)) * values
    if ham.rotation_rate != 0.0:
        k = grid.wavenumbers()
        x, y = coords
        dx = np.array(values, dtype=complex)
        _spectral_passes(dx, [((0,), 1j * k[:, None], (0,))])
        dy = np.array(values, dtype=complex)
        _spectral_passes(dy, [((1,), 1j * k, (1,))])
        lz = -1j * hbar * (x * dy - y * dx)
        out = out - ham.rotation_rate * lz
    return out


def energy_expectation(psi: WaveFunction, ham: GridHamiltonian, t: float = 0.0) -> float:
    """Real part of <psi|H|psi>/<psi|psi> on the grid."""
    hpsi = apply_hamiltonian(psi, ham, t)
    num = np.sum(np.conj(psi.values) * hpsi)
    den = np.sum(np.abs(psi.values) ** 2)
    return float(np.real(num / den))


# ----------------------------------------------------------------------
# evolved eigenstates with phase ledger
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EvolvedEigenstate:
    """Time-t image of an oscillator eigenstate under the full unitary
    chain, with the scalar phases kept as separate ledger entries.

    `wavefunction` carries the spatial profile including the
    position-dependent momentum phase; `dynamical_phase`, `action_phase`
    and `axial_phase` are scalars (radians), and the axial plane wave is
    represented by its wavenumber rather than sampled.
    """

    wavefunction: WaveFunction
    dynamical_phase: float
    action_phase: float
    axial_wavenumber: float
    axial_phase: float
    q_nh: np.ndarray
    p_nh: np.ndarray

    @property
    def total_scalar_phase(self) -> float:
        return self.dynamical_phase + self.action_phase + self.axial_phase

    def with_scalar_phases(self) -> WaveFunction:
        return replace(
            self.wavefunction,
            values=self.wavefunction.values * np.exp(1j * self.total_scalar_phase),
        )


def evolved_eigenstate(
    label: EigenLabel,
    t: float,
    field: StaticField,
    grid: Grid,
    hbar: float = 1.0,
) -> EvolvedEigenstate:
    """Solution at time t of the charged-particle evolution whose initial
    condition is the product eigenstate `label`.

    Assembled analytically: the moving-origin shift and momentum phase on
    the oscillator profile, then the exact frame rotation, with the
    dynamical, action and axial phases reported separately.
    """
    if grid.dims != 2:
        raise ValueError("evolved eigenstates need a 2D grid")
    params = field.osc_params
    mover = moving_origin_map(params, field.rotated_drive())
    q_nh = np.asarray(mover.q_nh(t), dtype=float)
    p_nh = np.asarray(mover.p_nh(t), dtype=float)
    action = float(mover.phase_A(t))
    energy = oscillator_energy(label, params, hbar)

    angle = field.frame_rate * t
    c, s = math.cos(angle), math.sin(angle)
    x, y = grid.meshgrid()
    r1 = c * x - s * y
    r2 = s * x + c * y
    f1 = oscillator_eigenfunction(label.n1, params, hbar, r1 - q_nh[0])
    f2 = oscillator_eigenfunction(label.n2, params, hbar, r2 - q_nh[1])
    local = (r1 - q_nh[0]) * p_nh[0] + (r2 - q_nh[1]) * p_nh[1]
    values = f1 * f2 * np.exp(1j * local / hbar)

    k_eff = label.k + p_nh[2] / hbar
    return EvolvedEigenstate(
        wavefunction=WaveFunction(grid=grid, values=values, hbar=hbar),
        dynamical_phase=-energy * t / hbar,
        action_phase=action / hbar,
        axial_wavenumber=k_eff,
        axial_phase=-k_eff * q_nh[2],
        q_nh=q_nh,
        p_nh=p_nh,
    )
