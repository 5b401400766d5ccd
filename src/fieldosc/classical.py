"""Closed-form classical dynamics and the canonical maps linking them.

Three Hamiltonians are handled:

* ``H1`` -- a charge in a uniform axial magnetic field plus a static
  electric field,
* ``H2`` -- a planar harmonic oscillator driven by a spatially constant,
  time-dependent force,
* ``H3`` -- the plain planar oscillator, which is H2 at `Drive.zero()`.

Phase-space points are plain numpy arrays of six finite components in the
*interleaved* layout ``(Q1, P1, Q2, P2, Q3, P3)``; all evaluators and
maps broadcast over leading axes, so batches of states can be pushed
through in one call.

Conventions: the magnetic coupling enters through the signed cyclotron
rate ``w_c = q*B3/m`` (with the vector potential ``(m*w_c/2) z_hat cross x``,
which at q = 1 is exactly ``B cross x / 2``).  The equivalent oscillator
frequency is half the cyclotron rate, which is also the angular speed of
the rotating frame that removes the magnetic term; the equivalence tests
in this package check that chain end to end against a brute-force
integrator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    _PANELS_PER_UNIT,
    OscParams,
    _as_state,
    _as_times,
    _check_mass,
    _fixed_steps,
    _sin_over_mw,
    block_propagate_path,
    cumulative_simpson,
    rk4_steps,
    simpson_panels,
)

__all__ = [
    "Drive",
    "StaticField",
    "CanonicalMap",
    "MovingOrigin",
    "EquivalenceReport",
    "FlowBlowupError",
    "eval_H1",
    "eval_H2",
    "h1_evaluator",
    "h2_evaluator",
    "solve_driven",
    "forced_path",
    "frame_rotation",
    "moving_origin_map",
    "rk4_hamiltonian_flow",
    "symplectic_defect",
    "equivalence_report",
]

_FD_STEP = 1e-5  # relative step of the finite-difference gradients and Jacobians
_SYMPLECTIC_SAMPLES = 20  # random (t, z) points at which the report checks each map

# the symplectic form of the interleaved layout: [[0, 1], [-1, 0]] per (Q, P) pair
_SIGMA = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])


class FlowBlowupError(RuntimeError):
    """Raised when an integration produces non-finite values."""

    def __init__(self, time):
        super().__init__(f"non-finite state encountered at t = {time:.6g}")
        self.time = time


# ----------------------------------------------------------------------
# drives
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Drive:
    """Spatially constant force k(t): a bank of terms
    ``cos_amp*cos(w t) + sin_amp*sin(w t)``, in which a constant force is
    one term of frequency 0.  Calling with a scalar returns shape (3,);
    with an array of times, shape (..., 3).
    """

    terms: tuple

    @classmethod
    def zero(cls) -> "Drive":
        return cls.constant((0.0, 0.0, 0.0))

    @classmethod
    def constant(cls, force) -> "Drive":
        """A fixed force: one zero-frequency term (a -0.0 component
        evaluates to +0.0)."""
        return cls.sinusoids([(0.0, force, np.zeros(3))])

    @classmethod
    def sinusoids(cls, terms: Sequence) -> "Drive":
        packed = []
        for w, cos_amp, sin_amp in terms:
            w = float(w)
            cos_amp = np.asarray(cos_amp, dtype=float).reshape(3)
            sin_amp = np.asarray(sin_amp, dtype=float).reshape(3)
            if not (math.isfinite(w) and np.isfinite((cos_amp, sin_amp)).all()):
                raise ValueError("drive frequencies and amplitudes must be finite")
            packed.append((w, cos_amp, sin_amp))
        return cls(terms=tuple(packed))

    @classmethod
    def rotating_constant(cls, vec, rate: float) -> "Drive":
        """R_z(rate*t) applied to a fixed vector, as a sinusoid bank."""
        v1, v2, v3 = np.asarray(vec, dtype=float).reshape(3)
        return cls.sinusoids(
            [
                (float(rate), (v1, v2, 0.0), (-v2, v1, 0.0)),
                (0.0, (0.0, 0.0, v3), (0.0, 0.0, 0.0)),
            ]
        )

    def frequency_scale(self) -> float:
        """Fastest rate at which the force changes: the largest |w|."""
        return max((abs(w) for w, _, _ in self.terms), default=0.0)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tt = np.atleast_1d(t)
        out = np.zeros(tt.shape + (3,))
        for w, ca, sa in self.terms:
            out += np.cos(w * tt)[..., None] * ca + np.sin(w * tt)[..., None] * sa
        return out[0] if t.ndim == 0 else out.reshape(t.shape + (3,))


# ----------------------------------------------------------------------
# fields and Hamiltonians
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StaticField:
    """Uniform axial magnetic field B3 plus a static electric field."""

    b3: float
    e: tuple = (0.0, 0.0, 0.0)
    charge: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _check_mass(self.mass)
        object.__setattr__(self, "e", tuple(float(c) for c in np.reshape(self.e, 3)))

    @property
    def cyclotron_rate(self) -> float:
        """Signed rotation rate q*B3/m of the velocity in this field."""
        return self.charge * self.b3 / self.mass

    @property
    def frame_rate(self) -> float:
        """Signed angular speed of the frame that removes the magnetic
        term: half the cyclotron rate."""
        return 0.5 * self.cyclotron_rate

    @property
    def osc_params(self) -> OscParams:
        """Equivalent-oscillator parameters: frequency |frame_rate|."""
        return OscParams(self.mass, abs(self.frame_rate))

    def rotated_drive(self) -> Drive:
        """Force q*E seen in the rotating frame, as a sinusoid bank."""
        e = np.asarray(self.e)
        return Drive.rotating_constant(self.charge * e, self.frame_rate)


def eval_H1(field: StaticField, z) -> np.ndarray | float:
    """Energy of a charge in the static field: |p - a(x)|^2/2m - q<x,E>
    with a(x) = (m*w_c/2) z_hat cross x (equal to B cross x / 2 at q=1)."""
    return h1_evaluator(field)(_as_state(z), 0.0)


def eval_H2(params: OscParams, drive: Drive, z, t) -> np.ndarray | float:
    """Driven-oscillator energy: kinetic + (m w^2/2)|planar Q|^2 - <Q, k(t)>;
    at `Drive.zero()` it is the plain-oscillator energy H3."""
    z = _as_state(z)
    m, w = params.mass, params.omega
    q = z[..., 0::2]
    p = z[..., 1::2]
    k = drive(t)
    return (
        np.sum(p * p, axis=-1) / (2.0 * m)
        + 0.5 * m * w * w * (q[..., 0] ** 2 + q[..., 1] ** 2)
        - np.sum(q * k, axis=-1)
    )


def h1_evaluator(fields) -> Callable:
    """Vectorized H1 evaluator of one field, or batched over a sequence of
    fields; the one H1 formula of the package.

    With B fields the returned callable maps states of shape (..., B, 6)
    to energies of shape (..., B); a single field has no batch axis and
    maps (..., 6) to (...).  It does not check its states (`eval_H1`
    does); it is meant to feed `rk4_hamiltonian_flow`, which checks them.
    """
    batched = not isinstance(fields, StaticField)
    # rows: the frame rate times m, 2m, and the three of q*E
    coefs = np.array(
        [
            (f.frame_rate * f.mass, 2.0 * f.mass, *(np.asarray(f.e) * f.charge))
            for f in (fields if batched else [fields])
        ]
    ).T
    if not batched:
        coefs = coefs[:, 0]

    @functools.lru_cache(maxsize=8)
    def coefs_for(batch: tuple) -> np.ndarray:
        # spread out to the full batch shape, so that every ufunc below
        # sees operands of one shape and no broadcasting
        full = np.broadcast_shapes(batch, coefs.shape[1:])
        column = coefs.reshape((5,) + (1,) * (len(full) - coefs.ndim + 1) + coefs.shape[1:])
        spread = np.broadcast_to(column, (5,) + full).copy()
        spread.flags.writeable = False  # shared by every call of that shape
        return spread

    def evaluate(z, t):
        half, two_mass, qe1, qe2, qe3 = coefs_for(z.shape[:-1])
        x1, p1 = z[..., 0], z[..., 1]
        x2, p2 = z[..., 2], z[..., 3]
        x3, p3 = z[..., 4], z[..., 5]
        v1 = p1 + half * x2
        v2 = p2 - half * x1
        kinetic = (v1 * v1 + v2 * v2 + p3 * p3) / two_mass
        return kinetic - (x1 * qe1 + x2 * qe2 + x3 * qe3)

    return evaluate


def h2_evaluator(params: OscParams, drive: Drive) -> Callable:
    return lambda z, t: eval_H2(params, drive, z, t)


# ----------------------------------------------------------------------
# forced response
# ----------------------------------------------------------------------


def _forced_path_on(times: np.ndarray, params: OscParams, drive: Drive) -> np.ndarray:
    """Forced response at every grid time: Z_nh(t) = U(t) * int_0^t U(-s) K(s) ds
    evaluated with a cumulative Simpson rule on the uniform grid."""
    m, w = params.mass, params.omega
    n = times.size - 1
    if n < 2 or n % 2:
        raise ValueError("forced path needs an even panel count >= 2")
    dt = times[1] - times[0]
    k = drive(times)  # (N+1, 3)
    out = np.zeros((times.size, 6))
    for axis in range(3):
        kx = k[:, axis]
        if axis < 2 and m * w > 0.0:
            c, s = np.cos(w * times), np.sin(w * times)
            v_q = _sin_over_mw(params, times, s, -kx)
            v_p = c * kx
            c1 = cumulative_simpson(v_q, dt)
            c2 = cumulative_simpson(v_p, dt)
            out[:, 2 * axis] = c * c1 + _sin_over_mw(params, times, s) * c2
            out[:, 2 * axis + 1] = -m * w * s * c1 + c * c2
        else:
            # omega -> 0 limit: kernel (t - s)/m for the position row
            c1 = cumulative_simpson(-times * kx / m, dt)
            c2 = cumulative_simpson(kx, dt)
            out[:, 2 * axis] = c1 + times * c2 / m
            out[:, 2 * axis + 1] = c2
    return out


def forced_path(params: OscParams, drive: Drive, times: np.ndarray) -> np.ndarray:
    """Zero-initial-data response sampled on a uniform time grid."""
    times = np.asarray(times, dtype=float)
    return _forced_path_on(times, params, drive)


def _forced_path_and_action(
    times: np.ndarray, params: OscParams, drive: Drive
) -> tuple[np.ndarray, np.ndarray]:
    """Forced trajectory (the moving origin) at every grid time, and the
    action accumulated along it: the time integral of the Lagrangian dual
    to the driven-oscillator Hamiltonian.  One forced-path pass gives both."""
    z_nh = _forced_path_on(times, params, drive)
    m, w = params.mass, params.omega
    q = z_nh[:, 0::2]
    p = z_nh[:, 1::2]
    k = drive(times)
    lagrangian = (
        np.sum(p * p, axis=-1) / (2.0 * m)
        - 0.5 * m * w * w * (q[:, 0] ** 2 + q[:, 1] ** 2)
        + np.sum(q * k, axis=-1)
    )
    return z_nh, cumulative_simpson(lagrangian, times[1] - times[0])


# ----------------------------------------------------------------------
# canonical maps
# ----------------------------------------------------------------------


@dataclass
class CanonicalMap:
    """Time-indexed phase-space diffeomorphism with its generating phase.

    `forward(t, z)` and `inverse(t, z)` broadcast over leading axes of z;
    `phase_A(t)` is the scalar generating phase.
    """

    forward: Callable
    inverse: Callable
    phase_A: Callable


@dataclass
class MovingOrigin(CanonicalMap):
    """Shift onto a moving origin, which `q_nh(t)` and `p_nh(t)` expose
    (position and momentum, three components each)."""

    q_nh: Callable
    p_nh: Callable


def _rotate_pairs(z: np.ndarray, angle) -> np.ndarray:
    """Rotate the planar position and momentum pairs by `angle`, a scalar
    or an array of angles that broadcasts against z[..., 0]."""
    c, s = np.cos(angle), np.sin(angle)
    out = np.array(z, dtype=float, copy=True)
    x1, x2 = z[..., 0], z[..., 2]
    p1, p2 = z[..., 1], z[..., 3]
    out[..., 0] = c * x1 - s * x2
    out[..., 2] = s * x1 + c * x2
    out[..., 1] = c * p1 - s * p2
    out[..., 3] = s * p1 + c * p2
    return out


def frame_rotation(rate: float) -> CanonicalMap:
    """Canonical map that rotates the planar (Q, P) pairs by `rate * t`;
    t may be an array of times that broadcasts against the states.  The
    generating phase vanishes identically for this map.

    At `field.frame_rate`, half the cyclotron rate, it is the map into the
    rotating frame, where the magnetic term disappears and the dynamics is
    the driven oscillator with the force `field.rotated_drive()`.  The
    rate and the times must be finite.
    """
    if not math.isfinite(rate):
        raise ValueError(f"frame rate must be finite, got {rate}")

    def forward(t, z):
        return _rotate_pairs(_as_state(z), rate * _as_times(t))

    def inverse(t, z):
        return _rotate_pairs(_as_state(z), -rate * _as_times(t))

    return CanonicalMap(forward=forward, inverse=inverse, phase_A=lambda t: 0.0)


def moving_origin_map(
    params: OscParams,
    drive: Drive,
    panels_per_unit: float = _PANELS_PER_UNIT,
) -> MovingOrigin:
    """Canonical shift onto the forced trajectory (the moving origin).

    forward: (Q, P) -> (Q - Q_nh(t), P - P_nh(t)); the generating phase is
    the action accumulated along the moving origin, so it solves
    dA/dt = kinetic - potential evaluated on the forced trajectory.  Both
    come from one composite-Simpson pass at `panels_per_unit` panels per
    unit time.  The origin and the phase at the last time asked for are
    kept; the origin is read-only, as callers share it.
    """

    @functools.lru_cache(maxsize=1)
    def at(t: float) -> tuple[np.ndarray, float]:
        origin, phase = np.zeros(6), 0.0
        if t != 0.0:
            grid = np.linspace(0.0, t, simpson_panels(panels_per_unit, t) + 1)
            path, action = _forced_path_and_action(grid, params, drive)
            origin, phase = path[-1].copy(), float(action[-1])
        origin.flags.writeable = False
        return origin, phase

    def origin(t) -> np.ndarray:
        return at(float(t))[0]

    return MovingOrigin(
        forward=lambda t, z: _as_state(z) - origin(t),
        inverse=lambda t, z: _as_state(z) + origin(t),
        phase_A=lambda t: at(float(t))[1],
        q_nh=lambda t: origin(t)[0::2],
        p_nh=lambda t: origin(t)[1::2],
    )


def solve_driven(
    params: OscParams,
    drive: Drive,
    z0,
    t: float,
    panels_per_unit: float = _PANELS_PER_UNIT,
) -> np.ndarray:
    """Exact state of the driven oscillator at time t >= 0: the plain
    oscillator propagator, then the inverse moving-origin map, which adds
    the forced response (`moving_origin_map` at `panels_per_unit`).  z0
    may be batched (..., 6)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    homogeneous = block_propagate_path(params, z0, t)[0]
    return moving_origin_map(params, drive, panels_per_unit).inverse(t, homogeneous)


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------


def rk4_hamiltonian_flow(
    hamiltonian: Callable,
    z0,
    t: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 integration of dz/dt = Sigma grad H, with the gradient
    obtained by central finite differences (step 1e-5*(1 + max|z|)).

    z0 may be a batch (..., 6) of finite states; t >= 0 and dt > 0 must
    be finite.  `hamiltonian(z, t)` must broadcast over the leading axes
    of z: each gradient is one call on a stack of the 12 displaced
    states, shape (12,) + z0.shape, with the displacement axis leading
    and the component axis last.  Row r < 6 displaces component r ^ 1
    (the other half of its (Q, P) pair) by +step and row 6 + r displaces
    it by -step, so the differences come out in the order of Sigma grad H.
    The stack is a transposed view of a component-major buffer: z[..., k]
    is a contiguous block.

    Returns (times, path): the steps+1 times from 0 to t, and the states
    there, shape (steps+1,) + z0.shape, so path[-1] is the state at t.  H
    quadratic in z makes the central difference exact up to roundoff, so
    the oracle error is O(dt^4).  A step that leaves a non-finite state
    raises FlowBlowupError, the one report of a blow-up: overflow inside
    the step is not warned about.
    """
    steps, h = _fixed_steps(t, dt)
    z = _as_state(z0)
    dim = 6
    # The state is carried component-major, shape (dim,) + batch, so that
    # every ufunc of a step runs on contiguous operands of one shape.
    batch = z.shape[:-1]
    nb = len(batch)
    to_state = tuple(range(1, nb + 1)) + (0,)
    to_sides = tuple(range(1, nb + 2)) + (0,)
    # pattern times the step gives, in one product, the displacement of
    # component c in row r (the first 2*dim*dim entries, c-major) and then
    # the divisor +-2*step that turns the difference of row c into
    # component c of Sigma grad H: + for a Q row, which gets dH/dP, and -
    # for a P row, which gets -dH/dQ.  The zeros of -partner stay -0.0, so
    # the displaced states equal state + step * (+-eye) in every bit, the
    # signs of zeros included.
    partner = np.eye(dim)[np.arange(dim) ^ 1]
    displacement = np.concatenate((partner, -partner), axis=0).T
    pattern = np.concatenate((displacement.ravel(), np.tile([2.0, -2.0], dim // 2)))
    pattern = np.broadcast_to(
        pattern.reshape((-1,) + (1,) * nb), (pattern.size,) + batch
    ).copy()
    n_disp = displacement.size
    sides_shape = displacement.shape + batch

    def velocity(state, time):
        scale = _FD_STEP * (1.0 + np.maximum.reduce(np.abs(state), axis=0))
        spread = scale[None].repeat(pattern.shape[0], axis=0)
        spread *= pattern
        sides = state.repeat(2 * dim, axis=0)
        sides += spread[:n_disp]
        # H sees shape (2*dim,) + batch + (dim,): displacement axis leading,
        # component axis last
        energies = hamiltonian(sides.reshape(sides_shape).transpose(to_sides), time)
        return (energies[:dim] - energies[dim:]) / spread[n_disp:]

    path = np.empty((steps + 1,) + z.shape)
    path[0] = z
    # H receives each stage time as a Python float
    flow = rk4_steps(velocity, np.ndarray.tolist, np.moveaxis(z, -1, 0), h, steps)
    # overflow inside a step leaves a non-finite state: the check below
    # reports it, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (time, state) in enumerate(flow, 1):
            if not np.isfinite(state).all():
                raise FlowBlowupError(time)
            path[i] = state.transpose(to_state)
    return np.linspace(0.0, t, steps + 1), path


def symplectic_defect(map_fn: Callable, t: float, z) -> float:
    """Max-norm defect J^T Sigma J - Sigma of the finite-difference
    Jacobian of `map_fn(t, .)` at z (step 1e-5*(1 + max|z|))."""
    z = _as_state(z)
    scale = _FD_STEP * (1.0 + float(np.max(np.abs(z))))
    disp = scale * np.eye(6)
    plus = map_fn(t, z[None, :] + disp)
    minus = map_fn(t, z[None, :] - disp)
    jac = (plus - minus).T / (2.0 * scale)
    return float(np.max(np.abs(jac.T @ _SIGMA @ jac - _SIGMA)))


# ----------------------------------------------------------------------
# end-to-end equivalence report
# ----------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """Outcome of pushing a brute-force charged-particle trajectory through
    the rotating-frame and moving-origin maps and comparing with the plain
    oscillator closed form."""

    max_deviation: float
    invariant_drift: float
    symplectic_defect_rotating: float
    symplectic_defect_moving: float
    phase_times: np.ndarray
    phase_values: np.ndarray

    @property
    def phase_max_abs(self) -> float:
        return float(np.max(np.abs(self.phase_values)))


def equivalence_report(
    field: StaticField,
    z0,
    horizon: float,
    dt: float = 1e-4,
    seed: int = 0,
) -> EquivalenceReport:
    """Integrate the charge Hamiltonian by the RK4 oracle, map through the
    rotating frame and the moving origin, and compare against the plain
    oscillator propagator."""
    z0 = _as_state(z0)
    params = field.osc_params
    frame = frame_rotation(field.frame_rate)
    drive = field.rotated_drive()

    steps = max(2, _fixed_steps(horizon, dt)[0])
    steps += steps % 2
    times, oracle = rk4_hamiltonian_flow(h1_evaluator(field), z0, horizon, horizon / steps)

    origin_path, phase_values = _forced_path_and_action(times, params, drive)
    mapped = frame.forward(times, oracle) - origin_path
    reference = block_propagate_path(params, z0, times)
    max_deviation = float(np.max(np.abs(mapped - reference)))

    # homogeneous-orbit invariant <Z, H Z> along the closed-form orbit
    m, w = params.mass, params.omega
    quad_form = (
        m * w * w * (reference[:, 0] ** 2 + reference[:, 2] ** 2)
        + (reference[:, 1] ** 2 + reference[:, 3] ** 2 + reference[:, 5] ** 2) / m
    )
    invariant_drift = float(np.max(np.abs(quad_form - quad_form[0])))

    rng = np.random.default_rng(seed)
    mover = moving_origin_map(params, drive, 1.0 / dt)
    defect_rot = 0.0
    defect_mov = 0.0
    for _ in range(_SYMPLECTIC_SAMPLES):
        ts = rng.uniform(0.0, horizon)
        zs = rng.normal(scale=1.0, size=6)
        defect_rot = max(defect_rot, symplectic_defect(frame.forward, ts, zs))
        defect_mov = max(defect_mov, symplectic_defect(mover.forward, ts, zs))

    stride = max(1, steps // 32)
    return EquivalenceReport(
        max_deviation=max_deviation,
        invariant_drift=invariant_drift,
        symplectic_defect_rotating=defect_rot,
        symplectic_defect_moving=defect_mov,
        phase_times=times[::stride].copy(),
        phase_values=phase_values[::stride].copy(),
    )
