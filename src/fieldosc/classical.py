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
    _pair_groups,
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
        """Fastest rate at which the force changes: the largest |w| over
        the terms with a nonzero amplitude (a term that is all zeros is
        no force at any rate)."""
        return max(
            (abs(w) for w, ca, sa in self.terms if ca.any() or sa.any()), default=0.0
        )

    def component(self, axis: int) -> "Drive":
        """The force's `axis` component alone, moved to the first slot
        (the one a 1-D grid reads); its first slot is ``self(t)[..., axis]``
        bit for bit, and the other two are zero."""
        return Drive(terms=tuple(
            (w, np.array([ca[axis], 0.0, 0.0]), np.array([sa[axis], 0.0, 0.0]))
            for w, ca, sa in self.terms
        ))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tt = np.atleast_1d(t)
        out = np.zeros(tt.shape + (3,))
        for w, ca, sa in self.terms:
            out += np.cos(w * tt)[..., None] * ca + np.sin(w * tt)[..., None] * sa
        return out[0] if t.ndim == 0 else out


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
    return h1_evaluator(field)(0.0)(np.moveaxis(_as_state(z), -1, 0))


def eval_H2(params: OscParams, drive: Drive, z, t: float) -> np.ndarray | float:
    """Driven-oscillator energy at time t: kinetic + (m w^2/2)|planar Q|^2
    - <Q, k(t)>; at `Drive.zero()` it is the plain-oscillator energy H3."""
    return h2_evaluator(params, drive)(t)(np.moveaxis(_as_state(z), -1, 0))


def _h1_energy(half, two_mass, qe1, qe2, qe3, z):
    x1, p1, x2, p2, x3, p3 = z
    v1 = p1 + half * x2
    v2 = p2 - half * x1
    kinetic = (v1 * v1 + v2 * v2 + p3 * p3) / two_mass
    return kinetic - (x1 * qe1 + x2 * qe2 + x3 * qe3)


def h1_evaluator(fields) -> Callable:
    """H1 of one field, or batched over a sequence of fields, in the
    oracle's protocol; the one H1 formula of the package.

    `h1_evaluator(fields)(t)` is `energy(z)`, the same function at every
    t, which reads a component-major state: z is six components
    ``x1, p1, x2, p2, x3, p3``.  For one field they may be Python floats
    (the coefficients are floats too, so no numpy call is made) or arrays
    of any one shape.  For B fields each component is an array whose last
    axis is the batch of B, and the energy has that shape.  It does not
    check its states (`eval_H1` does); it is meant to feed
    `rk4_hamiltonian_flow`, which checks them.
    """
    def coefs(f):
        # the frame rate times m, 2m, and the three of q*E
        return (f.frame_rate * f.mass, 2.0 * f.mass, *(c * f.charge for c in f.e))

    if isinstance(fields, StaticField):
        energy = functools.partial(_h1_energy, *coefs(fields))
        return lambda t: energy
    table = np.array([coefs(f) for f in fields]).T

    @functools.lru_cache(maxsize=8)
    def coefs_for(shape: tuple) -> tuple:
        # spread out to the components' shape, so that every ufunc of the
        # energy sees operands of one shape and no broadcasting: on broadcast
        # coefficients the classical acceptance batch stepped 15-30% slower
        full = np.broadcast_shapes(shape, table.shape[1:])
        column = table.reshape((5,) + (1,) * (len(full) - 1) + table.shape[1:])
        spread = np.broadcast_to(column, (5,) + full).copy()
        spread.flags.writeable = False  # shared by every call of that shape
        return tuple(spread)

    def energy(z):
        return _h1_energy(*coefs_for(z[0].shape), z)

    return lambda t: energy


def h2_evaluator(params: OscParams, drive: Drive) -> Callable:
    """Driven-oscillator H2 in the oracle's protocol: `h2_evaluator(params,
    drive)(t)` evaluates the drive once, as three Python floats, and
    returns `energy(z)` on a component-major state (six components, Python
    floats or arrays of one shape)."""
    two_mass = 2.0 * params.mass
    stiffness = 0.5 * params.mass * params.omega * params.omega

    def hamiltonian(t):
        k1, k2, k3 = drive(t).tolist()

        def energy(z):
            x1, p1, x2, p2, x3, p3 = z
            return (
                (p1 * p1 + p2 * p2 + p3 * p3) / two_mass
                + stiffness * (x1 * x1 + x2 * x2)
                - (x1 * k1 + x2 * k2 + x3 * k3)
            )

        return energy

    return hamiltonian


# ----------------------------------------------------------------------
# forced response
# ----------------------------------------------------------------------


def _forced_path_on(
    times: np.ndarray, params: OscParams, drive: Drive
) -> tuple[np.ndarray, np.ndarray]:
    """Forced trajectory Z_nh(t) = U(t) * int_0^t U(-s) K(s) ds (the moving
    origin) at every grid time, and the action along it, the integral of
    the Lagrangian dual to the driven-oscillator Hamiltonian: cumulative
    Simpson rules on the uniform grid, from one evaluation of the drive.
    The axial pair's kernel is the oscillator's at omega = 0 (`_pair_groups`)."""
    n = times.size - 1
    if n < 2 or n % 2:
        raise ValueError("forced path needs an even panel count >= 2")
    dt = times[1] - times[0]
    k = drive(times)  # (N+1, 3)
    out = np.empty((times.size, 6))
    for pairs, group in _pair_groups(params):
        m, w = group.mass, group.omega
        # at w = 0 the cosine is 1 and the sine is its argument, +-0
        x = w * times
        c, s = (1.0, x) if w == 0.0 else (np.cos(x), np.sin(x))
        upper = _sin_over_mw(group, times, s)
        for axis in pairs:
            kx = k[:, axis]
            c1 = cumulative_simpson(_sin_over_mw(group, times, s, -kx), dt)
            c2 = cumulative_simpson(c * kx, dt)
            out[:, 2 * axis] = c * c1 + upper * c2
            out[:, 2 * axis + 1] = -m * w * s * c1 + c * c2
    m, w = params.mass, params.omega
    q, p = out[:, 0::2], out[:, 1::2]
    lagrangian = (
        np.sum(p * p, axis=-1) / (2.0 * m)
        - 0.5 * m * w * w * (q[:, 0] ** 2 + q[:, 1] ** 2)
        + np.sum(q * k, axis=-1)
    )
    return out, cumulative_simpson(lagrangian, dt)


def forced_path(params: OscParams, drive: Drive, times: np.ndarray) -> np.ndarray:
    """Zero-initial-data response sampled on a uniform time grid."""
    return _forced_path_on(_as_times(times), params, drive)[0]


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
        grid = np.linspace(0.0, t, simpson_panels(panels_per_unit, t) + 1)
        path, action = _forced_path_on(grid, params, drive)
        origin = path[-1].copy()
        origin.flags.writeable = False
        return origin, float(action[-1])

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


def _one_state_velocity(s: list, energy: Callable) -> list:
    """Sigma grad H at one state, a list of six Python floats, in floats
    and bit for bit the batch path: each row displaces one component of
    two lists, `up` adding +0.0 to the others (a -0.0 becomes +0.0) and
    `down` keeping them, as state + step * (+-eye) does, then puts the
    component back."""
    scale = _FD_STEP * (1.0 + max(map(abs, s)))
    up, down, out = [c + 0.0 for c in s], s.copy(), []
    for c, sign in enumerate((2.0, -2.0, 2.0, -2.0, 2.0, -2.0)):
        j = c ^ 1
        up[j], down[j] = s[j] + scale, s[j] - scale
        out.append((energy(up) - energy(down)) / (scale * sign))
        up[j], down[j] = s[j] + 0.0, s[j]
    return out


def _batch_velocity(batch: tuple) -> Callable:
    """Sigma grad H at a batch of states, component-major, shape (6,) +
    batch, from one energy call on 12 displaced states: row r < 6 moves
    component r ^ 1 by +step and row 6 + r moves it by -step, and their
    difference over +-2 * step (+ for a Q row) is component r.  The minus
    rows keep their -0.0 zeros, so each row is state + step * (+-eye) in
    every bit, the signs of zeros included."""
    # in the batch's full shape: with size-1 batch axes the flow ran slower
    ones = np.ones(batch)
    partner = np.eye(6)[np.arange(6) ^ 1]
    displacement = np.multiply.outer(np.concatenate((partner, -partner)).T, ones)
    sign = np.multiply.outer(np.array([2.0, -2.0] * 3), ones)
    # one buffer and its six component views, made once: a fresh array per
    # call ran slower, and unpacking an array ends in an IndexError
    sides = np.empty((6, 12) + batch)
    components = list(sides)

    def velocity(state, energy):
        scale = _FD_STEP * (1.0 + np.maximum.reduce(np.abs(state), axis=0))
        np.add(state[:, None], scale * displacement, out=sides)
        energies = energy(components)
        return (energies[:6] - energies[6:]) / (scale * sign)

    return velocity


def rk4_hamiltonian_flow(
    hamiltonian: Callable,
    z0,
    t: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 integration of dz/dt = Sigma grad H, with the gradient
    obtained by central finite differences (step 1e-5*(1 + max|z|)).

    z0 may be one state (6,) or a batch (..., 6) of finite states; t >= 0
    and dt > 0 must be finite.  `hamiltonian(t)` is called once per stage
    time, as a Python float (k2 and k3 share the midpoint's), and returns
    `energy(z)`, which reads a component-major state:
    ``x1, p1, x2, p2, x3, p3 = z``.  Row r < 6 of a gradient displaces
    component r ^ 1 (the other half of its (Q, P) pair) by +step and row
    6 + r displaces it by -step, so the differences come out in the order
    of Sigma grad H.  For one state, z is a list of six Python floats,
    `energy` is called once per row, and the state steps as a list of
    floats; the gradient's rows reuse two lists, so `energy` must not
    keep the list it is handed.  For a batch, z is a list of six
    contiguous (12,) + batch arrays, the components of one (6, 12) +
    batch buffer, and `energy` is called once per stage.  Both run on
    `core.rk4_steps`, whose two forms round alike, so they give the same
    bits when `energy` uses only + - * /: numpy's vectorised power and
    transcendental functions may round otherwise than the C library's,
    which a Python float takes.

    Returns (times, path): the steps+1 times from 0 to t, and the states
    there, shape (steps+1,) + z0.shape, so path[-1] is the state at t.  H
    quadratic in z makes the central difference exact up to roundoff, so
    the oracle error is O(dt^4).  A step that leaves a non-finite state
    raises FlowBlowupError, the one report of a blow-up: overflow inside
    the step is not warned about.
    """
    steps, h = _fixed_steps(t, dt)
    z = _as_state(z0)
    path = np.empty((steps + 1,) + z.shape)
    path[0] = z
    # both velocities stay: one state is fastest in Python floats, and ten
    # fields step in about 100 us as one batch and in 450-500 us as ten
    # one-state flows
    batch = z.shape[:-1]
    if batch:
        # carried component-major, shape (6,) + batch, so that every ufunc
        # of a step runs on contiguous operands of one shape
        velocity, y0 = _batch_velocity(batch), np.moveaxis(z, -1, 0)
    else:
        velocity, y0 = _one_state_velocity, z.tolist()

    def stage_values(times):
        return [[hamiltonian(time) for time in row] for row in times.tolist()]

    rows = np.moveaxis(path, -1, 1)  # path[i] component-major
    # overflow inside a step leaves a non-finite state: the check below
    # reports it, so numpy need not warn about it; on one state's list,
    # np.isfinite costs about 2 us a step and math.isfinite 0.3 us
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (time, state) in enumerate(rk4_steps(velocity, stage_values, y0, h, steps), 1):
            if not (np.isfinite(state).all() if batch else all(map(math.isfinite, state))):
                raise FlowBlowupError(time)
            rows[i] = state
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
    dt: float,
    seed: int = 0,
) -> EquivalenceReport:
    """Integrate the charge Hamiltonian by the RK4 oracle over 0 < horizon
    < inf, map through the rotating frame and the moving origin, and
    compare against the plain oscillator propagator."""
    z0 = _as_state(z0)
    params = field.osc_params
    frame = frame_rotation(field.frame_rate)
    drive = field.rotated_drive()

    steps = max(2, _fixed_steps(horizon, dt)[0])
    if horizon == 0.0:  # the oracle would be handed a step of 0
        raise ValueError(f"horizon must be > 0, got {horizon}")
    steps += steps % 2
    times, oracle = rk4_hamiltonian_flow(h1_evaluator(field), z0, horizon, horizon / steps)

    origin_path, phase_values = _forced_path_on(times, params, drive)
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
