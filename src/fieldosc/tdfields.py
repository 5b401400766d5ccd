"""Time-dependent magnetic fields: fixed-direction and rotating cases,
their canonical reductions, and Hill/Floquet stability analysis.

Case I (fixed direction, varying magnitude) reduces to an oscillator whose
frequency is half the instantaneous rotation rate; Case II (field rotating
about the z axis) reduces in two steps -- into the co-rotating frame and
then through the elimination of the Coriolis-like momentum coupling -- to
a three-degree oscillator with a time-periodic stiffness matrix.  Neither
case routes into the static closed-form solver: the terminal object is a
Hill system handed to the monodromy machinery below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    _PANELS_PER_UNIT, _as_state, _check_mass, composite_simpson, cross_matrix, rk4_steps,
    rotation_about_z, simpson_panels, stage_memo,
)
from .classical import CanonicalMap, Drive, frame_rotation

__all__ = [
    "FixedAxisField",
    "RotatingField",
    "HillSystem",
    "VectorHillSystem",
    "MonodromyReport",
    "ReducedQuadraticHamiltonian",
    "StabilityRow",
    "accumulated_rotation",
    "fixed_axis_hill",
    "rotating_field_generator",
    "frame_conjugation_defect",
    "h4_evaluator",
    "corotating_reduction",
    "coriolis_elimination",
    "mathieu_omega_sq",
    "mathieu_hill",
    "hill_monodromy",
    "stability_map",
    "bisect_stability_boundary",
]

_MARGINAL_TOL = 1e-9  # |trace| within this of 2 classifies as marginal


def _eval_time_function(fn: Callable, t) -> np.ndarray:
    """Evaluate a scalar function of time on scalars or arrays; `fn` must
    broadcast, returning one value per time."""
    t = np.asarray(t, dtype=float)
    out = np.asarray(fn(t), dtype=float)
    if out.shape != t.shape:
        raise ValueError(f"time function gave shape {out.shape} for times of shape {t.shape}")
    return out


@dataclass(frozen=True)
class FixedAxisField:
    """Magnetic field of fixed direction z_hat with magnitude b3(t)."""

    b3: Callable
    charge: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _check_mass(self.mass)

    def rate(self, t):
        """Instantaneous rotation rate q*B3(t)/m."""
        return self.charge * _eval_time_function(self.b3, t) / self.mass

    def frame_rate(self, t):
        """Angular speed of the frame that removes the magnetic term: half the rate."""
        return 0.5 * self.rate(t)


@dataclass(frozen=True)
class RotatingField:
    """Magnetic field B(t) = R_z(alpha t) (B1, 0, B3) rotating about z; E0 is a `Drive`."""

    b1: float
    b3: float
    alpha: float
    e0: Drive = dataclass_field(default_factory=Drive.zero)
    charge: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _check_mass(self.mass)


def accumulated_rotation(field: FixedAxisField, t: float) -> np.ndarray:
    """Closed-form frame rotation for the fixed-axis case: rotation about z
    by the accumulated angle int_0^t q*B3(s)/m ds.

    Valid because the generator commutes with itself at different times;
    the tests confirm it against direct integration of dR/dt = W(t) R(t).
    """
    if t == 0.0:
        return np.eye(3)
    n = simpson_panels(_PANELS_PER_UNIT, t)
    times = np.linspace(0.0, t, n + 1)
    angle = float(composite_simpson(field.rate(times), times[1] - times[0]))
    return rotation_about_z(angle)


def fixed_axis_hill(field: FixedAxisField, period: float) -> "HillSystem":
    """Reduced planar dynamics of the fixed-axis case: an oscillator whose
    frequency is the frame rate, half the instantaneous rotation rate, i.e.
    a Hill system with omega^2(t) = (q B3(t) / 2m)^2."""

    def omega_sq(t):
        half = field.frame_rate(t)
        return half * half

    return HillSystem(omega_sq=omega_sq, period=period)


# ----------------------------------------------------------------------
# rotating field: generator and reductions
# ----------------------------------------------------------------------


def rotating_field_generator(field: RotatingField, t: float) -> np.ndarray:
    """Antisymmetric generator at time t: the cross-product matrix of the
    cyclotron-scaled rotating field vector (q/m) B(t)."""
    scale = field.charge / field.mass
    c, s = math.cos(field.alpha * t), math.sin(field.alpha * t)
    return cross_matrix(scale * np.array([field.b1 * c, field.b1 * s, field.b3]))


def frame_conjugation_defect(field: RotatingField, t: float) -> float:
    """Max-norm defect of R(t)^T W(t) R(t) - W(0), where R(t) is the frame
    rotation by alpha*t.  Zero means the generator is the rotated image of
    its initial value (the rigid-rotation identity)."""
    r = rotation_about_z(field.alpha * t)
    w_t = rotating_field_generator(field, t)
    w_0 = rotating_field_generator(field, 0.0)
    return float(np.max(np.abs(r.T @ w_t @ r - w_0)))


def h4_evaluator(field: RotatingField) -> Callable:
    """Vectorized energy of a charge in the rotating field:
    |p - (m/2) W(t) x|^2 / 2m - q <x, E0(t)>, with W the cyclotron-scaled
    generator.  Broadcasts over leading axes of z."""
    m, q = field.mass, field.charge

    def evaluate(z, t):
        w = rotating_field_generator(field, float(t))
        x = z[..., 0::2]
        p = z[..., 1::2]
        v = p - 0.5 * m * (x @ w.T)
        kinetic = np.sum(v * v, axis=-1) / (2.0 * m)
        return kinetic - q * (x @ field.e0(float(t)))

    return evaluate


@dataclass(frozen=True)
class ReducedQuadraticHamiltonian:
    """Rotating-field dynamics seen from the co-rotating frame:

        P^2/2m - <P, M Q> + (m/8) <Q, W0^T W0 Q> - q <Q, E1(t)>

    with M = W0/2 + L antisymmetric (L the frame generator) and
    E1(t) = R(-alpha t) E0(t), all computed from the `field`.
    """

    field: RotatingField

    @property
    def coriolis(self) -> np.ndarray:
        """Antisymmetric matrix M = W0/2 + L of the <P, M Q> coupling."""
        w0 = rotating_field_generator(self.field, 0.0)
        return 0.5 * w0 + cross_matrix((0.0, 0.0, self.field.alpha))

    @property
    def stiffness_form(self) -> np.ndarray:
        """Symmetric PSD matrix W0^T W0 of the quadratic potential."""
        w0 = rotating_field_generator(self.field, 0.0)
        return w0.T @ w0

    def value(self, z, t) -> np.ndarray:
        m, t = self.field.mass, float(t)
        q_ = z[..., 0::2]
        p_ = z[..., 1::2]
        kinetic = np.sum(p_ * p_, axis=-1) / (2.0 * m)
        cross = -np.sum(p_ * (q_ @ self.coriolis.T), axis=-1)
        w = self.stiffness_form
        potential = (m / 8.0) * np.sum(q_ * (q_ @ w.T), axis=-1)
        e1 = rotation_about_z(-self.field.alpha * t) @ self.field.e0(t)
        electric = -self.field.charge * (q_ @ e1)
        return kinetic + cross + potential + electric


def corotating_reduction(field: RotatingField) -> tuple[ReducedQuadraticHamiltonian, CanonicalMap]:
    """Canonical pass into the frame in which the field direction is fixed.

    Returns the reduced Hamiltonian data and the map (Q, P) = (R(-at) x,
    R(-at) p), the frame rotation at rate -alpha.
    """
    return ReducedQuadraticHamiltonian(field), frame_rotation(-field.alpha)


def _apply_linear_pairs(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Apply the same 3x3 linear map to positions and momenta of an
    interleaved state (broadcasts over leading axes)."""
    z = _as_state(z)
    out = np.empty_like(z)
    out[..., 0::2] = z[..., 0::2] @ a.T
    out[..., 1::2] = z[..., 1::2] @ a.T
    return out


def coriolis_elimination(
    reduced: ReducedQuadraticHamiltonian,
) -> tuple["VectorHillSystem", CanonicalMap]:
    """Remove the <P, M Q> coupling with the rotation group G(t) = exp(tM).

    What remains is kinetic energy plus the time-periodic quadratic
    potential (m/8) <x', S(t) x'> with S(t) = G(t) W0^T W0 G(t)^T, i.e. a
    three-degree Hill system with stiffness period 2 pi / speed, where
    M = speed * cross_matrix(axis).  At speed 0 the axis is the zero
    vector, about which the Rodrigues rotation is exactly the identity.
    """
    m = reduced.coriolis
    axis = np.array([m[2, 1], m[0, 2], m[1, 0]])
    speed = float(np.linalg.norm(axis))
    if speed > 0:
        axis = axis / speed
    k = cross_matrix(axis)
    k2 = k @ k
    w = reduced.stiffness_form

    def group(t: float) -> np.ndarray:
        angle = speed * t
        return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * k2

    def omega_sq_matrix(t: float) -> np.ndarray:
        g = group(t)
        return 0.25 * (g @ w @ g.T)

    period = 2.0 * math.pi / speed if speed > 0 else math.inf
    system = VectorHillSystem(omega_sq_matrix=omega_sq_matrix, period=period)

    def forward(t, z):
        return _apply_linear_pairs(z, group(t))

    def inverse(t, z):
        return _apply_linear_pairs(z, group(t).T)

    cmap = CanonicalMap(
        forward=forward,
        inverse=inverse,
        phase_A=lambda t: 0.0,
    )
    return system, cmap


# ----------------------------------------------------------------------
# Hill systems and Floquet analysis
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HillSystem:
    """Scalar Hill equation x'' + omega_sq(t) x = 0 with period T."""

    omega_sq: Callable
    period: float

    def omega_sq_values(self, t) -> np.ndarray:
        return _eval_time_function(self.omega_sq, t)


@dataclass(frozen=True)
class VectorHillSystem:
    """Three-degree oscillator with a time-periodic stiffness matrix."""

    omega_sq_matrix: Callable
    period: float


@dataclass(frozen=True)
class MonodromyReport:
    """One-period fundamental solution of a Hill equation and its Floquet
    classification: |trace| < 2 stable, > 2 unstable, = 2 marginal."""

    matrix: np.ndarray
    trace: float
    det: float
    classification: str


def mathieu_omega_sq(a, q, t):
    """Mathieu stiffness omega^2(t) = a + 2 q cos(2t), of period pi;
    broadcasts over arrays of a, q and t."""
    return a + 2.0 * q * np.cos(2.0 * t)


def mathieu_hill(a: float, q: float) -> HillSystem:
    """The Mathieu equation as a Hill system of period pi."""
    return HillSystem(omega_sq=lambda t: mathieu_omega_sq(a, q, t), period=math.pi)


def _monodromy_matrices(
    omega_sq_values: Callable, period: float, n_steps: int
) -> np.ndarray:
    """RK4 fundamental solutions of x'' + w2(t) x = 0 over one period.

    `omega_sq_values(t)` may return a scalar or a batch (B,); the result
    has shape (..., 2, 2) accordingly.  Runs vectorized over the batch, on
    the four matrix entries updated entrywise: a matrix product would turn
    0 * inf into nan where a runaway row overflows.  The one check of
    both entry points: 0 < period < inf and `n_steps` >= 1.
    """
    if not (0.0 < period < math.inf):
        raise ValueError(f"period must be positive and finite, got {period}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    neg_w2 = stage_memo(lambda t: np.negative(omega_sq_values(t), dtype=float))
    shape = neg_w2(0.0).shape

    def rhs(y, t):
        # derivative of the flattened [[a, b], [c, d]] under [[0, 1], [-w2, 0]]
        out = np.empty_like(y)
        out[:2] = y[2:]
        np.multiply(neg_w2(t), y[:2], out=out[2:])
        return out

    y = np.zeros((4,) + shape)
    y[0] = y[3] = 1.0
    for _, y in rk4_steps(rhs, y, period / n_steps, n_steps):
        pass
    return np.moveaxis(y, 0, -1).reshape(shape + (2, 2))


def _classify(trace: float) -> str:
    if not math.isfinite(trace):
        return "unstable"
    if abs(trace) < 2.0 - _MARGINAL_TOL:
        return "stable"
    if abs(trace) > 2.0 + _MARGINAL_TOL:
        return "unstable"
    return "marginal"


def _trace_det(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace and determinant of (..., 2, 2) monodromy matrices; a matrix
    with a non-finite entry gets trace inf (unstable) and det nan."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    a, b = matrices[..., 0, 0], matrices[..., 0, 1]
    c, d = matrices[..., 1, 0], matrices[..., 1, 1]
    with np.errstate(invalid="ignore"):  # a non-finite matrix's values are dropped
        trace, det = a + d, a * d - b * c
    return np.where(finite, trace, math.inf), np.where(finite, det, math.nan)


def hill_monodromy(sys: HillSystem, n_steps: int = 4096) -> MonodromyReport:
    """Integrate the fundamental solution over one period in `n_steps` RK4
    steps of T/n_steps (as `stability_map` does) and classify stability
    from the monodromy trace."""
    matrix = _monodromy_matrices(sys.omega_sq_values, sys.period, n_steps)
    trace, det = (float(v) for v in _trace_det(matrix))
    return MonodromyReport(matrix=matrix, trace=trace, det=det, classification=_classify(trace))


class StabilityRow(NamedTuple):
    param1: float
    param2: float
    trace: float
    classification: str
    det: float


def stability_map(
    omega_sq_family: Callable,
    period: float,
    param1: Sequence[float],
    param2: Sequence[float],
    n_steps: int = 4096,
) -> list[StabilityRow]:
    """Classify every point of a parameter grid.

    `omega_sq_family(p1, p2, t)` must broadcast over arrays of parameters;
    the whole grid is integrated as one batch.  Rows come out in row-major
    (param1-major) order.
    """
    p1g, p2g = np.meshgrid(
        np.asarray(param1, dtype=float), np.asarray(param2, dtype=float), indexing="ij"
    )
    p1f, p2f = p1g.ravel(), p2g.ravel()
    matrices = _monodromy_matrices(
        lambda t: np.asarray(omega_sq_family(p1f, p2f, t), dtype=float),
        period,
        n_steps,
    )
    traces, dets = _trace_det(matrices)
    return [
        StabilityRow(float(a), float(b), float(tr), _classify(float(tr)), float(d))
        for a, b, tr, d in zip(p1f, p2f, traces, dets)
    ]


def bisect_stability_boundary(
    make_system: Callable,
    lo: float,
    hi: float,
    tol: float = 1e-3,
    n_steps: int = 4096,
) -> float:
    """Locate a stability-boundary crossing of |trace| - 2 by bisection.

    `make_system(p)` returns a HillSystem, whose monodromy takes `n_steps`
    RK4 steps; lo and hi must bracket a sign change of |trace| - 2, and
    0 < tol < inf.
    """
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")

    def excess(p: float) -> float:
        return abs(hill_monodromy(make_system(p), n_steps).trace) - 2.0

    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo * f_hi > 0:
        raise ValueError(f"no sign change in [{lo:g}, {hi:g}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
