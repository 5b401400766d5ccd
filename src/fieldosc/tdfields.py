"""Time-dependent magnetic fields: fixed-direction and rotating cases,
their canonical reductions, and Hill/Floquet stability analysis.

Case I (fixed direction, varying magnitude) reduces to an oscillator whose
frequency is half the instantaneous rotation rate; Case II (field rotating
about the z axis) reduces in two steps -- into the co-rotating frame and
then through the elimination of the Coriolis-like momentum coupling -- to
a three-degree oscillator with a time-periodic stiffness matrix.  Neither
case routes into the static closed-form solver.  Case I ends in a scalar
Hill system, whose monodromy the RK4 below integrates.  Case II's
`VectorHillSystem` is never integrated: the CLI's `case2` mode only
samples its `omega_sq_matrix` (ROADMAP item 1 plans its 6x6 monodromy).
The Mathieu stiffness a + 2q cos 2t has closed-form tongue edges, Hill's
characteristic values (`mathieu_tongue`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    _PANELS_PER_UNIT, _as_state, _check_mass, _check_steps, cross_matrix, cumulative_simpson,
    rk4_steps, rotation_about_z, simpson_panels,
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
    "rotation_ode",
    "fixed_axis_hill",
    "rotating_field_generator",
    "frame_conjugation_defect",
    "h4_evaluator",
    "corotating_reduction",
    "coriolis_elimination",
    "mathieu_omega_sq",
    "mathieu_tongue",
    "hill_monodromy",
    "stability_map",
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
    `rotation_ode` integrates dR/dt = W(t) R(t) to check it.
    """
    if t == 0.0:
        return np.eye(3)
    n = simpson_panels(_PANELS_PER_UNIT, t)
    times = np.linspace(0.0, t, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a ValueError
        rates = field.rate(times)
        if not np.isfinite(rates).all():
            raise ValueError("rotation angle must be finite: q*B3/m is not finite on [0, t]")
        angle = float(cumulative_simpson(rates, times[1] - times[0])[-1])
    return rotation_about_z(angle)


def rotation_ode(field: FixedAxisField, t: float, steps: int) -> np.ndarray:
    """RK4 of dR/dt = W(t) R from R(0) = I in `steps` steps, the oracle of
    `accumulated_rotation`: W R has rows -w R[1], w R[0] and 0, w the
    rate, so R's third row and column stay (0, 0, 1) and its planar block
    [[a, b], [c, d]] steps alone, as four Python floats on `rk4_steps`'
    float form, whose `rhs` forms each stage r + f * k in local floats."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _check_steps(steps, "steps")

    def rhs(r, w, k, f):
        a, b, c, d = r
        if k is not None:
            ka, kb, kc, kd = k
            a, b, c, d = a + f * ka, b + f * kb, c + f * kc, d + f * kd
        return [-w * c, -w * d, w * a, w * b]

    r = [1.0, 0.0, 0.0, 1.0]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a ValueError
        for _, r in rk4_steps(rhs, lambda times: field.rate(times).tolist(), r, t / steps, steps):
            pass
    if not all(map(math.isfinite, r)):
        raise ValueError("rotation angle must be finite: q*B3/m is not finite on [0, t]")
    a, b, c, d = r
    return np.array([[a, b, 0.0], [c, d, 0.0], [0.0, 0.0, 1.0]])


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
    """Energy of a charge in the rotating field,
    |p - (m/2) W(t) x|^2 / 2m - q <x, E0(t)> with W the cyclotron-scaled
    generator, in the oracle's protocol: `h4_evaluator(field)(t)` computes
    W(t) and E0(t) once, as Python floats, and returns `energy(z)` on a
    component-major state (six components, Python floats or arrays of one
    shape)."""
    m, q = field.mass, field.charge
    two_mass = 2.0 * m

    def hamiltonian(t):
        w = rotating_field_generator(field, t)
        # (m/2) W x = a cross x, with a = (m/2) times W's axial vector
        a1, a2, a3 = (0.5 * m * w[(2, 0, 1), (1, 2, 0)]).tolist()
        qe1, qe2, qe3 = (q * field.e0(t)).tolist()

        def energy(z):
            x1, p1, x2, p2, x3, p3 = z
            v1 = p1 - (a2 * x3 - a3 * x2)
            v2 = p2 - (a3 * x1 - a1 * x3)
            v3 = p3 - (a1 * x2 - a2 * x1)
            kinetic = (v1 * v1 + v2 * v2 + v3 * v3) / two_mass
            return kinetic - (x1 * qe1 + x2 * qe2 + x3 * qe3)

        return energy

    return hamiltonian


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
    return system, CanonicalMap(
        forward=lambda t, z: _apply_linear_pairs(z, group(t)),
        inverse=lambda t, z: _apply_linear_pairs(z, group(t).T),
        phase_A=lambda t: 0.0,
    )


# ----------------------------------------------------------------------
# Hill systems and Floquet analysis
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HillSystem:
    """Scalar Hill equation x'' + omega_sq(t) x = 0 with period T;
    `omega_sq` must broadcast over arrays of times."""

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


def mathieu_tongue(q: float, r: int) -> tuple[float, float]:
    """Edges (lower, upper) of the r-th instability tongue of the Mathieu
    stiffness, the characteristic values a_r(q) and b_r(q) (DLMF 28.6):
    eigenvalues of Hill's symmetric tridiagonal Fourier matrices, whose
    off-diagonals are q.  At q = 0 both edges are r^2; -q gives q's tongue."""
    _check_steps(r, "r")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    q, n = abs(float(q)), r // 2
    # the coefficients decay once (2k)^2 passes q: 20 rows past n and sqrt(q) suffice
    k = np.arange(n + 20 + int(math.sqrt(q)))
    if r % 2:  # 2 pi-periodic: (2k+1)^2, first entry 1 + q (cosines) or 1 - q (sines)
        odd, first = (2.0 * k + 1.0) ** 2, np.where(k == 0, q, 0.0)
        series = [(odd + first, q, n), (odd - first, q, n)]
    else:  # pi-periodic: cosines (2k)^2, first coupling sqrt(2) q, and sines (2k+2)^2
        series = [((2.0 * k) ** 2, math.sqrt(2.0) * q, n), ((2.0 * k + 2.0) ** 2, q, n - 1)]
    edges = []
    for diagonal, first_coupling, index in series:
        matrix = np.diag(diagonal) + np.diag(np.full(k.size - 1, q), -1)
        matrix[1, 0] = first_coupling
        edges.append(float(np.linalg.eigvalsh(matrix)[index]))
    return min(edges), max(edges)


def _monodromy_matrices(
    omega_sq_values: Callable, period: float, n_steps: int
) -> np.ndarray:
    """RK4 fundamental solutions of x'' + w2(t) x = 0 over one period.

    `omega_sq_values(t)` takes a (k, 3) array of stage times, a block of
    k RK4 steps (see `rk4_steps`), and returns w2 at each, shape
    (k, 3) + batch; the batch shape, read from one probe on (1, 3) zero
    times, may be () and sets the result's shape (..., 2, 2).
    Runs vectorized over the batch, on the four matrix entries updated
    entrywise: a matrix product would turn 0 * inf into nan where a
    runaway row overflows.  The one check of both entry points:
    0 < period < inf, `n_steps` an integer >= 1 and every stage's w2 finite.
    """
    if not (0.0 < period < math.inf):
        raise ValueError(f"period must be positive and finite, got {period}")
    _check_steps(n_steps, "n_steps")

    def neg_w2(times):
        values = np.negative(omega_sq_values(times), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = ~finite.reshape(times.shape + (-1,)).all(axis=-1)
            raise ValueError(
                f"omega^2 must be finite, got a non-finite value at t = {float(times[bad][0])}"
            )
        return values

    shape = neg_w2(np.zeros((1, 3))).shape[2:]

    def rhs(y, w2):
        # derivative of the flattened [[a, b], [c, d]] under [[0, 1], [-w2, 0]]
        out = np.empty_like(y)
        out[:2] = y[2:]
        np.multiply(w2, y[:2], out=out[2:])
        return out

    y = np.zeros((4,) + shape)
    y[0] = y[3] = 1.0
    # a runaway row overflows to a non-finite matrix, which `_trace_det`
    # reports as unstable, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        for _, y in rk4_steps(rhs, neg_w2, y, period / n_steps, n_steps):
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


def _trace_det(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace, det and det defect |det - 1| / max(1, |ad|, |bc|) (ad - bc
    rounds near eps times its larger product) of (..., 2, 2) monodromy
    matrices; a non-finite matrix gets trace inf (unstable), det and defect nan."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    a, b = matrices[..., 0, 0], matrices[..., 0, 1]
    c, d = matrices[..., 1, 0], matrices[..., 1, 1]
    with np.errstate(invalid="ignore"):  # a non-finite matrix's values are dropped
        ad, bc = a * d, b * c
        det = np.where(finite, ad - bc, math.nan)
        defect = abs(det - 1.0) / np.maximum(1.0, np.maximum(abs(ad), abs(bc)))
    return np.where(finite, a + d, math.inf), det, defect


def hill_monodromy(sys: HillSystem, n_steps: int = 4096) -> MonodromyReport:
    """Integrate the fundamental solution over one period in `n_steps` RK4
    steps of T/n_steps (as `stability_map` does) and classify stability
    from the monodromy trace."""
    matrix = _monodromy_matrices(sys.omega_sq_values, sys.period, n_steps)
    trace, det, _ = (float(v) for v in _trace_det(matrix))
    return MonodromyReport(matrix=matrix, trace=trace, det=det, classification=_classify(trace))


class StabilityRow(NamedTuple):
    param1: float
    param2: float
    trace: float
    classification: str
    det: float
    det_defect: float


def stability_map(
    omega_sq_family: Callable,
    period: float,
    param1: Sequence[float],
    param2: Sequence[float],
    n_steps: int = 4096,
) -> list[StabilityRow]:
    """Classify every point of a parameter grid.

    `omega_sq_family(p1, p2, t)` must broadcast over arrays of parameters
    and stage times with a trailing axis of length one; the whole grid is
    integrated as one batch.  Rows come out in row-major (param1-major) order.
    """
    p1g, p2g = np.meshgrid(
        np.asarray(param1, dtype=float), np.asarray(param2, dtype=float), indexing="ij"
    )
    p1f, p2f = p1g.ravel(), p2g.ravel()
    traces, dets, defects = _trace_det(
        _monodromy_matrices(lambda t: omega_sq_family(p1f, p2f, t[..., None]), period, n_steps)
    )
    return [
        StabilityRow(float(a), float(b), float(tr), _classify(float(tr)), float(d), float(e))
        for a, b, tr, d, e in zip(p1f, p2f, traces, dets, defects)
    ]
