"""Small dense matrices and exact oscillator propagators.

Everything downstream composes the objects defined here: cross-product
generators of magnetic rotations, planar rotation matrices, and the one
exact propagator of the harmonic oscillator in the interleaved phase-space
layout (Q1, P1, Q2, P2, Q3, P3), vectorised over times and states.

All functions are pure and operate on plain numpy arrays; matrices are
returned as fresh ndarrays, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "OscParams",
    "simpson_panels",
    "cross_matrix",
    "rotation_about_z",
    "block_propagate_path",
    "block_propagator",
    "cumulative_simpson",
    "rk4_steps",
]

_TINY = sys.float_info.min  # smallest normal double
_MIN_PANELS = 32  # the fewest panels of any quadrature
_PANELS_PER_UNIT = 10_000.0  # default quadrature resolution, panels per unit time
# RK4 steps per stage call: a block's stage values hold 3 * 32 copies of
# the coefficient, so longer blocks trade memory for fewer calls
_BLOCK_STEPS = 32


@dataclass(frozen=True)
class OscParams:
    """Mass and angular frequency of a harmonic degree of freedom.

    omega = 0 is allowed: it is the omega -> 0 limit of the oscillator
    formulas, the free particle.
    """

    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        _check_mass(self.mass)
        if not (self.omega >= 0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be >= 0 and finite, got {self.omega}")
        if not math.isfinite(self.mass * self.omega):  # -m w sin(wt) would be -inf * 0 at t = 0
            raise ValueError(f"mass * omega must be finite, got {self.mass} * {self.omega}")


def _check_mass(mass: float) -> None:
    """The package's one mass check, shared by every field and oscillator."""
    if not (mass > 0 and math.isfinite(mass)):
        raise ValueError(f"mass must be positive and finite, got {mass}")


def _fixed_steps(t: float, dt: float) -> tuple[int, float]:
    """Step count and size of a fixed-step integration over [0, t]: the
    step nearest `dt` that divides t, and at least one step.  The one
    place a horizon is checked: t finite and >= 0, dt finite and > 0."""
    if not (0 <= t < math.inf):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if not (0 < dt < math.inf):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    steps = max(1, int(round(t / dt)))
    return steps, t / steps


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool or a float such as 3.0 is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_steps(steps, name: str) -> None:
    """The package's one step-count check: `steps`, called `name` in the
    message, is an integer >= 1 (True or a float such as 3.0 is not)."""
    if not (_is_integer(steps) and steps >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {steps}")


def _as_times(t) -> np.ndarray:
    """The package's one time check: t as a float array of finite times."""
    times = np.asarray(t, dtype=float)
    if not np.isfinite(times).all():
        shown = f", got {t}" if times.ndim == 0 else ""
        raise ValueError(f"time must be finite{shown}")
    return times


def simpson_panels(panels_per_unit: float, span: float) -> int:
    """Panel count of a composite-Simpson quadrature over `span` at
    `panels_per_unit` panels per unit time: never fewer than 32, always
    even.  The one place a quadrature resolution is checked."""
    if not (0 < panels_per_unit < math.inf):
        raise ValueError("quadrature resolution must be positive and finite")
    span = float(_as_times(span))
    n = max(_MIN_PANELS, int(math.ceil(panels_per_unit * abs(span))))
    return n + (n % 2)


def _as_state(z) -> np.ndarray:
    """The package's one phase-state check: z as a float array whose last
    axis holds the six finite components (Q1, P1, Q2, P2, Q3, P3)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (6,):
        raise ValueError(f"phase state must have 6 components, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("phase state must be finite")
    return z


def cross_matrix(b) -> np.ndarray:
    """Antisymmetric matrix W with W @ x == cross(b, x) for every x.

    Entries are placed, not computed, so antisymmetry and zero trace hold
    bit-exactly.
    """
    b1, b2, b3 = (float(c) for c in np.asarray(b, dtype=float))
    if not all(math.isfinite(c) for c in (b1, b2, b3)):
        raise ValueError("field vector must be finite")
    return np.array(
        [
            [0.0, -b3, b2],
            [b3, 0.0, -b1],
            [-b2, b1, 0.0],
        ]
    )


def rotation_about_z(angle: float) -> np.ndarray:
    """Proper rotation by `angle` about the z axis (orthogonal, det = 1).

    This is the matrix exponential of `cross_matrix((0, 0, 1)) * angle`;
    the off-diagonal sines carry opposite signs, which is what makes the
    result orthogonal.
    """
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle}")
    c, s = math.cos(angle), math.sin(angle)
    return np.array(
        [
            [c, -s, 0.0],
            [s, c, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def _sin_over_mw(params: OscParams, t, s, factor=1.0):
    """sin(wt) * factor / (m w), the upper propagator entry times `factor`,
    given s = sin(wt), at one time or an array of times, for every
    omega >= 0.  Where m w is 0 or subnormal, or w t is subnormal or 0 at
    t != 0, the quotient is 0/0 or a quotient of quantised values that
    has lost its precision (w = 5e-324 gives sin(2.5 w)/w = 2), so there
    it is the limit (t/m) * (sin(wt)/(wt)) * factor, which is
    (t/m) * factor at w = 0."""
    m, w = params.mass, params.omega
    x = w * t
    if m * w >= _TINY:
        small = (abs(x) < _TINY) & (t != 0.0)
        if not np.any(small):
            return s * factor / (m * w)
    sinc = np.divide(s, x, out=np.ones_like(x), where=x != 0.0)
    limit = (t / m) * sinc * factor
    if m * w < _TINY:
        return limit
    return np.where(small, limit, s * factor / (m * w))


def _pair_groups(params: OscParams, times):
    """Yield (pairs, group, c, s, upper, lower): the planar pairs 0 and 1
    oscillate at omega, the axial pair 2 is the oscillator at omega = 0,
    the free particle, and [[c, upper], [lower, c]] is the group's block
    [[cos wt, sin(wt)/(m w)], [-m w sin wt, cos wt]] at `times`, with
    s = sin wt.  At w = 0 the cosine is 1 and the sine is its argument,
    +-0; at w = 0 and at subnormal w, `_sin_over_mw` takes the upper
    entry to its limit t/m, which gives the free block [[1, t/m], [0, 1]]."""
    for pairs, group in (((0, 1), params), ((2,), OscParams(params.mass, 0.0))):
        m, w = group.mass, group.omega
        x = w * times
        c, s = (1.0, x) if w == 0.0 else (np.cos(x), np.sin(x))
        yield pairs, group, c, s, _sin_over_mw(group, times, s), -m * w * s


def block_propagate_path(params: OscParams, z0, times) -> np.ndarray:
    """Homogeneous orbit U(t) z0 at many times; z0 may be batched (..., 6).

    U(t) has the oscillator block of `_pair_groups` on every pair, at
    w = 0 on the axial one.  Returns shape (len(times), ..., 6).
    """
    z0 = _as_state(z0)
    times = np.atleast_1d(_as_times(times))
    out = np.empty(times.shape + z0.shape)
    padded = times[(...,) + (None,) * (z0.ndim - 1)]  # broadcast over the batch axes
    for pairs, _, c, _, upper, lower in _pair_groups(params, padded):
        for axis in pairs:
            q, p = z0[..., 2 * axis], z0[..., 2 * axis + 1]
            out[..., 2 * axis] = c * q + upper * p
            out[..., 2 * axis + 1] = lower * q + c * p
    return out


def block_propagator(params: OscParams, t: float) -> np.ndarray:
    """6x6 matrix U(t) of `block_propagate_path`: column i is the orbit
    of the i-th unit vector at t."""
    return block_propagate_path(params, np.eye(6), t)[0].T


def cumulative_simpson(values: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral at every sample point of a uniform grid.

    Even indices use composite Simpson; odd indices add the standard
    three-point half-panel rule, keeping the result O(dx^4) accurate
    everywhere.  Integrates over axis 0; leading shape is preserved.  The
    package's one Simpson rule: a definite integral is the last sample.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0] - 1
    if n < 2 or n % 2:
        raise ValueError("cumulative Simpson needs an even, >= 2 panel count")
    out = np.zeros_like(values)
    pair = (values[0:-2:2] + 4.0 * values[1:-1:2] + values[2::2]) * (dx / 3.0)
    out[2::2] = np.cumsum(pair, axis=0)
    # half-panel: integral from x_{2j} to x_{2j+1}
    half = (5.0 * values[0:-2:2] + 8.0 * values[1:-1:2] - values[2::2]) * (dx / 12.0)
    out[1::2] = out[0:-2:2] + half
    return out


def rk4_steps(
    rhs: Callable, stage_values: Callable, y0, h: float, steps: int
) -> Iterator[tuple[float, np.ndarray | list]]:
    """Classic fixed-step RK4 for dy/dt = rhs(y, c(t)), yielding (t, y)
    after each of `steps` steps of size h: the package's one RK4 driver.

    Steps run in blocks of at most 32, and each block makes one call
    `stage_values(times)` on its (k, 3) stage times, row j being
    i*h + [0, h/2, h] for the block's j-th step i.  It must return the
    coefficient c at those times along its first two axes (any sequence
    of k rows of three does); k1 reads a row's first value, k2 and k3 its
    second, k4 its third.  k4's time is i*h + h, which is not always the
    step time (i+1)*h.  The update is y + (h/6) * (((k1 + 2 k2) + 2 k3)
    + k4), rounded in that order.

    The type of y0 selects the form of the state, and both forms round
    the update in that one order, so they give the same bits.  A list of
    Python floats steps in float arithmetic with no numpy call, and each
    step yields a new list.  Its `rhs(y, c, k, f)` forms the stage itself:
    it returns, as a list, the derivative at the state whose component j
    is ``y[j] + f * k[j]``, rounded that way, or at y itself when k is
    None.  A step calls it as (y, start, None, 0.0), (y, mid, k1, h/2),
    (y, mid, k2, h/2) and (y, end, k3, h), with the same list y each
    time, so it builds no stage list.  Anything else becomes one C-order
    float copy of y0, updated in place, so a caller that keeps a step
    must copy it; its `rhs(y, c)` is handed each stage state and must
    return a fresh array of y's shape, which the update overwrites.
    """
    floats = isinstance(y0, list)
    y = y0 if floats else np.array(y0, dtype=float, order="C")
    half_h = 0.5 * h
    offsets = np.array([0.0, half_h, h])
    sixth_h = h / 6.0
    for first in range(0, steps, _BLOCK_STEPS):
        last = min(first + _BLOCK_STEPS, steps)
        # float64 i * h rounds as Python's int * float does
        stages = stage_values((np.arange(first, last) * h)[:, None] + offsets)
        for i, (start, mid, end) in zip(range(first, last), stages):
            if floats:
                k1 = rhs(y, start, None, 0.0)
                k2 = rhs(y, mid, k1, half_h)
                k3 = rhs(y, mid, k2, half_h)
                k4 = rhs(y, end, k3, h)
                y = [
                    a + (((b1 + 2.0 * b2) + 2.0 * b3) + b4) * sixth_h
                    for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
                ]
            else:
                k1 = rhs(y, start)
                k2 = rhs(y + half_h * k1, mid)
                k3 = rhs(y + half_h * k2, mid)
                k4 = rhs(y + h * k3, end)
                k2 *= 2.0
                k3 *= 2.0
                k1 += k2
                k1 += k3
                k1 += k4
                k1 *= sixth_h
                y += k1
            yield (i + 1) * h, y
