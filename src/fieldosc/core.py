"""Small dense matrices and exact oscillator propagators.

Everything downstream composes the objects defined here: cross-product
generators of magnetic rotations, planar rotation matrices, and the one
exact propagator of the harmonic oscillator in the interleaved phase-space
layout (Q1, P1, Q2, P2, Q3, P3), vectorised over times and states.

All functions are pure and operate on plain numpy arrays; matrices are
returned as fresh ndarrays, so values can be shared freely across threads.
"""

from __future__ import annotations

import functools
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
    "energy_form_6x6",
    "composite_simpson",
    "cumulative_simpson",
    "rk4_steps",
    "stage_memo",
]

_TINY = sys.float_info.min  # smallest normal double
_MIN_PANELS = 32  # the fewest panels of any quadrature
_PANELS_PER_UNIT = 10_000.0  # default quadrature resolution, panels per unit time


@dataclass(frozen=True)
class OscParams:
    """Mass and angular frequency of a harmonic degree of freedom.

    omega = 0 is allowed and selects the free-particle propagator block.
    """

    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        _check_mass(self.mass)
        if not (self.omega >= 0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be >= 0 and finite, got {self.omega}")


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
    if not (panels_per_unit > 0):
        raise ValueError("quadrature resolution must be positive")
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
    given s = sin(wt), at one time or an array of times (omega > 0).  Where
    m w is subnormal, or w t is subnormal or 0 at t != 0, a quotient of
    those quantised values loses its precision (w = 5e-324 gives
    sin(2.5 w)/w = 2), so there it is (t/m) * (sin(wt)/(wt)) * factor."""
    m, w = params.mass, params.omega
    x = w * t
    small = (abs(x) < _TINY) & (t != 0.0)
    if m * w >= _TINY and not np.any(small):
        return s * factor / (m * w)
    sinc = np.divide(s, x, out=np.ones_like(x), where=x != 0.0)
    limit = (t / m) * sinc * factor
    if m * w < _TINY:
        return limit
    return np.where(small, limit, s * factor / (m * w))


def block_propagate_path(params: OscParams, z0, times) -> np.ndarray:
    """Homogeneous orbit U(t) z0 at many times; z0 may be batched (..., 6).

    U(t) has the oscillator block [[cos wt, sin(wt)/(m w)], [-m w sin wt,
    cos wt]] on each planar pair and the free block [[1, t/m], [0, 1]] on
    the axial one; the planar blocks are free too where m w is 0, and keep
    that limit at subnormal omega (`_sin_over_mw`).  Returns shape
    (len(times), ..., 6).
    """
    z0 = _as_state(z0)
    times = np.atleast_1d(_as_times(times))
    m, w = params.mass, params.omega
    out = np.empty(times.shape + z0.shape)
    pad = (...,) + (None,) * (z0.ndim - 1)
    if m * w > 0.0:
        s = np.sin(w * times)
        upper = _sin_over_mw(params, times, s)[pad]
        c, s = np.cos(w * times)[pad], s[pad]
        for axis in (0, 1):
            q, p = z0[..., 2 * axis], z0[..., 2 * axis + 1]
            out[..., 2 * axis] = c * q + upper * p
            out[..., 2 * axis + 1] = -m * w * s * q + c * p
    else:
        tgrid = times[pad]
        for axis in (0, 1):
            q, p = z0[..., 2 * axis], z0[..., 2 * axis + 1]
            out[..., 2 * axis] = q + tgrid * p / m
            out[..., 2 * axis + 1] = np.broadcast_to(p, out[..., 0].shape)
    tgrid = times[pad]
    out[..., 4] = z0[..., 4] + tgrid * z0[..., 5] / m
    out[..., 5] = np.broadcast_to(z0[..., 5], out[..., 0].shape)
    return out


def block_propagator(params: OscParams, t: float) -> np.ndarray:
    """6x6 matrix U(t) of `block_propagate_path`: column i is the orbit
    of the i-th unit vector at t.  Symplectic, and it conjugates
    `energy_form_6x6` to itself."""
    return block_propagate_path(params, np.eye(6), t)[0].T


def energy_form_6x6(params: OscParams) -> np.ndarray:
    """Quadratic form H with 2*energy = <z, H z>: diag(m w^2, 1/m) on each
    planar pair, diag(0, 1/m) on the axial one.  The propagator conjugates
    it to itself, U(t)^T H U(t) = H, which is the invariance behind the
    conserved homogeneous-orbit energy."""
    m, w = params.mass, params.omega
    return np.diag([m * w * w, 1.0 / m, m * w * w, 1.0 / m, 0.0, 1.0 / m])


def composite_simpson(values: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson integral over axis 0 of uniformly sampled values.

    Requires an odd number of samples (even panel count).
    """
    values = np.asarray(values)
    n = values.shape[0] - 1
    if n < 2 or n % 2:
        raise ValueError("composite Simpson needs an even, >= 2 panel count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.tensordot(w, values, axes=(0, 0)) * (dx / 3.0)


def cumulative_simpson(values: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral at every sample point of a uniform grid.

    Even indices use composite Simpson; odd indices add the standard
    three-point half-panel rule, keeping the result O(dx^4) accurate
    everywhere.  Integrates over axis 0; leading shape is preserved.
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
    rhs: Callable, y0, h: float, steps: int
) -> Iterator[tuple[float, np.ndarray]]:
    """Classic fixed-step RK4 for dy/dt = rhs(y, t), yielding (t, y) after
    each of `steps` steps of size h.

    Stage times are i*h, i*h + h/2 (twice) and i*h + h; the step time is
    (i+1)*h.  y is one C-order float copy of y0, updated in place by
    y += (h/6) * (((k1 + 2 k2) + 2 k3) + k4), rounded in that order, so a
    caller that keeps a step must copy it.  `rhs` must return a fresh
    array of y's shape, which the update overwrites.
    """
    y = np.array(y0, dtype=float, order="C")
    half_h = 0.5 * h
    sixth_h = h / 6.0
    for i in range(steps):
        t = i * h
        k1 = rhs(y, t)
        k2 = rhs(y + half_h * k1, t + half_h)
        k3 = rhs(y + half_h * k2, t + half_h)
        k4 = rhs(y + h * k3, t + h)
        k2 *= 2.0
        k3 *= 2.0
        k1 += k2
        k1 += k3
        k1 += k4
        k1 *= sixth_h
        y += k1
        yield (i + 1) * h, y


def stage_memo(coefficient: Callable) -> Callable:
    """One-entry memo of a stage coefficient c(t) of an `rk4_steps` run:
    k3 reuses k2's value, and a step's start the last step's end whenever
    i*h + h == (i+1)*h.  `coefficient(t)` must return a fresh array (or a
    scalar); the memo makes it read-only, as the stages share it."""

    @functools.lru_cache(maxsize=1)
    def at(t: float) -> np.ndarray:
        value = np.asarray(coefficient(t), dtype=float)
        value.flags.writeable = False
        return value

    return at
