"""Numerical witnesses: equation residuals, travel-wave exactness, splitting.

The potential pair must satisfy

    d_t v = 4 Re(4 d_z^3 v + d_z(v w) - E d_z w),
    d_zbar w = -3 d_z v,        v real,

and for large |t| the field splits into the per-block travel waves
nu_k(z - c_k t), omega_k(z - c_k t).  Everything here is evaluated from the
exact mixed partials of F = ln det A; derivatives of v = Re(g),
g = -4 F_z_zbar, use the Wirtinger rule d_z Re(g) = (d_z g + conj(d_zbar g))/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import block_velocities, velocity
from .potential import KEY_V, KEY_W, PotentialEvaluator, SpacetimePoint
from .potential import fields, log_det_partials, v_w

# Derivative multisets of F entering the residuals (sorted keys).
_K_TV = ("t", "z", "zbar")
_K_ZV = ("z", "z", "zbar")
_K_ZBV = ("z", "zbar", "zbar")
_K_ZW = ("z", "z", "z")
_K_Z3V_A = ("z", "z", "z", "z", "zbar")
_K_Z3V_B = ("z", "zbar", "zbar", "zbar", "zbar")
_RESIDUAL_KEYS = (KEY_V, KEY_W, _K_TV, _K_ZV, _K_ZBV, _K_ZW, _K_Z3V_A, _K_Z3V_B)
SAMPLE_RADIUS = 5.0  # sample_points: |x| <= SAMPLE_RADIUS, |t| <= SAMPLE_T_RANGE
SAMPLE_T_RANGE = 2.0


@dataclass(frozen=True)
class ResidualReport:
    """Max evolution and constraint residuals over a point sample."""

    evolution_residual: float
    constraint_residual: float
    n_points: int
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "evolution_residual": self.evolution_residual,
            "constraint_residual": self.constraint_residual,
            "points": self.n_points,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class AsymptoticsTable:
    errors_v: tuple[float, ...]
    errors_w: tuple[float, ...]
    probe_decay: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "errors_v": list(self.errors_v),
            "errors_w": list(self.errors_w),
            "probe_decay": list(self.probe_decay),
        }


@dataclass(frozen=True)
class AsymptoticsReport:
    """Per-time splitting errors for one block, both time directions.

    forward holds the sup over the profile window of |v(xi + c_k t, t) -
    nu_k(xi)| and the w analogue for each t in times, plus the decay of
    sup |v| along a probe velocity distinct from every block velocity;
    backward is the same with t negated.
    """

    block: int
    velocity: complex
    times: tuple[float, ...]
    probe_velocity: complex
    forward: AsymptoticsTable
    backward: AsymptoticsTable

    def to_json_dict(self) -> dict:
        return {
            "block": self.block,
            "velocity": [self.velocity.real, self.velocity.imag],
            "times": list(self.times),
            "probe_velocity": [self.probe_velocity.real, self.probe_velocity.imag],
            "forward": self.forward.to_json_dict(),
            "backward": self.backward.to_json_dict(),
        }


def sample_points(n: int, seed: int) -> list[SpacetimePoint]:
    """n points uniform on the disc |x| <= SAMPLE_RADIUS, t uniform in +-SAMPLE_T_RANGE."""
    rng = np.random.default_rng(seed)
    r = SAMPLE_RADIUS * np.sqrt(rng.uniform(size=n))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
    t = rng.uniform(-SAMPLE_T_RANGE, SAMPLE_T_RANGE, size=n)
    return [
        SpacetimePoint(ri * math.cos(ai), ri * math.sin(ai), ti)
        for ri, ai, ti in zip(r, ang, t)
    ]


def _residuals(ev: PotentialEvaluator, z, t) -> tuple[np.ndarray, np.ndarray]:
    """(evolution, constraint) residual magnitudes at many points (z, t)."""
    der, _, _ = log_det_partials(ev, z, t, _RESIDUAL_KEYS)
    g, w = v_w(der)
    v = g.real
    dt_v = (-4.0 * der[_K_TV]).real
    # d_z of v = Re(-4 F_z_zbar) by the Wirtinger rule; its conjugate-pair
    # structure makes the constraint residual a genuine reality check.
    dz_v = -2.0 * (der[_K_ZV] + der[_K_ZBV].conj())
    dz3_v = -2.0 * (der[_K_Z3V_A] + der[_K_Z3V_B].conj())
    dz_w = 12.0 * der[_K_ZW]
    dzbar_w = 12.0 * der[_K_ZV]

    rhs = 4.0 * (4.0 * dz3_v + dz_v * w + v * dz_w - ev.params.energy * dz_w).real
    return np.abs(dt_v - rhs), np.abs(dzbar_w + 3.0 * dz_v)


def point_residuals(ev: PotentialEvaluator, point: SpacetimePoint) -> tuple[float, float]:
    """(evolution, constraint) residual magnitudes at a single point."""
    evolution, constraint = _residuals(ev, [point.z], [point.t])
    return float(evolution[0]), float(constraint[0])


def nv_residual(
    ev: PotentialEvaluator, points: list[SpacetimePoint], seed: int | None = None
) -> ResidualReport:
    """Max equation residuals over a non-empty point sample.

    All derivatives are analytic (trace calculus); near-singular evaluation
    aborts with the offending point attached to the exception.
    """
    evolution, constraint = _residuals(ev, [p.z for p in points], [p.t for p in points])
    return ResidualReport(float(evolution.max()), float(constraint.max()), len(points), seed)


def travel_wave_error(
    ev: PotentialEvaluator,
    dt: float,
    points: list[SpacetimePoint],
    block: int = 1,
) -> float:
    """Max of |v(z + c dt, t + dt) - v(z, t)| over the points.

    c is the velocity of the chosen block, 1-based.  Zero up to rounding iff
    the potential is a travel wave, which happens exactly for N = 1; for N > 1
    the error is genuinely nonzero for every candidate block velocity.
    """
    c = velocity(ev.params.block(block)[0][0], ev.params.energy)
    z = np.array([p.z for p in points])
    t = np.array([p.t for p in points])
    shifted = fields(ev, z + c * dt, t + dt)[0]
    return float(np.abs(shifted - fields(ev, z, t)[0]).max())


def _window_grid(radius: float, n: int) -> np.ndarray:
    # A radius near the float limit overflows to non-finite points, which
    # the kernel rejects; numpy's warning would only precede that error.
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.linspace(-radius, radius, n)
        a, b = np.repeat(g, g.size), np.tile(g, g.size)
        inside = a * a + b * b <= radius * radius
        return a[inside] + 1j * b[inside]


def asymptotic_error_sweep(
    ev: PotentialEvaluator,
    block: int,
    times: list[float],
    window_radius: float = 3.0,
    window_points: int = 13,
    probe_velocity: complex = 0j,
) -> AsymptoticsReport:
    """Splitting experiment for one block over a list of times.

    For each t (both signs, reported separately) the full field is compared
    against the block profile on the co-moving window |xi| <= window_radius,
    and sup |v| is recorded along the probe velocity, which must differ from
    every block velocity (there the field must die out).
    """
    times = [float(t) for t in times]
    if not times or not all(0 < t < math.inf for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        raise ValueError("times must be finite, positive and strictly increasing")
    velocities = block_velocities(ev.params)
    if not 1 <= block <= velocities.size:
        raise ValueError(f"block index {block} out of range 1..{velocities.size}")
    for a in range(velocities.size):
        for b in range(a + 1, velocities.size):
            if abs(velocities[a] - velocities[b]) <= 1e-9 * (1.0 + abs(velocities[a])):
                raise ValueError(f"blocks {a + 1} and {b + 1} share a velocity")
        if abs(probe_velocity - velocities[a]) <= 1e-9 * (1.0 + abs(velocities[a])):
            raise ValueError(f"probe velocity coincides with block {a + 1}")

    c = complex(velocities[block - 1])
    window = _window_grid(window_radius, window_points)
    if not window.size:
        raise ValueError(
            f"profile window of radius {window_radius:g} with {window_points} points "
            "per axis holds no point"
        )
    # The block profile: the block's own 4x4 subblock of A, at t = 0.
    nu, omega, *_ = fields(ev.block_evaluator(block), window, np.zeros(window.size))

    # One batch, ordered as a point-by-point sweep would go (sign, time,
    # window point, co-moving before probe), so that the same point fails first.
    tt = np.multiply.outer((1.0, -1.0), times)[:, :, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite z: the kernel raises
        z = window[:, None] + np.array([c, probe_velocity]) * tt
    v, w, *_ = fields(ev, z, np.broadcast_to(tt, z.shape))
    v, w = v.reshape(z.shape), w.reshape(z.shape)
    tables = [
        AsymptoticsTable(
            tuple(np.abs(v[s, :, :, 0] - nu).max(axis=1).tolist()),
            tuple(np.abs(w[s, :, :, 0] - omega).max(axis=1).tolist()),
            tuple(np.abs(v[s, :, :, 1]).max(axis=1).tolist()),
        )
        for s in range(2)
    ]

    return AsymptoticsReport(
        block=block,
        velocity=c,
        times=tuple(times),
        probe_velocity=complex(probe_velocity),
        forward=tables[0],
        backward=tables[1],
    )
