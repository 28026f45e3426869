"""Reference computations made apart from gzpot.

Nothing here imports gzpot.  The potential matrix is assembled entry by entry
from the paper's formulas, its determinant comes from numpy.linalg.slogdet,
and the mixed partials of ln det A come from the Taylor coefficients of the
determinant on a circle in each of the complex directions z and zbar (a
discrete Cauchy integral), not from the trace calculus the program uses.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def velocity(lam: complex, energy: float) -> complex:
    """Travel-wave velocity c = 6E (conj(l)^2 + 1/l^2 + l^2/conj(l)^2)."""
    l2 = lam * lam
    lb2 = lam.conjugate() ** 2
    return 6.0 * energy * (lb2 + 1.0 / l2 + l2 / lb2)


def block_lambdas(lam: complex) -> tuple[complex, complex, complex, complex]:
    mirror = 1.0 / lam.conjugate()
    return (lam, -lam, mirror, -mirror)


def expand(energy: float, seeds: list[tuple[complex, complex]]) -> tuple[np.ndarray, np.ndarray]:
    """Full 4N lambda and gamma arrays derived from the block seeds (lambda, gamma)."""
    lams, gams = [], []
    for lam, gam in seeds:
        lams.extend(block_lambdas(lam))
        gm = lam.conjugate() ** 2 * gam.conjugate()
        gams.extend((gam, gam - 1.0 / lam, gm, gm - lam.conjugate()))
    return np.array(lams, dtype=complex), np.array(gams, dtype=complex)


def loop_matrix(energy, lams, gams, z, zbar, t) -> np.ndarray:
    """A(z, zbar, t), assembled one entry at a time."""
    se = math.sqrt(energy)
    n = len(lams)
    a = np.empty((n, n), dtype=complex)
    for l in range(n):
        for m in range(n):
            if l == m:
                a[l, m] = (
                    0.5j * se * (zbar - z / lams[l] ** 2)
                    - 3j * energy * se * t * (lams[l] ** 2 - 1.0 / lams[l] ** 4)
                    - gams[l]
                )
            else:
                a[l, m] = 1.0 / (lams[l] - lams[m])
    return a


# Circle samples per direction, and the circle radius as a share of the
# distance to the nearest zero of the determinant along that direction.
# det A(z + s, zbar + u) / det A(z, zbar) is a polynomial in (s, u); with
# these values its aliased higher coefficients stay below 1e-11 relative
# up to N = 16 blocks.
_CIRCLE_POINTS = 12
_CIRCLE_SHARE = 0.05


def fields(energy, lams, gams, x1, x2, t) -> tuple[float, complex, float]:
    """(v, w, |det A|) at one point, from determinants only.

    v = -4 d_z d_zbar ln det A and w = 12 d_z^2 ln det A.  With R(s, u) the
    determinant ratio and r_ab its Taylor coefficients,
    F_z_zbar = r_11 - r_10 r_01 and F_zz = 2 r_20 - r_10^2.
    """
    z = complex(x1, x2)
    zbar = z.conjugate()
    a0 = loop_matrix(energy, lams, gams, z, zbar, t)
    se = math.sqrt(energy)
    d_z = np.array([-0.5j * se / l**2 for l in lams])
    d_zbar = np.full(len(lams), 0.5j * se)
    sign0, log0 = np.linalg.slogdet(a0)

    def radius(d):
        mu = np.linalg.eigvals(np.linalg.solve(a0, np.diag(d)))
        return _CIRCLE_SHARE / float(np.max(np.abs(mu)))

    rs, ru = radius(d_z), radius(d_zbar)
    m = _CIRCLE_POINTS
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    ratio = np.empty((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            sign, logabs = np.linalg.slogdet(a0 + np.diag(rs * roots[j] * d_z + ru * roots[k] * d_zbar))
            ratio[j, k] = (sign / sign0) * math.exp(logabs - log0)
    coef = np.fft.fft2(ratio) / (m * m)
    r10 = coef[1, 0] / rs
    r01 = coef[0, 1] / ru
    r11 = coef[1, 1] / (rs * ru)
    r20 = coef[2, 0] / rs**2
    v = (-4.0 * (r11 - r10 * r01)).real
    w = 12.0 * (2.0 * r20 - r10 * r10)
    return float(v), complex(w), math.exp(log0)


# -- the forbidden velocity region -------------------------------------------
#
# Its boundary is the three-cusped curve u(phi) = 6 (2 e^{-i phi} + e^{2 i phi})
# in units of E, the |lambda| -> 1 limit of the attainable velocities.  The
# tests below are winding numbers of a fine polygon through that curve, which
# lies within 2e-5 E of it.

_BOUNDARY = 6.0 * (
    2.0 * np.exp(-1j * np.linspace(0.0, 2.0 * math.pi, 4097)[:-1])
    + np.exp(2j * np.linspace(0.0, 2.0 * math.pi, 4097)[:-1])
)


def inside_forbidden(c: complex, energy: float) -> bool:
    """Whether c lies inside the three-cusped curve scaled by E."""
    rel = _BOUNDARY - c / energy
    turn = np.angle(np.roll(rel, -1) / rel).sum()
    return abs(turn) > math.pi


def on_forbidden_boundary(c: complex, energy: float, margin: float = 1e-4) -> bool:
    """Whether the ray through c leaves the region between (1 - margin) c and (1 + margin) c."""
    return inside_forbidden(c * (1.0 - margin), energy) and not inside_forbidden(
        c * (1.0 + margin), energy
    )


def random_forbidden_target(rng, energy: float) -> complex:
    """A velocity inside the region, at most 0.9 of the way to its boundary."""
    while True:
        c = energy * 18.0 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if inside_forbidden(c / 0.9, energy):
            return c
