"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the package's evaluation kernel:
matrices are assembled entry by entry, determinants come from
numpy.linalg.slogdet or det, the fields come from one point at a time by
explicit products, and derivatives come from central finite differences with
one Richardson extrapolation level.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def oracle_matrix(ps, zv, zbv, t):
    """Potential matrix with z and zbar as independent variables (loop form)."""
    lam = ps.lambdas
    gam = ps.gammas
    e = ps.energy
    se = math.sqrt(e)
    n = lam.size
    a = np.empty((n, n), dtype=complex)
    for l in range(n):
        for m in range(n):
            if l == m:
                a[l, m] = (
                    0.5j * se * (zbv - zv / lam[l] ** 2)
                    - 3j * e * se * t * (lam[l] ** 2 - 1.0 / lam[l] ** 4)
                    - gam[l]
                )
            else:
                a[l, m] = 1.0 / (lam[l] - lam[m])
    return a


def direction_diagonals(ps):
    lam = ps.lambdas
    e = ps.energy
    se = math.sqrt(e)
    lam2 = lam**2
    return {
        "z": -0.5j * se / lam2,
        "zbar": np.full(lam.size, 0.5j * se),
        "t": -3j * e * se * (lam2 - 1.0 / lam2**2),
    }


def trace_fields(ps, zv, t):
    """(v, w, |det A|) at one point from the loop-form matrix, an explicit
    inverse and the full products whose traces give the mixed partials."""
    a = oracle_matrix(ps, zv, zv.conjugate(), t)
    ainv = np.linalg.inv(a)
    d = direction_diagonals(ps)
    fz = ainv @ np.diag(d["z"])
    fzbar = ainv @ np.diag(d["zbar"])
    v = (4.0 * np.trace(fz @ fzbar)).real
    w = -12.0 * np.trace(fz @ fz)
    return v, w, abs(np.linalg.det(a))


def word_logdet_derivative(ps, zv, t, idx):
    """Mixed partial of ln det A by the trace calculus in its plainest form.

    A word (d1, ..., dk) stands for tr(X D_d1 X D_d2 ... X D_dk), X = A^-1.
    d_a ln det A is the word (a); differentiating in b replaces each X of a
    word in turn by -X D_b X, that is inserts b before each letter.  Words are
    kept one by one, with no cycle canonicalisation, and each is evaluated as
    a full product of the loop-form matrix's inverse and the diagonals.
    """
    words = [(1, (idx[0],))]
    for b in idx[1:]:
        words = [(-sign, w[:i] + (b,) + w[i:]) for sign, w in words for i in range(len(w))]
    ainv = np.linalg.inv(oracle_matrix(ps, zv, zv.conjugate(), t))
    factors = {d: ainv @ np.diag(diag) for d, diag in direction_diagonals(ps).items()}
    total = 0j
    for sign, w in words:
        prod = np.eye(ainv.shape[0], dtype=complex)
        for d in w:
            prod = prod @ factors[d]
        total += sign * np.trace(prod)
    return total


def _logdet_ratio(ps, p1, p2):
    # log(det A(p1) / det A(p2)) without branch trouble: the points are close,
    # so the sign ratio stays away from the cut.
    s1, la1 = np.linalg.slogdet(oracle_matrix(ps, *p1))
    s2, la2 = np.linalg.slogdet(oracle_matrix(ps, *p2))
    return (la1 - la2) + cmath.log(s1 / s2)


def _shift(p, d, h):
    zv, zbv, t = p
    if d == "z":
        return (zv + h, zbv, t)
    if d == "zbar":
        return (zv, zbv + h, t)
    return (zv, zbv, t + h)


def _fd(ps, p, idx, hs):
    d = idx[0]
    if len(idx) == 1:
        return _logdet_ratio(ps, _shift(p, d, hs[d]), _shift(p, d, -hs[d])) / (2 * hs[d])
    return (
        _fd(ps, _shift(p, d, hs[d]), idx[1:], hs)
        - _fd(ps, _shift(p, d, -hs[d]), idx[1:], hs)
    ) / (2 * hs[d])


def fd_steps(ps, point):
    """Per-direction steps adapted to the nearest zero of det A.

    Along direction d the determinant is proportional to prod_i (1 + s mu_i)
    with mu_i the eigenvalues of A^-1 D_d, so the nearest zero sits at
    distance 1/max|mu_i|; a small fraction of that keeps the truncation error
    of the extrapolated differences below the target while staying far above
    rounding noise.
    """
    p = (point.z, point.zbar, point.t)
    ainv = np.linalg.inv(oracle_matrix(ps, *p))
    hs = {}
    for d, diag in direction_diagonals(ps).items():
        mu = np.max(np.abs(np.linalg.eigvals(ainv * diag[None, :])))
        hs[d] = 1.0 / (200.0 * mu)
    return hs


def fd_logdet_derivative(ps, point, idx, hs=None):
    """Mixed partial of ln det A by nested central differences + Richardson."""
    if hs is None:
        hs = fd_steps(ps, point)
    p = (point.z, point.zbar, point.t)
    idx = tuple(idx)
    half = {k: v / 2 for k, v in hs.items()}
    return (4.0 * _fd(ps, p, idx, half) - _fd(ps, p, idx, hs)) / 3.0


def _fd_weights(offsets, order):
    a = np.array([[float(k) ** m for k in offsets] for m in range(len(offsets))])
    b = np.zeros(len(offsets))
    b[order] = math.factorial(order)
    return np.linalg.solve(a, b)


_W1 = _fd_weights((-2, -1, 0, 1, 2), 1)
_W2 = _fd_weights((-2, -1, 0, 1, 2), 2)
_W3 = _fd_weights((-3, -2, -1, 0, 1, 2, 3), 3)
_OFF5 = (-2, -1, 0, 1, 2)
_OFF7 = (-3, -2, -1, 0, 1, 2, 3)


def nv_evolution_residual_fd(eval_fields, point_cls, ev, pt, h=1e-3):
    """Evolution residual with all field derivatives from 4th-order stencils.

    The fields themselves come from the supplied eval_fields; only the
    derivatives entering the equation are replaced by finite differences in
    x1, x2, t (Wirtinger combinations for the z derivatives).
    """
    cache = {}

    def fields(i, j, k=0):
        key = (i, j, k)
        if key not in cache:
            s = eval_fields(ev, point_cls(pt.x1 + i * h, pt.x2 + j * h, pt.t + k * h))
            cache[key] = (s.v, s.w)
        return cache[key]

    def v(i, j, k=0):
        return fields(i, j, k)[0]

    def d1(f, axis):
        if axis == 0:
            return sum(c * f(k, 0) for c, k in zip(_W1, _OFF5)) / h
        return sum(c * f(0, k) for c, k in zip(_W1, _OFF5)) / h

    def dz(f):
        return 0.5 * (d1(f, 0) - 1j * d1(f, 1))

    fxxx = sum(c * v(k, 0) for c, k in zip(_W3, _OFF7)) / h**3
    fyyy = sum(c * v(0, k) for c, k in zip(_W3, _OFF7)) / h**3
    fxxy = (
        sum(
            c2 * sum(c1 * v(k2, k1) for c1, k1 in zip(_W1, _OFF5))
            for c2, k2 in zip(_W2, _OFF5)
        )
        / h**3
    )
    fxyy = (
        sum(
            c1 * sum(c2 * v(k1, k2) for c2, k2 in zip(_W2, _OFF5))
            for c1, k1 in zip(_W1, _OFF5)
        )
        / h**3
    )
    dz3v = 0.125 * (fxxx - 3j * fxxy - 3 * fxyy + 1j * fyyy)

    dt_v = sum(c * v(0, 0, k) for c, k in zip(_W1, _OFF5)) / h
    dz_vw = dz(lambda i, j: fields(i, j)[0] * fields(i, j)[1])
    dz_w = dz(lambda i, j: fields(i, j)[1])
    rhs = 4.0 * (4.0 * dz3v + dz_vw - ev.params.energy * dz_w).real
    return abs(dt_v - rhs)
