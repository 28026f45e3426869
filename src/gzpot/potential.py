"""Exact evaluation of the determinant-form potentials.

The potential pair is

    v = -4 d_z d_zbar ln det A,      w = 12 d_z^2 ln det A,

where A is the 4N x 4N matrix with entries

    A_ll = (i sqrt(E)/2)(zbar - z/lambda_l^2)
           - 3 i E^(3/2) t (lambda_l^2 - 1/lambda_l^4) - gamma_l,
    A_lm = 1/(lambda_l - lambda_m)            (l != m).

Only the diagonal depends on (x, t), and each partial derivative of A in the
directions z, zbar, t is a constant diagonal matrix.  Mixed partials of
F = ln det A are therefore evaluated exactly by the trace calculus

    d_a F = tr(A^-1 D_a),     d_b (A^-1) = -A^-1 D_b A^-1,

which expands any mixed partial into a signed sum of traces of alternating
products X D_a1 X D_a2 ..., X = A^-1, generated once per derivative multiset.
v is real up to rounding; the imaginary part is kept as a diagnostic.

Every evaluation goes through one batched kernel, log_det_partials.  It
inverts A stacked over many points and, as every D is diagonal, contracts each
trace as tr(L D_a R D_b) = sum_ij (L o R^T)_ij b_i a_j, with L, R the
sandwiches X D_d1 X ... D_dk X of its two halves, one stacked product each.
The plan takes the traces in key order, each at the rotation whose halves
reuse sandwiches already planned, and lists the products it needs: the eight
residual partials need S(z), S(zbar), S(z, zbar) and four pairs, each
contracted only against the keys it feeds.  |det A| is the exponential of
the order-0 partial, the key () for ln|det A|: only callers that read it ask
for it, and without it no slogdet is taken.

For a valid set A is never singular.  With sigma swapping 4k <-> 4k+2 and
4k+1 <-> 4k+3 (lambda <-> 1/conj(lambda)), H = diag(1/conj(lambda)) P_sigma A
is Hermitian at every real (z, t) and quasi-definite (Vanderbei 1995): the
constant Pick matrix 1/(1 - conj(lambda_l) lambda_m) on |lambda| < 1, a
constant negative definite block on |lambda| > 1, inertia (2N, 2N).  So exit
4 on a validated set is always numerical.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .params import ParameterSet, diagonal_coefficients

DIRECTIONS = ("z", "zbar", "t")
MAX_DERIVATIVE_ORDER = 5
# Reciprocal-condition threshold below which evaluation refuses to proceed.
NEAR_SINGULAR_RCOND = 1e-12
# Matrix entries per chunk of the batched kernel: bounds the stacked
# (P, n, n) work arrays, so that peak memory does not grow with the number of
# points, while a chunk still holds enough points to amortise each call.
CHUNK_ELEMENTS = 1 << 16
_ALL_ONES = np.ones((1, 1, 1))  # the all-ones sandwich of the first order, broadcast


class EvaluationError(Exception):
    """Evaluation failure of the potential machinery at a point: the base
    class, raised itself where the potential matrix is not finite."""

    def __init__(self, message: str, point: "SpacetimePoint"):
        super().__init__(message)
        self.point = point


class SingularMatrixError(EvaluationError):
    """Potential matrix exactly singular at an evaluation point."""

    def __init__(self, point: "SpacetimePoint"):
        super().__init__(f"singular potential matrix at {point}", point)


class NearSingularError(EvaluationError):
    """Potential matrix nearly singular at an evaluation point."""

    def __init__(self, point: "SpacetimePoint", absdet: float, rcond: float):
        super().__init__(
            f"near-singular potential matrix at {point}: |det| = {absdet:.3e}, rcond = {rcond:.3e}",
            point,
        )
        self.absdet = absdet
        self.rcond = rcond


@dataclass(frozen=True)
class SpacetimePoint:
    """Point (x1, x2, t) with z = x1 + i x2."""

    x1: float
    x2: float
    t: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x1, self.x2, self.t)):
            raise ValueError("spacetime coordinates must be finite")

    @classmethod
    def from_z(cls, z: complex, t: float = 0.0) -> "SpacetimePoint":
        z = complex(z)
        return cls(z.real, z.imag, t)

    @property
    def z(self) -> complex:
        return complex(self.x1, self.x2)

    @property
    def zbar(self) -> complex:
        return complex(self.x1, -self.x2)

    def __str__(self) -> str:
        return f"(x1={self.x1:.6g}, x2={self.x2:.6g}, t={self.t:.6g})"


@dataclass(frozen=True)
class FieldSample:
    """Potential values at one point plus numerical diagnostics.

    v_imag is the imaginary part discarded when taking v real; for a
    constraint-satisfying parameter set it is rounding noise.
    cond_estimate is the exact 1-norm condition number of the potential
    matrix, ||A||_1 ||A^-1||_1 from its inverse.
    """

    v: float
    w: complex
    absdet: float
    cond_estimate: float
    v_imag: float = 0.0


class PotentialEvaluator:
    """Assembled, immutable state for evaluating one parameter set.

    Precomputes the constant off-diagonal part of A and the three diagonal
    direction matrices; safe to share across threads.
    """

    def __init__(self, params: ParameterSet):
        self.params = params
        lam = params.lambdas
        self.size = lam.size
        # The direction matrices d A/d z, d A/d zbar, d A/d t, which are also
        # the coefficients of z, zbar, t in the diagonal of A.
        self._diag = dict(zip(DIRECTIONS, diagonal_coefficients(params)))
        diff = lam[:, None] - lam[None, :]
        np.fill_diagonal(diff, 1.0)
        off = 1.0 / diff
        np.fill_diagonal(off, 0.0)
        self._offdiag = off
        for arr in (*self._diag.values(), off):
            arr.setflags(write=False)
        self._plans: dict = {}  # per key set; any two builds of a plan are equal

    def direction_diagonal(self, direction: str) -> np.ndarray:
        """Diagonal of the constant matrix dA in the given direction."""
        return self._diag[direction]

    def matrices(self, z: np.ndarray, t: np.ndarray) -> np.ndarray:
        """A stacked as (P, n, n) at the points (z_p, conj(z_p), t_p)."""
        n = self.size
        m = np.empty((z.size, n, n), dtype=complex)
        m[...] = self._offdiag
        d = self._diag
        m.reshape(z.size, n * n)[:, :: n + 1] = (
            d["z"] * z[:, None] + d["zbar"] * z.conj()[:, None] + d["t"] * t[:, None]
            - self.params.gammas
        )
        return m

    def _plan(self, keys: tuple[tuple[str, ...], ...]):
        """How _contract evaluates keys: (builds, pairs), builds the sandwiches
        S(d1..dk) = X D_d1 X ... D_dk X named by directions, prefixes first, and
        pairs ((left, right), rows, weights), None naming all ones, rows the key
        columns fed (a slice if all), weights the conjugated boundary diagonals."""
        if keys not in self._plans:
            builds, pairs = _pair_terms(keys)
            plan = []
            for pair, rows, terms in pairs:
                w = np.zeros((len(rows), self.size**2), complex)
                for r, a, b, coeff in terms:
                    if b is None:  # tr(X Da) = sum_ij (X o 1)_ij diag(a)_ij
                        wa = np.diag(self._diag[a])
                    else:  # tr(L Da R Db) = sum_ij (L o R^T)_ij b_i a_j
                        wa = np.multiply.outer(self._diag[b], self._diag[a])
                    w[r] += coeff * wa.ravel().conj()
                plan.append((pair, slice(None) if len(rows) == len(keys) else np.array(rows), w))
            self._plans[keys] = builds, tuple(plan)
        return self._plans[keys]


def build_matrix(ev: PotentialEvaluator, point: SpacetimePoint) -> np.ndarray:
    """The 4N x 4N potential matrix A at one spacetime point."""
    return ev.matrices(np.array([point.z]), np.array([point.t]))[0]


def _check_index(idx: Sequence[str]) -> tuple[str, ...]:
    idx = tuple(idx)
    if not 1 <= len(idx) <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be 1..{MAX_DERIVATIVE_ORDER}, got {len(idx)}")
    for d in idx:
        if d not in DIRECTIONS:
            raise ValueError(f"unknown direction {d!r}; expected one of {DIRECTIONS}")
    return idx


def _canonical_cycle(cycle: tuple[str, ...]) -> tuple[str, ...]:
    # Traces of the alternating products are invariant under cyclic rotation.
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def _trace_terms(idx_key: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], int], ...]:
    """Signed trace monomials of the mixed partial of ln det A.

    Each monomial (cycle, coeff) stands for coeff * tr(prod_i A^-1 D_{cycle_i}).
    As d(A^-1) = -A^-1 D A^-1 inserts each new direction at every place of a
    cycle, F_{a1..ak} = (-1)^(k-1) * sum over the orderings p of a2..ak of
    tr(X D_a1 X D_p1 ... X D_p(k-1)), X = A^-1.  idx_key is the sorted multiset:
    mixed partials commute.
    """
    sign = (-1) ** (len(idx_key) - 1)
    cycles = Counter(_canonical_cycle(idx_key[:1] + p) for p in permutations(idx_key[1:]))
    return tuple(sorted((cycle, sign * n) for cycle, n in cycles.items()))


def _halves(cycle: tuple[str, ...]) -> tuple:
    # (L, a, R, b) for tr(L Da R Db); at odd order L is the shorter half.
    h = len(cycle) // 2
    return cycle[: h - 1], cycle[h - 1], cycle[h:-1], cycle[-1]


def _prefixes(cycle: tuple[str, ...]) -> set:
    # The sandwiches behind a cycle's two halves, each built from its prefix.
    left, _, right, _ = _halves(cycle)
    return {s[:i] for s in (left, right) for i in range(1, len(s) + 1)}


@lru_cache(maxsize=None)
def _pair_terms(keys: tuple[tuple[str, ...], ...]) -> tuple:
    """(builds, pairs) for the keys.  pairs holds their trace monomials grouped
    by sandwich pair, ((left, right), rows, terms) with rows the keys the pair
    feeds and terms (r, a, b, coeff) for the r-th of them (b None at order 1:
    the pair (X, all ones)); builds the sandwiches they read, prefixes first.

    A trace may start at any rotation of its cycle.  In key order, each cycle
    is placed at the rotation needing the fewest sandwiches not yet planned,
    then the one whose right half has the most distinct directions, then the
    least; so the eight residual keys need S(z), S(zbar), S(z, zbar) and four
    pairs, one weight row per key.
    """
    planned = set()
    pairs = defaultdict(list)
    for k, key in enumerate(keys):
        for cycle, coeff in _trace_terms(key):
            if len(cycle) == 1:
                pairs[(), None].append((k, cycle[0], None, coeff))
                continue
            rotations = {cycle[i:] + cycle[:i] for i in range(len(cycle))}
            cycle = min(
                rotations,
                key=lambda c: (len(_prefixes(c) - planned), -len(set(_halves(c)[2])), c),
            )
            planned |= _prefixes(cycle)
            left, a, right, b = _halves(cycle)
            if right < left:  # tr(L Da R Db) = tr(R Db L Da): one order per pair
                left, a, right, b = right, b, left, a
            pairs[left, right].append((k, a, b, coeff))
    grouped = []
    for pair, terms in pairs.items():
        rows = sorted({k for k, *_ in terms})
        terms = tuple((rows.index(k), *rest) for k, *rest in terms)
        grouped.append((pair, tuple(rows), terms))
    return tuple(sorted(planned, key=lambda d: (len(d), d))), tuple(grouped)


def _contract(
    ev: PotentialEvaluator, ainv: np.ndarray, keys: tuple[tuple[str, ...], ...], out: np.ndarray
) -> None:
    """Add the trace sums of the K keys against the stacked inverses ainv
    (P, n, n) into out (P, K)."""
    p, n, _ = ainv.shape
    builds, pairs = ev._plan(keys)
    sandwiches = {(): ainv, None: _ALL_ONES}
    for d in builds:  # S(d1..dk) = S(d1..dk-1) D_dk X: one stacked product each
        sandwiches[d] = (sandwiches[d[:-1]] * ev.direction_diagonal(d[-1])) @ ainv
    for (left, right), rows, weights in pairs:
        # One Hadamard product per pair; vecdot conjugates the weights back.
        h = sandwiches[left] * sandwiches[right].transpose(0, 2, 1)
        out[:, rows] += np.vecdot(weights, h.reshape(p, 1, n * n))


def _inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^-1, exactly singular mask) of the stack a.

    Only if inv finds an exactly singular matrix does slogdet run, to tell
    which; those then become the identity in a, so that one inverse serves
    the chunk.
    """
    try:
        return np.linalg.inv(a), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(a)[0] == 0
        a[singular] = np.eye(a.shape[-1])
        return np.linalg.inv(a), singular


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN cond is near-singular
def log_det_partials(
    ev: PotentialEvaluator, z, t, keys: tuple[tuple[str, ...], ...]
) -> tuple[dict[tuple[str, ...], np.ndarray], np.ndarray]:
    """Mixed partials of ln det A at many points (z_p, conj(z_p), t_p).

    z and t are equal-length sequences; keys is a tuple of sorted derivative
    multisets, among them possibly the empty one (), the order-0 partial
    ln|det A|: the only way to |det A|, and the only key that takes a
    slogdet.  Returns the partials per key and the exact 1-norm condition
    number ||A||_1 ||A^-1||_1, each of shape (P,).  The points are processed
    in chunks of CHUNK_ELEMENTS matrix entries, and the first point in input
    order whose matrix is not finite, singular or near-singular raises.
    """
    z = np.asarray(z, dtype=complex).ravel()
    t = np.asarray(t, dtype=float).ravel()
    if z.size == 0:
        raise ValueError("no points to evaluate")
    if not (np.isfinite(z).all() and np.isfinite(t).all()):
        raise ValueError("spacetime coordinates must be finite")
    logdet = np.empty(z.size) if () in keys else None
    keys = tuple(filter(None, keys))
    der = np.zeros((z.size, len(keys)), dtype=complex)
    cond = np.empty(z.size)
    step = max(1, CHUNK_ELEMENTS // ev.size**2)
    for lo in range(0, z.size, step):
        hi = lo + step
        a = ev.matrices(z[lo:hi], t[lo:hi])
        ainv, singular = _inverse(a)
        # 1-norms: the largest column sums of moduli.
        c = cond[lo:hi] = (
            np.abs(a).sum(axis=1).max(axis=1) * np.abs(ainv).sum(axis=1).max(axis=1)
        )
        bad = ~(c <= 1.0 / NEAR_SINGULAR_RCOND) | singular  # NaN is bad
        if bad.any():
            i = int(bad.argmax())
            point = SpacetimePoint.from_z(z[lo + i], t[lo + i])
            if not np.isfinite(a[i]).all():
                raise EvaluationError(f"potential matrix not finite at {point}", point)
            if singular[i]:
                raise SingularMatrixError(point)
            absdet = np.exp(np.linalg.slogdet(a[i])[1])
            raise NearSingularError(point, float(absdet), float(1.0 / c[i]))
        _contract(ev, ainv, keys, der[lo:hi])
        if logdet is not None:
            logdet[lo:hi] = np.linalg.slogdet(a)[1]
    partials = {key: der[:, k] for k, key in enumerate(keys)}
    if logdet is not None:
        partials[()] = logdet
    return partials, cond


def log_det_derivative(
    ev: PotentialEvaluator, point: SpacetimePoint, idx: Sequence[str]
) -> complex:
    """Exact mixed partial of ln det A at a point.

    idx is a sequence over {"z", "zbar", "t"} of length 1..5; the result does
    not depend on its ordering.
    """
    key = tuple(sorted(_check_index(idx)))
    return complex(log_det_partials(ev, [point.z], [point.t], (key,))[0][key][0])


# The derivative multisets of F = ln det A that v and w are made of.
KEY_V = ("z", "zbar")
KEY_W = ("z", "z")


def v_w(der: dict) -> tuple[np.ndarray, np.ndarray]:
    """-4 F_z_zbar, whose real part is v, and w = 12 F_zz from log_det_partials."""
    return -4.0 * der[KEY_V], 12.0 * der[KEY_W]


def potentials(ev: PotentialEvaluator, z, t) -> tuple[np.ndarray, np.ndarray]:
    """v and w at the points of log_det_partials, without the determinant that
    fields takes."""
    g, w = v_w(log_det_partials(ev, z, t, (KEY_V, KEY_W))[0])
    return g.real, w


@np.errstate(over="ignore")  # |det A| beyond the float range is inf
def fields(ev: PotentialEvaluator, z, t) -> tuple[np.ndarray, ...]:
    """Batched eval_fields: arrays of v, w, |det A|, condition number and the
    imaginary part of the v expression at the points of log_det_partials."""
    der, cond = log_det_partials(ev, z, t, ((), KEY_V, KEY_W))
    g, w = v_w(der)
    return g.real, w, np.exp(der[()]), cond, g.imag


def eval_fields(ev: PotentialEvaluator, point: SpacetimePoint) -> FieldSample:
    """Potential values v, w at a point via the trace calculus.

    v = Re(-4 F_z_zbar), w = 12 F_zz for F = ln det A; the imaginary part of
    the v expression is reported in the sample as a reality diagnostic.
    """
    return FieldSample(*(a.item(0) for a in fields(ev, [point.z], [point.t])))


def linear_system_fields(
    ev: PotentialEvaluator, point: SpacetimePoint
) -> tuple[complex, complex]:
    """Secondary evaluation path for (v, w) through linear systems.

    Solves A psi^(j) = -2 i sqrt(E) e_j and the differentiated systems
    A (psi^(j))_z = (i sqrt(E) / (2 lambda_m^2)) psi_m^(j), summing the
    diagonal derivatives; similarly for w with right-hand sides
    -6 i sqrt(E) lambda_j^-2 e_j.  Exists as a cross-check of eval_fields;
    v is returned as the complex trace without taking the real part.
    """
    (a,) = ev.matrices(np.array([point.z]), np.array([point.t]))
    rcond = 1.0 / np.linalg.cond(a, 1)
    if not rcond >= NEAR_SINGULAR_RCOND:
        raise NearSingularError(point, float(abs(np.linalg.det(a))), float(rcond))
    sqrt_e = math.sqrt(ev.params.energy)
    dz = ev.direction_diagonal("z")  # -i sqrt(E) / (2 lambda^2)
    deriv_scale = -dz[:, None]

    psi = np.linalg.solve(a, -2j * sqrt_e * np.eye(ev.size, dtype=complex))
    v = np.trace(np.linalg.solve(a, deriv_scale * psi))

    eta = np.linalg.solve(a, np.diag(12.0 * dz))
    w = np.trace(np.linalg.solve(a, deriv_scale * eta))
    return complex(v), complex(w)


def soliton_profile(ev: PotentialEvaluator, block: int, xi):
    """Travel-wave profile (nu_k, omega_k) of one block at profile coordinates xi.

    The fields of block k's own one-block set, the 4x4 diagonal subblock of A,
    at (xi, 0), which are its fields at (xi + c_k t, t) for every t; for N = 1,
    v and w themselves.  xi is a number or an array, and nu, omega come back
    shaped like it.
    """
    bev = PotentialEvaluator(ParameterSet(ev.params.energy, *ev.params.block(block)))
    xi = np.asarray(xi, dtype=complex)
    nu, omega = potentials(bev, xi, np.zeros(xi.size))
    return nu.reshape(xi.shape)[()], omega.reshape(xi.shape)[()]
