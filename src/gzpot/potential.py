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
products A^-1 D_a1 A^-1 D_a2 ... (generated symbolically once per derivative
multiset and cached).  v is real up to rounding; the imaginary part is kept
as a diagnostic.

Every evaluation goes through one batched kernel, _log_det_partials, which
inverts A stacked over many points and contracts the traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .params import ParameterSet, velocity

DIRECTIONS = ("z", "zbar", "t")
MAX_DERIVATIVE_ORDER = 5
# Reciprocal-condition threshold below which evaluation refuses to proceed.
NEAR_SINGULAR_RCOND = 1e-12
# Matrix entries per chunk of the batched kernel: bounds the stacked
# (P, n, n) work arrays, so that peak memory does not grow with the number of
# points, while a chunk still holds enough points to amortise each call.
_CHUNK_ELEMENTS = 1 << 16


class EvaluationError(Exception):
    """Base class for evaluation failures of the potential machinery."""


class SingularMatrixError(EvaluationError):
    """Potential matrix exactly singular at an evaluation point."""

    def __init__(self, point: "SpacetimePoint"):
        super().__init__(f"singular potential matrix at {point}")
        self.point = point


class NearSingularError(EvaluationError):
    """Potential matrix nearly singular at an evaluation point."""

    def __init__(self, point: "SpacetimePoint", absdet: float, rcond: float):
        super().__init__(
            f"near-singular potential matrix at {point}: |det| = {absdet:.3e}, rcond = {rcond:.3e}"
        )
        self.point = point
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
        e = params.energy
        sqrt_e = math.sqrt(e)
        lam2 = lam * lam
        inv_lam2 = 1.0 / lam2
        self.size = lam.size
        # Coefficients of z, zbar, t in the diagonal of A; these are also the
        # direction matrices d A/d z, d A/d zbar, d A/d t.
        self._diag = {
            "z": -0.5j * sqrt_e * inv_lam2,
            "zbar": np.full(self.size, 0.5j * sqrt_e),
            "t": -3j * e * sqrt_e * (lam2 - inv_lam2**2),
        }
        diff = lam[:, None] - lam[None, :]
        np.fill_diagonal(diff, 1.0)
        off = 1.0 / diff
        np.fill_diagonal(off, 0.0)
        self._offdiag = off
        for arr in (*self._diag.values(), off):
            arr.setflags(write=False)
        self._plans: dict = {}  # per key set; any two builds of a plan are equal

    def _block_evaluator(self, k: int) -> "PotentialEvaluator":
        """Evaluator of block k's own one-block set: the 4x4 diagonal subblock of A."""
        return PotentialEvaluator(ParameterSet(self.params.energy, *self.params.block(k)))

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
        """How _contract evaluates keys: the order-2 trace monomials folded
        into conjugated weights (K, n * n), None if there are none, and every
        other cycle as (key index, coefficient, left half, right half).
        """
        if keys not in self._plans:
            w2, rest = np.zeros((len(keys), self.size**2), dtype=complex), []
            for k, key in enumerate(keys):
                for cycle, coeff in _trace_terms(key):
                    if len(cycle) == 2:
                        outer = np.multiply.outer(self._diag[cycle[0]], self._diag[cycle[1]])
                        w2[k] += coeff * outer.ravel().conj()
                    else:
                        half = len(cycle) // 2
                        rest.append((k, coeff, cycle[:half], cycle[half:]))
            self._plans[keys] = (w2 if w2.any() else None, tuple(rest))
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


@lru_cache(maxsize=None)
def _trace_terms(idx_key: tuple[str, ...]) -> tuple[tuple[tuple[str, ...], int], ...]:
    """Signed trace monomials of the mixed partial of ln det A.

    Each monomial (cycle, coeff) stands for coeff * tr(prod_i A^-1 D_{cycle_i}).
    Differentiating a monomial inserts the new direction before each existing
    factor with a sign flip, per d(A^-1) = -A^-1 D A^-1.  Keyed by the sorted
    multiset: mixed partials commute.
    """
    terms: dict[tuple[str, ...], int] = {(idx_key[0],): 1}
    for d in idx_key[1:]:
        nxt: dict[tuple[str, ...], int] = {}
        for cycle, coeff in terms.items():
            for i in range(len(cycle)):
                key = _canonical_cycle(cycle[:i] + (d,) + cycle[i:])
                nxt[key] = nxt.get(key, 0) - coeff
        terms = nxt
    return tuple(sorted(terms.items()))


def _contract(
    ev: PotentialEvaluator, ainv: np.ndarray, keys: tuple[tuple[str, ...], ...]
) -> np.ndarray:
    """Trace sums (P, K) of the K keys against the stacked inverses ainv (P, n, n)."""
    w2, rest = ev._plan(keys)
    p, n, _ = ainv.shape
    out = np.zeros((p, len(keys)), dtype=complex)
    if w2 is not None:
        # tr(X Da X Db) = sum_ij (X o X^T)_ij a_i b_j: no matrix product.
        # vecdot conjugates its first argument, the weights, back.
        out += np.vecdot(w2, (ainv * ainv.transpose(0, 2, 1)).reshape(p, 1, n * n))
    chains: dict[tuple[str, ...], np.ndarray] = {}

    def chain(dirs: tuple[str, ...]) -> np.ndarray:
        # (A^-1 D_d1)(A^-1 D_d2)...; shared prefixes are built once.
        if dirs not in chains:
            if len(dirs) == 1:
                chains[dirs] = ainv * ev.direction_diagonal(dirs[0])  # scales columns
            else:
                chains[dirs] = chain(dirs[:-1]) @ chain(dirs[-1:])
        return chains[dirs]

    for k, coeff, left, right in rest:
        if left:
            out[:, k] += coeff * np.einsum("pij,pji->p", chain(left), chain(right))
        else:  # first order
            out[:, k] += coeff * np.einsum("pii->p", chain(right))
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow: inf |det A| or a NaN cond
def _log_det_partials(
    ev: PotentialEvaluator, z, t, keys: tuple[tuple[str, ...], ...]
) -> tuple[dict[tuple[str, ...], np.ndarray], np.ndarray, np.ndarray]:
    """Mixed partials of ln det A at many points (z_p, conj(z_p), t_p).

    z and t are equal-length sequences; keys is a tuple of sorted derivative
    multisets.  Returns the partials per key, |det A| and the exact 1-norm
    condition number ||A||_1 ||A^-1||_1, each of shape (P,).  The points are
    processed in chunks of _CHUNK_ELEMENTS matrix entries, and the first point
    in input order whose matrix is singular or near-singular raises.
    """
    z = np.asarray(z, dtype=complex).ravel()
    t = np.asarray(t, dtype=float).ravel()
    if z.size == 0:
        raise ValueError("no points to evaluate")
    if not (np.isfinite(z).all() and np.isfinite(t).all()):
        raise ValueError("spacetime coordinates must be finite")
    step = max(1, _CHUNK_ELEMENTS // ev.size**2)
    parts = []
    for lo in range(0, z.size, step):
        a = ev.matrices(z[lo : lo + step], t[lo : lo + step])
        sign, logdet = np.linalg.slogdet(a)
        if (sign == 0).any():
            a[sign == 0] = np.eye(ev.size)  # so one inverse serves the chunk; raised below
        ainv = np.linalg.inv(a)
        absdet = np.exp(logdet)
        # 1-norms: the largest column sums of moduli.
        cond = np.abs(a).sum(axis=1).max(axis=1) * np.abs(ainv).sum(axis=1).max(axis=1)
        bad = (sign == 0) | ~(cond <= 1.0 / NEAR_SINGULAR_RCOND)  # NaN is bad
        if bad.any():
            i = int(bad.argmax())
            point = SpacetimePoint.from_z(z[lo + i], t[lo + i])
            if sign[i] == 0:
                raise SingularMatrixError(point)
            raise NearSingularError(point, float(absdet[i]), float(1.0 / cond[i]))
        parts.append((_contract(ev, ainv, keys), absdet, cond))
    der, absdet, cond = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return {key: der[:, k] for k, key in enumerate(keys)}, absdet, cond


def log_det_derivative(
    ev: PotentialEvaluator, point: SpacetimePoint, idx: Sequence[str]
) -> complex:
    """Exact mixed partial of ln det A at a point.

    idx is a sequence over {"z", "zbar", "t"} of length 1..5; the result does
    not depend on its ordering.
    """
    key = tuple(sorted(_check_index(idx)))
    return complex(_log_det_partials(ev, [point.z], [point.t], (key,))[0][key][0])


_KEY_V = ("z", "zbar")
_KEY_W = ("z", "z")


def _v_w(der: dict) -> tuple[np.ndarray, np.ndarray]:
    """-4 F_z_zbar, whose real part is v, and w = 12 F_zz from partials of F."""
    return -4.0 * der[_KEY_V], 12.0 * der[_KEY_W]


def _fields(ev: PotentialEvaluator, z, t) -> tuple[np.ndarray, ...]:
    """(v, w, |det A|, condition number, Im of the v expression) at many points."""
    der, absdet, cond = _log_det_partials(ev, z, t, (_KEY_V, _KEY_W))
    g, w = _v_w(der)
    return g.real, w, absdet, cond, g.imag


def eval_fields(ev: PotentialEvaluator, point: SpacetimePoint) -> FieldSample:
    """Potential values v, w at a point via the trace calculus.

    v = Re(-4 F_z_zbar), w = 12 F_zz for F = ln det A; the imaginary part of
    the v expression is reported in the sample as a reality diagnostic.
    """
    return FieldSample(*(a.item(0) for a in _fields(ev, [point.z], [point.t])))


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
    a = build_matrix(ev, point)
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


def soliton_profile(
    ev: PotentialEvaluator, block: int, xi: complex, t: float = 0.0
) -> tuple[float, complex]:
    """Travel-wave profile (nu_k, omega_k) of one block at profile coordinate xi.

    Built from the 4x4 diagonal subblock of A evaluated at z = xi + c_k t; the
    block depends on (z, t) only through z - c_k t, so the result does not
    depend on t (up to rounding).  For N = 1 this reproduces v, w themselves.
    """
    bev = ev._block_evaluator(block)
    z = complex(xi) + velocity(bev.params.lambdas[0], bev.params.energy) * t
    v, w, *_ = _fields(bev, [z], [t])
    return float(v[0]), complex(w[0])
