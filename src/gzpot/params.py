"""Parameter algebra for the rational Novikov-Veselov solitons at positive energy.

A Grinevich-Zakharov potential is specified by an energy E > 0 and N blocks of
four spectral parameters each.  Within the full arrays lambda_1..lambda_4N,
gamma_1..gamma_4N (1-based indexing here and in all report messages) the
entries are tied together by

    lambda_2j  = -lambda_{2j-1},            gamma_{2j-1} - gamma_2j = 1/lambda_{2j-1},
    lambda_{4j-1} = 1/conj(lambda_{4j-3}),  gamma_{4j-1} = conj(lambda_{4j-3})^2 * conj(gamma_{4j-3}),

so each block is generated by one free pair (lambda, gamma) with lambda != 0
and |lambda| != 1.  Velocities of the travel waves are identified with complex
numbers, c = c1 + i*c2.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Rejection margins for the open constraints lambda != 0, |lambda| != 1; closer
# approaches make the potential matrix ill-conditioned.
ZERO_LAMBDA_TOL = 1e-6
UNIT_MODULUS_TOL = 1e-6
# Pairwise lambda distinctness (scaled absolute difference).
DISTINCT_LAMBDA_TOL = 1e-9
# Tolerance for the equality constraints tying the arrays together.
CONSTRAINT_RTOL = 1e-9


class InvalidParameterSetError(ValueError):
    """Raised when a constraint-violating parameter set is rejected."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations) or "invalid parameter set")
        self.report = report


class VelocityInverseError(RuntimeError):
    """Raised when c lies within rounding of the forbidden region's boundary, so
    that the inversion finds no s > 2 (c inside the region is not an error)."""


@dataclass(frozen=True)
class ParameterSet:
    """Energy plus the full derived arrays of 4N spectral parameters.

    Instances are dumb containers: nothing is checked beyond array shape, so
    deliberately broken sets can be constructed for diagnostics.  Use
    :func:`validate` for the constraint report and :func:`expand_blocks` to
    build a checked set from block seeds.
    """

    energy: float
    lambdas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=complex).copy()
        gam = np.asarray(self.gammas, dtype=complex).copy()
        if lam.ndim != 1 or lam.shape != gam.shape or lam.size == 0 or lam.size % 4:
            raise ValueError("lambdas and gammas must be equal-length 1-d arrays of size 4N")
        lam.setflags(write=False)
        gam.setflags(write=False)
        object.__setattr__(self, "energy", float(self.energy))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "gammas", gam)

    @property
    def n_blocks(self) -> int:
        return self.lambdas.size // 4

    def block(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Parameter slice of block k (1-based), itself a valid one-block set."""
        if not 1 <= k <= self.n_blocks:
            raise ValueError(f"block index {k} out of range 1..{self.n_blocks}")
        sl = slice(4 * (k - 1), 4 * k)
        return self.lambdas[sl], self.gammas[sl]


@dataclass(frozen=True)
class BlockSeed:
    """Free parameters (lambda_{4k-3}, gamma_{4k-3}) generating one block.

    Validity (lam != 0, |lam| != 1) is checked by expand_blocks/validate,
    not at construction.
    """

    lam: complex
    gamma: complex


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _modulus(x: complex) -> float:
    """|x|, inf beyond the float range, where Python's abs raises OverflowError."""
    try:
        return abs(x)
    except OverflowError:
        return math.inf


def _close(lhs: complex, rhs: complex) -> bool:
    return _modulus(lhs - rhs) <= CONSTRAINT_RTOL * (1.0 + _modulus(rhs))


def expand_blocks(energy: float, seeds: Sequence[BlockSeed], check: bool = True) -> ParameterSet:
    """Derive the full 4N parameter arrays from N block seeds.

    Per block with seed (lam, gam) the four entries are
    lam, -lam, 1/conj(lam), -1/conj(lam) and
    gam, gam - 1/lam, conj(lam)^2*conj(gam), conj(lam)^2*conj(gam) - conj(lam).

    With check=True (the default) the result is validated and a violating set
    (unit-modulus or zero seed, lambda collision across blocks, ...) raises
    InvalidParameterSetError.
    """
    if energy <= 0:
        raise ValueError("energy must be positive")
    if not seeds:
        raise ValueError("at least one block seed is required")
    lambdas = np.empty(4 * len(seeds), dtype=complex)
    gammas = np.empty_like(lambdas)
    for k, seed in enumerate(seeds):
        lam = complex(seed.lam)
        gam = complex(seed.gamma)
        if lam == 0:
            raise InvalidParameterSetError(
                ValidationReport(False, (f"lambda[{4 * k + 1}] is zero within tolerance",))
            )
        lam_bar = lam.conjugate()  # products, not **: an overflow gives inf
        mirror = 1.0 / lam_bar
        lambdas[4 * k : 4 * k + 4] = (lam, -lam, mirror, -mirror)
        gam_mirror = lam_bar * lam_bar * gam.conjugate()
        gammas[4 * k : 4 * k + 4] = (gam, gam - 1.0 / lam, gam_mirror, gam_mirror - lam_bar)
    ps = ParameterSet(energy, lambdas, gammas)
    if check:
        report = validate(ps)
        if not report.ok:
            raise InvalidParameterSetError(report)
    return ps


def validate(p: ParameterSet) -> ValidationReport:
    """Check every constraint of the parameter family; report violations by name.

    Indices in the messages are 1-based, matching the block structure
    lambda_1..lambda_4N.
    """
    v: list[str] = []
    lam = p.lambdas
    gam = p.gammas
    n4 = lam.size

    if not 0.0 < p.energy < math.inf:
        v.append("energy E must be positive and finite")
    if not (np.all(np.isfinite(lam.view(float))) and np.all(np.isfinite(gam.view(float)))):
        v.append("parameters must be finite")
        return ValidationReport(False, tuple(v))

    lams, gams = lam.tolist(), gam.tolist()  # Python scalars: cheaper than numpy's
    mods = [_modulus(x) for x in lams]
    for j, m in enumerate(mods):
        if m < ZERO_LAMBDA_TOL:
            v.append(f"lambda[{j + 1}] is zero within tolerance")
        if abs(m - 1.0) < UNIT_MODULUS_TOL:
            v.append(f"|lambda[{j + 1}]| = 1 within tolerance")
    tol = DISTINCT_LAMBDA_TOL * np.maximum(1.0, np.abs(lam))
    close = np.nonzero(np.abs(lam[:, None] - lam) <= tol[:, None])  # row-major order
    for l, m in zip(*(i.tolist() for i in close)):
        if l < m:
            v.append(f"lambda[{l + 1}] and lambda[{m + 1}] coincide")

    # Pair constraints, j = 1..2N (1-based pairs (2j-1, 2j)).
    for a, b in zip(range(0, n4, 2), range(1, n4, 2)):
        if not _close(lams[b], -lams[a]):
            v.append(f"lambda[{b + 1}] = -lambda[{a + 1}] violated")
        if mods[a] >= ZERO_LAMBDA_TOL and not _close(gams[a] - gams[b], 1.0 / lams[a]):
            v.append(f"gamma[{a + 1}] - gamma[{b + 1}] = 1/lambda[{a + 1}] violated")

    # Conjugation constraints, j = 1..N (entries 4j-3 and 4j-1).
    for a, b in zip(range(0, n4, 4), range(2, n4, 4)):
        if mods[a] >= ZERO_LAMBDA_TOL:
            lb = lams[a].conjugate()  # lb * lb: Python's complex ** raises OverflowError
            if not _close(lams[b], 1.0 / lb):
                v.append(f"lambda[{b + 1}] = 1/conj(lambda[{a + 1}]) violated")
            if not _close(gams[b], lb * lb * gams[a].conjugate()):
                v.append(
                    f"gamma[{b + 1}] = conj(lambda[{a + 1}])^2 conj(gamma[{a + 1}]) violated"
                )

    return ValidationReport(not v, tuple(v))


def velocity(lam: complex, energy: float) -> complex:
    """Travel-wave velocity of the one-block family containing lam.

    c = 6E (conj(lam)^2 + 1/lam^2 + lam^2/conj(lam)^2); the same value is
    obtained from any of the four members lam, -lam, +/-1/conj(lam).  Raises
    ValueError for lam = 0 and wherever c is not finite.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("velocity is undefined for lambda = 0")
    # Plain products of quotients of lam: no division by an underflowed square.
    lam_bar, inv, turn = lam.conjugate(), 1.0 / lam, lam / lam.conjugate()
    c = 6.0 * energy * (lam_bar * lam_bar + inv * inv + turn * turn)
    if not cmath.isfinite(c):
        raise ValueError(f"velocity is not finite for lambda = {lam}")
    return c


def block_velocities(p: ParameterSet) -> np.ndarray:
    """Velocity of each block, computed from its first member."""
    return np.array(
        [velocity(p.lambdas[4 * k], p.energy) for k in range(p.n_blocks)], dtype=complex
    )


def velocity_spread(p: ParameterSet) -> float:
    """Largest relative within-block velocity mismatch.

    Zero up to rounding for any constraint-satisfying set; a large value
    signals broken block structure.
    """
    worst = 0.0
    for k in range(p.n_blocks):
        cs = [velocity(p.lambdas[4 * k + j], p.energy) for j in range(4)]
        scale = 1.0 + abs(cs[0])
        worst = max(worst, max(abs(c - cs[0]) for c in cs[1:]) / scale)
    return worst


def _cusp_frame(u: complex) -> tuple[float, float]:
    """(cos phi, sin phi) of the angle phi of u from its nearest cusp direction.

    The cusp directions are taken as the float multiples of 2pi/3, so
    cmath.exp(2j * pi / 3) has phi = 0 and the bound 18E, although its exact
    direction lies 2.2e-16 off the cusp.
    """
    third = 2.0 * math.pi / 3.0
    phi = math.atan2(u.imag, u.real)  # an underflowing angle is 0; cmath.phase raises
    phi -= third * round(phi / third)
    return math.cos(phi), math.sin(phi)


def _deltoid_implicit(r: float, cs: float, sn: float) -> float:
    """Implicit quartic of the forbidden-region boundary at u = c/E = r e^{i phi}.

    The boundary is the three-cusped curve p -> 6(2 e^{-i p} + e^{2 i p})
    (cusps at radius 18 in the directions 0, +-2pi/3, waists at radius 6 in
    between); it is the |lambda| -> 1 limit of the attainable velocities.
    Negative inside, zero on the curve, positive outside.  phi is measured
    from the nearest cusp (_cusp_frame) and the quartic written in u - 18:
    along a cusp's axis it vanishes to third order, which rounding hides in
    the plain form in x, y.
    """
    d, y = r * cs - 18.0, r * sn
    return (d * d + y * y) ** 2 + 24.0 * d * (d * d + 9.0 * y * y) + 3888.0 * y * y


def _checked_velocity(c: complex, energy: float) -> complex:
    """complex(c), once E is positive and finite and c finite; c/E may still overflow."""
    if not 0.0 < energy < math.inf:
        raise ValueError(f"energy E must be positive and finite, got {energy!r}")
    c = complex(c)
    if not cmath.isfinite(c):
        raise ValueError(f"velocity c must be finite, got c/E = {c / energy!r}")
    return c


def forbidden_region_contains(c: complex, energy: float) -> bool:
    """Whether velocity c admits no one-block travel wave (boundary included).

    True exactly when u = c/E lies inside or on the three-cusped boundary
    curve; every velocity attained by a valid lambda lies strictly outside,
    and so does a c whose c/E overflows.
    """
    u = _checked_velocity(c, energy) / energy
    r = abs(u)
    return r <= 18.0 and _deltoid_implicit(r, *_cusp_frame(u)) <= 0.0  # cusps at |u| = 18


def forbidden_region_bound(c: complex, energy: float) -> float:
    """Radial extent of the forbidden velocity region in the direction of c.

    Velocities c' with arg(c') = arg(c) are forbidden exactly for
    |c'| <= bound; the extent runs from 6E (waist directions +-pi/3, pi) to
    18E (cusp directions 0, +-2pi/3, where it is exact).  The region is
    star-shaped, so the bound bisects the radius on the sign of the same
    quartic that forbidden_region_contains evaluates, and returns the smallest
    radius found outside.  Only the direction of c matters, so a c/E that
    overflows still has its bound.
    """
    cs, sn = _cusp_frame(_checked_velocity(c, energy))
    lo, hi = 6.0, 18.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _deltoid_implicit(mid, cs, sn) <= 0.0:
            lo = mid
        else:
            hi = mid
    bound = energy * hi
    if not math.isfinite(bound):
        raise ValueError(f"the forbidden-region bound overflows for E={energy!r}")
    return bound


def solve_velocity_inverse(c: complex, energy: float) -> np.ndarray | None:
    """Recover the four-element lambda set whose travel-wave velocity is c.

    Returns None when c lies in the forbidden region (no set exists) and the
    canonically ordered set otherwise.  With lam = rho e^{i theta},
    q = e^{2 i theta} and s = rho^2 + 1/rho^2 > 2, c/(6E) = u0 = s conj(q) + q^2,
    so s = u0 q - q^3 is real and r = q^2 is the one unit-modulus root of
    r^3 - u0 r^2 + conj(u0) r - 1 (the others are a pair r, 1/conj(r)).  u0, s
    are in units of 2^k, k even and > 0 only if |c/E| > ~2^512, where the unit
    root, conj(u0)/u0 up to O(1/|u0|), is the scaled cubic's too.  Raises
    VelocityInverseError if s <= 2 after rounding, ValueError for non-finite
    input or an overflowing lambda.
    """
    if forbidden_region_contains(c, energy):
        return None
    re, im = complex(c).real, complex(c).imag
    k = max(0, math.frexp(max(abs(re), abs(im)))[1] - math.frexp(energy)[1] - 512) & -2
    one = 2.0**-k  # 1 in units of 2^k; 0 beyond the float range, where it is negligible
    u0 = complex(math.ldexp(re, -k), math.ldexp(im, -k)) / (6.0 * energy)
    r = min(np.roots([1.0, -u0, u0.conjugate(), -1.0]), key=lambda x: abs(abs(x) - 1.0))
    q = cmath.sqrt(r / abs(r))
    s = (q * (u0 - q * q * one)).real
    q, s = (q, s) if s > 0.0 else (-q, -s)
    if not s > 2.0 * one:
        raise VelocityInverseError(
            f"velocity c={c!r} lies within rounding of the forbidden boundary for E={energy!r}"
        )
    # 0.5 s + ... rather than 0.5 (s + ...): the sum overflows once s nears 9e307.
    rho = math.sqrt(0.5 * s + 0.5 * math.sqrt(s - 2.0 * one) * math.sqrt(s + 2.0 * one))
    lam = rho * 2.0 ** (k // 2) * cmath.sqrt(q)
    if not cmath.isfinite(lam):
        raise ValueError(f"velocity c={c!r} is too large for E={energy!r}: lambda overflows")
    mirror = 1.0 / lam.conjugate()
    return canonical_lambda_order([lam, -lam, mirror, -mirror])


def canonical_lambda_order(lams: Sequence[complex]) -> np.ndarray:
    """Deterministic set ordering: moduli > 1 first, then by principal argument.

    Signed zeros are flushed before taking the argument so values on the
    negative real axis sort by +pi regardless of how they were produced.
    """

    def key(l: complex):
        return abs(l) <= 1.0, cmath.phase(complex(l.real + 0.0, l.imag + 0.0))

    return np.array(sorted((complex(l) for l in lams), key=key), dtype=complex)


@np.errstate(over="ignore", invalid="ignore")  # E^(3/2) overflows: the kernel rejects A
def diagonal_coefficients(p: ParameterSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients dz, dzbar, dt of z, zbar and t in the potential matrix diagonal.

    A_ll = dz_l z + dzbar_l zbar + dt_l t - gamma_l with dz = -i sqrt(E)/(2 lambda^2),
    dzbar = i sqrt(E)/2 and dt = -3 i E^(3/2) (lambda^2 - 1/lambda^4); they are
    also the diagonals of the direction matrices dA/dz, dA/dzbar and dA/dt.
    """
    sqrt_e = math.sqrt(p.energy)
    lam2 = p.lambdas * p.lambdas
    inv_lam2 = 1.0 / lam2
    return (
        -0.5j * sqrt_e * inv_lam2,
        np.full(lam2.size, 0.5j * sqrt_e),
        -3j * p.energy * sqrt_e * (lam2 - inv_lam2**2),
    )


def translate_gammas(p: ParameterSet, zeta: complex, tau: float) -> ParameterSet:
    """Parameter shift realizing the translation (z, t) -> (z + zeta, t + tau).

    The returned set has gammas gamma_j - delta_j with

        delta_j = (i sqrt(E)/2)(conj(zeta) - zeta/lambda_j^2)
                  - 3 i E^(3/2) tau (lambda_j^2 - 1/lambda_j^4),

    the shift dz zeta + dzbar conj(zeta) + dt tau of the potential matrix
    diagonal (diagonal_coefficients), so the shifted fields satisfy
    v~(z, t) = v(z + zeta, t + tau) and likewise for w.  The block constraints
    are preserved exactly: delta is even in lambda and
    delta(1/conj(lambda)) = conj(lambda)^2 conj(delta(lambda)).
    """
    dz, dzbar, dt = diagonal_coefficients(p)
    delta = dz * zeta + dzbar * np.conj(zeta) + dt * tau
    return ParameterSet(p.energy, p.lambdas, p.gammas - delta)


# -- parameter-set JSON schema -------------------------------------------------
#
# {"E": number > 0, "blocks": [{"lambda": [re, im], "gamma": [re, im]}, ...]}
#
# Only block seeds are ever read from files; the full 4N arrays are derived.


def _schema_float(x: int | float, where: str) -> float:
    try:
        return float(x)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"{where}: number too large for a float") from None


def _schema_complex(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise ValueError(f"{where}: expected [re, im] pair of numbers")
    return complex(_schema_float(obj[0], where), _schema_float(obj[1], where))


def parameter_set_from_dict(obj) -> ParameterSet:
    """Build an (unvalidated) ParameterSet from the JSON schema above.

    Schema violations raise ValueError naming the offending key; run
    :func:`validate` afterwards for the constraint report.
    """
    if not isinstance(obj, dict):
        raise ValueError("top level: expected an object")
    try:
        energy = obj["E"]
    except KeyError:
        raise ValueError('missing key "E"') from None
    if not isinstance(energy, (int, float)) or isinstance(energy, bool) or not energy > 0:
        raise ValueError('"E": expected a positive number')
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise ValueError('"blocks": expected a non-empty list')
    seeds = []
    for i, blk in enumerate(blocks):
        if not isinstance(blk, dict) or "lambda" not in blk or "gamma" not in blk:
            raise ValueError(f'blocks[{i}]: expected an object with "lambda" and "gamma"')
        seeds.append(
            BlockSeed(
                _schema_complex(blk["lambda"], f'blocks[{i}].lambda'),
                _schema_complex(blk["gamma"], f'blocks[{i}].gamma'),
            )
        )
    return expand_blocks(_schema_float(energy, '"E"'), seeds, check=False)


def load_parameter_set(path: str | Path) -> ParameterSet:
    """Read a parameter-set JSON file (unvalidated; see parameter_set_from_dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parameter_set_from_dict(json.load(fh))
