"""Float64 partials of ln det A against a 30-digit reference.

The reference, oracles.mp_logdet_derivative, expands each partial into its
trace words and evaluates them in mpmath, sharing no code with the kernel's
plan or contraction.  Each tolerance is relative to |partial| and states the
worst error measured over the points of its test.
"""

import cmath
import itertools
import math

import numpy as np

import gzpot as gz
from gzpot.potential import KEY_V, KEY_W, log_det_partials
from gzpot.verify import _RESIDUAL_KEYS

from oracles import mp_logdet_derivative


def _points(n, seed):
    points = gz.sample_points(n, seed=seed)
    return np.array([p.z for p in points]), np.array([p.t for p in points])


def _worst_relative_error(ps, z, t, keys):
    der, _ = log_det_partials(gz.PotentialEvaluator(ps), z, t, keys)
    errors = []
    for i in range(z.size):
        for key in keys:
            ref = mp_logdet_derivative(ps, z[i], t[i], key)
            errors.append(abs(der[key][i] - ref) / abs(ref))
    return max(errors)


def test_residual_partials_match_30_digit_reference(n1_standard, n2_standard):
    # The eight partials of the residual plan; measured worst 1.5e-15.
    for ps in (n1_standard, n2_standard):
        assert _worst_relative_error(ps, *_points(3, seed=11), _RESIDUAL_KEYS) <= 1e-14


def test_v_w_partials_on_a_random_four_block_set_match_30_digit_reference():
    # Four blocks drawn with every lambda at least 0.15 from every other;
    # measured worst 1.2e-15.
    rng = np.random.default_rng(4)
    seeds, taken = [], []
    while len(seeds) < 4:
        rho = rng.uniform(1.25, 2.5) ** rng.choice((-1, 1))
        lam = rho * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        family = (lam, -lam, 1 / lam.conjugate(), -1 / lam.conjugate())
        if all(abs(a - b) >= 0.15 for a, b in itertools.product(family, taken)):
            seeds.append(gz.BlockSeed(lam, complex(*rng.uniform(-1.0, 1.0, 2))))
            taken.extend(family)
    ps = gz.expand_blocks(1.0, seeds)
    assert _worst_relative_error(ps, *_points(3, seed=12), (KEY_V, KEY_W)) <= 1e-14
