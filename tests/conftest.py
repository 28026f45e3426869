import cmath
import math

import numpy as np
import pytest

import gzpot as gz

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="session")
def n1_standard():
    return gz.expand_blocks(1.0, [gz.BlockSeed(SQRT2, 1.0)])


@pytest.fixture(scope="session")
def n1_alt():
    return gz.expand_blocks(1.0, [gz.BlockSeed(2j, 0.3 + 0.2j)])


@pytest.fixture(scope="session")
def n2_standard():
    return gz.expand_blocks(
        1.0, [gz.BlockSeed(SQRT2, 1.0), gz.BlockSeed(2j, 0.5 + 0.5j)]
    )


@pytest.fixture(scope="session")
def n3_standard():
    return gz.expand_blocks(
        1.0,
        [
            gz.BlockSeed(SQRT2, 1.0),
            gz.BlockSeed(2j, 0.5 + 0.5j),
            gz.BlockSeed(1.5 * cmath.exp(1j * math.pi / 5), -0.3 + 0.8j),
        ],
    )


@pytest.fixture(scope="session")
def e25_single():
    return gz.expand_blocks(2.5, [gz.BlockSeed(0.6 * cmath.exp(0.7j), 0.9 - 0.4j)])


@pytest.fixture(scope="session")
def n4_standard():
    return gz.expand_blocks(
        1.0,
        [
            gz.BlockSeed(SQRT2, 1.0),
            gz.BlockSeed(2j, 0.5 + 0.5j),
            gz.BlockSeed(1.5 * cmath.exp(1j * math.pi / 5), -0.3 + 0.8j),
            gz.BlockSeed(0.6 * cmath.exp(2.1j), 0.4 - 0.7j),
        ],
    )


@pytest.fixture(scope="session")
def near_singular_set():
    # Gammas tuned so that A(0, 0) is an eigen-shift of the constant
    # off-diagonal part: the potential matrix is singular up to rounding there.
    base = gz.expand_blocks(1.0, [gz.BlockSeed(SQRT2, 1.0)])
    ev0 = gz.PotentialEvaluator(base)
    (a0,) = ev0.matrices(np.zeros(1, dtype=complex), np.zeros(1))
    off = a0 + np.diag(base.gammas)
    mu = np.linalg.eigvals(off)[0]
    return gz.ParameterSet(1.0, base.lambdas, np.full(4, mu))
