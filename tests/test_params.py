import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gzpot as gz
from gzpot.params import CONSTRAINT_RTOL, DISTINCT_LAMBDA_TOL

SQRT2 = math.sqrt(2.0)


def random_valid_lambda(rng):
    rho = rng.uniform(1.1, 3.0) if rng.uniform() < 0.5 else rng.uniform(0.15, 0.9)
    return rho * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def lambda_family(lam):
    mirror = 1.0 / lam.conjugate()
    return [lam, -lam, mirror, -mirror]


# -- block expansion -----------------------------------------------------------


def test_expand_blocks_standard_seed(n1_standard):
    assert np.allclose(n1_standard.lambdas, [SQRT2, -SQRT2, 1 / SQRT2, -1 / SQRT2])
    assert np.allclose(n1_standard.gammas, [1.0, 1.0 - 1 / SQRT2, 2.0, 2.0 - SQRT2])


def test_expand_blocks_zero_gamma_seed():
    ps = gz.expand_blocks(1.0, [gz.BlockSeed(SQRT2, 0.0)])
    assert np.allclose(ps.gammas, [0.0, -1 / SQRT2, 0.0, -SQRT2])


def test_expand_blocks_output_validates(n3_standard):
    assert gz.validate(n3_standard).ok
    rng = np.random.default_rng(12)
    for _ in range(50):
        seeds = [
            gz.BlockSeed(random_valid_lambda(rng), complex(rng.normal(), rng.normal()))
            for _ in range(rng.integers(1, 4))
        ]
        try:
            ps = gz.expand_blocks(1.0 + rng.uniform(0, 3), seeds)
        except gz.InvalidParameterSetError:
            continue  # random seeds may collide across blocks; that is the point
        assert gz.validate(ps).ok


def test_expand_blocks_rejects_mirror_collision():
    with pytest.raises(gz.InvalidParameterSetError) as err:
        gz.expand_blocks(1.0, [gz.BlockSeed(SQRT2, 1.0), gz.BlockSeed(1 / SQRT2, 0.0)])
    assert any("coincide" in v for v in err.value.report.violations)


def test_expand_blocks_rejects_unit_modulus_and_zero():
    with pytest.raises(gz.InvalidParameterSetError):
        gz.expand_blocks(1.0, [gz.BlockSeed(cmath.exp(0.3j), 1.0)])
    with pytest.raises(gz.InvalidParameterSetError):
        gz.expand_blocks(1.0, [gz.BlockSeed(0.0, 1.0)])
    with pytest.raises(ValueError):
        gz.expand_blocks(-1.0, [gz.BlockSeed(SQRT2, 1.0)])


def test_expand_blocks_reports_overflowing_seed():
    # conj(lambda)^2 conj(gamma) overflows; the set is refused, nothing raises.
    with pytest.raises(gz.InvalidParameterSetError) as err:
        gz.expand_blocks(1.0, [gz.BlockSeed(1e200, 1.0)])
    assert err.value.report.violations == ("parameters must be finite",)
    ps = gz.expand_blocks(1.0, [gz.BlockSeed(math.inf, 1.0)], check=False)
    assert not gz.validate(ps).ok


# -- validation reporting ------------------------------------------------------


def test_validate_rejects_nonfinite_energy(n1_standard):
    for e in (math.inf, math.nan):
        report = gz.validate(gz.ParameterSet(e, n1_standard.lambdas, n1_standard.gammas))
        assert report.violations == ("energy E must be positive and finite",)


def test_validate_names_broken_gamma_pair(n1_standard):
    gam = n1_standard.gammas.copy()
    gam[1] += 1e-3
    report = gz.validate(gz.ParameterSet(1.0, n1_standard.lambdas, gam))
    assert not report.ok
    assert "gamma[1] - gamma[2] = 1/lambda[1] violated" in report.violations


def test_validate_names_unit_modulus():
    lam = cmath.exp(0.4j)
    ps = gz.expand_blocks(1.0, [gz.BlockSeed(lam, 1.0)], check=False)
    report = gz.validate(ps)
    assert not report.ok
    assert any("|lambda[" in v and "= 1 within tolerance" in v for v in report.violations)


def test_validate_names_lambda_pair_break(n1_standard):
    lam = n1_standard.lambdas.copy()
    lam[1] = lam[1] + 0.01
    report = gz.validate(gz.ParameterSet(1.0, lam, n1_standard.gammas))
    assert "lambda[2] = -lambda[1] violated" in report.violations


def test_validate_names_conjugation_break(n1_standard):
    gam = n1_standard.gammas.copy()
    gam[2] += 0.01
    report = gz.validate(gz.ParameterSet(1.0, n1_standard.lambdas, gam))
    assert any(v.startswith("gamma[3] = conj(lambda[1])^2") for v in report.violations)


def test_validate_overflowing_conjugation_product_is_quiet():
    # conj(lambda)^2 conj(gamma) overflows at |lambda| = 1e160; as a product
    # it reads inf without the warning of a scalar power.
    lam = [1e160, -1e160, 1e-160, -1e-160]
    report = gz.validate(gz.ParameterSet(1.0, lam, np.ones(4)))
    assert report.violations == (
        "lambda[3] is zero within tolerance",
        "lambda[4] is zero within tolerance",
        "lambda[3] and lambda[4] coincide",
    )


def test_validate_modulus_beyond_the_float_range(n1_standard):
    # A finite gamma whose modulus overflows is a violation, not an OverflowError.
    gam = n1_standard.gammas.copy()
    gam[2] = 1.5e308 + 1.5e308j
    report = gz.validate(gz.ParameterSet(1.0, n1_standard.lambdas, gam))
    assert report.violations == (
        "gamma[3] - gamma[4] = 1/lambda[3] violated",
        "gamma[3] = conj(lambda[1])^2 conj(gamma[1]) violated",
    )


def test_validate_reports_coincidences_in_pair_order():
    # Several coincidences per set, some within and some just beyond the
    # tolerance, which scales with the first lambda of a pair.
    rng = np.random.default_rng(12)
    pool = np.array([1.5, -1.5, 2j, 1e3 + 1e3j, 0.3 - 0.2j])
    for _ in range(20):
        lam = rng.choice(pool, 24) * (1.0 + rng.choice([0.0, 5e-10, 2e-9], 24))
        expected = [
            f"lambda[{l + 1}] and lambda[{m + 1}] coincide"
            for l in range(lam.size)
            for m in range(l + 1, lam.size)
            if abs(lam[l] - lam[m]) <= DISTINCT_LAMBDA_TOL * max(1.0, abs(lam[l]))
        ]
        report = gz.validate(gz.ParameterSet(1.0, lam, np.zeros(lam.size)))
        assert len(expected) >= 3
        assert [v for v in report.violations if v.endswith("coincide")] == expected


def test_parameter_set_shape_checks():
    with pytest.raises(ValueError):
        gz.ParameterSet(1.0, np.ones(3, dtype=complex), np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        gz.ParameterSet(1.0, np.ones(4, dtype=complex), np.ones(8, dtype=complex))


# -- velocity algebra ----------------------------------------------------------


def test_velocity_reference_values():
    assert abs(gz.velocity(SQRT2, 1.0) - 21.0) < 1e-12
    assert abs(gz.velocity(2j, 1.0) - (-19.5)) < 1e-12


def test_velocity_zero_rejected():
    with pytest.raises(ValueError):
        gz.velocity(0.0, 1.0)


@pytest.mark.parametrize("lam", [1e200, 1e-200, 1e-160])
def test_velocity_nonfinite_raises_value_error(lam):
    # Overflow, an underflowed lambda^2 and a silent inf+nanj before.
    with pytest.raises(ValueError, match="lambda"):
        gz.velocity(lam, 1.0)


def test_velocity_family_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = random_valid_lambda(rng)
        e = rng.uniform(0.2, 4.0)
        c = gz.velocity(lam, e)
        scale = 1.0 + abs(c)
        for other in lambda_family(lam)[1:]:
            assert abs(gz.velocity(other, e) - c) / scale < 1e-12


def test_block_velocities_and_spread(n2_standard):
    cs = gz.block_velocities(n2_standard)
    assert np.allclose(cs, [21.0, -19.5])
    assert gz.velocity_spread(n2_standard) < 1e-14


# -- forbidden region ----------------------------------------------------------


def test_forbidden_region_reference_points():
    assert gz.forbidden_region_contains(18.0, 1.0)  # cusp, boundary included
    assert not gz.forbidden_region_contains(21.0, 1.0)
    assert gz.forbidden_region_contains(6j, 1.0)
    assert gz.forbidden_region_contains(0.0, 1.0)


def test_forbidden_region_scaling():
    rng = np.random.default_rng(8)
    for _ in range(300):
        c = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        e = rng.uniform(0.1, 5.0)
        assert gz.forbidden_region_contains(c, e) == gz.forbidden_region_contains(
            c / e, 1.0
        )


def test_forbidden_region_bound_extents():
    assert abs(gz.forbidden_region_bound(1.0, 1.0) - 18.0) < 1e-9
    assert abs(gz.forbidden_region_bound(5.0, 2.0) - 36.0) < 1e-9
    assert abs(gz.forbidden_region_bound(-1.0, 1.0) - 6.0) < 1e-9
    assert abs(gz.forbidden_region_bound(cmath.exp(2j * math.pi / 3), 1.0) - 18.0) < 1e-9
    # bound and membership agree along rays
    rng = np.random.default_rng(9)
    for _ in range(200):
        c = complex(rng.uniform(-25, 25), rng.uniform(-25, 25))
        if abs(c) < 1e-6:
            continue
        b = gz.forbidden_region_bound(c, 1.0)
        inside = gz.forbidden_region_contains(c, 1.0)
        if abs(abs(c) - b) > 1e-6:
            assert inside == (abs(c) < b)


@pytest.mark.parametrize(
    "c, e",
    [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, 0.0), (1.0, math.inf)],
)
def test_forbidden_region_bound_checks_input_as_contains_does(c, e):
    with pytest.raises(ValueError, match="must be (positive and )?finite") as bound:
        gz.forbidden_region_bound(c, e)
    with pytest.raises(ValueError) as contains:
        gz.forbidden_region_contains(c, e)
    assert str(bound.value) == str(contains.value)


def test_forbidden_region_bound_needs_only_the_direction():
    # c/E overflows to inf, but the bound along the real axis is 18 E.
    assert gz.forbidden_region_bound(1e308, 1e-10) == pytest.approx(18e-10)


def test_overflowing_c_over_e_lies_outside():
    # c is finite, c/E overflows: |c/E| exceeds every radius of the region.
    assert not gz.forbidden_region_contains(1e308, 1e-10)
    assert not gz.forbidden_region_contains(1e308 + 1e308j, 1e-10)


THIRD_TURN = 2.0 * math.pi / 3.0  # between neighbouring cusp directions


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    theta=st.one_of(
        st.floats(-math.pi, math.pi),
        # within 1e-300 .. 1e-9 on either side of a cusp direction 0, +-2pi/3
        st.builds(
            lambda k, side, exponent: k * THIRD_TURN + side * 10.0**exponent,
            st.sampled_from((-1, 0, 1)),
            st.sampled_from((-1.0, 1.0)),
            st.floats(-300.0, -9.0),
        ),
    ),
    e=st.floats(0.2, 4.0),
)
def test_forbidden_region_bound_is_where_membership_ends(theta, e):
    # The bound and the membership test read one curve, so the ray through d
    # leaves the region at the bound, also at the cusp tips.
    d = complex(math.cos(theta), math.sin(theta))
    b = gz.forbidden_region_bound(d, e)
    assert gz.forbidden_region_contains(b * d * (1.0 - 1e-11), e)
    assert not gz.forbidden_region_contains(b * d * (1.0 + 1e-11), e)


def test_attained_velocities_never_forbidden():
    rng = np.random.default_rng(10)
    for _ in range(500):
        lam = random_valid_lambda(rng)
        e = rng.uniform(0.2, 4.0)
        assert not gz.forbidden_region_contains(gz.velocity(lam, e), e)


# -- velocity inversion --------------------------------------------------------


def test_solve_velocity_inverse_reference():
    got = gz.solve_velocity_inverse(21.0, 1.0)
    assert got is not None
    assert min(abs(l - SQRT2) for l in got) < 1e-10


def test_solve_velocity_inverse_forbidden_is_none():
    assert gz.solve_velocity_inverse(18.0, 1.0) is None
    assert gz.solve_velocity_inverse(0.0, 1.0) is None


def test_solve_velocity_inverse_energy_scaling():
    got = gz.solve_velocity_inverse(42.0, 2.0)
    assert got is not None
    assert min(abs(l - SQRT2) for l in got) < 1e-10


def test_solve_velocity_inverse_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        lam = random_valid_lambda(rng)
        e = rng.uniform(0.3, 3.0)
        got = gz.solve_velocity_inverse(gz.velocity(lam, e), e)
        assert got is not None
        expect = gz.canonical_lambda_order(lambda_family(lam))
        assert np.max(np.abs(got - expect)) < 1e-9


@pytest.mark.parametrize("c, e", [(1e160, 1.0), (1e180, 1.0), (1.0, 1e-300)])
def test_solve_velocity_inverse_huge_velocity_roundtrip(c, e):
    # |lambda| is about sqrt(|c| / 6E), e.g. 4e79 at c = 1e160, E = 1: far
    # inside the float range, although (s - 2)(s + 2) is not.
    for phase in (1.0, 1j, cmath.exp(0.7j)):
        got = gz.solve_velocity_inverse(c * phase, e)
        assert got is not None and np.isfinite(got).all()
        assert abs(abs(got[0]) - math.sqrt(c / (6.0 * e))) <= 1e-12 * abs(got[0])
        for lam in got:
            assert abs(gz.velocity(lam, e) - c * phase) <= 1e-14 * c


def mp_velocity(lam, e):
    """velocity(lam, e) at 40 digits, where the float64 one overflows."""
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam)
        bar = mpmath.conj(lam)
        return 6 * mpmath.mpf(e) * (bar**2 + 1 / lam**2 + lam**2 / bar**2)


@pytest.mark.parametrize(
    "c, e",
    [pytest.param(1e308, 1e-10, id="c_over_E_overflows"), pytest.param(1e9, 1e-300, id="s_near_float_limit")],
)
def test_solve_velocity_inverse_at_the_float_limit(c, e):
    # Yet lambda, about sqrt(|c| / 6E), lies well inside the float range.
    with mpmath.workdps(40):
        modulus = float(mpmath.sqrt(mpmath.mpf(c) / (6 * mpmath.mpf(e))))
    for phase in (1.0, 1j, cmath.exp(0.7j)):
        got = gz.solve_velocity_inverse(c * phase, e)
        assert got is not None and np.isfinite(got).all()
        assert abs(abs(got[0]) - modulus) <= 1e-15 * modulus
        for lam in got:
            assert abs(mp_velocity(lam, e) - c * phase) <= 1e-15 * c


def set_distance(got, lam):
    """Largest distance from a member of lam's family to the nearest entry of got."""
    return max(min(abs(m - g) for g in got) for m in lambda_family(lam))


def test_solve_velocity_inverse_near_unit_modulus_roundtrip():
    # |lambda| = 1 +- 1e-5 passes validate; s - 2 = (rho - 1/rho)^2 is 4e-10.
    for rho in (1.0 + 1e-5, 1.0 / (1.0 + 1e-5)):
        for k in range(24):
            lam = rho * cmath.exp(1j * (math.pi * k / 12 + 0.1))
            got = gz.solve_velocity_inverse(gz.velocity(lam, 1.0), 1.0)
            assert got is not None
            expect = gz.canonical_lambda_order(lambda_family(lam))
            assert np.max(np.abs(got - expect)) <= 1e-9


def test_seeds_near_cusp_directions_are_attainable():
    # Along a cusp's axis (arg lambda = k pi/3) the velocity lies just beyond
    # the cusp tip, where the forbidden region is thinnest.
    for delta in (1e-5, 1e-3, 2e-3):
        for rho in (1.0 + delta, 1.0 / (1.0 + delta)):
            for k in range(6):
                lam = rho * cmath.exp(1j * math.pi * k / 3)
                c = gz.velocity(lam, 1.0)
                assert not gz.forbidden_region_contains(c, 1.0)
                got = gz.solve_velocity_inverse(c, 1.0)
                assert abs(gz.velocity(got[0], 1.0) - c) <= 1e-12 * abs(c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rho=st.floats(1.0 + 2e-6, 10.0),
    reciprocal=st.booleans(),
    theta=st.floats(0.0, 2.0 * math.pi),
    e=st.floats(0.2, 4.0),
)
def test_solve_velocity_inverse_roundtrip_property(rho, reciprocal, theta, e):
    # c -> lambda -> c.  Near the cusp directions theta = k pi/3 the velocity
    # map is degenerate at |lambda| -> 1, so there c fixes lambda only to about
    # 1e-5; away from them the lambda round trip is checked above.
    lam = (1.0 / rho if reciprocal else rho) * cmath.exp(1j * theta)
    c = gz.velocity(lam, e)
    got = gz.solve_velocity_inverse(c, e)
    assert got is not None
    assert abs(got[0]) > 1.0 and set_distance(got, got[0]) <= 1e-15 * abs(got[0])
    assert abs(gz.velocity(got[0], e) - c) <= 1e-12 * abs(c)
    if abs(rho - 1.0) > 0.05:
        assert set_distance(got, lam) <= 1e-9 * rho


def test_solve_velocity_inverse_on_the_boundary_never_misleads():
    # Within rounding of the boundary the answer is "forbidden", an error,
    # or a set that reproduces c; never a wrong set.
    for phi in np.linspace(0.01, 2.0, 100):
        for scale in (1.0, 1.0 + 2.2e-16, 1.0 + 4.4e-16, 1.0 + 1e-15):
            c = 6.0 * (2.0 * cmath.exp(-1j * phi) + cmath.exp(2j * phi)) * scale
            try:
                got = gz.solve_velocity_inverse(c, 1.0)
            except gz.VelocityInverseError:
                continue
            if got is not None:
                assert abs(gz.velocity(got[0], 1.0) - c) <= 1e-12 * abs(c)


def test_canonical_order_moduli_then_argument():
    lams = lambda_family(1.5 * cmath.exp(2.5j))
    ordered = gz.canonical_lambda_order(lams)
    assert abs(ordered[0]) > 1 and abs(ordered[1]) > 1
    assert abs(ordered[2]) < 1 and abs(ordered[3]) < 1
    assert cmath.phase(ordered[0]) <= cmath.phase(ordered[1])


# -- gamma translation ---------------------------------------------------------


def test_translate_gammas_zero_shift_is_identity(n2_standard):
    shifted = gz.translate_gammas(n2_standard, 0.0, 0.0)
    assert np.array_equal(shifted.gammas, n2_standard.gammas)


def test_translate_gammas_inverse_shift(n2_standard):
    zeta, tau = 0.7 - 1.2j, 0.9
    back = gz.translate_gammas(gz.translate_gammas(n2_standard, zeta, tau), -zeta, -tau)
    assert np.max(np.abs(back.gammas - n2_standard.gammas)) < 1e-12


def test_translate_gammas_reference_value(n1_standard):
    shifted = gz.translate_gammas(n1_standard, 1.0, 0.0)
    assert abs(shifted.gammas[0] - (1.0 - 0.25j)) < 1e-15


def test_translate_gammas_preserves_constraints(n3_standard):
    rng = np.random.default_rng(6)
    for _ in range(20):
        zeta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        tau = rng.uniform(-2, 2)
        assert gz.validate(gz.translate_gammas(n3_standard, zeta, tau)).ok


# -- JSON schema ---------------------------------------------------------------


def test_parameter_set_from_dict_roundtrip(n2_standard):
    obj = {
        "E": 1.0,
        "blocks": [
            {"lambda": [SQRT2, 0.0], "gamma": [1.0, 0.0]},
            {"lambda": [0.0, 2.0], "gamma": [0.5, 0.5]},
        ],
    }
    ps = gz.parameter_set_from_dict(obj)
    assert np.allclose(ps.lambdas, n2_standard.lambdas)
    assert np.allclose(ps.gammas, n2_standard.gammas)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"E": -1.0, "blocks": [{"lambda": [2, 0], "gamma": [0, 0]}]},
        {"E": True, "blocks": [{"lambda": [2, 0], "gamma": [0, 0]}]},
        {"E": 1.0},
        {"E": 1.0, "blocks": []},
        {"E": 1.0, "blocks": [{"lambda": [2, 0]}]},
        {"E": 1.0, "blocks": [{"lambda": [2, 0, 1], "gamma": [0, 0]}]},
        {"E": 1.0, "blocks": [{"lambda": "2", "gamma": [0, 0]}]},
        {"E": 10**400, "blocks": [{"lambda": [2, 0], "gamma": [0, 0]}]},
        {"E": 1.0, "blocks": [{"lambda": [2, 0], "gamma": [0, -(10**400)]}]},
    ],
)
def test_parameter_set_from_dict_schema_errors(obj):
    with pytest.raises(ValueError):
        gz.parameter_set_from_dict(obj)


def test_constraint_rtol_catches_small_breaks(n1_standard):
    gam = n1_standard.gammas.copy()
    gam[1] += 100 * CONSTRAINT_RTOL
    assert not gz.validate(gz.ParameterSet(1.0, n1_standard.lambdas, gam)).ok
