import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gzpot as gz
import gzpot.potential
import gzpot.verify

from gzpot.potential import fields, potentials
from gzpot.verify import _window_grid
from oracles import nv_evolution_residual_fd

SQRT2 = math.sqrt(2.0)


# -- equation residuals ----------------------------------------------------------


def test_residuals_vanish_for_valid_sets(n1_standard, n2_standard, n3_standard):
    for ps in (n1_standard, n2_standard, n3_standard):
        ev = gz.PotentialEvaluator(ps)
        report = gz.nv_residual(ev, gz.sample_points(40, seed=7), seed=7)
        assert report.evolution_residual <= 1e-8
        assert report.constraint_residual <= 1e-10
        assert report.n_points == 40
        assert report.seed == 7


# 1-3 block seeds (|lambda|, arg lambda, re gamma, im gamma) from the whole valid family
VALID_SEEDS = st.lists(
    st.tuples(
        st.one_of(st.floats(1.1, 3.0), st.floats(0.15, 0.9)),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
    ),
    min_size=1,
    max_size=3,
)


def expand_valid_seeds(seeds, e):
    """The parameter set of the drawn seeds; draws whose lambdas nearly collide are skipped."""
    lams = [rho * cmath.exp(1j * arg) for rho, arg, _, _ in seeds]
    family = [m for lam in lams for m in (lam, -lam, 1 / lam.conjugate(), -1 / lam.conjugate())]
    assume(all(abs(a - b) >= 0.01 for a, b in itertools.combinations(family, 2)))
    return gz.expand_blocks(
        e, [gz.BlockSeed(lam, complex(gr, gi)) for lam, (_, _, gr, gi) in zip(lams, seeds)]
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seeds=VALID_SEEDS, e=st.floats(0.5, 2.5))
def test_residuals_and_reality_over_random_valid_seeds(seeds, e):
    # Acceptance criteria 1 and 2's bounds, on seeds drawn from the whole
    # valid family rather than the fixtures.
    ev = gz.PotentialEvaluator(expand_valid_seeds(seeds, e))
    points = gz.sample_points(20, seed=3)
    v, _, _, _, v_imag = fields(ev, [p.z for p in points], [p.t for p in points])
    assert np.all(np.abs(v_imag) <= 1e-9 * (1.0 + np.abs(v)))
    report = gz.nv_residual(ev, points)
    assert report.evolution_residual <= 1e-8
    assert report.constraint_residual <= 1e-10


def _hermitian_form(ps, z, t):
    # H = diag(1 / conj(lambda)) P_sigma A at the points, with sigma swapping
    # 4k <-> 4k+2 and 4k+1 <-> 4k+3: lambda <-> 1 / conj(lambda).
    sigma = np.arange(ps.lambdas.size) ^ 2
    return gz.PotentialEvaluator(ps).matrices(z, t)[:, sigma, :] / ps.lambdas.conj()[:, None]


def _hermitian_defect(h):
    return np.abs(h - h.conj().transpose(0, 2, 1)).max(axis=(1, 2)) / np.abs(h).max(axis=(1, 2))


# Bound on the Hermitian defect of H relative to max|H|: the measured worst
# over these draws is 11.9 eps, and one gamma moved by 1e-6 reads 1.3e5 eps or more.
HERMITIAN_DEFECT = 32 * np.finfo(float).eps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seeds=VALID_SEEDS, e=st.floats(0.5, 2.5))
def test_reordered_matrix_is_hermitian_quasi_definite(seeds, e):
    # The theorem of the potential module docstring: H is Hermitian, its
    # |lambda| < 1 block P and minus its |lambda| > 1 block R are positive
    # definite, and it has 2N positive eigenvalues; breaking one gamma pair
    # breaks the symmetry.
    ps = expand_valid_seeds(seeds, e)
    points = gz.sample_points(20, seed=3)
    z = np.array([p.z for p in points])
    t = np.array([p.t for p in points])
    h = _hermitian_form(ps, z, t)
    assert np.all(_hermitian_defect(h) <= HERMITIAN_DEFECT)
    inside = np.abs(ps.lambdas) < 1.0
    np.linalg.cholesky(h[0][np.ix_(inside, inside)])
    np.linalg.cholesky(-h[0][np.ix_(~inside, ~inside)])
    assert np.all((np.linalg.eigvalsh(h) > 0.0).sum(axis=1) == ps.lambdas.size // 2)
    gammas = ps.gammas.copy()
    gammas[0] += 1e-6
    broken = _hermitian_form(gz.ParameterSet(ps.energy, ps.lambdas, gammas), z, t)
    assert np.all(_hermitian_defect(broken) > HERMITIAN_DEFECT)


def test_residual_report_json_fields(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    d = gz.nv_residual(ev, gz.sample_points(5, seed=1), seed=1).to_json_dict()
    assert set(d) == {"evolution_residual", "constraint_residual", "points", "seed"}


def test_gamma_pair_break_destroys_solution(n1_standard):
    # Perturbing one gamma breaks the pair constraint and the conjugation
    # structure at once: both residuals blow up.
    gam = n1_standard.gammas.copy()
    gam[1] += 0.1
    ev = gz.PotentialEvaluator(gz.ParameterSet(1.0, n1_standard.lambdas, gam))
    report = gz.nv_residual(ev, gz.sample_points(100, seed=7), seed=7)
    assert report.evolution_residual > 1e-3
    assert report.constraint_residual > 1e-3


def test_conjugation_consistent_break_keeps_reality(n1_standard):
    # Shifting gamma_1 and gamma_3 coherently keeps the reality structure
    # (constraint residual at rounding level) while the evolution equation
    # fails: the determinant formula solves the equation only on the
    # constraint manifold.
    lam = n1_standard.lambdas
    gam = n1_standard.gammas.copy()
    gam[0] += 0.1
    gam[2] = lam[0].conjugate() ** 2 * gam[0].conjugate()
    ev = gz.PotentialEvaluator(gz.ParameterSet(1.0, lam, gam))
    report = gz.nv_residual(ev, gz.sample_points(100, seed=7), seed=7)
    assert report.constraint_residual <= 1e-10
    assert report.evolution_residual > 1e-3


def test_evolution_residual_corroborated_by_finite_differences(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    for pt in gz.sample_points(8, seed=9):
        r_fd = nv_evolution_residual_fd(gz.eval_fields, gz.SpacetimePoint, ev, pt)
        r_an = gz.point_residuals(ev, pt)[0]
        assert abs(r_fd - r_an) <= 1e-4


def test_sample_points_deterministic_and_in_box():
    a = gz.sample_points(50, seed=3)
    b = gz.sample_points(50, seed=3)
    assert a == b
    assert all(math.hypot(p.x1, p.x2) <= 5.0 and abs(p.t) <= 2.0 for p in a)


# -- travel waves ----------------------------------------------------------------


def test_travel_wave_exactness_single_block(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    points = gz.sample_points(25, seed=3)
    for dt in (0.1, 1.0, 10.0):
        assert gz.travel_wave_error(ev, dt, points) <= 1e-9


def test_travel_wave_zero_shift_is_exact(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    assert gz.travel_wave_error(ev, 0.0, gz.sample_points(10, seed=3)) == 0.0


def test_travel_wave_fails_for_two_blocks(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    points = gz.sample_points(25, seed=3)
    for block in (1, 2):
        assert gz.travel_wave_error(ev, 1.0, points, block=block) > 1e-3


def test_travel_wave_rejects_out_of_range_block(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    points = gz.sample_points(5, seed=3)
    for block in (0, 3):
        with pytest.raises(ValueError, match="block index"):
            gz.travel_wave_error(ev, 1.0, points, block=block)


# -- translation covariance ------------------------------------------------------


def test_translated_parameters_shift_the_fields(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    rng = np.random.default_rng(11)
    for _ in range(10):
        zeta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        tau = rng.uniform(-1, 1)
        shifted_ev = gz.PotentialEvaluator(gz.translate_gammas(n2_standard, zeta, tau))
        for pt in gz.sample_points(5, seed=5):
            a = gz.eval_fields(shifted_ev, pt)
            b = gz.eval_fields(ev, gz.SpacetimePoint.from_z(pt.z + zeta, pt.t + tau))
            assert abs(a.v - b.v) <= 1e-9 * (1.0 + abs(b.v))
            assert abs(a.w - b.w) <= 1e-9 * (1.0 + abs(b.w))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seeds=VALID_SEEDS,
    e=st.floats(0.5, 2.5),
    zeta=st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    tau=st.floats(-1.0, 1.0),
)
def test_translation_covariance_over_random_valid_seeds(seeds, e, zeta, tau):
    # v~(z, t) = v(z + zeta, t + tau) and likewise for w, within acceptance
    # criterion 8's tolerance, on seeds drawn from the whole valid family.
    ps = expand_valid_seeds(seeds, e)
    points = gz.sample_points(20, seed=3)
    z = np.array([p.z for p in points])
    t = np.array([p.t for p in points])
    v, w = potentials(gz.PotentialEvaluator(gz.translate_gammas(ps, zeta, tau)), z, t)
    v0, w0 = potentials(gz.PotentialEvaluator(ps), z + zeta, t + tau)
    assert np.all(np.abs(v - v0) <= 1e-9 * (1.0 + np.abs(v0)))
    assert np.all(np.abs(w - w0) <= 1e-9 * (1.0 + np.abs(w0)))


# -- large-time splitting --------------------------------------------------------


def test_sweep_rejects_bad_times(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    with pytest.raises(ValueError):
        gz.asymptotic_error_sweep(ev, 1, [])
    with pytest.raises(ValueError):
        gz.asymptotic_error_sweep(ev, 1, [1.0, 1.0])
    with pytest.raises(ValueError):
        gz.asymptotic_error_sweep(ev, 1, [-1.0, 2.0])
    with pytest.raises(ValueError):
        gz.asymptotic_error_sweep(ev, 3, [1.0, 2.0])


def test_sweep_rejects_probe_on_block_velocity(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    with pytest.raises(ValueError):
        gz.asymptotic_error_sweep(ev, 1, [1.0, 2.0], probe_velocity=21.0)


def test_sweep_rejects_shared_block_velocities(n1_standard):
    lam = np.concatenate([n1_standard.lambdas, n1_standard.lambdas * (1 + 1e-13)])
    gam = np.concatenate([n1_standard.gammas, n1_standard.gammas + 1.0])
    ev = gz.PotentialEvaluator(gz.ParameterSet(1.0, lam, gam))
    with pytest.raises(ValueError):
        gz.asymptotic_error_sweep(ev, 1, [1.0, 2.0])


def test_single_block_profile_is_exact_at_all_times(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    report = gz.asymptotic_error_sweep(ev, 1, [10.0, 100.0, 1000.0], window_points=7)
    for table in (report.forward, report.backward):
        assert max(table.errors_v) <= 1e-10
        assert max(table.errors_w) <= 1e-10


def test_two_block_errors_decrease_both_ways(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    report = gz.asymptotic_error_sweep(ev, 2, [10.0, 100.0, 1000.0], window_points=7)
    for table in (report.forward, report.backward):
        assert table.errors_v[0] > table.errors_v[1] > table.errors_v[2]
        assert table.errors_w[0] > table.errors_w[1] > table.errors_w[2]
        assert table.probe_decay[0] > table.probe_decay[1] > table.probe_decay[2]


def test_three_block_errors_nonincreasing_dyadic_times(n3_standard):
    ev = gz.PotentialEvaluator(n3_standard)
    for block in (1, 2, 3):
        report = gz.asymptotic_error_sweep(ev, block, [16.0, 32.0, 64.0, 128.0], window_points=7)
        for table in (report.forward, report.backward):
            assert all(a >= b for a, b in zip(table.errors_v, table.errors_v[1:]))
            assert all(a >= b for a, b in zip(table.errors_w, table.errors_w[1:]))
            assert all(a >= b for a, b in zip(table.probe_decay, table.probe_decay[1:]))


def test_sweep_takes_its_profile_from_one_soliton_profile_call(n2_standard, monkeypatch):
    # The block profile on the whole window comes from one soliton_profile
    # call, which builds the sweep's only one-block evaluator.
    built, windows = [], []
    evaluator, profile = gzpot.potential.PotentialEvaluator, gzpot.verify.soliton_profile

    def counting_evaluator(params):
        built.append(params.n_blocks)
        return evaluator(params)

    def counting_profile(ev, block, xi, *args):
        windows.append(np.shape(xi))
        return profile(ev, block, xi, *args)

    monkeypatch.setattr(gzpot.potential, "PotentialEvaluator", counting_evaluator)
    monkeypatch.setattr(gzpot.verify, "soliton_profile", counting_profile)
    gz.asymptotic_error_sweep(evaluator(n2_standard), 2, [10.0, 100.0], window_points=7)
    assert built == [1]
    assert windows == [_window_grid(3.0, 7).shape]


@pytest.mark.parametrize("radius", [3.0, 1e150, 1e200])
def test_window_grid_is_a_disc_at_any_radius(radius):
    # The same 113 of the 13 x 13 square's points at every scale: the disc
    # test must not overflow to inf <= inf and admit the corners.
    grid = _window_grid(radius, 13)
    assert grid.size == 113
    assert np.allclose(grid / radius, _window_grid(3.0, 13) / 3.0, rtol=0.0, atol=1e-15)


def test_sweep_report_json_structure(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    d = gz.asymptotic_error_sweep(ev, 1, [5.0, 10.0], window_points=5).to_json_dict()
    assert d["block"] == 1
    assert abs(d["velocity"][0] - 21.0) < 1e-12 and d["velocity"][1] == 0.0
    assert d["times"] == [5.0, 10.0]
    for side in ("forward", "backward"):
        assert set(d[side]) == {"errors_v", "errors_w", "probe_decay"}
        assert len(d[side]["errors_v"]) == 2
