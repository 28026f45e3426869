import ast
import cmath
import gc
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import gzpot as gz
from gzpot import potential
from gzpot.potential import CHUNK_ELEMENTS, NEAR_SINGULAR_RCOND, fields, log_det_partials
from gzpot.verify import _RESIDUAL_KEYS

from oracles import (
    fd_logdet_derivative,
    fd_steps,
    oracle_matrix,
    trace_fields,
    word_logdet_derivative,
)

SQRT2 = math.sqrt(2.0)

ORDER_LE_3 = [
    idx
    for k in (1, 2, 3)
    for idx in itertools.combinations_with_replacement(("z", "zbar", "t"), k)
]


# -- spacetime points ----------------------------------------------------------


def test_spacetime_point_complex_coordinates():
    pt = gz.SpacetimePoint(1.5, -2.0, 0.25)
    assert pt.z == 1.5 - 2.0j
    assert pt.zbar == 1.5 + 2.0j
    assert gz.SpacetimePoint.from_z(1.5 - 2.0j, 0.25) == pt


def test_spacetime_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        gz.SpacetimePoint(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        gz.SpacetimePoint(0.0, math.inf, 0.0)


# -- matrix assembly -----------------------------------------------------------


def test_matrix_diagonal_is_minus_gamma_at_origin(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    a = gz.build_matrix(ev, gz.SpacetimePoint(0.0, 0.0, 0.0))
    assert np.allclose(np.diag(a), -n1_standard.gammas, atol=1e-15)


def test_matrix_entries_reference_point(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    a = gz.build_matrix(ev, gz.SpacetimePoint(1.0, 1.0, 0.0))  # z = 1 + i
    a11 = 0.5j * ((1 - 1j) - (1 + 1j) / 2) - 1.0
    assert abs(a[0, 0] - a11) < 1e-15
    assert abs(a[0, 1] - 1.0 / (2 * SQRT2)) < 1e-15
    assert abs(a[0, 2] - 1.0 / (SQRT2 - 1 / SQRT2)) < 1e-15


def test_matrix_offdiagonal_constant_in_spacetime(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    a = gz.build_matrix(ev, gz.SpacetimePoint(0.3, -0.7, 0.1))
    b = gz.build_matrix(ev, gz.SpacetimePoint(-4.0, 2.0, -1.5))
    off = ~np.eye(ev.size, dtype=bool)
    assert np.array_equal(a[off], b[off])


def test_matrix_matches_loop_oracle(n3_standard):
    ev = gz.PotentialEvaluator(n3_standard)
    pt = gz.SpacetimePoint(0.8, -1.1, 0.6)
    assert np.allclose(
        gz.build_matrix(ev, pt),
        oracle_matrix(n3_standard, pt.z, pt.zbar, pt.t),
        atol=1e-14,
    )


# -- batched kernel ------------------------------------------------------------

KERNEL_KEYS = (
    ("t",),
    ("z", "zbar"),
    ("t", "z", "zbar"),
    ("z", "z", "z", "zbar"),
    ("t", "z", "z", "zbar", "zbar"),
)


def _points(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n), rng.uniform(-1, 1, n)


@pytest.mark.parametrize("fixture", ["n1_standard", "n2_standard", "n3_standard", "n4_standard"])
def test_batched_kernel_matches_oracle_and_single_points(fixture, request):
    ps = request.getfixturevalue(fixture)
    ev = gz.PotentialEvaluator(ps)
    chunk = CHUNK_ELEMENTS // ev.size**2
    for count in (1, chunk, chunk + 1):
        z, t = _points(count, seed=count)
        v, w, absdet, cond, v_imag = fields(ev, z, t)
        for i in range(count):
            v_ref, w_ref, det_ref = trace_fields(ps, z[i], t[i])
            assert abs(v[i] - v_ref) <= 1e-12 * (1.0 + abs(v_ref))
            assert abs(w[i] - w_ref) <= 1e-12 * (1.0 + abs(w_ref))
            assert abs(absdet[i] - det_ref) <= 1e-12 * det_ref
        assert np.all(cond >= 1.0) and np.all(np.abs(v_imag) <= 1e-9 * (1.0 + np.abs(v)))
        der, _ = log_det_partials(ev, z, t, KERNEL_KEYS)
        # The first and last point of each chunk, and one inside.
        for i in sorted({0, count // 2, min(chunk, count) - 1, count - 1}):
            pt = gz.SpacetimePoint.from_z(z[i], t[i])
            for key in KERNEL_KEYS:
                ref = gz.log_det_derivative(ev, pt, key)
                assert abs(der[key][i] - ref) <= 1e-12 * abs(ref), (count, i, key)


def test_batch_raises_at_first_near_singular_point(near_singular_set):
    ev = gz.PotentialEvaluator(near_singular_set)
    chunk = CHUNK_ELEMENTS // ev.size**2
    z, t = _points(chunk + 10, seed=3)
    # Both bad points lie in the second chunk; the earlier one must be named.
    first, second = chunk + 4, chunk + 7
    z[first], t[first] = 2e-15, 0.0
    z[second], t[second] = 0.0, 0.0
    fields(ev, z[:first], t[:first])  # everything before it is well conditioned
    with pytest.raises(gz.NearSingularError) as err:
        fields(ev, z, t)
    assert err.value.point == gz.SpacetimePoint(2e-15, 0.0, 0.0)
    assert err.value.rcond < NEAR_SINGULAR_RCOND


def test_chunk_size_changes_no_bit_of_the_results(n3_standard, near_singular_set, monkeypatch):
    # Chunks of one point, of several, of the default size and one chunk for all.
    ev = gz.PotentialEvaluator(n3_standard)
    z, t = _points(150, seed=8)
    bad_ev = gz.PotentialEvaluator(near_singular_set)
    bad_z, bad_t = _points(CHUNK_ELEMENTS // bad_ev.size**2 + 10, seed=9)
    first = bad_z.size - 6  # in the last chunk but at the largest size
    bad_z[first], bad_t[first] = 2e-15, 0.0
    bad_z[-2], bad_t[-2] = 0.0, 0.0
    key_sets = (((), potential.KEY_V, potential.KEY_W), _RESIDUAL_KEYS)  # eval, residual
    results = []
    for elements in (1, 1 << 10, CHUNK_ELEMENTS, 1 << 22):
        monkeypatch.setattr(potential, "CHUNK_ELEMENTS", elements)
        results.append([log_det_partials(ev, z, t, keys) for keys in key_sets])
        with pytest.raises(gz.NearSingularError) as err:
            fields(bad_ev, bad_z, bad_t)
        assert err.value.point == gz.SpacetimePoint(2e-15, 0.0, 0.0), elements
    for other in results[1:]:
        for (der, cond), (ref, ref_cond) in zip(other, results[0]):
            assert np.array_equal(cond, ref_cond)
            assert der.keys() == ref.keys()
            assert all(np.array_equal(der[key], ref[key]) for key in ref)


def test_exactly_singular_matrix_raises(n1_standard, monkeypatch):
    ev = gz.PotentialEvaluator(n1_standard)
    assemble = ev.matrices
    z, t = _points(5, seed=4)

    def singular_at_second_point(zs, ts):
        a = assemble(zs, ts)
        a[zs == z[1]] = np.diag([1.0, 0.0, 0.0, 0.0])
        return a

    monkeypatch.setattr(ev, "matrices", singular_at_second_point)
    with pytest.raises(gz.NearSingularError) as err:
        fields(ev, z, t)
    assert err.value.point == gz.SpacetimePoint.from_z(z[1], t[1])
    assert err.value.absdet == 0.0 and err.value.rcond == 0.0


def test_both_paths_report_an_exactly_singular_matrix_alike(n1_standard, monkeypatch):
    # One failure rule: |det| = 0 and rcond = 0 from the kernel, whose A is
    # left as assembled (an identity put in its place would read |det| = 1),
    # and from the linear-system path.
    ev = gz.PotentialEvaluator(n1_standard)
    assemble = ev.matrices
    z, t = _points(5, seed=4)
    point = gz.SpacetimePoint.from_z(z[2], t[2])

    def singular_at_third_point(zs, ts):
        a = assemble(zs, ts)
        a[zs == z[2]] = np.diag([1.0, 0.0, 0.0, 0.0])
        return a

    monkeypatch.setattr(ev, "matrices", singular_at_third_point)
    for evaluate in (
        lambda: gz.eval_fields(ev, point),
        lambda: fields(ev, z, t),
        lambda: log_det_partials(ev, z, t, KERNEL_KEYS),
        lambda: gz.linear_system_fields(ev, point),
    ):
        with pytest.raises(gz.NearSingularError) as err:
            evaluate()
        assert err.value.point == point
        assert err.value.absdet == 0.0 and err.value.rcond == 0.0


def test_near_singular_point_before_a_singular_one_raises_first(near_singular_set, monkeypatch):
    ev = gz.PotentialEvaluator(near_singular_set)
    assemble = ev.matrices
    z, t = _points(6, seed=5)
    z[2], t[2] = 0.0, 0.0  # near-singular

    def singular_at_fifth_point(zs, ts):
        a = assemble(zs, ts)
        a[zs == z[4]] = 0.0
        return a

    monkeypatch.setattr(ev, "matrices", singular_at_fifth_point)
    with pytest.raises(gz.NearSingularError) as err:
        fields(ev, z, t)
    assert err.value.point == gz.SpacetimePoint(0.0, 0.0, 0.0)


def test_bad_points_raise_in_order_without_the_determinant(near_singular_set, monkeypatch):
    # Without the order-0 key no slogdet runs unless inv finds a singular
    # matrix; the first bad point in input order must still raise by its kind.
    ev = gz.PotentialEvaluator(near_singular_set)
    assemble = ev.matrices
    z, t = _points(6, seed=5)
    z[2], t[2] = 0.0, 0.0  # near-singular
    a2 = assemble(z[2:3], t[2:3])[0]
    with pytest.raises(gz.NearSingularError) as err:
        log_det_partials(ev, z, t, KERNEL_KEYS)
    assert err.value.point == gz.SpacetimePoint(0.0, 0.0, 0.0)
    assert err.value.absdet == pytest.approx(abs(np.linalg.det(a2)), rel=1e-6)

    def singular_at(index):
        def matrices(zs, ts):
            a = assemble(zs, ts)
            a[zs == z[index]] = 0.0
            return a

        return matrices

    monkeypatch.setattr(ev, "matrices", singular_at(4))
    with pytest.raises(gz.NearSingularError):
        log_det_partials(ev, z, t, KERNEL_KEYS)
    monkeypatch.setattr(ev, "matrices", singular_at(1))
    with pytest.raises(gz.NearSingularError) as err:
        log_det_partials(ev, z, t, KERNEL_KEYS)
    assert err.value.point == gz.SpacetimePoint.from_z(z[1], t[1])
    assert err.value.absdet == 0.0 and err.value.rcond == 0.0


def test_nonfinite_matrix_is_reported_as_not_finite(n1_standard, monkeypatch):
    ev = gz.PotentialEvaluator(n1_standard)
    assemble = ev.matrices
    z, t = _points(5, seed=8)

    def overflowed_at_third_point(zs, ts):
        a = assemble(zs, ts)
        a[zs == z[2], 0, 0] = complex(math.inf, 0.0)
        return a

    monkeypatch.setattr(ev, "matrices", overflowed_at_third_point)
    for keys in (KERNEL_KEYS, ((),) + KERNEL_KEYS):
        with pytest.raises(gz.EvaluationError) as err:
            log_det_partials(ev, z, t, keys)
        assert type(err.value) is gz.EvaluationError
        assert "not finite" in str(err.value)
        assert err.value.point == gz.SpacetimePoint.from_z(z[2], t[2])


def test_kernel_frees_its_work_arrays_without_the_garbage_collector(n2_standard):
    # A reference cycle in the kernel would hold its stacked A^-1 sandwiches
    # until the next gc pass, which raises peak memory by megabytes.
    ev = gz.PotentialEvaluator(n2_standard)
    z, t = _points(20, seed=6)
    log_det_partials(ev, z, t, KERNEL_KEYS)  # builds and caches the plan
    gc.collect()
    gc.disable()
    try:
        log_det_partials(ev, z, t, KERNEL_KEYS)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernel_rejects_nonfinite_and_empty_input(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    with pytest.raises(ValueError):
        fields(ev, [0.5, complex(math.nan, 0.0)], [0.0, 0.0])
    with pytest.raises(ValueError):
        fields(ev, [0.5], [math.inf])
    with pytest.raises(ValueError):
        fields(ev, [], [])


# -- derivative engine ---------------------------------------------------------


def test_first_zbar_derivative_closed_form(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    pt = gz.SpacetimePoint(1.0, 1.0, 0.0)
    got = gz.log_det_derivative(ev, pt, ("zbar",))
    (a,) = ev.matrices(np.array([pt.z]), np.array([pt.t]))
    closed = 0.5j * np.trace(np.linalg.inv(a))
    assert abs(got - closed) < 1e-12


def test_derivative_index_validation(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    pt = gz.SpacetimePoint(0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        gz.log_det_derivative(ev, pt, ())
    with pytest.raises(ValueError):
        gz.log_det_derivative(ev, pt, ("z",) * 6)
    with pytest.raises(ValueError):
        gz.log_det_derivative(ev, pt, ("z", "q"))


def test_derivative_order_permutation_invariance(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    rng = np.random.default_rng(13)
    pts = gz.sample_points(10, seed=13)
    for pt in pts:
        base = ("z", "z", "zbar", "t")
        ref = gz.log_det_derivative(ev, pt, base)
        for _ in range(3):
            perm = tuple(rng.permutation(base))
            val = gz.log_det_derivative(ev, pt, perm)
            assert abs(val - ref) <= 1e-12 * (1.0 + abs(ref))


def test_derivatives_match_finite_differences(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    for pt in gz.sample_points(12, seed=5):
        hs = fd_steps(n2_standard, pt)
        for idx in ORDER_LE_3:
            exact = gz.log_det_derivative(ev, pt, idx)
            approx = fd_logdet_derivative(n2_standard, pt, idx, hs)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact)), idx


ALL_KEYS = tuple(
    key
    for k in range(1, 6)
    for key in itertools.combinations_with_replacement(("t", "z", "zbar"), k)
)


@pytest.mark.parametrize("fixture", ["n1_standard", "n2_standard"])
def test_every_partial_matches_word_expansion(fixture, request):
    # All 55 multisets of orders 1-5 in one batch, against the oracle that
    # expands each partial into its uncollected words.
    assert len(ALL_KEYS) == 55
    ps = request.getfixturevalue(fixture)
    z, t = _points(4, seed=55)
    der, _ = log_det_partials(gz.PotentialEvaluator(ps), z, t, ALL_KEYS)
    for i in range(z.size):
        for key in ALL_KEYS:
            ref = word_logdet_derivative(ps, z[i], t[i], key)
            assert abs(der[key][i] - ref) <= 1e-12 * abs(ref), (i, key)


def test_high_order_derivatives_match_finite_differences(n2_standard):
    # Orders 4 and 5 carry more rounding in the nested differences; the
    # envelope is correspondingly looser.
    ev = gz.PotentialEvaluator(n2_standard)
    keys = [
        ("z", "z", "z", "z"),
        ("z", "z", "z", "zbar"),
        ("z", "z", "z", "z", "zbar"),
        ("z", "zbar", "zbar", "zbar", "zbar"),
        ("z", "z", "zbar", "zbar", "t"),
    ]
    for pt in gz.sample_points(10, seed=41):
        hs = fd_steps(n2_standard, pt)
        for idx in keys:
            exact = gz.log_det_derivative(ev, pt, idx)
            approx = fd_logdet_derivative(n2_standard, pt, idx, hs)
            assert abs(exact - approx) <= 1e-4 * (1.0 + abs(exact)), idx


# -- work done per evaluation ---------------------------------------------------


def test_residual_plan_builds_three_sandwiches(n2_standard, monkeypatch):
    # Each stacked product S(..d) = S(..) D_d X reads one direction diagonal.
    # With the trace rotations chosen to share halves, the residual needs
    # S(z), S(zbar) and S(z, zbar).
    ev = gz.PotentialEvaluator(n2_standard)
    built = []
    diagonal = ev.direction_diagonal

    def recording(direction):
        built.append(direction)
        return diagonal(direction)

    monkeypatch.setattr(ev, "direction_diagonal", recording)
    gz.nv_residual(ev, gz.sample_points(30, seed=1))
    assert sorted(built) == ["z", "zbar", "zbar"]


def test_no_pair_contracts_a_zero_weight_row(n2_standard, monkeypatch):
    weights = []
    vecdot = np.vecdot

    def recording(w, h):
        weights.append(w)
        return vecdot(w, h)

    monkeypatch.setattr(np, "vecdot", recording)
    ev = gz.PotentialEvaluator(n2_standard)
    gz.nv_residual(ev, gz.sample_points(30, seed=1))
    assert len(weights) == 4
    assert sum(len(w) for w in weights) == 8  # of 4 pairs x 8 keys: one row per key
    assert all(np.abs(w).max(axis=1).min() > 0.0 for w in weights)
    weights.clear()
    log_det_partials(ev, *_points(7, seed=2), ALL_KEYS)
    assert all(np.abs(w).max(axis=1).min() > 0.0 for w in weights)


def test_determinant_taken_only_where_read(n2_standard, monkeypatch):
    calls = []
    slogdet = np.linalg.slogdet

    def counting(a):
        calls.append(a.shape)
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counting)
    ev = gz.PotentialEvaluator(n2_standard)
    gz.nv_residual(ev, gz.sample_points(30, seed=1))
    gz.asymptotic_error_sweep(ev, 1, [10.0, 100.0], window_points=5)
    gz.travel_wave_error(ev, 0.5, gz.sample_points(5, seed=2))
    gz.soliton_profile(ev, 1, 0.5j)
    assert calls == []
    z, t = _points(3, seed=3)
    v, w, absdet, cond, _ = fields(ev, z, t)
    assert len(calls) == 1 and absdet.shape == (3,)
    der, cond = log_det_partials(ev, z, t, (("z",),))
    assert len(calls) == 1 and () not in der and cond.shape == (3,)
    # The order-0 key is ln|det A|, and the |det A| of fields is its exponential.
    der, _ = log_det_partials(ev, z, t, ((),))
    ref = np.log(np.abs(np.linalg.det(ev.matrices(z, t))))
    assert np.allclose(der[()], ref, rtol=0.0, atol=1e-12) and np.allclose(absdet, np.exp(ref))


# -- field evaluation ----------------------------------------------------------


def test_eval_fields_reality_and_diagnostics(n3_standard):
    ev = gz.PotentialEvaluator(n3_standard)
    for pt in gz.sample_points(60, seed=21):
        s = gz.eval_fields(ev, pt)
        assert abs(s.v_imag) <= 1e-9 * (1.0 + abs(s.v))
        assert s.absdet > 0
        cond = np.linalg.cond(gz.build_matrix(ev, pt), 1)
        assert s.cond_estimate == pytest.approx(cond, rel=1e-13)


def test_eval_fields_matches_linear_system_path(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    for pt in gz.sample_points(100, seed=17):
        s = gz.eval_fields(ev, pt)
        v_lin, w_lin = gz.linear_system_fields(ev, pt)
        assert abs(s.v - v_lin.real) <= 1e-9 * (1.0 + abs(s.v))
        assert abs(s.w - w_lin) <= 1e-9 * (1.0 + abs(s.w))


def test_eval_fields_far_field_decay_bounded(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    for j in range(8):
        ang = 2 * math.pi * j / 8 + math.pi / 16
        for k in (4, 7, 10):
            r = 2.0**k
            s = gz.eval_fields(ev, gz.SpacetimePoint(r * math.cos(ang), r * math.sin(ang), 0.5))
            assert r * r * abs(s.v) < 100.0
            assert r * r * abs(s.w) < 1000.0


def test_near_singular_evaluation_raises(near_singular_set):
    # Pathological gammas tuned so A(0, 0) is an eigen-shift of the constant
    # off-diagonal part: the evaluator must refuse rather than return garbage.
    ev = gz.PotentialEvaluator(near_singular_set)
    with pytest.raises(gz.EvaluationError):
        gz.eval_fields(ev, gz.SpacetimePoint(0.0, 0.0, 0.0))


# -- soliton profiles ----------------------------------------------------------


def test_profile_equals_field_for_single_block(n1_standard):
    ev = gz.PotentialEvaluator(n1_standard)
    for xi in (0.7 - 0.3j, -1.2 + 0.4j, 2.0j):
        nu, omega = gz.soliton_profile(ev, 1, xi)
        s = gz.eval_fields(ev, gz.SpacetimePoint.from_z(xi, 0.0))
        assert abs(nu - s.v) < 1e-12
        assert abs(omega - s.w) < 1e-12


def test_profile_time_independence(n2_standard):
    # The profile is a travel wave: block k's own set at (xi + c_k t, t)
    # gives the profile at xi.
    ev = gz.PotentialEvaluator(n2_standard)
    for block in (1, 2):
        sub = gz.ParameterSet(n2_standard.energy, *n2_standard.block(block))
        sub_ev = gz.PotentialEvaluator(sub)
        c = gz.velocity(sub.lambdas[0], sub.energy)
        for xi in (0.3 + 0.9j, -0.8 - 0.2j):
            nu, omega = gz.soliton_profile(ev, block, xi)
            s = gz.eval_fields(sub_ev, gz.SpacetimePoint.from_z(xi + c * 5.0, 5.0))
            assert abs(nu - s.v) < 1e-10
            assert abs(omega - s.w) < 1e-10


def test_profile_matches_standalone_block_potential(n3_standard):
    # Each block is itself a valid one-block potential; its field must agree
    # with the profile extracted from the full matrix (reality included).
    ev = gz.PotentialEvaluator(n3_standard)
    rng = np.random.default_rng(30)
    for block in (1, 2, 3):
        sub = gz.ParameterSet(n3_standard.energy, *n3_standard.block(block))
        assert gz.validate(sub).ok
        sub_ev = gz.PotentialEvaluator(sub)
        for _ in range(8):
            xi = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            nu, omega = gz.soliton_profile(ev, block, xi)
            s = gz.eval_fields(sub_ev, gz.SpacetimePoint.from_z(xi, 0.0))
            assert abs(nu - s.v) < 1e-12
            assert abs(omega - s.w) < 1e-12
            assert abs(s.v_imag) <= 1e-9 * (1.0 + abs(s.v))


def test_profile_on_an_array_matches_single_points(n3_standard):
    ev = gz.PotentialEvaluator(n3_standard)
    rng = np.random.default_rng(31)
    xi = rng.uniform(-3, 3, (3, 4)) + 1j * rng.uniform(-3, 3, (3, 4))
    for block in (1, 2, 3):
        nu, omega = gz.soliton_profile(ev, block, xi)
        assert nu.shape == omega.shape == xi.shape
        assert nu.dtype == float and omega.dtype == complex
        for i, j in np.ndindex(xi.shape):
            nu_ij, omega_ij = gz.soliton_profile(ev, block, xi[i, j])
            assert abs(nu[i, j] - nu_ij) <= 1e-15 * abs(nu_ij)
            assert abs(omega[i, j] - omega_ij) <= 1e-15 * abs(omega_ij)


def test_profile_block_range(n2_standard):
    ev = gz.PotentialEvaluator(n2_standard)
    with pytest.raises(ValueError):
        gz.soliton_profile(ev, 0, 0j)
    with pytest.raises(ValueError):
        gz.soliton_profile(ev, 3, 0j)


# -- module boundaries ---------------------------------------------------------


def test_no_private_potential_name_used_outside_potential():
    # Modules reach potential only through names without a leading underscore.
    here = Path(__file__).parent
    sources = (Path(gz.__file__).parent, here, here.parent / "perfbench")
    for path in (p for d in sources for p in d.glob("*.py")):
        if path.name == "potential.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("potential"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "pot":
                names = [node.attr]
            else:
                continue
            assert not any(name.startswith("_") for name in names), (path.name, names)
