"""Inner-outer engine, classification defects, and the three-way split."""

import numpy as np
import pytest

from nchardy import factorization
from nchardy.classical import atomic_singular, blaschke_product, jordan_pair
from nchardy.errors import (
    NotInvertibleError,
    ShapeMismatchError,
    ValidityWindowError,
)
from nchardy.factorization import (
    autocorrelation,
    blaschke_defect,
    blaschke_singular_split,
    bso_factor,
    crofoot_kernel_frame,
    inner_outer,
    outer_defect,
    shift_adjoint_apply,
    singular_test,
    solve_vacuum,
    spectral_outer,
)
from nchardy.fockspace import FockBasis
from nchardy.kernels import (
    SingularityPair,
    sing_space_complement,
    szego_kernel,
)
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    max_coeff_diff,
    phase_normalize,
    series_mul,
)
from nchardy.transforms import frostman, semigroup_inner


def z1(N):
    return NcSeries.monomial((1,), 2, N)


def analytic_complement_frame(N):
    """Coordinate vectors at the vacuum and at words starting with 2: an
    exact basis for the orthocomplement of z1 times the Hardy space."""
    basis = FockBasis(2, N)
    idx = [i for i, w in enumerate(basis.words) if not (w and w[0] == 1)]
    return np.eye(basis.dim)[:, idx]


# -- autocorrelation engine -------------------------------------------


def test_autocorrelation_hand_values():
    f = NcSeries(2, 1, 1, 2, {(): 1.0, (1,): 0.5})
    t = autocorrelation(f, 2)
    assert t[()][0, 0] == pytest.approx(1.25)
    assert t[(1,)][0, 0] == pytest.approx(0.5)
    assert t[(2,)][0, 0] == pytest.approx(0.0)
    assert t[(1, 1)][0, 0] == pytest.approx(0.0)


def test_autocorrelation_below_the_degree_reads_all_of_h():
    # t_s(H) = sum_mu H_mu^H H_{mu s} runs over every mu, however short s
    H = NcSeries(1, 1, 1, 2, {(): 1.0, (1,): 1.0, (1, 1): 1.0})
    t = autocorrelation(H, 1)
    assert list(t) == [(), (1,)]
    assert t[()][0, 0] == 3.0
    assert t[(1,)][0, 0] == 2.0


@pytest.mark.parametrize("m", [2.5, -1, True, "2"])
def test_autocorrelation_refuses_a_degree_that_is_not_an_int_ge_0(m):
    # below deg H = 3, so no basis of degree m is built to refuse it
    H = NcSeries(2, 1, 1, 3, {(): 1.0, (1, 2, 1): 0.5})
    with pytest.raises(ValueError, match="^m "):
        autocorrelation(H, m)


def test_autocorrelation_blind_to_left_inner_factor():
    V = commutator_inner(max_degree=3)
    F = NcSeries(2, 1, 1, 3, {(): 1.0, (1,): -0.5})
    BF = series_mul(V, F, 3)
    tBF = autocorrelation(BF, 3)
    tF = autocorrelation(F, 3)
    assert set(tBF) == set(tF)
    worst = max(np.max(np.abs(tBF[s] - tF[s])) for s in tF)
    assert worst < 1e-14


def test_spectral_outer_strips_inner_factor():
    V = commutator_inner(max_degree=3)
    F = NcSeries(2, 1, 1, 3, {(): 1.0, (1,): -0.5})
    got = spectral_outer(series_mul(V, F, 3))
    g1, _ = phase_normalize(got)
    g2, _ = phase_normalize(F)
    assert max_coeff_diff(g1, g2, 3) < 1e-12


def test_shift_adjoint_apply_strips_prefix():
    g = NcSeries(2, 1, 1, 5, {(): 2.0, (2,): -1.0, (1, 2): 0.5j})
    h = series_mul(z1(5), g, 5)
    back = shift_adjoint_apply(z1(5), h)
    assert max_coeff_diff(back, g, 4) < 1e-15


# -- inner-outer factorization ----------------------------------------


def test_inner_outer_monomial():
    r = inner_outer(NcSeries.monomial((1, 1, 1), 2, 8))
    assert r.wandering_dim == 1
    assert max_coeff_diff(r.inner, NcSeries.monomial((1, 1, 1), 2, 8), 8) == 0
    assert r.outer.coeff(())[0, 0] == pytest.approx(1.0)
    assert r.defects["reconstruction_error"] < 1e-14


def test_inner_outer_shifted_polynomial():
    h = NcSeries(2, 1, 1, 8, {(1,): 1.0, (1, 1): -0.5})
    r = inner_outer(h)
    assert max_coeff_diff(r.inner, z1(8), 8) < 1e-12
    want = NcSeries(2, 1, 1, 8, {(): 1.0, (1,): -0.5})
    assert max_coeff_diff(r.outer, want, 8) < 1e-12
    assert r.defects["inner_defect"] < 1e-12
    assert r.defects["outer_defect"] < 0.01


def test_inner_outer_of_outer_series_is_trivial():
    out = NcSeries(2, 1, 1, 6, {(): 1.0, (1,): -0.3, (2,): 0.2})
    r = inner_outer(out)
    assert r.wandering_dim == 1
    assert abs(r.inner.coeff(())[0, 0] - 1.0) < 1e-12
    assert r.inner.degree() == 0
    assert max_coeff_diff(r.outer, out, 6) < 1e-12


def test_inner_outer_commutator_flagship():
    N = 6
    V = commutator_inner(max_degree=N)
    r = inner_outer(1.0 - np.sqrt(2.0) * V)
    assert r.wandering_dim == 1
    want_outer = np.sqrt(2.0) - V
    g1, _ = phase_normalize(r.outer)
    g2, _ = phase_normalize(want_outer)
    assert max_coeff_diff(g1, g2, 5) < 1e-10
    mu = frostman(V, 1.0 / np.sqrt(2.0), N)
    b1, _ = phase_normalize(r.inner)
    b2, _ = phase_normalize(mu)
    assert max_coeff_diff(b1, b2, 5) < 1e-10
    assert r.defects["reconstruction_error"] < 1e-12
    # the inner defect is the exact geometric tail of the truncation
    assert r.defects["inner_defect"] == pytest.approx(0.0625, abs=1e-10)


def test_inner_outer_square_matrix():
    I2 = np.eye(2)
    H = NcSeries(2, 2, 2, 4, {(): I2, (1,): -0.5 * I2})
    r = inner_outer(H)
    assert r.wandering_dim == 2
    assert np.allclose(r.inner.coeff(()), I2, atol=1e-12)
    assert max_coeff_diff(r.outer, H, 4) < 1e-12
    assert r.defects["reconstruction_error"] < 1e-12


@pytest.mark.parametrize("c0", [np.diag([1.0, 0.0]),
                                [[1.0, 2.0], [0.5, 1.0]]])
def test_inner_outer_refuses_a_singular_constant(c0):
    # a singular constant reaches no vacuum direction outside its range
    H = NcSeries(2, 2, 2, 4, {(): c0})
    with pytest.raises(NotInvertibleError, match="numerically singular"):
        inner_outer(H)


@pytest.mark.parametrize("c0", [2.5 - 1.0j, [[1.0, 2.0], [0.0, 1.0]]])
def test_inner_outer_of_an_invertible_constant_is_outer(c0):
    c0 = np.atleast_2d(np.asarray(c0, dtype=complex))
    H = NcSeries(2, len(c0), len(c0), 4, {(): c0})
    r = inner_outer(H)
    assert r.wandering_dim == len(c0) and r.valid_degree == 4
    assert list(r.inner.coeffs) == [()]
    assert np.array_equal(r.inner.coeff(()), np.eye(len(c0)))
    assert list(r.outer.coeffs) == [()]
    assert np.array_equal(r.outer.coeff(()), c0)
    assert r.defects == {"inner_defect": 0.0, "outer_defect": 0.0,
                         "reconstruction_error": 0.0}


def test_inner_outer_rejects_zero_and_rectangular():
    with pytest.raises(ValueError):
        inner_outer(NcSeries(2, 1, 1, 3, {}))
    rect = NcSeries(2, 1, 2, 3, {(): np.array([[1.0, 0.0]])})
    with pytest.raises(ShapeMismatchError):
        inner_outer(rect)


@pytest.mark.parametrize("H", [
    NcSeries(2, 2, 1, 3, {(): [[1.0], [0.5]], (1, 2, 1): [[0.25], [0.0]]}),
    NcSeries(2, 2, 1, 3, {}),
], ids=["degree-3", "zero"])
def test_inner_outer_refuses_a_column_before_reading_it(H):
    # the shape is checked first: the degree exceeds N = 2 and the zero
    # series cannot be factored, but a 2 x 1 series is refused for its shape
    with pytest.raises(ShapeMismatchError):
        inner_outer(H, 2)
    with pytest.raises(ShapeMismatchError):
        spectral_outer(H)


def test_outer_defect_separates_outer_from_inner():
    out = NcSeries(2, 1, 1, 8, {(): 1.0, (1,): -0.5})
    assert outer_defect(out) == pytest.approx(0.003383, abs=1e-5)
    assert outer_defect(z1(8)) == pytest.approx(1.0, abs=1e-12)


def test_solve_vacuum_residuals():
    f = NcSeries(1, 1, 1, 12, {(): 1.0, (1,): -0.5})
    assert solve_vacuum(f, 0.9, 12) < 1e-12
    zmon = NcSeries.monomial((1,), 1, 12)
    assert solve_vacuum(zmon, 0.9, 12) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        solve_vacuum(f, 1.0, 12)


def test_solve_vacuum_reads_only_whether_f0_vanishes():
    # the truncated operator is triangular with f(0) on its diagonal: the
    # non-outer z - 1/2 reads rounding at every N, and only outer_defect
    # sees that the vacuum is out of reach
    for N in (5, 10, 20):
        f = NcSeries(1, 1, 1, N, {(): -0.5, (1,): 1.0})
        assert solve_vacuum(f, 0.9, N) < 1e-9
        assert outer_defect(f) == pytest.approx(np.sqrt(3) / 2, abs=2e-4)
        z = NcSeries.monomial((1,), 1, N)
        assert solve_vacuum(z, 0.3, N) == pytest.approx(1.0, abs=1e-12)


# -- classification defects -------------------------------------------


def test_blaschke_defect_desk_values_for_frostman_shift():
    N = 8
    V = commutator_inner(max_degree=N)
    w = 1.0 / np.sqrt(2.0)
    mu = frostman(V, w, N)
    E = crofoot_kernel_frame(V, w, N)
    vals = {
        (3, 2): 0.071795,
        (3, 3): 0.142857,
        (5, 2): 0.088889,
        (5, 3): 0.171429,
    }
    for (col, win), want in vals.items():
        got = blaschke_defect(mu, [], N=N, col_degree=col, window=win,
                              extra_frame=E)
        assert got == pytest.approx(want, abs=2e-5)


@pytest.mark.parametrize("N, cols", [(4, 24), (6, 96)])
def test_crofoot_frame_refuses_a_nonzero_constant_term(N, cols):
    V = commutator_inner(max_degree=N)
    assert crofoot_kernel_frame(V, 0.3, N).shape == (2 ** (N + 1) - 1, cols)
    with pytest.raises(ValueError, match="nonzero constant term"):
        crofoot_kernel_frame(frostman(V, 0.5, N), 0.3, N)


def test_blaschke_defect_zero_with_exact_complement():
    N = 8
    E = analytic_complement_frame(N)
    assert blaschke_defect(z1(N), [], N=N, extra_frame=E) == 0.0


def test_blaschke_defect_rejects_zero_and_bad_window():
    zero = NcSeries(2, 1, 1, 3, {})
    with pytest.raises(ValueError):
        blaschke_defect(zero, [])
    with pytest.raises(ValidityWindowError):
        blaschke_defect(z1(3), [], col_degree=7)
    # a negative limit would compare empty cuts and read 0, perfect evidence
    E = analytic_complement_frame(4)
    for limits in ({"window": -1}, {"col_degree": -1}):
        with pytest.raises(ValueError, match="must be >= 0"):
            blaschke_defect(z1(4), [], N=4, extra_frame=E, **limits)


def half_z2_pair():
    """(0, 1/2) at level 1, with y = 1."""
    return SingularityPair([[[0.0]], [[0.5]]], [1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: blaschke_defect(z1(4), [], N=4, col_degree=2.5),
     "col_degree 2.5 is not an integer"),
    (lambda: blaschke_defect(z1(4), [], N=4, window=1.5),
     "window 1.5 is not an integer"),
    (lambda: blaschke_defect(z1(4), [], N=4, col_degree=True),
     "col_degree True is not an integer"),
    (lambda: szego_kernel(half_z2_pair().Z, [1.0], [1.0], 2.5),
     "N 2.5 is not an integer"),
    (lambda: szego_kernel(half_z2_pair().Z, [1.0], [1.0], -1),
     "N must be >= 0"),
    (lambda: sing_space_complement([half_z2_pair()], N=2.5),
     "N 2.5 is not an integer"),
], ids=["col_degree-float", "window-float", "col_degree-bool",
        "szego-float", "szego-negative", "complement-float"])
def test_degree_arguments_are_checked_integers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_blaschke_defect_requires_scalar():
    H = NcSeries(2, 2, 2, 3, {(): np.eye(2)})
    with pytest.raises(ShapeMismatchError):
        blaschke_defect(H, [])


# -- singular test and the split --------------------------------------


def test_singular_test_on_semigroup_inner():
    sig = semigroup_inner(z1(6), 0.5, 6)
    st = singular_test(sig, num_samples=30)
    assert st["singular"]
    assert st["constant_sigma"] == pytest.approx(np.exp(-0.5), abs=1e-10)
    assert st["min_sample_sigma"] > 1e-3
    assert set(st["r_grid"]) == {0.5, 0.9}


@pytest.mark.parametrize("kwargs", [
    {"num_samples": 0}, {"num_samples": -3},
    {"num_samples": 0, "rng": np.random.default_rng(5)}])
def test_singular_test_refuses_zero_sample_points(kwargs):
    # no sample point would leave min sigma at +inf and certify anything
    with pytest.raises(ValueError, match="at least one sample"):
        singular_test(semigroup_inner(z1(4), 0.5, 4), **kwargs)


@pytest.mark.parametrize("num_samples", [2.5, True, "3"])
def test_singular_test_refuses_non_integer_sample_counts(num_samples):
    with pytest.raises(ValueError, match="not an integer"):
        singular_test(semigroup_inner(z1(4), 0.5, 4),
                      num_samples=num_samples)


@pytest.mark.parametrize("classify", [
    lambda theta, frame: blaschke_singular_split(theta, [], N=8,
                                                 extra_frame=frame),
    lambda theta, frame: blaschke_defect(theta, [], N=8, extra_frame=frame),
], ids=["split", "defect"])
def test_extra_frame_at_another_truncation_is_a_shape_error(classify):
    # a frame built at N=6 has 127 rows; the Fock space at N=8 has 511
    with pytest.raises(ShapeMismatchError, match="511"):
        classify(z1(8), analytic_complement_frame(6))


def test_split_all_blaschke_branch():
    N = 8
    res = blaschke_singular_split(z1(N), [], N=N,
                                  extra_frame=analytic_complement_frame(N))
    assert res.flags == []
    assert not res.diagnostic
    assert res.wandering_dim == 1
    assert max_coeff_diff(res.blaschke, z1(N), N) == 0.0
    assert res.singular.degree() == 0
    assert res.defects["blaschke_defect"] == 0.0


def test_split_mixed_branch_recovers_both_factors():
    N = 8
    sig = semigroup_inner(z1(N), 0.6, N)
    theta = series_mul(z1(N), sig, N)
    res = blaschke_singular_split(theta, [], N=N,
                                  extra_frame=analytic_complement_frame(N))
    assert res.flags == []
    assert res.wandering_dim == 1
    assert res.defects["blaschke_defect"] > 0.25
    assert max_coeff_diff(res.blaschke, z1(N), N) == 0.0
    # the product truncation loses sigma's top coefficient, so the match
    # is exact only through degree N - 1
    assert max_coeff_diff(res.singular, sig, N - 1) < 1e-14
    assert res.defects["reconstruction_error"] < 1e-14


def test_split_sketches_a_real_frame_in_real_arithmetic(monkeypatch):
    # the benchmark's split: z1 sigma_t against the real coordinate frame
    seen = []
    rank = factorization.numerical_rank

    def spy(Y):
        seen.append(Y.dtype)
        return rank(Y)

    monkeypatch.setattr(factorization, "numerical_rank", spy)
    N = 8
    theta = series_mul(z1(N), semigroup_inner(z1(N), 0.5, N), N)
    res = blaschke_singular_split(theta, [], N=N,
                                  extra_frame=analytic_complement_frame(N))
    assert seen and all(dt == np.float64 for dt in seen)
    assert res.flags == []
    assert max_coeff_diff(res.blaschke, z1(N), N) == 0.0


def test_split_takes_the_wandering_vector_at_a_small_defect():
    # at N = 4 the defect of z1 sigma_0.5 is rounding, yet theta is 0.61
    # away from its Blaschke part z1
    N = 4
    theta = series_mul(z1(N), semigroup_inner(z1(N), 0.5, N), N)
    res = blaschke_singular_split(theta, [], N=N,
                                  extra_frame=analytic_complement_frame(N))
    assert res.flags == []
    assert max_coeff_diff(res.blaschke, z1(N), N) == 0.0


@pytest.mark.parametrize("zeros", [[0.5], [0.3, -0.6j]])
@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 0.2])
def test_split_recovers_a_classical_blaschke_product(zeros, t):
    # d = 1: a Jordan pair at each zero spans the model space of the
    # Blaschke product, whatever the singular factor's Blaschke defect
    N = 30
    B = blaschke_product(zeros, N)
    theta = series_mul(B, atomic_singular(t, N), N)
    pairs = [SingularityPair(jordan_pair(a, 1)["point"], np.ones(1))
             for a in zeros]
    res = blaschke_singular_split(theta, pairs, N=N)
    assert res.flags == []
    assert max_coeff_diff(res.blaschke, phase_normalize(B)[0], N) <= 1e-12


def test_split_no_data_consistent_with_singular():
    sig = semigroup_inner(z1(6), 0.5, 6)
    res = blaschke_singular_split(sig, [], N=6)
    assert "no-pairs" in res.flags
    assert "consistent-with-singular" in res.flags
    assert not res.diagnostic
    assert max_coeff_diff(res.singular, sig, 6) == 0.0


def test_split_no_data_on_vanishing_inner_is_diagnostic():
    res = blaschke_singular_split(z1(6), [], N=6)
    assert res.flags == ["no-pairs"]
    assert res.diagnostic


def test_bso_factor_does_not_split_a_matrix_inner():
    H = NcSeries(2, 2, 2, 4, {(): [[2.0, 0.5], [0.0, 1.0]],
                              (1,): [[0.3, 0.0], [0.1, -0.4]]})
    res = bso_factor(H)
    assert res.flags == ["sampling-insufficient"] and res.diagnostic
    assert res.singular is None
    assert res.defects["note"] == \
        "wandering dimension != 1; split not attempted"
    assert res.wandering_dim == 2


def test_bso_factor_of_an_outer_has_constant_inner_parts():
    res = bso_factor(NcSeries(2, 1, 1, 6, {(): 1.0, (1,): -0.5}))
    assert res.flags == [] and not res.diagnostic
    assert set(res.singular.coeffs) == {()}
    assert res.singular.scalar_coeff(()) == 1.0
    assert res.blaschke.degree() == 0


def test_bso_factor_composes_engine_and_split():
    N = 8
    h = series_mul(z1(N), NcSeries(2, 1, 1, N, {(): 1.0, (1,): -0.5}), N)
    res = bso_factor(h, N=N, extra_frame=analytic_complement_frame(N))
    assert max_coeff_diff(res.blaschke, z1(N), N) < 1e-12
    assert res.singular.degree() == 0
    want = NcSeries(2, 1, 1, N, {(): 1.0, (1,): -0.5})
    g1, _ = phase_normalize(res.outer)
    g2, _ = phase_normalize(want)
    assert max_coeff_diff(g1, g2, N) < 1e-12
    assert not res.diagnostic
