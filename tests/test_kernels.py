"""Szego kernels, model-space grams, and the singularity locus."""

import numpy as np
import pytest

import nchardy.kernels as kernels
from nchardy.errors import (
    AlphabetMismatchError,
    InadmissiblePointError,
    NotInnerError,
    ShapeMismatchError,
)
from nchardy.evaluate import MatrixPoint, evaluate, random_point
from nchardy.fockspace import FockBasis, series_to_vec
from nchardy.kernels import (
    check_inner,
    compress_to_finite,
    inner_defect,
    kernel_direct_sum,
    kernel_inner,
    model_gram,
    model_kernel,
    search_singularities,
    sing_closure_direct_sum,
    sing_closure_similarity,
    sing_membership,
    sing_space_complement,
    SingularityPair,
    standard_probes,
    szego_gram,
    szego_kernel,
)
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    h2_norm,
    max_coeff_diff,
    rescale,
    series_inner,
    series_mul,
)


def random_poly(rng, d, degree, N):
    coeffs = {}
    words = [()]
    for _ in range(degree):
        words = [w + (k,) for w in words for k in range(1, d + 1)]
        for w in words:
            coeffs[w] = complex(*rng.standard_normal(2))
    coeffs[()] = complex(*rng.standard_normal(2))
    return NcSeries(d, 1, 1, N, coeffs)


def singular_pair_for_bilinear():
    """A hand-built member of the locus of 1 - 2 z1 z2."""
    a = 1.0 / np.sqrt(2.0)
    Z = MatrixPoint([np.array([[0.0, a], [0.0, 0.0]]),
                     np.array([[0.0, 0.0], [a, 0.0]])])
    return SingularityPair(Z, np.array([1.0, 0.0]))


BILINEAR = NcSeries(2, 1, 1, 4, {(): 1.0, (1, 2): -2.0})


def test_kernel_reproduces_point_evaluations():
    rng = np.random.default_rng(21)
    Z = random_point(rng, 2, 3, 0.6)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    K = szego_kernel(Z, y, v, 6)
    f = random_poly(rng, 2, 3, 6)
    want = complex(y.conj() @ evaluate(f, Z) @ v)
    got = series_inner(K.series, f)
    assert abs(got - want) < 1e-12 * (1.0 + abs(want))


def test_gram_solves_displacement_equation():
    rng = np.random.default_rng(22)
    Z = random_point(rng, 2, 2, 0.5)
    W = random_point(rng, 2, 3, 0.6)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    G = szego_gram(Z, W, v, u)
    resid = G.copy()
    for k in range(2):
        resid -= Z[k] @ G @ W[k].conj().T
    assert np.linalg.norm(resid - np.outer(v, u.conj())) < 1e-12


def test_kernel_inner_matches_truncated_pairing():
    rng = np.random.default_rng(23)
    Z = random_point(rng, 2, 2, 0.4)
    W = random_point(rng, 2, 2, 0.45)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    k1 = szego_kernel(Z, y, v, 14)
    k2 = szego_kernel(W, x, u, 14)
    exact = kernel_inner(k1, k2)
    truncated = series_inner(k1.series, k2.series)
    assert abs(exact - truncated) < 1e-7


def test_kernel_rescaling_is_coefficient_exact():
    rng = np.random.default_rng(24)
    Z = random_point(rng, 2, 2, 0.7)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    K = szego_kernel(Z, y, v, 7)
    Kr = szego_kernel(Z.scale(0.6), y, v, 7)
    assert max_coeff_diff(rescale(K.series, 0.6), Kr.series, 7) < 1e-13


def test_adjoint_action_shifts_the_y_slot():
    rng = np.random.default_rng(25)
    Z = random_point(rng, 2, 2, 0.5)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    N = 8
    f = random_poly(rng, 2, 2, N)
    g = random_poly(rng, 2, 3, N)
    K = szego_kernel(Z, y, v, N)
    lhs = series_inner(K.series, series_mul(f, g, N))
    y_shift = evaluate(f, Z).conj().T @ y
    K_shift = szego_kernel(Z, y_shift, v, N)
    rhs = series_inner(K_shift.series, g)
    assert abs(lhs - rhs) < 1e-11 * (1.0 + abs(lhs))


def test_kernel_norm_bound():
    rng = np.random.default_rng(26)
    for _ in range(20):
        s = rng.uniform(0.2, 0.9)
        Z = random_point(rng, 2, 3, s)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        K = szego_kernel(Z, y, v, 10)
        cap = np.linalg.norm(y) * np.linalg.norm(v) / np.sqrt(1.0 - s * s)
        assert h2_norm(K.series) <= cap * (1.0 + 1e-12)


def test_kernel_direct_sum_represents_weighted_sum():
    rng = np.random.default_rng(27)
    Z = random_point(rng, 2, 2, 0.5)
    W = random_point(rng, 2, 2, 0.5)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = 0.7 - 0.3j
    k1 = szego_kernel(Z, y, v, 6)
    k2 = szego_kernel(W, x, u, 6)
    combo = kernel_direct_sum(k1, k2, c)
    want = k1.series + c * k2.series
    assert max_coeff_diff(combo.series, want, 6) < 1e-13


def test_check_inner_accepts_and_rejects():
    assert check_inner(commutator_inner(max_degree=6)) < 1e-12
    z1 = NcSeries.monomial((1,), 2, 5)
    assert check_inner(z1) < 1e-14
    with pytest.raises(NotInnerError) as info:
        check_inner(NcSeries.monomial((1,), 2, 5, value=2.0))
    assert info.value.defect == pytest.approx(3.0)


def test_inner_defect_of_row_contraction():
    f = NcSeries(2, 1, 1, 5, {(1,): 0.6, (2,): 0.8})
    assert inner_defect(f) < 1e-13


@pytest.mark.parametrize("limit", [-1, 1.5])
def test_inner_defect_refuses_a_bad_degree_limit(limit):
    with pytest.raises(ValueError):
        inner_defect(NcSeries.monomial((1,), 2, 5), limit)


def test_model_gram_matches_truncated_model_kernels():
    rng = np.random.default_rng(28)
    # keep theta's own truncation low: the inner gate materializes a full
    # Fock operator at theta.max_degree, which grows as 2^N
    theta = NcSeries.monomial((1,), 2, 3)
    Z = random_point(rng, 2, 2, 0.4)
    W = random_point(rng, 2, 2, 0.4)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    G = model_gram(theta, Z, W, v, u)
    exact = complex(y.conj() @ G @ x)
    k1 = model_kernel(theta, Z, y, v, 12)
    k2 = model_kernel(theta, W, x, u, 12)
    truncated = series_inner(k1.series, k2.series)
    assert abs(exact - truncated) < 1e-8


def test_model_kernel_refuses_non_inner():
    rng = np.random.default_rng(29)
    Z = random_point(rng, 2, 2, 0.3)
    bad = NcSeries.monomial((1,), 2, 5, value=3.0)
    with pytest.raises(NotInnerError):
        model_kernel(bad, Z, [1.0, 0.0], [0.0, 1.0], 5)


def test_model_kernel_is_orthogonal_to_theta_multiples():
    # the model kernel should pair to ~0 against theta * g for any g
    rng = np.random.default_rng(30)
    theta = commutator_inner(max_degree=4)
    Z = random_point(rng, 2, 2, 0.35)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    K = model_kernel(theta, Z, y, v, 12)
    g = random_poly(rng, 2, 2, 12)
    val = series_inner(K.series, series_mul(theta, g, 12))
    assert abs(val) < 1e-7


def test_membership_of_hand_built_pair():
    pair = singular_pair_for_bilinear()
    ok, resid = sing_membership(BILINEAR, pair.Z, pair.y)
    assert ok and resid < 1e-14
    bad, _ = sing_membership(BILINEAR, pair.Z, np.array([0.0, 1.0]))
    assert not bad


def test_singularity_closure_under_direct_sum_and_similarity():
    pair = singular_pair_for_bilinear()
    both = sing_closure_direct_sum(pair, pair, c=2.0j)
    ok, _ = sing_membership(BILINEAR, both.Z, both.y)
    assert ok
    S = np.eye(2) + 0.05 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    moved = sing_closure_similarity(pair, S)
    ok2, _ = sing_membership(BILINEAR, moved.Z, moved.y)
    assert ok2


@pytest.mark.parametrize("entry", [np.nan, complex(0.0, np.nan)])
def test_similarity_refuses_a_nan_conjugated_point(entry):
    S = np.array([[1.0, entry], [0.0, 1.0]])
    with pytest.raises(InadmissiblePointError):
        sing_closure_similarity(singular_pair_for_bilinear(), S)


def test_harvest_skips_a_nan_point():
    bad = MatrixPoint([np.full((2, 2), np.nan), np.zeros((2, 2))])
    members = []
    assert not kernels._harvest_members(BILINEAR, bad, np.array([0.5]),
                                        members, 10)
    assert members == []


def test_compress_to_finite_preserves_membership():
    pair = singular_pair_for_bilinear()
    spare = MatrixPoint([0.1 * np.eye(2), 0.2 * np.eye(2)])
    big = sing_closure_direct_sum(
        pair, SingularityPair(spare, [1.0, 1.0]), c=0.0)
    X, x = compress_to_finite(big.Z, big.y, BILINEAR)
    assert X.n <= 3
    ok, _ = sing_membership(BILINEAR, X, x)
    assert ok


def test_search_finds_bilinear_singularities():
    rng = np.random.default_rng(31)
    members = search_singularities(BILINEAR, 2, trials=20, rng=rng,
                                   max_members=3)
    assert members
    for pair in members:
        ok, _ = sing_membership(BILINEAR, pair.Z, pair.y)
        assert ok
        assert pair.Z.row_norm() < 1.0


def test_search_finds_each_directions_roots_once(monkeypatch):
    calls = []
    roots = kernels._det_poly_roots

    def counting(H, Z, degree_bound):
        calls.append(Z)
        return roots(H, Z, degree_bound)

    monkeypatch.setattr(kernels, "_det_poly_roots", counting)
    members = search_singularities(BILINEAR, 2, trials=20,
                                   rng=np.random.default_rng(31),
                                   max_members=100)
    # directions with an in-disk root were harvested, yet each trial's
    # determinant was interpolated and factored once
    assert members
    assert len(calls) == 20


def test_search_reports_empty_for_invertible_symbol():
    rng = np.random.default_rng(32)
    f = NcSeries(2, 1, 1, 3, {(): 1.0, (1,): 0.3})
    members = search_singularities(f, 1, trials=8, rng=rng)
    assert members == []


def test_sing_space_complement_contains_kernel_vectors():
    pair = singular_pair_for_bilinear()
    Q = sing_space_complement([pair], N=6)
    assert Q.shape[1] >= 1
    # each probe's kernel vector lies in the span of the frame
    K = szego_kernel(pair.Z, pair.y, standard_probes(2)[0], 6)
    vec = series_to_vec(K.series, FockBasis(2, 6)).ravel()
    resid = vec - Q @ (Q.conj().T @ vec)
    assert np.linalg.norm(resid) < 1e-10 * max(np.linalg.norm(vec), 1.0)


def test_kernel_shape_validation():
    Z = MatrixPoint([0.1 * np.eye(2), 0.1 * np.eye(2)])
    with pytest.raises(ShapeMismatchError):
        szego_kernel(Z, [1.0], [1.0, 0.0], 4)
    with pytest.raises(ValueError):
        SingularityPair(Z, [0.0, 0.0])
    # the Gram's v and u have the lengths of its two points, 1 and 2 here
    W = MatrixPoint([[[0.1]], [[0.2]]])
    e1, e2 = [1.0], [1.0, 0.0]
    theta = NcSeries.monomial((1,), 2, 3)
    for call in (lambda: szego_gram(W, Z, e2, e2),
                 lambda: szego_gram(W, Z, e1, e1),
                 lambda: model_gram(theta, W, Z, e2, e2)):
        with pytest.raises(ShapeMismatchError, match="lengths 1, 2"):
            call()


def test_each_root_is_evaluated_once(monkeypatch):
    calls = []

    def counting(H, Z, *args, **kwargs):
        calls.append(Z)
        return evaluate(H, Z, *args, **kwargs)

    monkeypatch.setattr(kernels, "evaluate", counting)
    H = NcSeries(1, 1, 1, 1, {(): -0.5, (1,): 1.0})
    members = search_singularities(H, 1, trials=4)
    # the null direction and the membership test read one H(tZ)
    assert len(members) == 4 and len(calls) == 4
    monkeypatch.undo()
    for pair in members:
        A = evaluate(H, pair.Z)
        assert pair.y.tobytes() == kernels._left_null_direction(A).tobytes()
        assert abs(pair.Z.mats[0][0, 0] - 0.5) < 1e-15
        ok, resid = sing_membership(H, pair.Z, pair.y)
        assert ok and resid == float(np.linalg.norm(pair.y.conj() @ A))


# points on or outside the row ball: row norm 1.3, exactly 1, and NaN
OUTSIDE = [
    MatrixPoint([np.array([[0.0, 1.3], [0.0, 0.0]]), np.zeros((2, 2))]),
    MatrixPoint([np.eye(2), np.zeros((2, 2))]),
    MatrixPoint([np.full((2, 2), np.nan), np.zeros((2, 2))]),
]


@pytest.mark.parametrize("Z", OUTSIDE, ids=["1.3", "1", "nan"])
def test_kernels_refuse_a_point_outside_the_row_ball(Z):
    # the kernel series diverges there, yet the displacement equation can
    # still be solvable: at the scalar point 1.3 it gives <K, K> =
    # 1 / (1 - 1.3^2) = -1.449
    inside = MatrixPoint([0.1 * np.eye(2), 0.2 * np.eye(2)])
    e = [1.0, 0.0]
    p = NcSeries(2, 1, 1, 2, {(): 1.0, (1, 2): -2.0})
    for call in (lambda: szego_kernel(Z, e, e, 4),
                 lambda: szego_gram(Z, inside, e, e),
                 lambda: szego_gram(inside, Z, e, e),
                 lambda: SingularityPair(Z, e),
                 lambda: compress_to_finite(Z, e, p)):
        with pytest.raises(InadmissiblePointError):
            call()


@pytest.mark.parametrize("args, name", [
    ((2.5,), "level"), ((True,), "level"), (("2",), "level"),
    ((0,), "level"), ((2, 2.5), "trials"), ((2, "3"), "trials"),
])
def test_search_refuses_a_level_or_trials_that_is_not_an_int(args, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        search_singularities(BILINEAR, *args)


@pytest.mark.parametrize("kwargs, name", [
    ({"max_members": 0}, "max_members"), ({"max_members": -1}, "max_members"),
    ({"max_members": 2.5}, "max_members"), ({"trials": -3}, "trials"),
])
def test_search_refuses_a_member_cap_below_one_or_negative_trials(kwargs,
                                                                   name):
    # z^2 - 1/4 is singular at z = +-1/2, so a search that ran would find
    # members
    H = NcSeries(1, 1, 1, 2, {(): -0.25, (1, 1): 1.0})
    assert search_singularities(H, 1, max_members=1)
    with pytest.raises(ValueError, match=f"^{name} "):
        search_singularities(H, 1, **kwargs)


# a level-2 point over two letters, and vectors one entry too long
LEVEL2 = MatrixPoint([0.1 * np.eye(2), 0.2 * np.eye(2)])
Y3 = np.array([1.0, 0.0, 0.0])


def test_compress_to_finite_refuses_a_vector_not_as_long_as_the_level():
    p = NcSeries(2, 1, 1, 2, {(): 1.0, (1, 2): -2.0})
    with pytest.raises(ShapeMismatchError, match="length 3 != level 2"):
        compress_to_finite(LEVEL2, Y3, p)


def test_sing_membership_refuses_a_vector_not_as_long_as_the_rows():
    with pytest.raises(ShapeMismatchError, match="length 3 != 2 rows"):
        sing_membership(BILINEAR, LEVEL2, Y3)
    # a 2 x 2 symbol has rows(H) n = 4 rows at level 2
    H = NcSeries(2, 2, 2, 1, {(): np.eye(2), (1,): 0.5 * np.eye(2)})
    with pytest.raises(ShapeMismatchError, match="length 2 != 4 rows"):
        sing_membership(H, LEVEL2, [1.0, 0.0])
    assert sing_membership(H, LEVEL2, np.ones(4))[0] is False


def test_compress_to_finite_refuses_a_polynomial_over_another_alphabet():
    p = NcSeries(3, 1, 1, 1, {(): 1.0, (3,): -2.0})
    with pytest.raises(AlphabetMismatchError, match="d=3 at a point over d=2"):
        compress_to_finite(LEVEL2, [1.0, 0.0], p)
