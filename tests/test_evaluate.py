"""Matrix-point evaluation: homomorphism checks and admissibility."""

import gc

import numpy as np
import pytest

from nchardy.errors import (
    AdmissibilityWarning,
    InadmissiblePointError,
    SchemaError,
    ShapeMismatchError,
)
from nchardy.evaluate import (
    MatrixPoint,
    direct_sum_points,
    evaluate,
    evaluate_batch,
    pair_from_json_dict,
    point_from_json_dict,
    point_to_json_dict,
    random_point,
    random_points,
    tail_bound,
    vector_from_json,
    vector_to_json,
)
from nchardy.ncseries import NcSeries, series_invert, series_mul


def word_product(Z, word):
    """Z^w, multiplying letters left to right; the empty word gives I."""
    P = np.eye(Z.n, dtype=complex)
    for a in word:
        P = P @ Z.mats[a - 1]
    return P


def pair_to_json_dict(Z, y):
    return {"Z": point_to_json_dict(Z), "y": vector_to_json(y)}


def nilpotent_pair(a=0.5, b=0.5):
    Z1 = np.array([[0.0, a], [0.0, 0.0]])
    Z2 = np.array([[0.0, 0.0], [b, 0.0]])
    return MatrixPoint([Z1, Z2])


def test_row_norm_of_shift_pair():
    Z = nilpotent_pair(0.3, 0.4)
    assert abs(Z.row_norm() - 0.4) < 1e-14


def test_word_product_order_is_left_to_right():
    Z = nilpotent_pair()
    P = evaluate(NcSeries.monomial((1, 2), 2), Z)
    assert abs(P[0, 0] - 0.25) < 1e-15
    P_rev = evaluate(NcSeries.monomial((2, 1), 2), Z)
    assert abs(P_rev[1, 1] - 0.25) < 1e-15
    assert not np.allclose(P, P_rev)


def test_evaluate_monomial_matches_word_product():
    Z = nilpotent_pair(0.4, 0.6)
    f = NcSeries.monomial((2, 1), 2, 3)
    assert np.allclose(evaluate(f, Z), word_product(Z, (2, 1)))


def test_evaluate_is_multiplicative_on_polynomials():
    rng = np.random.default_rng(11)
    Z = random_point(rng, 2, 3, 0.6)
    f = NcSeries(2, 1, 1, 6, {(): 0.3, (1,): 1.0, (2, 2): -0.7j})
    g = NcSeries(2, 1, 1, 6, {(2,): 0.5, (1, 2): 1.0})
    lhs = evaluate(series_mul(f, g, 6), Z)
    rhs = evaluate(f, Z) @ evaluate(g, Z)
    assert np.linalg.norm(lhs - rhs) < 1e-13


def test_evaluate_d1_is_polynomial_value():
    f = NcSeries(1, 1, 1, 3, {(): 2.0, (1,): -1.0, (1, 1, 1): 0.5})
    z = 0.3 + 0.4j
    val = evaluate(f, MatrixPoint([np.array([[z]])]))
    assert abs(val[0, 0] - (2.0 - z + 0.5 * z ** 3)) < 1e-15


def test_direct_sum_evaluation_is_block_diagonal():
    rng = np.random.default_rng(12)
    Z = random_point(rng, 2, 2, 0.5)
    W = random_point(rng, 2, 3, 0.4)
    f = NcSeries(2, 1, 1, 4, {(1,): 1.0, (2, 1): -0.5, (1, 1, 2): 0.25j})
    big = evaluate(f, direct_sum_points([Z, W]))
    assert np.allclose(big[:2, :2], evaluate(f, Z))
    assert np.allclose(big[2:, 2:], evaluate(f, W))
    assert not np.any(big[:2, 2:])


def test_matrix_series_uses_kron_layout():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = NcSeries.constant(A, 2, 1)
    Z = nilpotent_pair()
    assert np.allclose(evaluate(f, Z), np.kron(A, np.eye(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan)])
def test_non_finite_point_is_inadmissible(bad):
    # a NaN row norm is not below 1, so no NaN value leaves the gate
    Z = MatrixPoint([[[0.1, bad], [0.0, 0.0]], 0.1 * np.eye(2)])
    f = NcSeries.monomial((1,), 2)
    with pytest.raises(InadmissiblePointError):
        evaluate(f, Z)


def test_inadmissible_point_rejected():
    Z = MatrixPoint([np.eye(2), np.zeros((2, 2))])
    f = NcSeries.monomial((1,), 2)
    with pytest.raises(InadmissiblePointError) as info:
        evaluate(f, Z)
    assert info.value.row_norm >= 1.0
    # the gate can be bypassed explicitly
    out = evaluate(f, Z, check_admissible=False)
    assert np.allclose(out, np.eye(2))


def test_near_boundary_warns():
    Z = MatrixPoint([0.995 * np.eye(1), np.zeros((1, 1))])
    f = NcSeries.monomial((1,), 2)
    with pytest.warns(AdmissibilityWarning):
        evaluate(f, Z)


def test_alphabet_mismatch():
    f = NcSeries.monomial((1,), 2)
    with pytest.raises(ShapeMismatchError):
        evaluate(f, MatrixPoint([np.zeros((2, 2))]))


def test_nilpotent_evaluation_ignores_truncation():
    # Z kills all words of length >= 2 here, so any two truncations of the
    # same inverse agree exactly at Z
    Z = MatrixPoint([np.array([[0.0, 0.5], [0.0, 0.0]]),
                     np.array([[0.0, 0.25], [0.0, 0.0]])])
    one_minus = NcSeries(2, 1, 1, 8, {(): 1.0, (1,): -0.5, (2,): -0.25})
    f_long = series_invert(one_minus, 8)
    f_short = series_invert(one_minus.with_max_degree(3), 3)
    assert np.allclose(evaluate(f_long, Z), evaluate(f_short, Z))


def kron_reference(f, Z):
    """Per-point evaluation sum_w kron(f_w, Z^w), one word at a time."""
    out = np.zeros((f.rows * Z.n, f.cols * Z.n), dtype=complex)
    for w, m in f.coeffs.items():
        out += np.kron(m, word_product(Z, w))
    return out


def _cmat(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (1, 2)])
def test_evaluate_batch_matches_kron_reference(rows, cols):
    rng = np.random.default_rng(17)
    words = [(), (1,), (2, 1), (1, 1, 2), (2, 2, 1, 2)]
    f = NcSeries(2, rows, cols, 4,
                 {w: _cmat(rng, (rows, cols)) for w in words})
    stacks = random_points(rng, 2, (3, 1, 2, 2, 1, 3, 3), 0.8)
    assert [Zs.shape for Zs in stacks] == [
        (2, 2, 1, 1), (2, 2, 2, 2), (3, 2, 3, 3)]
    for Zs in stacks:
        n = Zs.shape[-1]
        vals = evaluate_batch(f, Zs)
        assert vals.shape == (Zs.shape[0], rows * n, cols * n)
        for Z, val in zip(Zs, vals):
            ref = kron_reference(f, MatrixPoint(Z))
            assert np.linalg.norm(val - ref) <= 1e-13 * np.linalg.norm(ref)


def test_evaluate_batch_zero_series_and_empty_list():
    rng = np.random.default_rng(18)
    for Zs in random_points(rng, 2, (1, 2), 0.5):
        n = Zs.shape[-1]
        vals = evaluate_batch(NcSeries.zero(2, 2, 3, 2), Zs)
        assert vals.shape == (1, 2 * n, 3 * n)
        assert not np.any(vals)
    # an empty stack of points still has its size and alphabet
    empty = evaluate_batch(NcSeries.monomial((1,), 2), np.zeros((0, 2, 3, 3)))
    assert empty.shape == (0, 3, 3)


def test_evaluate_batch_admissibility_gate():
    rng = np.random.default_rng(19)
    f = NcSeries.monomial((1, 2), 2)
    good, = random_points(rng, 2, (2, 2, 2), 0.5)
    bad, = random_points(rng, 2, (2,), 1.01)
    with pytest.raises(InadmissiblePointError) as info:
        evaluate_batch(f, np.concatenate([good, bad]))
    assert info.value.row_norm >= 1.0
    near, = random_points(rng, 2, (2,), 0.995)
    with pytest.warns(AdmissibilityWarning):
        evaluate_batch(f, np.concatenate([good, near]))


def test_evaluate_batch_frees_its_word_products_on_return():
    # the Horner levels of a chunk can reach megabytes; left in a
    # reference cycle, they live until the cyclic collector happens to run
    f = NcSeries(2, 1, 1, 3, {(): 1.0, (1, 2): 0.5, (2, 1, 1): 0.25})
    Zs, = random_points(np.random.default_rng(20), 2, (2, 2, 2), 0.5)
    gc.collect()
    gc.disable()
    try:
        evaluate_batch(f, Zs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("shape", [(3, 1, 2, 2), (3, 2, 2, 3), (2, 2, 2)])
def test_evaluate_batch_rejects_malformed_stacks(shape):
    with pytest.raises(ShapeMismatchError):
        evaluate_batch(NcSeries.monomial((1,), 2), np.zeros(shape))


def test_tail_bound_dominates_true_tail():
    q, s, N = 0.9, 0.5, 6
    f = NcSeries(1, 1, 1, N, {(1,) * k: q ** k for k in range(N + 1)})
    true_tail = (q * s) ** (N + 1) / (1.0 - q * s)
    assert true_tail <= tail_bound(f, s)
    with pytest.raises(ValueError):
        tail_bound(f, 1.0)


def test_random_point_hits_requested_norm():
    rng = np.random.default_rng(13)
    Z = random_point(rng, 3, 4, 0.7)
    assert abs(Z.row_norm() - 0.7) < 1e-12
    assert Z.d == 3 and Z.n == 4


def test_point_json_round_trip():
    rng = np.random.default_rng(14)
    Z = random_point(rng, 2, 2, 0.5)
    back = point_from_json_dict(point_to_json_dict(Z))
    for k in range(2):
        assert np.allclose(back[k], Z[k])


def test_pair_json_round_trip():
    rng = np.random.default_rng(15)
    Z = random_point(rng, 2, 3, 0.4)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    Z2, y2 = pair_from_json_dict(pair_to_json_dict(Z, y))
    assert np.allclose(y2, y)
    assert np.allclose(Z2[1], Z[1])


@pytest.mark.parametrize("mutate, where", [
    (lambda o: o.pop("n"), "point"),
    (lambda o: o.update(n=True), "point.n"),
    (lambda o: o.update(extra=1), "point"),
    (lambda o: o["Z"].pop(), "point.Z"),
])
def test_point_schema_errors(mutate, where):
    rng = np.random.default_rng(16)
    obj = point_to_json_dict(random_point(rng, 2, 2, 0.5))
    mutate(obj)
    with pytest.raises(SchemaError) as info:
        point_from_json_dict(obj)
    assert info.value.path == where


def test_point_matrix_shape_error():
    obj = point_to_json_dict(nilpotent_pair())
    obj["Z"][1] = [[[0.0, 0.0]]]
    with pytest.raises(SchemaError) as info:
        point_from_json_dict(obj)
    assert "Z[1]" in info.value.path


def test_vector_schema():
    v = vector_from_json([[1.0, 0.0], [0.0, -2.0]], 2, "y")
    assert np.allclose(v, [1.0, -2.0j])
    with pytest.raises(SchemaError):
        vector_from_json([[1.0, 0.0]], 2, "y")
    with pytest.raises(SchemaError):
        vector_from_json("nope", 2, "y")


def test_mixed_size_matrices_rejected():
    with pytest.raises(ShapeMismatchError):
        MatrixPoint([np.zeros((2, 2)), np.zeros((3, 3))])
