"""Truncated Fock-space operators against shift-action oracles."""

import numpy as np
import pytest

from nchardy.errors import ValidityWindowError
from nchardy.fockspace import (
    FockBasis,
    OperatorMatrix,
    isometry_defect,
    mult_operator,
    numerical_rank,
    orthonormal_frame,
    series_to_vec,
    toeplitz_data,
    toeplitz_min_eig,
    validity_window,
    vec_to_series,
    wandering_dimension,
    wandering_dimension_profile,
)
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    max_coeff_diff,
    phase_normalize,
    series_mul,
)

from dense_wandering import wandering_projection, wandering_vectors
from fock_helpers import column_indices, indices_through_degree, symbol


def test_basis_enumeration_and_dimension():
    b = FockBasis(2, 3)
    assert b.dim == 1 + 2 + 4 + 8
    assert b.words[0] == ()
    assert b.words[1:3] == [(1,), (2,)]
    assert b.words[3:7] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert b.index_of((2, 1)) == 5
    assert b.degree_start(2) == 3
    assert list(indices_through_degree(b, 1)) == [0, 1, 2]


@pytest.mark.parametrize("word", [(1.7,), (2.0,), ("1",), (1, 2.9)])
def test_index_of_refuses_non_integer_letters(word):
    with pytest.raises(ValueError, match="not an integer"):
        FockBasis(2, 2).index_of(word)


@pytest.mark.parametrize("d, N", [(2.5, 3), (2, 3.7), (2.5, 3.7),
                                  (2, np.float64(3))])
def test_basis_refuses_non_integer_sizes(d, N):
    with pytest.raises(ValueError, match="not an integer"):
        FockBasis(d, N)


def test_index_of_integer_words_outside_the_basis_is_a_key_error():
    b = FockBasis(2, 2)
    assert b.index_of((np.int64(2), 1)) == 5
    for word in ((3,), (0,), (1, 1, 1)):
        with pytest.raises(KeyError):
            b.index_of(word)


def left_shift_matrix(basis, k):
    """L_k: e_w -> e_{kw}, zero on the top degree: multiplication by z_k."""
    return mult_operator(NcSeries.monomial((k,), basis.d), basis).mat.real


def test_left_shift_prepends_and_annihilates_top():
    b = FockBasis(2, 2)
    L1 = left_shift_matrix(b, 1)
    e = np.zeros(b.dim)
    e[b.index_of((2,))] = 1.0
    out = L1 @ e
    assert out[b.index_of((1, 2))] == 1.0
    assert np.sum(np.abs(out)) == 1.0
    # top degree goes to zero
    e2 = np.zeros(b.dim)
    e2[b.index_of((2, 2))] = 1.0
    assert not np.any(L1 @ e2)


def right_shift_matrix(basis, k):
    """R_k: e_w -> e_{wk}, zero on the top degree, as a loop over the
    words: built from word_triples it would compare that code with
    itself."""
    R = np.zeros((basis.dim, basis.dim))
    index = basis.index
    for j, w in enumerate(basis.words):
        if len(w) < basis.max_degree:
            R[index[w + (k,)], j] = 1.0
    return R


def test_right_shift_appends():
    b = FockBasis(2, 2)
    R2 = right_shift_matrix(b, 2)
    e = np.zeros(b.dim)
    e[b.index_of((1,))] = 1.0
    out = R2 @ e
    assert out[b.index_of((1, 2))] == 1.0


def test_shifts_are_isometries_with_orthogonal_ranges():
    b = FockBasis(2, 4)
    cut = indices_through_degree(b, 3)
    L1 = left_shift_matrix(b, 1)
    L2 = left_shift_matrix(b, 2)
    G11 = (L1.T @ L1)[np.ix_(cut, cut)]
    G12 = (L1.T @ L2)[np.ix_(cut, cut)]
    assert np.allclose(G11, np.eye(len(cut)))
    assert not np.any(G12)


def test_series_vec_round_trip():
    f = NcSeries(2, 2, 1, 3, {(1, 2): np.array([[1.0], [2.0j]])})
    b = FockBasis(2, 3)
    v = series_to_vec(f, b)
    assert v.shape == (b.dim * 2, 1)
    g = vec_to_series(v, b, rows=2)
    assert max_coeff_diff(f, g, 3) == 0.0


def test_mult_operator_symbol_and_window():
    V = commutator_inner(max_degree=5)
    op = mult_operator(V)
    assert op.valid_degree == 3
    sym = symbol(op)
    assert max_coeff_diff(sym, V, 5) == 0.0


def test_mult_operator_agrees_with_series_product():
    rng = np.random.default_rng(2)
    coeffs = {(): 0.5, (1,): complex(*rng.standard_normal(2)),
              (2, 1): complex(*rng.standard_normal(2))}
    f = NcSeries(2, 1, 1, 5, coeffs)
    g = NcSeries(2, 1, 1, 5, {(2,): 1.5, (1, 2): -0.5j})
    b = FockBasis(2, 5)
    op = mult_operator(f, b)
    direct = series_mul(f, g, 5)
    via_op = vec_to_series(op.mat @ series_to_vec(g, b), b)
    assert max_coeff_diff(direct, via_op, 5) < 1e-14


def test_isometry_defect_window_enforced():
    V = commutator_inner(max_degree=5)
    op = mult_operator(V)
    assert isometry_defect(op, 3) < 1e-14
    with pytest.raises(ValidityWindowError):
        isometry_defect(op, 4)


@pytest.mark.parametrize("limit", [-1, -2, 2.5, True])
def test_isometry_defect_refuses_a_bad_degree_limit(limit):
    # -1 read no column (0.0) and -2 wrapped round to every column (1.0)
    op = mult_operator(commutator_inner(max_degree=8))
    with pytest.raises(ValueError):
        isometry_defect(op, limit)
    if limit < 0:
        with pytest.raises(ValueError):
            op.restricted(limit)


@pytest.mark.parametrize("f", [
    NcSeries.constant(0.5, 2, 4), NcSeries.monomial((1,), 2, 4),
    commutator_inner(max_degree=5), NcSeries.monomial((2, 1, 2, 2), 2, 4),
    NcSeries(2, 1, 1, 3, {})], ids=["const", "z1", "V", "top", "zero"])
def test_validity_window_matches_the_inline_forms(f):
    m = f.degree()
    assert validity_window(f) == f.max_degree - min(m, f.max_degree)
    for N in range(7):
        got = validity_window(f, N)
        assert got == N - min(m, N)
        # truncated at N, as outer_defect and the split's B read it
        hN = f.truncate(N)
        assert validity_window(hN, N) == max(N - hN.degree(), 0)
        # _blaschke_defect only asks whether a column degree is valid
        assert (got >= 1) == (N - m >= 1)
        if m <= N:
            # inner_outer's N - m and N - outer.degree()
            assert got == N - m
        else:
            assert got == 0


def test_commutator_inner_is_isometric_on_window():
    # the flagship d=2 example at a mid-size truncation
    V = commutator_inner(max_degree=6)
    op = mult_operator(V)
    assert isometry_defect(op, op.valid_degree) < 1e-13


def test_smallest_singular_value_of_invertible_symbol():
    f = NcSeries(2, 1, 1, 4, {(): 1.0, (1,): -0.4})
    op = mult_operator(f)
    want = np.linalg.svd(op.restricted(op.valid_degree),
                         compute_uv=False)[-1]
    s = np.sqrt(toeplitz_min_eig(toeplitz_data(f), 2, op.valid_degree))
    assert s > 0.3 and abs(s - want) <= 1e-14


def test_numerical_rank_and_frame():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 3))
    B = np.concatenate([A, A @ rng.standard_normal((3, 2))], axis=1)
    assert numerical_rank(B) == 3
    Q = orthonormal_frame(B)
    assert Q.shape == (8, 3)
    assert np.allclose(Q.conj().T @ Q, np.eye(3), atol=1e-12)
    # real columns give a real frame, with the projector of the complex one
    Qc = orthonormal_frame(B.astype(complex))
    assert Q.dtype == np.float64 and Qc.dtype == np.complex128
    assert np.abs(Q @ Q.T - Qc @ Qc.conj().T).max() <= 1e-14


def test_wandering_dimension_single_generator():
    z1 = NcSeries.monomial((1,), 2, 6)
    op = mult_operator(z1)
    assert wandering_dimension(op) == 1
    V = commutator_inner(max_degree=6)
    assert wandering_dimension(mult_operator(V)) == 1


def test_wandering_dimension_two_generators():
    # row symbol [z1, z2]: the range is everything of degree >= 1, which
    # needs both coordinate shifts as generators
    coeffs = {(1,): np.array([[1.0, 0.0]]),
              (2,): np.array([[0.0, 1.0]])}
    f = NcSeries(2, 1, 2, 5, coeffs)
    op = mult_operator(f)
    assert wandering_dimension(op) == 2


def test_wandering_projection_for_shift_range():
    b = FockBasis(2, 4)
    z1 = NcSeries.monomial((1,), 2, 4)
    op = mult_operator(z1, b)
    Q = orthonormal_frame(op.restricted(op.valid_degree))
    P = wandering_projection(Q @ Q.conj().T, b)
    W, vals = wandering_vectors(P)
    assert W.shape[1] == 1
    s = vec_to_series(W[:, 0], b)
    g, _ = phase_normalize(s)
    assert max_coeff_diff(g, z1, 4) < 1e-10


def test_wandering_profile_constant_in_radius():
    # rescaling by r in (0, 1] is a column-by-column rescale, so ranks and
    # hence the generator count cannot move across the grid
    rng = np.random.default_rng(4)
    coeffs = {}
    for w in [(1,), (2,), (1, 1), (2, 1)]:
        coeffs[w] = rng.standard_normal((2, 2))
    f = NcSeries(2, 2, 2, 5, coeffs)
    prof = wandering_dimension_profile(f, [0.3, 0.5, 0.7, 0.9, 1.0])
    assert prof == [2, 2, 2, 2, 2]


def test_column_indices_layout():
    b = FockBasis(2, 2)
    f = NcSeries(2, 1, 2, 2, {(): np.array([[1.0, 0.0]])})
    op = mult_operator(f, b)
    idx = column_indices(op, 0)
    assert list(idx) == [0, 1]
