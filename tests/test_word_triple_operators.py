"""Operators built from word codes against the loops they replaced.

mult_operator (also as the left shifts, multiplication by z_k) scatters
the splits of ncseries._prefix_pairs, and sing_space_complement reads
the series_to_vec layout.  The tuple-keyed loops they replaced are kept
here, not in the package, as references; the new code must reproduce
them bitwise, except that sing_space_complement's frame comes from an SVD
rather than the reference's pivoted QR, so the two must span the same
space.
"""

import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nchardy.errors import ShapeMismatchError
from nchardy.evaluate import random_point
from nchardy.factorization import inner_outer
from nchardy.fockspace import (
    RANK_REL,
    FockBasis,
    _mult_columns,
    mult_operator,
)
from nchardy.kernels import (
    SingularityPair,
    sing_space_complement,
    standard_probes,
    szego_kernel,
)
from nchardy.ncseries import NcSeries, rescale, series_mul
from nchardy.transforms import semigroup_inner

from fock_helpers import column_indices


def loop_mult_operator(f, basis):
    """Reference: every coefficient of f against every basis word."""
    p, q = f.rows, f.cols
    N = basis.max_degree
    M = np.zeros((basis.dim * p, basis.dim * q), dtype=complex)
    words, index = basis.words, basis.index
    for alpha, m in f.coeffs.items():
        la = len(alpha)
        if la > N:
            continue
        for j, beta in enumerate(words):
            if la + len(beta) > N:
                continue
            i = index[alpha + beta]
            M[i * p:(i + 1) * p, j * q:(j + 1) * q] += m
    return M, N - min(f.degree(), N)


def left_shift_matrix(basis, k):
    """L_k: e_w -> e_{kw}, zero on the top degree: multiplication by z_k."""
    return mult_operator(NcSeries.monomial((k,), basis.d), basis).mat.real


def loop_left_shift_matrix(basis, k):
    """Reference: L_k word by word."""
    L = np.zeros((basis.dim, basis.dim))
    index = basis.index
    for j, w in enumerate(basis.words):
        if len(w) < basis.max_degree:
            L[index[(k,) + w], j] = 1.0
    return L


def loop_sing_space_complement(pairs, probes=None, N=8, rel=RANK_REL):
    """Reference: kernel columns filled word by word."""
    d = pairs[0].Z.d
    basis = FockBasis(d, N)
    index = basis.index
    cols = []
    for pair in pairs:
        vs = probes if probes is not None else standard_probes(pair.level)
        for v in vs:
            K = szego_kernel(pair.Z, pair.y, v, N)
            vec = np.zeros(basis.dim, dtype=complex)
            for w, m in K.series.coeffs.items():
                vec[index[w]] = m[0, 0]
            cols.append(vec)
    A = np.array(cols).T
    Q, R, _ = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros((basis.dim, 0), dtype=complex)
    r = int(np.sum(diag > rel * diag[0]))
    return Q[:, :r]


def cgauss(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_series(rng, d, N, rows=1, cols=1, deg=None, density=0.7):
    """Complex Gaussian coefficients on a random support through degree
    deg (default N), always holding the vacuum and a top-degree word."""
    deg = N if deg is None else deg
    words = FockBasis(d, deg).words
    keep = {(), words[-1 - rng.integers(d ** deg)]}
    keep |= {w for w in words if rng.random() < density}
    return NcSeries(d, rows, cols, N, {
        w: rng.standard_normal((rows, cols))
        + 1j * rng.standard_normal((rows, cols)) for w in keep})


@functools.lru_cache(maxsize=None)
def dense_inner():
    """Inner factor of 1 - sqrt(2) (a . z) over d = 3 at N = 5: supported
    on all 364 words of length <= 5."""
    rng = np.random.default_rng(5)
    a = cgauss(rng, 3)
    a *= -np.sqrt(2) / np.linalg.norm(a)
    H = NcSeries(3, 1, 1, 5, {(): 1.0, (1,): a[0], (2,): a[1], (3,): a[2]})
    return inner_outer(H).inner


def corpus():
    """(id, f, basis degree) over alphabets, shapes and basis degrees."""
    out = []
    for d, N in ((1, 5), (2, 3), (3, 3)):
        for rows, cols in ((1, 1), (2, 3)):
            rng = np.random.default_rng(100 * d + rows)
            f = random_series(rng, d, N, rows, cols)
            for basis_N in (N - 1, N, N + 1):
                out.append((f"d{d}-{rows}x{cols}-N{N}-basis{basis_N}",
                            f, basis_N))
    z1 = NcSeries.monomial((1,), 2, 8)
    for r in (0.5, 0.9):
        out.append((f"semigroup-z1-r{r}",
                    rescale(semigroup_inner(z1, 0.7, 8), r), 8))
    B = dense_inner()
    for r in (1.0, 0.9):
        out.append((f"dense-inner-r{r}", rescale(B, r), 5))
    return out


CORPUS = corpus()


@pytest.mark.parametrize("f, basis_N", [c[1:] for c in CORPUS],
                         ids=[c[0] for c in CORPUS])
def test_mult_operator_matches_word_loop(f, basis_N):
    basis = FockBasis(f.d, basis_N)
    op = mult_operator(f, basis)
    want, valid = loop_mult_operator(f, basis)
    assert op.mat.dtype == want.dtype
    assert np.array_equal(op.mat, want)
    assert op.valid_degree == valid
    assert (op.rows, op.cols) == (f.rows, f.cols)


@pytest.mark.parametrize("d, N", [(1, 5), (2, 4), (3, 3)])
@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_column_scatter_is_the_leading_columns_of_mult_operator(d, N, p, q):
    rng = np.random.default_rng(10 * d + 3 * p + q)
    basis = FockBasis(d, N)
    # deg N + 2 stores words past the basis degree, which no column meets
    series = [random_series(rng, d, max(deg, N), p, q, deg=deg)
              for deg in (0, N - 1, N, N + 2)]
    for f in series + [NcSeries(d, p, q, N, {})]:
        M = loop_mult_operator(f, basis)[0]
        assert np.array_equal(mult_operator(f, basis).mat, M)
        for k in range(N + 1):
            cols = _mult_columns(f, basis, k)
            assert cols.dtype == M.dtype
            assert np.array_equal(cols, M[:, :basis.degree_start(k + 1) * q])


def test_dense_inner_fills_every_word():
    assert len(dense_inner().coeffs) == 364


def test_mult_operator_rejects_alphabet_mismatch():
    f = NcSeries.monomial((1,), 2, 3)
    with pytest.raises(ShapeMismatchError, match="alphabet"):
        mult_operator(f, FockBasis(3, 3))
    for k in (0, 2):
        with pytest.raises(ShapeMismatchError, match="alphabet"):
            _mult_columns(f, FockBasis(1, 3), k)


@pytest.mark.parametrize("d, N", [(1, 0), (1, 4), (2, 1), (2, 4), (3, 3)])
def test_left_shift_matrix_matches_word_loop(d, N):
    basis = FockBasis(d, N)
    for k in range(1, d + 1):
        L = left_shift_matrix(basis, k)
        want = loop_left_shift_matrix(basis, k)
        assert L.dtype == want.dtype
        assert np.array_equal(L, want)


@pytest.mark.parametrize("d, N, levels, num_probes", [
    (1, 4, (1, 2, 3), 0), (2, 5, (1, 2, 3), 0), (2, 4, (2, 2, 2), 2),
    (3, 3, (1, 2, 3), 0)])
def test_sing_space_complement_matches_word_loop(d, N, levels, num_probes):
    rng = np.random.default_rng(7 * d + N)
    pairs = [SingularityPair(random_point(rng, d, n, 0.6), cgauss(rng, n))
             for n in levels]
    probes = [cgauss(rng, levels[0]) for _ in range(num_probes)] or None
    got = sing_space_complement(pairs, probes=probes, N=N)
    want = loop_sing_space_complement(pairs, probes=probes, N=N)
    assert got.shape[1] > 0
    assert got.shape == want.shape
    assert np.abs(got @ got.conj().T - want @ want.conj().T).max() <= 1e-13


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 2), N=st.integers(1, 4),
       deg_f=st.integers(0, 2), deg_g=st.integers(0, 2),
       shape=st.tuples(*[st.integers(1, 2)] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mult_operator_is_multiplicative_on_window(d, N, deg_f, deg_g,
                                                    shape, seed):
    # M_f M_g is exact on columns whose products stay inside degree N
    deg_f = min(deg_f, N)
    deg_g = min(deg_g, N - deg_f)
    p, r, q = shape
    rng = np.random.default_rng(seed)
    f = random_series(rng, d, N, p, r, deg=deg_f)
    g = random_series(rng, d, N, r, q, deg=deg_g)
    basis = FockBasis(d, N)
    window = N - deg_f - deg_g
    Mg = mult_operator(g, basis)
    cols = column_indices(Mg, window)
    lhs = mult_operator(f, basis).mat @ Mg.mat[:, cols]
    rhs = mult_operator(series_mul(f, g), basis).mat[:, cols]
    scale = 1.0 + np.abs(rhs).max()
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12 * scale)
