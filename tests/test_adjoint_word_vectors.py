"""Szego kernels and compressed pairs against the word loops they replaced.

szego_kernel, sing_space_complement and compress_to_finite all read the
adjoint word vectors (Z^w)* y from one batched recursion over the degrees.
The references below are the earlier per-word loops, kept here as
test-local copies: a prepend walk over tuple-keyed words for the kernel
coefficients (Z^w v)* y, and an adjoint walk for the compression frame.
"""

import numpy as np
import pytest

from nchardy.errors import ShapeMismatchError
from nchardy.evaluate import MatrixPoint, evaluate, random_point
from nchardy.fockspace import FockBasis, orthonormal_frame
from nchardy.kernels import (
    SingularityPair,
    _adjoint_word_vectors,
    compress_to_finite,
    search_singularities,
    sing_closure_direct_sum,
    sing_membership,
    sing_space_complement,
    szego_kernel,
)
from nchardy.ncseries import NcSeries, h2_norm

BILINEAR = NcSeries(2, 1, 1, 4, {(): 1.0, (1, 2): -2.0})


def word_product(Z, word):
    """Z^w, multiplying letters left to right; the empty word gives I."""
    P = np.eye(Z.n, dtype=complex)
    for a in word:
        P = P @ Z.mats[a - 1]
    return P


def reference_szego_coeffs(Z, y, v, N):
    """The earlier szego_kernel: words grow by prepending a letter, and
    exact zeros are not stored."""
    coeffs = {}
    level = {(): v.copy()}
    c0 = complex(v.conj() @ y)
    if c0 != 0.0:
        coeffs[()] = c0
    for _ in range(N):
        nxt = {}
        for w, vec in level.items():
            for k in range(1, Z.d + 1):
                nw = (k,) + w
                nvec = Z[k - 1] @ vec
                nxt[nw] = nvec
                c = complex(nvec.conj() @ y)
                if c != 0.0:
                    coeffs[nw] = c
        level = nxt
    return coeffs


def reference_adjoint_columns(Z, y, m):
    """The earlier compress_to_finite's columns, grown by an adjoint walk."""
    cols = [y.copy()]
    level = [y.copy()]
    for _ in range(m):
        nxt = []
        for vec in level:
            for k in range(Z.d):
                w = Z[k].conj().T @ vec
                nxt.append(w)
                cols.append(w)
        level = nxt
    return np.array(cols).T


def reference_compress(Z, y, p):
    Q = orthonormal_frame(reference_adjoint_columns(Z, y, p.degree()))
    return MatrixPoint([Q.conj().T @ M @ Q for M in Z.mats]), Q.conj().T @ y


def cgauss(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


CASES = [(d, n, N) for d in (1, 2, 3) for n in (1, 2, 3)
         for N in (0, 1, 3, 6)] + [(1, n, N) for n in (1, 2, 3)
                                   for N in (12, 20)]


@pytest.mark.parametrize("d, n, N", CASES)
def test_szego_kernel_matches_word_loop(d, n, N):
    rng = np.random.default_rng(100 * d + 10 * n + N)
    Z = random_point(rng, d, n, 0.9)
    y, v = cgauss(rng, n), cgauss(rng, n)
    K = szego_kernel(Z, y, v, N)
    want = reference_szego_coeffs(Z, y, v, N)
    assert set(K.series.coeffs) == set(want)
    scale = np.linalg.norm(y) * np.linalg.norm(v)
    err = max(abs(K.coeff(w) - c) for w, c in want.items())
    assert err <= 1e-14 * scale
    ref_norm = np.sqrt(sum(abs(c) ** 2 for c in want.values()))
    assert abs(h2_norm(K.series) - ref_norm) <= 1e-14 * ref_norm


def test_nilpotent_point_drops_vanishing_coefficients():
    # strictly upper triangular 3 x 3 letters: every word of length >= 3
    # multiplies to the exact zero matrix
    rng = np.random.default_rng(3)
    mats = [np.triu(rng.standard_normal((3, 3))
                    + 1j * rng.standard_normal((3, 3)), 1) for _ in range(2)]
    Z = MatrixPoint(mats).scale(0.5 / MatrixPoint(mats).row_norm())
    y, v = cgauss(rng, 3), cgauss(rng, 3)
    K = szego_kernel(Z, y, v, 6)
    want = reference_szego_coeffs(Z, y, v, 6)
    assert set(K.series.coeffs) == set(want)
    assert want and max(len(w) for w in want) <= 2
    err = max(abs(K.coeff(w) - c) for w, c in want.items())
    assert err <= 1e-14 * np.linalg.norm(y) * np.linalg.norm(v)


@pytest.mark.parametrize("d, n, m", [(1, 3, 5), (2, 2, 4), (3, 3, 3)])
def test_adjoint_word_vectors_follow_fock_order(d, n, m):
    rng = np.random.default_rng(d + n + m)
    Z = random_point(rng, d, n, 0.9)
    y = cgauss(rng, n)
    U = _adjoint_word_vectors(Z, y, m)
    basis = FockBasis(d, m)
    assert U.shape == (basis.dim, n)
    want = reference_adjoint_columns(Z, y, m).T
    assert np.max(np.abs(U - want)) <= 1e-14 * np.linalg.norm(y)
    for i, w in enumerate(basis.words):
        assert np.allclose(U[i], word_product(Z, w).conj().T @ y,
                           rtol=0.0, atol=1e-14 * np.linalg.norm(y))


def bilinear_members():
    """Members of the locus of 1 - 2 z1 z2: a search at level 2 and the
    hand-built pair stacked onto a spare point with weight 0."""
    members = search_singularities(
        BILINEAR, 2, trials=20, rng=np.random.default_rng(31), max_members=2)
    a = 1.0 / np.sqrt(2.0)
    pair = SingularityPair(MatrixPoint([np.array([[0.0, a], [0.0, 0.0]]),
                                        np.array([[0.0, 0.0], [a, 0.0]])]),
                           np.array([1.0, 0.0]))
    rng = np.random.default_rng(4)
    spare = SingularityPair(random_point(rng, 2, 2, 0.5), cgauss(rng, 2))
    return members + [pair, sing_closure_direct_sum(pair, spare, c=0.0)]


def test_compression_matches_adjoint_walk_and_keeps_membership():
    members = bilinear_members()
    assert len(members) >= 3
    for pair in members:
        X, x = compress_to_finite(pair.Z, pair.y, BILINEAR)
        Xr, xr = reference_compress(pair.Z, pair.y, BILINEAR)
        assert X.n == Xr.n <= pair.level
        ok, _ = sing_membership(BILINEAR, X, x)
        assert ok
        # the frames may differ by a unitary; the Grams of the adjoint word
        # vectors of the compressed pairs cannot
        U = _adjoint_word_vectors(X, x, 2)
        Ur = _adjoint_word_vectors(Xr, xr, 2)
        assert np.allclose(U @ U.conj().T, Ur @ Ur.conj().T,
                           rtol=0.0, atol=1e-13)
        assert np.isclose(np.linalg.norm(x), np.linalg.norm(pair.y),
                          rtol=1e-14)
        lhs = np.linalg.norm(evaluate(BILINEAR, X).conj().T @ x)
        rhs = np.linalg.norm(evaluate(BILINEAR, pair.Z).conj().T @ pair.y)
        assert abs(lhs - rhs) <= 1e-12


def test_sing_space_complement_refuses_a_probe_of_the_wrong_length():
    rng = np.random.default_rng(5)
    pair = SingularityPair(random_point(rng, 2, 2, 0.6), cgauss(rng, 2))
    with pytest.raises(ShapeMismatchError, match="probe length 3"):
        sing_space_complement([pair], probes=[np.ones(3)], N=4)


def test_sing_space_complement_refuses_mixed_alphabets():
    rng = np.random.default_rng(6)
    pairs = [SingularityPair(random_point(rng, 1, 2, 0.6), cgauss(rng, 2)),
             SingularityPair(random_point(rng, 3, 2, 0.6), cgauss(rng, 2))]
    with pytest.raises(ShapeMismatchError, match="alphabets"):
        sing_space_complement(pairs, N=3)
