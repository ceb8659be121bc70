"""The tree Cholesky eliminates the vacuum as it eliminates every length.

tests/lapack_vacuum.py keeps the pass that handed the vacuum's Schur
complement to LAPACK's batched Cholesky.  Over random data and shift sets
on both sides of the Gram's smallest eigenvalue, the row-wise vacuum
pivot must give every shift the same verdict and its factor to 1e-13 of
the reference's size.  No package path calls np.linalg.cholesky.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lapack_vacuum
from nchardy.factorization import inner_outer
from nchardy.fockspace import (
    FockBasis,
    _tree_elimination,
    toeplitz_data,
    toeplitz_max_bound,
    toeplitz_min_eig,
    toeplitz_vacuum_schur,
)
from nchardy.ncseries import NcSeries

# shift offsets in units of the spectrum's bracketed width: below
# lambda_min every shift passes, above it every shift fails
BELOW = [-1.0, -0.5, -0.1, -0.02]
ABOVE = [0.02, 0.1, 0.5, 1.0]


@st.composite
def shifted_data(draw):
    d, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    deg = draw(st.integers(0, 3 if d < 3 else 2))
    k = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = {w: rng.standard_normal((q, q))
              + 1j * rng.standard_normal((q, q))
              for w in FockBasis(d, deg).words}
    coeffs[()] = coeffs[()] + draw(st.sampled_from([0.0, 3.0])) * np.eye(q)
    t = toeplitz_data(NcSeries(d, q, q, deg, coeffs))
    lam = toeplitz_min_eig(t, d, k)
    # the bracket's width, and |lambda_min| where the bracket is closed
    width = toeplitz_max_bound(t, d, k) - lam + abs(lam)
    offsets = [draw(st.sampled_from(BELOW)), draw(st.sampled_from(ABOVE)),
               *draw(st.lists(st.sampled_from(BELOW + ABOVE), max_size=4))]
    return t, d, k, [lam + c * width for c in offsets]


@settings(max_examples=150, deadline=None)
@given(shifted_data())
def test_vacuum_pivot_matches_the_lapack_vacuum(case):
    t, d, k, shifts = case
    fail, C = _tree_elimination(t, d, k, shifts)
    want_fail, want = lapack_vacuum._tree_elimination(t, d, k, shifts)
    assert fail == want_fail
    assert {f < 0 for f in fail} == {True, False}
    for j, f in enumerate(fail):
        if f >= 0:
            assert np.isnan(C[j]).all() and np.isnan(want[j]).all()
        else:
            assert np.array_equal(C[j], np.tril(C[j]))
            err = np.abs(C[j] - want[j]).max()
            assert err <= 1e-13 * np.abs(want[j]).max(), (j, err)


def test_no_path_calls_lapack_cholesky(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky was called")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    f = NcSeries(2, 2, 2, 4, {(): [[2.0, 0.3], [0.1j, 1.5]],
                              (1,): [[0.1, 0.2], [0.0, 0.3]],
                              (2, 1): [[0.2, -0.4], [0.5, 0.1]]})
    t = toeplitz_data(f)
    assert toeplitz_min_eig(t, 2, 2) > 0
    assert toeplitz_vacuum_schur(t, 2, 2).shape == (2, 2)
    for H in (f, NcSeries(2, 1, 1, 5, {(): 1.0, (1,): 0.3, (2, 1): 0.4j})):
        assert inner_outer(H).defects["reconstruction_error"] <= 1e-13
