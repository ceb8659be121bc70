"""A series is checked where it enters and adopted as built after that.

Three checks of the trusted construction path: series_invert, the right
quotient of the identity, stores exactly the words of the candidate-set
recursion that the earlier left recursion replaced, each within 1e-15 of
the largest entry; the letter checks of a derived computation do not grow
with the truncation order; and a derived series owns its dict, so
rebinding its entries never reaches the source.
"""

import numpy as np
import pytest

from nchardy import ncseries
from nchardy.factorization import spectral_outer
from nchardy.fockspace import FockBasis
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    series_add,
    series_invert,
)
from nchardy.transforms import semigroup_inner


def candidate_set_invert(f, max_degree):
    """Inverse coefficients by the former recursion: at each degree, the
    candidate words u.v (u nonconstant in f, v stored in g) are visited in
    sorted order, and each scans every u of f for a prefix match."""
    f0inv = np.linalg.inv(f.coeffs[()])
    supp_plus = [(w, m) for w, m in f.coeffs.items() if len(w) > 0]
    g = {(): f0inv}
    by_degree = {0: [()]}
    for deg in range(1, max_degree + 1):
        candidates = set()
        for u, _ in supp_plus:
            if len(u) <= deg:
                for v in by_degree.get(deg - len(u), ()):
                    candidates.add(u + v)
        level = []
        for w in sorted(candidates):
            acc = None
            for u, fu in supp_plus:
                lu = len(u)
                if lu > len(w) or w[:lu] != u:
                    continue
                gv = g.get(w[lu:])
                if gv is None:
                    continue
                term = fu @ gv
                acc = term if acc is None else acc + term
            if acc is None:
                continue
            gw = -(f0inv @ acc)
            if np.any(gw):
                g[w] = gw
                level.append(w)
        if level:
            by_degree[deg] = level
    return g


def cgauss(rng, shape=None):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_poly(d, N, seed):
    """3 plus Gaussian coefficients on every word of length 1 and 2: an
    invertible constant term, and an inverse on every word."""
    rng = np.random.default_rng(seed)
    words = FockBasis(d, 2).words
    coeffs = {w: cgauss(rng) for w in words[1:]}
    coeffs[()] = 3.0
    return NcSeries(d, 1, 1, N, coeffs)


def dense_outer(d, N, seed):
    """The outer factor of dense_poly at order N, as inner_outer inverts
    it: degree 2, stored on every word, truncated at N."""
    return spectral_outer(dense_poly(d, 2, seed)).with_max_degree(N)


def matrix_series(seed):
    rng = np.random.default_rng(seed)
    coeffs = {(): 2.0 * np.eye(2) + 0.3 * cgauss(rng, (2, 2))}
    for w in [(1,), (2,), (2, 1), (1, 1, 2)]:
        coeffs[w] = cgauss(rng, (2, 2))
    return NcSeries(2, 2, 2, 6, coeffs)


INVERT_CASES = {
    # 1 - c z1 z2: the inverse lives on the powers of z1 z2 alone
    "z1z2_N30": (NcSeries(2, 1, 1, 30, {(): 1.0, (1, 2): 0.5 + 0.3j}), 30),
    "outer_d2_N8": (dense_outer(2, 8, 1), 8),
    "outer_d3_N5": (dense_outer(3, 5, 2), 5),
    "matrix_2x2": (matrix_series(3), 6),
    # 1/(1 + z + z^2) = (1 - z)/(1 - z^3): the terms at z^2, z^5, ...
    # cancel exactly, so those words are never stored
    "cancellations": (NcSeries(2, 1, 1, 9, {(): 1.0, (1,): 1.0,
                                             (1, 1): 1.0}), 9),
    "above_N_f": (dense_poly(2, 4, 4), 7),
    "below_N_f": (dense_poly(2, 6, 5), 3),
}


@pytest.mark.parametrize("name", sorted(INVERT_CASES))
def test_degree_recursion_matches_candidate_sets_bitwise(name):
    f, N = INVERT_CASES[name]
    got = series_invert(f, N)
    want = candidate_set_invert(f, N)
    assert got.max_degree == N
    assert list(got.coeffs) == list(want)
    top = max(float(np.abs(m).max()) for m in want.values())
    for w, m in want.items():
        assert np.abs(got.coeffs[w] - m).max() <= 1e-15 * top, w


def test_exact_cancellations_leave_words_out():
    f, N = INVERT_CASES["cancellations"]
    g = series_invert(f, N)
    assert (1, 1) not in g.coeffs and (1,) * 5 not in g.coeffs
    assert g.scalar_coeff((1,) * 3) == 1.0


def count_letter_checks(monkeypatch, run):
    calls = []
    check = ncseries._check_letters

    def counting(*args):
        calls.append(args)
        return check(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ncseries, "_check_letters", counting)
        run()
    return len(calls)


def test_letter_checks_do_not_grow_with_the_truncation(monkeypatch):
    counts = {}
    for N in (6, 10):
        V = commutator_inner(max_degree=N)
        counts[N] = count_letter_checks(
            monkeypatch, lambda: semigroup_inner(V, 0.5, N))
    assert counts[10] <= counts[6], counts


def source_series():
    rng = np.random.default_rng(7)
    coeffs = {w: cgauss(rng, (2, 2)) for w in [(), (1,), (2, 1), (1, 2, 2)]}
    coeffs[(2,)] = 1e-20 * np.ones((2, 2))
    return NcSeries(2, 2, 2, 4, coeffs)


DERIVED = {
    "truncate": lambda f: f.truncate(2),
    "with_max_degree": lambda f: f.with_max_degree(6),
    "prune": lambda f: f.prune(),
    "scale": lambda f: f.scale(1.0),
    "series_add": lambda f: series_add(f, NcSeries.zero(2, 2, 2, 4)),
    "copy": lambda f: f.copy(),
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_rebinding_a_derived_entry_leaves_the_source(name):
    f = source_series()
    before = {w: m.copy() for w, m in f.coeffs.items()}
    g = DERIVED[name](f)
    assert g.coeffs is not f.coeffs
    with pytest.raises(TypeError):
        g.coeffs[()] = np.zeros((2, 2), dtype=complex)
    with pytest.raises(TypeError):
        g.coeffs[(2, 2)] = np.ones((2, 2), dtype=complex)
    with pytest.raises(TypeError):
        del g.coeffs[(1,)]
    assert list(f.coeffs) == list(before)
    for w, m in before.items():
        assert np.array_equal(f.coeffs[w], m)


def test_copy_shares_no_array():
    f = source_series()
    g = f.copy()
    for w, m in f.coeffs.items():
        assert np.array_equal(g.coeffs[w], m)
        assert not np.shares_memory(g.coeffs[w], m)
