"""The ordered sum by word code and the flat word-split enumerator.

`ncseries._sum_by_code` adds each code's terms into a stack of -0.0, the
identity of +, by one np.add.at, which applies the terms in index order:
every sum must be bit for bit the sequential out[w] = out[w] + term and
the padded sum of padded_sum.py that it replaced, -0.0 and a NaN's bits
included.  Where two NaNs meet, the bits of their sum follow the operand
order of numpy's add loop, which differs between loops, so there the
NaNs are compared by position.  `_prefix_pairs` returns one flat (ja,
iw, cb) triple, which must be the frozen list by length concatenated.  `shift_adjoint_apply`
sums every length at once, and a sum with one code of many terms stays
linear in memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.ncseries as ncseries
import padded_sum
from nchardy.ncseries import (
    NcSeries,
    _code_table,
    _prefix_pairs,
    _sum_by_code,
    series_mul,
    shift_adjoint_apply,
)
from nchardy.transforms import frostman, semigroup_inner

# signed zeros and NaNs of both signs, among floats whose sums round
parts = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, 1.0, -1.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@st.composite
def coded_terms(draw):
    """Codes with repeats in any order and their (n, 1, 1) or (n, 2, 3)
    blocks."""
    shape = draw(st.sampled_from([(1, 1), (2, 3)]))
    n = draw(st.integers(1, 30))
    codes = draw(st.lists(st.integers(0, draw(st.integers(0, 12))),
                          min_size=n, max_size=n))
    size = n * shape[0] * shape[1]
    re, im = (draw(st.lists(parts, min_size=size, max_size=size))
              for _ in range(2))
    terms = (np.array(re) + 0j).reshape((n,) + shape)
    terms.imag = np.array(im).reshape(terms.shape)
    return np.array(codes, dtype=np.int64), terms


def sequential(codes, terms):
    """Each code's terms summed in order from its first one."""
    out = {}
    for c, t in zip(codes.tolist(), terms):
        out[c] = out[c] + t if c in out else t.copy()
    keys = sorted(out)
    return (np.array(keys, dtype=np.int64),
            np.array([out[k] for k in keys]).reshape((-1,) + terms.shape[1:]))


def nans_meet(codes, terms):
    """Whether two NaN terms of one code sit at the same entry."""
    nan = np.isnan(terms.view(float)).reshape(codes.size, -1)
    count = np.zeros((codes.max() + 1, nan.shape[1]), dtype=int)
    np.add.at(count, codes, nan)
    return bool((count > 1).any())


def same(got, want, nan_bits=True):
    """The same codes and blocks bit for bit, but for the sign and payload
    of NaNs when nan_bits is False."""
    (gc, gC), (wc, wC) = got, want
    if not (gc.dtype == wc.dtype and np.array_equal(gc, wc)
            and gC.shape == wC.shape):
        return False
    if nan_bits:
        return gC.tobytes() == wC.tobytes()
    a, b = gC.view(float), wC.view(float)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and \
        a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=300, deadline=None)
@given(coded_terms())
def test_sum_matches_the_padded_sum_and_a_sequential_loop(case):
    codes, terms = case
    got = _sum_by_code(codes, terms)
    exact = not nans_meet(codes, terms)
    assert same(got, sequential(codes, terms), exact)
    assert same(got, padded_sum.sum_by_code(codes, terms), exact)


@st.composite
def split_cases(draw):
    """Sorted codes a and w over d letters through top, each sparse or
    full, and a split length n up to top + 1."""
    d, top = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = int(_code_table(d, top)[0][-1])

    def codes():
        p = draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0))
        return np.flatnonzero(rng.random(size) < p).astype(np.int64)

    return codes(), codes(), d, top, draw(st.integers(0, top + 1))


@settings(max_examples=200, deadline=None)
@given(split_cases())
def test_flat_splits_are_the_lists_by_length_concatenated(case):
    got = _prefix_pairs(*case)
    want = [np.concatenate(x) for x in zip(*padded_sum.prefix_pairs(*case))]
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 5)])
def test_full_words_split_alike(d, top):
    c = np.arange(_code_table(d, top)[0][-1])
    for n in range(top + 1):
        got = _prefix_pairs(c, c, d, top, n)
        want = map(np.concatenate, zip(*padded_sum.prefix_pairs(
            c, c, d, top, n)))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def by_lengths(omega, H, n):
    """shift_adjoint_apply as each length of b summed on its own by the
    padded sum, from the splits by length."""
    codes, C = zip(*(padded_sum.sum_by_code(cb, np.conj(omega.C[ja])
                                            * H.C[iw])
                     for ja, iw, cb in padded_sum.prefix_pairs(
                         omega.codes, H.codes, H.d, H.degree(), n)))
    return np.concatenate(codes), np.concatenate(C)


def adjoint_cases():
    z1 = NcSeries.monomial((1,), 2, 8)
    v = NcSeries(2, 1, 1, 6, {(1,): 0.6, (2,): 0.8})
    w = frostman(v, 0.3 - 0.2j, 6)
    M = NcSeries(2, 2, 3, 4, {(): np.ones((2, 3)), (2, 1): -0.0 * np.ones(
        (2, 3)), (1, 2, 2): np.arange(6.0).reshape(2, 3)})
    return [(z1, series_mul(z1, semigroup_inner(z1, 0.5, 8)), 8),
            (w, w, 6), (w, series_mul(w, w), 3), (v, M, 4), (w, M, 2)]


@pytest.mark.parametrize("omega, H, n", adjoint_cases())
def test_adjoint_sums_once_and_as_each_length_did(omega, H, n, monkeypatch):
    calls = []

    def counted(codes, terms):
        calls.append(codes.size)
        return _sum_by_code(codes, terms)

    monkeypatch.setattr(ncseries, "_sum_by_code", counted)
    got = shift_adjoint_apply(omega, H, n)
    assert len(calls) == 1
    assert same((got.codes, got.C), ncseries._nonzero(*by_lengths(
        omega, H, n)))


def test_a_skewed_sum_stays_linear_in_memory():
    # 2000 terms on one code and 2000 singletons: the padded sum filled a
    # 2000 x 2001 stack of 16-byte entries, about 64 MB
    codes = np.concatenate((np.zeros(2000, dtype=np.int64),
                            np.arange(1, 2001)))
    terms = np.ones((codes.size, 1, 1), dtype=complex)
    tracemalloc.start()
    try:
        got = _sum_by_code(codes, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got[0].tolist() == list(range(2001))
    assert got[1][0, 0, 0] == 2000 and (got[1][1:] == 1).all()
