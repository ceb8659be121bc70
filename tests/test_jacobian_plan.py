"""The outer solve's scatter-plan Jacobian against the einsum build it
replaced.

`einsum_jacobian` is the Jacobian the outer problem built on every
Levenberg-Marquardt step before the plan: two zeroed 6-D arrays filled by
four einsums over the index triples.  `stack_residual` is the residual it
read from `autocorrelation_stack`, kept in gathered_autocorrelation.py.
The plan adds the same one or two terms per entry, so the J of
`_outer_system` must agree bitwise, and its residual r = h (J x) - t(H)
to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.factorization as factorization
from nchardy.factorization import (
    _jacobian_plan,
    _lm,
    _outer_system,
    spectral_outer,
)
from nchardy.fockspace import FockBasis, coeff_stack, word_triples
from nchardy.ncseries import NcSeries

from gathered_autocorrelation import autocorrelation_stack


def einsum_jacobian(d, m, n, x):
    """t_s(F) is sesquilinear: dt_s = sum F_mu^H dF_{mu s} + dF_mu^H
    F_{mu s} over the triples (s, mu, mu s).  lin[s, i, b, k, a, c] is
    the coefficient of dF_k[a, c] in dt_s[i, b], anti that of
    conj(dF_k[a, c]); the gauge block s = dim is dF_0 - dF_0^H.  With
    dF = dRe + i dIm, the columns of an entry's real and imaginary parts
    are lin + anti and i (lin - anti)."""
    D, eye = FockBasis(d, m).dim, np.eye(n)
    F = x.view(complex).reshape(D, n, n)
    s, mu, cat = word_triples(d, m)
    lin = np.zeros((D + 1, n, n, D, n, n), dtype=complex)
    anti = np.zeros_like(lin)
    # each (s, mu s) and (s, mu) is one triple, laid out (t, i, b, a, c)
    lin[s, :, :, cat] = np.einsum("tai,bc->tibac", F[mu].conj(), eye)
    anti[s, :, :, mu] = np.einsum("tab,ic->tibac", F[cat], eye)
    lin[D, :, :, 0] = np.einsum("ia,bc->ibac", eye, eye)
    anti[D, :, :, 0] = -np.einsum("ab,ic->ibac", eye, eye)
    J = np.stack([lin + anti, 1j * (lin - anti)], axis=-1)
    J = J.reshape(D + 1, n * n, -1)
    return np.stack([J.real, J.imag], axis=1).reshape(-1, J.shape[-1])


def stack_residual(d, m, target, x):
    """t_s(F) - t_s(H) word by word from autocorrelation_stack, then the
    gauge block F_0 - F_0^H, each block's real and then imaginary parts."""
    F = x.view(complex).reshape(target.shape)
    r = np.concatenate([
        autocorrelation_stack(F, d, m) - target,
        (F[0] - F[0].conj().T)[None]])
    r = r.reshape(r.shape[0], -1)
    return np.stack([r.real, r.imag], axis=1).reshape(-1)


def outer_problem(d, m, n, seed):
    """(fun, target, x): the outer system of a random H, its target and a
    random point x."""
    rng = np.random.default_rng(seed)
    words = FockBasis(d, m).words
    H = NcSeries(d, n, n, m, {
        w: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for w in words if not w or rng.random() < 0.7})
    target = autocorrelation_stack(coeff_stack(H, FockBasis(d, m)), d, m)
    fun = _outer_system(d, m, target)
    return fun, target, rng.standard_normal(2 * target.size)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_plan_jacobian_equals_the_einsum_build(d, m, n, seed):
    fun, target, x = outer_problem(d, m, n, seed)
    r, J = fun(x)
    assert np.array_equal(J, einsum_jacobian(d, m, n, x))
    want = stack_residual(d, m, target, x)
    assert r.shape == want.shape
    assert np.abs(r - want).max() <= 1e-14 * (1 + np.linalg.norm(want))


def test_lm_calls_fun_exactly_nfev_times():
    calls = []

    def counting(x):
        calls.append(x.copy())
        return fun(x)

    for d, m, n, seed in ((2, 2, 1, 5), (1, 3, 2, 6), (3, 1, 2, 7)):
        fun, _, x = outer_problem(d, m, n, seed)
        x0 = np.zeros_like(x)
        x0[0] = 1.0
        for start in (x0, x):
            calls.clear()
            x_end, r, nfev = _lm(counting, start)
            assert nfev == len(calls) >= 2
            # the returned residual is the one fun gave at the returned
            # point
            assert any(np.array_equal(c, x_end) for c in calls)
            assert np.array_equal(r, fun(x_end)[0])


def test_plan_is_cached_and_read_only():
    plan = _jacobian_plan(2, 2, 1)
    assert _jacobian_plan(2, 2, 1) is plan
    target, src, weight, shape = plan
    assert not (target.flags.writeable or src.flags.writeable
                or weight.flags.writeable)
    # Re and Im rows of t_s over 7 words and of the gauge block, and Re
    # and Im parts of 7 coefficients
    assert shape == (16, 14)
    assert set(weight) == {-1.0, 1.0}
    assert src.max() == shape[1]


@pytest.mark.parametrize("H", [
    NcSeries(2, 1, 1, 2, {(): 1.0, (1,): -0.5, (1, 2): 0.25}),
    NcSeries(3, 1, 1, 3, {(): 0.3 + 0.1j, (2,): 1.0, (3, 1, 2): -0.4j}),
    NcSeries(2, 2, 2, 1, {(): 2.0 * np.eye(2), (1,): [[0.5, 1j], [0, 1]]}),
])
def test_a_solve_builds_at_most_one_jacobian_per_residual(monkeypatch, H):
    # each call of the outer system builds one J, and _lm counts its calls
    builds, counts = [], []
    system, lm = factorization._outer_system, factorization._lm

    def counting_system(d, m, target):
        fun = system(d, m, target)

        def counting_fun(x):
            builds.append(1)
            return fun(x)

        return counting_fun

    def counting_lm(fun, x0):
        out = lm(fun, x0)
        counts.append(out[2])
        return out

    monkeypatch.setattr(factorization, "_outer_system", counting_system)
    monkeypatch.setattr(factorization, "_lm", counting_lm)
    spectral_outer(H)
    assert len(counts) == 1 and counts[0] >= 2
    assert len(builds) == counts[0]
