"""The outer solve's scatter-plan Jacobian against the einsum build it
replaced.

`einsum_jacobian` is the Jacobian `_OuterProblem` built on every
Levenberg-Marquardt step before the plan: two zeroed 6-D arrays filled by
four einsums over the index triples.  `stack_residual` is the residual it
read from `autocorrelation_stack`.  The plan adds the same one or two
terms per entry, so its Jacobian must agree bitwise, and its residual
r = h (J x) - t(H) to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.factorization as factorization
from nchardy.factorization import _jacobian_plan, _OuterProblem, spectral_outer
from nchardy.fockspace import (
    FockBasis,
    autocorrelation_stack,
    coeff_stack,
    word_triples,
)
from nchardy.ncseries import NcSeries


def einsum_jacobian(prob, x):
    """t_s(F) is sesquilinear: dt_s = sum F_mu^H dF_{mu s} + dF_mu^H
    F_{mu s} over the triples (s, mu, mu s).  lin[s, i, b, k, a, c] is
    the coefficient of dF_k[a, c] in dt_s[i, b], anti that of
    conj(dF_k[a, c]); the gauge block s = dim is dF_0 - dF_0^H.  With
    dF = dRe + i dIm, the columns of an entry's real and imaginary parts
    are lin + anti and i (lin - anti)."""
    F = prob.decode(x)
    D, n, eye = prob.basis.dim, prob.n, np.eye(prob.n)
    s, mu, cat = word_triples(prob.d, prob.m)
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


def stack_residual(prob, x):
    """t_s(F) - t_s(H) word by word from autocorrelation_stack, then the
    gauge block F_0 - F_0^H, each block's real and then imaginary parts."""
    F = prob.decode(x)
    r = np.concatenate([
        autocorrelation_stack(F, prob.d, prob.m) - prob.target,
        (F[0] - F[0].conj().T)[None]])
    r = r.reshape(r.shape[0], -1)
    return np.stack([r.real, r.imag], axis=1).reshape(-1)


def outer_problem(d, m, n, seed):
    """An outer problem with a random target and a random point x."""
    rng = np.random.default_rng(seed)
    words = FockBasis(d, m).words
    H = NcSeries(d, n, n, m, {
        w: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for w in words if not w or rng.random() < 0.7})
    prob = _OuterProblem(H, m, autocorrelation_stack(
        coeff_stack(H, FockBasis(d, m)), d, m))
    return prob, rng.standard_normal(2 * prob.basis.dim * n * n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_plan_jacobian_equals_the_einsum_build(d, m, n, seed):
    prob, x = outer_problem(d, m, n, seed)
    J = prob.jacobian(x)
    assert np.array_equal(J, einsum_jacobian(prob, x))
    r = prob.residual(x)
    want = stack_residual(prob, x)
    assert r.shape == want.shape
    assert np.abs(r - want).max() <= 1e-14 * (1 + np.linalg.norm(want))


def test_jacobian_reuses_the_residuals_matrix_only_at_its_point():
    prob, x = outer_problem(2, 2, 1, 5)
    prob.residual(x)
    J = prob.jacobian(x)
    assert prob.jacobian(x.copy()) is J
    y = x.copy()
    y[3] += 1.0
    assert prob.jacobian(y) is not J
    assert np.array_equal(prob.jacobian(y), einsum_jacobian(prob, y))
    # a point changed in place after its residual gets its own matrix
    prob.residual(y)
    y[:] = x
    assert np.array_equal(prob.jacobian(y), J)


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
    builds, counts = [], []
    build, lm = _OuterProblem._build, factorization._lm

    def counting_build(self, x):
        builds.append(1)
        return build(self, x)

    def counting_lm(fun, jac, x0):
        out = lm(fun, jac, x0)
        counts.append(out[2])
        return out

    monkeypatch.setattr(_OuterProblem, "_build", counting_build)
    monkeypatch.setattr(factorization, "_lm", counting_lm)
    spectral_outer(H)
    assert len(counts) == 1 and counts[0] >= 2
    assert len(builds) <= counts[0]
