"""Inner-outer at any finite scale, and the vacuum residual from the
series inverse.

inner_outer, spectral_outer and outer_defect run on the power-of-two
rescaling of their input, which is exact, so scaling H by 2^k leaves the
inner factor and the defects bitwise alone and scales the outer factor
and the reconstruction error by exactly 2^k, far past the range where
squared entries under- or overflow.  solve_vacuum reads the residual off
the series inverse; the dense least-squares solve it replaced is kept
here as the reference.
"""

import math

import numpy as np
import pytest

from nchardy import fockspace, ncseries
from nchardy.factorization import (
    inner_outer,
    outer_defect,
    solve_vacuum,
    spectral_outer,
)
from nchardy.fockspace import FockBasis, mult_operator
from nchardy.ncseries import NcSeries, h2_norm, rescale, series_mul

SCALES = [-1070, -600, -560, 0, 520, 600, 1000]


def outer_h():
    return NcSeries(2, 1, 1, 3, {(): 1.0, (1,): 0.5})


def non_outer_h():
    # (z1 - 1/2)(1 + z2 / 4): an inner part with a zero inside the ball
    return series_mul(NcSeries(2, 1, 1, 4, {(): -0.5, (1,): 1.0}),
                      NcSeries(2, 1, 1, 4, {(): 1.0, (2,): 0.25}))


def same_bits(f, g):
    return (f.support() == g.support()
            and all(f.coeffs[w].tobytes() == g.coeffs[w].tobytes()
                    for w in f.coeffs))


def ldexp_series(f, k):
    """2^k f, part by part, so signed zeros keep their sign."""
    coeffs = {}
    for w, m in f.coeffs.items():
        coeffs[w] = np.empty_like(m)
        coeffs[w].real = np.ldexp(m.real, k)
        coeffs[w].imag = np.ldexp(m.imag, k)
    return NcSeries(f.d, f.rows, f.cols, f.max_degree, coeffs)


@pytest.mark.parametrize("make", [outer_h, non_outer_h])
@pytest.mark.parametrize("k", SCALES)
def test_inner_outer_is_exact_under_power_of_two_scaling(make, k):
    H = make()
    ref = inner_outer(H)
    res = inner_outer(ldexp_series(H, k))
    assert same_bits(res.inner, ref.inner)
    assert same_bits(res.outer, ldexp_series(ref.outer, k))
    for key in ("inner_defect", "outer_defect"):
        assert res.defects[key] == ref.defects[key]
    assert res.defects["reconstruction_error"] == math.ldexp(
        ref.defects["reconstruction_error"], k)
    assert res.wandering_dim == ref.wandering_dim == 1


@pytest.mark.parametrize("make, dense", [(outer_h, False),
                                         (non_outer_h, True)])
def test_the_scaling_cases_cover_both_quotient_paths(monkeypatch, make,
                                                     dense):
    # the bitwise scaling test above holds on the dense right quotient of
    # non_outer_h and on the sparse inverse and product of outer_h
    seen = []
    rule = ncseries._quotient_fills

    def recording(*args):
        seen.append(rule(*args))
        return seen[-1]

    monkeypatch.setattr(ncseries, "_quotient_fills", recording)
    for k in SCALES:
        inner_outer(ldexp_series(make(), k))
    assert seen == [dense] * len(SCALES)


@pytest.mark.parametrize("k", SCALES)
def test_spectral_outer_and_outer_defect_at_any_scale(k):
    H = ldexp_series(outer_h(), k)
    F = spectral_outer(H)
    assert F.coeffs
    assert same_bits(F, ldexp_series(spectral_outer(outer_h()), k))
    assert outer_defect(H) == outer_defect(outer_h())
    assert h2_norm(H) == math.ldexp(h2_norm(outer_h()), k)


def test_spectral_outer_refuses_the_zero_series():
    with pytest.raises(ValueError, match="zero series"):
        spectral_outer(NcSeries(2, 1, 1, 3))


def dense_solve_vacuum(f, r, N):
    """The least-squares solve of (multiplication by f(r.)) x = vacuum on
    the dense truncated operator."""
    basis = FockBasis(f.d, N)
    op = mult_operator(rescale(f.truncate(N), r), basis)
    e0 = np.zeros(basis.dim, dtype=complex)
    e0[0] = 1.0
    x, _, _, _ = np.linalg.lstsq(op.mat, e0, rcond=None)
    return float(np.linalg.norm(op.mat @ x - e0))


def vacuum_cases():
    rng = np.random.default_rng(20)
    for d, n_max in ((1, 12), (2, 6)):
        for N in range(n_max + 1):
            for f0 in (1.0, 0.0, -0.5):
                words = [w for w in FockBasis(d, 3).words if w]
                c = rng.standard_normal(len(words)) \
                    + 1j * rng.standard_normal(len(words))
                c *= 0.4 / np.abs(c).sum()
                coeffs = dict(zip(words, c))
                coeffs[()] = f0
                f = NcSeries(d, 1, 1, 3, coeffs)
                for r in (0.0, 0.5, 0.9):
                    yield f, r, N


def test_solve_vacuum_matches_dense_least_squares(monkeypatch):
    cases = list(vacuum_cases())
    want = [dense_solve_vacuum(f, r, N) for f, r, N in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("dense multiplication operator built")

    monkeypatch.setattr(fockspace, "mult_operator", refuse)
    monkeypatch.setattr(fockspace, "OperatorMatrix", refuse)
    for (f, r, N), ref in zip(cases, want):
        got = solve_vacuum(f, r, N)
        assert abs(got - ref) <= 1e-12, (f, r, N, got, ref)
        if f.coeffs.get(()) is None:
            assert got == 1.0
