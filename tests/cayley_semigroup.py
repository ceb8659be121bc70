"""The Cayley-plus-exponential-series semigroup that the composition
with sigma_t replaced, and the Cayley transform as inverse times product,
kept as references for tests/test_sigma_composition.py and
tests/test_transforms.py.

semigroup_inner is nchardy.transforms' earlier semigroup_inner without
its argument checks: the Cayley transform H_B = (1 - B)^{-1} (1 + B),
then the exponential series of G = H_B - H_B(0), one product per power
of G.  term_scale bounds the terms that sum adds, which sets its
rounding.  cayley_herglotz is the transform in the form the package
computed it before 2 (1 - B)^{-1} - 1.
"""

import numpy as np

from nchardy.ncseries import NcSeries, series_invert, series_mul


def cayley_herglotz(B, N=None):
    """(1 - B)^{-1} (1 + B) through degree N (default N_B): one series
    inverse and one product."""
    if N is None:
        N = B.max_degree
    Bn = B.with_max_degree(N)
    one = NcSeries.identity(B.rows, B.d, N)
    return series_mul(series_invert(one - Bn, N), one + Bn, N)


def semigroup_inner(B, t, N=None):
    """exp(-t H_B) as a series through degree N (default N_B).

    With h0 the scalar constant term of H = H_B, the series G = H - h0 has
    no constant term, so G^k starts at degree k and vanishes at order N
    once k > N.  Since h0 commutes with G,

        exp(-t H) = e^{-t h0} sum_{k <= N} (-t G)^k / k!

    holds exactly through degree N, and the sum stops early once a term
    truncates to zero.
    """
    if N is None:
        N = B.max_degree
    H = cayley_herglotz(B, N)
    h0 = H.scalar_coeff(())
    G = H - h0
    term = NcSeries.constant(1.0, B.d, N)
    total = term
    for k in range(1, N + 1):
        term = series_mul(term, G, N).scale(-t / k)
        if not term.codes.size:
            break
        total = total + term
    return total.scale(np.exp(-t * h0))


def term_scale(B, t, N=None):
    """Largest coefficient of |e^{-t h0}| sum_k (t |G|)^k / k!, with |G|
    the coefficientwise modulus of G: a bound on every term that
    semigroup_inner adds, so its rounding error is a small multiple of
    eps times this scale.  Where the series cancels the scale exceeds
    the largest coefficient of the result."""
    if N is None:
        N = B.max_degree
    H = cayley_herglotz(B, N)
    h0 = H.scalar_coeff(())
    G = H - h0
    G = NcSeries._of(G.d, 1, 1, N, G.codes, np.abs(G.C).astype(complex))
    term = NcSeries.constant(1.0, B.d, N)
    total = term
    for k in range(1, N + 1):
        term = series_mul(term, G, N).scale(t / k)
        if not term.codes.size:
            break
        total = total + term
    return abs(np.exp(-t * h0)) * float(np.abs(total.C).max())
