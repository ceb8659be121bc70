"""The singular-inner semigroup as sigma_t o B against the Cayley route.

semigroup_inner sums Taylor weights of sigma_t(x) = exp(-t (1+x)/(1-x))
against powers of B - B(0); tests/cayley_semigroup.py keeps the
construction it replaced, the Cayley transform H_B followed by the
exponential series of H_B - H_B(0).  Both compute exp(-t H_B) exactly
through degree N, so they must agree to rounding.

Rounding is measured against term_scale, the largest coefficient of the
termwise modulus of the reference's sum, not against the largest
coefficient of the result: where that sum cancels the reference loses
digits of its own.  At d = 1, B the Frostman shift of z by w = -0.47 -
0.17i and t = 3, the reference is off by 1.9e-13 of the largest
coefficient against a 50-digit evaluation and the composition by
5.6e-15.  At b0 = 0 the supports must be equal; with b0 != 0 a
coefficient can cancel exactly (the z1z2 word of sigma_3 o B for B the
Frostman shift of the commutator by w = 1/2 is exactly 0 on the Cayley
route and 3e-17 here), so there the words one side lacks are held to the
same rounding bound.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.ncseries as ncseries
import nchardy.transforms as transforms
from nchardy.ncseries import NcSeries, commutator_inner, max_coeff_diff
from nchardy.transforms import frostman, semigroup_inner

from cayley_semigroup import semigroup_inner as cayley_semigroup
from cayley_semigroup import term_scale


def disk_point(draw, radius):
    r = draw(st.floats(0.0, radius))
    return r * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))


@st.composite
def scalar_symbols(draw):
    """(B, N) over d in {1, 2, 3}, N <= 8: a monomial z^w or the
    commutator V, either Frostman-shifted by |w| <= 0.95 or not, or a
    random polynomial with |B(0)| <= 0.9 and coefficients of modulus
    <= 0.5 elsewhere."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["monomial", "commutator", "polynomial"]))
    if kind == "polynomial":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        coeffs = {(): disk_point(draw, 0.9)}
        for _ in range(draw(st.integers(1, 4))):
            word = tuple(rng.integers(1, d + 1, rng.integers(1, N + 1)))
            coeffs[word] = 0.5 * rng.random() * np.exp(
                2j * np.pi * rng.random())
        return NcSeries(d, 1, 1, N, coeffs), N
    if kind == "commutator" and d >= 2 and N >= 2:
        B = commutator_inner(max_degree=N)
    else:
        word = draw(st.lists(st.integers(1, d), min_size=1,
                             max_size=min(N, 3)))
        B = NcSeries.monomial(word, d, N)
    if draw(st.booleans()):
        B = frostman(B, disk_point(draw, 0.95), N)
    return B, N


@settings(max_examples=150, deadline=None)
@given(scalar_symbols(), st.floats(0.0, 3.0))
def test_composition_matches_the_cayley_route(gen, t):
    B, N = gen
    got = semigroup_inner(B, t, N)
    want = cayley_semigroup(B, t, N)
    assert max_coeff_diff(got, want, N) <= 1e-13 * term_scale(B, t, N)
    if B.scalar_coeff(()) == 0:
        assert np.array_equal(got.codes, want.codes)


@pytest.mark.parametrize("B", [
    NcSeries.monomial((1,), 2, 8),
    commutator_inner(max_degree=8),
    frostman(NcSeries.monomial((1, 2), 3, 8), 0.6 - 0.3j, 8),
], ids=["z1", "V", "frostman_z1z2"])
def test_semigroup_builds_no_cayley_transform_or_inverse(B, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("semigroup_inner built a Cayley transform or "
                             "a series inverse")

    want = semigroup_inner(B, 0.7, 8)
    for module in (transforms, ncseries):
        monkeypatch.setattr(module, "series_invert", refuse)
    monkeypatch.setattr(transforms, "cayley_herglotz", refuse)
    got = semigroup_inner(B, 0.7, 8)
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.C, want.C)


def test_semigroup_signature_is_unchanged():
    params = inspect.signature(semigroup_inner).parameters
    assert list(params) == ["B", "t", "N"]
    assert params["N"].default is None
