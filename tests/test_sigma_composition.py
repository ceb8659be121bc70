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

The powers of B - B(0) are cached per generator, so the cache tests
check that a warm result is bitwise the cold one and that nothing but an
identical generator, at the same d and N, shares an entry.
cayley_herglotz, now 2 (1 - B)^{-1} - 1, is held to the inverse-times-
product form of tests/cayley_semigroup.py.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.ncseries as ncseries
import nchardy.transforms as transforms
from nchardy.errors import NotInvertibleError
from nchardy.ncseries import NcSeries, commutator_inner, max_coeff_diff
from nchardy.transforms import cayley_herglotz, frostman, semigroup_inner

from cayley_semigroup import cayley_herglotz as cayley_product
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
    # build the powers again under the patches
    transforms._sigma_powers.cache_clear()
    got = semigroup_inner(B, 0.7, 8)
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.C, want.C)


def test_semigroup_signature_is_unchanged():
    params = inspect.signature(semigroup_inner).parameters
    assert list(params) == ["B", "t", "N"]
    assert params["N"].default is None


def bits(S):
    return S.codes.tobytes(), S.C.tobytes()


CACHED = [
    NcSeries.monomial((1,), 2, 8),
    commutator_inner(max_degree=8),
    frostman(NcSeries.monomial((1, 2), 3, 6), 0.6 - 0.3j, 6),
]


@pytest.mark.parametrize("B", CACHED, ids=["z1", "V", "frostman_z1z2"])
def test_a_warm_cache_gives_the_cold_result(B):
    transforms._sigma_powers.cache_clear()
    cold = [bits(semigroup_inner(B, t, B.max_degree)) for t in (0.3, 1.1)]
    warm = [bits(semigroup_inner(B, t, B.max_degree)) for t in (0.3, 1.1)]
    info = transforms._sigma_powers.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
    transforms._sigma_powers.cache_clear()
    again = [bits(semigroup_inner(B, t, B.max_degree)) for t in (0.3, 1.1)]
    assert cold == warm == again


def test_generators_that_differ_get_their_own_entries():
    B = frostman(NcSeries.monomial((1,), 2, 6), 0.4 + 0.2j, 6)
    # one bit of one coefficient, one more degree, one more letter
    C = B.C.copy()
    C[3, 0, 0] = np.nextafter(C[3, 0, 0].real, 1.0) + 1j * C[3, 0, 0].imag
    bit = NcSeries._of(2, 1, 1, 6, B.codes, C)
    wider = NcSeries._of(3, 1, 1, 6, B.codes, B.C)
    variants = [(B, 6), (bit, 6), (B, 7), (wider, 6)]
    transforms._sigma_powers.cache_clear()
    results = [bits(semigroup_inner(X, 0.8, N)) for X, N in variants]
    assert transforms._sigma_powers.cache_info().currsize == 4
    assert len(set(results)) == 4
    for (X, N), got in zip(variants, results):
        transforms._sigma_powers.cache_clear()
        assert bits(semigroup_inner(X, 0.8, N)) == got


def test_b0_equal_to_one_raises_on_every_call():
    B = NcSeries(2, 1, 1, 4, {(): 1.0, (1,): 0.5})
    transforms._sigma_powers.cache_clear()
    for _ in range(2):
        with pytest.raises(NotInvertibleError):
            semigroup_inner(B, 0.5, 4)
    assert transforms._sigma_powers.cache_info().currsize == 0


def test_cached_powers_are_read_only():
    B = commutator_inner(max_degree=8)
    semigroup_inner(B, 0.5, 8)
    _, _, codes, powers = transforms._sigma_powers(
        B.codes.tobytes(), B.C.tobytes(), B.d, 8)
    assert len(powers) == 4
    for a in (codes, *powers):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@st.composite
def matrix_symbols(draw):
    """(B, N): a 2 x 2 polynomial over d in {1, 2, 3} letters, N <= 6,
    with ||B(0)|| <= 0.9 and a few words of norm <= 0.5 elsewhere."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def block(norm):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return norm * M / np.linalg.norm(M, 2)

    coeffs = {(): block(0.9 * rng.random())}
    for _ in range(draw(st.integers(1, 4))):
        word = tuple(rng.integers(1, d + 1, rng.integers(1, N + 1)))
        coeffs[word] = block(0.5 * rng.random())
    return NcSeries(d, 2, 2, N, coeffs), N


@settings(max_examples=100, deadline=None)
@given(st.one_of(scalar_symbols(), matrix_symbols()))
def test_cayley_transform_matches_inverse_times_product(gen):
    B, N = gen
    got = cayley_herglotz(B, N)
    want = cayley_product(B, N)
    assert np.array_equal(got.codes, want.codes)
    assert max_coeff_diff(got, want, N) <= 1e-13 * np.abs(want.C).max()
