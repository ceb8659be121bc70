"""One-variable factorization against textbook oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.classical as classical
import nchardy.kernels as kernels
from nchardy.classical import (
    atomic_singular,
    blaschke_product,
    compare_with_nc,
    jordan_pair,
    poly_factor_classical,
)
from nchardy.errors import BoundaryRootError, ShapeMismatchError
from nchardy.evaluate import evaluate
from nchardy.kernels import sing_membership
from nchardy.ncseries import (
    NcSeries,
    h2_norm,
    max_coeff_diff,
    series_mul,
)


def poly_series(coeffs, N):
    c = {}
    for j, v in enumerate(coeffs):
        if v != 0.0:
            c[(1,) * j] = complex(v)
    return NcSeries(1, 1, 1, N, c)


def test_blaschke_factor_hand_coefficients():
    # phi_{0.5}(z) expanded: (0.5 - z)/(1 - 0.5 z) times |a|/a = 1
    B = blaschke_product([0.5], 3)
    want = [0.5, -0.75, -0.375, -0.1875]
    for k, w in enumerate(want):
        assert B.scalar_coeff((1,) * k) == pytest.approx(w, abs=1e-14)


def test_blaschke_product_zero_at_origin():
    B = blaschke_product([0.0, 0.5], 4)
    assert B.scalar_coeff(()) == 0.0
    assert B.scalar_coeff((1,)) == pytest.approx(0.5)


def test_blaschke_unimodular_on_circle_limit():
    # h2 mass of a finite Blaschke product tends to 1; at N=60 the tail of
    # a single factor at 0.5 is far below the tolerance
    B = blaschke_product([0.5, -0.3j], 60)
    assert h2_norm(B) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(BoundaryRootError):
        blaschke_product([1.0], 4)
    with pytest.raises(BoundaryRootError):
        blaschke_product([0.999999999999], 4)


def test_poly_factor_reconstructs_input():
    # p(z) = (z - 0.5)(z - 2) = 1 - 2.5 z + z^2
    p = poly_series([1.0, -2.5, 1.0], 12)
    fac = poly_factor_classical(p, N=12)
    assert len(fac.zeros) == 1
    assert fac.zeros[0] == pytest.approx(0.5)
    inner = blaschke_product(fac.zeros, fac.N)
    recon = series_mul(inner, fac.outer, 12).scale(fac.phase)
    assert max_coeff_diff(recon, p, 12) < 1e-12
    assert fac.outer.scalar_coeff(()).real > 0
    assert abs(fac.outer.scalar_coeff(()).imag) < 1e-14


def test_poly_factor_classifies_roots_by_modulus():
    # zeros at 0.4 and 0, root at 1.6 goes to the outer part
    p_roots = np.poly([0.4, 0.0, 1.6])[::-1]
    fac = poly_factor_classical(list(p_roots), N=10)
    inside = sorted(abs(z) for z in fac.zeros)
    assert inside == pytest.approx([0.0, 0.4])
    outer_root = np.roots(
        [fac.outer.scalar_coeff((1,) * k)
         for k in range(fac.outer.degree(), -1, -1)])
    assert any(abs(r - 1.6) < 1e-8 for r in outer_root)


def test_poly_factor_outer_has_no_interior_zeros():
    rng = np.random.default_rng(50)
    for _ in range(10):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        fac = poly_factor_classical(list(c), N=8)
        body = [fac.outer.scalar_coeff((1,) * k)
                for k in range(fac.outer.degree(), -1, -1)]
        if len(body) > 1:
            for r in np.roots(body):
                assert abs(r) > 1.0


def test_poly_factor_rejects_boundary_and_zero():
    with pytest.raises(BoundaryRootError):
        poly_factor_classical([1.0, -1.0], N=4)
    with pytest.raises(ValueError):
        poly_factor_classical([0.0], N=4)
    with pytest.raises(ShapeMismatchError):
        poly_factor_classical(NcSeries.monomial((1,), 2, 3), N=4)


def test_atomic_singular_matches_closed_form():
    S = atomic_singular(1.0, 30)
    assert S.scalar_coeff(()) == pytest.approx(np.exp(-1.0), abs=1e-13)
    for t in np.linspace(-0.6, 0.6, 7):
        val = evaluate(S, [np.array([[complex(t)]])])[0, 0]
        want = np.exp(-(1.0 + t) / (1.0 - t))
        assert val == pytest.approx(want, abs=1e-5)


def laguerre_weight(n, t):
    """e^{-t} L_n^{(-1)}(2t) = e^{-t} sum_{k=1}^{n} C(n-1, k-1) (-2t)^k / k!
    (1 for n = 0), the n-th Taylor coefficient of exp(-t (1+z)/(1-z))
    (Szego, Orthogonal Polynomials, (5.1.9)).  The alternating sum is
    taken in exact rationals of the float t, so the one rounding left is
    the product with e^{-t}.  scipy.special.eval_genlaguerre returns NaN
    at alpha = -1."""
    if n == 0:
        return math.exp(-t)
    x = Fraction(-2 * t)
    total = sum(math.comb(n - 1, k - 1) * x ** k / math.factorial(k)
                for k in range(1, n + 1))
    return float(total) * math.exp(-t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 3.0))
def test_atomic_singular_taylor_weights_are_laguerre_values(N, t):
    S = atomic_singular(t, N)
    got = [S.scalar_coeff((1,) * n) for n in range(N + 1)]
    want = [laguerre_weight(n, t) for n in range(N + 1)]
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-13


def test_jordan_pair_bindings():
    jp = jordan_pair(0.9, 2)
    assert jp["binding"] == "ball-radius"
    assert jp["eps"] == pytest.approx(0.05)
    jp2 = jordan_pair(0.05, 2)
    assert jp2["binding"] == "zero-modulus"
    assert jp2["eps"] == pytest.approx(0.025)
    assert jp["point"].row_norm() < 1.0
    with pytest.raises(ValueError):
        jordan_pair(1.0, 1)
    with pytest.raises(ValueError):
        jordan_pair(0.5, 0)


@pytest.mark.parametrize("m", [2.5, True, "2", np.float64(2.0)])
def test_jordan_pair_refuses_a_multiplicity_that_is_not_an_int(m):
    # int() would make 2.5 a block of size 2 and True one of size 1
    with pytest.raises(ValueError, match="^multiplicity "):
        jordan_pair(0.5, m)


@pytest.mark.parametrize("N", [2.5, True, "2", -1])
def test_poly_factor_refuses_an_order_that_is_not_an_int_ge_0(N):
    with pytest.raises(ValueError, match="^N "):
        poly_factor_classical([1.0, -0.5], N=N)


def test_compare_with_nc_simple_polynomial():
    report = compare_with_nc([1.0, -2.5, 1.0], N=12)
    assert report["wandering_dim"] == 1
    assert report["inner_agreement"] < 1e-8
    assert report["outer_agreement"] < 1e-8
    assert [abs(z) for z in report["zeros"]] == pytest.approx([0.5])
    assert len(report["jordan_pairs"]) == 1
    jp = report["jordan_pairs"][0]
    assert jp["member"]
    assert jp["multiplicity"] == 1


def test_compare_with_nc_double_root():
    # (z - 0.5)^2 (1 - z/3): double interior zero must cluster into one
    # Jordan pair of size 2 even though the root finder splits it
    base = np.convolve([-0.5, 1.0], [-0.5, 1.0])
    full = np.convolve(base, [1.0, -1.0 / 3.0])
    report = compare_with_nc(list(full), N=14)
    pairs = report["jordan_pairs"]
    assert len(pairs) == 1
    assert pairs[0]["multiplicity"] == 2
    assert pairs[0]["member"]
    assert pairs[0]["residual"] < 1e-8
    assert report["inner_agreement"] < 1e-6
    assert report["outer_agreement"] < 1e-6


def test_compare_with_nc_no_interior_zeros():
    report = compare_with_nc([2.0, -0.5], N=8)
    assert report["zeros"] == []
    assert report["jordan_pairs"] == []
    assert report["inner_agreement"] < 1e-10
    assert report["outer_agreement"] < 1e-10


def test_compare_with_nc_random_corpus_small():
    rng = np.random.default_rng(51)
    done = 0
    attempts = 0
    while done < 8 and attempts < 40:
        attempts += 1
        deg = int(rng.integers(1, 5))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        body = c[np.argmax(np.abs(c) > 0):] if np.any(c) else c
        roots = np.roots(list(c)[::-1]) if deg >= 1 else []
        if any(abs(abs(r) - 1.0) < 0.05 for r in np.atleast_1d(roots)):
            continue
        report = compare_with_nc(list(c), N=12)
        assert report["inner_agreement"] < 1e-6
        assert report["outer_agreement"] < 1e-6
        for jp in report["jordan_pairs"]:
            assert jp["member"]
        done += 1
    assert done == 8


def test_each_jordan_pair_is_evaluated_once(monkeypatch):
    calls = []

    def counting(H, Z, *args, **kwargs):
        calls.append(Z)
        return evaluate(H, Z, *args, **kwargs)

    monkeypatch.setattr(classical, "evaluate", counting)
    monkeypatch.setattr(kernels, "evaluate", counting)
    c = np.convolve([-0.5, 1.0], [0.25, 1.0])
    report = compare_with_nc(list(c), N=10)
    pairs = report["jordan_pairs"]
    assert len(pairs) == 2 and len(calls) == 2
    monkeypatch.undo()
    series = poly_series(c, 10)
    for jp in pairs:
        member, resid = sing_membership(series, jp["pair"].Z, jp["pair"].y)
        assert jp["member"] is member and member
        assert jp["residual"] == resid
