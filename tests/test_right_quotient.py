"""The package's one right division H F^-1 and its check.

`ncseries._right_quotient` divides by forward substitution on one dense
stack of word-code levels when `_quotient_fills` says the sparse
recursion would form at least as many terms as there are words, and by
`series_mul(H, series_invert(F, N), N)` otherwise; both branches must
match that sparse reference to 1e-13 of the quotient's largest entry.
`inner_outer` checks B F against H with `series_mul`, which shares no
kernel with the dense quotient, so a fault there shows in the
reconstruction error.  The tests pin which inputs go where, that both
branches give the same factorization, that `inner_outer` divides once and
multiplies once, that sparse inputs allocate no dense stack, and that the
choice stays inside ncseries.
"""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.factorization as factorization
import nchardy.ncseries as ncseries
from nchardy.errors import NotInvertibleError
from nchardy.fockspace import FockBasis
from nchardy.ncseries import (
    NcSeries,
    _quotient_fills,
    _right_quotient,
    commutator_inner,
    max_coeff_diff,
    series_invert,
    series_mul,
)
from nchardy.transforms import frostman

SQRT2 = math.sqrt(2.0)


def random_series(rng, d, p, n, deg, density, constant):
    """A p x p series over d letters at truncation n: words of length <=
    deg kept with the given probability, Gaussian blocks, and the
    constant block added at the vacuum."""
    coeffs = {}
    for w in FockBasis(d, deg).words:
        if w == () or rng.random() < density:
            coeffs[w] = 0.5 * (rng.standard_normal((p, p))
                               + 1j * rng.standard_normal((p, p)))
    coeffs[()] = coeffs[()] + constant
    return NcSeries(d, p, p, n, coeffs)


@st.composite
def quotients(draw):
    d, p, n = (draw(st.integers(1, 3)), draw(st.integers(1, 2)),
               draw(st.integers(0, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    H = random_series(rng, d, p, n, draw(st.integers(0, n)),
                      draw(st.floats(0.0, 1.0)), 0.0)
    # F_0 = 2 I + 0.5 (Gaussian): invertible, and the quotient stays small
    F = random_series(rng, d, p, n, draw(st.integers(0, n)),
                      draw(st.floats(0.0, 1.0)), 2.0 * np.eye(p))
    return H, F, n


def biggest(f):
    return float(np.abs(f.C).max(initial=0.0))


def quotient_on(fills, H, F, n):
    """_right_quotient(H, F, n) with _quotient_fills forced to fills: True
    takes the dense levels, False the sparse inverse and product."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ncseries, "_quotient_fills", lambda *args: fills)
        return _right_quotient(H, F, n)


@settings(max_examples=150, deadline=None)
@given(quotients())
def test_right_quotient_matches_the_sparse_inverse_and_product(case):
    H, F, n = case
    want = series_mul(H, series_invert(F, n), n)
    for dense in (True, False):
        got = quotient_on(dense, H, F, n)
        if not dense:
            assert got.codes.tobytes() == want.codes.tobytes()
            assert got.C.tobytes() == want.C.tobytes()
        assert (got.d, got.rows, got.cols, got.max_degree) == \
            (want.d, want.rows, want.cols, want.max_degree)
        assert not (got.C == 0).all(axis=(1, 2)).any()
        assert max_coeff_diff(got, want) <= \
            1e-13 * max(biggest(want), 1e-300)


def test_right_quotient_refuses_a_singular_constant_term():
    H = NcSeries(2, 1, 1, 3, {(1,): 1.0})
    H2 = NcSeries(2, 2, 2, 3, {(1,): np.eye(2)})
    F2 = NcSeries(2, 2, 2, 3, {(): np.diag([1.0, 1e-13]), (2,): np.eye(2)})
    for fills in (True, False):
        with pytest.raises(NotInvertibleError,
                           match="constant term is zero"):
            quotient_on(fills, H, NcSeries(2, 1, 1, 3, {(2,): 1.0}), 3)
        with pytest.raises(NotInvertibleError, match="numerically singular"):
            quotient_on(fills, H2, F2, 3)


def generic_h():
    """A generic scalar H over two letters of degree 2."""
    return NcSeries(2, 1, 1, 5, {(): 1.0, (1,): 0.3, (2,): 0.1,
                                 (1, 1): -0.2, (2, 1): 0.4j})


def matrix_h():
    return NcSeries(2, 2, 2, 3, {(): [[2.0, 0.3], [0.1j, 1.5]],
                                 (1,): [[0.1, 0.2], [0.0, 0.3]],
                                 (2,): [[0.2, -0.4], [0.5, 0.1]],
                                 (1, 2): [[0.3j, 0.0], [0.2, -0.1]]})


def worked_example(N):
    return 1.0 - SQRT2 * commutator_inner(N)


def z1(N):
    return NcSeries.monomial((1,), 2, N)


DENSE = {"generic_d2_deg2": generic_h, "matrix_2x2": matrix_h,
         "d3_deg1": lambda: NcSeries(3, 1, 1, 3, {(): 1.0, (1,): 0.3j,
                                                  (2,): 0.2, (3,): -0.5})}
SPARSE = {
    "worked_example": lambda: worked_example(10),
    "frostman_V": lambda: frostman(commutator_inner(5), 0.3 + 0.2j, 5),
    "constant_outer": lambda: commutator_inner(6),
    "z1": lambda: z1(8),
    "one_letter_chain": lambda: NcSeries(2, 1, 1, 6, {(): 1.0, (1,): -0.5}),
}


def outer_of(H):
    """inner_outer's F for H, with the truncation order of H."""
    return factorization.spectral_outer(H).with_max_degree(H.max_degree)


def counted(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends name to calls."""
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


ONE_OF_EACH = pytest.mark.parametrize("make, dense", [
    (generic_h, True), (lambda: worked_example(10), False)],
    ids=["generic_d2_deg2", "worked_example"])


@ONE_OF_EACH
def test_inner_outer_divides_once_and_checks_once(monkeypatch, make, dense):
    calls, fills = [], []
    for name in ("_right_quotient", "series_mul"):
        counted(monkeypatch, factorization, name, calls)
    rule = ncseries._quotient_fills

    def recording(*args):
        fills.append(rule(*args))
        return fills[-1]

    monkeypatch.setattr(ncseries, "_quotient_fills", recording)
    res = factorization.inner_outer(make())
    assert res.defects["reconstruction_error"] <= 1e-13
    assert calls == ["_right_quotient", "series_mul"]
    assert fills == [dense]


def test_a_faulty_quotient_kernel_shows_in_the_reconstruction_error(
        monkeypatch):
    # the check multiplies by series_mul, so a quotient whose level kernel
    # skips F's longest stored length cannot pass its own check
    H = generic_h()
    assert _quotient_fills(H, outer_of(H), H.max_degree)
    real = ncseries._subtract_products

    def skipping(out, l, Q, levels, starts):
        real(out, l, Q, levels[:-1], starts)

    monkeypatch.setattr(ncseries, "_subtract_products", skipping)
    assert factorization.inner_outer(H).defects["reconstruction_error"] > 1e-3


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nchardy"
QUOTIENT_HELPERS = {"_quotient_fills", "_stored_levels", "_subtract_products"}


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "ncseries.py"),
    ids=lambda p: p.name)
def test_only_ncseries_names_the_quotient_helpers(path):
    # the dense-or-sparse choice of a right quotient lives behind
    # _right_quotient
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & QUOTIENT_HELPERS


@pytest.mark.parametrize("make, dense", [
    *((m, True) for m in DENSE.values()),
    *((m, False) for m in SPARSE.values())],
    ids=[*DENSE, *SPARSE])
def test_the_size_rule_sends_filled_quotients_to_the_dense_path(make,
                                                                dense):
    H = make()
    assert _quotient_fills(H, outer_of(H), H.max_degree) is dense


@pytest.mark.parametrize("make", [*DENSE.values(), *SPARSE.values()],
                         ids=[*DENSE, *SPARSE])
def test_both_paths_give_the_same_factorization(monkeypatch, make):
    H = make()
    ref = factorization.inner_outer(H)
    rule = ncseries._quotient_fills
    monkeypatch.setattr(ncseries, "_quotient_fills",
                        lambda *args: not rule(*args))
    res = factorization.inner_outer(H)
    assert res.outer.codes.tobytes() == ref.outer.codes.tobytes()
    assert res.outer.C.tobytes() == ref.outer.C.tobytes()
    assert max_coeff_diff(res.inner, ref.inner) <= 1e-14
    assert res.defects["outer_defect"] == ref.defects["outer_defect"]
    assert abs(res.defects["inner_defect"]
               - ref.defects["inner_defect"]) <= 1e-14
    for r in (res, ref):
        assert r.defects["reconstruction_error"] <= 1e-13


def test_a_dense_path_input_calls_no_series_invert(monkeypatch):
    calls = []
    invert = ncseries.series_invert

    def counting(*args):
        calls.append(1)
        return invert(*args)

    monkeypatch.setattr(ncseries, "series_invert", counting)
    res = factorization.inner_outer(generic_h())
    assert res.defects["reconstruction_error"] <= 1e-13
    assert calls == []


@pytest.mark.parametrize("H, words", [
    (z1(22), 2 ** 23 - 1),
    (worked_example(18), 2 ** 19 - 1),
], ids=["z1_N22", "worked_example_N18"])
def test_sparse_quotients_allocate_no_dense_stack(H, words):
    factorization.inner_outer(H)
    tracemalloc.start()
    try:
        res = factorization.inner_outer(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.defects["reconstruction_error"] <= 1e-13
    # one (D_N, 1, 1) complex stack takes 16 D_N bytes
    assert peak < 16 * words / 8
