"""The one-callable outer solve against the two-callback solve it
replaced, and inner_outer's shared tree pass.

`_lm(fun, x0)` takes one function returning the residual and its
Jacobian.  tests/kept_jacobian.py keeps the earlier `_OuterProblem`, whose
residual callback kept the J it built for the Jacobian callback, and
`_lm(fun, jac, x0)`.  Both run the same arithmetic in the same order, so
spectral_outer and inner_outer must agree with them bit for bit:
coefficients, codes, defects, errors and the number of residuals
evaluated.  inner_outer's one tree pass serves its certificate and its
outer defect, and its errors keep their order.  A zero of H on the unit
circle limits the solve to about sqrt(eps), as the last test pins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kept_jacobian
import nchardy.factorization as factorization
from nchardy.errors import DiagnosticError, NcError
from nchardy.factorization import inner_outer, spectral_outer
from nchardy.fockspace import FockBasis
from nchardy.kernels import INNER_TOL
from nchardy.ncseries import NcSeries, max_coeff_diff


@st.composite
def square_series(draw):
    """n x n series over d letters of degree <= 3 on a random support with
    the vacuum and a top-degree word: Gaussian or small-integer entries,
    the constant term sometimes made dominant."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    deg = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    words = FockBasis(d, deg).words
    top = [w for w in words if len(w) == deg]
    keep = {(), top[rng.integers(len(top))]}
    keep |= {w for w in words if rng.random() < 0.5}
    if draw(st.booleans()):
        def entry():
            return rng.standard_normal((n, n)) \
                + 1j * rng.standard_normal((n, n))
    else:
        def entry():
            return rng.integers(-2, 3, (n, n)) \
                + 1j * rng.integers(-2, 3, (n, n))
    coeffs = {w: entry() for w in sorted(keep, key=lambda w: (len(w), w))}
    if draw(st.booleans()):
        coeffs[()] = coeffs[()] + 3.0 * np.eye(n)
    return NcSeries(d, n, n, deg + draw(st.integers(0, 2)), coeffs)


def outcome(run, H):
    """run(H) as bytes and reprs, with the residual counts of its solves;
    a refusal gives its type and message instead."""
    counts = []

    def counting(lm):
        def counting_lm(*args):
            out = lm(*args)
            counts.append(out[2])
            return out
        return counting_lm

    with pytest.MonkeyPatch.context() as mp:
        for module in (factorization, kept_jacobian):
            mp.setattr(module, "_lm", counting(module._lm))
        try:
            got = run(H)
        except (NcError, ValueError) as exc:
            return type(exc).__name__, str(exc), counts
    return got, counts


def series_bits(f):
    return (f.d, f.rows, f.cols, f.max_degree, f.codes.tobytes(),
            f.C.tobytes())


@settings(max_examples=80, deadline=None)
@given(square_series())
def test_spectral_outer_is_bitwise_the_two_callback_solve(H):
    want = outcome(kept_jacobian.spectral_outer, H)
    got = outcome(spectral_outer, H)
    if isinstance(want[0], str):
        assert got == want
        return
    (F, nfev), counts = want
    assert series_bits(got[0]) == series_bits(F)
    assert got[1] == counts == [nfev]


@settings(max_examples=40, deadline=None)
@given(square_series())
def test_inner_outer_is_bitwise_the_two_callback_solve(H):
    def reference(H):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factorization, "_spectral_outer",
                       lambda H, t: kept_jacobian._spectral_outer(H, t)[0])
            return inner_outer(H)

    def bits(res):
        return (series_bits(res.inner), series_bits(res.outer),
                res.wandering_dim, res.valid_degree, repr(res.defects))

    want, got = outcome(reference, H), outcome(inner_outer, H)
    if isinstance(want[0], str):
        assert got == want
        return
    assert bits(got[0]) == bits(want[0])
    assert got[1] == want[1]


def test_scalar_inner_outer_makes_one_tree_pass(monkeypatch):
    passes = []
    tree = factorization._tree_elimination

    def counting(*args):
        passes.append(args[3])
        return tree(*args)

    monkeypatch.setattr(factorization, "_tree_elimination", counting)
    H = NcSeries(2, 1, 1, 5, {(): 1.0, (1,): -0.5, (2, 1): 0.3j})
    res = inner_outer(H)
    # shift 0 for the outer defect, tau for the certificate
    assert len(passes) == 1 and passes[0][0] == 0.0 and passes[0][1] > 0
    want = factorization.outer_defect(res.outer)
    assert res.defects["outer_defect"] == want


def test_a_failed_certificate_raises_before_the_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(factorization, "_lm", no_solve)
    # a shift above every eigenvalue of the Gram fails the certificate
    monkeypatch.setattr(factorization, "_certificate_shift",
                        lambda t, d, window: 10.0 * float(t[0, 0, 0].real))
    H = NcSeries(2, 1, 1, 4, {(): 1.0, (1,): -0.5, (1, 2): 0.25})
    with pytest.raises(DiagnosticError, match=(
            r"^wandering dimension not certified: Gram eigenvalue ratio "
            r"not above 1e-12 on the window \|v\| <= 2$")):
        inner_outer(H)


def test_a_stuck_solve_raises_before_dependent_columns(monkeypatch):
    tree = factorization._tree_elimination

    def dependent(t, d, k, shifts):
        # the outer defect's shift 0 fails at the vacuum, which leaves
        # its factor NaN; the rest pass
        fail, C = tree(t, d, k, shifts)
        C[0] = np.nan
        return [0] + fail[1:], C

    H = NcSeries(2, 1, 1, 4, {(): 1.0, (1,): -0.5, (1, 2): 0.25})
    monkeypatch.setattr(factorization, "_tree_elimination", dependent)
    with pytest.raises(DiagnosticError, match=(
            r"^outer defect: the columns h z\^v are dependent on the "
            r"window \|v\| <= 2$")):
        inner_outer(H)
    monkeypatch.setattr(factorization, "_lm",
                        lambda fun, x0: (x0, fun(x0)[0], 1))
    with pytest.raises(DiagnosticError, match="did not converge"):
        inner_outer(H)


def test_a_zero_on_the_unit_circle_leaves_the_outer_factor_near_sqrt_eps():
    # H = c (1 + z) over one letter is outer up to the unimodular phase
    # of c, but the data are flat to first order in F's error at the
    # zero z = -1: the solve passes its 1e-11 residual gate with F about
    # 2e-8 off its closed form, and the inner factor keeps two spurious
    # words of 2.3e-8, above INNER_TOL
    c = -2.0 - 2.0j
    H = NcSeries(1, 1, 1, 2, {(): c, (1,): c})
    res = inner_outer(H)
    exact = NcSeries(1, 1, 1, 2, {(): c, (1,): c})
    assert 1e-8 <= max_coeff_diff(res.outer, exact) <= 5e-8
    assert res.inner.support() == [(), (1,), (1, 1)]
    spurious = np.abs(res.inner.C[1:, 0, 0])
    assert ((2e-8 <= spurious) & (spurious <= 3e-8)).all()
    assert abs(abs(res.inner.scalar_coeff(())) - 1.0) <= 1e-7
    assert INNER_TOL < res.defects["inner_defect"] <= 3e-8
    assert res.defects["reconstruction_error"] <= 1e-14
