"""The tree Cholesky of the NC Toeplitz Gram against a dense one.

`toeplitz_vacuum_schur` eliminates the words longest first and keeps one
block per prefix; the reference below builds the Gram densely and runs
LAPACK's Cholesky on it with the vacuum last, which is what inner_outer and
outer_defect did before.  Both give the vacuum's Schur complement S, and
the certificate's verdict on G - tau I must not depend on which one runs.
`toeplitz_min_eig` brackets and multisects the Gram's smallest eigenvalue
with the tree; dense `eigvalsh` is its reference.  `_tree_elimination`
runs one pass for many shifts, and each must be the one-shift pass bit
for bit.  The references live here, not in the package.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchardy import factorization, fockspace
from nchardy.errors import DiagnosticError
from nchardy.factorization import GRAM_COND_MIN
from nchardy.fockspace import (
    FockBasis,
    _off_diagonal_bound,
    _tree_elimination,
    toeplitz_data,
    toeplitz_max_bound,
    toeplitz_min_eig,
    toeplitz_vacuum_schur,
)
from nchardy.kernels import inner_defect
from nchardy.ncseries import NcSeries, series_mul, shift_adjoint_apply
from nchardy.transforms import semigroup_inner

EPS = np.finfo(float).eps


def reference_vacuum_schur(G, q):
    """S from a dense Cholesky of G with the order reversed, so that the
    vacuum block comes last: its trailing factor block L_v has
    L_v L_v^H = S, up to the same reversal inside the block."""
    L = np.linalg.cholesky(G[::-1, ::-1])
    Lv = L[-q:, -q:]
    return (Lv @ Lv.conj().T)[::-1, ::-1]


def gram_from_data(t, d, m, k):
    """The NC Toeplitz Gram on |v| <= k from data t over FockBasis(d, m),
    block by block over each word w and its suffixes w[n:], n <= m: t of
    the prefix w[:n] at (w, w[n:]) and its adjoint at (w[n:], w)."""
    basis, index = FockBasis(d, k), FockBasis(d, m).index
    q = t.shape[1]
    G = np.zeros((basis.dim, q, basis.dim, q), dtype=complex)
    at = basis.index
    for i, w in enumerate(basis.words):
        for n in range(min(m, len(w)) + 1):
            j = at[w[n:]]
            G[i, :, j] = t[index[w[:n]]]
            if n:
                G[j, :, i] = t[index[w[:n]]].conj().T
    return G.reshape(basis.dim * q, basis.dim * q)


def gershgorin_bound(t, d, m, k):
    """lambda_max(t_empty) + 2 sum ||t_s||_2 over 0 < |s| <= min(m, k),
    summed word by word."""
    words = FockBasis(d, min(m, k)).words
    return (np.linalg.eigvalsh(t[0])[-1]
            + 2 * sum(np.linalg.norm(t[i], 2) for i in range(1, len(words))))


def random_series(rng, d, deg, N, q):
    words = FockBasis(d, deg).words
    return NcSeries(d, q, q, N, {
        w: rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        for w in words})


def assert_schur_matches(f, k, tol):
    t = toeplitz_data(f)
    G = gram_from_data(t, f.d, f.degree(), k)
    want = reference_vacuum_schur(G, f.cols)
    C = toeplitz_vacuum_schur(t, f.d, k)
    assert np.array_equal(C, np.tril(C))
    assert np.all(np.diag(C).real > 0)
    err = np.abs(C @ C.conj().T - want).max()
    assert err <= tol * np.abs(want).max(), (k, err)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("deg", [1, 2, 3])
def test_tree_schur_matches_dense_cholesky(d, q, deg):
    rng = np.random.default_rng(100 * d + 10 * q + deg)
    valid = 3 if d < 3 else 2
    f = random_series(rng, d, deg, deg + valid, q)
    # windows up to the validity window N - deg, and one beyond it
    for k in range(valid + 2):
        assert_schur_matches(f, k, 1e-13)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("c", [0.9, 0.99, 0.999, 1 - 1e-6, 1.0,
                               np.exp(0.3j) * (1 - 1e-9)])
def test_tree_schur_matches_dense_cholesky_near_singular(d, c):
    # 1 - c z1 has a zero at 1/c, on or next to the boundary: the smallest
    # Gram eigenvalue falls like 1/k^2 and S like 1/k
    windows = (0, 1, 2, 5, 8) if d == 2 else (0, 1, 5, 20, 60)
    H = NcSeries(d, 1, 1, windows[-1] + 1, {(): 1.0, (1,): -c})
    for k in windows:
        assert_schur_matches(H, k, 1e-12)


def boundary_data(delta):
    """Data over two letters and degree 1 whose window-3 Gram has its
    smallest eigenvalue 2 cos(pi/5) delta: t_(1) sits delta below the
    largest value, 1 / (2 cos(pi/5)), that keeps the length-4 chain along
    letter 1 positive definite."""
    a = 1.0 / (2.0 * np.cos(np.pi / 5)) - delta
    return np.array([1.0, a, 0.0], dtype=complex).reshape(3, 1, 1)


def certificate_cases():
    rng = np.random.default_rng(7)
    cases = [(boundary_data(delta), 2, 1, 3)
             for delta in (1e-3, 1e-9, 1e-11, 1e-12, 3e-12, 1e-13, 1e-15,
                           0.0, -1e-12)]
    for q in (1, 2):
        for d, deg in ((1, 2), (2, 1), (2, 2), (3, 1)):
            f = random_series(rng, d, deg, deg + 2, q)
            cases.append((toeplitz_data(f), d, deg, 2))
    for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        # a 2 x 2 series whose constant term is nearly singular
        f = NcSeries(2, 2, 2, 3, {(): np.diag([1.0, eps]),
                                  (1,): [[0.5, 0.0], [0.0, 0.0]]})
        cases.append((toeplitz_data(f), 2, 1, 2))
    return cases


def verdict(fn):
    try:
        fn()
    except (np.linalg.LinAlgError, DiagnosticError):
        return False
    return True


@pytest.mark.parametrize("t, d, m, k", certificate_cases())
def test_certificate_verdict_matches_dense_cholesky(t, d, m, k):
    G = gram_from_data(t, d, m, k)
    bound = gershgorin_bound(t, d, m, k)
    assert np.linalg.eigvalsh(G)[-1] <= bound * (1 + 8 * EPS)
    tau = GRAM_COND_MIN * bound
    dense = verdict(lambda: np.linalg.cholesky(G - tau * np.eye(len(G))))
    tree = verdict(lambda: factorization._certify_wandering(t, d, k))
    assert tree == dense
    # the tree's pivots and the dense ones agree on G itself too
    unshifted = verdict(lambda: np.linalg.cholesky(G))
    assert verdict(lambda: toeplitz_vacuum_schur(t, d, k)) == unshifted


@pytest.mark.parametrize("t, d, m, k", certificate_cases())
def test_shared_pass_certifies_as_the_certificate_alone(t, d, m, k):
    # inner_outer hands _certify_wandering the verdict at tau of its one
    # pass over the shifts 0 and tau
    tau = factorization._certificate_shift(t, d, k)
    fail = _tree_elimination(t, d, k, [0.0, tau])[0]
    alone = verdict(lambda: factorization._certify_wandering(t, d, k))
    assert verdict(lambda: factorization._certify_wandering(
        t, d, k, fail[1])) == alone


def test_certificate_sees_both_sides_of_the_boundary():
    seen = {verdict(lambda t=t: factorization._certify_wandering(t, 2, 3))
            for t in (boundary_data(1e-9), boundary_data(1e-13))}
    assert seen == {True, False}


def test_tree_refuses_non_finite_data():
    t = boundary_data(1e-3)
    t[1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        toeplitz_vacuum_schur(t, 2, 3)


@st.composite
def well_conditioned_series(draw):
    d = draw(st.integers(1, 3))
    q = draw(st.integers(1, 2))
    deg = draw(st.integers(0, 3 if d < 3 else 2))
    words = FockBasis(d, deg).words
    part = st.floats(-1.0, 1.0, allow_nan=False)
    coeffs = {w: np.array([[complex(draw(part), draw(part))
                            for _ in range(q)] for _ in range(q)])
              for w in words}
    # a dominant constant term keeps G invertible to full precision
    coeffs[()] = coeffs[()] + 3.0 * len(words) * np.eye(q)
    return NcSeries(d, q, q, deg + 2, coeffs)


@settings(max_examples=60, deadline=None)
@given(well_conditioned_series(), st.integers(0, 3))
def test_inverse_schur_is_the_vacuum_block_of_the_inverse(f, k):
    q = f.cols
    t = toeplitz_data(f)
    C = toeplitz_vacuum_schur(t, f.d, k)
    want = np.linalg.inv(gram_from_data(t, f.d, f.degree(), k))[:q, :q]
    got = np.linalg.inv(C @ C.conj().T)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def assert_min_eig_matches_dense(t, d, m, k):
    """toeplitz_min_eig on t and -t against eigvalsh of the dense Gram,
    within 1e-13 max(1, |G|); each value sits inside its bracket."""
    vals = np.linalg.eigvalsh(gram_from_data(t, d, m, k))
    tol = 1e-13 * max(1.0, np.abs(vals).max())
    lo, hi = toeplitz_min_eig(t, d, k), -toeplitz_min_eig(-t, d, k)
    assert abs(lo - vals[0]) <= tol, (k, lo, vals[0])
    assert abs(hi - vals[-1]) <= tol, (k, hi, vals[-1])
    assert lo <= np.linalg.eigvalsh(t[0])[0] and hi <= gershgorin_bound(
        t, d, m, k)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("deg", [1, 2, 3])
def test_min_eig_matches_dense_eigvalsh(d, q, deg):
    rng = np.random.default_rng(100 * d + 10 * q + deg)
    valid = 3 if d < 3 else 2
    f = random_series(rng, d, deg, deg + valid, q)
    for k in range(valid + 1):
        assert_min_eig_matches_dense(toeplitz_data(f), d, deg, k)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("c", [0.9, 0.99, 0.999, 1 - 1e-6, 1.0,
                               np.exp(0.3j) * (1 - 1e-9)])
def test_min_eig_matches_dense_eigvalsh_near_singular(d, c):
    windows = (0, 1, 2, 5, 8) if d == 2 else (0, 1, 5, 20, 60)
    t = toeplitz_data(NcSeries(d, 1, 1, 2, {(): 1.0, (1,): -c}))
    for k in windows:
        assert_min_eig_matches_dense(t, d, 1, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_bracket_contains_the_dense_eigenvalue(d, q, deg, k, seed):
    f = random_series(np.random.default_rng(seed), d, deg, deg, q)
    t = toeplitz_data(f)
    lam = np.linalg.eigvalsh(gram_from_data(t, d, deg, k))[0]
    c, top = np.linalg.eigvalsh(t[0])[[0, -1]]
    off = _off_diagonal_bound(t, d, k)
    assert abs(off - (gershgorin_bound(t, d, deg, k) - top)) <= 8 * EPS * off
    slack = 8 * EPS * (abs(c) + off)
    assert c - off - slack <= lam <= c + slack


def split_singular_factor():
    """The singular factor of the benchmark's split of z1 sigma_0.6 at
    N = 8: full support, window 1."""
    z1 = NcSeries.monomial((1,), 2, 8)
    theta = series_mul(z1, semigroup_inner(z1, 0.6, 8), 8)
    return shift_adjoint_apply(z1, theta, 8)


@pytest.mark.parametrize("make, skips", [
    (split_singular_factor, True),
    (lambda: NcSeries(2, 1, 1, 4, {(): 0.3, (2,): 0.5, (2, 1): -0.4}), True),
    (lambda: NcSeries(2, 1, 1, 4, {(1,): 1.2, (1, 2): 0.3}), False),
], ids=["split_singular", "contraction", "dilation"])
def test_inner_defect_skips_a_bisection_that_cannot_matter(monkeypatch,
                                                           make, skips):
    theta = make()
    t, k = toeplitz_data(theta), theta.max_degree - theta.degree()
    calls = []
    tree = fockspace._tree_elimination

    def counting(*args):
        calls.append(1)
        return tree(*args)

    monkeypatch.setattr(fockspace, "_tree_elimination", counting)
    low = 1.0 - toeplitz_min_eig(t, 2, k)
    low_calls = len(calls)
    want = max(low, -1.0 - toeplitz_min_eig(-t, 2, k))
    both_calls = len(calls)
    del calls[:]
    assert inner_defect(theta) == want
    # with the skip, the lambda_max side makes no tree call
    assert 0 < low_calls < both_calls
    assert len(calls) == (low_calls if skips else both_calls)


def dense_d3_inner():
    """The inner factor of 1 - sqrt(2) (a . z) over d = 3 at N = 4, a
    Frostman shift of a unit linear form: every word, window 0."""
    a = np.array([0.6, 0.48j, -0.64])
    H = NcSeries(3, 1, 1, 4, {(): 1.0, **{(j + 1,): -np.sqrt(2.0) * a[j]
                                          for j in range(3)}})
    return factorization.inner_outer(H).inner


@pytest.mark.parametrize("make", [
    split_singular_factor,
    dense_d3_inner,
    lambda: NcSeries(2, 1, 1, 4, {(1,): 1.2, (1, 2): 0.3}),
], ids=["split_singular", "dense_d3_inner", "dilation"])
def test_inner_defect_computes_its_bracket_once(monkeypatch, make):
    theta = make()
    t, d = toeplitz_data(theta), theta.d
    k = theta.max_degree - theta.degree()
    # the defect as two brackets of their own would give it
    low = 1.0 - toeplitz_min_eig(t, d, k)
    want = low if toeplitz_max_bound(t, d, k) - 1.0 <= low else \
        max(low, -1.0 - toeplitz_min_eig(-t, d, k))
    counts = {"eigvalsh": 0, "off": 0}
    eigvalsh, off = np.linalg.eigvalsh, fockspace._off_diagonal_bound

    def counting_eigvalsh(*args):
        counts["eigvalsh"] += 1
        return eigvalsh(*args)

    def counting_off(*args):
        counts["off"] += 1
        return off(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(fockspace, "_off_diagonal_bound", counting_off)
    assert inner_defect(theta) == want
    assert counts == {"eigvalsh": 1, "off": 1}


def one_shift(t, d, k, shift):
    try:
        return toeplitz_vacuum_schur(t, d, k, shift)
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2])
def test_multi_shift_pass_is_one_shift_passes_bit_for_bit(d, q):
    rng = np.random.default_rng(10 * d + q)
    for deg in (1, 2):
        f = random_series(rng, d, deg, deg + 3, q)
        t = toeplitz_data(f)
        for k in range(4):
            vals = np.linalg.eigvalsh(gram_from_data(t, d, deg, k))
            lam = vals[0]
            # both sides of lambda_min, near and far, zero, and a shift
            # above lambda_max that fails at the first pivot; unsorted
            shifts = lam + lam * np.array(
                [1e-3, -1e-12, 0.5, -1.0, 1e-12, -1e-3, 3.0 * vals[-1] / lam])
            fail, C = _tree_elimination(t, d, k, shifts)
            for j, shift in enumerate(shifts):
                want = one_shift(t, d, k, shift)
                assert (fail[j] < 0) == (want is not None), (k, j)
                if want is not None:
                    assert C[j].tobytes() == want.tobytes(), (k, j)
                else:
                    assert np.isnan(C[j]).all()
            assert {f < 0 for f in fail} == {True, False}


def test_split_singular_min_eig_takes_at_most_13_passes(monkeypatch):
    theta = split_singular_factor()
    t = toeplitz_data(theta, 1)
    calls = []
    tree = fockspace._tree_elimination

    def counting(*args):
        calls.append(len(args[3]))
        return tree(*args)

    monkeypatch.setattr(fockspace, "_tree_elimination", counting)
    lam = toeplitz_min_eig(t, 2, 1)
    # bisection took 48 passes; fifteen shifts gain four bits a pass
    assert 0 < len(calls) <= 13 and set(calls) == {15}
    want = np.linalg.eigvalsh(gram_from_data(t, 2, 1, 1))[0]
    assert abs(lam - want) <= 1e-13
