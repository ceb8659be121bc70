"""The autocorrelation layer against the dense Fock-space code it replaced.

Index triples, the NC Toeplitz Gram, the exact-Jacobian spectral solve and
the Gram certificates are each checked against a reference built the old
way: dense multiplication operators, dense Gram matrices and their
eigenvalues, SVD frames, right-shift matrices, a
finite-difference least-squares solve, and scipy's MINPACK
`least_squares(method="lm")` loop that the numpy `_lm` replaced.  The
data t_s themselves, paired by prefix lookup, must equal bit for bit the
gather over the index triples that they replaced.  The references live
here and in gathered_autocorrelation.py, not in the package.
"""

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nchardy.factorization as factorization
import nchardy.fockspace as fockspace
import nchardy.kernels as kernels
from nchardy.errors import DiagnosticError, NotInnerError, ValidityWindowError
from nchardy.factorization import (
    GRAM_COND_MIN,
    _lm,
    _outer_system,
    autocorrelation,
    inner_outer,
    outer_defect,
    singular_test,
    spectral_outer,
)
from nchardy.fockspace import (
    FockBasis,
    coeff_stack,
    isometry_defect,
    mult_operator,
    orthonormal_frame,
    toeplitz_data,
    toeplitz_min_eig,
    validity_window,
    word_triples,
)
from nchardy.kernels import check_inner, inner_defect
from nchardy.ncseries import (
    NcSeries,
    _pow2_normalized,
    commutator_inner,
    max_coeff_diff,
    phase_normalize,
    series_mul,
)
from nchardy.transforms import frostman, semigroup_inner

from dense_wandering import wandering_projection
import gathered_autocorrelation as gathered
from gathered_autocorrelation import autocorrelation_stack


def random_series(rng, d, deg, N, rows=1, cols=1, density=0.7):
    """Complex Gaussian coefficients on a random support that always
    includes the vacuum and one word of the top degree."""
    words = FockBasis(d, deg).words
    top = [w for w in words if len(w) == deg]
    keep = {(), top[rng.integers(len(top))]}
    keep |= {w for w in words if rng.random() < density}
    return NcSeries(d, rows, cols, N, {
        w: rng.standard_normal((rows, cols))
        + 1j * rng.standard_normal((rows, cols)) for w in keep})


def right_shift_matrix(basis, k):
    """R_k: e_w -> e_{wk}, zero on the top degree, as a loop over the
    words: built from word_triples it would compare that code with
    itself."""
    R = np.zeros((basis.dim, basis.dim))
    index = basis.index
    for j, w in enumerate(basis.words):
        if len(w) < basis.max_degree:
            R[index[w + (k,)], j] = 1.0
    return R


def dense_gram(f, k):
    C = mult_operator(f).restricted(k)
    return C.conj().T @ C


def toeplitz_gram(f, k):
    """f's NC Toeplitz Gram on |v| <= k from toeplitz_data, word by word:
    t of the prefix w[:n], n <= deg f, at block (w, w[n:]) and its adjoint
    at (w[n:], w)."""
    t, m, q = toeplitz_data(f), f.degree(), f.cols
    basis, index = FockBasis(f.d, k), FockBasis(f.d, m).index
    G = np.zeros((basis.dim, q, basis.dim, q), dtype=complex)
    at = basis.index
    for i, w in enumerate(basis.words):
        for n in range(min(m, len(w)) + 1):
            j = at[w[n:]]
            G[i, :, j] = t[index[w[:n]]]
            if n:
                G[j, :, i] = t[index[w[:n]]].conj().T
    return G.reshape(basis.dim * q, basis.dim * q)


# -- seed references ----------------------------------------------------


def reference_spectral_outer(H, degree=None, max_retries=4, seed=0):
    """The finite-difference Levenberg-Marquardt solve over tuple-keyed
    dicts that spectral_outer used before the index-triple rewrite."""
    n = H.rows
    m = H.degree() if degree is None else int(degree)
    words = FockBasis(H.d, m).words
    target = autocorrelation(H, m)

    def pack(Fd):
        parts = []
        F0 = Fd[()]
        for i in range(n):
            parts.append(F0[i, i].real)
        for i in range(n):
            for j in range(i + 1, n):
                parts.append(F0[i, j].real)
                parts.append(F0[i, j].imag)
        for w in words[1:]:
            parts.append(Fd[w].real.reshape(-1))
            parts.append(Fd[w].imag.reshape(-1))
        return np.concatenate([np.atleast_1d(p) for p in parts])

    def unpack(x):
        F0 = np.zeros((n, n), dtype=complex)
        pos = 0
        for i in range(n):
            F0[i, i] = x[pos]
            pos += 1
        for i in range(n):
            for j in range(i + 1, n):
                F0[i, j] = x[pos] + 1j * x[pos + 1]
                F0[j, i] = x[pos] - 1j * x[pos + 1]
                pos += 2
        Fd = {(): F0}
        nn = n * n
        for w in words[1:]:
            re = x[pos:pos + nn].reshape(n, n)
            im = x[pos + nn:pos + 2 * nn].reshape(n, n)
            pos += 2 * nn
            Fd[w] = re + 1j * im
        return Fd

    def residual(x):
        Fd = unpack(x)
        out = []
        for s in words:
            acc = -target[s]
            for mu, Fm in Fd.items():
                if len(mu) + len(s) > m:
                    continue
                Fms = Fd.get(mu + s)
                if Fms is not None:
                    acc = acc + Fm.conj().T @ Fms
            out.append(acc.real.reshape(-1))
            out.append(acc.imag.reshape(-1))
        return np.concatenate(out)

    t0 = target[()]
    scale = max(1.0, float(np.linalg.norm(t0)))
    vals, vecs = np.linalg.eigh(0.5 * (t0 + t0.conj().T))
    init = {w: np.zeros((n, n), dtype=complex) for w in words}
    init[()] = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) \
        @ vecs.conj().T
    x0 = pack(init)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max_retries):
        res = scipy.optimize.least_squares(
            residual, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        err = float(np.max(np.abs(res.fun)))
        if best is None or err < best[0]:
            best = (err, res.x)
        if err <= 1e-11 * scale:
            break
        x0 = pack(init) + 0.1 * np.sqrt(scale) * rng.standard_normal(x0.size)
    assert best[0] <= 1e-11 * scale
    Fd = unpack(best[1])
    if n == 1 and Fd[()][0, 0].real < 0:
        Fd = {w: -M for w, M in Fd.items()}
    return NcSeries(H.d, n, n, m, {w: M for w, M in Fd.items()
                                   if np.any(np.abs(M) > 1e-14)})


def reference_outer_defect(h, N):
    """Vacuum residual against an SVD frame of the dense operator columns."""
    basis = FockBasis(h.d, N)
    op = mult_operator(h.truncate(N), basis)
    Q = orthonormal_frame(op.restricted(max(op.valid_degree, 0)))
    p = h.rows
    E0 = np.zeros((basis.dim * p, p), dtype=complex)
    E0[:p, :p] = np.eye(p)
    R = E0 - Q @ (Q.conj().T @ E0)
    vals = np.linalg.eigvalsh(R.conj().T @ R)
    pick = vals[-1] if h.cols == h.rows and h.rows > 1 else vals[0]
    return float(np.sqrt(max(pick, 0.0)))


def triangular_outer_defect(h, N):
    """The outer defect through a forward solve of the Cholesky factor
    against the vacuum columns, as outer_defect computed it before the
    Schur-complement form."""
    hN = h.truncate(N)
    L = np.linalg.cholesky(toeplitz_gram(hN, max(N - hN.degree(), 0)))
    E = np.eye(L.shape[0], h.cols, dtype=complex)
    X = scipy.linalg.solve_triangular(L, E, lower=True)
    h0 = hN.coeff(())
    G = np.eye(h.rows) - h0 @ (X.conj().T @ X) @ h0.conj().T
    vals = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    pick = vals[-1] if h.cols == h.rows and h.rows > 1 else vals[0]
    return float(np.sqrt(max(pick, 0.0)))


# -- index triples and autocorrelation ---------------------------------


@pytest.mark.parametrize("d, m", [(1, 4), (2, 3), (3, 2)])
def test_word_triples_enumerate_every_concatenation(d, m):
    words = FockBasis(d, m).words
    s, mu, cat = word_triples(d, m)
    got = {(words[a], words[b]) for a, b in zip(mu, s)}
    want = {(x, y) for x in words for y in words
            if len(x) + len(y) <= m}
    assert got == want and len(s) == len(want)
    assert all(words[c] == words[a] + words[b]
               for a, b, c in zip(mu, s, cat))
    # s by length, then mu s ascending, as gathered_autocorrelation reads
    ls = np.array([len(words[b]) for b in s])
    assert np.all((np.diff(ls) > 0) | (np.diff(ls) == 0) & (np.diff(cat) > 0))
    assert s.dtype == np.intp and not s.flags.writeable
    assert word_triples(d, m)[0] is s


def test_autocorrelation_matches_word_loop_on_blocks():
    rng = np.random.default_rng(3)
    H = random_series(rng, 2, 2, 4, rows=3, cols=2)
    t = autocorrelation(H, 3)
    for s in FockBasis(2, 3).words:
        want = np.zeros((2, 2), dtype=complex)
        for mu, Hm in H.coeffs.items():
            if len(mu) + len(s) <= 3 and mu + s in H.coeffs:
                want += Hm.conj().T @ H.coeffs[mu + s]
        assert np.abs(t[s] - want).max() <= 1e-14


# -- NC Toeplitz Gram ---------------------------------------------------


@pytest.mark.parametrize("d, rows, cols, deg, N", [
    (1, 1, 1, 3, 7), (2, 1, 1, 2, 6), (3, 1, 1, 2, 4),
    (2, 2, 2, 1, 4), (2, 2, 1, 2, 5), (2, 1, 2, 1, 4),
])
def test_toeplitz_gram_matches_dense_gram(d, rows, cols, deg, N):
    rng = np.random.default_rng(10 * d + deg)
    f = random_series(rng, d, deg, N, rows, cols)
    for k in range(N - deg + 1):
        assert np.abs(toeplitz_gram(f, k) - dense_gram(f, k)).max() <= 1e-13


@pytest.mark.parametrize("rows", [1, 2])
def test_toeplitz_gram_full_support_at_window_zero(rows):
    rng = np.random.default_rng(rows)
    f = random_series(rng, 2, 4, 4, rows, rows, density=1.0)
    assert np.abs(toeplitz_gram(f, 0) - dense_gram(f, 0)).max() <= 1e-13


def test_toeplitz_gram_of_inner_is_identity():
    V = commutator_inner(max_degree=8)
    G = toeplitz_gram(V, 6)
    assert np.abs(G - np.eye(G.shape[0])).max() <= 1e-15


@st.composite
def polynomials(draw, d=None, max_deg=3):
    if d is None:
        d = draw(st.integers(1, 3))
    deg = draw(st.integers(0, max_deg))
    words = FockBasis(d, deg).words
    part = st.floats(-2.0, 2.0, allow_nan=False)
    coeffs = {}
    for w in draw(st.lists(st.sampled_from(words), min_size=1,
                           unique=True)):
        coeffs[w] = complex(draw(part), draw(part))
    return NcSeries(d, 1, 1, max(deg, 1), coeffs)


@settings(max_examples=40, deadline=None)
@given(polynomials(), st.integers(0, 3))
def test_toeplitz_gram_is_hermitian(f, k):
    G = toeplitz_gram(f, k)
    assert np.array_equal(G, G.conj().T)


@st.composite
def inners(draw):
    """Monomials z^w and the commutator V."""
    if draw(st.booleans()):
        return commutator_inner()
    d = draw(st.integers(1, 3))
    return NcSeries.monomial(
        draw(st.lists(st.integers(1, d), min_size=1, max_size=3)), d)


@settings(max_examples=40, deadline=None)
@given(inners(), st.data())
def test_autocorrelation_blind_to_inner_factor(B, data):
    F = data.draw(polynomials(d=B.d, max_deg=2))
    m = B.degree() + F.degree()
    BF = series_mul(B.with_max_degree(m), F.with_max_degree(m), m)
    tBF = autocorrelation(BF, m)
    tF = autocorrelation(F.with_max_degree(m), m)
    assert max(np.abs(tBF[s] - tF[s]).max() for s in tF) <= 1e-12


# -- wandering projection by gathers ------------------------------------


@pytest.mark.parametrize("d, N", [(1, 4), (2, 3), (3, 2)])
def test_wandering_projection_matches_shift_matrices(d, N):
    basis = FockBasis(d, N)
    rng = np.random.default_rng(d + N + 1)
    n = basis.dim
    Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = Q.copy()
    for k in range(1, d + 1):
        R = right_shift_matrix(basis, k)
        want -= R @ Q @ R.conj().T
    assert np.array_equal(wandering_projection(Q, basis), want)


# -- spectral factorization ---------------------------------------------


def spectral_corpus():
    rng = np.random.default_rng(2024)
    out = []
    for d, deg in ((1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        out.append(random_series(rng, d, deg, deg))
    for deg in (1, 2):
        H = random_series(rng, 2, deg, deg, 2, 2, density=0.5)
        H = H + NcSeries.constant(3.0 * np.eye(2), 2, H.max_degree)
        out.append(H)
    out.append(frostman(commutator_inner(max_degree=5), 0.3 - 0.2j, 5))
    return out


@pytest.mark.parametrize("H", spectral_corpus())
def test_spectral_outer_matches_finite_difference_solver(H):
    got, _ = phase_normalize(spectral_outer(H))
    want, _ = phase_normalize(reference_spectral_outer(H))
    assert max_coeff_diff(got, want, H.degree()) <= 1e-12


def outer_problem(H, m):
    """(fun, target): the outer system matching t_s(H) for |s| <= m, and
    the (dim, n, n) stack of those t_s."""
    target = autocorrelation_stack(coeff_stack(H, FockBasis(H.d, m)), H.d, m)
    return _outer_system(H.d, m, target), target


@pytest.mark.parametrize("rows, d, deg", [(1, 2, 2), (1, 3, 1), (2, 2, 1),
                                          (3, 1, 2)])
def test_outer_jacobian_matches_finite_differences(rows, d, deg):
    rng = np.random.default_rng(rows + d + deg)
    fun, target = outer_problem(
        random_series(rng, d, deg, deg, rows, rows), deg)
    x = rng.standard_normal(2 * target.size)
    J = fun(x)[1]
    h = 1e-6
    fd = np.column_stack([
        (fun(x + h * e)[0] - fun(x - h * e)[0]) / (2 * h)
        for e in np.eye(x.size)])
    assert J.shape == fd.shape
    assert np.abs(J - fd).max() <= 1e-7 * max(1.0, np.abs(J).max())


@st.composite
def square_polynomials(draw):
    """Nonzero n x n polynomials, n <= 3, whose entries are often exactly
    0 or -0, so that signed zeros reach t_empty."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    deg = draw(st.integers(0, 3))
    words = FockBasis(d, deg).words
    part = st.one_of(st.floats(-2.0, 2.0, allow_nan=False),
                     st.sampled_from([0.0, -0.0, 1.0, -0.5]))
    coeffs = {}
    for w in draw(st.lists(st.sampled_from(words), min_size=1,
                           unique=True)):
        coeffs[w] = np.array([[complex(draw(part), draw(part))
                               for _ in range(n)] for _ in range(n)])
    H = NcSeries(d, n, n, deg, coeffs)
    assume(H.codes.size)
    return H


@settings(max_examples=200, deadline=None)
@given(square_polynomials())
def test_normalised_vacuum_data_are_exactly_hermitian(H):
    """spectral_outer eigen-decomposes t_empty / mass as it is:
    toeplitz_data makes t_empty exactly Hermitian and the real mass keeps
    it so, so symmetrizing it once more changes no bit."""
    H = _pow2_normalized(H)[0]
    t0 = toeplitz_data(H)[0]
    T = t0 / float(np.trace(t0).real)
    assert np.array_equal(T, T.conj().T)
    assert (0.5 * (T + T.conj().T)).tobytes() == T.tobytes()


@pytest.mark.parametrize("H", spectral_corpus())
def test_spectral_outer_returns_a_hermitian_vacuum(H):
    F0 = spectral_outer(H).coeff(())
    assert np.array_equal(F0, F0.conj().T)
    if H.rows == 1:
        assert F0[0, 0].imag == 0.0 and F0[0, 0].real > 0.0


def scipy_spectral_outer(H):
    """spectral_outer as it was before `_lm`: the same start, retries, gate
    and Hermitian post-step around scipy's MINPACK Levenberg-Marquardt."""
    n, m = H.rows, H.degree()
    fun, target = outer_problem(H, m)
    t0 = target[0]
    scale = max(1.0, float(np.linalg.norm(t0)))
    vals, vecs = np.linalg.eigh(0.5 * (t0 + t0.conj().T))
    init = np.zeros(target.shape, dtype=complex)
    init[0] = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    x0 = x_init = init.reshape(-1).view(float)
    rng = np.random.default_rng(0)
    best = None
    for _ in range(4):
        res = scipy.optimize.least_squares(
            lambda x: fun(x)[0], x0, jac=lambda x: fun(x)[1], method="lm",
            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        err = float(np.max(np.abs(res.fun)))
        if best is None or err < best[0]:
            best = (err, res.x)
        if err <= 1e-11 * scale:
            break
        x0 = x_init + 0.1 * np.sqrt(scale) * rng.standard_normal(x0.size)
    assert best[0] <= 1e-11 * scale
    F = best[1].view(complex).reshape(target.shape).copy()
    F[0] = 0.5 * (F[0] + F[0].conj().T)
    if n == 1 and F[0, 0, 0].real < 0:
        F = -F
    return NcSeries(H.d, n, n, m, {
        w: M for w, M in zip(FockBasis(H.d, m).words, F)
        if np.any(np.abs(M) > 1e-14)})


def benchmark_shaped_corpus():
    """Scalars over d = 2, 3 of degree 1-3 (vacuum, one top word and up to
    four more words) and 2 x 2 polynomials over d = 2 with a dominant
    constant, as the spectral_factor benchmark draws them."""
    rng = np.random.default_rng(11)

    def g(shape=()):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    out = []
    for d, deg in itertools.product((2, 3), (1, 2, 3)):
        words = FockBasis(d, deg).words[1:]
        top = [w for w in words if len(w) == deg]
        for _ in range(4):
            coeffs = {(): g(), top[rng.integers(len(top))]: g()}
            for i in rng.choice(len(words), size=min(4, len(words)),
                                replace=False):
                coeffs[words[i]] = g()
            out.append(NcSeries(d, 1, 1, deg, coeffs))
    for deg in (1, 1, 2, 2, 3):
        words = FockBasis(2, deg).words[1:]
        top = [w for w in words if len(w) == deg]
        coeffs = {(): 2.0 * np.eye(2) + 0.3 * g((2, 2)),
                  top[rng.integers(len(top))]: g((2, 2))}
        for w in words:
            if w not in coeffs and rng.random() < 0.5:
                coeffs[w] = g((2, 2))
        out.append(NcSeries(2, 2, 2, deg, coeffs))
    return out


@pytest.mark.parametrize("H", spectral_corpus() + benchmark_shaped_corpus())
def test_spectral_outer_matches_scipy_least_squares(H):
    # naive damping overflows at converged points, so any overflow,
    # invalid operation or division by zero fails the test
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got, _ = phase_normalize(spectral_outer(H))
    want, _ = phase_normalize(scipy_spectral_outer(H))
    assert max_coeff_diff(got, want, H.degree()) <= 1e-12


def outer_problem_at_its_solution():
    """1 + z1/2 - z2/4 is outer with a real vacuum: its coefficients solve
    the outer problem with an exactly zero residual."""
    H = NcSeries(2, 1, 1, 1, {(): 1.0, (1,): 0.5, (2,): -0.25})
    fun, _ = outer_problem(H, 1)
    x = coeff_stack(H, FockBasis(2, 1)).reshape(-1).view(float).copy()
    return fun, x


def test_lm_returns_a_zero_residual_start_unchanged():
    system, x_star = outer_problem_at_its_solution()
    assert not np.any(system(x_star)[0])
    calls = []

    def fun(x):
        calls.append(1)
        return system(x)

    # a zero residual takes no step, so fun runs once, at the start
    x, r, nfev = _lm(fun, x_star.copy())
    assert nfev == len(calls) == 1
    assert np.array_equal(x, x_star) and not np.any(r)


def test_lm_converges_from_one_newton_step_away():
    fun, x_star = outer_problem_at_its_solution()
    J = fun(x_star)[1]
    # x0 - x_star solves J h = r for a small residual direction r, so the
    # Gauss-Newton step from x0 lands on x_star to second order
    r = 1e-4 * np.random.default_rng(3).standard_normal(J.shape[0])
    x0 = x_star + np.linalg.lstsq(J, r, rcond=None)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x, res, nfev = _lm(fun, x0)
    assert np.abs(res).max() <= 1e-15
    assert np.abs(x - x_star).max() <= 1e-14
    assert nfev <= 6


def test_lm_stops_on_a_singular_damped_system_at_a_boundary_zero():
    # c (1 + z2) vanishes on the boundary, so J^T J is singular at the
    # outer factor and the damping shrinks to an exactly singular system
    c = 0.11721777455823412 + 1j
    res = inner_outer(NcSeries(2, 1, 1, 1, {(2,): c, (): c}))
    assert res.wandering_dim == 1
    assert res.defects["reconstruction_error"] <= 1e-10


def test_spectral_outer_refuses_a_solve_that_never_converges(monkeypatch):
    starts, errs = [], []

    def stuck(fun, x0):
        r = fun(x0)[0]
        starts.append(x0)
        errs.append(np.abs(r).max())
        return x0, r, 1

    monkeypatch.setattr(factorization, "_lm", stuck)
    H = NcSeries(2, 1, 1, 2, {(): 1.0, (1,): -0.5, (1, 2): 0.25})
    with pytest.raises(DiagnosticError) as info:
        spectral_outer(H)
    # one solve, started from sqrt(t_empty) of H / |H|_2, which is 1
    assert len(starts) == 1
    assert starts[0][0] == 1.0
    assert not np.any(starts[0][2:])
    assert f"(residual {errs[0]:.3e})" in str(info.value)


def test_a_failed_solve_names_its_residual_count(monkeypatch):
    def stuck(fun, x0):
        return x0, fun(x0)[0], 17

    monkeypatch.setattr(factorization, "_lm", stuck)
    H = NcSeries(2, 1, 1, 2, {(): 1.0, (1,): -0.5, (1, 2): 0.25})
    with pytest.raises(DiagnosticError, match="after 17 residual evaluations"):
        spectral_outer(H)


@pytest.mark.parametrize("s", [1e-13, 1e-8, 1.0, 1e4])
def test_inner_outer_is_scale_invariant(s):
    # at s = 1e-13, |H|_2^2 lies below any absolute gate or cut; the inner
    # factor must still be 1 and the outer must scale with H
    def factor(s):
        return inner_outer(NcSeries(2, 1, 1, 4, {
            (): s, (1,): -0.5 * s, (1, 2): 1e-7 * s}))

    ref, res = factor(1.0), factor(s)
    assert res.inner.support() == [()]
    assert max_coeff_diff(res.inner, ref.inner) <= 1e-15
    assert res.outer.support() == ref.outer.support()
    assert max_coeff_diff(res.outer.scale(1.0 / s), ref.outer) <= 1e-15


def test_spectral_outer_refuses_the_zero_series():
    with pytest.raises(ValueError, match="zero series"):
        spectral_outer(NcSeries(2, 1, 1, 2, {}))


# -- Gram certificates --------------------------------------------------


def test_outer_defect_matches_svd_frame():
    rng = np.random.default_rng(8)
    cases = [NcSeries(2, 1, 1, 8, {(): 1.0, (1,): -0.5}),
             NcSeries.monomial((1,), 2, 8),
             commutator_inner(max_degree=6) + 2.0]
    for d, deg, N in ((2, 2, 5), (3, 1, 3), (1, 2, 6)):
        cases.append(random_series(rng, d, deg, N))
    H = random_series(rng, 2, 1, 4, 2, 2)
    H = H + NcSeries.constant(3.0 * np.eye(2), 2, H.max_degree)
    cases.append(H)
    cases.append(random_series(rng, 2, 1, 4, 2, 1))
    for h in cases:
        N = h.max_degree
        assert abs(outer_defect(h, N) - reference_outer_defect(h, N)) <= 1e-10
    assert outer_defect(cases[0]) == pytest.approx(0.003383, abs=1e-6)
    assert outer_defect(cases[1]) == pytest.approx(1.0, abs=1e-12)


def outer_defect_corpus():
    rng = np.random.default_rng(21)
    cases = [NcSeries(2, 1, 1, 8, {(): 1.0, (1,): -0.5}),
             NcSeries.monomial((1,), 2, 8),
             commutator_inner(max_degree=6) + 2.0]
    for d, deg, N in ((2, 2, 5), (3, 1, 3), (1, 3, 7), (2, 1, 6)):
        cases.append(random_series(rng, d, deg, N))
        cases.append(random_series(rng, d, deg, N, 3, 1))
        for n in (2, 3):
            H = random_series(rng, d, deg, N, n, n)
            H = H + NcSeries.constant(3.0 * np.eye(n), d, H.max_degree)
            cases.append(H)
    return cases


@pytest.mark.parametrize("h", outer_defect_corpus())
def test_outer_defect_matches_triangular_solve(h):
    N = h.max_degree
    want = triangular_outer_defect(h, N)
    assert abs(outer_defect(h, N) ** 2 - want ** 2) <= 1e-12
    if h.rows == h.cols and h.degree() >= 1:
        # inner_outer reads the outer factor's defect off H's own Gram
        r = inner_outer(h)
        want = triangular_outer_defect(r.outer, N)
        assert abs(r.defects["outer_defect"] ** 2 - want ** 2) <= 1e-12


def test_outer_defect_refuses_dependent_columns():
    with pytest.raises(DiagnosticError):
        outer_defect(NcSeries(2, 1, 1, 3, {}))


def inner_corpus():
    z1 = NcSeries.monomial((1,), 2, 6)
    V = commutator_inner(max_degree=6)
    return [z1, V, series_mul(z1, V, 6), frostman(V, 0.5, 6),
            semigroup_inner(z1, 0.4, 6), 1.0 - np.sqrt(2.0) * V,
            NcSeries.monomial((1, 2), 3, 5),
            NcSeries(2, 2, 2, 4, {(1,): np.eye(2), (2,): np.diag([0.5, 0])})]


@pytest.mark.parametrize("theta", inner_corpus())
def test_min_eig_matches_dense_eigvalsh_on_inners(theta):
    t = toeplitz_data(theta)
    op = mult_operator(theta)
    for k in range(op.valid_degree + 1):
        vals = np.linalg.eigvalsh(dense_gram(theta, k))
        tol = 1e-13 * max(1.0, vals[-1])
        assert abs(toeplitz_min_eig(t, theta.d, k) - vals[0]) <= tol
        assert abs(-toeplitz_min_eig(-t, theta.d, k) - vals[-1]) <= tol


@pytest.mark.parametrize("theta", inner_corpus())
def test_inner_defect_matches_dense_isometry_defect(theta):
    op = mult_operator(theta)
    for k in range(op.valid_degree + 1):
        assert abs(inner_defect(theta, k) - isometry_defect(op, k)) <= 1e-13
    with pytest.raises(ValidityWindowError):
        inner_defect(theta, op.valid_degree + 1)
    want = isometry_defect(op, op.valid_degree)
    tol = 1e-8 if op.valid_degree >= 1 else 0.25
    if want <= tol:
        assert abs(check_inner(theta) - want) <= 1e-13
    else:
        with pytest.raises(NotInnerError):
            check_inner(theta)


@st.composite
def pairing_symbols(draw):
    """Scalar, column or square symbols over d in {1, 2, 3} with sparse,
    full or empty support.  Entries mix signed zeros and exact values,
    which make sums cancel, with Gaussian floats, which make rounding
    depend on the order of every sum."""
    d = draw(st.sampled_from([1, 2, 3]))
    rows, cols = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    deg = draw(st.integers(0, 4 if d < 3 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    words = FockBasis(d, deg).words
    support = draw(st.sampled_from(["sparse", "full", "zero"]))
    if support == "sparse":
        words = [w for w in words if rng.random() < 0.3]
    elif support == "zero":
        words = []

    def part():
        x = rng.standard_normal((rows, cols))
        exact = rng.random((rows, cols)) < 0.4
        x[exact] = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], exact.sum())
        return x

    return NcSeries(d, rows, cols, deg + draw(st.integers(0, 2)),
                    {w: part() + 1j * part() for w in words})


@settings(max_examples=200, deadline=None)
@given(pairing_symbols())
def test_prefix_pairing_equals_the_gathered_data_bitwise(f):
    for k in [None, *range(f.degree() + 2)]:
        got, want = toeplitz_data(f, k), gathered.toeplitz_data(f, k)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (2, 1)])
def test_windowed_data_are_a_prefix_of_the_full_data(d, rows, cols):
    rng = np.random.default_rng(10 * d + rows + cols)
    deg = 4 if d < 3 else 3
    f = random_series(rng, d, deg, deg + 1, rows, cols)
    full = toeplitz_data(f)
    A = coeff_stack(f, FockBasis(d, deg))
    stack = autocorrelation_stack(A, d, deg)
    for k in range(deg + 2):
        n = FockBasis(d, min(deg, k)).dim
        t = toeplitz_data(f, k)
        assert t.shape == (n, cols, cols)
        assert t.tobytes() == full[:n].tobytes()
        assert autocorrelation_stack(A, d, deg, k).tobytes() == \
            stack[:n].tobytes()
    with pytest.raises(ValueError, match="negative"):
        toeplitz_data(f, -1)


@pytest.mark.parametrize("theta", inner_corpus())
def test_windowed_data_leave_defects_and_reports_unchanged(theta,
                                                           monkeypatch):
    """inner_defect and singular_test read t only through their windows,
    so the window-limited data give the full data's results bit for
    bit."""
    def run():
        valid = validity_window(theta)
        defects = [inner_defect(theta, k) for k in range(valid + 1)]
        try:
            report = singular_test(theta, num_samples=6)
        except NotInnerError as exc:
            report = exc.defect
        return repr((defects, report))

    windowed = run()

    def full_data(f, k=None):
        return toeplitz_data(f)

    monkeypatch.setattr(kernels, "toeplitz_data", full_data)
    monkeypatch.setattr(factorization, "toeplitz_data", full_data)
    assert run() == windowed


def test_certificates_build_no_multiplication_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense multiplication operator built")

    monkeypatch.setattr(fockspace, "mult_operator", refuse)
    monkeypatch.setattr(fockspace, "OperatorMatrix", refuse)
    V = commutator_inner(max_degree=8)
    r = inner_outer(1.0 - np.sqrt(2.0) * V)
    assert r.wandering_dim == 1
    check_inner(V)
    inner_defect(r.inner)
    outer_defect(r.outer)


def test_wandering_dim_refuses_ill_conditioned_gram(monkeypatch):
    # No polynomial of modest degree has a Gram this badly conditioned on
    # a window this short, so the data are swapped in: t_empty = 1 and
    # t_(1) just below 1 / (2 cos(pi/5)) make the window-3 Gram over one
    # letter the tridiagonal Toeplitz matrix below, positive definite with
    # eigenvalue ratio 8e-14.
    a = 1.0 / (2.0 * np.cos(np.pi / 5)) - 1e-13
    t = np.array([1.0, a], dtype=complex).reshape(2, 1, 1)
    vals = np.linalg.eigvalsh(scipy.linalg.toeplitz([1.0, a, 0.0, 0.0]))
    assert 0.0 < vals[0] / vals[-1] < GRAM_COND_MIN
    monkeypatch.setattr(factorization, "toeplitz_data", lambda f: t)
    H = NcSeries(1, 1, 1, 4, {(): 1.0, (1,): -0.5})
    with pytest.raises(DiagnosticError, match=r"window \|v\| <= 3"):
        inner_outer(H)


def record_spectra(monkeypatch):
    """The sizes of every dense eigen-solve and SVD from here on."""
    sizes = []

    def recording(solver):
        def solve(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return solver(a, *args, **kwargs)
        return solve

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg,
                                                               name)))
    return sizes


@pytest.mark.parametrize("H, N", [
    (1.0 - np.sqrt(2.0) * commutator_inner(max_degree=8), 8),
    # inner factor z1: the outer factor 1 - 0.5 z2 has the larger window
    (NcSeries(2, 1, 1, 6, {(1,): 1.0, (1, 2): -0.5}), 6),
    (NcSeries(2, 2, 2, 4, {(): 2.0 * np.eye(2),
                           (1, 2): [[0.3, 1.0], [0.0, -0.4]]}), 4),
])
def test_inner_outer_builds_no_gram_and_no_large_spectrum(monkeypatch, H,
                                                           N):
    """H's Gram and the inner factor's are read only through the tree
    Cholesky: no eigen-solve is larger than q x q."""
    sizes = record_spectra(monkeypatch)
    r = inner_outer(H)
    assert r.wandering_dim == H.rows
    assert r.valid_degree == N - H.degree()
    # spectral_outer's start sqrt(t_empty), the brackets' t_empty and the
    # outer defect's q x q residual Gram
    assert sizes and set(sizes) == {H.rows}


@pytest.mark.parametrize("theta", [
    NcSeries.monomial((1,), 2, 8),
    series_mul(NcSeries.monomial((1,), 2, 8), commutator_inner(max_degree=8),
               8),
    semigroup_inner(NcSeries.monomial((1,), 2), 0.4, 6),
    NcSeries(2, 2, 2, 6, {(1,): np.diag([1.0, 0.0]),
                          (2,): np.diag([0.0, 1.0])}),
])
def test_inner_checks_build_no_gram_and_no_large_spectrum(monkeypatch,
                                                          theta):
    """check_inner reads only t_empty's spectrum; singular_test adds the
    SVDs of its sample values, at most 3q x 3q, whatever the window."""
    sizes = record_spectra(monkeypatch)
    check_inner(theta)
    assert set(sizes) == {theta.cols}
    sizes.clear()
    singular_test(theta, num_samples=6)
    assert sizes and max(sizes) <= 3 * theta.cols


def test_refused_inner_builds_no_large_spectrum(monkeypatch):
    # t_(1) of 0.6 + 0.8 z1 is not zero, so its brackets are bisected
    sizes = record_spectra(monkeypatch)
    with pytest.raises(NotInnerError):
        check_inner(NcSeries(2, 1, 1, 8, {(): 0.6, (1,): 0.8}))
    assert set(sizes) == {1}


def test_inner_outer_at_N12_matches_the_frostman_closed_form():
    # H's Gram on the window |v| <= 10 has 2047 q x q blocks; the dense
    # path took 0.9 s here
    N = 12
    V = commutator_inner(max_degree=N)
    r = inner_outer(1.0 - np.sqrt(2.0) * V)
    assert r.wandering_dim == 1 and r.valid_degree == N - 2
    inner, _ = phase_normalize(r.inner)
    outer, _ = phase_normalize(r.outer)
    want_inner, _ = phase_normalize(frostman(V, 1.0 / np.sqrt(2.0), N))
    want_outer, _ = phase_normalize(np.sqrt(2.0) - V)
    assert max_coeff_diff(inner, want_inner, N) <= 1e-14
    assert max_coeff_diff(outer, want_outer, N) <= 1e-14
    # the dense reversed Cholesky read 0.08873565094161255
    assert abs(r.defects["outer_defect"] - 0.08873565094161255) <= 1e-13


def test_gram_certificate_is_sound_and_tight():
    """Accepted matrices have eigenvalue ratio above GRAM_COND_MIN / 2;
    ratios above 2 GRAM_COND_MIN |G|_inf / lambda_max are all accepted."""
    rng = np.random.default_rng(13)
    seen = {True: 0, False: 0}
    for n in range(1, 65):
        for ratio in np.logspace(-14, -9, 11):
            lam = np.sort(np.concatenate([
                [ratio, 1.0], ratio ** rng.random(max(n - 2, 0))]))[-n:]
            lam *= 10.0 ** rng.uniform(-3, 3)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            G = (Q * lam) @ Q.conj().T
            G = 0.5 * (G + G.conj().T)
            vals = np.linalg.eigvalsh(G)
            got = vals[0] / vals[-1]
            try:
                factorization._certify_wandering(G[None], 1, 0)
                accepted = True
            except DiagnosticError:
                accepted = False
            seen[accepted] += 1
            if got < GRAM_COND_MIN / 2:
                assert not accepted, (n, got)
            norm_inf = np.abs(G).sum(axis=1).max()
            if got > 2 * GRAM_COND_MIN * norm_inf / vals[-1]:
                assert accepted, (n, got)
    assert seen[True] and seen[False]


@settings(max_examples=30, deadline=None)
@given(polynomials(d=2, max_deg=2).filter(
    lambda f: max((abs(m[0, 0]) for m in f.coeffs.values()),
                  default=0.0) >= 0.1),
    st.integers(0, 2))
def test_inner_outer_of_scalar_polynomial_has_wandering_dim_one(f, extra):
    N = f.degree() + extra
    r = inner_outer(f.with_max_degree(max(N, 1)))
    assert r.wandering_dim == 1
    assert r.defects["reconstruction_error"] <= 1e-10
