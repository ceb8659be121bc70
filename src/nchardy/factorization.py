"""Inner-outer factorization and Blaschke/singular classification.

Everything inner-outer reads is one layer of autocorrelation data
t_s(H) = sum_m conj(H_m) H_{ms}, the coefficients of H(L)* H, summed over
H's stored words and their stored prefixes m (fockspace.toeplitz_data).
The data depend only on the outer part, and only up to a constant unitary
on the left, so a Levenberg-Marquardt solve over the outer factor's
coefficients, with an exact Jacobian and residual rows asking for a
Hermitian vacuum, recovers it.  The accuracy is that of the data unless
H has a zero on the unit circle: the data are then flat to first order
in F's error, so a residual at rounding leaves F about sqrt(eps) off
(2e-8 on (-2 - 2i)(1 + z) over one letter at N = 2, whose inner factor
keeps two spurious words of 2.3e-8).  The inner factor B = H F^-1
is one right division, ncseries._right_quotient, which picks its own
dense or sparse form; the reconstruction error checks it by series_mul,
a product that shares no kernel with the quotient.  The solver is the
numpy `_lm` below (Moré 1978, with Nielsen's gain-ratio damping and
MINPACK's stop tests), so the package runs on numpy alone.  The
Jacobian is affine in the outer factor's coefficients, so each trial
point builds it as one scatter over a plan cached per (d, m, n) from the
index triples, and reads the residual from the same matrix: `_lm` calls
one function that returns both.  The same data give the NC Toeplitz Gram
of the columns H z^v, and one tree Cholesky of it at two shifts
(fockspace._tree_elimination) certifies the wandering dimension and
gives the outer defect, without building the Gram: its last pivot is
the vacuum, whose factor is that of the Schur complement.  The
inner defect and the singular test's r-grid are extreme eigenvalues of
the inner factor's own NC Toeplitz Gram, bracketed from its data and
multisected with the same Cholesky (fockspace.toeplitz_min_eig).

Classification (Blaschke vs singular) is evidence-based: kernel vectors at
sampled singularity pairs span part of the range orthocomplement, and the
reported defect says how much of it they exhaust at the chosen window.
The split builds one orthonormal frame QK of those vectors; I - QK QK^H
projects onto the singularity space, whose wandering vector gives the
Blaschke part (the NC Beurling theorem of Arias-Popescu).  Every split
with kernel data takes that path; the defect is reported, never decided
on.
"""

import functools
import math

import numpy as np

from .errors import (
    AlphabetMismatchError,
    DiagnosticError,
    ShapeMismatchError,
    ValidityWindowError,
)
from .evaluate import evaluate_batch, random_points
from .fockspace import (
    FockBasis,
    _mult_columns,
    _tree_elimination,
    numerical_rank,
    orthonormal_frame,
    toeplitz_data,
    toeplitz_max_bound,
    toeplitz_min_eig,
    validity_window,
    vec_to_series,
    word_triples,
)
from .kernels import (
    check_inner,
    inner_defect,
    sing_space_complement,
)
from .ncseries import (
    NcSeries,
    _constant_inverse,
    _degree_arg,
    _int_size,
    _pow2_normalized,
    _right_quotient,
    h2_norm,
    max_coeff_diff,
    phase_normalize,
    rescale,
    series_invert,
    series_mul,
    shift_adjoint_apply,
)
from .transforms import crofoot

# sigma_min floor for "pointwise invertible" verdicts.
SINGULAR_SIGMA_TOL = 1e-8

# Gram eigenvalue ratio above which the columns H z^v count as independent
# (sigma ratio 1e-6), proved by a Cholesky of G - this * top I, for top the
# bound on lambda_max of fockspace.toeplitz_max_bound.
GRAM_COND_MIN = 1e-12

# Largest |K^H K - I| entry at which a kernel frame from one source counts
# as orthonormal and skips the SVD; SVD frames sit near 3e-15 at D = 511.
FRAME_ORTHO_TOL = 1e-13

# Columns of the split's first range sketch of its wandering space.
SKETCH_COLS = 6

# _lm's relative reduction and step tolerance, its initial damping relative
# to max diag(J^T J), and its cap on residual evaluations per solve.
LM_TOL = 1e-15
LM_TAU = 1e-6
LM_MAX_NFEV = 200


class FactorizationResult:
    """Inner and outer factors with their certification data."""

    def __init__(self, inner, outer, wandering_dim, defects, valid_degree):
        self.inner = inner
        self.outer = outer
        self.wandering_dim = int(wandering_dim)
        self.defects = dict(defects)
        self.valid_degree = int(valid_degree)

    def __repr__(self):
        return (f"FactorizationResult(wandering_dim={self.wandering_dim}, "
                f"defects={self.defects})")


# -- autocorrelation spectral factorization ---------------------------


def autocorrelation(H, m=None):
    """t_s(H) = sum_mu H_mu^H H_{mu s} over all of H, for |s| <= m.

    These matrices are blind to inner factors on the left: if H = B F with
    B inner then t_s(H) = t_s(F), which is what makes them the right data
    for recovering the outer part.  m defaults to deg(H); it must be an
    int >= 0 (2.5 or -1 is a ValueError).  A dict view of
    fockspace.toeplitz_data(H, m), t_empty exactly Hermitian, with zero
    blocks for deg(H) < |s| <= m.
    """
    m = _degree_arg("m", m, H.d, H.degree())
    t, basis = toeplitz_data(H, m), FockBasis(H.d, m)
    pad = np.zeros((basis.dim - len(t),) + t.shape[1:], dtype=complex)
    return dict(zip(basis.words, np.concatenate((t, pad))))


@functools.lru_cache(maxsize=None)
def _jacobian_plan(d, m, n):
    """_outer_system's Jacobian over d letters, degree m and n x n
    coefficients as one scatter: read-only (target, src, weight) arrays
    and J's shape, so that J(x) = bincount(target, weight * [x, 1][src])
    reshaped to that shape.

    Over each index triple (s, mu, mu s) of word_triples, dt_s[i, b] takes
    conj(F_mu[a, i]) dF_{mu s}[a, b] + F_{mu s}[a, b] conj(dF_mu[a, i]), so
    each entry of J is +-Re or +-Im of one coefficient of F, and two terms
    meet on one entry only when s is empty and i = b.  The gauge block
    dF_0 - dF_0^H reads the constant 1 at the end of [x, 1].  Rows follow
    the residual (per block, real then imaginary parts), columns follow x
    (per coefficient entry, real then imaginary part).
    """
    s, mu, cat = word_triples(d, m)
    D, nn = FockBasis(d, m).dim, n * n
    size = 2 * D * nn
    i, b, a = np.ix_(range(n), range(n), range(n))
    s, mu, cat = (v.reshape(-1, 1, 1, 1) for v in (s, mu, cat))
    row, fs, fm = np.broadcast_arrays(
        2 * nn * s + n * i + b,
        2 * (nn * cat + n * a + b),  # Re F_{mu s}[a, b] in x
        2 * (nn * mu + n * a + i))   # Re F_mu[a, i] in x
    i, b = np.ix_(range(n), range(n))
    grow, gin, gout = np.broadcast_arrays(
        2 * nn * D + n * i + b, 2 * (n * i + b), 2 * (n * b + i))
    one = np.full(grow.shape, size)
    # (row, column, source, weight): a block's Im rows sit nn below its Re
    # rows, and an entry's Im column right after its Re column
    terms = [
        (row, fs, fm, 1), (row + nn, fs, fm + 1, -1),
        (row, fs + 1, fm + 1, 1), (row + nn, fs + 1, fm, 1),
        (row, fm, fs, 1), (row + nn, fm, fs + 1, 1),
        (row, fm + 1, fs + 1, 1), (row + nn, fm + 1, fs, -1),
        (grow, gin, one, 1), (grow + nn, gin + 1, one, 1),
        (grow, gout, one, -1), (grow + nn, gout + 1, one, 1),
    ]
    plan = (np.concatenate([(r * size + c).ravel() for r, c, _, _ in terms]),
            np.concatenate([x.ravel() for _, _, x, _ in terms]),
            np.concatenate([np.full(r.size, float(w))
                            for r, _, _, w in terms]))
    for v in plan:
        v.flags.writeable = False
    return plan + ((2 * nn * (D + 1), size),)


def _outer_system(d, m, target):
    """fun(x) -> (r, J): the residual of t_s(F) = t_s(H), |s| <= m, and
    its exact Jacobian.

    F is an n x n series of degree m over d letters whose (dim, n, n)
    coefficient stack has the parameters as its float view: x.view(complex)
    is F.  t_s cannot see a constant unitary on the left, so the
    anti-Hermitian part F_0 - F_0^H of the vacuum coefficient is one more
    residual block, after t_s(F) - t_s(H) word by word.  Each block lists
    the real and then the imaginary parts of its n x n matrix.  target is
    the (dim, n, n) stack of the t_s(H) over FockBasis(d, m).

    J is one scatter of x over the cached _jacobian_plan.  t_s is a
    homogeneous quadratic in x and the gauge block is linear, so the
    residual is read from the same J: r = h (J x) - t(H), with h = 1/2 on
    the t_s rows and 1 on the gauge rows.
    """
    n = target.shape[1]
    index, src, weight, shape = _jacobian_plan(d, m, n)
    t = np.concatenate([target, np.zeros((1, n, n))])
    t = t.reshape(t.shape[0], -1)
    rhs = np.stack([t.real, t.imag], axis=1).reshape(-1)
    half = np.full(rhs.size, 0.5)
    half[-2 * n * n:] = 1.0
    xa = np.ones(shape[1] + 1)

    def fun(x):
        xa[:-1] = x
        J = np.bincount(index, weights=weight * xa[src],
                        minlength=shape[0] * shape[1]).reshape(shape)
        return half * (J @ x) - rhs, J

    return fun


def _lm(fun, x0):
    """Minimize |r(x)|^2 from x0 by Levenberg-Marquardt with the exact
    Jacobian, for fun(x) returning r(x) and J(x) (Moré 1978).

    A trial step solves (J^T J + mu I) h = -J^T r at the current point;
    its gain ratio rho is the actual decrease of |r|^2 over the decrease
    h.(mu h - J^T r) that the linear model predicts.  The damping follows
    Nielsen's rule: a step with rho > 0 is taken and mu scaled by
    max(1/3, 1 - (2 rho - 1)^3); otherwise mu grows by nu = 2, 4, 8, ...
    and the step is retried against the same J.  Each trial point costs
    one call of fun, whose J is the next step's J if the step is taken.
    mu starts at LM_TAU max diag(J^T J).  The solve stops, as MINPACK's
    lmder does, at a zero residual, when the actual and predicted
    reductions are both within LM_TOL of |r|^2, when the step is within
    LM_TOL of |x|, or after LM_MAX_NFEV calls of fun.  It also stops when
    the damped system is exactly singular: near a solution where J^T J is
    singular (an outer factor with a zero on the boundary), mu shrinks
    below its rounding level.  Returns x, r(x) and the number of calls of
    fun; the caller judges the residual.
    """
    x, (r, J) = x0, fun(x0)
    f, nfev, mu = r @ r, 1, None
    while f > 0:
        A, g = J.T @ J, J.T @ r
        if mu is None:
            mu, eye = LM_TAU * A.diagonal().max(), np.eye(len(A))
        nu = 2.0
        while True:
            try:
                h = np.linalg.solve(A + mu * eye, -g)
            except np.linalg.LinAlgError:
                return x, r, nfev
            if (nfev >= LM_MAX_NFEV
                    or np.linalg.norm(h) <= LM_TOL * np.linalg.norm(x)):
                return x, r, nfev
            x_new = x + h
            r_new, J_new = fun(x_new)
            nfev += 1
            f_new = r_new @ r_new
            act, pred = f - f_new, h @ (mu * h - g)
            small = max(abs(act), pred) <= LM_TOL * f
            if act > 0:
                break
            if small:
                return x, r, nfev
            mu, nu = mu * nu, 2 * nu
        x, r, J, f = x_new, r_new, J_new, f_new
        if small:
            break
        mu *= max(1 / 3, 1 - (2 * act / pred - 1) ** 3)
    return x, r, nfev


def spectral_outer(H):
    """Outer factor of H from its autocorrelation data.

    Solves t_s(F) = t_s(H) for all |s| <= deg(H) over series F of the same
    degree, with the vacuum coefficient gauged Hermitian (scalar: real and
    positive), by the Levenberg-Marquardt solve `_lm` on the exact
    Jacobian: Nielsen's gain-ratio damping, and stops at a zero residual,
    at relative reductions of |r|^2 or a relative step within LM_TOL, or
    after LM_MAX_NFEV residuals; each residual is one scatter of the
    cached _jacobian_plan, whose J also serves the step.  The solve runs
    on H / |H|_2, with H first scaled by a power of two, and scales F
    back, so no step depends on the scale of H; the zero series is a
    ValueError.  The one start sqrt(t_empty) is the constant of maximal
    vacuum mass, which steers the iteration onto the outer branch.  On
    the normalised scale a residual above 1e-11 raises DiagnosticError
    naming it and the number of residuals evaluated, and coefficients
    below 1e-14 are dropped.  The gate bounds the data's residual, not
    F's error: where H has a zero on the unit circle the residual is
    quadratic in that error, so F is only about sqrt(eps) accurate (2e-8
    on (-2 - 2i)(1 + z) over one letter at N = 2).
    """
    if H.rows != H.cols:
        raise ShapeMismatchError("spectral factorization needs square "
                                 "coefficients")
    if not H.codes.size:
        raise ValueError("cannot factor the zero series")
    H, e = _pow2_normalized(H)
    return _spectral_outer(H, toeplitz_data(H))._ldexp(e)


def _spectral_outer(H, t):
    """spectral_outer of a nonzero square H whose largest entry modulus is
    in [1/2, 1), from its data t = toeplitz_data(H).  tr t_empty is
    |H|_2^2, so the solve's target t(H / |H|_2) is t / tr t_empty, and
    inner_outer passes the t it certifies with instead of building it
    again."""
    n, m = H.rows, H.degree()
    mass = float(np.trace(t[0]).real)
    target = t / mass
    shape = (len(t), n, n)
    # toeplitz_data makes t_empty exactly Hermitian, and the real mass
    # keeps it so
    vals, vecs = np.linalg.eigh(target[0])
    init = np.zeros(shape, dtype=complex)
    init[0] = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    x, r, nfev = _lm(_outer_system(H.d, m, target),
                     init.reshape(-1).view(float))
    err = float(np.max(np.abs(r)))
    if err > 1e-11:
        raise DiagnosticError(
            f"autocorrelation factorization did not converge "
            f"(residual {err:.3e}) after {nfev} residual evaluations")
    F = x.view(complex).reshape(shape)
    # the gauge rows hold F_0 Hermitian only to the residual gate
    F[0] = 0.5 * (F[0] + F[0].conj().T)
    if n == 1 and F[0, 0, 0].real < 0:
        F = -F
    codes = np.flatnonzero((np.abs(F) > 1e-14).any(axis=(1, 2)))
    return NcSeries._of(H.d, n, n, m, codes, math.sqrt(mass) * F[codes])


def inner_outer(H, N=None):
    """Factor H into an inner times an outer part.

    The outer factor F comes from the autocorrelation data t_s(H), which
    cannot see the inner factor; the inner factor is the right quotient
    B = H F^{-1} (ncseries._right_quotient), and the reconstruction error
    checks series_mul(B, F) against H, a product that shares no kernel
    with the quotient, so a fault in one does not cancel in the other.  The
    wandering dimension is certified, not computed from dense ranks: a
    nonzero scalar H generates a wandering space of dimension 1 (the NC
    Beurling theorem of Arias-Popescu and Popescu), and the truncated
    certificate is that the NC Toeplitz Gram of t(H) over the validity
    window N - deg(H) is well conditioned, so the columns H z^v are
    independent there.  Square matrix H reports its size.  Defects are
    always reported; as t(F) = t(H), H's data serve F's outer defect too.
    The data t(H) are computed once, and so is their tree Cholesky on the
    window (fockspace._tree_elimination), one pass at the shifts 0 and
    tau: tau gives the certificate, which is judged before the solve, and
    0 the factor of the outer defect's Schur complement, read off the
    vacuum, the pass's last pivot.  The solve's target is read
    from the same t.  No Gram matrix of H is built and no eigen-solve is
    larger than q x q.  H is first scaled by a power of two, which is
    exact, so the factorization holds at any finite scale.
    """
    if H.rows != H.cols:
        raise ShapeMismatchError("only scalar or square series supported")
    H, e = _pow2_normalized(H)
    Hp = H.prune()
    if not Hp.codes.size:
        raise ValueError("cannot factor the zero series")
    if N is None:
        N = H.max_degree
    m = Hp.degree()
    if m > N:
        raise ValidityWindowError(f"degree {m} exceeds truncation {N}")
    HN = Hp.truncate(N).with_max_degree(N) if Hp.max_degree != N else Hp

    if m == 0:
        # a constant is outer exactly when it is invertible
        _constant_inverse(Hp)
        inner = NcSeries.constant(np.eye(H.rows), H.d, N)
        defects = {"inner_defect": 0.0, "outer_defect": 0.0,
                   "reconstruction_error": 0.0}
        return FactorizationResult(inner, HN._ldexp(e).copy(), H.rows,
                                   defects, N)

    t = toeplitz_data(HN)
    valid = validity_window(HN)
    # one tree pass over t at the window: shift 0 for the outer defect,
    # and for scalar H tau for the certificate
    shifts = [0.0]
    if HN.is_scalar():
        shifts.append(_certificate_shift(t, H.d, valid))
    fail, C = _tree_elimination(t, H.d, valid, shifts)
    if HN.is_scalar():
        _certify_wandering(t, H.d, valid, fail[1])
    F = _spectral_outer(HN, t).with_max_degree(N)
    B, u = phase_normalize(_right_quotient(HN, F, N).prune())
    outer = F.scale(u)
    recon = max_coeff_diff(series_mul(B, outer, N), HN, N)
    # the pass at shift 0 serves F's outer defect, unless dropping F's
    # negligible top coefficients widened its window
    window = validity_window(outer)
    if window != valid:
        C = _tree_elimination(t, H.d, window, [0.0])[1]
    defects = {
        "inner_defect": inner_defect(B),
        "outer_defect": _outer_defect(C[0], outer.coeff(()), window),
        "reconstruction_error": float(np.ldexp(recon, e)),
    }
    return FactorizationResult(B, outer._ldexp(e), H.rows, defects, valid)


def _certificate_shift(t, d, window):
    """tau = GRAM_COND_MIN lambda_max(G) bounded above, for the Gram G of
    the data t over d letters on the window: its tree Cholesky at tau is
    the wandering certificate."""
    return GRAM_COND_MIN * toeplitz_max_bound(t, d, window)


def _certify_wandering(t, d, window, fail=None):
    """Certify wandering dimension 1 for a scalar H with NC Toeplitz data
    t = toeplitz_data(H) over d letters, on the Gram G of the columns
    H z^v, |v| <= window.

    lambda_min / lambda_max > GRAM_COND_MIN means sigma_min / sigma_max >
    1e-6 for the columns, far above RANK_REL, so the columns over all words
    and over the nonempty words have full numerical rank and their ranks
    differ by exactly 1 (interlacing).  lambda_max is at most
    fockspace.toeplitz_max_bound (block Gershgorin), and the tree Cholesky
    of G - tau I succeeds exactly when every eigenvalue of G exceeds tau
    (_certificate_shift).  fail is that pass's verdict when the caller
    ran it (inner_outer shares its pass with the outer defect): the
    length of a pivot that is not positive definite, or -1.
    """
    if fail is None:
        fail = _tree_elimination(
            t, d, window, [_certificate_shift(t, d, window)])[0][0]
    if fail >= 0:
        raise DiagnosticError(
            f"wandering dimension not certified: Gram eigenvalue ratio "
            f"not above {GRAM_COND_MIN:.0e} on the window |v| <= {window}")


def outer_defect(h, N=None):
    """Distance from the vacuum to the span of right translates of h.

    Zero means the constants are reachable: the cyclicity that defines
    outer elements, tested at truncation order N.  The columns h z^v, |v|
    within the validity window, have the NC Toeplitz Gram G, and the
    vacuum sees only their constant terms, so the residual Gram of the
    vacuum directions is I - h_0 S^{-1} h_0^H, for S = 1 / (G^{-1})_{00}
    the vacuum's Schur complement in G.  S comes from the tree Cholesky of
    fockspace._tree_elimination at shift 0, so no Gram matrix is built.
    Column-valued h reports the best vacuum direction; square h has to
    reach every one, so the worst is reported.  h is first scaled by a
    power of two, which the defect does not see.
    """
    if N is None:
        N = h.max_degree
    if h.cols != 1 and h.rows != h.cols:
        raise ShapeMismatchError(
            "outer defect expects scalar, column, or square h")
    hN = _pow2_normalized(h)[0].truncate(N)
    window = validity_window(hN, N)
    C = _tree_elimination(toeplitz_data(hN), h.d, window, [0.0])[1]
    return _outer_defect(C[0], hN.coeff(()), window)


def _outer_defect(C, h0, window):
    """outer_defect from h's constant term h0 and the Cholesky factor C of
    the vacuum's Schur complement S = C C^H in the Gram of the columns
    h z^v on the window (NaN, as fockspace._tree_elimination leaves it,
    when they are dependent there): the residual is I - Y^H Y for
    C Y = h0^H."""
    if np.isnan(C).any():
        raise DiagnosticError(
            f"outer defect: the columns h z^v are dependent on the window "
            f"|v| <= {window}")
    p, q = h0.shape
    Y = np.linalg.solve(C, h0.conj().T)
    vals = np.linalg.eigvalsh(np.eye(p) - Y.conj().T @ Y)
    return float(np.sqrt(max(vals[-1] if p == q > 1 else vals[0], 0.0)))


def solve_vacuum(f, r, N=None):
    """Least-squares residual of (multiplication by f(r.)) x = vacuum on
    the Fock space truncated at N.

    The truncated operator is block lower triangular with f(0) on its
    diagonal.  For f(0) != 0 the solution is the series inverse g of
    f(r.) through degree N, and the residual |f(r.) g - 1|_2 is 0 up to
    rounding; for f(0) = 0 the vacuum row vanishes and it is exactly 1.
    So it does not certify the outer property: the non-outer z - 1/2
    reads rounding at every N.  outer_defect measures cyclicity
    (sqrt(3)/2 on z - 1/2).
    """
    if not f.is_scalar():
        raise ShapeMismatchError("solve_vacuum expects a scalar series")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius {r} outside [0, 1)")
    if N is None:
        N = f.max_degree
    fr = rescale(f.truncate(N), r)
    if not fr.coeff(()).any():
        return 1.0
    return h2_norm(series_mul(fr, series_invert(fr, N), N) - 1.0)


# -- classification ---------------------------------------------------


def _combined_kernel_frame(pairs, N, extra_frame, d):
    """Orthonormal frame of the kernel vectors at the pairs and the extra
    frame columns, in the Fock space of d letters truncated at N.

    A frame from one source that is orthonormal to FRAME_ORTHO_TOL is
    taken as it is: sing_space_complement and crofoot_kernel_frame return
    SVD frames, and a coordinate frame is exact.  Anything else goes
    through orthonormal_frame's SVD.  A real extra frame stays real.
    """
    alphabets = sorted({pair.Z.d for pair in pairs} - {d})
    if alphabets:
        raise AlphabetMismatchError(
            f"singularity pairs over alphabet d={alphabets[0]} cannot "
            f"classify a series over alphabet d={d}")
    cols = []
    if pairs:
        QK = sing_space_complement(pairs, N=N)
        if QK.shape[1]:
            cols.append(QK)
    dim = FockBasis(d, N).dim
    if extra_frame is not None and np.size(extra_frame):
        if np.shape(extra_frame)[0] != dim:
            raise ShapeMismatchError(
                f"extra frame has {np.shape(extra_frame)[0]} rows, expected "
                f"FockBasis({d}, {N}).dim = {dim}")
        # read only, so a float or complex frame is not copied
        frame = np.asarray(extra_frame, dtype=complex if np.iscomplexobj(
            extra_frame) else float)
        if not np.isfinite(frame).all():
            raise ValueError("extra_frame has non-finite entries")
        cols.append(frame)
    if not cols:
        return np.zeros((dim, 0), dtype=complex)
    if len(cols) == 1:
        K = cols[0]
        gap = np.abs(K.conj().T @ K - np.eye(K.shape[1])).max()
        if gap <= FRAME_ORTHO_TOL:
            return K
    return orthonormal_frame(np.concatenate(cols, axis=1))


def crofoot_kernel_frame(theta, w, N=None):
    """Orthonormal frame for the model space of the Frostman shift.

    The Crofoot multiplier maps the model space of theta (the kernel of
    theta(L)*) onto the model space of its shift by w; applying its
    multiplication operator to a kernel basis materializes that image at
    the working truncation.  This is the rich frame the classification
    defect needs for full-support shifted inners, where sampled pairs at
    small levels cannot span enough.  theta(0) != 0 is a ValueError: the
    truncated operator is then triangular with theta(0) on its diagonal.
    """
    if N is None:
        N = theta.max_degree
    basis = FockBasis(theta.d, N)
    M = _mult_columns(theta.with_max_degree(N), basis, N)
    # null space of M^H: right singular vectors past the numerical rank,
    # cut at max(s) * eps * max(shape)
    _, s, Vh = np.linalg.svd(M.conj().T)
    tol = s.max(initial=0.0) * np.finfo(s.dtype).eps * max(M.shape)
    ker = Vh[int(np.sum(s > tol)):].conj().T
    if not ker.shape[1]:
        raise ValueError(f"no kernel frame at N={N}: theta has the nonzero "
                         f"constant term {theta.coeff(())[0, 0]:.3g}")
    C = _mult_columns(crofoot(theta, w, N), basis, N)
    return orthonormal_frame(C @ ker)


def blaschke_defect(theta, pairs, N=None, col_degree=None, window=None,
                    extra_frame=None):
    """How much of the range orthocomplement the sampled kernels miss.

    Compares the projection onto the orthocomplement of the span of
    theta z^w, |w| <= col_degree, with the projection onto the span of
    kernel vectors at the given singularity pairs (plus any extra frame
    columns), both cut to words of length <= window.  Zero is Blaschke
    evidence; 1 with no pairs just restates that the orthocomplement is
    nontrivial.  Genuine kernel data can only fill more of the
    orthocomplement, but thin sampling reports large defects honestly
    rather than guessing.  col_degree and window are ints >= 0 (2.5 or
    True is a ValueError).
    """
    if not theta.is_scalar():
        raise ShapeMismatchError("classification expects a scalar inner")
    if N is None:
        N = theta.max_degree
    QK = _combined_kernel_frame(pairs, N, extra_frame, theta.d)
    return _blaschke_defect(theta, QK, FockBasis(theta.d, N), col_degree,
                            window)


def _blaschke_defect(theta, QK, basis, col_degree=None, window=None):
    """blaschke_defect against the orthonormal kernel frame QK over the
    basis: theta's columns are one scatter, the window a leading slice."""
    if not theta.codes.size:
        raise ValueError("Blaschke defect of the zero series")
    N = basis.max_degree
    valid = validity_window(theta, N)
    if col_degree is None:
        col_degree = valid if valid >= 1 else min(3, N)
    col_degree = _int_size("col_degree", col_degree)
    if window is None:
        window = col_degree if valid >= 1 else max(col_degree - 1, 0)
    window = _int_size("window", window)
    if col_degree < 0 or window < 0:
        raise ValueError(f"column degree {col_degree} and window {window} "
                         f"must be >= 0")
    if col_degree > N:
        raise ValidityWindowError(
            f"column degree {col_degree} exceeds truncation order {N}")
    R = orthonormal_frame(_mult_columns(theta, basis, col_degree))
    n = basis.degree_start(min(window, N) + 1)
    R, QK = R[:n], QK[:n]
    Dmat = np.eye(n) - R @ R.conj().T - QK @ QK.conj().T
    return float(np.linalg.norm(Dmat, 2))


def singular_test(S, rng=None, num_samples=200):
    """Evidence that an inner S is pointwise invertible on the ball.

    Checks S at the origin first (a necessary condition), then the minimum
    of sigma_min(S(Z)) over num_samples random points of row norm 0.7 and
    sizes 1, 2, 3 in turn (random_points scales them to that norm, so
    evaluate_batch skips its admissibility gate), then sigma_min of the
    multiplication operator at the radii 0.5 and 0.9 on its validity
    window, the square root of the smallest eigenvalue of the rescaled
    symbol's NC Toeplitz Gram from fockspace.toeplitz_min_eig, after
    check_inner at its default gate.
    num_samples is an int (a bool or 2.5 is a ValueError).  The verdict
    "singular" means every minimum stayed above SINGULAR_SIGMA_TOL; it is
    sampling evidence, not a proof, so zero sample points raise ValueError.
    """
    check_inner(S)
    if _int_size("num_samples", num_samples) < 1:
        raise ValueError("singular_test needs at least one sample point")
    tol = SINGULAR_SIGMA_TOL
    report = {"tol": tol, "r_grid": {}, "num_samples": int(num_samples)}
    c0 = S.coeff(())
    s0 = float(np.linalg.svd(np.atleast_2d(c0), compute_uv=False)[-1])
    report["constant_sigma"] = s0
    rng = np.random.default_rng(0) if rng is None else rng
    min_sigma = np.inf
    for Zs in random_points(rng, S.d, np.resize((1, 2, 3), num_samples),
                            0.7):
        sv = np.linalg.svd(evaluate_batch(S, Zs, check_admissible=False),
                           compute_uv=False)
        min_sigma = min(min_sigma, float(sv[:, -1].min()))
    report["min_sample_sigma"] = float(min_sigma)
    for r in (0.5, 0.9):
        Sr = rescale(S, r)
        k = validity_window(Sr)
        lam = toeplitz_min_eig(toeplitz_data(Sr, k), S.d, k)
        report["r_grid"][r] = float(np.sqrt(max(lam, 0.0)))
    report["singular"] = bool(
        s0 > tol and min_sigma > tol
        and all(v > tol for v in report["r_grid"].values()))
    return report


def _wandering_vector(QK, basis):
    """(count, w): the wandering dimension of the orthocomplement of the
    orthonormal frame QK, and its unit wandering vector w when count is 1.

    QK is invariant under the backward shifts R_k^H, so the wandering space
    is exactly ran (I - QK QK^H) [e0, R_1 QK, ..., R_d QK].  Up to
    SKETCH_COLS of those n = 1 + d r columns are taken as they are; more
    are combined by a fixed real Gaussian (a range sketch: Halko,
    Martinsson and Tropp, SIAM Rev. 2011), drawn again at twice the width
    while its rank is full, up to the n columns.  R_k moves row w to row
    w k, so all d shifts are one reshape and no D x D matrix is built
    (_adjoint_word_vectors reads the same order).  count is the
    numerical rank of the projected columns Y and w is Y's largest column,
    normalized: a real coordinate frame gives exact zeros and an exact +-1.
    """
    d, r = basis.d, QK.shape[1]
    n, b = 1 + d * r, SKETCH_COLS
    top = basis.degree_start(basis.max_degree)
    while True:
        G = (np.eye(n) if n <= b else
             np.random.default_rng(0).standard_normal((n, b)))
        KG = QK @ G[1:].reshape(d, r, -1)
        # the words w k follow the vacuum w-major, k-minor
        X = np.concatenate((G[:1], KG[:, :top].swapaxes(0, 1).reshape(
            -1, G.shape[1])))
        Y = X - QK @ (QK.conj().T @ X)
        count = numerical_rank(Y)
        if n <= b or count < b:
            break
        b *= 2
    if count != 1:
        return count, None
    w = Y[:, np.argmax(np.linalg.norm(Y, axis=0))]
    return 1, w / np.linalg.norm(w)


class SplitResult:
    """Blaschke and singular parts with defects and diagnostic flags."""

    def __init__(self, blaschke, singular, wandering_dim, defects, flags):
        self.blaschke = blaschke
        self.singular = singular
        self.wandering_dim = wandering_dim
        self.defects = dict(defects)
        self.flags = list(flags)

    @property
    def diagnostic(self):
        if "sampling-insufficient" in self.flags:
            return True
        return ("no-pairs" in self.flags
                and "consistent-with-singular" not in self.flags)

    def __repr__(self):
        return (f"SplitResult(wandering_dim={self.wandering_dim}, "
                f"flags={self.flags})")


def blaschke_singular_split(theta, pairs, N=None, extra_frame=None,
                            rng=None, num_samples=200):
    """Split an inner into Blaschke and singular parts, evidence-based.

    When the kernel data span nothing (no pairs, no frame, or a frame of
    rank zero) the split cannot be better than the singular verdict of
    sampling, so it returns (1, theta) flagged "no-pairs".  Otherwise the
    orthocomplement of the kernel span is taken as the singularity space,
    its wandering vector (when unique) gives the Blaschke part, and the
    adjoint application recovers the singular part.  The wandering vector
    is one thin product (_wandering_vector), with no D x D matrix.  The
    Blaschke defect is reported as a diagnostic; it selects no branch.
    """
    check_inner(theta)
    if not theta.is_scalar():
        raise ShapeMismatchError("split expects a scalar inner")
    if N is None:
        N = theta.max_degree
    one = NcSeries.constant(1.0, theta.d, N)
    QK = _combined_kernel_frame(pairs, N, extra_frame, theta.d)
    if not QK.shape[1]:
        st = singular_test(theta, rng=rng, num_samples=num_samples)
        flags = ["no-pairs"]
        if st["singular"]:
            flags.append("consistent-with-singular")
        defects = {"blaschke_defect": 1.0, "singular_report": st,
                   "reconstruction_error": 0.0}
        return SplitResult(one, theta.copy(), 0, defects, flags)

    basis = FockBasis(theta.d, N)
    defect = _blaschke_defect(theta, QK, basis)
    count, w = _wandering_vector(QK, basis)
    if count != 1:
        defects = {"blaschke_defect": defect, "wandering_count": count}
        return SplitResult(one, theta.copy(), count, defects,
                           ["sampling-insufficient"])
    B, _ = phase_normalize(vec_to_series(w, basis))
    S = shift_adjoint_apply(B, theta, N)
    recon = max_coeff_diff(series_mul(B, S, N), theta, validity_window(B))
    defects = {
        "blaschke_defect": defect,
        "reconstruction_error": recon,
        "blaschke_inner_defect": inner_defect(B),
        "singular_inner_defect": inner_defect(S),
    }
    return SplitResult(B, S, 1, defects, [])


class BsoResult:
    """Blaschke, singular, and outer factors of a full factorization."""

    def __init__(self, blaschke, singular, outer, wandering_dim, defects,
                 flags):
        self.blaschke = blaschke
        self.singular = singular
        self.outer = outer
        self.wandering_dim = wandering_dim
        self.defects = dict(defects)
        self.flags = list(flags)

    @property
    def diagnostic(self):
        return "sampling-insufficient" in self.flags

    def __repr__(self):
        return (f"BsoResult(wandering_dim={self.wandering_dim}, "
                f"flags={self.flags})")


def bso_factor(H, N=None, pairs=(), extra_frame=None, rng=None,
               num_samples=200):
    """Full Blaschke - singular - outer factorization pipeline.

    inner_outer first, then the Blaschke/singular split of the inner part,
    which reports its Blaschke defect and decides nothing on it.  All
    defects propagate into one report; diagnostic flags are never silent.
    """
    io = inner_outer(H, N)
    if not H.is_scalar():
        defects = dict(io.defects)
        defects["note"] = "wandering dimension != 1; split not attempted"
        return BsoResult(io.inner, None, io.outer, io.wandering_dim,
                         defects, ["sampling-insufficient"])
    if io.inner.degree() == 0:
        # constant inner: nothing to split
        defects = dict(io.defects)
        one = NcSeries.constant(1.0, H.d, io.inner.max_degree)
        return BsoResult(io.inner, one, io.outer, 1, defects, [])
    split = blaschke_singular_split(
        io.inner, pairs, N=io.inner.max_degree, extra_frame=extra_frame,
        rng=rng, num_samples=num_samples)
    defects = dict(io.defects)
    for key, val in split.defects.items():
        defects[f"split_{key}"] = val
    return BsoResult(split.blaschke, split.singular, io.outer,
                     split.wandering_dim or io.wandering_dim, defects,
                     split.flags)
