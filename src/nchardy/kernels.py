"""Szego kernels, model-space kernels, and singularity loci.

The kernel vector K{Z, y, v} is the element of the Hardy space whose
coefficient pairing against any polynomial f recovers y* f(Z) v.  Pairings
between two kernel vectors have a closed form: a Sylvester-type equation
whose solution sums the geometric series exactly, with no truncation at
all.  Truncated materializations are kept alongside for anything that needs
actual coefficients.

The singularity locus of a square series H collects pairs (Z, y) with
y* H(Z) = 0.  Membership is a residual test; the search helper scans random
directions and finds exact scale factors by locating the roots of
t -> det(H(tZ)) inside the disk.
"""

import numpy as np

from .errors import AlphabetMismatchError, NotInnerError, ShapeMismatchError
from .evaluate import (
    MatrixPoint,
    _check_row_norms,
    direct_sum_points,
    evaluate,
    evaluate_batch,
    random_point,
)
from .fockspace import (
    _check_degree_limit,
    _gram_bracket,
    orthonormal_frame,
    toeplitz_data,
    toeplitz_max_bound,
    toeplitz_min_eig,
    validity_window,
)
from .ncseries import NcSeries, _degree_arg, _int_size, series_mul

# Default residual tolerance for singularity membership.
SING_TOL = 1e-8

# Isometry-defect gate for calling a series inner.  Polynomial symbols get
# at least one valid column degree, where this is a true test.
INNER_TOL = 1e-8

# Full-support symbols only ever expose column degree 0, where the defect
# mixes truncation with geometry; the gate is correspondingly loose.
INNER_TOL_WINDOW0 = 0.25


def inner_defect(theta, degree_limit=None):
    """Isometry defect of multiplication by theta, at the largest column
    degree its truncation supports (or a smaller requested one).

    The spectral norm of G - I, max(1 - lambda_min, lambda_max - 1), for
    the NC Toeplitz Gram G of the columns theta z^v, |v| <= degree_limit,
    which is exact on the validity window.  Both eigenvalues come from
    fockspace.toeplitz_min_eig on theta's data t and on -t: no Gram is
    built, and an exact inner (t_s = 0 for s != empty) or window 0 needs
    no tree call, nor the lambda_max side when the top of its bracket
    (fockspace.toeplitz_max_bound) less 1 is <= 1 - lambda_min.  Both
    sides share one bracket, t_empty's eigenvalues and the off-diagonal
    bound, computed once (fockspace._gram_bracket).  Only
    the t_s with |s| <= degree_limit are computed, which is all the Gram
    reads: t_empty alone at window 0.
    """
    valid = validity_window(theta)
    if degree_limit is None:
        degree_limit = valid
    _check_degree_limit(degree_limit, valid)
    t, d = toeplitz_data(theta, degree_limit), theta.d
    bracket = _gram_bracket(t, d, degree_limit)
    low = 1.0 - toeplitz_min_eig(t, d, degree_limit, bracket)
    if toeplitz_max_bound(t, d, degree_limit, bracket) - 1.0 <= low:
        return low
    c, top, off = bracket
    return max(low, -1.0 - toeplitz_min_eig(-t, d, degree_limit,
                                            (-top, -c, off)))


def check_inner(theta):
    """Raise NotInnerError unless multiplication by theta looks isometric.

    Polynomial symbols are held to INNER_TOL on their validity window.
    Symbols supported up to the truncation order only admit the window-0
    test, which cannot separate truncation error from a genuine defect, so
    the gate widens to INNER_TOL_WINDOW0 there.
    """
    valid = validity_window(theta)
    tol = INNER_TOL if valid >= 1 else INNER_TOL_WINDOW0
    defect = inner_defect(theta, valid)
    if defect > tol:
        raise NotInnerError(
            f"isometry defect {defect:.3e} exceeds {tol:.1e} at column "
            f"degree {valid}", defect=defect)
    return defect


class KernelVector:
    """Truncated Szego kernel with its provenance (Z, y, v) attached."""

    def __init__(self, series, Z, y, v):
        self.series = series
        self.Z = Z
        self.y = np.asarray(y, dtype=complex).reshape(-1)
        self.v = np.asarray(v, dtype=complex).reshape(-1)

    @property
    def max_degree(self):
        return self.series.max_degree

    def coeff(self, word):
        return self.series.scalar_coeff(word)

    def __repr__(self):
        return (f"KernelVector(level={self.Z.n}, "
                f"N={self.series.max_degree})")


def _admissible(Z):
    """Z as a MatrixPoint, refused with InadmissiblePointError unless its
    row norm is below 1, as evaluate refuses a point."""
    if not isinstance(Z, MatrixPoint):
        Z = MatrixPoint(Z)
    _check_row_norms(np.array(Z.mats)[None])
    return Z


def _adjoint_word_vectors(Z, y, m):
    """(Z^w)* y for every word w of length <= m, as the rows of a (D_m, n)
    array in word-code order (ncseries), which is FockBasis order.

    Appending a letter gives (Z^{ua})* y = Z_a* (Z^u)* y.  In code order
    the words ua of one degree run u-major, a-minor, so each degree is one
    batched product of the last: row (u, a) is ((Z^u)* y)^T conj(Z_a).
    """
    Zc = np.conj(np.array(Z.mats))
    level = y[None, :]
    rows = [level]
    for _ in range(m):
        level = (level @ Zc).transpose(1, 0, 2).reshape(-1, Z.n)
        rows.append(level)
    return np.concatenate(rows)


def szego_kernel(Z, y, v, N):
    """K{Z, y, v} truncated at degree N.

    The coefficient at word w is (Z^w v)* y = v* (Z^w)* y, so that the
    pairing against a polynomial f of degree <= N gives y* f(Z) v exactly.
    N is an int >= 0 (2.5 or -1 is a ValueError), and Z a point of the open
    unit row ball (InadmissiblePointError otherwise).
    """
    Z = _admissible(Z)
    y = np.asarray(y, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if y.size != Z.n or v.size != Z.n:
        raise ShapeMismatchError(
            f"vectors must have length {Z.n}, got {y.size} and {v.size}")
    N = _degree_arg("N", N, Z.d)
    c = _adjoint_word_vectors(Z, y, N) @ v.conj()
    if not np.isfinite(c).all():
        raise ValueError("kernel coefficients are non-finite")
    series = NcSeries._of(Z.d, 1, 1, N, np.arange(c.size), c[:, None, None])
    return KernelVector(series, Z, y, v)


def szego_gram(Z, W, v, u):
    """G = sum_w Z^w (v u*) (W^w)*, summed in closed form.

    Solves the displacement equation G - sum_k Z_k G W_k* = v u*, which is
    uniquely solvable inside the row ball, so both points must lie there
    (InadmissiblePointError otherwise).  Pairing y* G x gives the exact
    (untruncated) inner product of K{Z,y,v} against K{W,x,u}.
    """
    Z, W = _admissible(Z), _admissible(W)
    if Z.d != W.d:
        raise ShapeMismatchError(f"points over d={Z.d} and d={W.d}")
    v = np.asarray(v, dtype=complex).reshape(-1)
    u = np.asarray(u, dtype=complex).reshape(-1)
    n1, n2 = Z.n, W.n
    if (v.size, u.size) != (n1, n2):
        raise ShapeMismatchError(
            f"v, u must have lengths {n1}, {n2}, got {v.size}, {u.size}")
    A = np.eye(n1 * n2, dtype=complex)
    for k in range(Z.d):
        A -= np.kron(W[k].conj(), Z[k])
    rhs = np.outer(v, u.conj()).reshape(-1, order="F")
    g = np.linalg.solve(A, rhs)
    return g.reshape(n1, n2, order="F")


def kernel_inner(k1, k2):
    """Exact inner product <K1, K2>, conjugate-linear in the first slot."""
    G = szego_gram(k1.Z, k2.Z, k1.v, k2.v)
    return complex(k1.y.conj() @ G @ k2.y)


def model_gram(theta, Z, W, v, u):
    """Gram matrix of model-space kernels for a scalar inner theta.

    G_theta = G - theta(Z) G theta(W)*: subtracting the part of each kernel
    that lives in the range of multiplication by theta.  Exact (no
    truncation); theta itself must be polynomial for the evaluations to be
    exact too.
    """
    if not theta.is_scalar():
        raise ShapeMismatchError("model_gram expects a scalar inner")
    G = szego_gram(Z, W, v, u)
    TZ = evaluate(theta, Z)
    TW = evaluate(theta, W)
    return G - TZ @ G @ TW.conj().T


def model_kernel(theta, Z, y, v, N):
    """K_theta{Z,y,v} = K{Z,y,v} - theta * K{Z, theta(Z)* y, v}, truncated.

    Refuses symbols that fail the inner gate: the subtraction only projects
    correctly when multiplication by theta is an isometry.
    """
    if not theta.is_scalar():
        raise ShapeMismatchError("model_kernel expects a scalar inner")
    check_inner(theta)
    Z = _admissible(Z)
    K = szego_kernel(Z, y, v, N)
    y_shift = evaluate(theta, Z).conj().T @ np.asarray(y, complex).reshape(-1)
    K_shift = szego_kernel(Z, y_shift, v, N)
    proj = series_mul(theta.with_max_degree(N)
                      if theta.max_degree < N else theta.truncate(N),
                      K_shift.series, max_degree=N)
    return KernelVector(K.series - proj, Z, y, v)


def kernel_direct_sum(k1, k2, c=1.0):
    """Representation of K1 + c K2 as a single kernel on the direct sum.

    K{Z,y,v} + c K{W,x,u} = K{Z+W, y+(c x), v+u} coefficient-exactly: the
    weight rides on the y-slot, which the pairing touches linearly.
    """
    if k1.max_degree != k2.max_degree:
        raise ShapeMismatchError("kernels truncated at different degrees")
    Z = direct_sum_points([k1.Z, k2.Z])
    y = np.concatenate([k1.y, complex(c) * k2.y])
    v = np.concatenate([k1.v, k2.v])
    return szego_kernel(Z, y, v, k1.max_degree)


# -- singularity loci -------------------------------------------------


class SingularityPair:
    """A point Z of the open unit row ball and a nonzero vector y with
    y* H(Z) = 0 for some H."""

    def __init__(self, Z, y):
        Z = _admissible(Z)
        y = np.asarray(y, dtype=complex).reshape(-1)
        if y.size != Z.n:
            raise ShapeMismatchError(
                f"vector length {y.size} != level {Z.n}")
        if np.linalg.norm(y) == 0.0:
            raise ValueError("singularity pair needs a nonzero vector")
        self.Z = Z
        self.y = y

    @property
    def level(self):
        return self.Z.n

    def __repr__(self):
        return f"SingularityPair(level={self.level})"


def _sing_test(A, y):
    """(is_member, residual, scale) for an evaluated A = H(Z): the
    residual ||y* A|| against SING_TOL * scale, scale = ||y|| (1 + ||A||)."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    num = float(np.linalg.norm(y.conj() @ A))
    scale = float(np.linalg.norm(y)) * (1.0 + float(np.linalg.norm(A, 2)))
    return num <= SING_TOL * scale, num, scale


def sing_membership(H, Z, y):
    """(is_member, residual): residual test ||y* H(Z)|| against
    SING_TOL * ||y|| * (1 + ||H(Z)||).  y has one entry per row of H(Z):
    the point's level n for scalar H, rows(H) n in general."""
    A = evaluate(H, Z)
    size = np.size(y)
    if size != A.shape[0]:
        raise ShapeMismatchError(
            f"vector length {size} != {A.shape[0]} rows of H(Z)")
    return _sing_test(A, y)[:2]


def sing_closure_direct_sum(p1, p2, c=1.0):
    """(Z+W, y + c x): direct sums with weighted stacking stay singular."""
    if p1.Z.d != p2.Z.d:
        raise ShapeMismatchError("pairs over different alphabets")
    Z = direct_sum_points([p1.Z, p2.Z])
    return SingularityPair(Z, np.concatenate([p1.y, complex(c) * p2.y]))


def sing_closure_similarity(pair, S):
    """Conjugated pair (S^{-1} Z S, S* y).

    y* H(Z) = 0 gives (S* y)* H(S^{-1} Z S) = y* S H(S^{-1} Z S)
    = y* H(Z) S = 0, since evaluation intertwines similarities.  The
    conjugated point must stay admissible.
    """
    S = np.asarray(S, dtype=complex)
    n = pair.level
    if S.shape != (n, n):
        raise ShapeMismatchError(f"similarity must be {n} x {n}")
    Sinv = np.linalg.inv(S)
    Z_new = MatrixPoint([Sinv @ M @ S for M in pair.Z.mats])
    return SingularityPair(Z_new, S.conj().T @ pair.y)


def standard_probes(n):
    """Standard basis vectors of C^n, the default probe set."""
    return [np.eye(n, dtype=complex)[:, j] for j in range(n)]


def sing_space_complement(pairs, probes=None, N=8):
    """Orthonormal frame spanning the kernel vectors of the given pairs.

    Columns are the coefficient vectors U @ conj(v) of K{Z, y, v} at
    degree N, as szego_kernel computes them, over every pair and probe
    (standard basis probes by default, per level), with one U of adjoint
    word vectors per pair.  orthonormal_frame's SVD with the relative
    threshold RANK_REL trims the span.  The result approximates the
    orthocomplement of the singularity space from below; more pairs can
    only grow it.  N is an int >= 0, as for szego_kernel.
    """
    if not pairs:
        raise ValueError("need at least one singularity pair")
    d = pairs[0].Z.d
    N = _degree_arg("N", N, d)
    cols = []
    for pair in pairs:
        if pair.Z.d != d:
            raise ShapeMismatchError(
                f"pairs over alphabets d={d} and d={pair.Z.d}")
        U = _adjoint_word_vectors(pair.Z, pair.y, N)
        vs = probes if probes is not None else standard_probes(pair.level)
        for v in vs:
            v = np.asarray(v, dtype=complex).reshape(-1)
            if v.size != pair.level:
                raise ShapeMismatchError(
                    f"probe length {v.size} != level {pair.level}")
            cols.append(U @ v.conj())
    return orthonormal_frame(np.array(cols).T)


def compress_to_finite(Z, y, p):
    """Compress a singular pair to the finite-dimensional subspace that a
    polynomial p actually sees.

    K = span{(Z^w)* y : |w| <= deg p} is invariant enough: with
    X_j = Q* Z_j Q and x = Q* y, every adjoint word of length <= deg p
    satisfies (X^w)* x = Q* (Z^w)* y, so p(X)* x = Q* (p(Z)* y).  A member
    of the singularity locus stays a member, now at level dim K.  Z must
    lie in the open unit row ball (InadmissiblePointError otherwise), y
    be as long as its level and p be over its alphabet.
    """
    Z = _admissible(Z)
    y = np.asarray(y, dtype=complex).reshape(-1)
    if y.size != Z.n:
        raise ShapeMismatchError(f"vector length {y.size} != level {Z.n}")
    if p.d != Z.d:
        raise AlphabetMismatchError(
            f"polynomial over d={p.d} at a point over d={Z.d}")
    if np.linalg.norm(y) == 0.0:
        raise ValueError("cannot compress the zero vector")
    Q = orthonormal_frame(_adjoint_word_vectors(Z, y, p.degree()).T)
    X = MatrixPoint([Q.conj().T @ M @ Q for M in Z.mats])
    x = Q.conj().T @ y
    return X, x


def _det_poly_roots(H, Z, degree_bound):
    """Roots of t -> det(H(tZ)) via DFT interpolation on the unit circle."""
    K = degree_bound + 1
    ts = np.exp(2j * np.pi * np.arange(K) / K)
    A = evaluate_batch(H, ts[:, None, None, None] * np.array(Z.mats),
                       check_admissible=False)
    vals = np.linalg.det(A)
    # vals[j] = p(omega^j) with omega = exp(2 pi i / K); the forward FFT
    # against exp(-2 pi i j m / K) inverts that evaluation map
    coeffs = np.fft.fft(vals) / K
    # strip negligible leading coefficients before forming the companion
    mags = np.abs(coeffs)
    top = mags.max()
    if top == 0.0:
        return np.array([])
    deg = K - 1
    while deg > 0 and mags[deg] < 1e-12 * top:
        deg -= 1
    if deg == 0:
        return np.array([])
    return np.roots(coeffs[:deg + 1][::-1])


def _triangular_direction(rng, d, n, row_cap):
    """Tuple of strictly triangular matrices with random orientations.

    Concentrating each letter above or below the diagonal lets word
    products reach much larger eigenvalues than Ginibre draws at the same
    row norm, which is where singular points hide for commutator-type
    symbols.
    """
    mats = []
    for _ in range(d):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = np.triu(M, 1) if rng.random() < 0.5 else np.tril(M, -1)
        mats.append(M)
    Z = MatrixPoint(mats)
    rn = Z.row_norm()
    if rn == 0.0:
        return random_point(rng, d, n, row_cap)
    return Z.scale(row_cap / rn)


def _left_null_direction(A):
    """Unit y with ||y* A|| the smallest singular value of A."""
    _, _, Vh = np.linalg.svd(A.conj().T)
    return Vh[-1].conj()


def _harvest_members(H, Z, roots, members, max_members):
    """Verify every in-disk root t of det(H(tZ)) as a member."""
    for t in roots:
        if abs(t) >= 1.0:
            continue
        Zt = Z.scale(t)
        if not Zt.row_norm() < 1.0:
            continue
        A = evaluate(H, Zt)
        y = _left_null_direction(A)
        if _sing_test(A, y)[0]:
            members.append(SingularityPair(Zt, y))
            if len(members) >= max_members:
                return True
    return False


def search_singularities(H, level, trials=50, rng=None, max_members=10):
    """Random-direction search for members of the singularity locus.

    Trials alternate between strictly triangular and Ginibre draws; for
    each direction Z at row norm 0.995 the exact scalings t with
    det(H(tZ)) = 0 are found by polynomial root extraction, and each root
    inside the disk gives a candidate point tZ whose left null vector
    must pass sing_membership's residual test.  Returns the verified
    SingularityPair objects, at most max_members, possibly none:
    polynomial symbols can be pointwise invertible on the whole ball at a
    given level, and the scan can miss a locus that is there.  level and
    max_members are ints >= 1 and trials an int >= 0.
    """
    if H.rows != H.cols:
        raise ShapeMismatchError("singularity search needs a square series")
    if _int_size("level", level) < 1:
        raise ValueError("level must be >= 1")
    if _int_size("max_members", max_members) < 1:
        raise ValueError("max_members must be >= 1")
    if _int_size("trials", trials) < 0:
        raise ValueError("trials must be >= 0")
    if rng is None:
        rng = np.random.default_rng(0)
    members = []
    degree_bound = H.degree() * H.rows * level + 1
    for trial in range(trials):
        if trial % 2 == 0:
            Z = _triangular_direction(rng, H.d, level, 0.995)
        else:
            Z = random_point(rng, H.d, level, 0.995)
        roots = _det_poly_roots(H, Z, degree_bound)
        if roots.size and min(np.abs(roots)) < 1.0:
            if _harvest_members(H, Z, roots, members, max_members):
                break
    return members
