"""Truncated full Fock space over d letters and multiplication operators.

The basis enumerates all words of length <= N in degree-then-lex order, so
the truncated space has dimension D = 1 + d + ... + d^N.  Left and right
creation operators act by prepending/appending a letter and annihilate the
top degree.  Multiplying by a series f compresses f applied to the left
creation tuple; the resulting matrix is exact on columns whose degree stays
within the validity window N - deg(f), and meaningless beyond it.  Every
defect-style question therefore carries an explicit degree limit, checked
against that window.

Every Fock-space matrix is built from the cached index triples
(s, mu, mu s) of word concatenations: a multiplication operator is one
scatter of them.  Where only its Gram
matrix matters, no dense operator is needed: the triples give the
autocorrelations t_s of a symbol as one gather, and the Gram matrix is the
NC Toeplitz matrix built from them.
"""

import functools
import itertools

import numpy as np

from .errors import ShapeMismatchError, ValidityWindowError
from .ncseries import NcSeries, _check_letters, _int_size, rescale

# Relative singular-value threshold for numerical rank decisions.
RANK_REL = 1e-10

# |eigenvalue - 1| tolerance for reading wandering vectors off the
# wandering projection, which truncation perturbs.
WANDER_EIG_TOL = 1e-6


def _degree_starts(d, m):
    """Index of the first word of each length 0..m+1 over d letters."""
    return [0] + list(itertools.accumulate(d ** j for j in range(m + 1)))


class FockBasis:
    """Degree-then-lex enumeration of words of length <= max_degree."""

    def __init__(self, d, max_degree):
        self.d = _int_size("alphabet size", d)
        self.max_degree = _int_size("max_degree", max_degree)
        if self.d < 1:
            raise ValueError("alphabet size must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        # product enumerates each degree in lex order
        letters = range(1, self.d + 1)
        self.words = [w for n in range(self.max_degree + 1)
                      for w in itertools.product(letters, repeat=n)]
        self.index = {w: i for i, w in enumerate(self.words)}
        self.dim = len(self.words)
        self._starts = _degree_starts(self.d, self.max_degree)

    def index_of(self, word):
        w = _check_letters(word)
        i = self.index.get(w)
        if i is None:
            raise KeyError(f"word {w} not in basis (d={self.d}, "
                           f"N={self.max_degree})")
        return i

    def word_at(self, i):
        return self.words[i]

    def degree_start(self, k):
        """Index of the first word of length k."""
        return self._starts[k]

    def indices_through_degree(self, k):
        """All indices for words of length <= k."""
        return np.arange(self._starts[min(k, self.max_degree) + 1])

    def __repr__(self):
        return f"FockBasis(d={self.d}, N={self.max_degree}, dim={self.dim})"


def left_shift_matrix(basis, k):
    """L_k: e_w -> e_{kw}, zero on the top degree; multiplication by z_k."""
    if not 1 <= k <= basis.d:
        raise ValueError(f"letter {k} outside alphabet 1..{basis.d}")
    return mult_operator(NcSeries.monomial((k,), basis.d), basis).mat.real


def series_to_vec(f, basis):
    """Stack the coefficients of f into a (dim * rows, cols) array.

    Layout is word-major: the block at rows [i*p, (i+1)*p) is the
    coefficient at basis word i.
    """
    if f.d != basis.d:
        raise ShapeMismatchError(
            f"series alphabet d={f.d} != basis alphabet d={basis.d}")
    p, q = f.rows, f.cols
    v = np.zeros((basis.dim * p, q), dtype=complex)
    for w, m in f.coeffs.items():
        i = basis.index.get(w)
        if i is None:
            raise ValueError(
                f"series word {w} exceeds basis degree {basis.max_degree}")
        v[i * p:(i + 1) * p, :] = m
    return v


def vec_to_series(v, basis, rows=1, cols=None):
    """Inverse of series_to_vec; zero blocks are dropped."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if cols is None:
        cols = v.shape[1]
    if v.shape != (basis.dim * rows, cols):
        raise ShapeMismatchError(
            f"vector shape {v.shape} != ({basis.dim * rows}, {cols})")
    coeffs = {}
    for i, w in enumerate(basis.words):
        block = v[i * rows:(i + 1) * rows, :]
        if np.any(block):
            coeffs[w] = block.copy()
    return NcSeries._of(basis.d, rows, cols, basis.max_degree, coeffs)


def coeff_stack(f, basis):
    """Coefficients of f over the basis words as a (dim, rows, cols) stack;
    words past the basis degree are dropped."""
    v = series_to_vec(f.truncate(basis.max_degree), basis)
    return v.reshape(basis.dim, f.rows, f.cols)


@functools.lru_cache(maxsize=None)
def word_triples(d, m):
    """Index triples (s, mu, mu s) over FockBasis(d, m) words, |mu s| <= m.

    Every concatenation of two words that stays within degree m appears
    once, as three read-only intp arrays of basis indices.  The index of
    mu s is rank arithmetic: lex order inside a degree is base-d order.
    """
    starts = _degree_starts(d, m)
    s_idx, mu_idx, cat_idx = [], [], []
    for ls in range(m + 1):
        rs = np.arange(d ** ls)
        for lm in range(m + 1 - ls):
            rm = np.arange(d ** lm)
            s_idx.append(np.tile(starts[ls] + rs, rm.size))
            mu_idx.append(np.repeat(starts[lm] + rm, rs.size))
            cat_idx.append(starts[lm + ls]
                           + (rm[:, None] * rs.size + rs).reshape(-1))
    out = tuple(np.concatenate(parts).astype(np.intp)
                for parts in (s_idx, mu_idx, cat_idx))
    for a in out:
        a.flags.writeable = False
    return out


def autocorrelation_stack(A, d, m):
    """t_s = sum_mu A_mu^H A_{mu s} for every word s of length <= m.

    A is a (dim, p, q) stack of coefficients over FockBasis(d, m) words;
    the result is the (dim, q, q) stack of the t_s in the same order.
    """
    s, mu, cat = word_triples(d, m)
    t = np.zeros((A.shape[0], A.shape[2], A.shape[2]), dtype=complex)
    np.add.at(t, s, A[mu].conj().transpose(0, 2, 1) @ A[cat])
    return t


def toeplitz_gram(f, k):
    """Gram matrix of the columns f z^v, |v| <= k, from autocorrelations.

    Block (mu s, s) is t_mu(f) and block (s, mu s) its adjoint, with
    q x q blocks for q = cols(f) in word-major layout.  This is the NC
    Toeplitz structure of the Gram matrix (McCullough, NC Fejer-Riesz);
    no multiplication operator is built.  It is the untruncated Gram, so
    it equals C^H C of mult_operator(f) restricted to degree <= k exactly
    when k <= max_degree(f) - deg(f).
    """
    m = max(k, f.degree())
    basis = FockBasis(f.d, m)
    t = autocorrelation_stack(coeff_stack(f, basis), f.d, m)
    # an exactly Hermitian t_empty makes the Gram exactly Hermitian
    t[0] = 0.5 * (t[0] + t[0].conj().T)
    s, mu, cat = word_triples(f.d, k)
    Dk, q = basis.degree_start(k + 1), f.cols
    G = np.zeros((Dk, Dk, q, q), dtype=complex)
    G[cat, s] = t[mu]
    off = mu > 0
    G[s[off], cat[off]] = t[mu[off]].conj().transpose(0, 2, 1)
    return G.transpose(0, 2, 1, 3).reshape(Dk * q, Dk * q)


class OperatorMatrix:
    """A dense matrix on truncated Fock space with bookkeeping.

    mat has shape (dim * rows, dim * cols) in word-major block layout.
    valid_degree is the largest column degree on which the matrix agrees
    with the untruncated operator it approximates.
    """

    def __init__(self, mat, basis, rows, cols, valid_degree):
        self.mat = mat
        self.basis = basis
        self.rows = int(rows)
        self.cols = int(cols)
        self.valid_degree = int(valid_degree)

    @property
    def shape(self):
        return self.mat.shape

    def column_indices(self, degree_limit):
        """Flat column indices belonging to words of length <= degree_limit."""
        idx = self.basis.indices_through_degree(degree_limit)
        return (idx[:, None] * self.cols + np.arange(self.cols)).reshape(-1)

    def restricted(self, degree_limit):
        """Columns for words of length <= degree_limit."""
        return self.mat[:, self.column_indices(degree_limit)]

    def apply_series(self, g):
        """Apply to a series (cols must match), returning a series."""
        if g.rows != self.cols:
            raise ShapeMismatchError(
                f"operator expects {self.cols} rows, series has {g.rows}")
        v = series_to_vec(g, self.basis)
        return vec_to_series(self.mat @ v, self.basis, rows=self.rows)

    def symbol(self):
        """The series whose multiplication this matrix truncates.

        Reads the vacuum column block, which holds the coefficients of f
        exactly (multiplying the constant 1 reproduces f up to degree N).
        """
        q = self.cols
        return vec_to_series(self.mat[:, 0:q], self.basis, rows=self.rows,
                             cols=q)

    def __repr__(self):
        return (f"OperatorMatrix(shape={self.mat.shape}, "
                f"valid_degree={self.valid_degree})")


def mult_operator(f, basis=None):
    """Compressed left-multiplication by f on the truncated Fock space.

    Maps the word-major stacking of g (with cols(f) channels) to that of
    f * g.  Exact on columns of degree <= valid_degree = N - deg(f); beyond
    that, products spill past the truncation and rows are missing.
    Block (mu s, s) is f_mu for each triple of word_triples, written once;
    words of f past the basis degree are dropped.  The basis defaults to
    words of length <= N.
    """
    if basis is None:
        basis = FockBasis(f.d, f.max_degree)
    coeffs = coeff_stack(f, basis)
    D, p, q = coeffs.shape
    N = basis.max_degree
    s, mu, cat = word_triples(basis.d, N)
    M = np.zeros((D, p, D, q), dtype=complex)
    M[cat, :, s, :] = coeffs[mu]
    valid = N - min(f.degree(), N)
    return OperatorMatrix(M.reshape(D * p, D * q), basis, p, q, valid)


def isometry_defect(op, degree_limit):
    """Spectral-norm deviation of the column Gram from the identity.

    Only columns of degree <= degree_limit enter.  Asking past the validity
    window would measure truncation, not the operator, so that is an error.
    """
    if degree_limit > op.valid_degree:
        raise ValidityWindowError(
            f"degree limit {degree_limit} exceeds validity window "
            f"{op.valid_degree}")
    C = op.restricted(degree_limit)
    G = C.conj().T @ C
    return float(np.linalg.norm(G - np.eye(G.shape[0]), 2))


def smallest_singular_value(op, degree_limit):
    """Least singular value of the matrix restricted to low-degree columns.

    Restriction is on the domain side only; the range keeps every row, so
    norm growth out of the window is still seen.
    """
    if degree_limit > op.valid_degree:
        raise ValidityWindowError(
            f"degree limit {degree_limit} exceeds validity window "
            f"{op.valid_degree}")
    C = op.restricted(degree_limit)
    s = np.linalg.svd(C, compute_uv=False)
    return float(s[-1])


def numerical_rank(A):
    """Number of singular values above RANK_REL times the largest."""
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_REL * s[0]))


def orthonormal_frame(columns):
    """Orthonormal basis for the column span, via SVD with the relative
    cutoff RANK_REL."""
    A = np.asarray(columns, dtype=complex)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.size == 0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    r = int(np.sum(s > RANK_REL * s[0]))
    return U[:, :r]


def wandering_projection(Q, basis):
    """Q - sum_k R_k Q R_k^* for a right-shift invariant projection Q.

    On an invariant subspace this is the projection onto the generating
    (wandering) part: what remains after removing every right translate.
    R_k maps each word w below the top degree to w k, the triples
    (k, w, w k) of word_triples, so each product R_k Q R_k^* is a block of
    Q moved by a gather.
    """
    if Q.shape != (basis.dim, basis.dim):
        raise ShapeMismatchError(
            f"projection shape {Q.shape} does not match basis dim {basis.dim}")
    s, mu, cat = word_triples(basis.d, basis.max_degree)
    P = Q.copy()
    for k in range(1, basis.d + 1):
        # the one-letter word (k,) sits at basis index k
        src, dst = mu[s == k], cat[s == k]
        P[np.ix_(dst, dst)] -= Q[np.ix_(src, src)]
    return P


def wandering_vectors(P, tol=WANDER_EIG_TOL):
    """Eigenvectors of the wandering projection with eigenvalue near 1.

    Returns (vectors, eigenvalues) with vectors as columns.  Truncation
    perturbs the projection, so eigenvalues sit near rather than at 1; the
    tolerance bounds |eigenvalue - 1|.
    """
    H = 0.5 * (P + P.conj().T)
    vals, vecs = np.linalg.eigh(H)
    keep = np.abs(vals - 1.0) <= tol
    return vecs[:, keep], vals[keep]


def wandering_dimension(op):
    """Number of generators of the right-invariant subspace spanned by the
    operator columns.

    Computed as a rank difference: columns over all words of length up to
    the validity window, minus columns over words of length in [1, window].
    Both ranks use the same relative cutoff so the truncation bias cancels;
    this is exact for polynomial symbols once the window covers the
    generators.
    """
    C_all = op.restricted(op.valid_degree)
    start = op.basis.degree_start(1) * op.cols
    return numerical_rank(C_all) - numerical_rank(C_all[:, start:])


def wandering_dimension_profile(f, r_grid):
    """wandering_dimension of mult_operator(rescale(f, r)) over a grid."""
    basis = FockBasis(f.d, f.max_degree)
    return [wandering_dimension(mult_operator(rescale(f, r), basis))
            for r in r_grid]
