"""Truncated full Fock space over d letters and multiplication operators.

The basis is a view of the ncseries code table; words are decoded on read.
It indexes the words of length <= N in degree-then-lex order, so the
truncated space has dimension D = 1 + d + ... + d^N.  Left and right
creation operators act by prepending/appending a letter and annihilate the
top degree.  Multiplying by a series f compresses f applied to the left
creation tuple; the resulting matrix is exact on columns whose degree stays
within the validity window N - deg(f), and meaningless beyond it.  Every
defect-style question therefore carries an explicit degree limit, checked
against that window; validity_window is its one definition.

Every index comes from splitting words w = mu s by code lookup
(ncseries._prefix_pairs): the columns of a multiplication operator are
one scatter over the basis words split at a prefix stored in f, and the
index triples (s, mu, mu s) pair the basis with itself.  Where only a
Gram matters, no dense operator and no Gram is built: the
autocorrelations t_s of a symbol f are the coefficients of f(L)* f, which
pair each stored word of f with its stored prefixes, as
ncseries.shift_adjoint_apply does.  Every block of the NC Toeplitz Gram
is one of them or the adjoint of one, and a Cholesky along the suffix
tree works on a state shaped like t.  One pass runs it for many shifts
of the Gram at once and gives, per shift, its definiteness and the
vacuum's Schur complement.  Multisection on the shift, fifteen trial
shifts a pass on scalar data, gives the extreme eigenvalues inside a
bracket read off t itself, in about 12 passes where bisection took 48.
"""

import functools

import numpy as np

from .errors import (
    AlphabetMismatchError,
    ShapeMismatchError,
    ValidityWindowError,
)
from .ncseries import (
    NcSeries,
    _bound,
    _code_of,
    _code_stack,
    _code_table,
    _decode,
    _degree_arg,
    _int_size,
    _lengths,
    _prefix_pairs,
    rescale,
)

# Relative singular-value threshold for numerical rank decisions.
RANK_REL = 1e-10

# The fixed work of a tree pass of k lengths over scalar data costs about
# as much as PASS_BUDGET (k + 2) block products of one shift (numpy on
# OpenBLAS, one thread); toeplitz_min_eig sizes its shift count by it.
PASS_BUDGET = 320


class FockBasis:
    """A view of the ncseries code table: the words of length <= max_degree
    in code order, decoded on read; the index of a word is its code."""

    def __init__(self, d, max_degree):
        self.d = _int_size("alphabet size", d)
        if self.d < 1:
            raise ValueError("alphabet size must be >= 1")
        self.max_degree = _degree_arg(
            "max_degree", _int_size("max_degree", max_degree), self.d)
        self._starts, self._pows = _code_table(self.d, self.max_degree)
        self.dim = int(self._starts[-1])

    @property
    def words(self):
        """Every basis word as a letter tuple, in index order."""
        return _decode(np.arange(self.dim), self.d, self._starts, self._pows)

    @property
    def index(self):
        """{word: index} over every basis word."""
        return {w: i for i, w in enumerate(self.words)}

    def index_of(self, word):
        i = _code_of(word, self.d, self.max_degree)
        if i is None:
            raise KeyError(f"word {tuple(word)} not in basis (d={self.d}, "
                           f"N={self.max_degree})")
        return i

    def degree_start(self, k):
        """Index of the first word of length k."""
        return int(self._starts[k])

    def __repr__(self):
        return f"FockBasis(d={self.d}, N={self.max_degree}, dim={self.dim})"


def series_to_vec(f, basis):
    """Stack the coefficients of f into a (dim * rows, cols) array.

    Layout is word-major: the block at rows [i*p, (i+1)*p) is the
    coefficient at basis word i.  A word past the basis degree is refused.
    """
    A = coeff_stack(f, basis)
    if f.degree() > basis.max_degree:
        w = f.support()[np.searchsorted(f.codes, basis.dim)]
        raise ValueError(
            f"series word {w} exceeds basis degree {basis.max_degree}")
    return A.reshape(-1, f.cols)


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
    blocks = v.reshape(basis.dim, rows, cols)
    codes = np.flatnonzero(blocks.any(axis=(1, 2)))
    return NcSeries._of(basis.d, rows, cols, basis.max_degree, codes,
                        blocks[codes])


def coeff_stack(f, basis):
    """Coefficients of f over the basis words as a (dim, rows, cols) stack,
    one scatter by code; words past the basis degree are dropped."""
    if f.d != basis.d:
        raise AlphabetMismatchError(
            f"series alphabet d={f.d} != basis alphabet d={basis.d}")
    return _code_stack(f, basis.max_degree)


@functools.lru_cache(maxsize=None, typed=True)
def word_triples(d, m):
    """Index triples (s, mu, mu s) over FockBasis(d, m) words, |mu s| <= m,
    as three read-only intp arrays of basis indices (word codes): every
    concatenation within degree m once, s by length, then mu s ascending.
    The basis paired with itself by ncseries._prefix_pairs.  d must be an
    int >= 1 and m an int >= 0 (the typed cache refuses True after 1)."""
    if _int_size("d", d) < 1 or _int_size("m", m) < 0:
        raise ValueError("word_triples needs d >= 1 and m >= 0")
    c = np.arange(_code_table(d, m)[0][-1])
    mu, cat, s = _prefix_pairs(c, c, d, m, m)
    out = tuple(a.astype(np.intp) for a in (s, mu, cat))
    for a in out:
        a.flags.writeable = False
    return out


def toeplitz_data(f, k=None):
    """The autocorrelations t_s(f) = sum_a f_a^H f_{as}, |s| <= min(deg f,
    k) (k defaults to deg f): the coefficients of f(L)* f, of which every
    block of f's NC Toeplitz Gram on |v| <= k is one or the adjoint of one.

    One batched product over the pairs of ncseries._prefix_pairs, which
    shift_adjoint_apply sums too, and each t_s adds its terms in the order
    of a.  A stack over the FockBasis(f.d, min(deg f, k)) words, each q x q
    with q = cols(f), with t_empty made exactly Hermitian so that the Gram
    is exactly Hermitian; t_s vanishes for |s| > deg f.  Each row is the
    same bit for bit whatever k.
    """
    m = f.degree()
    k = m if k is None else _int_size("k", k)
    if k < 0:
        raise ValueError(f"autocorrelation length k = {k} is negative")
    n = min(m, k)
    ja, iw, cs = _prefix_pairs(f.codes, f.codes, f.d, _bound(f), n)
    t = np.zeros((_code_table(f.d, n)[0][-1], f.cols, f.cols), dtype=complex)
    np.add.at(t, cs, f.C[ja].conj().transpose(0, 2, 1) @ f.C[iw])
    t[0] = 0.5 * (t[0] + t[0].conj().T)
    return t


def _toeplitz_window(t, d, k):
    """The window k of an NC Toeplitz Gram with data t over d letters,
    checked: k an int >= 0, d an int >= 1, and t a (D, q, q) stack with D
    a Fock dimension (_stack_degree) holding every t_s with |s| <= min(deg
    f, k), as toeplitz_data(f, j) does for j >= k or None."""
    if _int_size("k", k) < 0 or _int_size("d", d) < 1:
        raise ValueError(f"window k = {k} must be >= 0 and d = {d} >= 1")
    shape = getattr(t, "shape", ())
    if len(shape) != 3 or shape[1] != shape[2]:
        raise ShapeMismatchError(f"NC Toeplitz data must be a (D, q, q) "
                                 f"stack, got shape {shape}")
    _stack_degree(d, shape[0])
    return int(k)


def _stack_degree(d, size):
    """m such that FockBasis(d, m) has size words; a size that is no
    Fock dimension 1 + d + ... + d^m raises ShapeMismatchError."""
    m, dim = 0, 1
    while dim < size:
        m += 1
        dim += d ** m
    if dim != size:
        raise ShapeMismatchError(f"{size} is no Fock dimension over d={d}")
    return m


@functools.lru_cache(maxsize=None)
def _elimination_plan(d, b, width):
    """(pairs, back) for the triples (s, mu, mu s) of word_triples(d, b)
    with mu nonempty: pairs lists the mu and then the mu s, one gather,
    and back[i] = |mu| width - s, so that a length-major state of width
    blocks per length sends triple i at length l to block
    l width - back[i], which is S[l - |mu|, s].  Read-only intp arrays."""
    s, mu, cat = word_triples(d, b)
    keep = mu > 0
    back = _lengths(mu[keep], _code_table(d, b)[0]) * width - s[keep]
    pairs = np.concatenate((mu[keep], cat[keep]))
    for a in (pairs, back):
        a.flags.writeable = False
    return pairs, back


def _tree_elimination(t, d, k, shifts):
    """The tree Cholesky of toeplitz_vacuum_schur for every shift at once:
    one pass over G - shift I for G the NC Toeplitz Gram of f on |v| <= k
    with data t over d letters.

    The shifts ride as an inner axis of the state, so each index triple
    still updates one block per shift by one batched product, and every
    shift sees the arithmetic of a one-shift pass bit for bit.  A shift
    whose pivot is not positive definite leaves the state.  Returns
    (fail, C): fail[j] is the length at which G - shifts[j] I met such a
    pivot, or -1, and C[j] is the Cholesky factor of the vacuum's Schur
    complement where fail[j] is -1 (NaN elsewhere).
    """
    m, width = _stack_degree(d, len(t)), len(t)
    q = t.shape[1]
    shifts = np.asarray(shifts, dtype=float)
    fail, live = [-1] * len(shifts), list(range(len(shifts)))
    # S[l width + s, j]: block (w, w[|s|:]) of G - shifts[j] I left to
    # eliminate, for each word w of length l that starts with s (entries
    # with |s| > l are never read)
    S = np.empty(((k + 1) * width, len(shifts), q, q), dtype=complex)
    S.reshape(k + 1, width, -1, q, q)[...] = t[:, None]
    # the diagonals of the pivot blocks S[l width]
    diag = S[::width].reshape(k + 1, -1, q * q)[..., ::q + 1]
    np.subtract(diag, shifts[:, None], out=diag)
    C = np.full((len(shifts), q, q), np.nan, dtype=complex)
    for lev in range(k, -1, -1):
        # X = C^-1 S[lev] row by row, for the pivot S[lev, 0] = C C^H; the
        # vacuum's rows are its pivot alone, so there X = C^H
        rows = slice(lev * width, lev * width + (width if lev else 1))
        X = S[rows]
        for r in range(q):
            piv = X[0, :, r, r, None].real
            ok = [p > 0 for p in piv[:, 0].tolist()]
            if not all(ok):
                for j, good in zip(live, ok):
                    if not good:
                        fail[j] = lev
                live = [j for j, good in zip(live, ok) if good]
                if not live:
                    return fail, C
                # the rows of this length and the shorter ones are left
                S, piv = S[:rows.stop, ok], piv[ok]
                X = S[rows]
            row = X[:, :, r]
            np.divide(row, np.sqrt(piv), out=row)
            for r2 in range(r + 1, q):
                X[:, :, r2] -= X[0, :, r, r2, None].conj() * row
        if lev:
            pairs, back = _elimination_plan(d, min(m, lev), width)
            Y = X[pairs]
            np.subtract.at(S[lev * width::-1], back,
                           Y[:len(back)].conj().swapaxes(-1, -2)
                           @ Y[len(back):])
    # the vacuum's rows hold C^H on and above the diagonal, and rounding
    # left by the row updates below it
    for r in range(1, q):
        X[0, :, r, :r] = 0
    C[live] = X[0].conj().swapaxes(-1, -2)
    return fail, C


def toeplitz_vacuum_schur(t, d, k, shift=0.0):
    """Cholesky factor C of the vacuum's Schur complement C C^H in
    G - shift I, for G the NC Toeplitz Gram of f on |v| <= k with data t
    over d letters (_toeplitz_window).

    Block (w, v) of G vanishes unless one word is a suffix of the other,
    at most m = deg f letters shorter.  Eliminating the longest words
    first is then a perfect elimination order (Rose, 1970): a pivot w
    couples only its suffixes w[i:] and w[j:], of which one is a suffix of
    the other, so every update lands inside the pattern and nothing fills
    in.  Each length is eliminated at once, since words of one length do
    not meet.  Block (w, w[j:]) starts as t of w's prefix of length j, and
    eliminating the words p u of one length sends their suffix u a sum
    over all d^i prefixes p, which depends on u only through its prefix
    of length j - i.  So every block left depends on its row word only
    through a prefix of length <= m, and each length keeps one block per
    prefix: a state shaped like t, however large d^k is.  Eliminating a
    length is one q x q Cholesky of its pivot, X_s = C^-1 S_s, and the
    sums X_mu^H X_{mu s} over the index triples, sent to length l - |mu|;
    that is O(k m |t|) block products for the k lengths.  The vacuum is
    the last pivot, eliminated the same way: its rows are its pivot
    alone, so there X = C^H.  A pivot that is not positive definite, and
    so G - shift I, raises LinAlgError.  The one-shift case of
    _tree_elimination.
    """
    fail, C = _tree_elimination(t, d, _toeplitz_window(t, d, k), [shift])
    if fail[0] >= 0:
        raise np.linalg.LinAlgError(
            f"pivot at length {fail[0]} is not positive definite")
    return C[0]


def _off_diagonal_bound(t, d, k):
    """off = 2 sum ||t_s||_2 over 0 < |s| <= min(deg f, k), which bounds the
    norm of the NC Toeplitz Gram on |v| <= k with data t over d letters,
    less its block diagonal.  Block row w meets each t_s at most twice: as
    t_s at w[|s|:] when w starts with s, and as t_s^H at the longer word
    s w.  So every block row's sum of norms is at most off (block
    Gershgorin)."""
    n = _code_table(d, min(_stack_degree(d, len(t)), k))[0][-1]
    return 2.0 * float(np.linalg.svd(t[1:n], compute_uv=False)[:, 0].sum())


def _gram_bracket(t, d, k):
    """(lambda_min(t_empty), lambda_max(t_empty), off) for the Gram of
    toeplitz_min_eig (off from _off_diagonal_bound): each eigenvalue of G
    lies within off of t_empty's spectrum.  -t has the bracket (-lambda_max,
    -lambda_min, off), so a caller that asks about both ends, as
    kernels.inner_defect does, computes it once and passes it on."""
    vals = np.linalg.eigvalsh(t[0])
    return float(vals[0]), float(vals[-1]), _off_diagonal_bound(t, d, k)


def toeplitz_max_bound(t, d, k, bracket=None):
    """lambda_max(t_empty) + off: the top of the largest eigenvalue's
    bracket (_gram_bracket, or the one given), for the Gram of
    toeplitz_min_eig (_toeplitz_window)."""
    k = _toeplitz_window(t, d, k)
    _, top, off = bracket or _gram_bracket(t, d, k)
    return top + off


def _shift_count(t, d, k):
    """Trial shifts per toeplitz_min_eig pass.  n shifts gain log2(n + 1)
    bits a pass, so on scalar data it is the most of 15, 7 and 3 (else 1)
    with n P <= PASS_BUDGET (k + 2), for P block products per shift and
    pass.  Block data bisect, since each q x q product is a BLAS call per
    shift."""
    if t.shape[1] > 1:
        return 1
    m = _stack_degree(d, len(t))
    products = sum(len(_elimination_plan(d, min(m, lev), len(t))[1])
                   for lev in range(1, k + 1))
    return next((n for n in (15, 7, 3)
                 if n * products <= PASS_BUDGET * (k + 2)), 1)


def toeplitz_min_eig(t, d, k, bracket=None):
    """Smallest eigenvalue of the NC Toeplitz Gram G on |v| <= k with data
    t over d letters (_toeplitz_window); the largest is
    -toeplitz_min_eig(-t, d, k).  bracket, when given, is
    _gram_bracket(t, d, k).

    G's vacuum block is t_empty and the rest of G has norm at most off
    (_off_diagonal_bound), so the answer lies in [c - off, c] for
    c = lambda_min(t_empty).  A bracket that is closed to rounding is the
    answer with no tree pass: at window 0, and whenever t_s = 0 for
    s != empty.  Otherwise it is multisected down to rounding (Barth,
    Martin and Wilkinson, 1967), since the tree Cholesky of G - s I
    succeeds exactly when every eigenvalue of G exceeds s: each pass of
    _tree_elimination tries n evenly spaced interior shifts at once
    (_shift_count), and the bracket shrinks to the gap between the first
    failing shift and the shift before it.  Fifteen shifts gain four bits
    a pass, so a bracket that bisection closes in 48 passes takes 12.
    No Gram matrix is built.
    """
    k = _toeplitz_window(t, d, k)
    c, _, off = bracket or _gram_bracket(t, d, k)
    lo, hi = c - off, c
    # four ulps of the largest endpoint: a narrower bracket holds too few
    # floats to split
    tol = 4 * np.finfo(float).eps * (abs(c) + off)
    n = _shift_count(t, d, k)
    while hi - lo > tol:
        step = (hi - lo) / (n + 1)
        shifts = [lo + i * step for i in range(1, n + 1)]
        fail = _tree_elimination(t, d, k, shifts)[0]
        # the first failing shift, or hi when every shift passes
        j = next((i for i, f in enumerate(fail) if f >= 0), n)
        lo, hi = ([lo] + shifts)[j], (shifts + [hi])[j]
    return 0.5 * (lo + hi)


def validity_window(f, N=None):
    """N - min(deg f, N): the largest column degree on which multiplication
    by f, truncated at degree N (f.max_degree by default), is exact."""
    if N is None:
        N = f.max_degree
    return N - min(f.degree(), N)


def _check_degree_limit(degree_limit, valid):
    """Refuse a column degree limit that is not an int in [0, valid]."""
    if _int_size("degree limit", degree_limit) < 0:
        raise ValueError(f"degree limit {degree_limit} is negative")
    if degree_limit > valid:
        raise ValidityWindowError(
            f"degree limit {degree_limit} exceeds validity window {valid}")


def _mult_columns(f, basis, k):
    """Columns f z^v, |v| <= k, of multiplication by f on the basis, as a
    (dim * rows, D_k * cols) array: block (mu s, s) is f_mu over the
    basis words split by ncseries._prefix_pairs into a prefix mu stored
    in f and a suffix s with |s| <= k."""
    if f.d != basis.d:
        raise AlphabetMismatchError(
            f"series alphabet d={f.d} != basis alphabet d={basis.d}")
    mu, cat, s = _prefix_pairs(f.codes, np.arange(basis.dim), f.d,
                               basis.max_degree, k)
    n = basis.degree_start(k + 1)
    M = np.zeros((basis.dim, f.rows, n, f.cols), dtype=complex)
    M[cat, :, s, :] = f.C[mu]
    return M.reshape(basis.dim * f.rows, n * f.cols)


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

    def restricted(self, degree_limit):
        """Columns for words of length <= degree_limit, which come first."""
        k = min(degree_limit, self.basis.max_degree)
        if k < 0:
            raise ValueError(f"degree limit {degree_limit} is negative")
        return self.mat[:, :self.basis.degree_start(k + 1) * self.cols]


def mult_operator(f, basis=None):
    """Compressed left-multiplication by f on the truncated Fock space.

    Maps the word-major stacking of g (with cols(f) channels) to that of
    f * g.  Exact on columns of degree <= valid_degree = N - deg(f); beyond
    that, products spill past the truncation and rows are missing.  The
    matrix is the scatter _mult_columns at k = N; the basis defaults to
    words of length <= N.
    """
    if basis is None:
        basis = FockBasis(f.d, f.max_degree)
    N = basis.max_degree
    return OperatorMatrix(_mult_columns(f, basis, N), basis, f.rows, f.cols,
                          validity_window(f, N))


def isometry_defect(op, degree_limit):
    """Spectral-norm deviation of the column Gram from the identity.

    Only columns of degree <= degree_limit enter, an int within the validity
    window: past it the defect would measure truncation, not the operator.
    """
    _check_degree_limit(degree_limit, op.valid_degree)
    C = op.restricted(degree_limit)
    G = C.conj().T @ C
    return float(np.linalg.norm(G - np.eye(G.shape[0]), 2))


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
    cutoff RANK_REL.  Real columns give a real frame."""
    A = np.asarray(columns)
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.size == 0:
        return np.zeros((A.shape[0], 0), dtype=A.dtype)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[0], 0), dtype=A.dtype)
    r = int(np.sum(s > RANK_REL * s[0]))
    return U[:, :r]


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
    return numerical_rank(C_all) - numerical_rank(C_all[:, op.cols:])


def wandering_dimension_profile(f, r_grid):
    """wandering_dimension of mult_operator(rescale(f, r)) over a grid."""
    basis = FockBasis(f.d, f.max_degree)
    return [wandering_dimension(mult_operator(rescale(f, r), basis))
            for r in r_grid]
