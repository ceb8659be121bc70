"""Evaluation of NC series at matrix points of the row ball.

A point is a d-tuple of complex n x n matrices Z = (Z_1, ..., Z_d); it is
admissible when the row norm ||[Z_1 ... Z_d]|| is below 1.  A p x q series
evaluates to the pn x qn matrix sum_w fhat_w (x) Z^w, with Z^w the product
of the letters of w taken left to right.  Truncation error at row norm s
is controlled by tail_bound.
"""

import warnings

import numpy as np

from .errors import (
    AdmissibilityWarning,
    InadmissiblePointError,
    SchemaError,
    ShapeMismatchError,
)
from .ncseries import (
    _complex_from_json,
    _complex_to_json,
    _int_field,
    _object_with_keys,
    h2_norm,
)

# Row norms above this trigger an AdmissibilityWarning: still inside the
# ball, but close enough to the boundary that truncation tails decay slowly.
ADMISSIBLE_WARN = 0.99

# Points per batched evaluation step: bounds the word-product cache, which
# holds one n x n matrix per point for every suffix of a support word.
EVAL_CHUNK = 256


class MatrixPoint:
    """A tuple of d square matrices of a common size n."""

    def __init__(self, mats):
        mats = [np.atleast_2d(np.asarray(m, dtype=complex)) for m in mats]
        if not mats:
            raise ValueError("a point needs at least one matrix")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ShapeMismatchError(
                    f"point matrices must share a square size, got shapes "
                    f"{[m.shape for m in mats]}")
        self.mats = mats
        self.d = len(mats)
        self.n = n

    def __getitem__(self, k):
        return self.mats[k]

    def row_norm(self):
        """Operator norm of the row [Z_1 ... Z_d]."""
        return float(_row_norms(np.array(self.mats)[None])[0])

    def scale(self, r):
        return MatrixPoint([r * m for m in self.mats])

    def __repr__(self):
        return f"MatrixPoint(d={self.d}, n={self.n})"


def direct_sum_points(points):
    """Letterwise block-diagonal sum of points over the same alphabet."""
    if len({Z.d for Z in points}) > 1:
        raise ShapeMismatchError("points over different alphabets")
    n_total = sum(Z.n for Z in points)
    M = np.zeros((points[0].d, n_total, n_total), dtype=complex)
    off = 0
    for Z in points:
        M[:, off:off + Z.n, off:off + Z.n] = Z.mats
        off += Z.n
    return MatrixPoint(M)


def _row_norms(Zs):
    """Row norms ||[Z_1 ... Z_d]|| over a stack Zs of shape (B, d, n, n):
    the top eigenvalue of sum_k Z_k Z_k^H, summed in letter order."""
    S = sum(Z @ Z.conj().swapaxes(-1, -2) for Z in Zs.swapaxes(0, 1))
    return np.sqrt(np.maximum(np.linalg.eigvalsh(S)[:, -1], 0.0))


def random_points(rng, d, sizes, row_norm):
    """Ginibre tuples scaled to a prescribed row norm, one of size n per
    entry n of sizes, as one (B, d, n, n) stack per distinct size in
    increasing n.  One standard_normal call reads the stream of successive
    random_point calls: per point and letter, real then imaginary block."""
    sizes = np.asarray(sizes, dtype=int)
    counts = 2 * d * sizes ** 2
    starts = np.cumsum(counts) - counts
    flat = rng.standard_normal(int(counts.sum()))
    stacks = []
    for n in np.unique(sizes):
        first = starts[sizes == n]
        G = flat[first[:, None] + np.arange(2 * d * n * n)].reshape(
            first.size, d, 2, n, n)
        Zs = G[:, :, 0] + 1j * G[:, :, 1]
        rn = _row_norms(Zs)
        if not rn.all():
            raise ValueError("degenerate random draw")
        stacks.append(Zs * (row_norm / rn)[:, None, None, None])
    return stacks


def random_point(rng, d, n, row_norm):
    """Ginibre tuple scaled to a prescribed row norm (one random_points)."""
    Zs, = random_points(rng, d, [n], row_norm)
    return MatrixPoint(Zs[0])


def _word_powers(Zs, words):
    """Stacked products Z^w over a batch Zs of shape (B, d, n, n), one
    (B, n, n) array per word, sharing suffix work across words.  The
    cache is a plain local, freed on return: a self-referencing closure
    over it would wait for the cyclic garbage collector."""
    B, _, n, _ = Zs.shape
    cache = {(): np.broadcast_to(np.eye(n, dtype=complex), (B, n, n))}
    for w in words:
        # shortest suffix first, so each product finds its tail cached
        for k in range(len(w) - 1, -1, -1):
            if w[k:] not in cache:
                cache[w[k:]] = Zs[:, w[k] - 1] @ cache[w[k + 1:]]
    return [cache[w] for w in words]


def _check_row_norms(Zs):
    """Batched admissibility gate over a stack of points."""
    if not np.isfinite(Zs).all():
        raise InadmissiblePointError("point has non-finite entries",
                                     row_norm=float("nan"))
    rn = _row_norms(Zs)
    bad = np.flatnonzero(~(rn < 1.0))
    if bad.size:
        r = float(rn[bad[0]])
        raise InadmissiblePointError(
            f"row norm {r:.6f} is not below 1", row_norm=r)
    if rn.max() > ADMISSIBLE_WARN:
        warnings.warn(
            f"row norm {rn.max():.6f} close to the boundary; truncation "
            f"tails decay slowly", AdmissibilityWarning)


def evaluate_batch(f, Zs, check_admissible=True):
    """f(Z) = sum_w fhat_w (x) Z^w at every point of a stack at once.

    Zs has shape (B, d, n, n): B points of one size n over the alphabet of
    f.  Returns the values as one (B, rows*n, cols*n) array.  The stack is
    evaluated EVAL_CHUNK points at a time; a chunk shares one cache of
    word products built with batched matmuls, and one einsum contracts it
    with the coefficients.

    With check_admissible, raises InadmissiblePointError if any point lies
    outside the open unit row ball and warns when a row norm exceeds
    ADMISSIBLE_WARN.
    """
    Zs = np.asarray(Zs, dtype=complex)
    if Zs.ndim != 4 or Zs.shape[1] != f.d or Zs.shape[2] != Zs.shape[3]:
        raise ShapeMismatchError(
            f"points need shape (B, {f.d}, n, n), got {Zs.shape}")
    B, _, n, _ = Zs.shape
    if check_admissible and B:
        _check_row_norms(Zs)
    words, C = f.support(), f.C
    vals = np.zeros((B, f.rows, n, f.cols, n), dtype=complex)
    for lo in range(0, B if words else 0, EVAL_CHUNK):
        powers = _word_powers(Zs[lo:lo + EVAL_CHUNK], words)
        vals[lo:lo + EVAL_CHUNK] = np.einsum("wij,wbkl->bikjl", C,
                                             np.array(powers))
    return vals.reshape(B, f.rows * n, f.cols * n)


def evaluate(f, Z, check_admissible=True):
    """f(Z) = sum_w fhat_w (x) Z^w as a (rows*n) x (cols*n) matrix: the
    one-point case of evaluate_batch, with the same admissibility gate."""
    if not isinstance(Z, MatrixPoint):
        Z = MatrixPoint(Z)
    return evaluate_batch(f, np.array(Z.mats)[None], check_admissible)[0]


def tail_bound(f, s):
    """Upper bound on the norm of the dropped tail of f past its truncation
    order, at any point of row norm <= s < 1.

    Cauchy-Schwarz against the geometric growth of the homogeneous pieces
    gives h2_norm(f) * s^(N+1) / sqrt(1 - s^2).
    """
    s = float(s)
    if not 0.0 <= s < 1.0:
        raise ValueError(f"row norm bound {s} must lie in [0, 1)")
    N = f.max_degree
    return h2_norm(f) * s ** (N + 1) / np.sqrt(1.0 - s * s)


# -- JSON interchange -------------------------------------------------

def point_to_json_dict(Z):
    return {"d": Z.d, "n": Z.n, "Z": _complex_to_json(Z.mats)}


def point_from_json_dict(obj, path="point"):
    _object_with_keys(obj, ("d", "n", "Z"), path, "point document")
    d, n = _int_field(obj, "d", 1, path), _int_field(obj, "n", 1, path)
    if not isinstance(obj["Z"], list) or len(obj["Z"]) != d:
        raise SchemaError(f"Z must be a list of {d} matrices", f"{path}.Z")
    return MatrixPoint([
        _complex_from_json(m, f"{path}.Z[{k}]", "matrix", (n, n))
        for k, m in enumerate(obj["Z"])])


def vector_from_json(obj, n, path):
    return _complex_from_json(obj, path, "vector", (n,))


def vector_to_json(y):
    return _complex_to_json(np.reshape(y, -1))


def pair_from_json_dict(obj, path="pair"):
    """A (point, vector) pair: {"Z": <point>, "y": [[re, im], ...]}."""
    _object_with_keys(obj, ("Z", "y"), path, "pair document")
    Z = point_from_json_dict(obj["Z"], f"{path}.Z")
    y = vector_from_json(obj["y"], Z.n, f"{path}.y")
    return Z, y
