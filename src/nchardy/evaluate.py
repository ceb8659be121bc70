"""Evaluation of NC series at matrix points of the row ball.

A point is a d-tuple of complex n x n matrices Z = (Z_1, ..., Z_d); it is
admissible when the row norm ||[Z_1 ... Z_d]|| is below 1.  A p x q series
evaluates to the pn x qn matrix sum_w fhat_w (x) Z^w, with Z^w the product
of the letters of w taken left to right.  tail_bound scales the kept
part's norm to a truncation error at row norm s, a bound only when the
dropped coefficients are no larger in H^2 than the kept ones.
"""

import warnings

import numpy as np

from .errors import (
    AdmissibilityWarning,
    AlphabetMismatchError,
    InadmissiblePointError,
    SchemaError,
    ShapeMismatchError,
)
from .ncseries import (
    _complex_from_json,
    _complex_to_json,
    _horner_plan,
    _int_field,
    _int_size,
    _object_with_keys,
    h2_norm,
)

# Row norms above this trigger an AdmissibilityWarning: still inside the
# ball, but close enough to the boundary that truncation tails decay slowly.
ADMISSIBLE_WARN = 0.99

# Points per batched evaluation step: bounds the two Horner levels a step
# holds at once, at most (d + 2) p q n^2 complex numbers per point and
# node of the wider level.
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
        raise AlphabetMismatchError("points over different alphabets")
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
    random_point calls: per point and letter, real then imaginary block.
    d and every size must be ints >= 1."""
    if _int_size("d", d) < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    # an integer array holds ints already; anything else is checked per size
    if not (isinstance(sizes, np.ndarray) and sizes.dtype.kind in "iu"):
        sizes = [_int_size("point size", n) for n in sizes]
    sizes = np.asarray(sizes, dtype=int)
    if (sizes < 1).any():
        raise ValueError(f"point sizes must be >= 1, got {sizes.min()}")
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


def _coefficient_blocks(f, count, at, n):
    """f_u (x) I at every node u of f's prefix tree, each held as the
    (p q n, n) matrix H[(i, j, l), k] = f_u[i, j] delta_lk: one
    (p q n, count, n) array, zero at the prefixes f does not store."""
    Fc = np.zeros((f.rows, f.cols, count), dtype=complex)
    Fc[:, :, at] = f.C.transpose(1, 2, 0)
    return (Fc[:, :, None, :, None] * np.eye(n)[:, None]).reshape(
        -1, count, n)


def _horner(F, top, levels, Zs):
    """G_empty at every point of Zs by NC Horner over a prefix tree,

        G_u = f_u (x) I + sum_a (I (x) Z_a) G_ua,

    from the longest words down.  Each G_u is held as its (p q n, n)
    matrix H_u[(i, j, l), k] = G_u[(i, k), (j, l)], so that

        H_u = [H_u1 ... H_ud  f_u (x) I] @ [Z_1^T; ...; Z_d^T; I],

    and a level is one batched product per point, its nodes stacked in
    the rows.  A level keeps only the blocks some node of it uses, a
    child missing from the tree leaves its block zero, and a level whose
    slots are a slice takes the product of the level above in place.
    F holds the blocks f_u (x) I, top and levels are
    ncseries._prefix_levels'; returns H_empty, of shape (B, p q n, n), or
    (p q n, 1, n) for a constant.
    """
    B, d, n, _ = Zs.shape
    R = np.empty((B, d + 1, n, n), dtype=complex)
    R[:, :d] = Zs.swapaxes(-1, -2)
    R[:, d] = np.eye(n)
    Rs = {}
    lo, m = top
    H = F[:, lo:lo + m]  # the longest words: the same at every point
    Y = None
    for lo, m, blocks, slots in levels:
        k = len(blocks)
        below = np.zeros((B, F.shape[0], m * k, n), dtype=complex)
        if blocks[-1] == d:
            below[:, :, k - 1::k] = F[:, lo:lo + m]
        if Y is None:
            below[:, :, slots] = H
        elif isinstance(slots, slice):
            # a view: rows (i, j, l, u) step evenly by k n
            np.matmul(Y, Rs[up], out=below[:, :, slots].reshape(B, -1, n))
        else:
            below[:, :, slots] = (Y @ Rs[up]).reshape(B, F.shape[0], -1, n)
        if blocks not in Rs:
            Rs[blocks] = R[:, list(blocks)].reshape(B, k * n, n)
        Y, up = below.reshape(B, -1, k * n), blocks
    return H if Y is None else Y @ Rs[up]


def _check_row_norms(Zs):
    """Batched admissibility gate over a stack of points: their row norms."""
    if not np.isfinite(Zs).all():
        raise InadmissiblePointError("point has non-finite entries",
                                     row_norm=float("nan"))
    rn = _row_norms(Zs)
    bad = np.flatnonzero(~(rn < 1.0))
    if bad.size:
        r = float(rn[bad[0]])
        raise InadmissiblePointError(
            f"row norm {r:.6f} is not below 1", row_norm=r)
    return rn


def evaluate_batch(f, Zs, check_admissible=True):
    """f(Z) = sum_w fhat_w (x) Z^w at every point of a stack at once.

    Zs has shape (B, d, n, n): B points of one size n over the alphabet of
    f.  Returns the values as one (B, rows*n, cols*n) array.  The values
    come from NC Horner over the prefix tree of f's words, built from
    f.codes once per support (ncseries._horner_plan): one batched matrix
    product per word length, EVAL_CHUNK points at a time, so a step holds
    at most two levels of the tree.

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
        worst = _check_row_norms(Zs).max()
        if worst > ADMISSIBLE_WARN:
            warnings.warn(
                f"row norm {worst:.6f} close to the boundary; truncation "
                f"tails decay slowly", AdmissibilityWarning)
    vals = np.zeros((B, f.rows, n, f.cols, n), dtype=complex)
    count, at, top, levels = _horner_plan(f)
    if B and count:
        F = _coefficient_blocks(f, count, at, n)
        for lo in range(0, B, EVAL_CHUNK):
            H = _horner(F, top, levels, Zs[lo:lo + EVAL_CHUNK])
            vals[lo:lo + EVAL_CHUNK] = H.reshape(
                -1, f.rows, f.cols, n, n).transpose(0, 1, 4, 2, 3)
    return vals.reshape(B, f.rows * n, f.cols * n)


def evaluate(f, Z, check_admissible=True):
    """f(Z) = sum_w fhat_w (x) Z^w as a (rows*n) x (cols*n) matrix: the
    one-point case of evaluate_batch, with the same admissibility gate."""
    if not isinstance(Z, MatrixPoint):
        Z = MatrixPoint(Z)
    return evaluate_batch(f, np.array(Z.mats)[None], check_admissible)[0]


def tail_bound(f, s):
    """h2_norm(f) * s^(N+1) / sqrt(1 - s^2), N the truncation order: the
    norm of the kept part scaled by the decay of a tail at points of row
    norm <= s < 1.

    It bounds the dropped tail only under a condition.  Cauchy-Schwarz
    against the geometric growth of the homogeneous pieces bounds the
    tail's norm at such a point by the same formula with the H^2 norm of
    the dropped coefficients in place of h2_norm(f), so the value is a
    bound only when that norm is at most h2_norm(f).  It need not be:
    over one letter, sigma_10 truncated at N = 4 is off by 0.455 on
    [-0.9, 0.9], and tail_bound(f, 0.9) is 0.208.
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
