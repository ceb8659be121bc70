"""The dict implementation of series arithmetic, kept as a reference.

These are the functions of ncseries and fockspace from when a series
stored a dict {letter-tuple: block}, copied unchanged except that they
build a DictSeries, the bare dict-backed series below.  The differential
test (test_code_series.py) runs them on dicts in sorted word order and
requires the code-based implementation to agree bitwise.  Do not edit the
copied functions: they are the reference.
"""

import numpy as np

from nchardy.errors import (
    AlphabetMismatchError,
    NotInvertibleError,
    ShapeMismatchError,
)
from nchardy.ncseries import INVERT_REL, PRUNE_REL, _complex_to_json


def _nonzero(coeffs):
    """coeffs without its all-zero blocks, found by one reduction over the
    stacked blocks; coeffs itself when there are none."""
    if not coeffs:
        return coeffs
    keep = np.stack(list(coeffs.values())).any(axis=(1, 2))
    if keep.all():
        return coeffs
    return {w: m for (w, m), k in zip(coeffs.items(), keep) if k}


def word_key(w):
    """Sort key implementing the degree-then-lex order on letter tuples."""
    return (len(w), w)


class DictSeries:
    """A series as a dict {letter-tuple: block}, with the methods the
    reference functions call."""

    def __init__(self, d, rows, cols, max_degree, coeffs):
        self.d, self.rows, self.cols = d, rows, cols
        self.max_degree = max_degree
        self.coeffs = _nonzero(coeffs)

    @classmethod
    def _of(cls, d, rows, cols, max_degree, coeffs):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        return cls(d, rows, cols, max_degree, coeffs)

    def support(self):
        """Stored words in degree-then-lex order."""
        return sorted(self.coeffs, key=word_key)

    def is_scalar(self):
        return self.rows == 1 and self.cols == 1

    def copy(self):
        """Deep copy: no coefficient array is shared."""
        return DictSeries._of(self.d, self.rows, self.cols, self.max_degree,
                              {w: m.copy() for w, m in self.coeffs.items()})

    def truncate(self, n):
        """Drop words longer than n and clamp max_degree to n."""
        kept = {w: m for w, m in self.coeffs.items() if len(w) <= n}
        return DictSeries._of(self.d, self.rows, self.cols,
                              min(self.max_degree, n), kept)

    def prune(self):
        """Drop coefficients with Frobenius norm <= PRUNE_REL * (largest
        norm), the norms taken after scaling every entry by the power of
        two that brings the largest modulus into [1/2, 1), as
        NcSeries.prune does: at 1e-170 a raw norm underflows to 0."""
        if not self.coeffs:
            return self.copy()
        e = int(np.frexp(max(np.abs(m).max()
                             for m in self.coeffs.values()))[1])
        norms = {w: np.linalg.norm(np.ldexp(m.real, -e)
                                   + 1j * np.ldexp(m.imag, -e))
                 for w, m in self.coeffs.items()}
        top = max(norms.values())
        kept = {w: m for w, m in self.coeffs.items()
                if norms[w] > PRUNE_REL * top}
        return DictSeries._of(self.d, self.rows, self.cols, self.max_degree,
                              kept)

    def _check_compatible(self, other):
        if self.d != other.d:
            raise AlphabetMismatchError(
                f"series over d={self.d} combined with d={other.d}")

    def scale(self, scalar):
        scalar = complex(scalar)
        out = {w: scalar * m for w, m in self.coeffs.items()}
        return DictSeries._of(self.d, self.rows, self.cols, self.max_degree,
                              out)


def series_add(f, g):
    """Coefficientwise sum; result truncated at min(N_f, N_g)."""
    f._check_compatible(g)
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatchError(
            f"shapes ({f.rows},{f.cols}) and ({g.rows},{g.cols}) differ")
    n = min(f.max_degree, g.max_degree)
    out = {w: m for w, m in f.coeffs.items() if len(w) <= n}
    for w, m in g.coeffs.items():
        if len(w) <= n:
            out[w] = out[w] + m if w in out else m
    return DictSeries._of(f.d, f.rows, f.cols, n, out)


def series_mul(f, g, max_degree=None):
    """Cauchy-concatenation product (fg)_w = sum_{uv=w} f_u g_v.

    Matrix coefficients multiply; cols(f) must equal rows(g).  Words beyond
    the truncation bound (default min(N_f, N_g)) are silently dropped, which
    is exactly the information a validity window tracks downstream.
    """
    f._check_compatible(g)
    if f.cols != g.rows:
        raise ShapeMismatchError(
            f"inner dims differ: cols(f)={f.cols}, rows(g)={g.rows}")
    if max_degree is None:
        max_degree = min(f.max_degree, g.max_degree)
    out = {}
    for u, fu in f.coeffs.items():
        lu = len(u)
        if lu > max_degree:
            continue
        for v, gv in g.coeffs.items():
            if lu + len(v) > max_degree:
                continue
            w = u + v
            prod = fu @ gv
            if w in out:
                out[w] += prod
            else:
                out[w] = prod
    return DictSeries._of(f.d, f.rows, g.cols, max_degree, out)


def shift_adjoint_apply(omega, H, out_degree=None):
    """Coefficients of omega(L)* applied to H: F_b = sum_a conj(om_a) H_{ab}.

    omega scalar, H scalar or matrix-valued; the result keeps H's shape.
    """
    if not omega.is_scalar():
        raise ShapeMismatchError("adjoint application needs a scalar symbol")
    if out_degree is None:
        out_degree = H.max_degree
    coeffs = {}
    for w, Hm in H.coeffs.items():
        for a, om in omega.coeffs.items():
            la = len(a)
            if la > len(w) or w[:la] != a:
                continue
            b = w[la:]
            if len(b) > out_degree:
                continue
            term = np.conj(om[0, 0]) * Hm
            if b in coeffs:
                coeffs[b] = coeffs[b] + term
            else:
                coeffs[b] = term
    return DictSeries._of(H.d, H.rows, H.cols, out_degree, coeffs)


def rescale(f, r):
    """Argument rescaling: coefficient at w is multiplied by r^|w|.

    Only r in [0, 1] is meaningful here (the map is a complete contraction
    there), so anything else is rejected.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"rescale parameter {r} outside [0, 1]")
    out = {w: (r ** len(w)) * m for w, m in f.coeffs.items()}
    return DictSeries._of(f.d, f.rows, f.cols, f.max_degree, out)


def series_inner(f, g):
    """Coefficient pairing sum_w <f_w, g_w>_Frobenius, conjugate-linear in
    the first argument.  Words outside the common support contribute zero."""
    f._check_compatible(g)
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatchError(
            f"shapes ({f.rows},{f.cols}) and ({g.rows},{g.cols}) differ")
    fc, gc = f.coeffs, g.coeffs
    acc = 0.0 + 0.0j
    for w in fc if len(fc) <= len(gc) else gc:
        if w in fc and w in gc:
            acc += np.sum(np.conj(fc[w]) * gc[w])
    return complex(acc)


def series_invert(f, max_degree=None):
    """Multiplicative inverse of f up to degree max_degree (default N_f).

    Requires a square constant term with sigma_min above INVERT_REL
    sigma_max, a floor that does not depend on f's scale.  The inverse g
    follows the degree recursion g_w = -f_0^{-1} sum_{uv=w, u != empty}
    f_u g_v: at each degree, each nonconstant word u of f pairs with each
    stored word v of g at the degree less |u|, the terms of each word
    w = uv are summed in f's word order, and -f_0^{-1} is applied in
    sorted word order.  Only stored (nonzero) words of g are visited, so
    sparse inputs stay sparse.
    """
    if f.rows != f.cols:
        raise ShapeMismatchError("only square series can be inverted")
    if max_degree is None:
        max_degree = f.max_degree
    f0 = f.coeffs.get(())
    if f0 is None:
        raise NotInvertibleError("constant term is zero", smallest_sigma=0.0)
    svals = np.linalg.svd(f0, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    if smin <= INVERT_REL * smax:
        raise NotInvertibleError(
            f"constant term numerically singular (sigma_min={smin:.3e})",
            smallest_sigma=smin)
    f0inv = np.linalg.inv(f0)
    f_plus = [(u, fu) for u, fu in f.coeffs.items() if u]
    g = {(): f0inv}
    levels = [[()]]
    for deg in range(1, max_degree + 1):
        acc = {}
        for u, fu in f_plus:
            if len(u) <= deg:
                for v in levels[deg - len(u)]:
                    term = fu @ g[v]
                    w = u + v
                    acc[w] = acc[w] + term if w in acc else term
        level = []
        for w in sorted(acc):
            gw = -(f0inv @ acc[w])
            if np.any(gw):
                g[w] = gw
                level.append(w)
        levels.append(level)
    return DictSeries._of(f.d, f.rows, f.cols, max_degree, g)


def phase_normalize(f):
    """Rotate f by a unimodular scalar so its leading coefficient entry
    (degree-then-lex first word, row-major first entry above 1e-13 times
    the largest entry) is real and positive.

    Returns (g, u) with f = u * g and |u| = 1.
    """
    top = max((np.max(np.abs(m)) for m in f.coeffs.values()), default=0.0)
    if top == 0.0:
        return f.copy(), complex(1.0)
    for w in f.support():
        m = f.coeffs[w]
        flat = m.reshape(-1)
        idx = np.where(np.abs(flat) > 1e-13 * top)[0]
        if idx.size:
            entry = complex(flat[idx[0]])
            u = entry / abs(entry)
            return f.scale(1.0 / u), u
    return f.copy(), complex(1.0)


def max_coeff_diff(f, g, through_degree=None):
    """Largest entrywise coefficient deviation |f_w - g_w| over words of
    length <= through_degree (default: the smaller truncation bound)."""
    if through_degree is None:
        through_degree = min(f.max_degree, g.max_degree)
    words = {w for c in (f.coeffs, g.coeffs) for w in c
             if len(w) <= through_degree}
    f0 = np.zeros((f.rows, f.cols), dtype=complex)
    g0 = np.zeros((g.rows, g.cols), dtype=complex)
    err = 0.0
    for w in words:
        diff = f.coeffs.get(w, f0) - g.coeffs.get(w, g0)
        err = max(err, float(np.max(np.abs(diff))))
    return err


# -- fockspace boundary converters ------------------------------------


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
    index = basis.index
    for w, m in f.coeffs.items():
        i = index.get(w)
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
    blocks = v.reshape(basis.dim, rows, cols)
    words = basis.words
    coeffs = {words[i]: blocks[i].copy()
              for i in np.flatnonzero(blocks.any(axis=(1, 2)))}
    return DictSeries._of(basis.d, rows, cols, basis.max_degree, coeffs)


def coeff_stack(f, basis):
    """Coefficients of f over the basis words as a (dim, rows, cols) stack;
    words past the basis degree are dropped."""
    v = series_to_vec(f.truncate(basis.max_degree), basis)
    return v.reshape(basis.dim, f.rows, f.cols)


# -- JSON ---------------------------------------------------------------


def to_json_dict(f):
    """Series as a JSON-ready dict; coefficients sorted degree-then-lex."""
    return {
        "d": f.d,
        "rows": f.rows,
        "cols": f.cols,
        "max_degree": f.max_degree,
        "coeffs": [
            {"word": list(w), "matrix": _complex_to_json(f.coeffs[w])}
            for w in f.support()
        ],
    }
