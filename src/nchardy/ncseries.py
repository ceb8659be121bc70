"""Words in a free monoid and truncated NC power series.

A word is a finite tuple of letters from {1..d}; the empty tuple is the
monoid unit.  An :class:`NcSeries` stores complex p x q matrix coefficients
indexed by words of length <= max_degree in a sparse map.  Words are ordered
degree-then-lexicographically everywhere (storage, JSON output, phase
conventions), so results are reproducible.

Internally coefficients are keyed by plain tuples of ints for speed; the
:class:`Word` wrapper carries the alphabet size and is the public face of the
monoid operations.

A series is checked once, where it enters (``NcSeries(...)`` and
``from_json_dict``); the series the library derives from it are adopted
as built, under the ownership rule stated on :class:`NcSeries`.
"""

import json
import math

import numpy as np

from .errors import (
    AlphabetMismatchError,
    NotInvertibleError,
    SchemaError,
    ShapeMismatchError,
)

# Relative Frobenius-norm threshold below which a coefficient is dropped by
# prune().  Keeps round-off from inflating sparse storage.
PRUNE_REL = 1e-15

# Singular-value floor, relative to the largest singular value, for
# inverting a constant term.
INVERT_REL = 1e-12


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


def _check_letters(letters, d=None):
    """The letters as ints, checked raw: 1.7 or '1' raises, not truncates.
    Given d, each letter must lie in 1..d; a lookup word (no d) may hold
    any integers, and one outside the alphabet just finds nothing."""
    for a in letters:
        if d is None:
            if not isinstance(a, (int, np.integer)):
                raise ValueError(f"letter {a!r} is not an integer")
        elif not isinstance(a, (int, np.integer)) or not 1 <= a <= d:
            raise ValueError(f"letter {a!r} outside alphabet 1..{d}")
    return tuple(map(int, letters))


def _int_size(name, value):
    """A size as an int, checked raw as letters are: 2.5, '2' or True
    raises instead of truncating."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


class Word:
    """A word in the letters {1..d}.  Immutable; the unit is Word((), d)."""

    __slots__ = ("letters", "d")

    def __init__(self, letters, d):
        d = _int_size("alphabet size", d)
        if d < 1:
            raise ValueError("alphabet size must be >= 1")
        object.__setattr__(self, "letters", _check_letters(tuple(letters), d))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.d == other.d
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.d, self.letters))

    def __repr__(self):
        return f"Word({self.letters}, d={self.d})"

    def __mul__(self, other):
        return word_concat(self, other)


def word_concat(a, b):
    """Concatenation a.b; unit law holds with the empty word."""
    if a.d != b.d:
        raise AlphabetMismatchError(
            f"cannot concatenate words over alphabets d={a.d} and d={b.d}"
        )
    return Word(a.letters + b.letters, a.d)


def word_reverse(a):
    """The transpose involution: reverse the letters."""
    return Word(a.letters[::-1], a.d)


def _as_matrix(value, rows, cols):
    m = np.array(value, dtype=complex)
    if m.shape == () and rows == 1 and cols == 1:
        m = m.reshape(1, 1)
    if m.shape != (rows, cols):
        raise ShapeMismatchError(
            f"coefficient shape {m.shape} != ({rows}, {cols})"
        )
    if not np.isfinite(m).all():
        raise ValueError("coefficient has non-finite entries")
    return m


class NcSeries:
    """Degree-truncated formal power series with matrix coefficients.

    Parameters
    ----------
    d : alphabet size.
    rows, cols : coefficient shape p x q.
    max_degree : truncation order N; stored words have length <= N.
    coeffs : optional map {letter-tuple: array-like (p, q)}.  Missing words
        are zero.  Scalars are accepted for 1x1 series.

    The constructor checks every size and letter (each an int or numpy
    integer) and copies every coefficient into a complex array, which must
    be finite.  Series
    built from checked ones go through ``_of``, which checks only the
    ranges of the four sizes and adopts its dict.  Both drop every
    all-zero block, so a series stores exactly its nonzero coefficients.
    A derived series owns its dict and may share coefficient arrays with
    its source; no library code writes into a stored array, and
    ``copy()`` is the one deep copy.
    """

    __slots__ = ("d", "rows", "cols", "max_degree", "coeffs")

    def __init__(self, d, rows, cols, max_degree, coeffs=None):
        for name, size in (("alphabet size", d), ("rows", rows),
                           ("cols", cols), ("max_degree", max_degree)):
            _int_size(name, size)
        self._set_sizes(d, rows, cols, max_degree)
        store = {}
        for w, m in (coeffs or {}).items():
            w = _check_letters(w, self.d)
            if len(w) > self.max_degree:
                raise ValueError(
                    f"word {w} longer than max_degree {self.max_degree}")
            store[w] = _as_matrix(m, self.rows, self.cols)
        self.coeffs = _nonzero(store)

    @classmethod
    def _of(cls, d, rows, cols, max_degree, coeffs):
        """Adopt coeffs, a fresh dict of complex (rows, cols) arrays on
        words in 1..d of length <= max_degree, without checking or copying
        them; all-zero blocks are dropped."""
        f = object.__new__(cls)
        f._set_sizes(d, rows, cols, max_degree)
        f.coeffs = _nonzero(coeffs)
        return f

    def _set_sizes(self, d, rows, cols, max_degree):
        if d < 1:
            raise ValueError("alphabet size must be >= 1")
        if rows < 1 or cols < 1:
            raise ValueError(f"coefficient shape ({rows}, {cols}) must be "
                             "at least 1 x 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.d = int(d)
        self.rows = int(rows)
        self.cols = int(cols)
        self.max_degree = int(max_degree)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d, rows=1, cols=1, max_degree=0):
        return cls(d, rows, cols, max_degree)

    @classmethod
    def constant(cls, value, d, max_degree=0):
        """Constant series; value may be a scalar or a square/rect matrix."""
        m = np.atleast_2d(np.array(value, dtype=complex))
        return cls(d, m.shape[0], m.shape[1], max_degree, {(): m})

    @classmethod
    def monomial(cls, word, d, max_degree=None, value=1.0):
        """Scalar series value * z^word."""
        word = tuple(word)
        if max_degree is None:
            max_degree = len(word)
        return cls(d, 1, 1, max_degree, {word: value})

    @classmethod
    def identity(cls, n, d, max_degree=0):
        return cls.constant(np.eye(n), d, max_degree)

    # -- basic accessors ----------------------------------------------

    def coeff(self, word):
        """Coefficient matrix at word (zeros if absent).  Returns a copy."""
        m = self.coeffs.get(_check_letters(word))
        if m is None:
            return np.zeros((self.rows, self.cols), dtype=complex)
        return m.copy()

    def scalar_coeff(self, word):
        """Coefficient of a 1x1 series as a python complex."""
        if self.rows != 1 or self.cols != 1:
            raise ShapeMismatchError("scalar_coeff needs a 1x1 series")
        m = self.coeffs.get(_check_letters(word))
        return complex(0.0) if m is None else complex(m[0, 0])

    def support(self):
        """Stored words in degree-then-lex order."""
        return sorted(self.coeffs, key=word_key)

    def degree(self):
        """Largest word length carrying a stored coefficient (0 if none)."""
        return max((len(w) for w in self.coeffs), default=0)

    def is_scalar(self):
        return self.rows == 1 and self.cols == 1

    def copy(self):
        """Deep copy: no coefficient array is shared."""
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree,
                            {w: m.copy() for w, m in self.coeffs.items()})

    def truncate(self, n):
        """Drop words longer than n and clamp max_degree to n."""
        kept = {w: m for w, m in self.coeffs.items() if len(w) <= n}
        return NcSeries._of(self.d, self.rows, self.cols,
                            min(self.max_degree, n), kept)

    def with_max_degree(self, n):
        """Same coefficients, larger truncation bound."""
        if n < self.degree():
            raise ValueError("requested bound below the stored degree")
        return NcSeries._of(self.d, self.rows, self.cols, n,
                            dict(self.coeffs))

    def prune(self):
        """Drop coefficients with Frobenius norm <= PRUNE_REL * (largest
        norm)."""
        if not self.coeffs:
            return self.copy()
        norms = {w: np.linalg.norm(m) for w, m in self.coeffs.items()}
        top = max(norms.values())
        kept = {w: m for w, m in self.coeffs.items()
                if norms[w] > PRUNE_REL * top}
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree,
                            kept)

    def __repr__(self):
        return (f"NcSeries(d={self.d}, shape=({self.rows},{self.cols}), "
                f"N={self.max_degree}, terms={len(self.coeffs)})")

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.d != other.d:
            raise AlphabetMismatchError(
                f"series over d={self.d} combined with d={other.d}")

    def _promote(self, other):
        """Lift a scalar to a constant series at this truncation order."""
        value = other * np.eye(self.rows) if self.rows == self.cols \
            else other
        return NcSeries.constant(value, self.d, self.max_degree)

    def __add__(self, other):
        if np.isscalar(other):
            other = self._promote(other)
        return series_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, NcSeries):
            other = self._promote(other)
        return self + (-1.0) * other

    def __rsub__(self, other):
        return (-1.0) * self + other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, NcSeries):
            return series_mul(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        scalar = complex(scalar)
        out = {w: scalar * m for w, m in self.coeffs.items()}
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree,
                            out)

    def _ldexp(self, e):
        """2^e times this series, exact wherever the result is normal."""
        if not e:
            return self
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree, {
            w: np.ldexp(np.ascontiguousarray(m).view(float), e).view(complex)
            for w, m in self.coeffs.items()})


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
    return NcSeries._of(f.d, f.rows, f.cols, n, out)


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
    return NcSeries._of(f.d, f.rows, g.cols, max_degree, out)


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
    return NcSeries._of(H.d, H.rows, H.cols, out_degree, coeffs)


def rescale(f, r):
    """Argument rescaling: coefficient at w is multiplied by r^|w|.

    Only r in [0, 1] is meaningful here (the map is a complete contraction
    there), so anything else is rejected.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"rescale parameter {r} outside [0, 1]")
    out = {w: (r ** len(w)) * m for w, m in f.coeffs.items()}
    return NcSeries._of(f.d, f.rows, f.cols, f.max_degree, out)


def _pow2_normalized(f):
    """(g, e) with f = 2^e g exactly and g's largest entry modulus in
    [1/2, 1), so squares of g's entries stay in range; (f, 0) for f = 0."""
    top = max((np.abs(m).max() for m in f.coeffs.values()), default=0.0)
    e = int(np.frexp(top)[1])
    return f._ldexp(-e), e


def h2_norm(f):
    """Root sum of squared Frobenius norms of the coefficients, summed on
    f's power-of-two rescaling, so no square leaves the float range."""
    g, e = _pow2_normalized(f)
    return math.ldexp(math.sqrt(sum(float(np.sum(np.abs(m) ** 2))
                                    for m in g.coeffs.values())), e)


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
    return NcSeries._of(f.d, f.rows, f.cols, max_degree, g)


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


# -- JSON interchange -------------------------------------------------

def _complex_to_json(a):
    """The package's one JSON form of complex data: nested [re, im] lists
    for a complex scalar, vector, matrix or stack."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _floats_from_json(obj, path, what):
    """A nested list of JSON numbers as a finite float array.

    Each entry is checked once: it must be an int or a float, not a bool,
    so "1.5" and true are refused with the entry's own path instead of
    read as 1.5 and 1.0.  A ragged nesting or a non-finite entry is
    refused at path.
    """
    def walk(x, here):
        if isinstance(x, list):
            for i, y in enumerate(x):
                walk(y, f"{here}[{i}]")
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SchemaError(f"{what} entry {x!r} is not a number", here)

    walk(obj, path)
    try:
        arr = np.array(obj, dtype=float)
    except (ValueError, OverflowError):
        raise SchemaError(f"{what} must be a nested [re, im] array", path)
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what} entries must be finite", path)
    return arr


def _complex_from_json(obj, path, what, shape):
    """The complex array of the given shape that obj encodes as nested
    [re, im] pairs; every entry, and then the shape, is checked."""
    arr = _floats_from_json(obj, path, what)
    if arr.shape != (*shape, 2):
        raise SchemaError(f"{what} must have shape {(*shape, 2)} ([re, im] "
                          f"pairs), got {arr.shape}", path)
    # a view, not re + 1j * im, so each part keeps its bits (-0.0 too)
    return arr.view(complex)[..., 0]


def _object_with_keys(obj, keys, path, what):
    """obj, checked to be a JSON object with exactly the given keys."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object", path)
    if set(obj) != set(keys):
        raise SchemaError(f"{what} must have exactly the keys "
                          f"{', '.join(keys)}, not {sorted(obj)}", path)
    return obj


def _int_field(obj, name, low, path):
    """obj[name], checked to be an integer (not a bool) >= low."""
    val = obj[name]
    if isinstance(val, bool) or not isinstance(val, int) or val < low:
        raise SchemaError(f"{name} must be an integer >= {low}",
                          f"{path}.{name}")
    return val


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


def from_json_dict(obj, path="series"):
    _object_with_keys(obj, ("d", "rows", "cols", "max_degree", "coeffs"),
                      path, "series document")
    d, rows, cols, n = (_int_field(obj, name, low, path) for name, low in
                        (("d", 1), ("rows", 1), ("cols", 1),
                         ("max_degree", 0)))
    if not isinstance(obj["coeffs"], list):
        raise SchemaError("coeffs must be a list", f"{path}.coeffs")
    coeffs = {}
    for i, item in enumerate(obj["coeffs"]):
        here = f"{path}.coeffs[{i}]"
        _object_with_keys(item, ("word", "matrix"), here, "entry")
        word = item["word"]
        if not isinstance(word, list) or any(
                isinstance(a, bool) or not isinstance(a, int)
                or not 1 <= a <= d for a in word):
            raise SchemaError(f"word must be a list of letters in 1..{d}",
                              f"{here}.word")
        w = tuple(word)
        if len(w) > n:
            raise SchemaError("word longer than max_degree", f"{here}.word")
        if w in coeffs:
            raise SchemaError(f"duplicate word {list(w)}", f"{here}.word")
        coeffs[w] = _complex_from_json(item["matrix"], f"{here}.matrix",
                                       "matrix", (rows, cols))
    # every letter, length and shape is checked above
    return NcSeries._of(d, rows, cols, n, coeffs)


def save_series(f, fileobj_or_path):
    obj = to_json_dict(f)
    if hasattr(fileobj_or_path, "write"):
        json.dump(obj, fileobj_or_path, sort_keys=True, indent=2)
    else:
        with open(fileobj_or_path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)


def load_series(fileobj_or_path):
    if hasattr(fileobj_or_path, "read"):
        obj = json.load(fileobj_or_path)
    else:
        with open(fileobj_or_path) as fh:
            obj = json.load(fh)
    return from_json_dict(obj)


# -- small constructors used throughout the test corpus ----------------

def commutator_inner(max_degree=2):
    """(z1 z2 - z2 z1)/sqrt(2) over two letters: the degree-2 homogeneous
    inner workhorse."""
    s = 1.0 / math.sqrt(2.0)
    return NcSeries(2, 1, 1, max_degree, {(1, 2): s, (2, 1): -s})
