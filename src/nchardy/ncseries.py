"""Words in a free monoid and truncated NC power series.

A word is a finite tuple of letters from {1..d}; the empty tuple is the
monoid unit.  The word a_1 ... a_l has the integer code a_1 d^(l-1) + ...
+ a_l, its value as a base-d numeral with the digits 1..d.  The words of
length l fill the codes from start_l = 1 + d + ... + d^(l-1) on in lex
order, so a code is the word's Fock-basis index (fockspace.FockBasis),
code order is the degree-then-lex order used everywhere (storage, JSON,
phase conventions), and the code of uv is code(u) d^|v| + code(v).  Codes
are int64, so a truncation order N needs d^(N+1) < 2^63: d = 2 reaches
N = 61, and d = 1 codes are lengths.  This module is the one home of the
code arithmetic.  An :class:`NcSeries` holds one sorted code array and one
coefficient stack, so every operation is array work; letter tuples appear
only at the boundary (``NcSeries(...)``, ``coeff``, ``support``, the
``coeffs`` view, JSON).

A series is checked once, where it enters (``NcSeries(...)`` and
``from_json_dict``); the series the library derives from it are adopted
as built, under the read-only rule stated on :class:`NcSeries`.
"""

import cmath
import functools
import json
import math
import types

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


def _check_code_range(d, n):
    if d > 1 and (n >= 62 or d ** (n + 1) >= 2 ** 63):
        raise ValueError(f"max_degree {n} over d={d} letters needs "
                         f"d^(N+1) < 2^63 for int64 word codes")


@functools.lru_cache(maxsize=None)
def _code_table(d, n):
    """(starts, pows), read-only int64: starts[l] = start_l for l <= n + 1
    and pows[l] = d^l for l <= n."""
    _check_code_range(d, n)
    pows = d ** np.arange(n + 1, dtype=np.int64)
    starts = np.concatenate(([0], pows.cumsum()))
    starts.flags.writeable = pows.flags.writeable = False
    return starts, pows


def _bound(f):
    """A bound on deg f (a code is at least its word's length), which
    keeps d = 1 tables as long as the degree, not as N."""
    return min(f.max_degree, int(f.codes[-1])) if f.codes.size else 0


def _lengths(codes, starts):
    return starts.searchsorted(codes, side="right") - 1


def _cat_codes(pows, lv, cu, cv):
    """Codes of the words uv, from the codes of u and v and |v|."""
    return cu * pows[lv] + cv


def _horner_plan(f):
    """_prefix_levels of f's stored words.  The tree depends only on the
    support, so every series with f's codes shares one plan (a series
    and its Cayley transform, say, or each draw of a semigroup)."""
    return _prefix_levels(f.codes.tobytes(), f.d, _bound(f))


@functools.lru_cache(maxsize=32)
def _prefix_levels(key, d, bound):
    """The prefix tree of the words whose int64 codes fill the bytes key,
    for evaluation by levels (NC Horner): (count, at, top, levels), with
    read-only arrays and tuples, as every caller shares it.

    The count nodes are the sorted codes of every prefix of a word (w
    less its last k letters has the code (code(w) - start_k) // d^k).
    at places each word among them, and the longest words fill the nodes
    top = (first, node count).  levels lists every shorter length from
    the longest down as (first, node count, blocks, slots).  Each node of
    the level owns len(blocks) column blocks, in the order of the tuple
    blocks: a - 1 for each letter a that ends a node of the level above,
    and d, last, for the node's own coefficient when the level stores a
    word.  Node ua of the level above, with u the i-th node of this
    level, fills block i len(blocks) + (place of a - 1 in blocks) of this
    level; slots holds those blocks, as a slice when the i-th node of the
    level above fills block i len(blocks) + j for one j.  No codes give
    no nodes and top None."""
    codes = np.frombuffer(key, dtype=np.int64)
    if not codes.size:
        return 0, codes, None, ()
    starts, pows = _code_table(d, bound)
    lens = _lengths(codes, starts)
    k = np.arange(1, int(lens[-1]) + 1)
    drop = (codes[:, None] - starts[k]) // pows[k]
    nodes = _union(codes, drop[k <= lens[:, None]])
    lev = _lengths(nodes, starts)
    top = int(lev[-1])
    first = nodes.searchsorted(starts[:top + 2])
    # every node but the root, with its parent's level and its letter
    up = nodes[1:] - 1
    pl, letter = lev[1:] - 1, up % d
    used = np.zeros((top + 1, d + 1), dtype=bool)
    used[pl, letter] = True
    used[lens, d] = True
    place = used.cumsum(axis=1) - 1
    width = place[:, d] + 1
    slots = (nodes.searchsorted(up // d) - first[pl]) * width[pl] \
        + place[pl, letter]
    slots.flags.writeable = False
    # a level's slots are a slice when they step by its width throughout
    # and it has one node per node of the level above
    jump = (slots[1:] - slots[:-1] != width[pl[1:]]) & (pl[1:] == pl[:-1])
    irregular = np.bincount(pl[1:][jump], minlength=top + 1).tolist()
    first, width, used = first.tolist(), width.tolist(), used.tolist()
    levels = []
    for l in range(top - 1, -1, -1):
        m, k = first[l + 1] - first[l], width[l]
        below = slots[first[l + 1] - 1:first[l + 2] - 1]
        if not irregular[l] and below.size == m:
            below = slice(int(below[0]), m * k, k)
        levels.append((first[l], m, tuple(a for a, u in enumerate(used[l])
                                          if u), below))
    at = nodes.searchsorted(codes)
    at.flags.writeable = False
    return (nodes.size, at, (first[top], first[top + 1] - first[top]),
            tuple(levels))


def _encode(words, d):
    codes = []
    for w in words:
        code = 0
        for a in w:
            code = code * d + a
        codes.append(code)
    return np.array(codes, dtype=np.int64)


def _code_of(word, d, n):
    """The code of a lookup word, or None when it is longer than n or has a
    letter outside 1..d; a letter that is not an integer raises."""
    if not all(isinstance(a, (int, np.integer)) for a in word):
        raise ValueError(f"a letter of {word!r} is not an integer")
    w = tuple(map(int, word))
    if len(w) > n or not all(1 <= a <= d for a in w):
        return None
    return int(_encode([w], d)[0])


def _decode(codes, d, starts, pows):
    """Letter j of the word of length l and lex rank o = code - start_l is
    o // d^(l-1-j) mod d, plus 1."""
    lens = _lengths(codes, starts)
    expo = np.maximum(lens[:, None] - 1 - np.arange(lens.max(initial=0)), 0)
    digits = ((codes - starts[lens])[:, None] // pows[expo]) % d + 1
    return [tuple(row[:k]) for row, k in zip(digits.tolist(), lens.tolist())]


def _sorted_terms(d, rows, cols, words, blocks):
    """(codes, C) of checked words and blocks, in code order."""
    codes = _encode(words, d)
    order = codes.argsort()
    C = np.array(blocks, dtype=complex).reshape(len(blocks), rows, cols)
    return codes[order], C[order]


def _through(f, n):
    """f's codes and blocks of the words of length <= n."""
    if n >= f.max_degree:
        return f.codes, f.C
    k = f.codes.searchsorted(_code_table(f.d, min(n, _bound(f)))[0][-1])
    return f.codes[:k], f.C[:k]


def _union(a, b):
    """The sorted union of two sorted unique code arrays (by sorting:
    np.union1d's hash-based unique costs about 1.5 MB of RSS on first
    use in a process)."""
    c = np.concatenate((a, b))
    c.sort()
    keep = np.ones(c.size, dtype=bool)
    np.not_equal(c[1:], c[:-1], out=keep[1:])
    return c[keep]


def _nonzero(codes, C):
    """codes and C without the all-zero blocks, found by one mask."""
    keep = C.any(axis=(1, 2))
    return (codes, C) if keep.all() else (codes[keep], C[keep])


def _sum_by_code(codes, terms):
    """(sorted unique codes, sums) of the terms of each code, each summed
    in the order given from its first term, as out[w] = out[w] + term
    would, -0.0 included (np.add.at into zeros and np.add.reduceat are
    not).  Every sum starts from -0.0, the identity of +, and np.add.at
    applies the terms in index order, so one stable sort and one add give
    every sum in memory linear in the terms.  Only a NaN that two NaNs
    make takes its bits from the operand order of numpy's add loop.
    Codes that already increase come back as they are."""
    if (codes[1:] > codes[:-1]).all():
        return codes, terms
    order = codes.argsort(kind="stable")
    codes = codes[order]
    new = np.empty(codes.size, dtype=bool)
    new[0] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    column = new.cumsum() - 1
    out = np.full((int(column[-1]) + 1,) + terms.shape[1:],
                  complex(-0.0, -0.0))
    np.add.at(out, column, terms[order])
    return codes[new], out


def _check_letters(letters, d):
    """The letters as ints, each an int or numpy integer in 1..d, checked
    raw: 1.7 or '1' raises, not truncates."""
    for a in letters:
        if not isinstance(a, (int, np.integer)) or not 1 <= a <= d:
            raise ValueError(f"letter {a!r} outside alphabet 1..{d}")
    return tuple(map(int, letters))


def _int_size(name, value):
    """A size as an int, checked raw as letters are: 2.5, '2' or True
    raises instead of truncating."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def _degree_arg(name, value, d, default=None):
    """default for None, else value as a truncation order: an int >= 0
    whose codes over d letters fit in int64."""
    if value is None:
        return default
    n = _int_size(name, value)
    if n < 0:
        raise ValueError(f"{name} must be >= 0")
    _check_code_range(d, n)
    return n


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
    max_degree : truncation order N; stored words have length <= N, and
        d^(N+1) < 2^63.
    coeffs : optional map {letter-tuple: array-like (p, q)}.  Missing words
        are zero.  Scalars are accepted for 1x1 series.

    A series holds ``codes``, the sorted int64 codes of its stored words,
    and ``C``, their complex (nnz, p, q) stack.  The constructor checks
    every size and letter (each an int or numpy integer), encodes each
    word once and copies every coefficient, which must be finite.  Series
    built from checked ones go through ``_of``, which checks only the four
    sizes and adopts its two arrays.  Both drop every all-zero block, so a
    series stores exactly its nonzero coefficients, and both make the two
    arrays read-only: derived series share them, nothing writes into them,
    and ``copy()`` is the one deep copy.  ``coeffs`` is a read-only
    {word: block} view in code order for the JSON boundary and tests.
    """

    __slots__ = ("d", "rows", "cols", "max_degree", "codes", "C")

    def __init__(self, d, rows, cols, max_degree, coeffs=None):
        for name, size in (("alphabet size", d), ("rows", rows),
                           ("cols", cols), ("max_degree", max_degree)):
            _int_size(name, size)
        self._set_sizes(d, rows, cols, max_degree)
        words, blocks = [], []
        for w, m in (coeffs or {}).items():
            w = _check_letters(w, self.d)
            if len(w) > self.max_degree:
                raise ValueError(
                    f"word {w} longer than max_degree {self.max_degree}")
            words.append(w)
            blocks.append(_as_matrix(m, self.rows, self.cols))
        self._set_terms(*_sorted_terms(self.d, self.rows, self.cols, words,
                                       blocks))

    @classmethod
    def _of(cls, d, rows, cols, max_degree, codes, C):
        """Adopt codes, sorted unique int64 codes of words of length <=
        max_degree, and C, their complex (nnz, rows, cols) stack, without
        checking or copying them; all-zero blocks are dropped."""
        f = object.__new__(cls)
        f._set_sizes(d, rows, cols, max_degree)
        f._set_terms(codes, C)
        return f

    def _set_sizes(self, d, rows, cols, max_degree):
        if d < 1:
            raise ValueError("alphabet size must be >= 1")
        if rows < 1 or cols < 1:
            raise ValueError(f"coefficient shape ({rows}, {cols}) must be "
                             "at least 1 x 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        _check_code_range(d, max_degree)
        self.d = int(d)
        self.rows = int(rows)
        self.cols = int(cols)
        self.max_degree = int(max_degree)

    def _set_terms(self, codes, C):
        self.codes, self.C = _nonzero(codes, C)
        self.codes.flags.writeable = self.C.flags.writeable = False

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

    @property
    def coeffs(self):
        """Read-only {word: block} view in code order."""
        return types.MappingProxyType(dict(zip(self.support(), self.C)))

    def _block(self, word):
        """The stored block at a lookup word, or None."""
        code = _code_of(word, self.d, self.max_degree)
        if code is None:
            return None
        i = self.codes.searchsorted(code)
        found = i < self.codes.size and self.codes[i] == code
        return self.C[i] if found else None

    def coeff(self, word):
        """Coefficient matrix at word (zeros if absent).  Returns a copy."""
        m = self._block(word)
        if m is None:
            return np.zeros((self.rows, self.cols), dtype=complex)
        return m.copy()

    def scalar_coeff(self, word):
        """Coefficient of a 1x1 series as a python complex."""
        if self.rows != 1 or self.cols != 1:
            raise ShapeMismatchError("scalar_coeff needs a 1x1 series")
        m = self._block(word)
        return complex(0.0) if m is None else complex(m[0, 0])

    def support(self):
        """Stored words in degree-then-lex order."""
        return _decode(self.codes, self.d, *_code_table(self.d, _bound(self)))

    def degree(self):
        """Largest word length carrying a stored coefficient (0 if none)."""
        if not self.codes.size:
            return 0
        starts = _code_table(self.d, _bound(self))[0]
        return int(_lengths(self.codes[-1], starts))

    def is_scalar(self):
        return self.rows == 1 and self.cols == 1

    def copy(self):
        """Deep copy: no coefficient array is shared."""
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree,
                            self.codes, self.C.copy())

    def truncate(self, n):
        """Drop words longer than n and clamp max_degree to n."""
        n = _int_size("degree", n)
        if n < 0:
            raise ValueError("degree must be >= 0")
        n = min(self.max_degree, n)
        return NcSeries._of(self.d, self.rows, self.cols, n,
                            *_through(self, n))

    def with_max_degree(self, n):
        """Same coefficients, larger truncation bound."""
        n = _int_size("max_degree", n)
        if n < self.degree():
            raise ValueError("requested bound below the stored degree")
        return NcSeries._of(self.d, self.rows, self.cols, n, self.codes,
                            self.C)

    def prune(self):
        """Drop coefficients with Frobenius norm <= PRUNE_REL * (largest
        norm), compared on _pow2_normalized's exact rescaling, so that no
        square leaves the float range at any scale."""
        g, _ = _pow2_normalized(self)
        norms = np.sqrt((np.abs(g.C) ** 2).sum(axis=(1, 2)))
        # g lacks the blocks that the rescaling underflows to zero, which
        # lie far below the cut: keep g's words above it
        keep = self.codes.searchsorted(
            g.codes[norms > PRUNE_REL * norms.max(initial=0.0)])
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree,
                            self.codes[keep], self.C[keep])

    def __repr__(self):
        return (f"NcSeries(d={self.d}, shape=({self.rows},{self.cols}), "
                f"N={self.max_degree}, terms={self.codes.size})")

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.d != other.d:
            raise AlphabetMismatchError(
                f"series over d={self.d} combined with d={other.d}")

    def _promote(self, other):
        """Lift a finite scalar to a constant series at this truncation
        order: other times the identity, or 1 x 1 when this series is not
        square (series_add then refuses it)."""
        value = complex(other)
        if not cmath.isfinite(value):
            raise ValueError(f"scalar {other!r} is not finite")
        n = self.rows if self.rows == self.cols else 1
        return NcSeries._of(self.d, n, n, self.max_degree,
                            np.zeros(1, dtype=np.int64),
                            (value * np.eye(n))[None])

    def __add__(self, other):
        if np.isscalar(other):
            other = self._promote(other)
        return series_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, NcSeries):
            return self + (-1.0) * other
        return series_add(self, self._promote(-other))

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
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree,
                            self.codes, complex(scalar) * self.C)

    def _ldexp(self, e):
        """2^e times this series, exact wherever the result is normal."""
        if not e:
            return self
        C = np.ldexp(np.ascontiguousarray(self.C).view(float), e)
        return NcSeries._of(self.d, self.rows, self.cols, self.max_degree,
                            self.codes, C.view(complex))


def _check_shapes(f, g):
    f._check_compatible(g)
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatchError(
            f"shapes ({f.rows},{f.cols}) and ({g.rows},{g.cols}) differ")


def series_add(f, g):
    """Coefficientwise sum; result truncated at min(N_f, N_g).  f and g
    fill two rows over the union of their codes, padded with -0.0, the
    identity of +, so one addition gives every f_w + g_w."""
    _check_shapes(f, g)
    n = min(f.max_degree, g.max_degree)
    (cf, Cf), (cg, Cg) = _through(f, n), _through(g, n)
    codes = _union(cf, cg)
    T = np.full((2, codes.size, f.rows, f.cols), complex(-0.0, -0.0))
    T[0, codes.searchsorted(cf)] = Cf
    T[1, codes.searchsorted(cg)] = Cg
    return NcSeries._of(f.d, f.rows, f.cols, n, codes, T[0] + T[1])


def series_mul(f, g, max_degree=None):
    """Cauchy-concatenation product (fg)_w = sum_{uv=w} f_u g_v.

    Matrix coefficients multiply; cols(f) must equal rows(g).  Words beyond
    the truncation bound (default min(N_f, N_g)) are silently dropped, which
    is exactly the information a validity window tracks downstream.  Only
    the pairs with |u| + |v| <= N are formed, g's first words for each u;
    one batched matmul gives them, and each word sums in f's word order.
    """
    f._check_compatible(g)
    if f.cols != g.rows:
        raise ShapeMismatchError(
            f"inner dims differ: cols(f)={f.cols}, rows(g)={g.rows}")
    n = _degree_arg("max_degree", max_degree, f.d,
                    min(f.max_degree, g.max_degree))
    starts, pows = _code_table(f.d, max(_bound(f), _bound(g)))
    lf, lg = _lengths(f.codes, starts), _lengths(g.codes, starts)
    cnt = lg.searchsorted(n - lf, side="right")
    iu = np.repeat(np.arange(f.codes.size), cnt)
    jv = np.arange(iu.size) - (cnt.cumsum() - cnt)[iu]
    codes = _cat_codes(pows, lg[jv], f.codes[iu], g.codes[jv])
    return NcSeries._of(f.d, f.rows, g.cols, n,
                        *_sum_by_code(codes, f.C[iu] @ g.C[jv]))


def _prefix_pairs(a, w, d, top, n):
    """The splits ub of the words with sorted codes w (lengths <= top),
    with |b| <= n and u among the sorted codes a: (ja, iw, cb), the
    indices of u in a and of ub in w and the code of b, by |b| from 0 up
    and in w's order within a length.  One searchsorted over the
    candidates finds u's code (code(w) - start_|b|) // d^|b|, and code(b)
    = code(w) - code(u) d^|b|."""
    starts, pows = _code_table(d, top)
    # codes rise with length, so the words of length >= l are a tail
    first = w.searchsorted(starts[:min(n, top) + 1])
    cnt = w.size - first
    lb = np.repeat(np.arange(first.size), cnt)
    iw = np.arange(lb.size) + (first - (cnt.cumsum() - cnt))[lb]
    cand = (w[iw] - starts[lb]) // pows[lb]
    ja = a.searchsorted(cand)
    # a code past a's last meets the sentinel -1, which no code equals
    hit = np.append(a, -1)[ja] == cand
    iw, lb = iw[hit], lb[hit]
    return ja[hit], iw, w[iw] - cand[hit] * pows[lb]


def shift_adjoint_apply(omega, H, out_degree=None):
    """Coefficients of omega(L)* applied to H: F_b = sum_a conj(om_a) H_{ab}.

    omega scalar, H scalar or matrix-valued; the result keeps H's shape.
    The pairs (a, ab) with |b| <= out_degree come from _prefix_pairs, and
    one sum by code adds each b's terms in H's word order.
    """
    if not omega.is_scalar():
        raise ShapeMismatchError("adjoint application needs a scalar symbol")
    H._check_compatible(omega)
    n = _degree_arg("out_degree", out_degree, H.d, H.max_degree)
    ja, iw, cb = _prefix_pairs(omega.codes, H.codes, H.d, _bound(H), n)
    return NcSeries._of(H.d, H.rows, H.cols, n,
                        *_sum_by_code(cb, np.conj(omega.C[ja]) * H.C[iw]))


def rescale(f, r):
    """Argument rescaling: coefficient at w is multiplied by r^|w|.

    Only r in [0, 1] is meaningful here (the map is a complete contraction
    there), so anything else is rejected.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"rescale parameter {r} outside [0, 1]")
    starts = _code_table(f.d, _bound(f))[0]
    powers = np.array([r ** k for k in range(starts.size - 1)], dtype=complex)
    factors = powers[_lengths(f.codes, starts)]
    return NcSeries._of(f.d, f.rows, f.cols, f.max_degree, f.codes,
                        factors[:, None, None] * f.C)


def _pow2_normalized(f):
    """(g, e) with f = 2^e g exactly and g's largest entry modulus in
    [1/2, 1), so squares of g's entries stay in range; (f, 0) for f = 0."""
    e = int(np.frexp(np.abs(f.C).max(initial=0.0))[1])
    return f._ldexp(-e), e


def h2_norm(f):
    """Root sum of squared Frobenius norms of the coefficients, summed on
    f's power-of-two rescaling, so no square leaves the float range."""
    g, e = _pow2_normalized(f)
    squares = (np.abs(g.C) ** 2).sum(axis=(1, 2)).tolist()
    return math.ldexp(math.sqrt(sum(squares)), e)


def series_inner(f, g):
    """Coefficient pairing sum_w <f_w, g_w>_Frobenius, conjugate-linear in
    the first argument.  Words outside the common support contribute zero."""
    _check_shapes(f, g)
    _, i, j = np.intersect1d(f.codes, g.codes, assume_unique=True,
                             return_indices=True)
    pairs = (np.conj(f.C[i]) * g.C[j]).sum(axis=(1, 2)).tolist()
    return complex(sum(pairs, 0j))


def series_invert(f, max_degree=None):
    """Multiplicative inverse of f up to degree max_degree (default N_f).

    Requires a square constant term with sigma_min above INVERT_REL
    sigma_max, a floor that does not depend on f's scale.  The inverse g
    follows the degree recursion g_w = -f_0^{-1} sum_{uv=w, u != empty}
    f_u g_v.  Each level of g, once found, is paired in one batched
    product with every nonconstant word u of f that keeps |uv| within the
    bound; a degree gathers its pairs, sums the terms of each word w = uv
    in f's word order and applies -f_0^{-1} to the level at once.  Only
    stored (nonzero) words of g are paired, so sparse inputs stay sparse.
    """
    if f.rows != f.cols:
        raise ShapeMismatchError("only square series can be inverted")
    n = _degree_arg("max_degree", max_degree, f.d, f.max_degree)
    f0inv, p = _constant_inverse(f), f.rows
    starts, pows = _code_table(f.d, n)
    # f's words of each length lu in 1..n: rows a:b of cu and fu
    at = f.codes.searchsorted(starts).tolist()
    cu, fu = f.codes[at[1]:at[-1], None], f.C[at[1]:at[-1], None]
    rows = [(lu, at[lu] - at[1], at[lu + 1] - at[1])
            for lu in range(1, n + 1) if at[lu + 1] > at[lu]]
    codes, blocks, pairs = [np.zeros(1, dtype=np.int64)], [f0inv[None]], []
    for deg in range(1, n + 1):
        # the level just found, with the u of length <= n - (deg - 1)
        k = at[n - deg + 2] - at[1]
        pairs.append((_cat_codes(pows, deg - 1, cu[:k], codes[-1]),
                      fu[:k] @ blocks[-1]))
        cs, terms = [codes[0][:0]], [blocks[0][:0]]
        for lu, a, b in rows:
            if lu > deg:
                break
            c, t = pairs[deg - lu]
            if c.size:
                cs.append(c[a:b].reshape(-1))
                terms.append(t[a:b].reshape(-1, p, p))
        # no pairs leave the level empty, and pairs with one length of u
        # give distinct words w; only several lengths can meet
        level, acc = (cs[-1], terms[-1]) if len(cs) <= 2 else _sum_by_code(
            np.concatenate(cs), np.concatenate(terms))
        gw = -(f0inv @ acc)
        keep = gw.any(axis=(1, 2))
        codes.append(level[keep])
        blocks.append(gw[keep])
    return NcSeries._of(f.d, p, p, n, np.concatenate(codes),
                        np.concatenate(blocks))


def _constant_inverse(f):
    """f_0^{-1} for a square f whose constant term has sigma_min above
    INVERT_REL sigma_max; a zero or singular f_0 raises."""
    f0 = f._block(())
    if f0 is None:
        raise NotInvertibleError("constant term is zero", smallest_sigma=0.0)
    svals = np.linalg.svd(f0, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    if smin <= INVERT_REL * smax:
        raise NotInvertibleError(
            f"constant term numerically singular (sigma_min={smin:.3e})",
            smallest_sigma=smin)
    return np.linalg.inv(f0)


def _code_stack(f, n):
    """f's words of length <= n in one zero-filled (D_n, p, q) stack
    indexed by code, D_n the number of such words."""
    S = np.zeros((int(_code_table(f.d, n)[0][-1]), f.rows, f.cols),
                 dtype=complex)
    codes, C = _through(f, n)
    S[codes] = C
    return S


def _level_counts(f, n):
    """The number of f's stored words of each length 0..n."""
    starts = _code_table(f.d, n)[0]
    return np.diff(f.codes.searchsorted(starts)).tolist()


def _stored_levels(f, n):
    """(k, f_k) for each length k <= n at which f stores a word, f_k the
    dense (d^k, p, q) stack of that length by code."""
    n = min(n, _bound(f))
    starts, S = _code_table(f.d, n)[0].tolist(), _code_stack(f, n)
    return [(k, S[starts[k]:starts[k + 1]])
            for k, c in enumerate(_level_counts(f, n)) if c]


def _subtract_products(out, l, Q, levels, starts):
    """out -= Q_{l-k} F_k for each (k, F_k) of levels with k <= l, where
    Q is a dense stack by code and out is length l's rows.  The pair
    (u, v) with |u| = l - k and |v| = k lands at code(uv) - start_l =
    (code(u) - start_{l-k}) d^k + code(v) - start_k, so each k is one
    broadcast product reshaped onto the (d^{l-k}, d^k) grid of length l."""
    for k, Fk in levels:
        if k > l:
            break
        u = Q[starts[l - k]:starts[l - k + 1], None]
        out -= (u @ Fk[None]).reshape(out.shape)


def _quotient_fills(H, F, N):
    """Whether H F^{-1} through N is no larger on dense word-code levels
    than by sparse terms.  A forward substitution that pairs only stored
    words forms c_l = |H_l| + sum_{k >= 1} |F_k| c_{l-k} terms at length
    l, for |f_l| the number of f's stored words of length l (Python
    ints, so no count overflows); the dense levels hold D_N blocks.
    Dense is chosen when sum c_l >= D_N, a comparison of two sizes with
    no constant to tune."""
    nh, nf = _level_counts(H, N), _level_counts(F, N)
    ks = [k for k in range(1, N + 1) if nf[k]]
    c = []
    for l in range(N + 1):
        c.append(nh[l] + sum(nf[k] * c[l - k] for k in ks if k <= l))
    return sum(c) >= int(_code_table(H.d, N)[0][-1])


def _right_quotient(H, F, N):
    """H F^{-1} through degree N, the package's one right division (F_0
    must pass series_invert's check).  Where _quotient_fills finds fewer
    sparse terms than words, it is series_mul(H, series_invert(F, N), N),
    which fills no stack of D_N blocks.  Otherwise it is the quotient
    recursion Q_w = (H_w - sum_{uv=w, v != empty} Q_u F_v) F_0^{-1}
    (Knuth, TAOCP vol. 2, 4.7) on one zero-filled (D_N, p, q) stack of H
    by code: length l subtracts one broadcast product per stored length
    k >= 1 of F (_subtract_products) and is multiplied by F_0^{-1}."""
    if not _quotient_fills(H, F, N):
        return series_mul(H, series_invert(F, N), N)
    H._check_compatible(F)
    f0inv = _constant_inverse(F)
    starts = _code_table(H.d, N)[0].tolist()
    Q = _code_stack(H, N)
    # F_0 is stored, so it leads the levels
    levels = _stored_levels(F, N)[1:]
    for l in range(N + 1):
        out = Q[starts[l]:starts[l + 1]]
        _subtract_products(out, l, Q, levels, starts)
        out[...] = out @ f0inv
    return NcSeries._of(H.d, H.rows, F.cols, N, np.arange(Q.shape[0]), Q)


def phase_normalize(f):
    """Rotate f by a unimodular scalar so its leading coefficient entry
    (degree-then-lex first word, row-major first entry above 1e-13 times
    the largest entry) is real and positive.

    Returns (g, u) with f = u * g and |u| = 1.
    """
    mags = np.abs(f.C).reshape(-1)
    top = mags.max(initial=0.0)
    if top == 0.0:
        return f.copy(), complex(1.0)
    entry = complex(f.C.reshape(-1)[np.argmax(mags > 1e-13 * top)])
    u = entry / abs(entry)
    return f.scale(1.0 / u), u


def max_coeff_diff(f, g, through_degree=None):
    """Largest entrywise coefficient deviation |f_w - g_w| over words of
    length <= through_degree (default: the smaller truncation bound)."""
    _check_shapes(f, g)
    n = min(f.max_degree, g.max_degree) if through_degree is None else \
        _int_size("through_degree", through_degree)
    if n < 0:
        return 0.0
    (cf, Cf), (cg, Cg) = _through(f, n), _through(g, n)
    codes = _union(cf, cg)
    F = np.zeros((codes.size, f.rows, f.cols), dtype=complex)
    G = np.zeros((codes.size, g.rows, g.cols), dtype=complex)
    F[codes.searchsorted(cf)] = Cf
    G[codes.searchsorted(cg)] = Cg
    return float(np.abs(F - G).max(initial=0.0))


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
            {"word": list(w), "matrix": _complex_to_json(m)}
            for w, m in zip(f.support(), f.C)
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
    words, blocks, seen = [], [], set()
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
        if w in seen:
            raise SchemaError(f"duplicate word {list(w)}", f"{here}.word")
        seen.add(w)
        words.append(w)
        blocks.append(_complex_from_json(item["matrix"], f"{here}.matrix",
                                         "matrix", (rows, cols)))
    # every letter, length and shape is checked above
    return NcSeries._of(d, rows, cols, n,
                        *_sorted_terms(d, rows, cols, words, blocks))


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
