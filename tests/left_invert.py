"""The degree recursion that inverted a series before the right quotient
took over, kept as the reference for tests/test_right_quotient.py.

series_invert is nchardy.ncseries's earlier inverse, verbatim: the left
recursion g_w = -f_0^{-1} sum f_u g_v, one level of g at a time.  It
checks f_0 through the package's _constant_inverse.
"""

import numpy as np

from nchardy.errors import ShapeMismatchError
from nchardy.ncseries import (
    NcSeries,
    _cat_codes,
    _code_table,
    _constant_inverse,
    _degree_arg,
    _sum_by_code,
)


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
