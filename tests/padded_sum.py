"""The sum by word code and the word-split enumerator that the ordered
np.add.at sum replaced, kept as the reference for
tests/test_ordered_sum.py.

They are nchardy.ncseries's earlier _sum_by_code and _prefix_pairs: the
sum pads every code's terms to the largest multiplicity with -0.0 and
sums each column by np.add.accumulate, and the enumerator returns one
(ja, iw, cb) triple per length of b.
"""

import numpy as np

from nchardy.ncseries import _code_table


def sum_by_code(codes, terms):
    """(sorted unique codes, sums) of the terms of each code, each summed
    in the order given from its first term.  Each code's terms run down
    one column padded with -0.0, and np.add.accumulate sums every column
    in order."""
    if (codes[1:] > codes[:-1]).all():
        return codes, terms
    order = codes.argsort(kind="stable")
    codes = codes[order]
    new = np.empty(codes.size, dtype=bool)
    new[0] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    first = new.nonzero()[0]
    column = new.cumsum() - 1
    rank = np.arange(codes.size) - first[column]
    T = np.full((rank.max() + 1, first.size) + terms.shape[1:],
                complex(-0.0, -0.0))
    T[rank, column] = terms[order]
    return codes[first], np.add.accumulate(T)[-1]


def prefix_pairs(a, w, d, top, n):
    """The splits ub of the words with sorted codes w, with |b| <= n and u
    among the sorted codes a: a list of one (ja, iw, cb) per |b| from 0
    up, in w's order."""
    starts, pows = _code_table(d, top)
    first = w.searchsorted(starts[:min(n, top) + 1]).tolist()
    pre = [(w[f:] - starts[l]) // pows[l] for l, f in enumerate(first)]
    cand = np.concatenate(pre)
    ja = a.searchsorted(cand)
    hit = np.append(a, -1)[ja] == cand
    out, i = [], 0
    for l, (f, p) in enumerate(zip(first, pre)):
        h = hit[i:i + p.size]
        iw = f + h.nonzero()[0]
        out.append((ja[i:i + p.size][h], iw, w[iw] - p[h] * pows[l]))
        i += p.size
    return out
