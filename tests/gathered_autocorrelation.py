"""The autocorrelations t_s as one gather over the index triples, kept as
a reference.

These are nchardy.fockspace's autocorrelation_stack and toeplitz_data from
when the data of a symbol were gathered over fockspace.word_triples: the
symbol was scattered into a dense (dim, p, q) stack over every word of
length <= deg f, and every triple (s, mu, mu s) added A_mu^H A_{mu s} to
t_s in one np.add.at.  They are copied unchanged, except for the import
lines and toeplitz_data's docstring, which is cut.  The differential test
(test_autocorrelation.py) requires toeplitz_data's prefix pairing to
agree with them bitwise, and test_jacobian_plan.py reads the outer
system's residual from autocorrelation_stack.  Do not edit the copied
code: it is the reference.
"""

import numpy as np

from nchardy.fockspace import FockBasis, coeff_stack, word_triples
from nchardy.ncseries import _code_table, _int_size


def autocorrelation_stack(A, d, m, k=None):
    """t_s = sum_mu A_mu^H A_{mu s} for every word s of length <= min(m, k)
    (k defaults to m).

    A is a (dim, p, q) stack of coefficients over FockBasis(d, m) words;
    the result is the stack of the t_s in the same order, (dim, q, q) at
    k >= m.  word_triples lists s by length, so the triples with |s| <= k
    are a prefix of its arrays, and a smaller k gives the first rows of
    the full stack bit for bit.
    """
    s, mu, cat = word_triples(d, m)
    n = A.shape[0]
    k = m if k is None else _int_size("k", k)
    if k < 0:
        raise ValueError(f"autocorrelation length k = {k} is negative")
    if k < m:
        starts, pows = _code_table(d, m)
        n = int(starts[k + 1])
        # the triples with |s| = l number d^l times the words of length
        # <= m - l
        end = sum(int(pows[l] * starts[m + 1 - l]) for l in range(k + 1))
        s, mu, cat = s[:end], mu[:end], cat[:end]
    t = np.zeros((n, A.shape[2], A.shape[2]), dtype=complex)
    np.add.at(t, s, A[mu].conj().transpose(0, 2, 1) @ A[cat])
    return t


def toeplitz_data(f, k=None):
    m = f.degree()
    t = autocorrelation_stack(coeff_stack(f, FockBasis(f.d, m)), f.d, m, k)
    t[0] = 0.5 * (t[0] + t[0].conj().T)
    return t
