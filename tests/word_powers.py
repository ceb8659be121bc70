"""The word-product evaluator that NC Horner replaced, kept as the
reference for tests/test_horner_evaluate.py.

It is nchardy.evaluate's earlier evaluate_batch without its shape and
admissibility checks: each chunk of points builds Z^w for every stored
word through a cache keyed by letter-tuple suffixes, and one einsum
contracts those products with the coefficient stack.
"""

import numpy as np

EVAL_CHUNK = 256


def word_powers(Zs, words):
    """Stacked products Z^w over a batch Zs of shape (B, d, n, n), one
    (B, n, n) array per word, sharing suffix work across words."""
    B, _, n, _ = Zs.shape
    cache = {(): np.broadcast_to(np.eye(n, dtype=complex), (B, n, n))}
    for w in words:
        # shortest suffix first, so each product finds its tail cached
        for k in range(len(w) - 1, -1, -1):
            if w[k:] not in cache:
                cache[w[k:]] = Zs[:, w[k] - 1] @ cache[w[k + 1:]]
    return [cache[w] for w in words]


def evaluate_batch(f, Zs):
    """sum_w fhat_w (x) Z^w at every point of a (B, d, n, n) stack, as
    one (B, rows*n, cols*n) array."""
    Zs = np.asarray(Zs, dtype=complex)
    B, _, n, _ = Zs.shape
    words, C = f.support(), f.C
    vals = np.zeros((B, f.rows, n, f.cols, n), dtype=complex)
    for lo in range(0, B if words else 0, EVAL_CHUNK):
        powers = word_powers(Zs[lo:lo + EVAL_CHUNK], words)
        vals[lo:lo + EVAL_CHUNK] = np.einsum("wij,wbkl->bikjl", C,
                                             np.array(powers))
    return vals.reshape(B, f.rows * n, f.cols * n)
