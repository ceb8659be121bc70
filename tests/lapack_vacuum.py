"""The tree Cholesky that handed its vacuum to LAPACK, kept as the
reference for tests/test_vacuum_pivot.py.

These are nchardy.fockspace's earlier _vacuum_cholesky and
_tree_elimination: the level loop stopped at length 1, and the vacuum's
Schur complement was factored by LAPACK's batched Cholesky, retried on
the blocks left after setting aside those whose first pivot is <= 0, or
on halves.  They are copied unchanged.  Do not edit the copied code: it
is the reference.
"""

import numpy as np

from nchardy.fockspace import _elimination_plan, _stack_degree


def _vacuum_cholesky(S0):
    """(C, refused): LAPACK's Cholesky factor of each block of the stack
    S0, NaN where LAPACK refuses the block, and the refused positions.
    After a refusal, the blocks whose first pivot is <= 0, which LAPACK
    refuses whatever the rest, are set aside, or else the stack is
    halved, and each part is tried again: a one-block stack costs one
    call, and so does each scalar stack after the first."""
    try:
        return np.linalg.cholesky(S0), []
    except np.linalg.LinAlgError:
        pass
    C = np.full_like(S0, np.nan)
    if len(S0) == 1:
        return C, [0]
    first = S0[:, 0, 0].real <= 0
    refused, keep = np.flatnonzero(first).tolist(), np.flatnonzero(~first)
    for part in ([keep] if refused else np.array_split(keep, 2)):
        if len(part):
            C[part], rest = _vacuum_cholesky(S0[part])
            refused += part[rest].tolist()
    return C, refused


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
    for lev in range(k, 0, -1):
        # X = C^-1 S[lev] row by row, for the pivot S[lev, 0] = C C^H
        X = S[lev * width:(lev + 1) * width]
        for r in range(q):
            piv = X[0, :, r, r, None].real
            ok = [p > 0 for p in piv[:, 0].tolist()]
            if not all(ok):
                for j, good in zip(live, ok):
                    if not good:
                        fail[j] = lev
                live = [j for j, good in zip(live, ok) if good]
                if not live:
                    return fail, np.full((len(shifts), q, q), np.nan,
                                         dtype=complex)
                S, piv = S[:, ok], piv[ok]
                X = S[lev * width:(lev + 1) * width]
            row = X[:, :, r]
            np.divide(row, np.sqrt(piv), out=row)
            for r2 in range(r + 1, q):
                X[:, :, r2] -= X[0, :, r, r2, None].conj() * row
        pairs, back = _elimination_plan(d, min(m, lev), width)
        Y = X[pairs]
        np.subtract.at(S[lev * width::-1], back,
                       Y[:len(back)].conj().swapaxes(-1, -2) @ Y[len(back):])
    # the vacuum is the last pivot, which LAPACK factors
    C0, refused = _vacuum_cholesky(S[0])
    for i in refused:
        fail[live[i]] = 0
    if len(live) == len(shifts):
        C = C0
    else:
        C = np.full((len(shifts), q, q), np.nan, dtype=complex)
        C[live] = C0
    return fail, C
