"""The dense wandering projection and its eigen-solve: the reference for
the split's thin product (factorization._wandering_vector).

For a projection Q onto a right-shift invariant space, P = Q - sum_k R_k Q
R_k^* projects onto its wandering part, and the wandering vectors are the
eigenvectors of P with eigenvalue near 1.  Both steps build and solve a
D x D matrix; the library builds neither.
"""

import numpy as np

from nchardy.errors import ShapeMismatchError
from nchardy.fockspace import word_triples

# |eigenvalue - 1| tolerance for reading wandering vectors off the
# wandering projection, which truncation perturbs.
WANDER_EIG_TOL = 1e-6


def wandering_projection(Q, basis):
    """Q - sum_k R_k Q R_k^* for a right-shift invariant projection Q.

    On an invariant subspace this is the projection onto the generating
    (wandering) part: what remains after removing every right translate.
    R_k maps each word w below the top degree to w k, the triples
    (k, w, w k) of word_triples, so each product R_k Q R_k^* is a block of
    Q moved by a gather.
    """
    if Q.shape != (basis.dim, basis.dim):
        raise ShapeMismatchError(
            f"projection shape {Q.shape} does not match basis dim {basis.dim}")
    s, mu, cat = word_triples(basis.d, basis.max_degree)
    P = Q.copy()
    for k in range(1, basis.d + 1):
        # the one-letter word (k,) sits at basis index k
        src, dst = mu[s == k], cat[s == k]
        P[np.ix_(dst, dst)] -= Q[np.ix_(src, src)]
    return P


def wandering_vectors(P, tol=WANDER_EIG_TOL):
    """Eigenvectors of the wandering projection with eigenvalue near 1.

    Returns (vectors, eigenvalues) with vectors as columns.  Truncation
    perturbs the projection, so eigenvalues sit near rather than at 1; the
    tolerance bounds |eigenvalue - 1|.
    """
    H = 0.5 * (P + P.conj().T)
    vals, vecs = np.linalg.eigh(H)
    keep = np.abs(vals - 1.0) <= tol
    return vecs[:, keep], vals[keep]


def dense_wandering_vector(QK, basis):
    """factorization._wandering_vector the dense way: the eigen-solve of
    the wandering projection of I - QK QK^H."""
    Q = np.eye(basis.dim, dtype=complex) - QK @ QK.conj().T
    W, _ = wandering_vectors(wandering_projection(Q, basis))
    return W.shape[1], (W[:, 0] if W.shape[1] == 1 else None)
