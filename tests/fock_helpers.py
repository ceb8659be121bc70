"""Fock-space index helpers that only the tests read.

Words of length <= k are the first words of a FockBasis, so the package
slices them as a prefix; these spell the indices out, and read a
multiplication operator's symbol back off its vacuum column.
"""

import numpy as np

from nchardy.fockspace import vec_to_series


def indices_through_degree(basis, k):
    """All basis indices for words of length <= k."""
    return np.arange(basis.degree_start(min(k, basis.max_degree) + 1))


def column_indices(op, degree_limit):
    """Flat column indices of op for words of length <= degree_limit."""
    idx = indices_through_degree(op.basis, degree_limit)
    return (idx[:, None] * op.cols + np.arange(op.cols)).reshape(-1)


def symbol(op):
    """The series whose multiplication op truncates: its vacuum column
    block holds the coefficients of f exactly."""
    return vec_to_series(op.mat[:, :op.cols], op.basis, rows=op.rows,
                         cols=op.cols)
