"""The exported NC Toeplitz and sampling functions refuse invalid
arguments with the package's messages instead of answering for an empty
window, truncating, or failing inside numpy.

toeplitz_min_eig, toeplitz_max_bound and toeplitz_vacuum_schur share one
check: the window k is an int >= 0, d >= 1, and the data t are a
(D, q, q) stack whose D is a Fock dimension 1 + d + ... + d^m.
word_triples refuses a non-integer, bool or negative m and d < 1, also
after a cached call with an equal int; random_points takes d and every
size as ints >= 1.
"""

import numpy as np
import pytest

from nchardy.errors import ShapeMismatchError
from nchardy.evaluate import random_points
from nchardy.fockspace import (
    toeplitz_data,
    toeplitz_max_bound,
    toeplitz_min_eig,
    toeplitz_vacuum_schur,
    word_triples,
)
from nchardy.ncseries import commutator_inner

T = toeplitz_data(1.0 - commutator_inner(4).scale(0.5))
GRAM_FUNCTIONS = [toeplitz_min_eig, toeplitz_max_bound, toeplitz_vacuum_schur]


@pytest.mark.parametrize("fn", GRAM_FUNCTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("t, d, k, error, match", [
    (T, 2, -1, ValueError, "k = -1 must be >= 0"),
    (T, 2, True, ValueError, "not an integer"),
    (T, 2, 2.5, ValueError, "not an integer"),
    (T, 2, np.float64(2), ValueError, "not an integer"),
    (T, 0, 2, ValueError, "d = 0 >= 1"),
    (T, 2.0, 2, ValueError, "not an integer"),
    (T[:5], 2, 2, ShapeMismatchError, "no Fock dimension"),
    (T[:0], 2, 2, ShapeMismatchError, "no Fock dimension"),
    (T, 3, 2, ShapeMismatchError, "no Fock dimension"),
    (T[0], 2, 2, ShapeMismatchError, r"\(D, q, q\)"),
    (np.zeros((7, 1, 2), dtype=complex), 2, 2, ShapeMismatchError,
     r"\(D, q, q\)"),
    (T.tolist(), 2, 2, ShapeMismatchError, r"\(D, q, q\)"),
], ids=["negative_k", "bool_k", "float_k", "numpy_float_k", "d0",
        "float_d", "five_blocks", "empty", "wrong_d", "one_block",
        "non_square", "list"])
def test_gram_functions_refuse_invalid_arguments(fn, t, d, k, error, match):
    with pytest.raises(error, match=match):
        fn(t, d, k)


@pytest.mark.parametrize("fn", GRAM_FUNCTIONS, ids=lambda f: f.__name__)
def test_gram_functions_take_numpy_and_zero_windows(fn):
    assert np.array_equal(fn(T, 2, np.int64(2)), fn(T, 2, 2))
    assert np.array_equal(fn(T, np.int64(2), 0), fn(T, 2, 0))


@pytest.mark.parametrize("d, m, match", [
    (2, 2.5, "not an integer"),
    (2, True, "not an integer"),
    (2, -1, "m >= 0"),
    (0, 2, "d >= 1"),
    (True, 2, "not an integer"),
])
def test_word_triples_refuses_invalid_sizes(d, m, match):
    # the valid call with the equal int is cached first
    if m is True or d is True:
        word_triples(2, 1)
    with pytest.raises(ValueError, match=match):
        word_triples(d, m)


def test_word_triples_of_a_numpy_int_are_the_int_triples():
    for got, want in zip(word_triples(2, np.int64(2)), word_triples(2, 2)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("sizes", [[0], [2, -1], [1, 0, 3]])
def test_random_points_refuse_sizes_below_one(sizes):
    with pytest.raises(ValueError, match="sizes must be >= 1"):
        random_points(np.random.default_rng(0), 2, sizes, 0.5)


@pytest.mark.parametrize("d, sizes, match", [
    (2, [2.5, True], "point size 2.5 is not an integer"),
    (2, [2, True], "point size True is not an integer"),
    (2, np.array([1.0, 2.0]), "point size .*1.0.* is not an integer"),
    (0, [1], "d must be >= 1"),
    (2.5, [1], "d 2.5 is not an integer"),
    (True, [1], "d True is not an integer"),
], ids=["float_and_bool_sizes", "bool_size", "float_array", "d_zero",
        "d_float", "d_bool"])
def test_random_points_take_int_arguments(d, sizes, match):
    with pytest.raises(ValueError, match=match):
        random_points(np.random.default_rng(0), d, sizes, 0.5)
