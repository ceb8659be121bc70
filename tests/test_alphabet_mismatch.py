"""Every site that meets two alphabets raises AlphabetMismatchError, a
ShapeMismatchError by subclass, so callers that catch the wider type
still catch it."""

import numpy as np
import pytest

from nchardy.errors import AlphabetMismatchError, ShapeMismatchError
from nchardy.evaluate import MatrixPoint, direct_sum_points
from nchardy.factorization import _combined_kernel_frame
from nchardy.fockspace import FockBasis, _mult_columns, coeff_stack
from nchardy.kernels import (
    SingularityPair,
    compress_to_finite,
    sing_closure_direct_sum,
    sing_space_complement,
    szego_gram,
)
from nchardy.ncseries import NcSeries, series_add


def point(d):
    return MatrixPoint([0.3 * np.eye(1)] * d)


def pair(d):
    return SingularityPair(point(d), [1.0])


def series(d):
    return NcSeries(d, 1, 1, 2, {(): 1.0, (1,): 0.5})


SITES = {
    "direct_sum_points": lambda: direct_sum_points([point(2), point(3)]),
    "coeff_stack": lambda: coeff_stack(series(3), FockBasis(2, 2)),
    "_mult_columns": lambda: _mult_columns(series(3), FockBasis(2, 2), 0),
    "szego_gram": lambda: szego_gram(point(2), point(3), [1.0], [1.0]),
    "sing_closure_direct_sum": lambda: sing_closure_direct_sum(pair(2),
                                                               pair(3)),
    "sing_space_complement": lambda: sing_space_complement(
        [pair(2), pair(3)], N=2),
    "_check_compatible": lambda: series_add(series(2), series(3)),
    "_combined_kernel_frame": lambda: _combined_kernel_frame(
        [pair(3)], 2, None, 2),
    "compress_to_finite": lambda: compress_to_finite(point(2), [1.0],
                                                     series(3)),
}


@pytest.mark.parametrize("call", SITES.values(), ids=SITES)
def test_an_alphabet_mismatch_raises_one_type(call):
    with pytest.raises(AlphabetMismatchError) as info:
        call()
    assert isinstance(info.value, ShapeMismatchError)
