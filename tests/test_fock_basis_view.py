"""FockBasis is a view of the ncseries word-code table.

It stores d, max_degree and the code table's degree starts, and decodes
its words on read, so building a basis costs no per-word work and any
order whose codes fit in int64 can be built.  The reference below is the
itertools enumeration the basis used to store: every degree in lex order.
"""

import itertools

import numpy as np
import pytest

import nchardy.fockspace as fockspace
from nchardy.fockspace import FockBasis
from nchardy.ncseries import NcSeries, commutator_inner


def reference_words(d, N):
    letters = range(1, d + 1)
    return [w for n in range(N + 1)
            for w in itertools.product(letters, repeat=n)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", range(7))
def test_the_view_matches_the_itertools_enumeration(d, N):
    b = FockBasis(d, N)
    words = reference_words(d, N)
    assert b.words == words
    assert b.index == {w: i for i, w in enumerate(words)}
    assert b.dim == len(words)
    assert [b.degree_start(k) for k in range(N + 2)] == \
        [sum(d ** j for j in range(k)) for k in range(N + 2)]
    assert [b.index_of(w) for w in words] == list(range(len(words)))
    for word in [(1,) * (N + 1), (d + 1,), (1, d + 1)[:N + 1]]:
        with pytest.raises(KeyError):
            b.index_of(word)


def test_reads_are_fresh_and_nothing_per_word_is_stored():
    b = FockBasis(2, 3)
    assert "words" not in vars(b) and "index" not in vars(b)
    words = b.words
    words.append(())
    assert b.words == reference_words(2, 3)
    assert b.words is not b.words


def test_a_large_basis_builds_without_decoding_a_word(monkeypatch):
    def refuse(*args):
        raise AssertionError("a word was decoded")

    monkeypatch.setattr(fockspace, "_decode", refuse)
    assert FockBasis(2, 40).dim == 2 ** 41 - 1
    assert FockBasis(2, 40).degree_start(40) == 2 ** 40 - 1
    assert FockBasis(2, 61).index_of((2,) * 61) == 2 ** 62 - 2
    assert FockBasis(1, 10 ** 6).dim == 10 ** 6 + 1


def test_narrow_numpy_letters_give_the_int_code():
    word = (np.uint8(2),) * 12
    assert FockBasis(2, 12).index_of(word) == 2 ** 13 - 2
    assert NcSeries(2, 1, 1, 12, {(2,) * 12: 3.0}).scalar_coeff(word) == 3.0


@pytest.mark.parametrize("d, N", [(2, 62), (3, 39), (2, 10 ** 6)])
def test_a_basis_past_int64_is_refused(d, N):
    with pytest.raises(ValueError, match="2\\^63"):
        FockBasis(d, N)


@pytest.mark.parametrize("N", [-1, None, 2.5])
def test_a_bad_order_is_refused(N):
    with pytest.raises(ValueError):
        FockBasis(2, N)


# -- truncation past the code range clamps --------------------------------


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [100, 10 ** 6])
def test_truncate_past_the_code_range_keeps_the_series(d, n):
    f = commutator_inner(4) if d == 2 else \
        NcSeries(3, 2, 1, 5, {(): [[1.0], [0.5j]], (3, 1, 2): [[2.0], [0]]})
    g = f.truncate(n)
    assert g.max_degree == f.max_degree
    assert np.array_equal(g.codes, f.codes)
    assert g.C.tobytes() == f.C.tobytes()


@pytest.mark.parametrize("n", [-1, 2.5])
def test_truncate_refuses_a_bad_degree(n):
    with pytest.raises(ValueError):
        commutator_inner(4).truncate(n)
