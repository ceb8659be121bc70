"""Evaluation by NC Horner agrees with the word-product evaluator.

evaluate_batch walks the prefix tree of a series' word codes, one batched
product per level; word_powers.py keeps the evaluator it replaced, which
multiplies out Z^w for every stored word.  The two sum in different
orders, so they agree to rounding: within 1e-13 of the sum of the
coefficients' largest entries, which bounds every entry of a value on the
ball.  The property tests check the algebra the values must carry: sums,
products within the truncation order, and the unit.
"""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nchardy.ncseries as ncseries
import word_powers
from nchardy.evaluate import evaluate_batch, random_points
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    series_add,
    series_mul,
)
from nchardy.transforms import cayley_herglotz, semigroup_inner

# the module: the package binds the name evaluate to the function
evaluate_module = importlib.import_module("nchardy.evaluate")

RTOL = 1e-13

# the largest basis a dense support fills
DENSE_DIM = 400

KINDS = ("sparse", "dense", "constant", "zero")


def all_words(d, n):
    return [w for k in range(n + 1)
            for w in itertools.product(range(1, d + 1), repeat=k)]


def random_series(rng, d, rows, cols, n, kind):
    """A series of one support kind: a few words anywhere, every word
    through the largest degree whose basis has at most DENSE_DIM words,
    the constant alone, or none."""
    words = all_words(d, n)
    if kind == "sparse":
        chosen = [words[i] for i in rng.choice(
            len(words), min(len(words), rng.integers(1, 7)), replace=False)]
    elif kind == "dense":
        chosen = [w for w in words if len(all_words(d, len(w))) <= DENSE_DIM]
    else:
        chosen = [()] if kind == "constant" else []
    return NcSeries(d, rows, cols, n, {
        w: rng.standard_normal((rows, cols))
        + 1j * rng.standard_normal((rows, cols)) for w in chosen})


def points(rng, d, n, count, row_norm):
    if not count:
        return np.zeros((0, d, n, n), dtype=complex)
    Zs, = random_points(rng, d, [n] * count, row_norm)
    return Zs


def scale(*fs):
    """Sum over the coefficients of their largest entry modulus."""
    return sum(float(np.abs(f.C).max(axis=(1, 2)).sum()) for f in fs)


def close(got, want, bound):
    assert got.shape == want.shape
    err = float(np.abs(got - want).max(initial=0.0))
    assert err <= RTOL * max(bound, 1.0), (err, bound)


@st.composite
def cases(draw):
    """(f, Zs): one series and one stack of points over its alphabet."""
    d = draw(st.sampled_from([1, 2, 3]))
    n_max = draw(st.integers(0, 6))
    rows, cols = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(0, 5))
    row_norm = draw(st.sampled_from([0.3, 0.7, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = random_series(rng, d, rows, cols, n_max, kind)
    return f, points(rng, d, n, count, row_norm)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_horner_agrees_with_word_products(case):
    f, Zs = case
    got = evaluate_batch(f, Zs)
    close(got, word_powers.evaluate_batch(f, Zs), scale(f))
    if not f.codes.size:
        assert not got.any()


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(0, 2 ** 32 - 1))
def test_values_add(case, seed):
    f, Zs = case
    g = random_series(np.random.default_rng(seed), f.d, f.rows, f.cols,
                      f.max_degree, "sparse")
    close(evaluate_batch(series_add(f, g), Zs),
          evaluate_batch(f, Zs) + evaluate_batch(g, Zs), scale(f, g))


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
def test_values_multiply_within_the_truncation_order(case, seed, cols):
    f, Zs = case
    rng = np.random.default_rng(seed)
    # g's words stop at N - deg f, so fg drops nothing at order N
    g = random_series(rng, f.d, f.cols, cols, f.max_degree - f.degree(),
                      rng.choice(KINDS)).with_max_degree(f.max_degree)
    fg = series_mul(f, g)
    close(evaluate_batch(fg, Zs), evaluate_batch(f, Zs)
          @ evaluate_batch(g, Zs), scale(f) * scale(g))


@pytest.mark.parametrize("d, p, N", [(1, 1, 0), (2, 2, 5), (3, 1, 3)])
def test_the_unit_evaluates_to_the_identity(d, p, N):
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        vals = evaluate_batch(NcSeries.identity(p, d, N),
                              points(rng, d, n, 4, 0.9))
        assert (vals == np.eye(p * n)).all()


def test_chunks_agree_with_one_pass(monkeypatch):
    rng = np.random.default_rng(8)
    f = random_series(rng, 2, 2, 1, 4, "dense")
    Zs = points(rng, 2, 2, 7, 0.8)
    whole = evaluate_batch(f, Zs)
    monkeypatch.setattr(evaluate_module, "EVAL_CHUNK", 3)
    assert (evaluate_batch(f, Zs) == whole).all()


def test_evaluation_decodes_no_word(monkeypatch):
    # evaluate_batch reads f.codes and f.C only, never letter tuples
    rng = np.random.default_rng(9)
    f = random_series(rng, 3, 1, 2, 4, "sparse")
    Zs = points(rng, 3, 2, 3, 0.8)
    want = word_powers.evaluate_batch(f, Zs)

    def refuse(*args):
        raise AssertionError("evaluation decoded a word")

    monkeypatch.setattr(ncseries, "_decode", refuse)
    close(evaluate_batch(f, Zs), want, scale(f))


def test_one_support_shares_one_plan():
    # a semigroup draw and its Cayley transform store the same words
    S = semigroup_inner(commutator_inner(max_degree=6), 0.5, 6)
    H = cayley_herglotz(S)
    assert (S.codes == H.codes).all()
    assert ncseries._horner_plan(S) is ncseries._horner_plan(H)
    assert ncseries._horner_plan(S) is not ncseries._horner_plan(
        semigroup_inner(commutator_inner(max_degree=4), 0.5, 4))
