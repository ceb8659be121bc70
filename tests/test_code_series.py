"""Series on integer word codes agree bitwise with the dict implementation.

An NcSeries holds a sorted int64 code array and one coefficient stack.
Every operation below is run on it and on the dict reference of
dict_series.py, fed the same coefficients as dicts in sorted word order,
and the two must agree bit for bit: the same support, the same blocks
(tobytes, -0.0 included) and the same JSON.  Products, inverses and the
adjoint application also run on full-support operands, where truncation
drops the largest share of the word pairs and every prefix of a word
meets the symbol.  The tests after them pin the int64 range guard, the
read-only arrays, the integer degree arguments and prune at extreme
scales.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_series as ref
from nchardy.errors import NcError
from nchardy.fockspace import (
    FockBasis,
    coeff_stack,
    series_to_vec,
    vec_to_series,
)
from nchardy.ncseries import (
    NcSeries,
    from_json_dict,
    max_coeff_diff,
    phase_normalize,
    rescale,
    series_add,
    series_inner,
    series_invert,
    series_mul,
    shift_adjoint_apply,
    to_json_dict,
)
from nchardy.transforms import frostman

# exact values make sums cancel and keep signed zeros; the floats make
# rounding depend on the order of every sum
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))

SHAPES = [(1, 1), (2, 2), (2, 1)]

# the largest basis a dense support fills
DENSE_DIM = 40


@functools.lru_cache(maxsize=None)
def basis(d, n):
    return FockBasis(d, n)


@functools.lru_cache(maxsize=None)
def basis_words(d, n):
    """basis(d, n).words, decoded once: FockBasis decodes on each read."""
    return basis(d, n).words


@st.composite
def blocks(draw, rows, cols):
    return np.array([[complex(draw(parts), draw(parts)) for _ in range(cols)]
                     for _ in range(rows)])


@st.composite
def series(draw, d, rows, cols, n):
    """Sparse (a few words anywhere) or dense (every word through the
    largest degree whose basis has at most DENSE_DIM words)."""
    words = basis_words(d, n)
    if draw(st.booleans()):
        chosen = [w for w in words if basis(d, len(w)).dim <= DENSE_DIM]
    else:
        chosen = draw(st.lists(st.sampled_from(words), max_size=6,
                               unique=True))
    return NcSeries(d, rows, cols, n,
                    {w: draw(blocks(rows, cols)) for w in chosen})


@st.composite
def cases(draw):
    """f; g with rows(g) = cols(f); h shaped as f; a scalar omega."""
    d = draw(st.sampled_from([1, 2, 3]))
    rows, cols = draw(st.sampled_from(SHAPES))
    degrees = st.integers(0, 8)
    f = draw(series(d, rows, cols, draw(degrees)))
    g = draw(series(d, cols, draw(st.sampled_from([1, 2])), draw(degrees)))
    h = draw(series(d, rows, cols, draw(degrees)))
    omega = draw(series(d, 1, 1, draw(degrees)))
    return f, g, h, omega


@st.composite
def full_support_cases(draw):
    """f, g and a scalar omega, Frostman shifts of the unit linear form at
    d in {2, 3}, with every word through their orders: the operands on
    which a product keeps the smallest share of its word pairs, and on
    which omega(L)* f meets every prefix of every word."""
    d = draw(st.sampled_from([2, 3]))
    degrees = st.integers(1, 6 if d == 2 else 4)

    def shift(n):
        # |w| >= 0.1 keeps the inverse's growth (1/|w|)^n in range
        w = draw(st.floats(0.1, 0.7)) * np.exp(2j * np.pi * draw(parts))
        z = NcSeries(d, 1, 1, n, {(a,): d ** -0.5 for a in range(1, d + 1)})
        return frostman(z, w, n)

    return shift(draw(degrees)), shift(draw(degrees)), None, \
        shift(draw(degrees))


def as_dict(f):
    """The dict reference of f, its words in sorted order."""
    return ref.DictSeries(f.d, f.rows, f.cols, f.max_degree,
                          {w: m.copy() for w, m in f.coeffs.items()})


def same_bits(a, b):
    """Bit for bit, -0.0 included, except at NaNs, which must sit at the
    same real or imaginary parts but may differ in sign bit and payload:
    the bits of a NaN follow the order of the operands that made it, which
    the dict reference need not share."""
    a, b = (np.asarray(x).reshape(-1) for x in (a, b))
    if a.dtype != b.dtype or a.size != b.size or a.dtype.kind not in "fc":
        return a.tobytes() == b.tobytes()
    a, b = a.view(float), b.view(float)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and \
        a[~nan].tobytes() == b[~nan].tobytes()


def agree(got, want):
    assert (got.d, got.rows, got.cols, got.max_degree) == \
        (want.d, want.rows, want.cols, want.max_degree)
    words = want.support()
    assert got.support() == words
    stack = np.array([want.coeffs[w] for w in words], dtype=complex)
    assert same_bits(got.C, stack.reshape(got.C.shape))


def outcome(run):
    """run()'s value, or the class of the library error it raised."""
    try:
        return run()
    except (NcError, ValueError) as exc:
        return type(exc)


def agree_or_raise_alike(got, want, check=agree):
    got, want = outcome(got), outcome(want)
    if isinstance(want, type):
        assert got is want
    else:
        check(got, want)


def degree_choices(n):
    """None, and degrees below, at and above n."""
    return [None, *range(max(n - 1, 0), n + 3)]


# twice the examples of the other tests, so cases() keeps its share
@settings(max_examples=160, deadline=None)
@given(st.one_of(cases(), full_support_cases()),
       st.sampled_from([0.0, 1.0, 3.0]))
def test_products_and_inverses_agree_bitwise(case, c):
    f, g, _, _ = case
    F, G = as_dict(f), as_dict(g)
    for n in degree_choices(f.max_degree):
        agree(series_mul(f, g, n), ref.series_mul(F, G, n))
    if f.rows == f.cols:
        # c = 0 leaves f's own constant term, often singular
        e = f + NcSeries.constant(c * np.eye(f.rows), f.d, f.max_degree)
        E = as_dict(e)
        # a constant term near zero overflows both inverses to inf and
        # then NaN, which same_bits expects
        with np.errstate(over="ignore", invalid="ignore"):
            for n in degree_choices(f.max_degree):
                agree_or_raise_alike(lambda: series_invert(e, n),
                                     lambda: ref.series_invert(E, n))


@settings(max_examples=80, deadline=None)
@given(cases())
def test_sums_and_pairings_agree_bitwise(case):
    f, _, h, _ = case
    F, H = as_dict(f), as_dict(h)
    agree(series_add(f, h), ref.series_add(F, H))
    agree(series_add(h, f), ref.series_add(H, F))
    assert same_bits(series_inner(f, h), ref.series_inner(F, H))
    assert same_bits(series_inner(h, f), ref.series_inner(H, F))
    for n in degree_choices(f.max_degree):
        assert same_bits(max_coeff_diff(f, h, n),
                         ref.max_coeff_diff(F, H, n))


@settings(max_examples=80, deadline=None)
@given(st.one_of(cases(), full_support_cases()),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_unary_operations_agree_bitwise(case, r):
    f, _, _, omega = case
    F, W = as_dict(f), as_dict(omega)
    for k in range(f.max_degree + 2):
        agree(f.truncate(k), F.truncate(k))
    agree(f.prune(), F.prune())
    agree(rescale(f, r), ref.rescale(F, r))
    (g, u), (G, U) = phase_normalize(f), ref.phase_normalize(F)
    agree(g, G)
    assert same_bits(u, U)
    for n in degree_choices(f.max_degree):
        agree(shift_adjoint_apply(omega, f, n),
              ref.shift_adjoint_apply(W, F, n))


@settings(max_examples=80, deadline=None)
@given(full_support_cases(), st.sampled_from(SHAPES), st.data())
def test_adjoint_application_to_a_full_support_matrix_agrees_bitwise(
        case, shape, data):
    # H_w = f_w M + g_w M' over every word through H's order, so every
    # prefix of every word of H meets omega, now with matrix blocks
    f, g, _, omega = case
    M, M2 = data.draw(blocks(*shape)), data.draw(blocks(*shape))
    n = min(f.max_degree, g.max_degree)
    H = NcSeries(f.d, *shape, n, {
        w: f.scalar_coeff(w) * M + g.scalar_coeff(w) * M2
        for w in basis_words(f.d, n)})
    W, F = as_dict(omega), as_dict(H)
    for k in degree_choices(n):
        agree(shift_adjoint_apply(omega, H, k),
              ref.shift_adjoint_apply(W, F, k))


@settings(max_examples=80, deadline=None)
@given(cases(), st.integers(0, 8), st.data())
def test_boundary_converters_and_json_agree_bitwise(case, m, data):
    f, _, _, _ = case
    F = as_dict(f)
    B = basis(f.d, m)
    agree_or_raise_alike(lambda: series_to_vec(f, B),
                         lambda: ref.series_to_vec(F, B), same_bits)
    assert same_bits(coeff_stack(f, B), ref.coeff_stack(F, B))
    if B.dim <= DENSE_DIM:
        v = data.draw(blocks(B.dim * f.rows, f.cols))
        v[::2] = 0.0
        agree(vec_to_series(v, B, f.rows), ref.vec_to_series(v, B, f.rows))
    doc = to_json_dict(f)
    assert json.dumps(doc) == json.dumps(ref.to_json_dict(F))
    agree(from_json_dict(doc), F)


def test_nans_compare_by_position_only():
    # a constant term of 1e-315 overflows the inverse to inf and then NaN;
    # series_invert sums each word from -0.0 in the reference's order, so
    # its NaNs carry the reference's bits
    e = NcSeries(2, 1, 1, 3, {(): 1e-315, (2,): 2 + 2j, (2, 2): 1 + 2j,
                              (2, 1, 1): -4 - 1.5j, (2, 2, 2): 0.5 - 4j})
    with np.errstate(all="ignore"):
        got, want = series_invert(e), ref.series_invert(as_dict(e))
    stack = np.array([want.coeffs[w] for w in want.support()])
    assert np.isnan(got.C).any()
    assert got.C.tobytes() == stack.tobytes()
    agree(got, want)
    assert np.array(np.nan).tobytes() != np.array(-np.nan).tobytes()
    assert same_bits([np.nan], [-np.nan])
    assert not same_bits(0.0, -0.0)
    assert not same_bits(complex(np.nan, 0.0), complex(0.0, np.nan))
    assert not same_bits([np.nan, 0.0], [np.nan, -0.0])


# -- the int64 range of the word codes ------------------------------------


@pytest.mark.parametrize("d, top", [(2, 61), (3, 38), (5, 26)])
def test_codes_refuse_an_order_past_int64(d, top):
    NcSeries(d, 1, 1, top, {(d,) * top: 1.0})
    f = NcSeries(d, 1, 1, top)
    doc = to_json_dict(f)
    with pytest.raises(ValueError, match="2\\^63"):
        NcSeries(d, 1, 1, top + 1)
    with pytest.raises(ValueError, match="2\\^63"):
        from_json_dict(dict(doc, max_degree=top + 1))
    with pytest.raises(ValueError, match="2\\^63"):
        f.with_max_degree(top + 1)
    with pytest.raises(ValueError, match="2\\^63"):
        series_mul(f, f, top + 1)


def test_one_letter_codes_are_lengths_at_any_order():
    f = NcSeries(1, 1, 1, 10 ** 6, {(1,) * 3: 2.0, (): 1.0})
    assert list(f.codes) == [0, 3]
    assert (f * f).support() == [(), (1,) * 3, (1,) * 6]
    assert series_invert(f, 9).scalar_coeff((1,) * 9) == -8.0


def test_the_highest_code_round_trips():
    w = (2,) * 61
    f = NcSeries(2, 1, 1, 61, {w: 1.0, (1,): 2.0})
    assert f.codes[-1] == 2 ** 62 - 2
    assert f.support() == [(1,), w]
    assert f.scalar_coeff(w) == 1.0


# -- stored arrays are read-only ------------------------------------------


def test_stored_arrays_refuse_writes():
    f = NcSeries(2, 2, 2, 3, {(): np.eye(2), (1, 2): np.ones((2, 2))})
    before = f.C.copy()
    for g in (f, f.truncate(2), f.scale(2.0), f + f, f * f, f.copy()):
        with pytest.raises(ValueError, match="read-only"):
            g.C[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            g.codes[0] = 5
        with pytest.raises(TypeError):
            g.coeffs[()] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="read-only"):
            g.coeffs[()][0, 0] = 7.0
    assert same_bits(f.C, before)


# -- degree arguments are integers ----------------------------------------


def scalar_series():
    return NcSeries(2, 1, 1, 8, {(): 1.0, (1,): 0.5, (2, 1): 0.25})


@pytest.mark.parametrize("call", [
    lambda f: f.with_max_degree(7.9),
    lambda f: f.truncate(2.5),
    lambda f: series_mul(f, f, max_degree=5.5),
    lambda f: series_invert(f, max_degree=7.2),
    lambda f: shift_adjoint_apply(f, f, out_degree=2.5),
    lambda f: f.truncate(True),
    lambda f: series_mul(f, f, max_degree="3"),
], ids=["with_max_degree", "truncate", "series_mul", "series_invert",
        "shift_adjoint_apply", "truncate_bool", "series_mul_str"])
def test_degree_arguments_must_be_integers(call):
    with pytest.raises(ValueError, match="is not an integer"):
        call(scalar_series())


# -- prune at any scale ----------------------------------------------------


@pytest.mark.parametrize("k", [-560, 0, 520])
def test_prune_keeps_the_same_words_at_every_power_of_two(k):
    def ldexp(x, e):
        return np.ldexp(np.array(x, dtype=complex).view(float), e).view(
            complex)

    def at_scale(e):
        # the (2, 1) block is below PRUNE_REL of the largest, the
        # (1, 2, 2) block just above it
        return NcSeries(2, 2, 1, 3, {
            (): ldexp([[1.0], [0.5j]], e),
            (1,): ldexp([[0.25 - 0.75j], [0.0]], e - 1),
            (2, 1): ldexp([[1e-16], [0.0]], e),
            (1, 2, 2): ldexp([[3e-15], [-1e-15j]], e)})

    base, scaled = at_scale(0).prune(), at_scale(k).prune()
    assert base.support() == [(), (1,), (1, 2, 2)]
    assert scaled.support() == base.support()
    assert same_bits(scaled.C, ldexp(base.C, k))


def test_prune_drops_a_block_that_the_rescaling_underflows():
    # scaling by 2^-3 takes 5e-324 to zero, so the rescaled series stores
    # one block fewer than f
    f = NcSeries(3, 1, 1, 3, {(): 4.0, (1,): 1e-200, (3, 3, 3): 5e-324j})
    assert f.prune().support() == [()]
    agree(f.prune(), as_dict(f).prune())
