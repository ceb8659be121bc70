"""Series arithmetic against hand-computed and closed-form oracles."""

import io
import json
import math

import numpy as np
import pytest

from nchardy.errors import (
    AlphabetMismatchError,
    NotInvertibleError,
    SchemaError,
    ShapeMismatchError,
)
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    from_json_dict,
    h2_norm,
    load_series,
    max_coeff_diff,
    phase_normalize,
    rescale,
    save_series,
    series_inner,
    series_invert,
    series_mul,
    to_json_dict,
)


@pytest.mark.parametrize("word", [(1.7,), (2.0,), ("1",), (1, 2.9),
                                  (np.float64(1.0),)])
def test_non_integer_letters_raise_instead_of_truncating(word):
    with pytest.raises(ValueError, match="outside alphabet"):
        NcSeries(2, 1, 1, 2, {word: 1.0})
    with pytest.raises(ValueError, match="outside alphabet"):
        NcSeries.monomial(word, 2)


@pytest.mark.parametrize("word", [(1.7,), (2.0,), ("1",), (1, 2.9),
                                  (np.float64(1.0),)])
def test_lookups_refuse_non_integer_letters(word):
    f = NcSeries(2, 1, 1, 2, {(1,): 3.0, (2,): 4.0, (1, 2): 5.0})
    with pytest.raises(ValueError, match="not an integer"):
        f.coeff(word)
    with pytest.raises(ValueError, match="not an integer"):
        f.scalar_coeff(word)


def test_lookups_of_integer_words_off_the_support_read_zero():
    f = NcSeries(2, 1, 1, 2, {(1,): 3.0, (1, 2): 5.0})
    assert f.scalar_coeff((np.int64(1), 2)) == 5.0
    for word in ((2,), (3,), (0,), (1, 2, 1)):
        assert f.scalar_coeff(word) == 0.0
        assert np.array_equal(f.coeff(word), np.zeros((1, 1)))


def test_numpy_integer_letters_become_python_ints():
    word = (np.int64(2), np.int32(1))
    f = NcSeries(2, 1, 1, 2, {word: 1.0})
    assert list(f.coeffs) == [(2, 1)]
    assert all(type(a) is int for a in list(f.coeffs)[0])


def test_support_sorted_and_degree():
    f = NcSeries(2, 1, 1, 3, {(2, 1): 1.0, (1,): 2.0, (): 3.0})
    assert f.support() == [(), (1,), (2, 1)]
    assert f.degree() == 2
    assert f.scalar_coeff((1,)) == 2.0
    assert f.scalar_coeff((2, 2)) == 0.0


def test_add_sub_and_scalar_promotion():
    z1 = NcSeries.monomial((1,), 2, 4)
    f = 1.0 - z1
    assert f.scalar_coeff(()) == 1.0
    assert f.scalar_coeff((1,)) == -1.0
    g = f + z1
    assert g.support() == [()]
    # exact cancellation drops the word entirely
    h = z1 - z1
    assert h.support() == []


def test_series_mul_hand_cauchy_product():
    # (1 + z1)(1 - z2) = 1 + z1 - z2 - z1 z2
    f = 1.0 + NcSeries.monomial((1,), 2, 2)
    g = 1.0 - NcSeries.monomial((2,), 2, 2)
    p = series_mul(f, g, 2)
    assert p.scalar_coeff(()) == 1.0
    assert p.scalar_coeff((1,)) == 1.0
    assert p.scalar_coeff((2,)) == -1.0
    assert p.scalar_coeff((1, 2)) == -1.0
    assert p.scalar_coeff((2, 1)) == 0.0


def test_series_mul_is_noncommutative():
    z1 = NcSeries.monomial((1,), 2, 2)
    z2 = NcSeries.monomial((2,), 2, 2)
    assert series_mul(z1, z2, 2).support() == [(1, 2)]
    assert series_mul(z2, z1, 2).support() == [(2, 1)]


def test_series_mul_matrix_shapes():
    A = NcSeries.constant(np.array([[1.0, 2.0]]), 2, 1)  # 1x2
    B = NcSeries.constant(np.array([[3.0], [4.0]]), 2, 1)  # 2x1
    p = series_mul(A, B, 1)
    assert p.rows == 1 and p.cols == 1
    assert p.scalar_coeff(()) == 11.0
    with pytest.raises(ShapeMismatchError):
        series_mul(A, A, 1)


def test_series_mul_truncates_silently():
    z1 = NcSeries.monomial((1,), 2, 1)
    p = series_mul(z1, z1, 1)
    assert p.support() == []


def test_alphabet_mismatch_raises():
    f = NcSeries.monomial((1,), 1, 2)
    g = NcSeries.monomial((1,), 2, 2)
    with pytest.raises(AlphabetMismatchError):
        series_mul(f, g)


def test_rescale_scales_by_degree():
    f = NcSeries(2, 1, 1, 3, {(): 1.0, (1,): 1.0, (1, 2): 1.0})
    g = rescale(f, 0.5)
    assert g.scalar_coeff(()) == 1.0
    assert g.scalar_coeff((1,)) == 0.5
    assert g.scalar_coeff((1, 2)) == 0.25
    with pytest.raises(ValueError):
        rescale(f, 1.5)
    with pytest.raises(ValueError):
        rescale(f, -0.1)


def test_h2_norm_and_inner_conjugate_first_slot():
    f = NcSeries(2, 1, 1, 2, {(): 1.0 + 1.0j, (1,): 2.0})
    assert h2_norm(f) == pytest.approx(math.sqrt(2.0 + 4.0))
    g = NcSeries(2, 1, 1, 2, {(): 1.0, (2,): 5.0})
    ip = series_inner(f, g)
    assert ip == pytest.approx(1.0 - 1.0j)
    # conjugate-linear in the first argument, linear in the second
    assert series_inner(f.scale(1j), g) == pytest.approx(-1j * ip)
    assert series_inner(f, g.scale(1j)) == pytest.approx(1j * ip)


def test_series_invert_geometric_oracle():
    # (1 - a z1)^{-1} = sum a^k z1^k
    a = 0.37
    f = 1.0 - NcSeries.monomial((1,), 2, 6, value=a)
    g = series_invert(f, 6)
    for k in range(7):
        assert g.scalar_coeff((1,) * k) == pytest.approx(a ** k, rel=1e-14)
    # and it really inverts
    p = series_mul(f, g, 6)
    assert max_coeff_diff(p, NcSeries.constant(1.0, 2, 6), 6) < 1e-14


def test_series_invert_two_sided():
    rng = np.random.default_rng(0)
    coeffs = {(): np.eye(2) + 0.1 * rng.standard_normal((2, 2))}
    for w in [(1,), (2,), (2, 1)]:
        coeffs[w] = 0.3 * (rng.standard_normal((2, 2))
                           + 1j * rng.standard_normal((2, 2)))
    f = NcSeries(2, 2, 2, 5, coeffs)
    g = series_invert(f, 5)
    ident = NcSeries.identity(2, 2, 5)
    assert max_coeff_diff(series_mul(f, g, 5), ident, 5) < 1e-12
    assert max_coeff_diff(series_mul(g, f, 5), ident, 5) < 1e-12


def test_series_invert_rejects_singular_constant():
    f = NcSeries.monomial((1,), 2, 3)
    with pytest.raises(NotInvertibleError) as exc:
        series_invert(f)
    assert exc.value.smallest_sigma == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_scalar_promotion_refuses_non_finite_scalars(bad):
    f = NcSeries.monomial((1,), 2, 3)
    for op in (lambda: f + bad, lambda: f - bad, lambda: bad - f):
        with pytest.raises(ValueError, match="is not finite"):
            op()


def test_a_square_series_minus_a_scalar_subtracts_it_times_the_identity():
    f = NcSeries(2, 2, 2, 3, {(): [[1.0, 2.0], [3.0, 4.0]], (1,): np.eye(2)})
    assert np.array_equal((f - 0.5j).coeff(()),
                          [[1.0 - 0.5j, 2.0], [3.0, 4.0 - 0.5j]])
    assert np.array_equal((0.5j - f).coeff(()),
                          [[0.5j - 1.0, -2.0], [-3.0, 0.5j - 4.0]])
    with pytest.raises(ShapeMismatchError):
        NcSeries(2, 2, 1, 3, {(): [[1.0], [2.0]]}) - 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_non_finite_coefficients_are_refused(bad):
    # pruned or factored, a NaN word would vanish without a trace
    with pytest.raises(ValueError, match="non-finite"):
        NcSeries(2, 1, 1, 3, {(): 1.0, (1,): bad})
    with pytest.raises(ValueError, match="non-finite"):
        NcSeries(2, 2, 1, 3, {(1, 2): [[0.0], [bad]]})


def test_phase_normalize():
    f = NcSeries(2, 1, 1, 2, {(1,): -2.0j, (2,): 1.0})
    g, u = phase_normalize(f)
    assert abs(abs(u) - 1.0) < 1e-15
    lead = g.scalar_coeff((1,))
    assert lead.imag == pytest.approx(0.0, abs=1e-15)
    assert lead.real > 0
    assert max_coeff_diff(g.scale(u), f, 2) < 1e-15


def test_prune_drops_relative_noise():
    f = NcSeries(2, 1, 1, 2, {(): 1.0, (1,): 1e-20})
    assert f.prune().support() == [()]


def test_truncate_and_with_max_degree():
    f = NcSeries(2, 1, 1, 4, {(): 1.0, (1, 1, 1): 2.0})
    t = f.truncate(2)
    assert t.support() == [()]
    assert t.max_degree == 2
    e = f.with_max_degree(6)
    assert e.max_degree == 6
    assert e.scalar_coeff((1, 1, 1)) == 2.0


def test_commutator_inner_coefficients():
    V = commutator_inner()
    s = 1.0 / math.sqrt(2.0)
    assert V.scalar_coeff((1, 2)) == pytest.approx(s)
    assert V.scalar_coeff((2, 1)) == pytest.approx(-s)
    assert h2_norm(V) == pytest.approx(1.0)


def test_json_round_trip():
    rng = np.random.default_rng(5)
    coeffs = {(): rng.standard_normal((2, 3)) + 1j * rng.standard_normal(
        (2, 3)), (1, 2): rng.standard_normal((2, 3))}
    f = NcSeries(2, 2, 3, 4, coeffs)
    doc = to_json_dict(f)
    g = from_json_dict(doc)
    assert g.d == f.d and g.rows == 2 and g.cols == 3
    assert g.max_degree == 4
    assert max_coeff_diff(f, g, 4) == 0.0


def test_max_coeff_diff_refuses_blocks_of_another_shape():
    ident = NcSeries(1, 2, 2, 2, {(): np.eye(2)})
    column = NcSeries(1, 2, 1, 2, {(): [[1.0], [2.0]]})
    for f, g in ((NcSeries.constant(1.0, 1, 2), ident),
                 (column, NcSeries.constant(0.0, 1, 2))):
        with pytest.raises(ShapeMismatchError):
            max_coeff_diff(f, g)


def test_json_file_round_trip(tmp_path):
    f = commutator_inner(max_degree=4)
    path = tmp_path / "v.json"
    save_series(f, str(path))
    g = load_series(str(path))
    assert max_coeff_diff(f, g, 4) == 0.0
    # deterministic serialization: keys sorted
    text = path.read_text()
    assert json.loads(text) == to_json_dict(f)


@pytest.mark.parametrize("mutate, path_frag", [
    (lambda d: d.pop("d"), "series"),
    (lambda d: d.update(extra=1), "series"),
    (lambda d: d.update(d=0), "d"),
    (lambda d: d["coeffs"].append(d["coeffs"][0]), "coeffs"),
])
def test_json_schema_errors(mutate, path_frag):
    doc = to_json_dict(commutator_inner(max_degree=2))
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        from_json_dict(doc)
    assert path_frag in (exc.value.path or "series")


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", [0, -1])
def test_json_refuses_coefficient_sizes_below_one(field, value):
    doc = to_json_dict(commutator_inner(max_degree=2))
    doc[field] = value
    with pytest.raises(SchemaError) as exc:
        from_json_dict(doc)
    assert exc.value.path == f"series.{field}"


@pytest.mark.parametrize("rows, cols", [(0, 1), (1, 0), (-1, 1), (2, -3)])
def test_constructor_refuses_coefficient_sizes_below_one(rows, cols):
    with pytest.raises(ValueError, match="at least 1 x 1"):
        NcSeries(2, rows, cols, 2)


@pytest.mark.parametrize("sizes", [(2.5, 1, 1, 2), (2, 1.9, 1, 2),
                                   (2, 1, 1.0, 2), (2, 1, 1, 2.7),
                                   (2, 1, 1, "2"), (np.float64(2), 1, 1, 2)])
def test_constructor_refuses_non_integer_sizes(sizes):
    with pytest.raises(ValueError, match="not an integer"):
        NcSeries(*sizes, {(1, 2): 1.0})


def test_integer_sizes_of_numpy_type_are_accepted():
    f = NcSeries(np.int64(2), np.int32(1), 1, np.int64(2), {(1, 2): 1.0})
    assert (f.d, f.rows, f.cols, f.max_degree) == (2, 1, 1, 2)
    assert type(f.max_degree) is int


def test_json_rejects_letter_out_of_range():
    doc = to_json_dict(NcSeries.monomial((1,), 2, 2))
    doc["coeffs"][0]["word"] = [3]
    with pytest.raises(SchemaError):
        from_json_dict(doc)
