"""Frostman shifts, Crofoot multipliers, semigroups, idempotents."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nchardy.errors import (
    DiagnosticError,
    NotIdempotentError,
    NotInvertibleError,
    ShapeMismatchError,
)
from nchardy.evaluate import evaluate, random_point
from nchardy.fockspace import FockBasis, mult_operator, vec_to_series
from nchardy.kernels import model_gram, szego_gram
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    h2_norm,
    max_coeff_diff,
    rescale,
    series_invert,
    series_mul,
)
from nchardy.transforms import (
    cayley_herglotz,
    crofoot,
    eigenvector_shift,
    frostman,
    herglotz_min_real,
    homogeneous_degree,
    idempotent_split,
    semigroup_inner,
)

from fock_helpers import indices_through_degree


def mobius(T, w):
    """Matrix Mobius map (I - conj(w) T)^{-1} (T - w I): the exact value
    of the Frostman shift at a matrix point, by the evaluation
    homomorphism."""
    n = T.shape[0]
    return np.linalg.solve(np.eye(n) - np.conj(w) * T, T - w * np.eye(n))


def test_frostman_at_zero_is_identity():
    V = commutator_inner(max_degree=6)
    assert max_coeff_diff(frostman(V, 0.0, 6), V, 6) < 1e-15


def test_frostman_composition_inverse():
    V = commutator_inner(max_degree=8)
    back = frostman(frostman(V, 0.5, 8), -0.5, 8)
    assert max_coeff_diff(back, V, 8) < 1e-13


def test_frostman_matches_scalar_mobius():
    z = NcSeries.monomial((1,), 1, 20)
    w = 0.3 - 0.2j
    f = frostman(z, w, 20)
    t = 0.45 + 0.1j
    val = evaluate(f, [np.array([[t]])])[0, 0]
    want = (t - w) / (1.0 - np.conj(w) * t)
    assert abs(val - want) < 1e-10


def test_frostman_keeps_unit_h2_mass():
    V = commutator_inner(max_degree=8)
    f = frostman(V, 1.0 / np.sqrt(2.0), 8)
    m = h2_norm(f) ** 2
    assert 0.9 < m <= 1.0 + 1e-12


def test_frostman_rejects_boundary_parameter():
    V = commutator_inner(max_degree=4)
    with pytest.raises(ValueError):
        frostman(V, 1.0, 4)
    with pytest.raises(ShapeMismatchError):
        frostman(NcSeries.identity(2, 2, 3), 0.5, 3)


@pytest.mark.parametrize("transform", [frostman, crofoot])
@pytest.mark.parametrize("w", [complex("nan"), complex(0.0, float("nan")),
                               float("inf")])
def test_shifts_refuse_parameters_off_the_disk(transform, w):
    # every comparison with NaN is False, so the gate must not be >= 1
    with pytest.raises(ValueError, match="unit disk"):
        transform(commutator_inner(max_degree=4), w, 4)


def test_crofoot_links_to_frostman():
    V = commutator_inner(max_degree=8)
    w = 0.4 + 0.3j
    C = crofoot(V, w, 8)
    lhs = series_mul(C, V - w, 8)
    rhs = frostman(V, w, 8).scale(np.sqrt(1.0 - abs(w) ** 2))
    assert max_coeff_diff(lhs, rhs, 8) < 1e-13


def test_crofoot_gram_identity_exact():
    # the model gram of the shifted inner equals the conjugated model gram
    # of the original, computed entirely through exact matrix algebra
    rng = np.random.default_rng(40)
    thetas = [NcSeries.monomial((1,), 2, 4), commutator_inner(max_degree=4),
              NcSeries.monomial((1, 2), 2, 4)]
    for i in range(12):
        th = thetas[i % 3]
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        Z = random_point(rng, 2, n1, rng.uniform(0.2, 0.7))
        W = random_point(rng, 2, n2, rng.uniform(0.2, 0.7))
        v = rng.standard_normal(n1) + 1j * rng.standard_normal(n1)
        u = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
        w = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.random())
        G = szego_gram(Z, W, v, u)
        TZ, TW = evaluate(th, Z), evaluate(th, W)
        lhs = G - mobius(TZ, w) @ G @ mobius(TW, w).conj().T
        Gt = model_gram(th, Z, W, v, u)
        A = np.linalg.inv(np.eye(n1) - np.conj(w) * TZ)
        B = np.linalg.inv(np.eye(n2) - w * TW.conj().T)
        rhs = (1.0 - abs(w) ** 2) * A @ Gt @ B
        rel = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30)
        assert rel < 1e-12


def test_crofoot_gram_identity_series_route():
    # corroborate the exact route with a materialized truncation of the
    # shifted inner at a small row norm, where the tail is negligible
    rng = np.random.default_rng(41)
    th = NcSeries.monomial((1,), 2, 14)
    w = 0.5
    Z = random_point(rng, 2, 2, 0.2)
    W = random_point(rng, 2, 2, 0.2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    fs = frostman(th, w, 14)
    G = szego_gram(Z, W, v, u)
    FZ, FW = evaluate(fs, Z), evaluate(fs, W)
    lhs = G - FZ @ G @ FW.conj().T
    Gt = model_gram(th, Z, W, v, u)
    A = np.linalg.inv(np.eye(2) - np.conj(w) * evaluate(th, Z))
    B = np.linalg.inv(np.eye(2) - w * evaluate(th, W).conj().T)
    rhs = (1.0 - abs(w) ** 2) * A @ Gt @ B
    assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(lhs)


def test_homogeneous_degree():
    assert homogeneous_degree(commutator_inner(max_degree=5)) == 2
    assert homogeneous_degree(NcSeries.monomial((2,), 2, 3)) == 1
    mixed = NcSeries(2, 1, 1, 3, {(): 1.0, (1,): 1.0})
    assert homogeneous_degree(mixed) is None


def test_eigenvector_shift_produces_adjoint_eigenvector():
    N = 8
    V = commutator_inner(max_degree=N)
    basis = FockBasis(2, N)
    M = mult_operator(V, basis).mat
    ker = scipy.linalg.null_space(M.conj().T)
    h = ker[:, 0]
    w, r = 1.0 / np.sqrt(2.0), 0.95
    vec, res = eigenvector_shift(h, V, w, r)
    assert res < 1e-12
    # independent residual check on the trustworthy degrees
    Mr = mult_operator(rescale(V, r), basis).mat
    raw = Mr.conj().T @ vec - np.conj(w) * vec
    cut = indices_through_degree(basis, N - 2)
    assert np.linalg.norm(raw[cut]) < 1e-12


def test_eigenvector_shift_parameter_window():
    V = commutator_inner(max_degree=6)
    h = np.zeros(FockBasis(2, 6).dim)
    h[0] = 1.0
    with pytest.raises(ValueError):
        eigenvector_shift(h, V, 1.0 / np.sqrt(2.0), 0.8)
    with pytest.raises(ValueError):
        eigenvector_shift(h, V, 0.5, 1.0)
    mixed = NcSeries(2, 1, 1, 6, {(1,): 1.0, (1, 2): 1.0})
    with pytest.raises(ValueError):
        eigenvector_shift(h, mixed, 0.5, 0.9)
    # no degree of a basis below the symbol's degree is computed
    with pytest.raises(ValueError, match="exceeds the basis degree"):
        eigenvector_shift(h[:3], V, 0.5, 0.9, FockBasis(2, 1))


def test_cayley_herglotz_d1_coefficients():
    z = NcSeries.monomial((1,), 1, 6)
    H = cayley_herglotz(z)
    assert H.scalar_coeff(()) == pytest.approx(1.0)
    for k in range(1, 7):
        assert H.scalar_coeff((1,) * k) == pytest.approx(2.0)


def test_cayley_herglotz_square_inverse_relation():
    B = NcSeries(2, 2, 2, 5, {(1,): np.diag([0.5, 0.0]),
                              (2,): np.diag([0.0, 0.5])})
    H = cayley_herglotz(B)
    one = NcSeries.identity(2, 2, 5)
    lhs = series_mul(one - B.with_max_degree(5), H, 5)
    assert max_coeff_diff(lhs, one + B.with_max_degree(5), 5) < 1e-13


def test_herglotz_min_real_positive_for_contractive_symbol():
    H = cayley_herglotz(NcSeries.monomial((1,), 2, 6, value=0.9))
    worst = herglotz_min_real(H, num_samples=20)
    # |B| <= 0.9 on the ball keeps Re H >= (1-0.9)/(1+0.9)
    assert worst > 0.04


@pytest.mark.parametrize("rows, cols", [(1, 2), (2, 1), (2, 3)])
def test_herglotz_min_real_refuses_non_square_series(rows, cols):
    # Re H(Z) = (A + A^H) / 2 needs a square value; cayley_herglotz
    # refuses the same shapes
    H = NcSeries(2, rows, cols, 2, {(): np.ones((rows, cols))})
    with pytest.raises(ShapeMismatchError, match="square"):
        herglotz_min_real(H, num_samples=3)
    with pytest.raises(ShapeMismatchError, match="square"):
        cayley_herglotz(H)


@pytest.mark.parametrize("num_samples", [0, -2])
def test_herglotz_min_real_refuses_zero_sample_points(num_samples):
    # no sample point would leave the minimum at +inf and pass any > 0 check
    # on a symbol whose real part is -5 everywhere
    H = NcSeries(2, 1, 1, 2, {(): -5.0})
    with pytest.raises(ValueError, match="at least one sample"):
        herglotz_min_real(H, num_samples=num_samples)
    assert herglotz_min_real(H, num_samples=1) == -5.0


@pytest.mark.parametrize("num_samples", [2.5, True, "3"])
def test_herglotz_min_real_refuses_non_integer_sample_counts(num_samples):
    H = NcSeries(2, 1, 1, 2, {(): -5.0})
    with pytest.raises(ValueError, match="not an integer"):
        herglotz_min_real(H, num_samples=num_samples)


def test_semigroup_constant_term_and_law():
    z1 = NcSeries.monomial((1,), 2, 8)
    t, s = 0.5, 0.25
    Bt = semigroup_inner(z1, t, 8)
    Bs = semigroup_inner(z1, s, 8)
    Bts = semigroup_inner(z1, t + s, 8)
    assert abs(Bt.scalar_coeff(()) - np.exp(-t)) < 1e-13
    assert max_coeff_diff(series_mul(Bt, Bs, 8), Bts, 8) < 1e-13


def test_semigroup_identity_at_zero_and_domain():
    z1 = NcSeries.monomial((1,), 2, 5)
    B0 = semigroup_inner(z1, 0.0, 5)
    assert max_coeff_diff(B0, NcSeries.constant(1.0, 2, 5), 5) < 1e-15
    for t in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t = .* finite and >= 0"):
            semigroup_inner(z1, t, 5)


B0_EQUAL_TO_ONE = [
    NcSeries.constant(1.0, 2, 4),
    NcSeries(2, 1, 1, 4, {(): 1.0, (1,): 0.5, (2, 1): -0.25}),
    NcSeries(1, 1, 1, 4, {(): 1.0, (1,): 1.0}),
]
B0_IDS = ["one", "one_plus_d2", "one_plus_z"]


@pytest.mark.parametrize("B", B0_EQUAL_TO_ONE, ids=B0_IDS)
def test_semigroup_refuses_b0_equal_to_one(B):
    # 1 - B(0) = 0: B has no Cayley transform
    with pytest.raises(NotInvertibleError) as info:
        semigroup_inner(B, 0.5, 4)
    assert info.value.smallest_sigma == 0.0


@pytest.mark.parametrize("build", [
    lambda: frostman(NcSeries.constant(2.0, 2, 4), 0.5),
    lambda: crofoot(NcSeries.constant(2.0, 2, 4), 0.5),
    *[lambda B=B: cayley_herglotz(B) for B in B0_EQUAL_TO_ONE],
], ids=["frostman", "crofoot", *("cayley_" + i for i in B0_IDS)])
def test_transforms_refuse_a_zero_denominator_constant(build):
    # 1 - conj(w) theta(0) = 0 or 1 - B(0) = 0: nothing to invert
    with pytest.raises(NotInvertibleError) as info:
        build()
    assert info.value.smallest_sigma == 0.0


def test_semigroup_refuses_non_scalar_symbols():
    for B in (NcSeries.identity(2, 2, 3),
              NcSeries(2, 1, 2, 3, {(1,): np.ones((1, 2))})):
        with pytest.raises(ShapeMismatchError, match="scalar"):
            semigroup_inner(B, 0.5, 3)


@pytest.mark.parametrize("N", [2.5, "3", True])
def test_semigroup_refuses_non_integer_orders(N):
    with pytest.raises(ValueError, match="not an integer"):
        semigroup_inner(NcSeries.monomial((1,), 2, 2), 0.5, N)


def test_semigroup_refuses_an_order_below_the_degree():
    with pytest.raises(ValueError, match="below the stored degree"):
        semigroup_inner(NcSeries.monomial((1, 2, 1), 2, 3), 0.5, 2)


def expm_semigroup(B, t, N):
    """Vacuum column of the dense exponential of the multiplication
    operator of -t H_B on the order-N Fock space."""
    basis = FockBasis(B.d, N)
    G = mult_operator(cayley_herglotz(B, N), basis).mat
    return vec_to_series(scipy.linalg.expm(-t * G)[:, 0], basis)


@pytest.mark.parametrize("B", [
    NcSeries.monomial((1,), 2, 8),
    NcSeries.monomial((1, 2), 2, 8),
    commutator_inner(max_degree=8),
    NcSeries.monomial((1,), 1, 8),
], ids=["z1", "z1z2", "V", "d1_z"])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 1.5])
@pytest.mark.parametrize("N", [3, 8])
def test_semigroup_matches_dense_expm(B, t, N):
    got = semigroup_inner(B.truncate(N), t, N)
    assert max_coeff_diff(got, expm_semigroup(B.truncate(N), t, N), N) \
        <= 1e-13


@st.composite
def generators(draw):
    """Monomial inners z^w and the commutator V, at an order N <= 6, each
    either as it is or Frostman-shifted by |w| <= 0.95, which moves B(0)
    to -w."""
    if draw(st.booleans()):
        N = draw(st.integers(2, 6))
        B = commutator_inner(max_degree=N)
    else:
        d = draw(st.integers(1, 3))
        word = tuple(draw(st.lists(st.integers(1, d), min_size=1,
                                   max_size=3)))
        N = draw(st.integers(len(word), 6))
        B = NcSeries.monomial(word, d, N)
    if draw(st.booleans()):
        r, turn = draw(st.floats(0.0, 0.95)), draw(st.floats(0.0, 1.0))
        B = frostman(B, r * np.exp(2j * np.pi * turn), N)
    return B, N


unit = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(generators(), unit, unit)
def test_semigroup_law_property(gen, t, s):
    B, N = gen
    lhs = semigroup_inner(B, t + s, N)
    rhs = series_mul(semigroup_inner(B, t, N), semigroup_inner(B, s, N), N)
    assert max_coeff_diff(lhs, rhs, N) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(generators())
def test_semigroup_at_zero_is_exactly_one(gen):
    B, N = gen
    S0 = semigroup_inner(B, 0.0, N)
    assert set(S0.coeffs) == {()}
    assert S0.scalar_coeff(()) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), unit)
def test_semigroup_d1_constant_is_exp_minus_t(N, t):
    S = semigroup_inner(NcSeries.monomial((1,), 1, N), t, N)
    assert abs(S.scalar_coeff(()) - np.exp(-t)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), unit, st.floats(0.0, 0.95), unit)
def test_semigroup_d1_constant_is_sigma_t_at_b0(N, t, r, turn):
    # B(0) = -w for the Frostman shift of z, and exp(-t H_B) has the
    # constant term sigma_t(B(0)) = exp(-t (1 + b0)/(1 - b0))
    w = r * np.exp(2j * np.pi * turn)
    B = frostman(NcSeries.monomial((1,), 1, N), w, N)
    S = semigroup_inner(B, t, N)
    want = np.exp(-t * (1.0 - w) / (1.0 + w))
    assert abs(S.scalar_coeff(()) - want) <= 1e-12


def test_semigroup_h2_mass_stays_below_one():
    z1 = NcSeries.monomial((1,), 2, 8)
    B = semigroup_inner(z1, 1.0, 8)
    assert h2_norm(B) <= 1.0 + 1e-12


def test_idempotent_split_canonical():
    E = NcSeries(2, 2, 2, 6, {(): np.array([[1.0, 0.0], [0.0, 0.0]]),
                              (1,): np.array([[0.0, 1.0], [0.0, 0.0]])})
    sp = idempotent_split(E)
    assert (sp.m, sp.k) == (1, 1)
    assert sp.residual < 1e-14
    assert np.allclose(sp.P, np.diag([1.0, 0.0]))


def test_idempotent_split_conjugated_projection():
    rng = np.random.default_rng(42)
    n, N = 3, 4
    P0 = np.diag([1.0, 1.0, 0.0])
    coeffs = {(): np.eye(n)}
    for wd in [(1,), (2,)]:
        coeffs[wd] = 0.3 * (rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
    T = NcSeries(2, n, n, N, coeffs)
    E = series_mul(series_mul(T, NcSeries.constant(P0, 2, N), N),
                   series_invert(T, N), N)
    sp = idempotent_split(E)
    assert (sp.m, sp.k) == (2, 1)
    assert sp.m + sp.k == n
    assert sp.residual < 1e-12
    conj = series_mul(series_mul(sp.S, E, N), series_invert(sp.S, N), N)
    assert max_coeff_diff(conj, NcSeries.constant(sp.P, 2, N), N) < 1e-12


def test_idempotent_gate_rejects_non_idempotent():
    E = NcSeries(2, 2, 2, 4, {(): np.array([[1.0, 0.0], [0.0, 0.5]]),
                              (1,): np.array([[0.0, 1.0], [0.0, 0.0]])})
    with pytest.raises(NotIdempotentError) as info:
        idempotent_split(E)
    assert info.value.residual > 0.1


@pytest.mark.parametrize("gate", [np.nan, np.inf, -1.0])
def test_idempotent_gate_must_be_finite_and_nonnegative(gate):
    E = NcSeries(2, 2, 2, 4, {(): np.array([[1.0, 0.0], [0.0, 0.5]]),
                              (1,): np.array([[0.0, 1.0], [0.0, 0.0]])})
    for series in (E, NcSeries.identity(2, 2, 4)):
        with pytest.raises(ValueError, match="gate must be finite"):
            idempotent_split(series, gate=gate)


def shifted_inputs():
    """(theta, N): the commutator inner, whose Frostman quotient takes
    the sparse inverse and product, and a full-support d = 3 symbol,
    whose quotient fills the dense word-code levels."""
    dense = NcSeries(3, 1, 1, 4, {(1,): 0.3, (2,): 0.2j, (3,): -0.4,
                                  (1, 2): 0.1, (3, 1): -0.2j})
    return [(commutator_inner(max_degree=5), 5),
            (commutator_inner(max_degree=8), 8), (dense, 4)]


def disk_denominator(theta, w, N):
    th = theta.with_max_degree(N)
    one = NcSeries.constant(1.0, theta.d, N)
    return th, one, one - th.scale(np.conj(w))


@pytest.mark.parametrize("theta, N", shifted_inputs(),
                         ids=["V_N5", "V_N8", "dense_d3"])
@pytest.mark.parametrize("w", [0.3 + 0.2j, -0.7j, 0.0])
def test_crofoot_is_bitwise_the_scaled_inverse(theta, N, w):
    _, _, denom = disk_denominator(theta, w, N)
    want = series_invert(denom, N).scale(np.sqrt(1.0 - abs(w) ** 2))
    got = crofoot(theta, w, N)
    assert (got.d, got.max_degree) == (want.d, want.max_degree)
    assert got.codes.tobytes() == want.codes.tobytes()
    assert got.C.tobytes() == want.C.tobytes()


@pytest.mark.parametrize("theta, N", shifted_inputs(),
                         ids=["V_N5", "V_N8", "dense_d3"])
@pytest.mark.parametrize("w", [0.3 + 0.2j, -0.7j, 0.0])
def test_frostman_is_the_left_quotient_too(theta, N, w):
    # the two factors commute, so the right quotient equals the left one
    th, one, denom = disk_denominator(theta, w, N)
    want = series_mul(series_invert(denom, N), th - one.scale(w), N)
    got = frostman(theta, w, N)
    assert got.max_degree == want.max_degree == N
    scale = float(np.abs(want.C).max())
    assert max_coeff_diff(got, want, N) <= 1e-15 * scale
