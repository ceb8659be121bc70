"""The Blaschke/singular split against the code it replaced.

The reference below is the earlier split, kept here as a test-local copy:
it takes the range frame from a range-closure subspace, builds the kernel
frame once for the defect and again for the mixed branch, and takes the
singularity space from a scipy null-space SVD of the kernel frame, whose
dense wandering projection it solves with eigh.  The library builds one
kernel frame and reads the wandering vector off the thin product
(I - QK QK^H) [e0, R_1 QK, ..., R_d QK].  Both take every Blaschke part
from the wandering vector; neither decides on the defect.
On the corpus both must agree bit for bit: flags, wandering dimension,
every defect and every Blaschke and singular coefficient.  The Frostman
shift, whose frame is not a set of coordinate vectors, agrees in flags and
count, and in values within 1e-14 over the union of the supports: the
reference's eigen-solve leaves rounding noise (below 1e-16) on words where
the library's thin product leaves exact zeros.
"""

import numpy as np
import pytest
import scipy.linalg

from nchardy import factorization, fockspace
from nchardy.classical import atomic_singular, blaschke_product, jordan_pair
from nchardy.evaluate import MatrixPoint
from nchardy.factorization import (
    blaschke_singular_split,
    crofoot_kernel_frame,
    shift_adjoint_apply,
)
from nchardy.fockspace import (
    FockBasis,
    mult_operator,
    orthonormal_frame,
    vec_to_series,
)
from nchardy.kernels import (
    SingularityPair,
    check_inner,
    inner_defect,
    sing_space_complement,
)
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    max_coeff_diff,
    phase_normalize,
    series_mul,
)
from nchardy.transforms import frostman, semigroup_inner

from dense_wandering import (
    dense_wandering_vector,
    wandering_projection,
    wandering_vectors,
)
from fock_helpers import indices_through_degree, symbol

N = 8
TS = (0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


# -- the replaced split -------------------------------------------------


def reference_kernel_frame(pairs, N, extra_frame, d):
    cols = []
    if pairs:
        QK = sing_space_complement(pairs, N=N)
        if QK.shape[1]:
            cols.append(QK)
    if extra_frame is not None and extra_frame.size:
        cols.append(np.asarray(extra_frame, dtype=complex))
    if not cols:
        return np.zeros((FockBasis(d, N).dim, 0), dtype=complex)
    return orthonormal_frame(np.concatenate(cols, axis=1))


def reference_range_frame(theta, N, col_degree):
    basis = FockBasis(theta.d, N)
    op = mult_operator(theta, basis)
    return basis, orthonormal_frame(op.restricted(col_degree))


def reference_defect(theta, pairs, N, extra_frame):
    valid = N - theta.degree()
    col_degree = valid if valid >= 1 else min(3, N)
    window = col_degree if valid >= 1 else max(col_degree - 1, 0)
    basis, frame = reference_range_frame(theta, N, col_degree)
    Pperp = np.eye(basis.dim, dtype=complex) - frame @ frame.conj().T
    QK = reference_kernel_frame(pairs, N, extra_frame, theta.d)
    PK = QK @ QK.conj().T
    cut = indices_through_degree(basis, window)
    return float(np.linalg.norm((Pperp - PK)[np.ix_(cut, cut)], 2))


def reference_split(theta, pairs, N, extra_frame):
    """(blaschke, singular, wandering_dim, defects, flags) when kernel data
    are given."""
    check_inner(theta)
    one = NcSeries.constant(1.0, theta.d, N)
    defect = reference_defect(theta, pairs, N, extra_frame)
    QK = reference_kernel_frame(pairs, N, extra_frame, theta.d)
    basis = FockBasis(theta.d, N)
    comp = scipy.linalg.null_space(QK.conj().T)
    P = wandering_projection(comp @ comp.conj().T, basis)
    W, _ = wandering_vectors(P, tol=1e-6)
    if W.shape[1] != 1:
        return one, theta.copy(), W.shape[1], {
            "blaschke_defect": defect,
            "wandering_count": W.shape[1]}, ["sampling-insufficient"]
    B, _ = phase_normalize(vec_to_series(W[:, 0], basis))
    S = shift_adjoint_apply(B, theta, N)
    recon = max_coeff_diff(series_mul(B, S, N), theta,
                           max(0, N - B.degree()))
    return B, S, 1, {"blaschke_defect": defect,
                     "reconstruction_error": recon,
                     "blaschke_inner_defect": inner_defect(B),
                     "singular_inner_defect": inner_defect(S)}, []


# -- corpus -------------------------------------------------------------


def prefix_complement_frame(prefix, N):
    """Coordinate vectors at the words that do not start with prefix: an
    exact basis for the orthocomplement of z^prefix times the Hardy
    space."""
    basis = FockBasis(2, N)
    idx = [i for i, w in enumerate(basis.words)
           if tuple(w[:len(prefix)]) != prefix]
    return np.eye(basis.dim)[:, idx]


def blaschke_times_sigma(prefix, t):
    B = NcSeries.monomial(prefix, 2, N)
    sigma = semigroup_inner(NcSeries.monomial((1,), 2, N), t, N)
    return series_mul(B, sigma, N), [], prefix_complement_frame(prefix, N)


def frostman_shift():
    V = commutator_inner(max_degree=N)
    w = 1.0 / np.sqrt(2.0)
    return frostman(V, w, N), [], crofoot_kernel_frame(V, w, N)


def thin_pairs(n=N):
    # kernels at commuting points: the wandering vector is not unique
    V = NcSeries(2, 1, 1, n, {(1, 2): 2 ** -0.5, (2, 1): -(2 ** -0.5)})
    Za = MatrixPoint([0.5 * np.array([[0.0, 1.0], [0.0, 0.0]]),
                      np.zeros((2, 2))])
    Zb = MatrixPoint([np.zeros((2, 2)),
                      0.5 * np.array([[0.0, 0.0], [1.0, 0.0]])])
    pairs = [SingularityPair(Za, np.array([1.0, 0.0])),
             SingularityPair(Zb, np.array([0.0, 1.0]))]
    return V, pairs, None


# the last field is the tolerance on every value: 0 asks for equality
CORPUS = [pytest.param(blaschke_times_sigma, (prefix, t), 0.0,
                       id=f"z{''.join(map(str, prefix))}_sigma{t}")
          for prefix in ((1,), (2,), (1, 2)) for t in TS] + [
    # the reference projects with a scipy null-space complement of the
    # Crofoot frame, which matches I - QK QK^H only up to rounding
    pytest.param(frostman_shift, (), 1e-14, id="frostman_V_crofoot"),
    pytest.param(thin_pairs, (), 0.0, id="thin_pairs"),
]


def assert_same_series(got, want, tol=0.0):
    """Equal sizes and coefficients within tol.  At tol 0 the supports
    must be equal; otherwise words are compared over the union of the
    supports, an absent word counting as 0."""
    assert (got.d, got.rows, got.cols, got.max_degree) == \
        (want.d, want.rows, want.cols, want.max_degree)
    if tol == 0.0:
        assert sorted(got.coeffs) == sorted(want.coeffs)
    for w in set(got.coeffs) | set(want.coeffs):
        assert np.max(np.abs(got.coeff(w) - want.coeff(w))) <= tol, w


@pytest.mark.parametrize("make, args, tol", CORPUS)
def test_split_matches_replaced_code_bitwise(make, args, tol):
    theta, pairs, frame = make(*args)
    B, S, wdim, defects, flags = reference_split(theta, pairs, N, frame)
    res = blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
    assert res.flags == flags
    assert res.wandering_dim == wdim
    assert sorted(res.defects) == sorted(defects)
    for key, val in defects.items():
        assert abs(res.defects[key] - val) <= tol, key
    assert_same_series(res.blaschke, B, tol)
    assert_same_series(res.singular, S, tol)


@pytest.mark.parametrize("prefix", [(1,), (2,), (1, 2)])
@pytest.mark.parametrize("t", [0.01, 0.05, 0.15])
def test_split_recovers_the_monomial_at_small_t(prefix, t):
    # the Blaschke defect shrinks with t, yet theta stays up to 0.26 away
    # from its Blaschke part z^prefix
    theta, pairs, frame = blaschke_times_sigma(prefix, t)
    res = blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
    assert res.flags == []
    assert max_coeff_diff(res.blaschke, NcSeries.monomial(prefix, 2, N),
                          N) == 0.0


def test_frostman_split_reports_its_reconstruction_error():
    # a full-support Blaschke inner against a truncated Crofoot frame: the
    # computed wandering vector is near theta, and the error is reported
    theta, pairs, frame = frostman_shift()
    res = blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
    assert res.flags == []
    assert res.wandering_dim == 1
    assert max_coeff_diff(res.blaschke, phase_normalize(theta)[0],
                          N) <= 2e-2
    assert res.defects["reconstruction_error"] > 0


def test_split_builds_its_kernel_frame_once(monkeypatch):
    calls = []
    frame_of = factorization._combined_kernel_frame

    def counting(*args):
        calls.append(1)
        return frame_of(*args)

    monkeypatch.setattr(factorization, "_combined_kernel_frame", counting)
    theta, pairs, frame = blaschke_times_sigma((1,), 0.5)
    res = blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
    assert "singular_inner_defect" in res.defects
    assert len(calls) == 1


# -- the thin wandering product against the dense eigen-solve ----------


def split_both_ways(monkeypatch, theta, pairs, frame, n=N):
    """The split as it is, and with the dense wandering projection and its
    eigh in place of the thin product."""
    thin = blaschke_singular_split(theta, pairs, N=n, extra_frame=frame)
    with monkeypatch.context() as m:
        m.setattr(factorization, "_wandering_vector", dense_wandering_vector)
        dense = blaschke_singular_split(theta, pairs, N=n, extra_frame=frame)
    return thin, dense


def assert_same_split(got, want, tol):
    assert got.flags == want.flags
    assert got.wandering_dim == want.wandering_dim
    assert sorted(got.defects) == sorted(want.defects)
    for key, val in want.defects.items():
        assert abs(got.defects[key] - val) <= tol, key
    assert_same_series(got.blaschke, want.blaschke, tol)
    assert_same_series(got.singular, want.singular, tol)


@pytest.mark.parametrize("prefix", [(1,), (2,), (1, 2)])
@pytest.mark.parametrize("t", (0.01, 0.05) + TS)
def test_thin_product_matches_the_dense_eigh_bitwise(monkeypatch, prefix, t):
    thin, dense = split_both_ways(monkeypatch,
                                  *blaschke_times_sigma(prefix, t))
    assert thin.flags == []
    assert_same_split(thin, dense, 0.0)


def test_thin_product_counts_thin_pairs_like_the_dense_eigh(monkeypatch):
    thin, dense = split_both_ways(monkeypatch, *thin_pairs())
    assert thin.flags == dense.flags == ["sampling-insufficient"]
    assert thin.wandering_dim == dense.wandering_dim == 4
    assert thin.defects == dense.defects


def test_thin_product_matches_the_dense_eigh_on_the_frostman_shift(
        monkeypatch):
    thin, dense = split_both_ways(monkeypatch, *frostman_shift())
    assert thin.flags == []
    assert_same_split(thin, dense, 1e-14)


@pytest.mark.parametrize("zeros", [[0.5], [0.3, -0.6j]])
@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 0.2])
def test_thin_product_matches_the_dense_eigh_in_one_variable(
        monkeypatch, zeros, t):
    # the corpus of test_split_recovers_a_classical_blaschke_product
    n = 30
    theta = series_mul(blaschke_product(zeros, n), atomic_singular(t, n), n)
    pairs = [SingularityPair(jordan_pair(a, 1)["point"], np.ones(1))
             for a in zeros]
    thin, dense = split_both_ways(monkeypatch, theta, pairs, None, n)
    assert thin.flags == []
    assert_same_split(thin, dense, 1e-12)


def test_split_calls_no_eigh(monkeypatch):
    cases = [blaschke_times_sigma((1,), 0.5), frostman_shift(), thin_pairs()]
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for theta, pairs, frame in cases:
        blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
    assert calls == []


def test_thin_pairs_at_degree_ten_are_sampling_insufficient():
    theta, pairs, _ = thin_pairs(10)
    res = blaschke_singular_split(theta, pairs, N=10)
    assert res.flags == ["sampling-insufficient"]
    assert res.wandering_dim == 4
    assert res.defects["wandering_count"] == 4


def loop_vec_to_series(v, basis, rows=1, cols=None):
    """vec_to_series as it was: one np.any per word."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if cols is None:
        cols = v.shape[1]
    coeffs = {}
    for i, w in enumerate(basis.words):
        block = v[i * rows:(i + 1) * rows, :]
        if np.any(block):
            coeffs[w] = block.copy()
    return NcSeries(basis.d, rows, cols, basis.max_degree, coeffs)


def assert_same_terms(got, want):
    assert list(got.coeffs) == list(want.coeffs)
    for w, m in want.coeffs.items():
        assert np.array_equal(got.coeffs[w], m), w


@pytest.mark.parametrize("make, args", [
    (blaschke_times_sigma, ((1,), 0.5)),
    (blaschke_times_sigma, ((1, 2), 0.01)),
    (frostman_shift, ()),
    (thin_pairs, ()),
], ids=["z1", "z1z2", "crofoot", "pairs"])
def test_vec_to_series_keeps_every_nonzero_block(make, args):
    theta, pairs, frame = make(*args)
    basis = FockBasis(2, N)
    QK = factorization._combined_kernel_frame(pairs, N, frame, 2)
    vectors = [QK[:, :3]]
    for wandering in (factorization._wandering_vector,
                      dense_wandering_vector):
        count, w = wandering(QK, basis)
        if count == 1:
            vectors.append(w)
    for v in vectors:
        assert_same_terms(vec_to_series(v, basis), loop_vec_to_series(v, basis))
    # a scalar symbol and a 2 x 3 one
    rng = np.random.default_rng(7)
    wide = NcSeries(2, 2, 3, N, {w: rng.standard_normal((2, 3))
                                  for w in basis.words[:40:3]})
    for f in (theta, wide):
        op = mult_operator(f, basis)
        assert_same_terms(symbol(op), loop_vec_to_series(
            op.mat[:, :f.cols], basis, f.rows, f.cols))


# -- the kernel frame taken as given ------------------------------------


def count_frames(monkeypatch):
    calls = []
    frame_of = factorization.orthonormal_frame

    def counting(columns):
        calls.append(np.shape(columns))
        return frame_of(columns)

    monkeypatch.setattr(factorization, "orthonormal_frame", counting)
    return calls


@pytest.mark.parametrize("make, args", [
    (blaschke_times_sigma, ((1, 2), 0.5)),
    (frostman_shift, ()),
    (thin_pairs, ()),
], ids=["coordinate", "crofoot", "pairs"])
def test_orthonormal_kernel_frame_reaches_no_svd(monkeypatch, make, args):
    _, pairs, frame = make(*args)
    want = frame if frame is not None else sing_space_complement(pairs, N=N)
    calls = count_frames(monkeypatch)
    QK = factorization._combined_kernel_frame(pairs, N, frame, 2)
    assert calls == []
    assert np.array_equal(QK, want)


def test_pairs_with_a_frame_or_scaled_columns_still_orthonormalize(
        monkeypatch):
    _, pairs, _ = thin_pairs()
    frame = prefix_complement_frame((1, 2), N)
    calls = count_frames(monkeypatch)
    for pairs_in, frame_in in ((pairs, frame), ([], 2.0 * frame),
                               (pairs, None)):
        QK = factorization._combined_kernel_frame(pairs_in, N, frame_in, 2)
        assert np.abs(QK.conj().T @ QK - np.eye(QK.shape[1])).max() <= 1e-14
    # the pair frame alone is already orthonormal
    assert len(calls) == 2
    QK = factorization._combined_kernel_frame([], N, 2.0 * frame, 2)
    assert np.abs(QK @ QK.conj().T - frame @ frame.T).max() <= 1e-14
    # a real frame that needs the SVD comes back real
    assert QK.dtype == np.float64


@pytest.mark.parametrize("t", [0.3, 0.65, 1.0])
def test_split_takes_a_coordinate_frame_as_given(monkeypatch, t):
    theta, pairs, frame = blaschke_times_sigma((1,), t)
    calls = count_frames(monkeypatch)
    res = blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
    assert res.flags == []
    assert max_coeff_diff(res.blaschke, NcSeries.monomial((1,), 2, N),
                          N) == 0.0
    # only the range frame of the Blaschke defect takes an SVD
    assert len(calls) == 1


def test_split_builds_no_multiplication_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense multiplication operator built")

    monkeypatch.setattr(fockspace, "mult_operator", refuse)
    monkeypatch.setattr(fockspace, "OperatorMatrix", refuse)
    for t in (0.3, 0.65, 1.0):
        theta, pairs, frame = blaschke_times_sigma((1,), t)
        res = blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
        assert res.flags == []
        assert max_coeff_diff(res.blaschke, NcSeries.monomial((1,), 2, N),
                              N) == 0.0
    # the Crofoot frame is two column scatters
    assert frostman_shift()[2].shape[1]


def test_a_full_rank_sketch_is_drawn_again_wider():
    # 1 + d r = 8 columns exceed the first sketch's 6, and all but the
    # vacuum are wandering: the first sketch has full rank and misses one
    z1 = NcSeries.monomial((1,), 7, 2)
    basis = FockBasis(7, 2)
    e0 = np.eye(basis.dim)[:, :1]
    res = blaschke_singular_split(z1, [], N=2, extra_frame=e0)
    assert res.flags == ["sampling-insufficient"]
    assert res.defects["wandering_count"] == 7
    assert dense_wandering_vector(e0.astype(complex), basis)[0] == 7


def test_split_of_a_zero_rank_frame_takes_the_no_pairs_path():
    z1 = NcSeries.monomial((1,), 2, 4)
    res = blaschke_singular_split(z1, [], N=4, extra_frame=np.zeros((31, 2)))
    assert res.flags == ["no-pairs"]
    assert res.diagnostic
    assert res.wandering_dim == 0
    assert_same_series(res.singular, z1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_split_refuses_a_non_finite_frame(bad):
    theta, pairs, frame = blaschke_times_sigma((1,), 0.5)
    frame = frame.astype(complex)
    frame[3, 0] = bad
    with pytest.raises(ValueError, match="extra_frame"):
        blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)


@pytest.mark.parametrize("make, args", [
    (blaschke_times_sigma, ((1,), 0.5)), (frostman_shift, ())],
    ids=["coordinate_frame", "crofoot_frame"])
def test_split_reads_the_callers_frame_in_place(make, args):
    theta, pairs, frame = make(*args)
    before = frame.copy()
    # an orthonormal float or complex frame is taken as it is, not copied
    assert factorization._combined_kernel_frame([], N, frame, 2) is frame
    res = blaschke_singular_split(theta, pairs, N=N, extra_frame=frame)
    ref = blaschke_singular_split(theta, pairs, N=N,
                                  extra_frame=before.copy())
    assert frame.tobytes() == before.tobytes()
    for got, want in ((res.blaschke, ref.blaschke),
                      (res.singular, ref.singular)):
        assert got.codes.tobytes() == want.codes.tobytes()
        assert got.C.tobytes() == want.C.tobytes()
    assert repr(res.defects) == repr(ref.defects)
    assert res.flags == ref.flags
