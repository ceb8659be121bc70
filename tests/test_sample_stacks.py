"""Sampling on point stacks against the per-point path it replaced.

The references below keep the earlier per-point code: one list of d
matrices per draw, each scaled by its own row norm, and a regrouping of
those points by size into stacks before evaluation.  random_points,
singular_test and herglotz_min_real must reproduce them bitwise, leave the
generator at the same stream position, and build no MatrixPoint.  The one
exception is singular_test's r-grid, which the NC Toeplitz Gram's
smallest eigenvalue gives to rounding against the least singular value of
the reference's dense multiplication operator.
"""

import importlib

import numpy as np
import pytest

import nchardy.fockspace as fockspace
from nchardy.evaluate import (
    MatrixPoint,
    evaluate_batch,
    random_point,
    random_points,
)
from nchardy.factorization import SINGULAR_SIGMA_TOL, singular_test
from nchardy.fockspace import FockBasis, mult_operator
from nchardy.kernels import check_inner
from nchardy.ncseries import NcSeries, commutator_inner, rescale
from nchardy.transforms import (
    cayley_herglotz,
    herglotz_min_real,
    semigroup_inner,
)

evaluate_module = importlib.import_module("nchardy.evaluate")

# interleaved sizes; 13 points, not a multiple of the three sizes
SIZES = (2, 1, 3, 3, 1, 2, 2, 3, 1, 1, 3, 2, 2)


def per_point_draw(rng, d, n, row_norm):
    """One Ginibre tuple, two n x n draws per letter, scaled on its own."""
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(d)]
    current = per_point_row_norm(mats)
    return [(row_norm / current) * m for m in mats]


def per_point_row_norm(mats):
    S = sum(m @ m.conj().T for m in mats)
    return float(np.sqrt(max(np.linalg.eigvalsh(S)[-1], 0.0)))


def grouped_values(f, points):
    """Values at a list of points, stacked by size in increasing n with
    each stack in list order, as the list-taking evaluation grouped them."""
    sizes = np.array([len(mats[0]) for mats in points])
    return [evaluate_batch(f, np.array([points[i] for i in
                                        np.flatnonzero(sizes == n)]))
            for n in np.unique(sizes)]


def per_point_singular_test(S, rng, num_samples, levels=(1, 2, 3),
                            row_norm=0.7, tol=SINGULAR_SIGMA_TOL,
                            r_grid=(0.5, 0.9)):
    check_inner(S)
    report = {"tol": tol, "r_grid": {}, "num_samples": 0}
    c0 = S.coeff(())
    s0 = float(np.linalg.svd(np.atleast_2d(c0), compute_uv=False)[-1])
    report["constant_sigma"] = s0
    samples = [per_point_draw(rng, S.d, levels[i % len(levels)], row_norm)
               for i in range(num_samples)]
    min_sigma = np.inf
    for A in grouped_values(S, samples):
        sv = np.linalg.svd(A, compute_uv=False)
        min_sigma = min(min_sigma, float(sv[:, -1].min()))
    report["num_samples"] = len(samples)
    report["min_sample_sigma"] = float(min_sigma)
    basis = FockBasis(S.d, S.max_degree)
    for r in r_grid:
        op = mult_operator(rescale(S, r), basis)
        C = op.restricted(op.valid_degree)
        report["r_grid"][r] = float(np.linalg.svd(C, compute_uv=False)[-1])
    report["singular"] = bool(
        s0 > tol and min_sigma > tol
        and all(v > tol for v in report["r_grid"].values()))
    return report


def per_point_herglotz_min_real(H, rng, num_samples, levels=(1, 2, 3),
                                row_norm=0.6):
    samples = [per_point_draw(rng, H.d, levels[i % len(levels)], row_norm)
               for i in range(num_samples)]
    worst = np.inf
    for A in grouped_values(H, samples):
        vals = np.linalg.eigvalsh(0.5 * (A + A.conj().swapaxes(-1, -2)))
        worst = min(worst, float(vals[:, 0].min()))
    return worst


@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_points_match_per_point_draws(d):
    rng_ref = np.random.default_rng(40 + d)
    rng = np.random.default_rng(40 + d)
    ref = [per_point_draw(rng_ref, d, n, 0.7) for n in SIZES]
    stacks = random_points(rng, d, SIZES, 0.7)
    assert [Zs.shape[-1] for Zs in stacks] == [1, 2, 3]
    for Zs in stacks:
        n = Zs.shape[-1]
        want = np.array([mats for mats, m in zip(ref, SIZES) if m == n])
        assert np.array_equal(Zs, want)
    assert np.array_equal(rng.standard_normal(7), rng_ref.standard_normal(7))
    # the one-point case and the row norm of a point agree with the old code
    Z, mats = random_point(rng, d, 3, 0.6), per_point_draw(rng_ref, d, 3, 0.6)
    assert np.array_equal(np.array(Z.mats), np.array(mats))
    assert Z.row_norm() == per_point_row_norm(mats)


GENERATORS = {"z1": NcSeries.monomial((1,), 2, 8),
              "z1z2": NcSeries.monomial((1, 2), 2, 8),
              "V": commutator_inner(max_degree=8),
              "z1_d3": NcSeries.monomial((1,), 3, 4)}


@pytest.mark.parametrize("t", [0.35, 0.8])
@pytest.mark.parametrize("name", list(GENERATORS))
def test_sampling_matches_per_point_path(name, t):
    B = GENERATORS[name]
    S = semigroup_inner(B, t, B.max_degree)
    seed = int(100 * t) + len(name)
    want = per_point_singular_test(S, np.random.default_rng(seed), 40)
    got = singular_test(S, rng=np.random.default_rng(seed), num_samples=40)
    assert list(got) == list(want)
    assert list(got["r_grid"]) == list(want["r_grid"])
    for r, sigma in want["r_grid"].items():
        assert abs(got["r_grid"][r] - sigma) <= 1e-14 * sigma
    assert {k: v for k, v in got.items() if k != "r_grid"} == \
        {k: v for k, v in want.items() if k != "r_grid"}
    H = cayley_herglotz(S)
    assert herglotz_min_real(H, rng=np.random.default_rng(seed + 1),
                             num_samples=25) == per_point_herglotz_min_real(
        H, np.random.default_rng(seed + 1), 25)


def test_sampling_skips_the_admissibility_gate(monkeypatch):
    # random_points scales every point to row norm 0.7 or 0.6 exactly, so
    # re-deriving those norms can only cost time
    S = semigroup_inner(GENERATORS["V"], 0.5, 8)
    H = cayley_herglotz(S)
    gated = (singular_test(S, rng=np.random.default_rng(4), num_samples=30),
             herglotz_min_real(H, rng=np.random.default_rng(5),
                               num_samples=20))

    def refuse(Zs):
        raise AssertionError("sampled points gated again")

    monkeypatch.setattr(evaluate_module, "_check_row_norms", refuse)
    got = (singular_test(S, rng=np.random.default_rng(4), num_samples=30),
           herglotz_min_real(H, rng=np.random.default_rng(5),
                             num_samples=20))
    assert got == gated


def test_singular_test_builds_no_multiplication_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense multiplication operator built")

    monkeypatch.setattr(fockspace, "mult_operator", refuse)
    monkeypatch.setattr(fockspace, "OperatorMatrix", refuse)
    S = semigroup_inner(commutator_inner(max_degree=8), 0.5, 8)
    assert singular_test(S, num_samples=10)["singular"]


def test_sampling_builds_no_matrix_point(monkeypatch):
    made = []
    init = MatrixPoint.__init__

    def counting(self, mats):
        made.append(self)
        init(self, mats)

    monkeypatch.setattr(MatrixPoint, "__init__", counting)
    S = semigroup_inner(NcSeries.monomial((1,), 2, 6), 0.5, 6)
    singular_test(S, num_samples=10)
    herglotz_min_real(cayley_herglotz(S), num_samples=10)
    assert made == []
    random_point(np.random.default_rng(0), 2, 2, 0.5)
    assert len(made) == 1
