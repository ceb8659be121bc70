"""The one-step idempotent straightening and eigenvector shift against the
loops they replaced.

`idempotent_split` conjugates by one intertwiner series U = I + J(E' - P)
instead of one conjugation per degree, and `eigenvector_shift` takes the
resolvent (1 - cV)^{-1} h as one series inverse and one product instead of
summing the geometric series with a dense multiplication operator.  The
references below are the replaced implementations, kept here and not in
the package.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import nchardy
from nchardy.fockspace import FockBasis, mult_operator
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    max_coeff_diff,
    rescale,
    series_invert,
    series_mul,
)
from nchardy.transforms import (
    IdempotentSplit,
    eigenvector_shift,
    homogeneous_degree,
    idempotent_split,
)

from fock_helpers import indices_through_degree

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nchardy.__file__)))


def loop_idempotent_split(E, N=None):
    """idempotent_split as it was: straighten the constant term, then at
    each degree j conjugate by I + [[0, B], [-C, 0]] built from the
    off-diagonal blocks of the degree-j coefficients."""
    n = E.rows
    if N is None:
        N = E.max_degree
    En = E.with_max_degree(N)
    E0 = En.coeff(())
    U, sig, Vh = np.linalg.svd(E0)
    m = int(np.sum(sig > 1e-10 * sig[0])) if sig[0] > 0 else 0
    C0 = np.concatenate([U[:, :m], Vh.conj().T[:, m:]], axis=1)
    S = NcSeries.constant(np.linalg.inv(C0), E.d, N)
    cur = series_mul(series_mul(S, En, N), NcSeries.constant(C0, E.d, N), N)
    for j in range(1, N + 1):
        U_coeffs = {}
        for w, M in cur.coeffs.items():
            if len(w) != j:
                continue
            Uw = np.zeros((n, n), dtype=complex)
            Uw[:m, m:] = M[:m, m:]
            Uw[m:, :m] = -M[m:, :m]
            if np.any(Uw):
                U_coeffs[w] = Uw
        if not U_coeffs:
            continue
        Sj = NcSeries.identity(n, E.d, N) + NcSeries(E.d, n, n, N, U_coeffs)
        cur = series_mul(series_mul(Sj, cur, N), series_invert(Sj, N), N)
        S = series_mul(Sj, S, N)
    P = np.zeros((n, n))
    P[:m, :m] = np.eye(m)
    resid = max_coeff_diff(cur, NcSeries.constant(P, E.d, N), N)
    return IdempotentSplit(S, P, m, n - m, resid)


def conjugated_projection(rng, n, m, N, scale=0.3):
    """T diag(I_m, 0) T^{-1} for a random linear T = I + T_1 z1 + T_2 z2."""
    lin = {(): np.eye(n, dtype=complex)}
    for k in (1, 2):
        lin[(k,)] = scale * (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
    T = NcSeries(2, n, n, N, lin)
    P0 = NcSeries.constant(np.diag([1.0] * m + [0.0] * (n - m)), 2, N)
    return series_mul(series_mul(T, P0, N), series_invert(T, N), N)


def idempotent_corpus():
    # the 11 instances of acceptance criterion 08
    out = [NcSeries(2, 2, 2, 5, {(): [[1.0, 0.0], [0.0, 0.0]],
                                 (1,): [[0.0, 1.0], [0.0, 0.0]],
                                 (2, 1): [[0.0, -0.5], [0.0, 0.0]]})]
    rng = np.random.default_rng(108)
    for _ in range(10):
        out.append(conjugated_projection(rng, 3, int(rng.integers(1, 3)), 4))
    # diag(1, 0) plus strictly upper-right terms, as the CLI batch draws it
    rng = np.random.default_rng(3)
    out.append(NcSeries(2, 2, 2, 6, {(): np.diag([1.0, 0.0])} | {
        w: [[0.0, rng.standard_normal() + 1j * rng.standard_normal()],
            [0.0, 0.0]] for w in ((1,), (2,), (1, 2))}))
    rng = np.random.default_rng(13)
    out += [conjugated_projection(rng, 3, m, 8) for m in (1, 2)]
    out += [NcSeries(2, 2, 2, 4), NcSeries.identity(3, 2, 4)]
    return out


@pytest.mark.parametrize("E", idempotent_corpus())
def test_intertwiner_matches_the_degree_loop(E):
    N = E.max_degree
    got, want = idempotent_split(E), loop_idempotent_split(E)
    assert (got.m, got.k) == (want.m, want.k)
    assert np.array_equal(got.P, want.P)
    assert max(got.residual, want.residual) <= 1e-12
    conj = series_mul(series_mul(got.S, E, N), series_invert(got.S, N), N)
    assert max_coeff_diff(conj, NcSeries.constant(got.P, 2, N), N) <= 1e-12


def loop_eigenvector_shift(h, V, w, r, basis):
    """eigenvector_shift as it was: sum_k c^k M^k h with the dense
    multiplication operator M of V, and the residual read off the dense
    operator of V(r.)."""
    n = homogeneous_degree(V)
    M = mult_operator(V, basis).mat
    c = np.conj(w) / r ** n
    out = h.astype(complex)
    term = out.copy()
    for _ in range(basis.max_degree // n + 1):
        term = c * (M @ term)
        if not np.any(term):
            break
        out += term
    Mr = mult_operator(rescale(V, r), basis).mat
    res_vec = Mr.conj().T @ out - np.conj(w) * out
    cut = indices_through_degree(basis, basis.max_degree - n)
    return out, float(np.linalg.norm(res_vec[cut]))


def kernel_vectors(V, basis, rng, count):
    """Unit vectors in ker V(L)*, V a monomial or the commutator: for a
    monomial z^a it is every word not starting with a; for the commutator
    the vacuum plus the null space of the dense adjoint."""
    if len(V.coeffs) == 1:
        (a,) = V.coeffs
        mask = np.array([w[:len(a)] != a for w in basis.words])
        for _ in range(count):
            h = np.where(mask, rng.standard_normal(basis.dim)
                         + 1j * rng.standard_normal(basis.dim), 0.0)
            yield h / np.linalg.norm(h)
        return
    M = mult_operator(V, basis).mat
    _, s, Vh = np.linalg.svd(M.conj().T)
    null = Vh[int(np.sum(s > 1e-10)):].conj().T
    for _ in range(count):
        c = rng.standard_normal(null.shape[1]) \
            + 1j * rng.standard_normal(null.shape[1])
        h = null @ c
        yield h / np.linalg.norm(h)


N_SHIFT = 8


@pytest.mark.parametrize("V, w, r", [
    (commutator_inner(max_degree=N_SHIFT), 1.0 / np.sqrt(2.0), 0.95),
    (NcSeries.monomial((1,), 2, N_SHIFT), 0.5 - 0.3j, 0.9),
    (NcSeries.monomial((1, 2), 2, N_SHIFT), 0.5j, 0.9),
], ids=["V", "z1", "z1z2"])
def test_resolvent_matches_the_geometric_sum(V, w, r):
    basis = FockBasis(2, N_SHIFT)
    rng = np.random.default_rng(5)
    for h in kernel_vectors(V, basis, rng, 3):
        got, res = eigenvector_shift(h, V, w, r, basis)
        want, res_ref = loop_eigenvector_shift(h, V, w, r, basis)
        assert np.abs(got - want).max() <= 1e-12
        assert max(res, res_ref) <= 1e-12


def test_transforms_and_classical_import_alone():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    for module in ("nchardy.transforms", "nchardy.classical"):
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       check=True, timeout=120)
