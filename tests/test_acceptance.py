"""Delivery gate: the twelve contracted checks at their stated tolerances.

Each test records one PASS/FAIL line, echoed in the terminal summary so
the gate can be read off a plain ``pytest -v`` log, then asserts the same
condition.
"""

import json
import time

import numpy as np
import scipy.linalg
from click.testing import CliRunner

import conftest

from nchardy.classical import compare_with_nc
from nchardy.cli import main as cli_main
from nchardy.evaluate import MatrixPoint, evaluate, random_point, tail_bound
from nchardy.factorization import (
    inner_outer,
    outer_defect,
    singular_test,
    solve_vacuum,
)
from nchardy.fockspace import (
    FockBasis,
    isometry_defect,
    mult_operator,
    wandering_dimension_profile,
)
from nchardy.kernels import model_gram, szego_gram, szego_kernel
from nchardy.ncseries import (
    NcSeries,
    commutator_inner,
    h2_norm,
    max_coeff_diff,
    phase_normalize,
    rescale,
    series_inner,
    series_invert,
    series_mul,
    to_json_dict,
)
from nchardy.transforms import (
    eigenvector_shift,
    frostman,
    idempotent_split,
    semigroup_inner,
)


def report(num, ok, detail):
    line = f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.acceptance_lines.append(line)
    print(line)


def test_criterion_01_commutator_isometry():
    t0 = time.perf_counter()
    V = commutator_inner(max_degree=8)
    defect = isometry_defect(mult_operator(V), 6)
    dt = time.perf_counter() - t0
    ok = defect <= 1e-12 and dt <= 5.0
    report(1, ok, f"commutator isometry defect {defect:.2e} in {dt:.2f}s")
    assert defect <= 1e-12
    assert dt <= 5.0


def test_criterion_02_explicit_factorization():
    N = 8
    V = commutator_inner(max_degree=N)
    res = inner_outer(1.0 - np.sqrt(2.0) * V)
    b1, _ = phase_normalize(res.inner)
    b2, _ = phase_normalize(frostman(V, 1.0 / np.sqrt(2.0), N))
    g1, _ = phase_normalize(res.outer)
    g2, _ = phase_normalize(np.sqrt(2.0) - V)
    di = max_coeff_diff(b1, b2, 5)
    do = max_coeff_diff(g1, g2, 5)
    ok = res.wandering_dim == 1 and di <= 1e-8 and do <= 1e-8
    report(2, ok, f"explicit factorization: wandering dim "
                  f"{res.wandering_dim}, inner diff {di:.2e}, "
                  f"outer diff {do:.2e}")
    assert res.wandering_dim == 1
    assert di <= 1e-8
    assert do <= 1e-8


def test_criterion_03_frostman_preserves_inner():
    # Any homogeneous inner of degree n turns its Frostman shift into a
    # power series in the inner itself, and the shift's multiplication
    # operator on a window of j inner-steps has the same Gram matrix as
    # the one-variable Mobius shift on a window of j degrees.  The d=2
    # runs below check that matching at small truncations to machine
    # precision; the certified bound then comes from the one-variable
    # operator at a truncation deep enough for every |w| in the corpus.
    ws = (0.3, 0.5j, -0.6)
    K_small, K_cert = 2, 40
    corpus = []
    for maker, n in (
        (lambda M: NcSeries.monomial((1,), 2, M), 1),
        (lambda M: NcSeries.monomial((2,), 2, M), 1),
        (lambda M: NcSeries.monomial((1, 2), 2, M), 2),
        (lambda M: commutator_inner(max_degree=M), 2),
        (lambda M: series_mul(NcSeries.monomial((1,), 2, M),
                              commutator_inner(max_degree=M), M), 3),
    ):
        corpus.append((maker(n * K_small), n))
    worst_cert = 0.0
    worst_transfer = 0.0
    z1d1 = NcSeries.monomial((1,), 1, 1)
    for w in ws:
        ms = frostman(z1d1.with_max_degree(K_small), w, K_small)
        d1_small = isometry_defect(
            mult_operator(ms.with_max_degree(K_small + 1)), 1)
        mc = frostman(z1d1.with_max_degree(K_cert), w, K_cert)
        d1_cert = isometry_defect(
            mult_operator(mc.with_max_degree(2 * K_cert)), K_cert)
        worst_cert = max(worst_cert, d1_cert)
        for theta, n in corpus:
            mu = frostman(theta, w, n * K_small)
            d2 = isometry_defect(
                mult_operator(mu.with_max_degree(n * K_small + n)), n)
            worst_transfer = max(worst_transfer, abs(d2 - d1_small))
    ok = worst_cert <= 1e-8 and worst_transfer <= 1e-10
    report(3, ok, f"frostman shift isometry: certified defect "
                  f"{worst_cert:.2e} at window {K_cert}, transfer residual "
                  f"{worst_transfer:.2e} over 15 shift/parameter combos")
    assert worst_transfer <= 1e-10
    assert worst_cert <= 1e-8


def test_criterion_04_crofoot_kernel_identity():
    rng = np.random.default_rng(104)
    thetas = [NcSeries.monomial((1,), 2, 4), commutator_inner(max_degree=4),
              NcSeries.monomial((1, 2), 2, 4)]
    worst = 0.0
    for i in range(20):
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
        mobZ = np.linalg.solve(np.eye(n1) - np.conj(w) * TZ,
                               TZ - w * np.eye(n1))
        mobW = np.linalg.solve(np.eye(n2) - np.conj(w) * TW,
                               TW - w * np.eye(n2))
        lhs = G - mobZ @ G @ mobW.conj().T
        A = np.linalg.inv(np.eye(n1) - np.conj(w) * TZ)
        B = np.linalg.inv(np.eye(n2) - w * TW.conj().T)
        rhs = (1.0 - abs(w) ** 2) * A @ model_gram(th, Z, W, v, u) @ B
        rel = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30)
        worst = max(worst, rel)

    # corroborate once with a truncated shift where the tail is certified
    N = 14
    th = NcSeries.monomial((1,), 2, N)
    w = 0.5
    Z = random_point(rng, 2, 2, 0.2)
    W = random_point(rng, 2, 2, 0.2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    fs = frostman(th, w, N)
    s = max(Z.row_norm(), W.row_norm())
    tb = tail_bound(fs, s)
    G = szego_gram(Z, W, v, u)
    lhs = G - evaluate(fs, Z) @ G @ evaluate(fs, W).conj().T
    A = np.linalg.inv(np.eye(2) - np.conj(w) * evaluate(th, Z))
    B = np.linalg.inv(np.eye(2) - w * evaluate(th, W).conj().T)
    rhs = (1.0 - abs(w) ** 2) * A @ model_gram(th, Z, W, v, u) @ B
    rel_tr = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
    ok = worst <= 1e-8 and tb <= 1e-10 and rel_tr <= 1e-8
    report(4, ok, f"crofoot kernel identity rel err {worst:.2e} over 20 "
                  f"draws; truncated run rel {rel_tr:.2e} at tail bound "
                  f"{tb:.1e}")
    assert worst <= 1e-8
    assert tb <= 1e-10
    assert rel_tr <= 1e-8


def test_criterion_05_eigenvector_shift():
    N = 8
    V = commutator_inner(max_degree=N)
    basis = FockBasis(2, N)
    M = mult_operator(V, basis).mat
    null = scipy.linalg.null_space(M.conj().T)
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(6):
        c = rng.standard_normal(null.shape[1]) \
            + 1j * rng.standard_normal(null.shape[1])
        h = null @ (c / np.linalg.norm(c))
        h[0] = 0.0  # vacuum-orthocomplement sample
        if np.linalg.norm(h) < 1e-12:
            continue
        h = h / np.linalg.norm(h)
        _, residual = eigenvector_shift(h, V, 1.0 / np.sqrt(2.0), 0.95,
                                        basis)
        worst = max(worst, residual)
    ok = worst <= 1e-8
    report(5, ok, f"shifted eigenvector residual {worst:.2e} "
                  f"(w = 1/sqrt(2), r = 0.95)")
    assert worst <= 1e-8


def test_criterion_06_vacuum_solvability():
    outer = NcSeries(1, 1, 1, 20, {(): 1.0, (1,): -0.5})
    res_outer = solve_vacuum(outer, 0.9, 20)
    worst_non = np.inf
    # solve_vacuum only sees whether f(0) vanishes; the outer defect also
    # tells the non-outer z - 1/2, with f(0) != 0, from an outer
    defect_outer = outer_defect(outer, 20)
    worst_defect = np.inf
    for N in (2, 5, 10, 20, 40):
        z = NcSeries.monomial((1,), 1, N)
        worst_non = min(worst_non, solve_vacuum(z, 0.9, N))
        non_outer = NcSeries(1, 1, 1, N, {(): -0.5, (1,): 1.0})
        worst_defect = min(worst_defect, outer_defect(non_outer, N))
    ok = (res_outer <= 1e-8 and worst_non >= 0.99
          and defect_outer <= 1e-6 and worst_defect >= 0.85)
    report(6, ok, f"vacuum residual {res_outer:.2e} for the outer, "
                  f">= {worst_non:.3f} for the shift at every N; outer "
                  f"defect {defect_outer:.1e} for the outer, "
                  f">= {worst_defect:.3f} for z - 1/2 at every N")
    assert res_outer <= 1e-8
    assert worst_non >= 0.99
    assert defect_outer <= 1e-6
    assert worst_defect >= 0.85


def test_criterion_07_wandering_monotonicity():
    rng = np.random.default_rng(107)
    grid = (0.3, 0.5, 0.7, 0.9, 1.0)
    violations = 0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        deg = int(rng.integers(1, 4))
        coeffs = {}
        for _ in range(deg + 2):
            wlen = int(rng.integers(0, deg + 1))
            word = tuple(int(x) for x in rng.integers(1, 3, size=wlen))
            coeffs[word] = (rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        f = NcSeries(2, n, n, 6, coeffs)
        prof = wandering_dimension_profile(f, grid)
        violations += sum(1 for a, b in zip(prof, prof[1:]) if b < a)
    ok = violations == 0
    report(7, ok, f"wandering dimension monotone on the radius grid: "
                  f"{violations} violations over 10 random series")
    assert violations == 0


def test_criterion_08_idempotent_split():
    N = 5
    g = NcSeries(2, 1, 1, N, {(1,): 1.0, (2, 1): -0.5})
    coeffs = {(): [[1.0, 0.0], [0.0, 0.0]]}
    for word in g.support():
        coeffs[word] = [[0.0, g.scalar_coeff(word)], [0.0, 0.0]]
    E = NcSeries(2, 2, 2, N, coeffs)
    sp = idempotent_split(E)
    results = [(sp.m == 1 and sp.k == 1, sp.residual)]

    rng = np.random.default_rng(108)
    for _ in range(10):
        n = 3
        m = int(rng.integers(1, n))
        P0 = np.diag([1.0] * m + [0.0] * (n - m)).astype(complex)
        lin = {(): np.eye(n, dtype=complex)}
        for k in (1, 2):
            lin[(k,)] = 0.3 * (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))
        T = NcSeries(2, n, n, 4, lin)
        Tinv = series_invert(T, 4)
        Es = series_mul(series_mul(T, NcSeries.constant(P0, 2, 4), 4),
                        Tinv, 4)
        sp = idempotent_split(Es)
        results.append((sp.m == m and sp.k == n - m
                        and sp.m + sp.k == n, sp.residual))
    worst = max(r for _, r in results)
    ok = all(flag for flag, _ in results) and worst <= 1e-10
    report(8, ok, f"idempotent split: ranks recovered on 11 instances, "
                  f"worst conjugation residual {worst:.2e}")
    assert all(flag for flag, _ in results)
    assert worst <= 1e-10


def test_criterion_09_semigroup():
    N = 8
    worst_law = 0.0
    for B in (NcSeries.monomial((1,), 2, N),
              commutator_inner(max_degree=N)):
        for t in (0.5, 1.0):
            s = 0.25
            lhs = semigroup_inner(B, t + s, N)
            rhs = series_mul(semigroup_inner(B, t, N),
                             semigroup_inner(B, s, N), N)
            worst_law = max(worst_law, max_coeff_diff(lhs, rhs, N))
        st = singular_test(semigroup_inner(B, 1.0, N), num_samples=10000,
                           rng=np.random.default_rng(109))
        assert st["singular"]
        assert st["min_sample_sigma"] > 0.0
    zd1 = NcSeries.monomial((1,), 1, N)
    c0 = semigroup_inner(zd1, 1.0, N).scalar_coeff(())
    dc = abs(c0 - np.exp(-1.0))
    ok = worst_law <= 1e-8 and dc <= 1e-10
    report(9, ok, f"semigroup law defect {worst_law:.2e}; 10^4-sample "
                  f"invertibility held; d=1 constant off by {dc:.2e}")
    assert worst_law <= 1e-8
    assert dc <= 1e-10


def test_criterion_10_classical_corpus():
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    done = 0
    worst = 0.0
    while done < 50:
        deg = int(rng.integers(1, 6))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(c[-1]) < 0.2:
            continue
        roots = np.roots(list(c)[::-1])
        if roots.size and np.min(np.abs(np.abs(roots) - 1.0)) < 0.05:
            continue
        rep = compare_with_nc(list(c), N=12)
        worst = max(worst, rep["inner_agreement"], rep["outer_agreement"])
        done += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt <= 60.0
    report(10, ok, f"d=1 corpus of 50: worst per-factor disagreement "
                   f"{worst:.2e} in {dt:.1f}s")
    assert worst <= 1e-6
    assert dt <= 60.0


def test_criterion_11_kernel_suite():
    rng = np.random.default_rng(111)
    N = 6
    worst_rep = worst_resc = worst_adj = worst_norm = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        Z = random_point(rng, d, n, rng.uniform(0.2, 0.8))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        K = szego_kernel(Z, y, v, N)

        fc = {}
        for _ in range(4):
            wlen = int(rng.integers(0, 4))
            word = tuple(int(x) for x in rng.integers(1, d + 1, size=wlen))
            fc[word] = complex(rng.standard_normal(),
                               rng.standard_normal())
        f = NcSeries(d, 1, 1, N, fc)
        want = y.conj() @ evaluate(f, Z) @ v
        got = series_inner(K.series, f)
        worst_rep = max(worst_rep, abs(got - want))

        r = rng.uniform(0.2, 0.95)
        Kr = szego_kernel(Z.scale(r), y, v, N)
        worst_resc = max(worst_resc,
                         max_coeff_diff(rescale(K.series, r), Kr.series, N))

        g = NcSeries.monomial(
            tuple(int(x) for x in rng.integers(1, d + 1, size=2)), d, N)
        Kf = szego_kernel(Z, evaluate(f, Z).conj().T @ y, v, N)
        lhs = series_inner(K.series, series_mul(f, g, N))
        rhs = series_inner(Kf.series, g)
        worst_adj = max(worst_adj, abs(lhs - rhs))

        s = Z.row_norm()
        bound = np.linalg.norm(y) * np.linalg.norm(v) / np.sqrt(1 - s * s)
        worst_norm = max(worst_norm,
                         h2_norm(K.series) - bound * (1 + 1e-12))
    ok = (worst_rep <= 1e-10 and worst_resc <= 1e-12
          and worst_adj <= 1e-10 and worst_norm <= 0.0)
    report(11, ok, f"kernel suite on 100 draws: reproducing {worst_rep:.1e},"
                   f" rescaling {worst_resc:.1e}, adjoint {worst_adj:.1e}, "
                   f"norm bound slack {worst_norm:.1e}")
    assert worst_rep <= 1e-10
    assert worst_resc <= 1e-12
    assert worst_adj <= 1e-10
    assert worst_norm <= 0.0


def test_criterion_12_cli_determinism(tmp_path):
    h = NcSeries(2, 1, 1, 8, {(1,): 1.0, (1, 1): -0.5, (2, 1): 0.25j})
    sp = tmp_path / "h.json"
    sp.write_text(json.dumps(to_json_dict(h)))
    pp = tmp_path / "p.json"
    pp.write_text(json.dumps(
        {"coeffs": [[1.0, 0.0], [-0.8, 0.1], [0.0, 0.3]]}))
    jobs = [["factor", "--series", str(sp), "--seed", "11"],
            ["compare-classical", "--poly", str(pp), "--degree", "10"]]
    stable = True
    for args in jobs:
        outs = []
        for _ in range(2):
            res = CliRunner().invoke(cli_main, args)
            assert res.exit_code == 0
            doc = json.loads(res.output)
            doc.pop("timestamp")
            outs.append(json.dumps(doc, sort_keys=True).encode())
        stable = stable and outs[0] == outs[1]
    report(12, stable, "CLI reports byte-identical across repeated seeded "
                       "runs after dropping the timestamp block")
    assert stable
