"""Transforms that move inner functions around the unit ball.

Frostman shifts compose an inner with a disk automorphism and stay inner;
Crofoot multipliers implement the matching change of model space.  The
Cayley transform H_B turns an inner B into a Herglotz-class function
whose exponentials form a semigroup of singular inners.  For scalar B,
exp(-t H_B) = sigma_t o B with sigma_t(x) = exp(-t (1+x)/(1-x)), so the
semigroup is the Taylor series of sigma_t at B(0), by the exponential
recurrence of its weights (Laguerre values at B(0) = 0; Szegő,
Orthogonal Polynomials, (5.1.9)), summed against the powers of
B - B(0), with no Cayley transform built.  The idempotent
straightening conjugates a series-valued idempotent to a constant
projection by one intertwiner series.  Every transform is computed in
the series algebra; none builds a Fock-space operator.
"""

import functools

import numpy as np

from .errors import (
    DiagnosticError,
    NotIdempotentError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .evaluate import evaluate_batch, random_points
from .fockspace import FockBasis, series_to_vec, vec_to_series
from .ncseries import (
    NcSeries,
    _int_size,
    _right_quotient,
    _sum_by_code,
    h2_norm,
    max_coeff_diff,
    rescale,
    series_invert,
    series_mul,
    shift_adjoint_apply,
)

# Residual gates for the idempotent straightening.
IDEMPOTENT_GATE = 1e-9
STRAIGHTEN_THRESHOLD = 1e-10

# Generators whose powers semigroup_inner keeps (see _sigma_powers).
SIGMA_CACHE_SIZE = 8


def _disk_terms(name, theta, w, N):
    """(w, th, 1 - conj(w) th) for the transform name of the scalar theta
    by the disk point w: w checked, th = theta at order N (by default
    theta's own)."""
    if not theta.is_scalar():
        raise ShapeMismatchError(f"{name} expects a scalar series")
    w = complex(w)
    if not abs(w) < 1.0:
        raise ValueError(f"shift parameter |w| = {abs(w):.4f} not inside "
                         "the unit disk")
    th = theta.with_max_degree(theta.max_degree if N is None else N)
    return w, th, 1.0 - th.scale(np.conj(w))


def frostman(theta, w, N=None):
    """Frostman shift (1 - conj(w) theta)^{-1} (theta - w).

    Composes theta with the disk automorphism moving w to 0; inner inputs
    give inner outputs.  The order of the product is immaterial, so it is
    one right division (ncseries._right_quotient).  Full multiplicative
    support in general, so the result is an order-N truncation.
    """
    w, th, denom = _disk_terms("frostman shift", theta, w, N)
    # both factors are series in theta, so they commute
    return _right_quotient(th - w, denom, th.max_degree)


def crofoot(theta, w, N=None):
    """Crofoot multiplier sqrt(1 - |w|^2) (1 - conj(w) theta)^{-1}.

    Intertwines the model spaces of theta and of its Frostman shift; the
    kernel identity it satisfies is exercised in the kernel tests.
    """
    w, _, denom = _disk_terms("crofoot multiplier", theta, w, N)
    return series_invert(denom).scale(np.sqrt(1.0 - abs(w) ** 2))


def homogeneous_degree(V):
    """Common length of the support words, or None if mixed: codes grow
    with length, so the first code must have the top length."""
    n = V.degree()
    ok = V.codes.size and V.codes[0] >= FockBasis(V.d, n).degree_start(n)
    return n if ok else None


def eigenvector_shift(h, V, w, r, basis=None):
    """Resolvent h^{(r)} = (1 - c V)^{-1} h with c = conj(w)/r^n.

    For h annihilated by V(L)* and V homogeneous of degree n, the result
    is an eigenvector of V(rL)* with eigenvalue conj(w).  V has no
    constant term, so one series inverse and one product give the sum
    sum_k c^k V^k h exactly through the basis degree N.  The returned
    residual is the norm of V(rL)* h^{(r)} - conj(w) h^{(r)} on the
    degrees <= N - n, which the truncation computes faithfully.
    Convergence needs |w|^(1/n) < r < 1.
    """
    if not V.is_scalar():
        raise ShapeMismatchError("eigenvector shift expects a scalar "
                                 "symbol")
    n = homogeneous_degree(V)
    if n is None or n < 1:
        raise ValueError("symbol must be homogeneous of positive degree")
    w = complex(w)
    if not abs(w) ** (1.0 / n) < r < 1.0:
        raise ValueError(
            f"radius r = {r} outside the convergence range "
            f"(|w|^(1/{n}), 1)")
    if basis is None:
        basis = FockBasis(V.d, V.max_degree)
    h = np.asarray(h, dtype=complex).reshape(-1)
    if h.size != basis.dim:
        raise ShapeMismatchError(
            f"vector length {h.size} does not match basis dimension "
            f"{basis.dim}")
    N = basis.max_degree
    if n > N:
        raise ValueError(f"symbol degree {n} exceeds the basis degree {N}")
    resolvent = series_invert(1.0 - V.scale(np.conj(w) / r ** n), N)
    g = series_mul(resolvent, vec_to_series(h, basis), N)
    res = shift_adjoint_apply(rescale(V, r), g, N - n) \
        - g.truncate(N - n).scale(np.conj(w))
    return series_to_vec(g, basis).reshape(-1), h2_norm(res)


def cayley_herglotz(B, N=None):
    """(1 - B)^{-1} (1 + B): the half-plane side of the Cayley transform.

    Since 1 + B = 2 - (1 - B), it is 2 (1 - B)^{-1} - 1 exactly through
    degree N, for matrix B too: one series inverse and no product.
    Needs 1 - B(0) invertible; inner B with that property map to functions
    of nonnegative real part on the ball (check with herglotz_min_real).
    """
    if B.rows != B.cols:
        raise ShapeMismatchError("cayley transform needs square "
                                 "coefficients")
    if N is None:
        N = B.max_degree
    one = NcSeries.identity(B.rows, B.d, N)
    return series_invert(one - B.with_max_degree(N), N)._ldexp(1) - one


def herglotz_min_real(H, rng=None, num_samples=50):
    """Smallest eigenvalue of Re H(Z) over num_samples random points of
    row norm 0.6 and sizes 1, 2, 3 in turn (sampling evidence for the
    Herglotz property; nonnegative up to tolerance).  random_points
    scales the points to that norm, so evaluate_batch skips its
    admissibility gate.  H must be square, as cayley_herglotz's values
    are, and num_samples an int >= 1: zero sample points would leave the
    minimum at +inf."""
    if H.rows != H.cols:
        raise ShapeMismatchError("herglotz_min_real needs square "
                                 "coefficients")
    if _int_size("num_samples", num_samples) < 1:
        raise ValueError("herglotz_min_real needs at least one sample point")
    rng = np.random.default_rng(0) if rng is None else rng
    worst = np.inf
    for Zs in random_points(rng, H.d, np.resize((1, 2, 3), num_samples),
                            0.6):
        A = evaluate_batch(H, Zs, check_admissible=False)
        vals = np.linalg.eigvalsh(0.5 * (A + A.conj().swapaxes(-1, -2)))
        worst = min(worst, float(vals[:, 0].min()))
    return worst


def semigroup_inner(B, t, N=None):
    """exp(-t H_B) as a series: the singular-inner semigroup through B.

    For a scalar B the Cayley transform H_B = (1 - B)^{-1} (1 + B) is a
    function of B alone, so exp(-t H_B) = sigma_t o B, with sigma_t(x) =
    exp(-t (1 + x)/(1 - x)) the atomic singular inner of the disk.  Write
    B = b0 + c D with b0 = B(0), c = 1 - b0 (which must be nonzero) and D
    without constant term.  Then sigma_t(b0 + c y) = exp(g(y)) with

        g_0 = -t (1 + b0)/c,   g_k = -2t/c  (k >= 1),

    and its Taylor weights follow the exponential recurrence

        f_0 = e^{g_0},   f_n = (1/n) sum_{k=1}^{n} k g_k f_{n-k}.

    At b0 = 0 they are e^{-t} L_n^{(-1)}(2t), by the Laguerre generating
    function (Szegő, Orthogonal Polynomials, (5.1.9)).  D^m starts at
    degree m l, with l the length of D's shortest word, so the sum of
    f_m D^m over m <= N / l is exact through degree N: one sum by word
    code adds the terms in m order.  Only the weights depend on t: the
    powers of D are cached per generator (_sigma_powers keeps the last
    SIGMA_CACHE_SIZE = 8, keyed on B's code and coefficient bytes, d and
    N), so another t on the same B costs the weights and the sum.  An
    entry holds fewer than N D_N words, D_N = 1 + d + ... + d^N, at 24
    bytes each: 0.44 MB for a full-support generator at d = 2, N = 10, so
    under 4 MB for eight of them.  Neither the Cayley transform nor a
    series inverse is built.
    """
    if not B.is_scalar():
        raise ShapeMismatchError("semigroup construction expects a scalar "
                                 "inner")
    if not 0 <= t < np.inf:
        raise ValueError(f"semigroup parameter t = {t} must be finite and "
                         ">= 0")
    if N is None:
        N = B.max_degree
    Bn = B.with_max_degree(N)
    b0, c, codes, powers = _sigma_powers(Bn.codes.tobytes(),
                                         Bn.C.tobytes(), B.d, N)
    g = -2.0 * t / c
    f = [complex(np.exp(-t * (1.0 + b0) / c))]
    for n in range(1, len(powers) + 1):
        f.append(g * sum(k * f[n - k] for k in range(1, n + 1)) / n)
    terms = np.concatenate([np.full((1, 1, 1), f[0])]
                           + [fm * P for fm, P in zip(f[1:], powers)])
    return NcSeries._of(B.d, 1, 1, N, *_sum_by_code(codes, terms))


@functools.lru_cache(maxsize=SIGMA_CACHE_SIZE)
def _sigma_powers(codes, coeffs, d, N):
    """(b0, c, codes, powers) for the scalar generator B whose int64 codes
    and complex coefficients fill the bytes codes and coeffs, over d
    letters at order N: b0 = B(0), c = 1 - b0, the coefficient stacks of
    D, D^2, ... through degree N for D = (B - b0)/c, and their codes after
    a 0 for the constant term, concatenated.  The arrays are read-only, as
    every caller shares them.  c = 0 raises NotInvertibleError, which the
    cache does not store, so every such call raises.
    """
    Bn = NcSeries._of(d, 1, 1, N, np.frombuffer(codes, dtype=np.int64),
                      np.frombuffer(coeffs, dtype=complex).reshape(-1, 1, 1))
    b0 = Bn.scalar_coeff(())
    c = 1.0 - b0
    if c == 0:
        raise NotInvertibleError("1 - B(0) is zero, so B has no Cayley "
                                 "transform", smallest_sigma=0.0)
    rest = Bn.codes > 0
    D = NcSeries._of(d, 1, 1, N, Bn.codes[rest], Bn.C[rest] / c)
    powers = [D]
    if D.codes.size:
        # the length of D's shortest word, which has the smallest code
        basis, low = FockBasis(d, N), 1
        while D.codes[0] >= basis.degree_start(low + 1):
            low += 1
        for _ in range(N // low - 1):
            powers.append(series_mul(powers[-1], D, N))
    codes = np.concatenate([np.zeros(1, dtype=np.int64)]
                           + [P.codes for P in powers])
    codes.flags.writeable = False
    return b0, c, codes, tuple(P.C for P in powers)


class IdempotentSplit:
    """Conjugation straightening an idempotent to a constant projection."""

    def __init__(self, S, P, m, k, residual):
        self.S = S
        self.P = P
        self.m = int(m)
        self.k = int(k)
        self.residual = float(residual)

    def __repr__(self):
        return (f"IdempotentSplit(m={self.m}, k={self.k}, "
                f"residual={self.residual:.3e})")


def idempotent_split(E, N=None, gate=IDEMPOTENT_GATE):
    """Conjugate a series idempotent to P = diag(I_m, 0_k) in one step.

    A basis C0 of the constant term's range and kernel gives E' = C0^{-1}
    E C0 with constant term P.  The intertwiner of the two projections
    (Kato, Perturbation Theory for Linear Operators, ch. I),

        U = I + J (E' - P) = P E' + (I - P)(I - E'),   J = 2P - I,

    has U_0 = I and satisfies U E' = P E' = P U through degree N, since
    E'^2 = E'.  So S = U C0^{-1} is invertible and S E S^{-1} = P; read
    off E, S_0 = C0^{-1} and S_w = J C0^{-1} E_w for w nonempty.  The
    residual of the conjugation is checked and returned.  Exactly
    idempotent inputs come out with machine-precision residuals.  The
    gate must be finite and >= 0: NaN would pass every input.
    """
    if not 0 <= gate < np.inf:
        raise ValueError(f"gate must be finite and >= 0, got {gate}")
    n = E.rows
    if E.cols != n:
        raise ShapeMismatchError("idempotent must have square coefficients")
    if N is None:
        N = E.max_degree
    En = E.with_max_degree(N)
    sq = series_mul(En, En, N)
    idem_res = max_coeff_diff(sq, En, N)
    if idem_res > gate:
        raise NotIdempotentError(
            f"E*E - E has coefficient error {idem_res:.3e} (gate "
            f"{gate:.1e})", residual=idem_res)

    E0 = En.coeff(())
    U, sig, Vh = np.linalg.svd(E0)
    # n >= 1, and E_0 = 0 gives m = 0
    m = int(np.sum(sig > 1e-10 * sig[0]))
    k = n - m
    C0 = np.concatenate([U[:, :m], Vh.conj().T[:, m:]], axis=1)
    smin = np.linalg.svd(C0, compute_uv=False)[-1]
    if smin < 1e-8:
        raise DiagnosticError(
            f"range/kernel basis of the constant term is ill conditioned "
            f"(sigma_min = {smin:.3e})")

    P = np.zeros((n, n))
    P[:m, :m] = np.eye(m)
    C0inv = np.linalg.inv(C0)
    JC0inv = (2 * P - np.eye(n)) @ C0inv
    rest = En.codes > 0
    S = NcSeries._of(E.d, n, n, N,
                     np.concatenate(([0], En.codes[rest])),
                     np.concatenate((C0inv[None], JC0inv @ En.C[rest])))
    conj = _right_quotient(series_mul(S, En, N), S, N)
    resid = max_coeff_diff(conj, NcSeries.constant(P, E.d, N), N)
    if resid > STRAIGHTEN_THRESHOLD:
        raise DiagnosticError(
            f"straightening stalled at residual {resid:.3e} "
            f"(threshold {STRAIGHTEN_THRESHOLD:.1e})")
    return IdempotentSplit(S, P, m, k, resid)
