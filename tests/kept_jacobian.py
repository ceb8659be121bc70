"""The outer solve with scipy's two-callback shape, kept as a reference.

These are nchardy.factorization's _OuterProblem, _lm and spectral_outer
from when the solver took a residual and a Jacobian callback:
_OuterProblem.residual kept the J it built, and jacobian(x) handed that J
back when x had the same bits.  They are copied unchanged, except that
spectral_outer and _spectral_outer return the number of residuals
evaluated with the factor, and their docstrings are cut.  The
differential test (test_outer_solve.py) requires the one-callable solve
to agree with them bitwise.  Do not edit the copied code: it is the
reference.
"""

import math

import numpy as np

from nchardy.errors import DiagnosticError, ShapeMismatchError
from nchardy.factorization import (
    LM_MAX_NFEV,
    LM_TAU,
    LM_TOL,
    _jacobian_plan,
)
from nchardy.fockspace import FockBasis, toeplitz_data
from nchardy.ncseries import NcSeries, _pow2_normalized


class _OuterProblem:
    """t_s(F) = t_s(H) for |s| <= m, with its exact Jacobian.

    F is an n x n series of degree m whose (dim, n, n) coefficient stack
    has the parameters as its float view: x.view(complex) is F.  t_s
    cannot see a constant unitary on the left, so the anti-Hermitian part
    F_0 - F_0^H of the vacuum coefficient is one more residual block, after
    t_s(F) - t_s(H) word by word.  Each block lists the real and then the
    imaginary parts of its n x n matrix.

    target is the (dim, n, n) stack of the t_s(H) over FockBasis(d, m).
    The Jacobian is one scatter of x over the cached _jacobian_plan.  t_s
    is a homogeneous quadratic in x and the gauge block is linear, so the
    residual is read from the same J: r = h (J x) - t(H), with h = 1/2 on
    the t_s rows and 1 on the gauge rows.  residual(x) keeps the J it
    builds, and jacobian(x) at a point with the same bits returns it.
    """

    def __init__(self, H, m, target):
        n = self.n = H.rows
        self.d, self.m = H.d, m
        self.basis = FockBasis(H.d, m)
        self.target = target
        self.shape = (self.basis.dim, n, n)
        self._plan = _jacobian_plan(H.d, m, n)
        t = np.concatenate([self.target, np.zeros((1, n, n))])
        t = t.reshape(t.shape[0], -1)
        self._rhs = np.stack([t.real, t.imag], axis=1).reshape(-1)
        self._half = np.full(self._rhs.size, 0.5)
        self._half[-2 * n * n:] = 1.0
        self._xa = np.ones(2 * self.basis.dim * n * n + 1)
        self._kept = None, None

    def decode(self, x):
        return x.view(complex).reshape(self.shape)

    def _build(self, x):
        target, src, weight, shape = self._plan
        self._xa[:-1] = x
        w = weight * self._xa[src]
        return np.bincount(target, weights=w,
                           minlength=shape[0] * shape[1]).reshape(shape)

    def residual(self, x):
        J = self._build(x)
        self._kept = x.tobytes(), J
        return self._half * (J @ x) - self._rhs

    def jacobian(self, x):
        """dr/dx: the J that residual kept, when x has its bits."""
        key, J = self._kept
        return J if x.tobytes() == key else self._build(x)


def _lm(fun, jac, x0):
    """Minimize |fun(x)|^2 from x0 by Levenberg-Marquardt with the exact
    Jacobian jac (Moré 1978).

    A trial step solves (J^T J + mu I) h = -J^T r at the current point;
    its gain ratio rho is the actual decrease of |r|^2 over the decrease
    h.(mu h - J^T r) that the linear model predicts.  The damping follows
    Nielsen's rule: a step with rho > 0 is taken and mu scaled by
    max(1/3, 1 - (2 rho - 1)^3); otherwise mu grows by nu = 2, 4, 8, ...
    and the step is retried against the same J.  The trial point x + h is
    one array, passed to fun and, once accepted, on as x, so with
    _OuterProblem's kept Jacobian every trial costs one scatter, which
    serves its residual and, if taken, the next step's J.  mu starts at
    LM_TAU max diag(J^T J).  The solve stops, as MINPACK's lmder does,
    at a zero residual, when the actual and predicted reductions are both
    within LM_TOL of |r|^2, when the step is within LM_TOL of |x|, or
    after LM_MAX_NFEV residuals.  It also stops when the damped system is
    exactly singular: near a solution where J^T J is singular (an outer
    factor with a zero on the boundary), mu shrinks below its rounding
    level.  Returns x, fun(x) and the number of residuals evaluated; the
    caller judges the residual.
    """
    x, r = x0, fun(x0)
    f, nfev, mu = r @ r, 1, None
    while f > 0:
        J = jac(x)
        A, g = J.T @ J, J.T @ r
        if mu is None:
            mu, eye = LM_TAU * A.diagonal().max(), np.eye(len(A))
        nu = 2.0
        while True:
            try:
                h = np.linalg.solve(A + mu * eye, -g)
            except np.linalg.LinAlgError:
                return x, r, nfev
            if (nfev >= LM_MAX_NFEV
                    or np.linalg.norm(h) <= LM_TOL * np.linalg.norm(x)):
                return x, r, nfev
            x_new = x + h
            r_new = fun(x_new)
            nfev += 1
            f_new = r_new @ r_new
            act, pred = f - f_new, h @ (mu * h - g)
            small = max(abs(act), pred) <= LM_TOL * f
            if act > 0:
                break
            if small:
                return x, r, nfev
            mu, nu = mu * nu, 2 * nu
        x, r, f = x_new, r_new, f_new
        if small:
            break
        mu *= max(1 / 3, 1 - (2 * act / pred - 1) ** 3)
    return x, r, nfev


def spectral_outer(H):
    """(F, nfev): the outer factor of H and the residuals its solve
    evaluated."""
    if H.rows != H.cols:
        raise ShapeMismatchError("spectral factorization needs square "
                                 "coefficients")
    if not H.codes.size:
        raise ValueError("cannot factor the zero series")
    H, e = _pow2_normalized(H)
    F, nfev = _spectral_outer(H, toeplitz_data(H))
    return F._ldexp(e), nfev


def _spectral_outer(H, t):
    n = H.rows
    mass = float(np.trace(t[0]).real)
    prob = _OuterProblem(H, H.degree(), t / mass)
    t0 = prob.target[0]
    vals, vecs = np.linalg.eigh(0.5 * (t0 + t0.conj().T))
    init = np.zeros(prob.shape, dtype=complex)
    init[0] = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    x, r, nfev = _lm(prob.residual, prob.jacobian,
                     init.reshape(-1).view(float))
    err = float(np.max(np.abs(r)))
    if err > 1e-11:
        raise DiagnosticError(
            f"autocorrelation factorization did not converge "
            f"(residual {err:.3e}) after {nfev} residual evaluations")
    F = prob.decode(x).copy()
    F[0] = 0.5 * (F[0] + F[0].conj().T)
    if n == 1 and F[0, 0, 0].real < 0:
        F = -F
    codes = np.flatnonzero((np.abs(F) > 1e-14).any(axis=(1, 2)))
    return (NcSeries._of(H.d, n, n, prob.m, codes,
                         math.sqrt(mass) * F[codes]), nfev)
