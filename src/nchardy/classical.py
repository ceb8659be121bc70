"""Classical one-variable factorization as a cross-check.

For d = 1 the general machinery must reproduce the textbook picture:
polynomials factor into a finite Blaschke product times an outer
polynomial, and the singular part is trivial.  This module computes that
picture directly from roots, provides the atomic singular inner for the
semigroup tests, and packages the comparison against the general pipeline,
including singularity pairs built from Jordan blocks at the zeros.
"""

import numpy as np

from .errors import BoundaryRootError, ShapeMismatchError
from .evaluate import MatrixPoint, evaluate
from .factorization import inner_outer
from .fockspace import FockBasis, coeff_stack
from .kernels import SingularityPair, _left_null_direction, _sing_test
from .ncseries import (
    NcSeries,
    _degree_arg,
    _int_size,
    max_coeff_diff,
    phase_normalize,
    series_mul,
)
from .transforms import semigroup_inner

# Roots this close to the unit circle make the Blaschke/outer call
# unstable, so they are rejected instead of classified.
BOUNDARY_MARGIN = 1e-10


def _disk_coeffs(p):
    """Ascending coefficient vector of a d=1 scalar polynomial."""
    if isinstance(p, NcSeries):
        if p.d != 1 or not p.is_scalar():
            raise ShapeMismatchError("expected a scalar series in one "
                                     "variable")
        return coeff_stack(p, FockBasis(1, p.degree())).reshape(-1)
    c = np.asarray(p, dtype=complex).reshape(-1)
    if c.size == 0:
        raise ValueError("empty coefficient vector")
    return c


def _coeffs_to_series(c, N):
    coeffs = {(1,) * j: complex(val) for j, val in enumerate(c[:N + 1])}
    return NcSeries(1, 1, 1, N, coeffs)


def blaschke_product(zeros, N):
    """Taylor series of the finite Blaschke product with the given zeros.

    Each nonzero a contributes (|a|/a)(a - z)/(1 - conj(a) z), with
    coefficients |a| and (|a|/a)(|a|^2 - 1) conj(a)^(m-1) at z^m; a = 0
    gives z.  Zeros on or outside the circle raise BoundaryRootError.
    """
    out = NcSeries.constant(1.0, 1, N)
    for a in zeros:
        a = complex(a)
        if abs(a) >= 1.0 - BOUNDARY_MARGIN:
            raise BoundaryRootError(
                f"zero at |a| = {abs(a):.12f} is not strictly inside the "
                "circle")
        if a == 0.0:
            fac = NcSeries.monomial((1,), 1, N)
        else:
            tail = (abs(a) ** 2 - 1.0) * np.conj(a) ** np.arange(N)
            fac = _coeffs_to_series(np.r_[abs(a), abs(a) / a * tail], N)
        out = series_mul(out, fac, N)
    return out


class DiskFactorization:
    """Blaschke - singular - outer data of a one-variable polynomial."""

    def __init__(self, zeros, singular, outer, phase, N):
        self.zeros = list(zeros)
        self.singular = singular
        self.outer = outer
        self.phase = complex(phase)
        self.N = int(N)

    def __repr__(self):
        return (f"DiskFactorization(zeros={len(self.zeros)}, "
                f"phase={self.phase:.4f})")


def poly_factor_classical(p, N=None):
    """Factor a one-variable polynomial over the unit disk.

    Roots come from the companion matrix; those inside the circle become
    Blaschke zeros, those outside fold into the outer polynomial, and any
    root within BOUNDARY_MARGIN of the circle raises BoundaryRootError.
    The returned pieces satisfy p = phase * blaschke * outer with outer(0)
    real positive, and the singular part of a polynomial is trivial.  N,
    the truncation order, is an int >= 0 (default max(deg p, 1)).
    """
    c = _disk_coeffs(p)
    deg_all = c.size - 1
    while c.size > 1 and c[-1] == 0.0:
        c = c[:-1]
    if c.size == 1 and c[0] == 0.0:
        raise ValueError("cannot factor the zero polynomial")
    N = _degree_arg("N", N, 1, max(deg_all, 1))
    k0 = 0
    while c[k0] == 0.0:
        k0 += 1
    zeros = [0j] * k0
    body = c[k0:]
    outer_roots = []
    if body.size > 1:
        roots = np.roots(body[::-1])
        for r in roots:
            if abs(abs(r) - 1.0) <= BOUNDARY_MARGIN:
                raise BoundaryRootError(
                    f"root at |r| = {abs(r):.12f} is within "
                    f"{BOUNDARY_MARGIN:.1e} of the unit circle")
            if abs(r) < 1.0:
                zeros.append(complex(r))
            else:
                outer_roots.append(complex(r))
    lead = body[-1]
    outer_c = np.array([lead], dtype=complex)
    for a in zeros:
        if a != 0.0:
            # (z - a) = -(a/|a|) phi_a(z) (1 - conj(a) z)
            outer_c = np.convolve(outer_c, [1.0, -np.conj(a)])
            outer_c = outer_c * (-(a / abs(a)))
    for r in outer_roots:
        outer_c = np.convolve(outer_c, [-r, 1.0])
    phase = outer_c[0] / abs(outer_c[0])
    outer_c = outer_c / phase
    outer = _coeffs_to_series(outer_c, max(N, outer_c.size - 1))
    singular = NcSeries.constant(1.0, 1, N)
    return DiskFactorization(zeros, singular, outer, phase, N)


def atomic_singular(t, N):
    """sigma_t(z) = exp(-t (1+z)/(1-z)): the atomic singular inner at the
    point 1, through degree N.

    Constant term e^{-t}; inner with no zeros in the disk.  Built by the
    semigroup construction on B = z, which at d = 1 reads the Taylor
    series of sigma_t directly: the coefficient of z^n is
    e^{-t} L_n^{(-1)}(2t), from the exponential recurrence f_0 = e^{-t},
    f_n = (-2t/n) sum_{k=1}^{n} k f_{n-k} (the Laguerre generating
    function, Szegő, Orthogonal Polynomials, (5.1.9)).  So it is the same
    object the general machinery produces at d = 1.
    """
    z = NcSeries.monomial((1,), 1, max(N, 1)).truncate(N)
    return semigroup_inner(z, t, N)


def jordan_pair(w, multiplicity):
    """Singularity pair at an interior zero from a Jordan block.

    The block W = w I + eps (superdiagonal) keeps its norm below 1 when
    eps < 1 - |w|, and the block must not degenerate, which needs
    eps < |w| as well when scaling matters; eps is half the stricter of
    the two bounds, and which one binds is reported in the returned dict.
    Any polynomial vanishing at w to this multiplicity, an int >= 1, has
    (W, y) in its singularity locus for a suitable left null direction y.
    """
    w = complex(w)
    if not abs(w) < 1.0:
        raise ValueError(f"zero |w| = {abs(w):.4f} not inside the disk")
    m = _int_size("multiplicity", multiplicity)
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    eps = (1.0 - abs(w)) / 2.0
    binding = "ball-radius"
    if w != 0.0 and abs(w) / 2.0 < eps:
        eps = abs(w) / 2.0
        binding = "zero-modulus"
    W = w * np.eye(m, dtype=complex) + eps * np.diag(np.ones(m - 1), 1)
    Z = MatrixPoint([W])
    return {"point": Z, "eps": float(eps), "binding": binding}


def compare_with_nc(h, N=None):
    """Cross-check the general factorization against the classical one.

    Factors the polynomial both ways, aligns phases, and reports maximum
    coefficient differences for the inner and outer parts, plus Jordan
    singularity pairs at each interior zero with their membership
    residuals.
    """
    if isinstance(h, NcSeries):
        series = h
    else:
        c = _disk_coeffs(h)
        series = _coeffs_to_series(c, c.size - 1)
    if N is None:
        N = max(series.max_degree, series.degree() + 3)
    series = series.with_max_degree(N)
    cls = poly_factor_classical(series, N=N)
    io = inner_outer(series, N=N)
    B_ref = blaschke_product(cls.zeros, N)
    Bn, _ = phase_normalize(io.inner)
    Brefn, _ = phase_normalize(B_ref)
    inner_diff = max_coeff_diff(Bn, Brefn, N)
    On, _ = phase_normalize(io.outer)
    Orefn, _ = phase_normalize(cls.outer.with_max_degree(N))
    outer_diff = max_coeff_diff(On, Orefn, N)
    clusters = []
    for a in sorted(cls.zeros, key=lambda v: (abs(v), np.angle(v))):
        for c in clusters:
            if abs(a - c[0]) <= 1e-6:
                c[1] += 1
                break
        else:
            clusters.append([complex(a), 1])
    pairs = []
    for a, m in clusters:
        jp = jordan_pair(a, m)
        A = evaluate(series, jp["point"])
        y = _left_null_direction(A)
        member, resid, _ = _sing_test(A, y)
        pairs.append({
            "zero": a, "multiplicity": m, "eps": jp["eps"],
            "binding": jp["binding"],
            "pair": SingularityPair(jp["point"], y),
            "member": member, "residual": resid,
        })
    return {
        "zeros": cls.zeros,
        "phase": cls.phase,
        "wandering_dim": io.wandering_dim,
        "inner_agreement": inner_diff,
        "outer_agreement": outer_diff,
        "nc_defects": io.defects,
        "jordan_pairs": pairs,
    }
