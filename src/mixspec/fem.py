"""Mesh, P1 basis, and bilinear-form assembly on an interval.

Everything lives on a uniform mesh of (a, b) with homogeneous Dirichlet
exterior condition: the n interior nodes carry hat functions that are
extended by zero on the rest of the real line.  Three bilinear forms are
assembled as dense symmetric matrices:

* mass             M_ij     = int phi_i phi_j
* local stiffness  A_ij     = int phi_i' phi_j'
* fractional form  F_ij(s)  = iint (phi_i(x)-phi_i(y)) (phi_j(x)-phi_j(y))
                              |x-y|^(-1-2s) dx dy     over the whole plane

The fractional form uses the raw kernel |x-y|^(-1-2s) without any
normalizing constant.

Assembly of the fractional matrix exploits translation invariance: with
phi the unit hat and rho = phi (*) phi its autocorrelation (the centered
cubic B-spline), the entry for node offset d reduces to

    F_ij = h^(1-2s) * 2 * int_0^inf t^(-1-2s) [2 rho(d) - rho(d+t) - rho(d-t)] dt.

The integrand is piecewise cubic with integer breakpoints, vanishes to
second order at t = 0, and is constant 2*rho(d) past t = d+2, so the
integral splits into one exact power-law piece at the singularity, a few
Gauss-Legendre pieces on unit intervals, and an exact tail.  All offsets
are integrated in one vectorised pass; that first column alone fixes the
matrix, which is Toeplitz by construction and bit-reproducible.

All returned objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import toeplitz

from .errors import (
    AccuracyError,
    DimensionError,
    DomainError,
    MeasureError,
    OrderingError,
    ParameterError,
    SizeError,
)

__all__ = [
    "Mesh1D",
    "DiscreteFunction",
    "Kind",
    "OperatorMatrix",
    "build_mesh",
    "assemble_mass",
    "assemble_local_stiffness",
    "assemble_fractional_stiffness",
    "gagliardo_seminorm",
    "lp_norm",
    "nodal_weights",
    "check_lebesgue_interpolation",
    "LebesgueReport",
    "hat_autocorrelation",
]


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of (a, b) with n interior nodes.

    Node i (1-based, 1 <= i <= n) sits at a + i*h with h = (b-a)/(n+1).
    The boundary points a and b carry no degree of freedom.
    """

    a: float
    b: float
    n: int
    h: float

    @property
    def nodes(self):
        """Interior node positions, reproducible from (a, b, n)."""
        return self.a + self.h * np.arange(1, self.n + 1)

    def matches(self, other: "Mesh1D") -> bool:
        return (self.a, self.b, self.n) == (other.a, other.b, other.n)


def build_mesh(a: float, b: float, n: int) -> Mesh1D:
    """Build the uniform mesh of (a, b) with n interior nodes."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b and math.isfinite(b - a)):
        raise DomainError(f"invalid domain: need finite a < b and b - a, got a={a}, b={b}")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise SizeError(f"invalid size: need n >= 1 interior nodes, got {n}")
    n = int(n)
    return Mesh1D(a=a, b=b, n=n, h=(b - a) / (n + 1))


@dataclass(frozen=True)
class DiscreteFunction:
    """Piecewise-linear function sum_i coeffs_i phi_i, zero outside (a, b)."""

    mesh: Mesh1D
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.mesh.n,):
            raise DimensionError(
                f"coefficient vector has shape {c.shape}, mesh has {self.mesh.n} nodes"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        """Evaluate at points x; the extension by zero is part of the function."""
        mesh = self.mesh
        knots = np.concatenate(([mesh.a], mesh.nodes, [mesh.b]))
        vals = np.concatenate(([0.0], self.coeffs, [0.0]))
        return np.interp(x, knots, vals, left=0.0, right=0.0)


class Kind(Enum):
    MASS = "Mass"
    LOCAL_STIFFNESS = "LocalStiffness"
    FRACTIONAL_STIFFNESS = "FractionalStiffness"


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense symmetric matrix tagged with the bilinear form it represents."""

    kind: Kind
    data: np.ndarray
    mesh: Mesh1D
    s: float | None = None

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionError(f"operator matrix must be square, got {d.shape}")
        if d.shape[0] != self.mesh.n:
            raise DimensionError(
                f"matrix size {d.shape[0]} does not match mesh with {self.mesh.n} nodes"
            )
        if not np.array_equal(d, d.T):
            raise DimensionError("operator matrix must be exactly symmetric")
        if self.kind is Kind.FRACTIONAL_STIFFNESS:
            if self.s is None or not (0.0 < self.s < 1.0):
                raise ParameterError(f"fractional order s must lie in (0, 1), got {self.s}")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def assemble_mass(mesh: Mesh1D) -> OperatorMatrix:
    """Mass matrix of the P1 Dirichlet space: tridiag(h/6, 2h/3, h/6)."""
    h = mesh.h
    data = _tridiag(mesh.n, 2.0 * h / 3.0, h / 6.0)
    return OperatorMatrix(kind=Kind.MASS, data=data, mesh=mesh)


def assemble_local_stiffness(mesh: Mesh1D) -> OperatorMatrix:
    """Gradient (stiffness) matrix: tridiag(-1/h, 2/h, -1/h)."""
    h = mesh.h
    data = _tridiag(mesh.n, 2.0 / h, -1.0 / h)
    return OperatorMatrix(kind=Kind.LOCAL_STIFFNESS, data=data, mesh=mesh)


def _tridiag(n: int, diag: float, off: float) -> np.ndarray:
    m = np.zeros((n, n))
    np.fill_diagonal(m, diag)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


# ----------------------------------------------------------------------------
# Fractional stiffness
# ----------------------------------------------------------------------------

def hat_autocorrelation(x):
    """Autocorrelation rho(x) = int phi(u) phi(u - x) du of the unit hat.

    Equals the centered cubic B-spline: supported on [-2, 2], C^2, with
    rho(0) = 2/3 and rho(1) = 1/6.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(ax)
    inner = ax <= 1.0
    outer = (ax > 1.0) & (ax < 2.0)
    out[inner] = 2.0 / 3.0 - ax[inner] ** 2 + 0.5 * ax[inner] ** 3
    out[outer] = (2.0 - ax[outer]) ** 3 / 6.0
    return out


# Cubic coefficients (c2, c3) of 2*rho(d) - rho(d+t) - rho(d-t) on t in [0, 1], d <= 2.
# The constant and linear terms vanish because rho is C^2 and even about d.
_NEAR_ZERO_COEFFS = np.array([[2.0, -1.0], [-1.0, 2.0 / 3.0], [0.0, -1.0 / 6.0]])


def _offset_integrals(n_offsets: int, s: float, quad_order: int) -> np.ndarray:
    """Scaled entries I_d (h = 1) for offsets d = 0 .. n_offsets-1.

    I_d = 2 * int_0^inf t^(-1-2s) * [2 rho(d) - rho(d+t) - rho(d-t)] dt.
    """
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    # map to [0, 1]
    nodes01 = 0.5 * (nodes + 1.0)
    weights01 = 0.5 * weights

    # axes: (offset d, unit piece k = d-2 .. d+1, Gauss node)
    d = np.arange(n_offsets, dtype=float)[:, None, None]
    rho_d = np.where(d == 0, 2.0 / 3.0, np.where(d == 1, 1.0 / 6.0, 0.0))
    # pieces [k, k+1] for k >= 1: single cubic times analytic kernel
    k = d + np.arange(-2.0, 2.0)[:, None]
    t = np.maximum(k, 1.0) + nodes01
    g = 2.0 * rho_d - hat_autocorrelation(d + t) - hat_autocorrelation(d - t)
    total = np.where(k >= 1.0, g * t ** (-1.0 - 2.0 * s), 0.0).sum(axis=1) @ weights01
    # piece [0, 1]: integrand is c2*t^(1-2s) + c3*t^(2-2s), exact integral
    near = min(n_offsets, 3)
    total[:near] += _NEAR_ZERO_COEFFS[:near] @ [1.0 / (2.0 - 2.0 * s), 1.0 / (3.0 - 2.0 * s)]
    # beyond t = d+2 the bracket is the constant 2*rho(d)
    total += (2.0 * rho_d * (d + 2.0) ** (-2.0 * s) / (2.0 * s)).ravel()
    return 2.0 * total


def assemble_fractional_stiffness(
    mesh: Mesh1D, s: float, *, quad_order: int = 32, rtol: float = 1e-8
) -> OperatorMatrix:
    """Fractional stiffness matrix for the zero-extended hat basis.

    Entries depend on the node offset only (Toeplitz); each offset integral
    is evaluated once at ``quad_order`` and once at a higher order, and the
    disagreement is the per-entry error estimate checked against ``rtol``.
    """
    if not (0.0 < s < 1.0):
        raise ParameterError(f"fractional order s must lie in (0, 1), got {s}")
    if quad_order < 1:
        raise ParameterError(f"quad_order must be >= 1, got {quad_order}")
    vals = _offset_integrals(mesh.n, s, quad_order)
    ref = _offset_integrals(mesh.n, s, quad_order + 16)
    scale = np.max(np.abs(ref))
    err = float(np.max(np.abs(vals - ref))) / scale
    if err > rtol:
        raise AccuracyError(
            f"fractional assembly did not converge to rtol={rtol:g} "
            f"(achieved {err:.3e}) at quad_order={quad_order}",
            achieved=err,
        )
    column = mesh.h ** (1.0 - 2.0 * s) * ref
    data = toeplitz(column)
    return OperatorMatrix(kind=Kind.FRACTIONAL_STIFFNESS, data=data, mesh=mesh, s=float(s))


def gagliardo_seminorm(u: DiscreteFunction, a_frac: OperatorMatrix) -> float:
    """Seminorm sqrt(u^T F u) of a discrete function in the fractional form F."""
    if a_frac.kind is not Kind.FRACTIONAL_STIFFNESS:
        raise ParameterError(f"expected a fractional stiffness matrix, got {a_frac.kind}")
    if not u.mesh.matches(a_frac.mesh):
        raise DimensionError("function and matrix live on different meshes")
    q = float(u.coeffs @ a_frac.data @ u.coeffs)
    return math.sqrt(max(q, 0.0))


# ----------------------------------------------------------------------------
# Weighted Lebesgue norms and the interpolation inequality
# ----------------------------------------------------------------------------

def lp_norm(samples, weights, p: float) -> float:
    """Weighted discrete p-norm (sum_i w_i |f_i|^p)^(1/p); max |f_i| for p = inf."""
    f = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if f.shape != w.shape or f.ndim != 1:
        raise DimensionError(f"samples {f.shape} and weights {w.shape} must be equal-length vectors")
    if np.any(w <= 0.0):
        raise MeasureError("weights must be strictly positive")
    if p != math.inf and p < 1.0:
        raise ParameterError(f"p must lie in [1, inf], got {p}")
    if p == math.inf:
        return float(np.max(np.abs(f))) if f.size else 0.0
    return float(np.sum(w * np.abs(f) ** p) ** (1.0 / p))


def nodal_weights(mesh: Mesh1D) -> np.ndarray:
    """Midpoint-measure quadrature weights for nodal samples: uniform h.

    The default measure for Lebesgue-norm checks of nodal values; each
    interior node represents a cell of width h.
    """
    return np.full(mesh.n, mesh.h)


@dataclass(frozen=True)
class LebesgueReport:
    """Outcome of a Lebesgue interpolation-inequality check."""

    s: float
    lhs: float
    rhs: float
    holds: bool


def check_lebesgue_interpolation(samples, weights, p: float, q: float, r: float) -> LebesgueReport:
    """Check ||f||_r <= ||f||_q^(1-s) * ||f||_p^s with 1/r = (1-s)/q + s/p.

    Requires 1 <= p <= r <= q <= inf.  The intermediate exponent s is solved
    from the defining relation; when p == q (all three norms coincide) s is
    arbitrary and reported as 1/2.
    """
    for name, val in (("p", p), ("q", q), ("r", r)):
        if val != math.inf and val < 1.0:
            raise ParameterError(f"{name} must lie in [1, inf], got {val}")
    if not (p <= r <= q):
        raise OrderingError(f"need p <= r <= q, got p={p}, r={r}, q={q}")
    inv = lambda e: 0.0 if e == math.inf else 1.0 / e
    if p == q:
        s = 0.5
    else:
        s = (inv(r) - inv(q)) / (inv(p) - inv(q))
    lhs = lp_norm(samples, weights, r)
    rhs = lp_norm(samples, weights, q) ** (1.0 - s) * lp_norm(samples, weights, p) ** s
    return LebesgueReport(s=s, lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-12))
