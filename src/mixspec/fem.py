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
normalizing constant, as in Di Nezza, Palatucci and Valdinoci,
"Hitchhiker's guide to the fractional Sobolev spaces" (2012).

The fractional matrix is Toeplitz and its column is known in closed form.
With p = 3 - 2s and Delta^4 the central fourth difference in d, the entry
for node offset d is h^(1-2s) I_d with

    I_d = Delta^4 |d|^p / (s (1-2s) (2-2s) (3-2s))
        = -2 Delta^4 |d|^p / (p (p-1) (p-2) (p-3)).

Delta^4 annihilates cubics, and three forms use that to avoid cancellation:

* d <= 1: |x|^p is replaced by (|x|^p - x^2)/(p-2) = x^2 log|x| exprel((p-2)
  log|x|), which has no pole at s = 1/2;
* d = 2: the stencil 0..4 is >= 0, so x^q with q the integer nearest p is
  subtracted instead: (x^p - x^q)/(p-q) = x^q log x exprel((p-q) log x);
* d >= 3: the binomial series of (d+k)^p, of which Delta^4 keeps the even
  powers m >= 4: I_d = -2 d^(p-4) sum_m [prod_{4<=j<m} (p-j) / m!]
  (2^(m+1) - 8) d^(4-m).  The four factors of the denominator cancel, every
  term is positive, and the sum stops once a term drops below eps.

All returned objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import exprel

from .errors import (
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

def _scaled_column(n: int, s: float) -> np.ndarray:
    """Scaled entries I_d (h = 1) for offsets d = 0 .. n-1, in closed form."""
    # p - j for j = 0..3, formed from s so that none loses digits near 0
    pj = np.array([3.0, 2.0, 1.0, 0.0]) - 2.0 * s
    x = np.array([2.0, 3.0, 4.0])
    lx = np.log(x)

    def near(q):
        # Delta^4 at d = 0, 1, 2 of (x^p - x^q)/(p-q), which vanishes at x = 0, 1
        g = x**q * lx * exprel(pj[q] * lx)
        diffs = np.array([2.0 * g[0], g[1] - 4.0 * g[0], 6.0 * g[0] - 4.0 * g[1] + g[2]])
        return diffs * (-2.0 / np.prod(np.delete(pj, q)))

    head = near(2)
    head[2] = near(round(pj[0]))[2]

    # series coefficients in d^-2, taken until the term at d = 3 (the slowest
    # to converge, and every term is positive) drops below eps of the sum
    coefs, c, m, term, total = [1.0], 1.0 / 24.0, 4, 1.0, 1.0
    while term > np.finfo(float).eps * total:
        c *= ((3.0 - m) - 2.0 * s) * ((2.0 - m) - 2.0 * s) / ((m + 1) * (m + 2))
        m += 2
        coefs.append(c * (2.0 ** (m + 1) - 8.0))
        term = coefs[-1] / 9.0 ** (len(coefs) - 1)
        total += term
    d = np.arange(3.0, n)
    tail = -2.0 * d ** (-1.0 - 2.0 * s) * np.polynomial.polynomial.polyval(d**-2.0, coefs)
    return np.concatenate((head, tail))[:n]


def assemble_fractional_stiffness(mesh: Mesh1D, s: float) -> OperatorMatrix:
    """Fractional stiffness matrix for the zero-extended hat basis.

    Entries depend on the node offset only (Toeplitz); the column is the
    closed form of the module docstring, scaled by h^(1-2s).  Its entries
    grow like 1/s and like h^(1-2s), and a column that overflows (subnormal
    s, or s near 1 on a subnormal h) is refused with ParameterError.
    """
    if not (0.0 < s < 1.0):
        raise ParameterError(f"fractional order s must lie in (0, 1), got {s}")
    # the d = 2 form discarded for q = 2 (and an overflowing column) would warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        column = np.float64(mesh.h) ** (1.0 - 2.0 * s) * _scaled_column(mesh.n, s)
    if not np.isfinite(column).all():
        raise ParameterError(f"fractional stiffness column overflows at s={s:g}, h={mesh.h:g}")
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
