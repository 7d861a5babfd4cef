"""Mesh, P1 basis, and bilinear-form assembly on an interval.

Everything lives on a uniform mesh of (a, b) with homogeneous Dirichlet
exterior condition: the n interior nodes carry hat functions that are
extended by zero on the rest of the real line.  Three bilinear forms are
assembled as symmetric Toeplitz matrices, each held by its first column:

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
across threads; a form's dense matrix is built afresh on each read.
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
from .interpolation import Report

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
    """Symmetric Toeplitz form held by its first column; ``data`` builds it afresh on each read."""

    kind: Kind
    column: np.ndarray
    mesh: Mesh1D
    s: float | None = None

    def __post_init__(self):
        if self.column.shape != (self.mesh.n,):
            raise DimensionError(f"column shape {self.column.shape} does not match "
                                 f"mesh with {self.mesh.n} nodes")
        if self.kind is Kind.FRACTIONAL_STIFFNESS:
            if self.s is None or not (0.0 < self.s < 1.0):
                raise ParameterError(f"fractional order s must lie in (0, 1), got {self.s}")
        self.column.setflags(write=False)

    @property
    def data(self) -> np.ndarray:
        """A new dense toeplitz(column), read-only; nothing keeps it."""
        d = toeplitz(self.column)
        d.setflags(write=False)
        return d

    @property
    def n(self) -> int:
        return self.mesh.n


def assemble_mass(mesh: Mesh1D) -> OperatorMatrix:
    """Mass matrix of the P1 Dirichlet space: tridiag(h/6, 2h/3, h/6)."""
    h = mesh.h
    column = np.concatenate(([2.0 * h / 3.0, h / 6.0], np.zeros(mesh.n)))[: mesh.n]
    return OperatorMatrix(kind=Kind.MASS, column=column, mesh=mesh)


def assemble_local_stiffness(mesh: Mesh1D) -> OperatorMatrix:
    """Gradient (stiffness) matrix: tridiag(-1/h, 2/h, -1/h)."""
    h = mesh.h
    column = np.concatenate(([2.0 / h, -1.0 / h], np.zeros(mesh.n)))[: mesh.n]
    return OperatorMatrix(kind=Kind.LOCAL_STIFFNESS, column=column, mesh=mesh)


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
    return OperatorMatrix(kind=Kind.FRACTIONAL_STIFFNESS, column=column, mesh=mesh, s=float(s))


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

def lp_norm(samples, weights, p):
    """Weighted discrete p-norm (sum_i w_i |f_i|^p)^(1/p); max |f_i| for p = inf.

    With a lane axis, samples and weights are (lanes, size) arrays, p is one
    exponent or one per lane, and the result holds one norm per lane, each
    equal bit for bit to the one-lane call on that lane's row.
    """
    f = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if f.shape != w.shape or f.ndim not in (1, 2):
        raise DimensionError(f"samples {f.shape} and weights {w.shape} must be equal-length "
                             "vectors or equal (lanes, size) arrays")
    if np.any(w <= 0.0):
        raise MeasureError("weights must be strictly positive")
    exps = _per_lane(p, f.shape[:-1])
    if np.any(exps < 1.0):
        raise ParameterError(f"p must lie in [1, inf], got {p}")
    f, w, exps = np.abs(np.atleast_2d(f)), np.atleast_2d(w), exps.reshape(-1)
    finite = np.where(exps == math.inf, 1.0, exps)
    # full exponent arrays: numpy squares (and takes other shortcuts) where one
    # exponent is broadcast as a scalar, so a one-lane call would not give its lane's bits
    sums = np.sum(w * np.power(f, np.repeat(finite[:, None], f.shape[1], axis=1)), axis=1)
    norms = np.where(exps == math.inf, np.max(f, axis=1, initial=0.0), np.power(sums, 1.0 / finite))
    return float(norms[0]) if np.ndim(samples) == 1 else norms


def _per_lane(exponent, lanes):
    """An exponent as one value per lane: a read-only array of shape ``lanes``."""
    exponent = np.asarray(exponent, dtype=float)
    if exponent.shape not in ((), lanes):
        raise DimensionError(f"exponents {exponent.shape} must be one value or one per lane {lanes}")
    return np.broadcast_to(exponent, lanes)


def nodal_weights(mesh: Mesh1D) -> np.ndarray:
    """Midpoint-measure quadrature weights for nodal samples: uniform h.

    The default measure for Lebesgue-norm checks of nodal values; each
    interior node represents a cell of width h.
    """
    return np.full(mesh.n, mesh.h)


def check_lebesgue_interpolation(samples, weights, p, q, r) -> Report:
    """Check ||f||_r <= ||f||_q^(1-s) * ||f||_p^s with 1/r = (1-s)/q + s/p.

    Requires 1 <= p <= r <= q <= inf.  The intermediate exponent s is solved
    from the defining relation; when p == q (all three norms coincide) s is
    arbitrary and reported as 1/2.  ``inputs`` holds p, q, r and s.

    With a lane axis, samples and weights are (lanes, size) arrays, p, q and r
    are one exponent each or one per lane, and ``inputs``, lhs, rhs, ratio and
    holds are arrays over the lanes, each lane equal to the one-lane call's.
    """
    f, w = np.asarray(samples, dtype=float), np.asarray(weights, dtype=float)
    p, q, r = (_per_lane(e, f.shape[:-1]) for e in (p, q, r))
    for name, val in (("p", p), ("q", q), ("r", r)):
        if np.any(val < 1.0):
            raise ParameterError(f"{name} must lie in [1, inf], got {val}")
    if not np.all((p <= r) & (r <= q)):
        raise OrderingError(f"need p <= r <= q, got p={p}, r={r}, q={q}")
    single = f.ndim == 1
    if single:  # one lane, so that the call computes as a lane of a batch does
        f, w, p, q, r = f[None], w[None], p[None], q[None], r[None]
    same = p == q
    # 1/inf = 0 exactly
    s = np.where(same, 0.5, (1.0 / r - 1.0 / q) / np.where(same, 1.0, 1.0 / p - 1.0 / q))
    lhs = lp_norm(f, w, r)
    rhs = np.power(lp_norm(f, w, q), 1.0 - s) * np.power(lp_norm(f, w, p), s)
    ratio = np.divide(lhs, rhs, out=np.full(lhs.shape, math.inf), where=rhs > 0.0)
    holds = lhs <= rhs * (1.0 + 1e-12)
    if single:
        p, q, r, s, lhs, rhs, ratio = (float(v[0]) for v in (p, q, r, s, lhs, rhs, ratio))
        holds = bool(holds[0])
    return Report(op="lebesgue_interpolation", inputs={"p": p, "q": q, "r": r, "s": s},
                  lhs=lhs, rhs=rhs, ratio=ratio, holds=holds, tolerance=1e-12)
