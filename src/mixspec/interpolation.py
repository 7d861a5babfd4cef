"""Peetre K-functional and real-interpolation norms on Hilbert couples.

A couple is a pair of symmetric positive-definite Gram matrices (G_X, G_Y)
on a common coordinate space.  Simultaneous diagonalization G_Y v = mu G_X v
with a G_X-orthonormal basis V turns every functional here into an explicit
expression in the mode coordinates c = V^T G_X f:

    ||f||_X^2 = sum c_i^2          ||f||_Y^2 = sum mu_i c_i^2

The K-functional K(x, f) = inf_{f=g+h} ||g||_X + x ||h||_Y is read off the
Pareto frontier of the two quadratic objectives: the split minimizing
||g||_X^2 + w ||f-g||_Y^2, g_i = c_i w mu_i / (1 + w mu_i), is optimal for K
at one x = 1/R(w) (see ``_frontier``), so K at a given x is one Newton solve
in log w, or a corner of the frontier.

The quadratic companion K2(x, f) = inf (||g||_X^2 + x^2 ||h||_Y^2)^(1/2)
is the frontier point w = x^2, with the closed form
(sum c_i^2 x^2 mu_i / (1 + x^2 mu_i))^(1/2); it brackets K within sqrt(2).

The (s, p) interpolation norm is one trapezoid rule in log w along the
frontier (see ``_frontier_norms``).  For p = 2 with the K2 variant it
collapses to the spectral closed form sqrt(pi / (2 sin(pi s)) * sum
mu_i^s c_i^2), which is exposed separately as an oracle-grade reference.

Lanes: a couple may carry leading lane axes, one couple per lane.
``couple_from_grams`` takes stacked Grams (..., d, d) of one dimension, and
``stack_couples`` joins couples of mixed dimensions on one lane axis by
padding each with identity modes (mu = 1).  An element padded with zeros
has c = 0 on those modes, and a mode with c = 0 takes no part in K: the
frontier sums skip it and each lane's Newton bracket comes from its live
modes only.  K, K2 and ``symmetry_check`` then run once over all lanes;
the single couple is the case without lane axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg.lapack
import scipy.special

from .errors import (
    CoupleError,
    DimensionError,
    NormalizationError,
    ParameterError,
    UndefinedRatioError,
)

__all__ = [
    "HilbertCouple",
    "Report",
    "couple_from_grams",
    "stack_couples",
    "k_functional",
    "k_functional_samples",
    "k2_functional",
    "k2_functional_samples",
    "symmetry_check",
    "interpolation_norm",
    "spectral_s_norm",
    "operator_norm",
    "interpolation_gram",
    "p_label",
    "check_operator_interpolation",
    "check_interpolation_inequality",
    "check_inclusion_monotonicity",
]


@dataclass(frozen=True)
class HilbertCouple:
    """Compatible couple of Hilbert norms with cached mode decomposition.

    Every field may carry the same leading lane axes, one couple per lane
    (``residual`` is then one value per lane); ``coords``, ``swapped`` and
    the K functionals work lane by lane, the norms only on one couple.
    """

    g_x: np.ndarray
    g_y: np.ndarray
    mu: np.ndarray
    basis: np.ndarray
    residual: float | np.ndarray

    def __post_init__(self):
        for name in ("g_x", "g_y", "mu", "basis"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]

    def coords(self, f) -> np.ndarray:
        """Coordinates of f in the G_X-orthonormal mode basis."""
        f = self._check_vector(f)
        return (np.swapaxes(self.basis, -1, -2) @ (self.g_x @ f[..., None]))[..., 0]

    def norm_x(self, f) -> float:
        f = self._check_vector(f)
        return math.sqrt(max(float(f @ self.g_x @ f), 0.0))

    def norm_y(self, f) -> float:
        f = self._check_vector(f)
        return math.sqrt(max(float(f @ self.g_y @ f), 0.0))

    def swapped(self) -> "HilbertCouple":
        """The couple (Y, X), built from the same mode decomposition."""
        order = np.argsort(1.0 / self.mu, axis=-1, kind="stable")
        # the columns are gathered as rows of the transpose, which keeps each
        # basis column-major, the layout (and so the coordinate bits) of a
        # single couple's basis[:, order]
        rows = np.swapaxes(self.basis / np.sqrt(self.mu)[..., None, :], -1, -2)
        return HilbertCouple(
            g_x=self.g_y.copy(),
            g_y=self.g_x.copy(),
            mu=np.take_along_axis(1.0 / self.mu, order, axis=-1),
            basis=np.swapaxes(np.take_along_axis(rows, order[..., :, None], axis=-2), -1, -2),
            residual=self.residual,
        )

    def _check_vector(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.mu.shape:
            raise DimensionError(f"vector shape {f.shape} does not match couple shape {self.mu.shape}")
        return f


_dsygvd = scipy.linalg.lapack.dsygvd


def couple_from_grams(g_x, g_y) -> HilbertCouple:
    """Build a couple from two SPD Gram matrices of the same dimension.

    The generalized eigenproblem G_Y v = mu G_X v is solved once and cached;
    the basis is G_X-orthonormal, G_Y-orthogonal with v_i^T G_Y v_i = mu_i.
    The eigensolve factors G_X, so it fails unless G_X is positive definite;
    V^T G_Y V = diag(mu), so by Sylvester G_Y is positive definite iff mu > 0.
    Stacked Grams (..., d, d) give a couple with those lane axes, from the
    same eigensolve lane by lane; one failing lane fails the whole stack.
    Each lane is one call of ``dsygvd``, the LAPACK driver that
    ``scipy.linalg.eigh(g_y, g_x)`` runs, with its arguments (itype 1, the
    lower triangles): the same bits, without eigh's validation and dispatch
    on every call.  Any failure of the driver (G_X not positive definite,
    or no convergence) is a ``CoupleError``.
    """
    g_x = np.array(g_x, dtype=float)
    g_y = np.array(g_y, dtype=float)
    if g_x.ndim < 2 or g_x.shape[-1] != g_x.shape[-2]:
        raise DimensionError(f"G_X must be square, got {g_x.shape}")
    if g_x.shape != g_y.shape:
        raise DimensionError(f"Gram shapes differ: {g_x.shape} vs {g_y.shape}")
    finite = True
    for name, g in (("G_X", g_x), ("G_Y", g_y)):
        scale = np.abs(g).max(axis=(-2, -1), keepdims=True)  # NaN or inf unless g is finite
        atol = 1e-12 * np.maximum(1.0, scale)
        g_t = np.swapaxes(g, -1, -2)
        if np.isfinite(scale).all():
            # np.isclose(g, g_t, rtol=0, atol) on finite input
            close = np.abs(g - g_t) <= atol
        else:
            # np.isclose's verdict and warning, then scipy's refusal below
            finite = False
            close = np.isclose(g, g_t, rtol=0.0, atol=atol)
        if not close.all():
            raise CoupleError(f"{name} is not symmetric")
    if not finite:
        raise ValueError("array must not contain infs or NaNs")
    g_x = 0.5 * (g_x + np.swapaxes(g_x, -1, -2))
    g_y = 0.5 * (g_y + np.swapaxes(g_y, -1, -2))

    def eigh(g_y, g_x):
        mu, basis, info = _dsygvd(g_y, g_x, itype=1, jobz="V", uplo="L")
        if info != 0:
            raise CoupleError("G_X is not positive definite")
        return mu, basis

    # every basis keeps the layout eigh gave it, LAPACK's column-major one
    # in each lane, because coords sums in the order the layout sets
    lanes = g_x.shape[:-2]
    if lanes:
        mu, basis = np.empty(g_x.shape[:-1]), np.swapaxes(np.empty(g_x.shape), -1, -2)
        for lane in np.ndindex(lanes):
            mu[lane], basis[lane] = eigh(g_y[lane], g_x[lane])
    else:
        mu, basis = eigh(g_y, g_x)
    if (mu <= 0.0).any():
        raise CoupleError("G_Y is not positive definite")
    residual = np.linalg.norm(g_y @ basis - g_x @ basis * mu[..., None, :], axis=(-2, -1)) / (
        np.linalg.norm(g_y, axis=(-2, -1)))
    return HilbertCouple(g_x=g_x, g_y=g_y, mu=mu, basis=basis,
                         residual=float(residual) if residual.ndim == 0 else residual)


def stack_couples(couples) -> HilbertCouple:
    """One couple with a single lane axis from couples of any dimension.

    Each couple contributes its lanes (one if it has none), in order.  A
    couple of dimension d below the widest one is padded on the extra
    coordinates by the identity couple: G_X = G_Y = I, mu = 1 and basis
    vectors e_k there.  An element padded with zeros keeps its K, K2 and
    norms, because its coordinates on the padded modes are exactly 0.
    """
    width = max(couple.dim for couple in couples)
    parts = {name: [] for name in ("g_x", "g_y", "mu", "basis", "residual")}
    for couple in couples:
        lanes, d = couple.mu.shape[:-1], couple.dim
        for name in ("g_x", "g_y", "basis"):
            block = np.broadcast_to(np.eye(width), lanes + (width, width)).copy()
            block[..., :d, :d] = getattr(couple, name)
            parts[name].append(block.reshape(-1, width, width))
        mu = np.ones(lanes + (width,))
        mu[..., :d] = couple.mu
        parts["mu"].append(mu.reshape(-1, width))
        parts["residual"].append(np.reshape(couple.residual, -1))
    return HilbertCouple(**{name: np.concatenate(arrays) for name, arrays in parts.items()})


# ----------------------------------------------------------------------------
# The Pareto frontier and the K-functional
# ----------------------------------------------------------------------------

_SPAN = 40.0  # log-weight margin past 1/mu_max and 1/mu_min: e^-40 is below rounding
_STEP = 0.25  # step of the trapezoid grid in u = log w


def _frontier(mu, c2, u):
    """||g||_X^2 = w^2 S2, ||h||_Y^2 = S1 and D = -d log R / du at w = e^u.

    The split for w keeps g_i = q_i c_i, q = w mu / (1 + w mu).  With
    a = (1 + w mu)^-2, S1 = sum c^2 mu a, S2 = sum c^2 mu^2 a and
    R(w)^2 = S2 / S1, it is optimal for K at x = 1/R(w), which grows with u:
    D = <q>_S2 - <q>_S1 >= 0, means weighted by the terms of S2 and S1.
    mu and c2 carry the mode axis first; their other axes broadcast against u.
    """
    z = np.log(mu) + u
    q = scipy.special.expit(z)
    mu_a = mu * scipy.special.expit(-z) ** 2

    def total(weight):
        return np.einsum("i...,i...->...", c2, weight)

    g2 = total(q * q)
    h2 = total(mu_a)
    return g2, h2, total(q * q * q) / g2 - total(mu_a * q) / h2


_libm_log = np.vectorize(math.log, otypes=[float])


def _bracket(mu_max, mu_min):
    """Range of u = log w outside which every mode in [mu_min, mu_max] sits on a corner.

    Elementwise, so one bracket per lane.  The logs are libm's: numpy's
    SIMD log differs from it in the last bit now and then, and the bracket
    sets the norm grid, so a single couple keeps the bits it always had.
    """
    return -_libm_log(mu_max) - _SPAN, -_libm_log(mu_min) + _SPAN


def _solve(fun, u, lo, hi):
    """Root of fun, increasing through it in [lo, hi], by Newton lane by lane.

    ``fun`` returns value and slope; a step that leaves the bracket is
    replaced by bisection, so every lane converges.
    """
    for _ in range(100):
        value, slope = fun(u)
        lo = np.where(value < 0.0, u, lo)
        hi = np.where(value > 0.0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = u - value / slope
        keep = ((newton > lo) & (newton < hi)) | (value == 0.0)
        step = np.where(keep, newton, 0.5 * (lo + hi)) - u
        u = u + step
        if np.all(np.abs(step) <= 1e-12 * (1.0 + np.abs(u))):
            break
    return u


def _k_samples_from_modes(mu, c, xs):
    """Exact K(x, f) at the points xs, read off the frontier, lane by lane.

    mu and c hold the modes on the last axis, after any lane axes; xs holds
    the points on its last axis, and its other axes broadcast against the
    lanes.  Modes with c = 0 are dead and take no part.  Between 1/R(0) and
    1/R(inf), K is the frontier point with 1/R(w) = x; K is stationary in w
    there, so its error is second order in the root error.  Outside, K is
    the corner x ||f||_Y below or ||f||_X above.  Every inside point of
    every lane goes through one Newton solve.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0.0):
        raise ParameterError("K-functional arguments x must be positive")
    c2 = c * c
    live = c2 > 0.0
    c2 = np.where(live, c2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a lane without live modes
        norm_x = np.sqrt(np.sum(c2, axis=-1))[..., None]
        norm_y = np.sqrt(np.sum(mu * c2, axis=-1))[..., None]
        x_lo = norm_y / np.sqrt(np.sum(mu * mu * c2, axis=-1))[..., None]
        x_hi = np.sqrt(np.sum(c2 / mu, axis=-1))[..., None] / norm_x
    out = np.minimum(norm_x, xs * norm_y)
    xs = np.broadcast_to(xs, out.shape)
    inside = (xs > x_lo) & (xs < x_hi)
    if np.any(inside):
        t = np.log(xs[inside])
        # the modes of the lane of every inside point, mode axis first; C order,
        # so the frontier sums add the modes in the order a single couple does
        modes = out.shape + mu.shape[-1:]
        mu_t = np.ascontiguousarray(np.broadcast_to(mu[..., None, :], modes)[inside].T)
        c2_t = np.ascontiguousarray(np.broadcast_to(c2[..., None, :], modes)[inside].T)
        live_t = c2_t > 0.0
        lo, hi = _bracket(np.max(mu_t, axis=0, where=live_t, initial=0.0),
                          np.min(mu_t, axis=0, where=live_t, initial=np.inf))

        def log_x_minus_t(u):
            g2, h2, d = _frontier(mu_t, c2_t, u)
            return u + 0.5 * np.log(h2 / g2) - t, d

        u = _solve(log_x_minus_t, np.clip(2.0 * t, lo, hi), lo, hi)
        g2, h2, _ = _frontier(mu_t, c2_t, u)
        out[inside] = np.minimum(out[inside], np.sqrt(g2) + xs[inside] * np.sqrt(h2))
    return out


def k_functional_samples(couple: HilbertCouple, f, xs) -> np.ndarray:
    """K(x, f) for every x in xs (vectorized exact Pareto scalarization).

    With lane axes, f is (..., d) and xs (..., m) or (m,); the result is
    (..., m).
    """
    return _k_samples_from_modes(couple.mu, couple.coords(f), xs)


def _at_points(samples, couple, f, x):
    """samples(couple, f, xs) at one x, or at one x per lane."""
    values = samples(couple, f, np.asarray(x, dtype=float)[..., None])[..., 0]
    return float(values) if values.ndim == 0 else values


def k_functional(couple: HilbertCouple, f, x):
    """Peetre K-functional K(x, f) = inf_{f=g+h} ||g||_X + x ||h||_Y.

    With lane axes, x is one point for every lane or one point per lane,
    and K comes back per lane.
    """
    return _at_points(k_functional_samples, couple, f, x)


def _k2_samples_from_modes(mu, c, xs):
    """Closed-form K2 on a grid: sqrt(sum c_i^2 t/(1+t)) with t = mu_i x^2.

    x is clamped at 1e150 before squaring; beyond that point t/(1+t) equals
    1.0 in double precision anyway, so the clamp changes nothing but avoids
    the overflow.  Lane axes as for ``_k_samples_from_modes``.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0.0):
        raise ParameterError("K-functional arguments x must be positive")
    c2 = c * c
    t = mu[..., :, None] * (np.minimum(xs, 1e150) ** 2)[..., None, :]
    return np.sqrt(np.sum(c2[..., :, None] * t / (1.0 + t), axis=-2))


def k2_functional_samples(couple: HilbertCouple, f, xs) -> np.ndarray:
    """Quadratic companion K2(x, f) = inf (||g||_X^2 + x^2 ||h||_Y^2)^(1/2)."""
    return _k2_samples_from_modes(couple.mu, couple.coords(f), xs)


def k2_functional(couple: HilbertCouple, f, x):
    return _at_points(k2_functional_samples, couple, f, x)


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """Uniform result record for the inequality/identity checkers."""

    op: str
    inputs: dict[str, Any]
    lhs: float
    rhs: float
    ratio: float
    holds: bool | None
    tolerance: float | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "holds": self.holds,
            "tolerance": self.tolerance,
        }


def symmetry_check(couple: HilbertCouple, f, x) -> Report:
    """Check K(x, f, Y, X) = x * K(1/x, f, X, Y) on the swapped couple.

    With lane axes, x holds one point per lane, and lhs, rhs, ratio and
    holds are arrays over the lanes.
    """
    if np.any(np.asarray(x) <= 0.0):
        raise ParameterError(f"x must be positive, got {x}")
    lhs = k_functional(couple.swapped(), f, x)
    rhs = x * k_functional(couple, f, 1.0 / np.asarray(x, dtype=float))
    scale = np.asarray(k_functional(couple, f, 1.0))  # = ||f||_{X+Y}
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.where(scale > 0.0, np.abs(lhs - rhs) / scale, 0.0)
    holds = disc <= 1e-9
    if disc.ndim == 0:
        disc, holds = float(disc), bool(holds)
    return Report(
        op="k_symmetry",
        inputs={"x": x},
        lhs=lhs,
        rhs=rhs,
        ratio=disc,
        holds=holds,
        tolerance=1e-9,
    )


# ----------------------------------------------------------------------------
# Interpolation norms
# ----------------------------------------------------------------------------

def _validate_sp(s: float, p: float = 2.0):
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    if not (p >= 1.0):
        raise ParameterError(f"p must lie in [1, inf], got {p}")


def _kappa(s: float) -> float:
    """pi/(2 sin pi s): the squared (s, 2) norm of K2 over sum mu^s c^2."""
    return math.pi / (2.0 * math.sin(math.pi * s))


def p_label(p: float) -> float | str:
    """p as the reports write it: JSON has no number for p = inf."""
    return "inf" if p == math.inf else p


def _frontier_norms(mu, coords, s: float, p: float, variant: str) -> np.ndarray:
    """(s, p) norms of the columns of ``coords`` (mode coordinates).

    All columns share one uniform grid in u = log w.  K integrates
    (K x^-s)^p D du (dx/x = D du), which vanishes at both grid ends, plus the
    corners x < 1/R(0) and x > 1/R(inf) in closed form.  K2 is the frontier
    point w = x^2 (K2^2 = ||g||_X^2 + w ||h||_Y^2, dx/x = du/2); its sum is
    continued past both ends as geometric series, where K2 is x ||f||_Y or
    ||f||_X to rounding.  For p = inf the grid argmax is refined by solving
    d log K / d log x = H = s between its neighbours, and so is every other
    interior local maximum that can reach the refined value: two peaks can
    nearly tie, and the grid can rank them wrongly.  The profile is
    log K - s log x, so between the neighbours u_(j-1), u_(j+1) of a grid
    point it moves by at most max(s, 1 - s) (log x_(j+1) - log x_(j-1)), the
    integral of max(s, 1 - s) D du there.  A peak below the refined value by
    more than that bound is left out.  That leaves out the rounding peaks of
    the corner plateaus, past the last mode at either end of the grid, where
    x stops moving (D falls to about 1e-15) and every solve would bisect to
    the end of its bracket.
    """
    if variant not in ("K", "K2"):
        raise ParameterError(f"variant must be 'K' or 'K2', got {variant!r}")
    c2 = coords * coords
    out = np.zeros(c2.shape[1])
    live = np.any(c2 > 0.0, axis=0)
    c2 = c2[:, live]
    lo, hi = _bracket(np.max(mu), np.min(mu))
    u, step = np.linspace(lo, hi, int(math.ceil((hi - lo) / _STEP)) + 1, retstep=True)

    def log_profile(g2, h2, u):
        """log of K x^-s, or of K2 x^-s, at the frontier points u."""
        k2_sq = g2 + np.exp(u) * h2
        if variant == "K2":
            return 0.5 * np.log(k2_sq) - 0.5 * s * u
        return np.log(k2_sq) - 0.5 * np.log(g2) - s * (u + 0.5 * np.log(h2 / g2))

    g2, h2, d = _frontier(mu[:, None], c2[:, :, None], u)
    profile = log_profile(g2, h2, u)
    if variant == "K":
        # the corners x ||f||_Y at x = 1/R(0) and ||f||_X at x = 1/R(inf)
        log_nx, log_ny = 0.5 * np.log(np.sum(c2, axis=0)), 0.5 * np.log(mu @ c2)
        edge_lo = log_ny + (1.0 - s) * (log_ny - 0.5 * np.log((mu * mu) @ c2))
        edge_hi = log_nx - s * (0.5 * np.log((1.0 / mu) @ c2) - log_nx)
    else:
        # K2 is x ||f||_Y and ||f||_X to rounding at the grid ends
        edge_lo, edge_hi = profile[:, 0], profile[:, -1]
    top = np.maximum(np.max(profile, axis=1), np.maximum(edge_lo, edge_hi))

    if p == math.inf:
        def refined(c2, j):
            """log profile at the root of s - H between grid points j - 1 and j + 1, lane by lane."""
            def s_minus_h(v):
                g2, h2, d = _frontier(mu[:, None], c2, v)
                h = 1.0 / (1.0 + g2 * np.exp(-v) / h2)
                return s - h, h * (1.0 - h) * (1.0 - 2.0 * d)

            v = _solve(s_minus_h, u[j], u[j - 1], u[j + 1])
            g2, h2, _ = _frontier(mu[:, None], c2, v)
            return log_profile(g2, h2, v)

        # the argmax first, in one solve over the lanes, then the other local
        # maxima that can reach it in a second one, so that a single peak
        # keeps its Newton steps
        j = np.clip(np.argmax(profile, axis=1), 1, u.size - 2)
        best = np.maximum(top, refined(c2, j))
        inner = profile[:, 1:-1]
        log_x = 0.5 * u if variant == "K2" else u + 0.5 * np.log(h2 / g2)
        reach = inner + max(s, 1.0 - s) * (log_x[..., 2:] - log_x[..., :-2])
        peaks = (inner > profile[:, :-2]) & (inner >= profile[:, 2:]) & (reach >= best[:, None])
        peaks[np.arange(j.size), j - 1] = False
        lane, other = np.nonzero(peaks)
        if lane.size:
            np.maximum.at(best, lane, refined(c2[:, lane], other + 1))
        out[live] = np.exp(best)
        return out

    terms = np.exp(p * (profile - top[:, None]))
    ends_lo = np.exp(p * (edge_lo - top))
    ends_hi = np.exp(p * (edge_hi - top))
    if variant == "K":
        total = step * np.sum(terms * d, axis=1)
        total += ends_lo / ((1.0 - s) * p) + ends_hi / (s * p)
    else:
        total = 0.5 * step * (np.sum(terms, axis=1) + ends_lo / np.expm1(0.5 * (1.0 - s) * p * step)
                              + ends_hi / np.expm1(0.5 * s * p * step))
    out[live] = np.exp(top) * total ** (1.0 / p)
    return out


def interpolation_norm(couple: HilbertCouple, f, s: float, p: float, variant: str = "K") -> float:
    """The (s, p) real-interpolation norm of f, read off the frontier.

    For finite p this is ( int_0^inf K(x, f)^p x^(-sp-1) dx )^(1/p), for
    p = inf sup_x K(x, f) / x^s.  ``variant`` selects the exact K-functional
    ("K") or its quadratic companion ("K2").
    """
    _validate_sp(s, p)
    coords = couple.coords(f)[:, None]
    return float(_frontier_norms(couple.mu, coords, s, p, variant)[0])


def spectral_s_norm(couple: HilbertCouple, f, s: float) -> float:
    """Closed-form reference: sqrt(pi/(2 sin pi s) * sum mu_i^s c_i^2).

    Per mode, int_0^inf x^(1-2s) mu/(1+x^2 mu) dx = mu^s pi/(2 sin pi s),
    so this equals the K2-variant (s, 2) norm exactly.
    """
    _validate_sp(s)
    c2 = couple.coords(f) ** 2
    return math.sqrt(_kappa(s) * float(np.sum(couple.mu**s * c2)))


# ----------------------------------------------------------------------------
# Operator norms and the inequality checkers
# ----------------------------------------------------------------------------

def operator_norm(t_mat, domain_gram, codomain_gram) -> float:
    """sup_{f != 0} ||T f||_codomain / ||f||_domain via a symmetric pencil."""
    t_mat = np.asarray(t_mat, dtype=float)
    domain_gram = np.asarray(domain_gram, dtype=float)
    codomain_gram = np.asarray(codomain_gram, dtype=float)
    if t_mat.ndim != 2:
        raise DimensionError(f"T must be a matrix, got shape {t_mat.shape}")
    rows, cols = t_mat.shape
    if domain_gram.shape != (cols, cols) or codomain_gram.shape != (rows, rows):
        raise DimensionError("Gram shapes do not match the operator")
    quad = t_mat.T @ codomain_gram @ t_mat
    quad = 0.5 * (quad + quad.T)
    # the driver scipy.linalg.eigh(quad, domain_gram, eigvals_only=True) runs,
    # called once directly, with eigh's refusals
    if not (np.isfinite(quad).all() and np.isfinite(domain_gram).all()):
        raise ValueError("array must not contain infs or NaNs")
    values, _, info = _dsygvd(quad, domain_gram, itype=1, jobz="N", uplo="L")
    if info > cols:
        raise np.linalg.LinAlgError(
            f"The leading minor of order {info - cols} of B is not positive definite. The "
            "factorization of B could not be completed and no eigenvalues or eigenvectors "
            "were computed.")
    if info != 0:
        raise np.linalg.LinAlgError(
            f"The algorithm failed to converge; {info} off-diagonal elements of an "
            "intermediate tridiagonal form did not converge to zero.")
    return math.sqrt(max(float(values[-1]), 0.0))


def interpolation_gram(couple: HilbertCouple, s: float) -> np.ndarray:
    """Gram matrix of the quadratic (s, 2) interpolation norm.

    In original coordinates the squared norm is
    pi/(2 sin pi s) * f^T G_X V diag(mu^s) V^T G_X f.
    """
    _validate_sp(s)
    w = couple.g_x @ couple.basis
    gram = _kappa(s) * (w * couple.mu**s) @ w.T
    return 0.5 * (gram + gram.T)


def check_operator_interpolation(
    t_mat,
    couple0: HilbertCouple,
    couple1: HilbertCouple,
    s: float,
    p: float,
    variant: str = "K2",
    *,
    num_directions: int = 10_000,
    rng=None,
) -> Report:
    """Check the exact power-s bound ||T||_(s,p) <= ||T||_X^(1-s) ||T||_Y^s.

    For the quadratic case (variant K2, p = 2) the interpolated operator
    norm is itself a generalized singular value and the bound is checked at
    tolerance 1e-8.  Any other (variant, p) is handled by randomized
    sup-sampling over ``num_directions`` directions plus local ascent from
    the best one; that lower-bounds the true norm, so the check is
    conservative and is reported with a looser documented tolerance.
    """
    _validate_sp(s, p)
    t_mat = np.asarray(t_mat, dtype=float)
    if t_mat.shape != (couple1.dim, couple0.dim):
        raise DimensionError(
            f"operator shape {t_mat.shape} does not map couple0 (dim {couple0.dim}) "
            f"into couple1 (dim {couple1.dim})"
        )
    norm_x = operator_norm(t_mat, couple0.g_x, couple1.g_x)
    norm_y = operator_norm(t_mat, couple0.g_y, couple1.g_y)
    rhs = norm_x ** (1.0 - s) * norm_y**s

    if variant == "K2" and p == 2:
        lhs = operator_norm(t_mat, interpolation_gram(couple0, s), interpolation_gram(couple1, s))
        tol = 1e-8
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        directions = rng.standard_normal((couple0.dim, num_directions))
        lhs = _sampled_operator_norm(t_mat, couple0, couple1, s, p, variant, directions, rng)
        tol = 1e-4
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    return Report(
        op="operator_interpolation",
        inputs={"s": s, "p": p_label(p), "variant": variant},
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        holds=lhs <= rhs * (1.0 + tol),
        tolerance=tol,
    )


def _sampled_operator_norm(t_mat, couple0, couple1, s, p, variant, directions, rng):
    def norms(couple, mat):
        coords = couple.basis.T @ (couple.g_x @ mat)
        # column blocks bound the (columns x grid) work arrays
        return np.concatenate([
            _frontier_norms(couple.mu, coords[:, j:j + 256], s, p, variant)
            for j in range(0, coords.shape[1], 256)
        ])

    def ratios(cols):
        num = norms(couple1, t_mat @ cols)
        den = norms(couple0, cols)
        good = den > 0.0
        out = np.zeros_like(den)
        out[good] = num[good] / den[good]
        return out

    vals = ratios(directions)
    best = directions[:, int(np.argmax(vals))].copy()
    best_val = float(np.max(vals))
    sigma = 0.5
    for _ in range(8):
        trial = best[:, None] + sigma * rng.standard_normal((best.size, 64))
        trial_vals = ratios(trial)
        j = int(np.argmax(trial_vals))
        if trial_vals[j] > best_val:
            best_val = float(trial_vals[j])
            best = trial[:, j].copy()
        sigma *= 0.5
    return best_val


def check_interpolation_inequality(
    couple: HilbertCouple, f, s: float, p: float, variant: str = "K"
) -> Report:
    """Check ||f||_(s,p) <= C ||f||_X^(1-s) ||f||_Y^s, C the (s, p) constant.

    The derived constant is sqrt(pi/(2 sin pi s)) for the quadratic (K2,
    p = 2) case, attained exactly by single modes; otherwise the envelope
    bound K(x) <= min(||f||_X, x ||f||_Y) yields (p s (1-s))^(-1/p)
    (1 for p = inf), valid for both variants since K2 <= K.  The report's
    ratio is lhs / rhs, as in the other checkers.
    """
    _validate_sp(s, p)
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise UndefinedRatioError("interpolation ratio is undefined for f = 0")
    value = interpolation_norm(couple, f, s, p, variant)
    base = couple.norm_x(f) ** (1.0 - s) * couple.norm_y(f) ** s
    if variant == "K2" and p == 2:
        constant = math.sqrt(_kappa(s))
    elif p == math.inf:
        constant = 1.0
    else:
        constant = (1.0 / (p * s * (1.0 - s))) ** (1.0 / p)
    rhs = constant * base
    return Report(
        op="interpolation_inequality",
        inputs={"s": s, "p": p_label(p), "variant": variant},
        lhs=value,
        rhs=rhs,
        ratio=value / rhs,
        holds=value <= rhs * (1.0 + 1e-9),
        tolerance=1e-9,
    )


def check_inclusion_monotonicity(
    couple: HilbertCouple, f, s1: float, s2: float, p: float
) -> Report:
    """Domination of the s1-norm by the s2-norm when Y embeds in X.

    Requires every mode to satisfy mu_i >= 1 (so ||.||_X <= ||.||_Y with
    constant 1) and s1 < s2.  The quantified contract lives at the
    quadratic p = 2 level: sum mu^s1 c^2 <= sum mu^s2 c^2, hence

        ||f||_(s1,2) <= sqrt(sin(pi s2) / sin(pi s1)) ||f||_(s2,2).

    The report carries the two K2-variant (s, p) norms for the requested p;
    ``holds`` asserts the explicit p = 2 inequality.
    """
    _validate_sp(s1, p)
    _validate_sp(s2, p)
    if not s1 < s2:
        raise ParameterError(f"need s1 < s2, got s1={s1}, s2={s2}")
    if float(np.min(couple.mu)) < 1.0 - 1e-12:
        raise NormalizationError(
            "inclusion check requires mu_min >= 1; rescale G_Y (e.g. use G_X + G_Y)"
        )
    norm_s1 = interpolation_norm(couple, f, s1, p, "K2")
    norm_s2 = interpolation_norm(couple, f, s2, p, "K2")
    c2 = couple.coords(f) ** 2
    lhs2 = math.sqrt(float(np.sum(couple.mu**s1 * c2)))
    rhs2 = math.sqrt(float(np.sum(couple.mu**s2 * c2)))
    constant = math.sqrt(math.sin(math.pi * s2) / math.sin(math.pi * s1))
    q1 = math.sqrt(_kappa(s1)) * lhs2
    q2 = math.sqrt(_kappa(s2)) * rhs2
    holds = (lhs2 <= rhs2 * (1.0 + 1e-12)) and (q1 <= constant * q2 * (1.0 + 1e-9))
    return Report(
        op="inclusion_monotonicity",
        inputs={"s1": s1, "s2": s2, "p": p_label(p),
                "norm_s1": norm_s1, "norm_s2": norm_s2},
        lhs=q1,
        rhs=constant * q2,
        ratio=q1 / (constant * q2) if q2 > 0.0 else math.inf,
        holds=holds,
        tolerance=1e-9,
    )
