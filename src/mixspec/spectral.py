"""Spectrum of the mixed pencil (A_loc + alpha*A_frac, M) for any real alpha.

M is symmetric positive definite, so (A_alpha, M) is a symmetric-definite
pencil for every real alpha.  On the uniform P1 mesh the orthonormal DST-I
S (``scipy.fft.dst(type=1, norm="ortho")``, its own inverse) diagonalises
both local forms exactly: with theta_j = j pi/(n+1),

    M = S diag(m) S,       m_j = h (2 + cos theta_j)/3,
    A_loc = S diag(l) S,   l_j = (2/h) (1 - cos theta_j).

With D = diag(m)^(-1/2) and B = D S A_frac S D, which two DSTs of A_frac
give, the pencil is congruent to the standard symmetric matrix

    E_alpha = diag(l/m) + alpha B,

with the same eigenvalues; an eigenvector y of E_alpha gives the pencil's
S D y, M-orthonormal when y is orthonormal.  The sine modes are even or
odd about the midpoint and A_frac commutes with the reflection, so B, and
with it E_alpha, splits into an even block on the modes 1, 3, 5, ... and an
odd block on 2, 4, 6, ...; only the two blocks are kept (``SineBasis``).
They are built once per assembled (mesh, s), on the first solve that needs
them, and every ``with_alpha`` coupling shares them.

Only the k lowest eigenpairs are asked for, so ``_lowest`` answers each
request by the cheapest exact route and records which one it took.  At
alpha = 0, E_0 = diag(l/m) is diagonal and l/m rises with theta, so the
pairs are closed forms.  From n = SHIFT_INVERT_MIN_N on (and k <= n /
SHIFT_INVERT_K_RATIO) shift-invert Lanczos runs on the Toeplitz pencil in
the original basis, on the Toeplitz column alone (``_toeplitz``): the
shift is the symbol floor, proved below lambda_1 by Durbin's pivots of
A - sigma M, and each step applies (A - sigma M)^-1 by the
Gohberg-Semencul inverse.  Neither route builds B, and this one builds no
n x n array.  Otherwise, and whenever a pivot is refused, ARPACK fails or its
pairs' backward error exceeds n eps, the standard dense eigensolve of
E_alpha answers, one half-size block at a time.

The paper's proof device, the minimal shift gamma >= 0 making

    A_alpha + gamma M - (1/2) A_loc  positive semidefinite,

the discrete sharp version of the coercivity estimate
B(u, u) + gamma ||u||^2 >= (1/2) ||u||_H^2, is reported with each
spectrum.  Since A_alpha - A_loc/2 = A_(2 alpha)/2, gamma is
max(0, -lambda_1(2 alpha)/2), and lambda_1(2 alpha)/2 is the lowest
eigenvalue of the Toeplitz pencil (A_alpha - A_loc/2, M), congruent to
E_(2 alpha)/2 = diag(l/m)/2 + alpha B.  For alpha >= 0 gamma is 0 in
closed form (A_loc is positive definite and A_frac positive semidefinite);
for alpha < 0 lambda_1 is computed, by ``_lowest``.  The contract's lower
bound and verify's dense eigensolve of (A_loc/2 - A_alpha, M) check both
independently.  The resolvent identity lambda_k = 1/mu_k - gamma, with mu_k
the eigenvalues of (A_alpha + gamma M)^{-1} M, is a check in the tests and
the verify suite, not the solver.

Every result is checked in the original basis, by a route independent of
the solve and without a dense A_alpha or M.  ``check_contract`` is the one
statement of the spectrum contract, with its tolerances; the CLI and the
verify suite only read its flags.  It multiplies the eigenvectors once by
M's three-term stencil and once by A_alpha as A_loc's stencil plus an FFT
Toeplitz product of A_frac (``_pencil_times``), as the solver's residuals
do, and its flags read those two products.  Its certificate proves by
Sylvester inertia that lambda_1..lambda_k are the k smallest eigenvalues,
the min-max characterization: the shifted column just below lambda_1 must
be ``_toeplitz.definite``, and ``_toeplitz.count_below`` just above
lambda_k must find exactly k, which proves it for every direction at once.
These two kernels check the shift-invert route independently of its own
factorization.  Off the banded case they split the shifted matrix by the
reflection x -> a + b - x, with which the operator commutes, into two
half-size blocks and factor those, one at a time, so the checks build no
n x n array.  The tests and the verify suite cross-check it at desk scale
with ``verify_variational_characterization``: one dense LAPACK eigensolve of
(A_alpha, M) in the original basis, independent of every route above, whose
values must match within the certificate's own shift.

The coupling threshold where lambda_1 changes sign is exactly
alpha* = -1/C_h, with C_h the largest eigenvalue of (A_frac, A_loc): the
discrete embedding constant, the top eigenvalue of
diag(l/m)^(-1/2) B diag(l/m)^(-1/2).  ``locate_threshold`` certifies it by
Sylvester inertia (lambda_1 > 0 iff A_alpha is positive definite):
A_alpha's column is not ``_toeplitz.definite`` at -(1 + THRESHOLD_RTOL)/C_h
and is at -(1 - THRESHOLD_RTOL)/C_h, which proves |alpha* + 1/C_h| C_h <=
THRESHOLD_RTOL.  It tests A_alpha, not E_alpha, so that it checks C_h,
computed from B, against the original basis.

C_h and the Brezis-type constant C_B (``verify_brezis_inequality``) are
both the top eigenvalue of a diagonally weighted B (``SineBasis.top``), the
larger of its two blocks' top eigenvalues.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.fft
import scipy.linalg

from . import _toeplitz
from .errors import AccuracyError, ParameterError, RequestError
from .fem import (
    Mesh1D,
    OperatorMatrix,
    assemble_fractional_stiffness,
    assemble_local_stiffness,
    assemble_mass,
)
from .interpolation import Report

__all__ = [
    "MixedPencil",
    "SineBasis",
    "SpectrumResult",
    "SweepTable",
    "assemble_pencil",
    "embedding_constant",
    "gamma_shift",
    "solve_spectrum",
    "check_contract",
    "verify_variational_characterization",
    "sweep_alpha",
    "monotone_in_alpha",
    "locate_threshold",
    "verify_brezis_inequality",
]

CLUSTER_RTOL = 1e-7
# the flags of check_contract besides its certificate, in the order they are checked
CONTRACT_FLAGS = ("m_orthonormality_holds", "b_orthogonality_holds", "residuals_hold",
                  "lower_bound_holds")
THRESHOLD_RTOL = 1e-8  # |alpha* + 1/C_h| C_h
# the smallest Durbin pivot of A - sigma M that _shift_invert accepts, over ||A - sigma M||_1
PIVOT_RTOL = 1e-4
# _lowest's shift-invert route runs from this n on, for k <= n / SHIFT_INVERT_K_RATIO.
# Its time over the dense route's on B's two parity blocks (assembly and
# solve_spectrum with gamma, k = 5; 2-core Xeon, OpenBLAS on one thread; best of
# 5, two runs, s in {0.3, 0.7}, alpha in {-15, -0.5, 5}): 1.35-3.16 at n = 255,
# 1.10-2.20 at 383, 0.70-1.10 at 511, 0.59-0.76 at 575, 0.50-0.70 at 639,
# 0.34-1.02 at 767.  With B already built, as a sweep shares it: 3.17-3.75 at 255,
# 1.95-2.35 at 383, 1.26-1.51 at 511, 1.01-1.34 at 575, 0.94-1.44 at 639, 0.71-1.06
# at 767.  So a sweep keeps the dense route through the n = 511 it runs at, and a
# one-off request takes shift-invert from where it wins.  In k (best of 3) the
# shift-invert route still wins at k = 48 for n = 767 (0.66-0.82) and at k = 64 for
# n = 1023 (0.63-0.93), and ties at k = 96 for n = 1023 (0.76-1.03); the ratio keeps
# the routes of earlier versions.
SHIFT_INVERT_MIN_N = 512
SHIFT_INVERT_K_RATIO = 32
_NOT_FINITE = "eigenvalues leave the floating-point range: the matrix is not finite"


class SineBasis:
    """The pencil's forms in the DST-I basis of the uniform mesh.

    ``scale`` is D = diag(m)^(-1/2), ``ratio`` is l/m (module docstring) and
    ``weight`` is diag(l/m)^(-1/2); all three are closed forms, with
    1 - cos theta taken as 2 sin^2(theta/2) so that no digit cancels.

    ``fractional`` holds B = D S A_frac S D by parity, built on first use
    from A_frac's column: callers that never solve never pay its two DSTs.
    Sine mode j + 1 (0-based j) is even about the midpoint for even j and
    odd for odd j, and the symmetric Toeplitz A_frac is centrosymmetric
    (Cantoni and Butler 1976), so B couples no even mode with an odd one:
    it is the direct sum of its even block B[0::2, 0::2] and its odd block
    B[1::2, 1::2].  Only those two blocks are kept, and every dense
    eigensolve in this basis runs on them one at a time, at about a quarter
    of the full matrix's flops.  At n = 1 there is no odd block.
    """

    def __init__(self, mesh: Mesh1D, a_frac: OperatorMatrix):
        n, h = mesh.n, mesh.h
        theta = np.arange(1, n + 1) * (math.pi / (n + 1))
        # only on meshes whose eigenvalues leave the float range can m round to
        # 0 or l/m overflow; the eigensolve finds that in its matrix and raises
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mass = h * (2.0 + np.cos(theta)) / 3.0
            local = (4.0 / h) * np.sin(0.5 * theta) ** 2
            self.ratio = local / mass
            self.scale = 1.0 / np.sqrt(mass)
            self.weight = np.sqrt(mass) / np.sqrt(local)
        for array in (self.scale, self.ratio, self.weight):
            array.setflags(write=False)
        self._frac_column = a_frac.column

    @cached_property
    def fractional(self) -> tuple[np.ndarray, ...]:
        """B's even block, then its odd block when n > 1; read-only, each C-ordered.

        A_frac and S are symmetric, so X = A_frac S is one DST along the
        contiguous rows of A_frac, and the rows of parity p of S X = X^T S
        are one DST along the rows of the transposed columns X[:, p::2].
        Their columns of parity p, scaled by D on both sides, are the block.
        No full B is built; X is dropped with the call.
        """
        x = scipy.fft.dst(scipy.linalg.toeplitz(self._frac_column), type=1, norm="ortho",
                          axis=1, overwrite_x=True)
        blocks = []
        for parity in range(min(x.shape[0], 2)):
            rows = scipy.fft.dst(x[:, parity::2].T.copy(), type=1, norm="ortho", axis=1,
                                 overwrite_x=True)
            block = rows[:, parity::2].copy()
            del rows
            scale = self.scale[parity::2]
            with np.errstate(over="ignore", invalid="ignore"):
                block *= scale[:, None]
                block *= scale[None, :]
            block.setflags(write=False)
            blocks.append(block)
        return tuple(blocks)

    def coupled(self, alpha: float, diagonal: float = 1.0) -> Iterator[np.ndarray]:
        """New arrays diagonal * diag(l/m) + alpha B, one per block of ``fractional``.

        With ``diagonal`` 1 they are the blocks of E_alpha, whose eigenvalues
        together are the pencil's.  A generator, so that one block's array is
        built only when the caller is done with the last.  Entries that
        overflow are left to the eigensolve to refuse.
        """
        for parity, block in enumerate(self.fractional):
            with np.errstate(over="ignore", invalid="ignore"):
                e = alpha * block
                e.flat[:: e.shape[0] + 1] += diagonal * self.ratio[parity::2]
            yield e

    def top(self, weight: np.ndarray) -> float:
        """Top eigenvalue of diag(weight) B diag(weight), positive or AccuracyError.

        The larger of the two blocks' top eigenvalues.
        """
        tops = []
        for parity, block in enumerate(self.fractional):
            w = weight[parity::2]
            # B W first, so that a tiny weight never meets a tiny weight in one product
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = block * w[None, :]
                scaled *= w[:, None]
            tops.append(_eigh_subset(scaled, w.size - 1, w.size - 1, eigvals_only=True,
                                     overwrite_a=True)[0])
        top = float(np.max(tops))
        # A_frac is PSD with a positive diagonal, so only an underflow gives top <= 0
        if not top > 0.0:
            raise AccuracyError(f"top eigenvalue {top:g} of the weighted B is not a positive float")
        return top

    def vectors(self, y: np.ndarray) -> np.ndarray:
        """Eigenvectors S D y of the pencil from those of E_alpha, columnwise.

        y is in the full sine basis: a block's eigenvector goes in at its
        parity's rows, zero elsewhere.
        """
        return scipy.fft.dst(self.scale[:, None] * y, type=1, norm="ortho", axis=0)


@dataclass(frozen=True)
class MixedPencil:
    """Matrices of the operator -u'' + alpha (-Delta)^s u on one mesh.

    ``basis`` holds the same forms in the sine basis; every coupling made by
    ``with_alpha`` shares it, and so shares its B.
    """

    mesh: Mesh1D
    s: float
    alpha: float
    a_loc: OperatorMatrix
    a_frac: OperatorMatrix
    mass: OperatorMatrix
    column: np.ndarray  # A_alpha = A_loc + alpha*A_frac by its Toeplitz column, read-only
    basis: SineBasis = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.mesh.n

    @property
    def a_alpha(self) -> np.ndarray:
        """A new dense A_alpha, read-only; nothing keeps it."""
        a = scipy.linalg.toeplitz(self.column)
        a.setflags(write=False)
        return a

    def with_alpha(self, alpha: float) -> "MixedPencil":
        """Same mesh and assembled forms, different coupling."""
        alpha = _finite_alpha(alpha)
        return replace(self, alpha=alpha, column=_coupled(self.a_loc, self.a_frac, alpha))


def _finite_alpha(alpha) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ParameterError(f"coupling alpha must be finite, got {alpha}")
    return alpha


def _coupled(a_loc: OperatorMatrix, a_frac: OperatorMatrix, alpha: float) -> np.ndarray:
    """Read-only column of A_loc + alpha*A_frac, refused when a finite alpha overflows it."""
    with np.errstate(over="ignore"):
        column = a_loc.column + alpha * a_frac.column
    if not np.isfinite(column).all():
        raise ParameterError(f"A_loc + alpha*A_frac overflows at alpha={alpha:g}")
    column.setflags(write=False)
    return column


def assemble_pencil(mesh: Mesh1D, s: float, alpha: float) -> MixedPencil:
    """Assemble the columns of the mass, local and fractional forms and of A_alpha."""
    alpha = _finite_alpha(alpha)
    a_loc = assemble_local_stiffness(mesh)
    a_frac = assemble_fractional_stiffness(mesh, s)
    mass = assemble_mass(mesh)
    return MixedPencil(
        mesh=mesh,
        s=float(s),
        alpha=alpha,
        a_loc=a_loc,
        a_frac=a_frac,
        mass=mass,
        column=_coupled(a_loc, a_frac, alpha),
        basis=SineBasis(mesh, a_frac),
    )


def embedding_constant(pencil: MixedPencil) -> float:
    """Smallest C_h with u^T A_frac u <= C_h u^T A_loc u for all u.

    This is the largest eigenvalue of the pencil (A_frac, A_loc); its
    reciprocal marks the coupling threshold -1/C_h for the sign of lambda_1.
    In the sine basis it is the top eigenvalue of W B W, W = diag(l/m)^(-1/2).
    """
    return pencil.basis.top(pencil.basis.weight)


def gamma_shift(pencil: MixedPencil, *, with_route: bool = False):
    """Minimal gamma >= 0 with A_alpha + gamma M - A_loc/2 >= 0.

    gamma is max(0, -lambda_1 of the excess pencil (A_alpha - A_loc/2, M)),
    whose eigenvalues are those of diag(l/m)/2 + alpha B = E_(2 alpha)/2.
    For alpha >= 0 gamma is 0 in closed form: the excess is A_loc/2, positive
    definite, plus alpha A_frac, positive semidefinite.  For alpha < 0,
    lambda_1 comes from ``_lowest`` (k = 1).  A Cholesky attempt of the
    excess would prove gamma = 0 only for -1/(2 C_h) < alpha < 0, and can
    run nearly to the end before it fails, so none is made.

    With ``with_route`` it returns (gamma, route): ``closed_form`` for
    alpha >= 0, otherwise the route of ``_lowest``.
    """
    alpha = pencil.alpha
    if alpha >= 0.0:
        gamma, route = 0.0, _route("closed_form")
    else:
        column = 0.5 * pencil.a_loc.column + alpha * pencil.a_frac.column
        lowest, _, route = _lowest(pencil, 1, 0.5, column, vectors=False)
        gamma = max(0.0, -float(lowest[0]))
    return (gamma, route) if with_route else gamma


def _route(name: str, shift: float | None = None, fallback: str | None = None) -> dict:
    """How one eigenvalue question was answered, as the spectrum report records it."""
    return {"route": name, "shift": shift, "fallback": fallback}


def _lowest(pencil: MixedPencil, k: int, diagonal: float, column: np.ndarray, *,
            vectors: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """The k lowest eigenpairs of (diagonal A_loc + alpha A_frac, M), and the route taken.

    ``column`` is the Toeplitz column of diagonal A_loc + alpha A_frac.
    Values ascend; vectors, when asked for, are M-orthonormal in the
    original basis.  Three routes, in this order:

    * ``closed_form`` at alpha = 0: the reduced matrix is diagonal * diag(l/m)
      and l/m rises with theta, so the pairs are its first k entries and the
      columns S D e_j.  No B is built.
    * ``shift_invert`` (``_shift_invert``) from n = SHIFT_INVERT_MIN_N on,
      for k up to n / SHIFT_INVERT_K_RATIO: Durbin's pivots prove the shift
      below lambda_1 and Gohberg-Semencul FFT products apply the inverse.
      No B and no n x n array is built.
    * ``dense``: the standard eigensolve of diagonal diag(l/m) + alpha B,
      block by block (``SineBasis``): the min(k, size) lowest pairs of the
      even block, then of the odd one, merged by a stable sort, so that an
      exact tie puts the even block's pair first.  A block's vector enters
      S D at its parity's indices.  It is also the fallback when the
      shift-invert route fails; the route then records the shift it tried
      and why it failed.
    """
    basis, n = pencil.basis, pencil.n
    if pencil.alpha == 0.0:
        if not np.isfinite(basis.ratio).all():
            raise AccuracyError(_NOT_FINITE)
        found = basis.vectors(np.eye(n, k)) if vectors else None
        return diagonal * basis.ratio[:k], found, _route("closed_form")
    route = _route("dense")
    if n >= SHIFT_INVERT_MIN_N and k * SHIFT_INVERT_K_RATIO <= n:
        found, route["shift"], route["fallback"] = _shift_invert(column, pencil.mass.column, k)
        if found is not None:
            route["route"] = "shift_invert"
            return (*found, route)
    # the k lowest of each block's min(k, size) lowest; a tie goes to the even block
    found = [_eigh_subset(reduced, 0, min(k, reduced.shape[0]) - 1, eigvals_only=not vectors,
                          overwrite_a=True)
             for reduced in basis.coupled(pencil.alpha, diagonal)]
    if not vectors:
        lambdas = np.concatenate(found)
        return lambdas[np.argsort(lambdas, kind="stable")[:k]], None, route
    lambdas = np.concatenate([values for values, _ in found])
    order = np.argsort(lambdas, kind="stable")[:k]
    embedded = np.zeros((n, lambdas.size))
    start = 0
    for parity, (values, block_vectors) in enumerate(found):
        embedded[parity::2, start:start + values.size] = block_vectors
        start += values.size
    del found
    return lambdas[order], basis.vectors(embedded[:, order]), route


def _shift_invert(column: np.ndarray, mass_column: np.ndarray, k: int):
    """The k lowest eigenpairs of (toeplitz(column), M) by shift-invert Lanczos.

    Returns ``(lambdas, vectors)`` or None, the shift, and why it is None.
    The shift sigma is ``_toeplitz.symbol_floor``.  T = A - sigma M is symmetric
    Toeplitz, and Durbin's recursion (``_toeplitz.pivots``) gives the pivots
    of its unpivoted LDL^T in O(n^2) time and O(n) memory.  When every pivot
    is at least PIVOT_RTOL ||T||_1, T is taken as positive definite
    (Sylvester inertia; Durbin is weakly stable on such matrices, Cybenko
    1980), so sigma < lambda_1 and the k largest eigenvalues
    1/(lambda - sigma) of the operator T^-1 M, which ARPACK's implicitly
    restarted Lanczos finds in the M inner product (Grimes, Lewis and Simon
    1994), are the k lowest of the pencil; their vectors come out
    M-orthonormal.  The inertia count of ``check_contract``'s certificate
    proves the result by an independent route.

    PIVOT_RTOL lies between two measurements.  At the symbol floor the
    smallest pivot was at least 0.043 ||T||_1 over 600 random pencils
    (n in 2..300, s in [0.05, 0.95], alpha in [-50, 50]) and 0.054 ||T||_1
    over 240 drawn like the benchmark's spectrum requests (n up to 1023,
    the spectrum's and gamma's columns), so any bound up to 1e-2 keeps
    them on this route.  Durbin's pivots are no inertia count on indefinite
    matrices: in 2400 probes at the certificate's shifts it miscounted 173
    times, never calling an indefinite matrix definite, and every miscount
    had a pivot of at most 7.7e-8 ||T||_1.  1e-4 sits about three orders
    of magnitude from both.

    T^-1 is applied by ``_toeplitz.inverse`` and M by its stencil, so no
    n x n array and no B is built.  The start vector is fixed, so the
    result is a function of the inputs; it is a ramp, not the constant
    vector: the pencil commutes with the flip of the mesh, and a flip-even
    start would reach the flip-odd eigenvectors through rounding only.
    Lanczos can still miss one copy of a near-multiple eigenvalue.  In a
    ``spectrum`` request the certificate's inertia count then fails, so the
    miss cannot pass silently; from n = SHIFT_INVERT_MIN_N on, ``sweep``
    rows and ``gamma`` take this route uncertified.  Below it they take the
    dense route.
    """
    # imported where it solves, so that importing mixspec.cli loads no scipy.sparse
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    shift = _toeplitz.symbol_floor(column, mass_column)
    if not math.isfinite(shift):
        return None, None, "the symbol floor is not finite"
    shifted = mass_column * -shift + column
    pivots, predictor = _toeplitz.pivots(shifted)
    if not np.min(pivots) >= PIVOT_RTOL * _toeplitz.norm_1(shifted):  # NaN refuses too
        return None, shift, (f"a Durbin pivot at the shift is below {PIVOT_RTOL:g} "
                             "||A - sigma M||_1: the shift is not proved below lambda_1")
    n = column.size

    def operator(matvec):
        return LinearOperator((n, n), matvec=matvec, dtype=float)

    try:
        # in shift-invert mode ARPACK applies only M and the inverse; A gives the shape
        with np.errstate(over="ignore", invalid="ignore"):
            lambdas, vectors = eigsh(
                operator(lambda x: _toeplitz.times(column, x)), k,
                M=operator(lambda x: _toeplitz.times(mass_column, x)), sigma=shift,
                OPinv=operator(_toeplitz.inverse(pivots[-1], predictor)),
                v0=np.linspace(1.0, 2.0, n))
    except ArpackError as exc:  # ArpackNoConvergence among them
        return None, shift, f"ARPACK: {exc}"
    # ARPACK converges on the shifted operator, not on the pencil.  A backward
    # error at the rounding level of a dense solve bounds each value's error
    # by about the certificate's margin; NaN fails the test too.  The reason
    # carries no figure: on pencils of rounding noise the figure is not
    # reproducible from one process to the next
    error = _toeplitz.backward_error(column, mass_column, lambdas, vectors)
    if not error <= n * np.finfo(float).eps:
        return None, shift, ("backward error of the Lanczos pairs "
                             + ("exceeds n eps" if math.isfinite(error) else "is not finite"))
    order = np.argsort(lambdas)
    return (lambdas[order], vectors[:, order]), shift, None


def _pencil_times(pencil: MixedPencil, z: np.ndarray) -> np.ndarray:
    """A_alpha z without a dense A_alpha, z a vector or columnwise.

    A_alpha's own three-term stencil when its column is zero past index 1
    (alpha = 0, or n <= 2); otherwise A_loc's stencil plus alpha times an
    FFT Toeplitz product of A_frac.  The stencil keeps the local part exact,
    so the product stays at the rounding level of a dense one; an FFT
    product of the whole A_alpha would carry the rounding of its largest
    entries into every component.
    """
    if _toeplitz.banded(pencil.column):
        return _toeplitz.times(pencil.column, z)
    return (_toeplitz.times(pencil.a_loc.column, z)
            + pencil.alpha * _toeplitz.times(pencil.a_frac.column, z))


def _eigh_subset(a: np.ndarray, lo: int, hi: int, **kwargs):
    """Eigenvalues lo..hi (0-based) of the symmetric matrix a, all of them or AccuracyError.

    Returns what ``scipy.linalg.eigh`` returns: the values, or values and vectors.
    A matrix with entries past the float range has eigenvalues there too and
    is refused.  A C-ordered a goes in as its transpose, the same matrix in
    Fortran order, so that with ``overwrite_a`` LAPACK works in it without a
    copy.
    """
    if not np.isfinite(a).all():
        raise AccuracyError(_NOT_FINITE)
    if a.flags.c_contiguous:
        a = a.T
    try:
        found = scipy.linalg.eigh(a, subset_by_index=[lo, hi], check_finite=False, **kwargs)
    except scipy.linalg.LinAlgError as exc:
        raise AccuracyError(f"symmetric eigensolve failed: {exc}") from exc
    lambdas = found if kwargs.get("eigvals_only") else found[0]
    if lambdas.size < hi - lo + 1:
        raise AccuracyError(
            f"symmetric eigensolve returned {lambdas.size} of {hi - lo + 1} eigenvalues"
        )
    return found


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenpairs of (A_alpha, M), ascending, M-orthonormal columns.

    ``solver`` records how the spectrum and gamma were found: for each, the
    route (``_lowest``'s, or gamma's ``closed_form`` for alpha >= 0), the
    shift-invert shift tried and the reason it fell back.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    gamma: float
    residuals: np.ndarray
    cluster_ids: np.ndarray
    solver: dict

    def __post_init__(self):
        for name in ("lambdas", "vectors", "residuals", "cluster_ids"):
            getattr(self, name).setflags(write=False)

    @property
    def clusters(self) -> list[list[int]]:
        """Indices grouped by near-degeneracy (1-based k within the result)."""
        groups: list[list[int]] = []
        for idx, cid in enumerate(self.cluster_ids):
            if groups and cid == self.cluster_ids[idx - 1]:
                groups[-1].append(idx + 1)
            else:
                groups.append([idx + 1])
        return groups


def solve_spectrum(pencil: MixedPencil, k: int) -> SpectrumResult:
    """First k eigenpairs of the definite pencil A_alpha u = lambda M u.

    The k smallest eigenpairs by ``_lowest``, whatever the sign of alpha:
    in closed form at alpha = 0, by shift-invert Lanczos on the Toeplitz
    pencil at large n, and otherwise from the two parity blocks of the
    standard matrix E_alpha, mapped back by S D.  gamma = gamma_shift(pencil) is computed alongside
    and reported; ``solver`` records both routes.  Eigenvectors are returned
    M-orthonormal with the sign fixed so the entry of largest magnitude is
    positive.  Residuals ||A_alpha u - lambda M u|| use ``_pencil_times``
    and M's stencil, so no dense form is built.
    """
    n = pencil.n
    if not 1 <= k <= n:
        raise RequestError(f"requested {k} eigenpairs from an n={n} pencil")
    gamma, gamma_route = gamma_shift(pencil, with_route=True)
    lambdas, vectors, route = _lowest(pencil, k, 1.0, pencil.column, vectors=True)
    # sign convention: entry of largest magnitude positive
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(k)])
    signs[signs == 0.0] = 1.0
    vectors = vectors * signs[None, :]

    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _column_norms(_pencil_times(pencil, vectors)
                                  - _toeplitz.times(pencil.mass.column, vectors) * lambdas)
    cluster_ids = np.zeros(k, dtype=int)
    for j in range(1, k):
        close = lambdas[j] - lambdas[j - 1] <= CLUSTER_RTOL * (1.0 + abs(lambdas[j]))
        cluster_ids[j] = cluster_ids[j - 1] + (0 if close else 1)
    return SpectrumResult(
        lambdas=lambdas, vectors=vectors, gamma=gamma, residuals=residuals,
        cluster_ids=cluster_ids, solver={"spectrum": route, "gamma": gamma_route},
    )


def _column_norms(r: np.ndarray) -> np.ndarray:
    """2-norms of the columns of r, scaled by powers of two so that no square overflows.

    Power-of-two scaling is exact, so wherever the plain norm stays finite
    it gives the same bits.
    """
    unit = np.ldexp(1.0, np.frexp(np.max(np.abs(r), axis=0))[1])
    return unit * np.linalg.norm(r / unit, axis=0)


def check_contract(result: SpectrumResult, pencil: MixedPencil) -> dict:
    """The spectrum contract of one solve: its flags, their errors and ``holds``.

    max |V^T M V - I| <= 1e-8; off-diagonal of V^T A_alpha V <= 1e-6 times
    its largest diagonal; the solver's residuals <= tol = 1e-8 (1 + |lambda|);
    the lower bound; and the certificate ``variational``.  ``holds`` is their
    conjunction.  V is multiplied by M and by A_alpha once, and every other
    flag reads those two products.

    The lower bound is exact: lambda_1 is a minimum of affine functions of
    alpha, so it is concave, lambda_1(alpha) >= (lambda_1(0) + lambda_1(2 alpha))/2,
    and with gamma = max(0, -lambda_1(2 alpha)/2) this gives
    lambda_1 + gamma >= lambda_1^loc/2.  Here lambda_1^loc =
    (6/h^2)(1 - cos t)/(2 + cos t), t = pi/(n+1), is the closed-form lowest
    P1 eigenvalue; the flag allows tol_1.
    """
    h, t = pencil.mesh.h, math.pi / (pencil.n + 1)
    # Python floats: an overflow gives inf, with no warning
    local_1 = 12.0 * math.sin(0.5 * t) ** 2 / ((2.0 + math.cos(t)) * h) / h
    lambdas, v = result.lambdas, result.vectors
    tol = 1e-8 * (1.0 + np.abs(lambdas))
    with np.errstate(over="ignore", invalid="ignore"):
        mv = _toeplitz.times(pencil.mass.column, v)
        av = _pencil_times(pencil, v)
        m_err = float(np.max(np.abs(v.T @ mv - np.eye(v.shape[1]))))
        b_mat = v.T @ av
        attained = np.einsum("ij,ij->j", v, av) / np.einsum("ij,ij->j", v, mv)
    b_scale = float(np.max(np.abs(np.diag(b_mat))))
    b_err = float(np.max(np.abs(b_mat - np.diag(np.diag(b_mat)))))
    contract = {
        "m_orthonormality_error": m_err,
        "m_orthonormality_holds": m_err <= 1e-8,
        "b_orthogonality_error": b_err,
        "b_orthogonality_holds": b_err <= 1e-6 * b_scale,
        "residuals_hold": bool(np.all(result.residuals <= tol)),
        "lower_bound_holds": bool(float(lambdas[0]) + result.gamma >= 0.5 * local_1 - tol[0]),
        "variational": _certificate(pencil, lambdas, attained, tol),
    }
    contract["holds"] = (all(contract[key] for key in CONTRACT_FLAGS)
                         and contract["variational"]["holds"])
    return contract


def _certificate(pencil: MixedPencil, lambdas: np.ndarray, attained: np.ndarray,
                 tol: np.ndarray) -> dict:
    """Certify by Sylvester inertia that the computed values are the k smallest.

    The number of eigenvalues of (A_alpha, M) below sigma equals the number
    of negative eigenvalues of A_alpha - sigma M (spectrum slicing; Parlett,
    The Symmetric Eigenvalue Problem, ch. 3).  Two questions to
    ``_toeplitz`` about shifted columns settle the min-max characterization
    for every direction at once:

    * A_alpha - (lambda_1 - delta_1) M is ``definite``, so no eigenvalue
      lies below lambda_1 - delta_1;
    * ``count_below`` of A_alpha - (lambda_k + delta_k) M counts the
      eigenvalues below lambda_k + delta_k; the count must be exactly k.

    With the residual and M-orthonormality checks, the two counts prove that
    lambda_1..lambda_k are the k smallest eigenvalues.  A count above k is
    kept in the report.  It passes only as a cluster straddling lambda_k:
    a third count, at lambda_k - delta_k, must then find no eigenvalue there
    beyond the computed ones, so every uncomputed eigenvalue below the upper
    shift ties with lambda_k to within delta_k.  Each question builds the
    two half-size blocks of ``_toeplitz``'s split, one at a time, and no
    n x n array.

    The shift is delta = max(tol, ``_margin``), tol being ``check_contract``'s.
    Each u_k must also attain lambda_k: |``attained``_k - lambda_k| <= tol_k.
    Nothing is drawn at random.
    """
    k = lambdas.size

    def shifted(sigma):
        # an infinite shift or an overflow leaves a non-finite column: no count, null
        with np.errstate(over="ignore", invalid="ignore"):
            return pencil.mass.column * -sigma + pencil.column

    margin = _margin(pencil, lambdas)
    delta_1, delta_k = max(tol[0], margin), max(tol[-1], margin)
    lower, upper = float(lambdas[0] - delta_1), float(lambdas[-1] + delta_k)
    below_lower = (0 if _toeplitz.definite(shifted(lower))
                   else _toeplitz.count_below(shifted(lower)))
    below_upper = _toeplitz.count_below(shifted(upper))
    report = {
        "op": "variational_characterization",
        "margin": margin,
        "lower_shift": lower,
        "below_lower": below_lower,
        "upper_shift": upper,
        "below_upper": below_upper,
    }
    counts_hold = below_lower == 0 and below_upper == k
    if below_upper is not None and below_upper > k:
        tie = float(lambdas[-1] - delta_k)
        below_tie = _toeplitz.count_below(shifted(tie))
        computed = int(np.count_nonzero(lambdas < tie))
        report.update(tie_shift=tie, below_tie=below_tie, computed_below_tie=computed)
        counts_hold = below_lower == 0 and below_tie == computed

    per_k = []
    for j in range(k):
        lam, quotient = lambdas[j], float(attained[j])
        holds = bool(abs(quotient - lam) <= tol[j])
        per_k.append({"k": j + 1, "lambda": float(lam), "attained": quotient, "holds": holds})
    report["holds"] = counts_hold and all(row["holds"] for row in per_k)
    report["per_k"] = per_k
    return report


def _margin(pencil: MixedPencil, lambdas: np.ndarray) -> float:
    """The rounding room, in eigenvalue units, of a test at the computed lambdas.

    The margin n eps (||A_alpha||_1 + |lambda| ||M||_1) / lambda_min(M),
    with the larger |lambda| of lambda_1 and lambda_k, bounds the rounding of
    the shifted column and of its factorization in ``_certificate``: the
    factor n eps is taken to cover the factorizations and the split's
    2 eps ||T||_1 (one rounded sum per block entry, ``_toeplitz._half``)
    together, T being the shifted matrix.  By the triangle inequality the
    margin is never below n eps ||A_alpha - lambda M||_1 / lambda_min(M),
    and unlike that it cannot vanish when A_alpha - lambda M cancels (at
    n = 1 it is rounding alone); where nothing cancels the two are equal,
    and it adds no room of its own for the split.  The 1-norms are
    ``_toeplitz.norm_1`` of the columns, and lambda_min(M) =
    h (2 + cos(n pi/(n+1)))/3 is the closed-form smallest eigenvalue of the
    P1 mass matrix.
    """
    n = pencil.n
    mass_min = pencil.mesh.h * (2.0 + math.cos(n * math.pi / (n + 1))) / 3.0
    largest = float(max(abs(lambdas[0]), abs(lambdas[-1])))
    norm = _toeplitz.norm_1(pencil.column) + largest * _toeplitz.norm_1(pencil.mass.column)
    return float(n * np.finfo(float).eps * norm / mass_min)


def verify_variational_characterization(result: SpectrumResult, pencil: MixedPencil) -> dict:
    """Check the computed eigenvalues against a dense eigensolve of (A_alpha, M).

    The k smallest eigenvalues of the dense generalized problem come from
    LAPACK in the original basis, a route independent of the solver's and of
    the certificate's.  Each lambda_j must lie within delta_j =
    max(1e-8 (1 + |lambda_j|), ``_margin``) of the j-th, the certificate's
    own shift, so a raised value, a skipped eigenvalue or an eigenpair from
    further up the spectrum fails.  It builds A_alpha and M densely, so it
    is meant for desk-scale n.
    """
    lambdas = result.lambdas
    dense = scipy.linalg.eigh(pencil.a_alpha, pencil.mass.data,
                              subset_by_index=[0, lambdas.size - 1], eigvals_only=True)
    deltas = np.maximum(1e-8 * (1.0 + np.abs(lambdas)), _margin(pencil, lambdas))
    per_k = [{"k": j + 1, "lambda": float(lam), "dense": float(value), "delta": float(delta),
              "holds": bool(abs(lam - value) <= delta)}
             for j, (lam, value, delta) in enumerate(zip(lambdas, dense, deltas))]
    return {"op": "variational_characterization", "holds": all(row["holds"] for row in per_k),
            "per_k": per_k}


@dataclass(frozen=True)
class SweepTable:
    """Per-alpha spectra: lambdas has one row per alpha, one column per k."""

    alphas: np.ndarray
    gammas: np.ndarray
    lambdas: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        for name in ("alphas", "gammas", "lambdas", "signs"):
            getattr(self, name).setflags(write=False)


def sweep_alpha(pencil: MixedPencil, alphas, k: int) -> SweepTable:
    """Solve the pencil for every coupling in ``alphas`` (ascending or not).

    Every coupling shares the pencil's assembled forms and its B.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        raise RequestError("alpha sweep needs at least one value")
    if not np.all(np.isfinite(alphas)):
        raise RequestError("alpha values must be finite")
    # a generator, so that no result's vectors outlive the next solve
    solves = (solve_spectrum(pencil.with_alpha(alpha), k) for alpha in alphas)
    lams, gammas = zip(*[(res.lambdas, res.gamma) for res in solves])
    lams = np.array(lams)
    return SweepTable(
        alphas=alphas.copy(), gammas=np.array(gammas),
        lambdas=lams, signs=np.sign(lams[:, 0]).astype(int),
    )


def monotone_in_alpha(table: SweepTable) -> bool:
    """Every column of the sweep is nondecreasing in alpha (A_frac is PSD), to 1e-9 relative."""
    lams = table.lambdas[np.argsort(table.alphas)]
    return bool(np.all(np.diff(lams, axis=0) >= -1e-9 * (1.0 + np.abs(lams[1:]))))


def locate_threshold(pencil: MixedPencil) -> dict:
    """Certify that lambda_1(alpha) changes sign within THRESHOLD_RTOL of -1/C_h.

    lambda_1 never decreases in alpha (A_frac is PSD), so it changes sign
    once, and by Sylvester inertia lambda_1 > 0 iff A_alpha is positive
    definite (``_toeplitz.definite`` of its column).  ``holds`` is that
    A_alpha is not at -(1 + THRESHOLD_RTOL)/C_h (``indefinite_below``) and
    is at -(1 - THRESHOLD_RTOL)/C_h (``definite_above``): together they
    prove |alpha* + 1/C_h| C_h <= THRESHOLD_RTOL.  Only the coupling of
    ``pencil`` is replaced.
    """
    c_h = embedding_constant(pencil)
    below = pencil.with_alpha((-1.0 - THRESHOLD_RTOL) / c_h)
    above = pencil.with_alpha((-1.0 + THRESHOLD_RTOL) / c_h)
    indefinite_below = not _toeplitz.definite(below.column)
    definite_above = _toeplitz.definite(above.column)
    return {
        "minus_inv_c": -1.0 / c_h,
        "embedding_constant": c_h,
        "indefinite_below": indefinite_below,
        "definite_above": definite_above,
        "holds": indefinite_below and definite_above,
    }


def verify_brezis_inequality(pencil: MixedPencil) -> Report:
    """The constant C_B of u^T A_frac u <= C_B (u^T M u)^(1-s) (u^T (M+A_loc) u)^s.

    With x = diag(m)^(1/2) S u, u^T A_frac u = x^T B x.  C_B is the top
    eigenvalue of V B V, V = diag(1 + l/m)^(-s/2): the sharp constant of
    x^T B x <= C_B sum (1 + l/m)^s x^2.  That sum is the K2 (s, 2) norm of
    the couple (M, M + A_loc) squared over kappa = pi/(2 sin pi s), and by
    Hoelder at most (u^T M u)^(1-s) (u^T (M+A_loc) u)^s.  So C_B bounds the
    Brezis ratio; it is not the ratio's maximum.

    ``holds`` is the theorem C_B <= C(s) = 2 pi/(Gamma(1+2s) sin pi s).
    A_frac is the whole-plane raw form of the zero extension, C(s) int
    |xi|^(2s) |u^|^2 dxi/2pi (Di Nezza, Palatucci and Valdinoci 2012);
    (1 + xi^2)^s >= |xi|^(2s), and kappa int (1 + xi^2)^s |u^|^2 dxi/2pi is
    the K2 (s, 2) norm of (L2, H1) squared (Lions and Magenes); K2 over the
    P1 subspace is never smaller than over the whole couple.  That last step
    also makes C_B nondecreasing on nested meshes (n -> 2n + 1).  The
    ``tolerance`` n eps allows for the rounding of the eigensolve.
    """
    s, n, basis = pencil.s, pencil.n, pencil.basis
    constant = basis.top((1.0 + basis.ratio) ** (-0.5 * s))
    bound = 2.0 * math.pi / (math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s))
    tolerance = n * float(np.finfo(float).eps)
    return Report(op="brezis_constant", inputs={"s": s, "n": n}, lhs=constant, rhs=bound,
                  ratio=constant / bound, holds=constant <= bound * (1.0 + tolerance),
                  tolerance=tolerance)
