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
S D y, M-orthonormal when y is orthonormal.  B is built once per assembled
(mesh, s), on the first solve, and every ``with_alpha`` coupling shares it.
Every eigensolve of this module is a standard one on such a matrix.

The paper's proof device, the minimal shift gamma >= 0 making

    A_alpha + gamma M - (1/2) A_loc  positive semidefinite,

the discrete sharp version of the coercivity estimate
B(u, u) + gamma ||u||^2 >= (1/2) ||u||_H^2, is reported with each
spectrum.  Since A_alpha - A_loc/2 = A_(2 alpha)/2, gamma is
max(0, -lambda_1(2 alpha)/2).  Its exact zero is certified by one Cholesky
attempt of A_alpha - A_loc/2 (Sylvester inertia; it succeeds for every
alpha >= 0); only when that fails is lambda_1 of E_(2 alpha)/2 =
diag(l/m)/2 + alpha B computed, and verify checks both against a dense
eigensolve of (A_loc/2 - A_alpha, M).  The resolvent identity
lambda_k = 1/mu_k - gamma, with mu_k the eigenvalues of
(A_alpha + gamma M)^{-1} M, is a check in the tests and the verify suite,
not the solver.

Every result is checked in the original basis, by a route independent of
the solve: residuals, orthonormality and the certificate use the dense
A_alpha and M.  That lambda_1..lambda_k are the k smallest eigenvalues,
the min-max characterization, is certified by Sylvester inertia
(``certify_spectrum``): a Cholesky factor just below lambda_1 and a
Bunch-Kaufman LDL^T count just above lambda_k prove it for every direction
at once.  The sampled Rayleigh-quotient check
``verify_variational_characterization`` stays as the independent randomized
route of the tests and the verify suite.  ``check_contract`` is the one
statement of the spectrum contract, with its tolerances; the CLI and the
verify suite only read its flags.

The coupling threshold where lambda_1 changes sign is exactly
alpha* = -1/C_h, with C_h the largest eigenvalue of (A_frac, A_loc): the
discrete embedding constant, the top eigenvalue of
diag(l/m)^(-1/2) B diag(l/m)^(-1/2).  ``locate_threshold`` checks it by
bisection on Sylvester inertia (lambda_1 > 0 iff A_alpha has a Cholesky
factor), started from the certified bracket -(1 +- THRESHOLD_RTOL)/C_h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .errors import AccuracyError, ParameterError, RequestError
from .fem import (
    Mesh1D,
    OperatorMatrix,
    assemble_fractional_stiffness,
    assemble_local_stiffness,
    assemble_mass,
)

__all__ = [
    "MixedPencil",
    "SineBasis",
    "SpectrumResult",
    "SweepTable",
    "assemble_pencil",
    "embedding_constant",
    "gamma_shift",
    "solve_spectrum",
    "certify_spectrum",
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
_BISECTION_RTOL = 1e-9  # final bracket width times C_h


class SineBasis:
    """The pencil's forms in the DST-I basis of the uniform mesh.

    ``scale`` is D = diag(m)^(-1/2), ``ratio`` is l/m (module docstring) and
    ``weight`` is diag(l/m)^(-1/2); all three are closed forms, with
    1 - cos theta taken as 2 sin^2(theta/2) so that no digit cancels.
    ``fractional`` is B = D S A_frac S D, built on first use: callers that
    never solve, such as the Cholesky steps of the threshold, never pay its
    two DSTs.
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
        self._a_frac = a_frac

    @cached_property
    def fractional(self) -> np.ndarray:
        """B = D S A_frac S D, read-only."""
        b = scipy.fft.dst(self._a_frac.data, type=1, norm="ortho", axis=0)
        b = scipy.fft.dst(b, type=1, norm="ortho", axis=1, overwrite_x=True)
        with np.errstate(over="ignore", invalid="ignore"):
            b *= self.scale[:, None]
            b *= self.scale[None, :]
        b.setflags(write=False)
        return b

    def coupled(self, alpha: float, diagonal: float = 1.0) -> np.ndarray:
        """A new array diagonal * diag(l/m) + alpha B.

        With ``diagonal`` 1 this is E_alpha, whose eigenvalues are the
        pencil's.  Entries that overflow are left to the eigensolve to refuse.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            e = alpha * self.fractional
            e.flat[:: e.shape[0] + 1] += diagonal * self.ratio
        return e

    def vectors(self, y: np.ndarray) -> np.ndarray:
        """Eigenvectors S D y of the pencil from those of E_alpha, columnwise."""
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
    a_alpha: np.ndarray
    basis: SineBasis = field(repr=False, compare=False)

    def __post_init__(self):
        self.a_alpha.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mesh.n

    def with_alpha(self, alpha: float) -> "MixedPencil":
        """Same mesh and assembled forms, different coupling."""
        alpha = _finite_alpha(alpha)
        return MixedPencil(
            mesh=self.mesh,
            s=self.s,
            alpha=alpha,
            a_loc=self.a_loc,
            a_frac=self.a_frac,
            mass=self.mass,
            a_alpha=_coupled(self.a_loc, self.a_frac, alpha),
            basis=self.basis,
        )


def _finite_alpha(alpha) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ParameterError(f"coupling alpha must be finite, got {alpha}")
    return alpha


def _coupled(a_loc: OperatorMatrix, a_frac: OperatorMatrix, alpha: float) -> np.ndarray:
    """A_loc + alpha*A_frac, refused when a finite alpha overflows it."""
    with np.errstate(over="ignore"):
        a_alpha = a_loc.data + alpha * a_frac.data
    if not np.isfinite(a_alpha).all():
        raise ParameterError(f"A_loc + alpha*A_frac overflows at alpha={alpha:g}")
    return a_alpha


def assemble_pencil(mesh: Mesh1D, s: float, alpha: float) -> MixedPencil:
    """Assemble mass, local and fractional forms and cache A_loc + alpha*A_frac."""
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
        a_alpha=_coupled(a_loc, a_frac, alpha),
        basis=SineBasis(mesh, a_frac),
    )


def embedding_constant(pencil: MixedPencil) -> float:
    """Smallest C_h with u^T A_frac u <= C_h u^T A_loc u for all u.

    This is the largest eigenvalue of the pencil (A_frac, A_loc); its
    reciprocal marks the coupling threshold -1/C_h for the sign of lambda_1.
    In the sine basis it is the top eigenvalue of W B W, W = diag(l/m)^(-1/2).
    """
    basis = pencil.basis
    # B W first, so that a tiny weight never meets a tiny weight in one product
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = basis.fractional * basis.weight[None, :]
        scaled *= basis.weight[:, None]
    n = pencil.n
    top = float(_eigh_subset(scaled, n - 1, n - 1, eigvals_only=True, overwrite_a=True)[0])
    # A_frac is PSD with a positive diagonal, so only an underflow gives top <= 0
    if not top > 0.0:
        raise AccuracyError(f"embedding constant {top:g} is not a positive float")
    return top


def gamma_shift(pencil: MixedPencil) -> float:
    """Minimal gamma >= 0 with A_alpha + gamma M - A_loc/2 >= 0.

    gamma is max(0, -lambda_1 of the excess pencil (A_alpha - A_loc/2, M)).
    When the excess has a Cholesky factor, Sylvester inertia makes every
    eigenvalue of that pencil positive, so gamma is exactly zero without an
    eigensolve.  This holds for every alpha >= 0, where the fractional form
    is positive semidefinite.  Otherwise lambda_1 comes from the excess in
    the sine basis, diag(l/m)/2 + alpha B = E_(2 alpha)/2.
    """
    # C-ordered and symmetric, so its transpose is the same matrix in Fortran order
    excess = pencil.a_alpha - 0.5 * pencil.a_loc.data
    if _positive_definite(excess.T, overwrite=True):
        return 0.0
    del excess  # its n x n buffer is free before the reduced matrix is built
    reduced = pencil.basis.coupled(pencil.alpha, 0.5)
    lowest = _eigh_subset(reduced, 0, 0, eigvals_only=True, overwrite_a=True)[0]
    return max(0.0, -float(lowest))


def _positive_definite(matrix: np.ndarray, *, overwrite: bool = False) -> bool:
    """One Cholesky attempt of a finite symmetric matrix (Sylvester inertia).

    With ``overwrite`` a Fortran-ordered matrix is factored in place.
    """
    try:
        scipy.linalg.cholesky(matrix, overwrite_a=overwrite, check_finite=False)
    except scipy.linalg.LinAlgError:
        return False
    return True


def _eigh_subset(a: np.ndarray, lo: int, hi: int, **kwargs):
    """Eigenvalues lo..hi (0-based) of the symmetric matrix a, all of them or AccuracyError.

    Returns what ``scipy.linalg.eigh`` returns: the values, or values and vectors.
    A matrix with entries past the float range has eigenvalues there too and
    is refused.  A C-ordered a goes in as its transpose, the same matrix in
    Fortran order, so that with ``overwrite_a`` LAPACK works in it without a
    copy.
    """
    if not np.isfinite(a).all():
        raise AccuracyError("eigenvalues leave the floating-point range: the matrix is not finite")
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
    """Eigenpairs of (A_alpha, M), ascending, M-orthonormal columns."""

    lambdas: np.ndarray
    vectors: np.ndarray
    gamma: float
    residuals: np.ndarray
    cluster_ids: np.ndarray

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

    The k smallest eigenpairs of the standard matrix E_alpha, whatever the
    sign of alpha, mapped back by S D.  gamma = gamma_shift(pencil) is
    computed alongside and reported.  Eigenvectors are returned
    M-orthonormal with the sign fixed so the entry of largest magnitude is
    positive.  Residuals are taken with the dense A_alpha and M.
    """
    n = pencil.n
    if not 1 <= k <= n:
        raise RequestError(f"requested {k} eigenpairs from an n={n} pencil")
    gamma = gamma_shift(pencil)
    reduced = pencil.basis.coupled(pencil.alpha)
    lambdas, reduced_vectors = _eigh_subset(reduced, 0, k - 1, overwrite_a=True)
    del reduced
    vectors = pencil.basis.vectors(reduced_vectors)
    # sign convention: entry of largest magnitude positive
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(k)])
    signs[signs == 0.0] = 1.0
    vectors = vectors * signs[None, :]

    residuals = _column_norms(pencil.a_alpha @ vectors - pencil.mass.data @ vectors * lambdas)
    cluster_ids = np.zeros(k, dtype=int)
    for j in range(1, k):
        close = lambdas[j] - lambdas[j - 1] <= CLUSTER_RTOL * (1.0 + abs(lambdas[j]))
        cluster_ids[j] = cluster_ids[j - 1] + (0 if close else 1)
    return SpectrumResult(
        lambdas=lambdas, vectors=vectors, gamma=gamma, residuals=residuals,
        cluster_ids=cluster_ids,
    )


def _column_norms(r: np.ndarray) -> np.ndarray:
    """2-norms of the columns of r, scaled by powers of two so that no square overflows.

    Power-of-two scaling is exact, so wherever the plain norm stays finite
    it gives the same bits.
    """
    unit = np.ldexp(1.0, np.frexp(np.max(np.abs(r), axis=0))[1])
    return unit * np.linalg.norm(r / unit, axis=0)


def certify_spectrum(result: SpectrumResult, pencil: MixedPencil) -> dict:
    """Certify by Sylvester inertia that the computed values are the k smallest.

    The number of eigenvalues of (A_alpha, M) below sigma equals the number
    of negative eigenvalues of A_alpha - sigma M (spectrum slicing; Parlett,
    The Symmetric Eigenvalue Problem, ch. 3).  Two factorizations settle
    the min-max characterization for every direction at once:

    * a Cholesky factor of A_alpha - (lambda_1 - delta_1) M shows that no
      eigenvalue lies below lambda_1 - delta_1;
    * a Bunch-Kaufman LDL^T of A_alpha - (lambda_k + delta_k) M counts the
      eigenvalues below lambda_k + delta_k; the count must be exactly k.

    With the residual and M-orthonormality checks, the two counts prove that
    lambda_1..lambda_k are the k smallest eigenvalues.  A count above k is
    kept in the report.  It passes only as a cluster straddling lambda_k:
    a third count, at lambda_k - delta_k, must then find no eigenvalue there
    beyond the computed ones, so every uncomputed eigenvalue below the upper
    shift ties with lambda_k to within delta_k.

    The shift is delta = max(1e-8 (1 + |lambda|), margin).  The margin
    n eps max ||A_alpha - lambda M||_1 / lambda_min(M), over lambda in
    {lambda_1, lambda_k}, bounds the rounding of the factorizations in
    eigenvalue units; lambda_min(M) = h (2 + cos(n pi/(n+1)))/3 is the
    closed-form smallest eigenvalue of the P1 mass matrix.  Each u_k must
    also attain lambda_k: |u_k^T A u_k / u_k^T M u_k - lambda_k| <= 1e-8 (1 + |lambda_k|).

    Every shifted matrix is formed and factored in place in one n x n
    buffer; nothing is drawn at random.
    """
    a_mat = pencil.a_alpha
    mass = pencil.mass.data
    lambdas = result.lambdas
    n, k = pencil.n, lambdas.size
    # C-ordered and symmetric, so its transpose is the same matrix in Fortran order
    buf = np.empty((n, n))

    def shifted(sigma):
        np.multiply(mass, -sigma, out=buf)
        np.add(buf, a_mat, out=buf)
        return buf.T

    mass_min = pencil.mesh.h * (2.0 + math.cos(n * math.pi / (n + 1))) / 3.0
    norm = max(scipy.linalg.lapack.dlange("1", shifted(lam)) for lam in (lambdas[0], lambdas[-1]))
    margin = float(n * np.finfo(float).eps * norm / mass_min)
    delta_1 = max(1e-8 * (1.0 + abs(lambdas[0])), margin)
    delta_k = max(1e-8 * (1.0 + abs(lambdas[-1])), margin)
    lower, upper = float(lambdas[0] - delta_1), float(lambdas[-1] + delta_k)
    below_lower = (0 if _positive_definite(shifted(lower), overwrite=True)
                   else _count_below(shifted(lower)))
    below_upper = _count_below(shifted(upper))
    report = {
        "op": "variational_characterization",
        "margin": margin,
        "lower_shift": lower,
        "below_lower": below_lower,
        "upper_shift": upper,
        "below_upper": below_upper,
    }
    counts_hold = below_lower == 0 and below_upper == k
    if below_upper > k:
        tie = float(lambdas[-1] - delta_k)
        below_tie = _count_below(shifted(tie))
        computed = int(np.count_nonzero(lambdas < tie))
        report.update(tie_shift=tie, below_tie=below_tie, computed_below_tie=computed)
        counts_hold = below_lower == 0 and below_tie == computed

    per_k = []
    for j in range(k):
        lam = lambdas[j]
        u_k = result.vectors[:, j]
        attained = float(u_k @ a_mat @ u_k) / float(u_k @ mass @ u_k)
        holds = bool(abs(attained - lam) <= 1e-8 * (1.0 + abs(lam)))
        per_k.append({"k": j + 1, "lambda": float(lam), "attained": attained, "holds": holds})
    report["holds"] = counts_hold and all(row["holds"] for row in per_k)
    report["per_k"] = per_k
    return report


def check_contract(result: SpectrumResult, pencil: MixedPencil) -> dict:
    """The spectrum contract of one solve: its flags, their errors and ``holds``.

    max |V^T M V - I| <= 1e-8; off-diagonal of V^T A_alpha V <= 1e-6 times
    its largest diagonal; residuals <= 1e-8 (1 + |lambda|); the lower bound;
    and ``variational`` (``certify_spectrum``).  ``holds`` is their conjunction.

    The lower bound is exact: lambda_1 is a minimum of affine functions of
    alpha, so it is concave, lambda_1(alpha) >= (lambda_1(0) + lambda_1(2 alpha))/2,
    and with gamma = max(0, -lambda_1(2 alpha)/2) this gives
    lambda_1 + gamma >= lambda_1^loc/2.  Here lambda_1^loc =
    (6/h^2)(1 - cos t)/(2 + cos t), t = pi/(n+1), is the closed-form lowest
    P1 eigenvalue; the flag allows 1e-8 (1 + |lambda_1|).
    """
    h, t = pencil.mesh.h, math.pi / (pencil.n + 1)
    # Python floats: an overflow gives inf, with no warning
    local_1 = 12.0 * math.sin(0.5 * t) ** 2 / ((2.0 + math.cos(t)) * h) / h
    lam_1 = float(result.lambdas[0])
    v = result.vectors
    m_err = float(np.max(np.abs(v.T @ pencil.mass.data @ v - np.eye(v.shape[1]))))
    b_mat = v.T @ pencil.a_alpha @ v
    b_scale = float(np.max(np.abs(np.diag(b_mat))))
    b_err = float(np.max(np.abs(b_mat - np.diag(np.diag(b_mat)))))
    contract = {
        "m_orthonormality_error": m_err,
        "m_orthonormality_holds": m_err <= 1e-8,
        "b_orthogonality_error": b_err,
        "b_orthogonality_holds": b_err <= 1e-6 * b_scale,
        "residuals_hold": bool(np.all(
            result.residuals <= 1e-8 * (1.0 + np.abs(result.lambdas)))),
        "lower_bound_holds": bool(
            lam_1 + result.gamma >= 0.5 * local_1 - 1e-8 * (1.0 + abs(lam_1))),
        "variational": certify_spectrum(result, pencil),
    }
    contract["holds"] = (all(contract[key] for key in CONTRACT_FLAGS)
                         and contract["variational"]["holds"])
    return contract


def _count_below(shifted: np.ndarray) -> int:
    """Negative eigenvalues of a Fortran-ordered symmetric matrix, factored in place.

    Bunch-Kaufman LDL^T (LAPACK dsytrf, blocked with its queried workspace);
    by Sylvester's law D has the inertia of the matrix.  A 1x1 block counts
    when its pivot is negative.  A 2x2 block [[a, b], [b, c]] is taken only
    when |a c| < alpha^2 b^2, alpha = (1 + sqrt 17)/8, so its determinant is
    negative and it holds exactly one negative eigenvalue.
    """
    lapack = scipy.linalg.lapack
    lwork = int(lapack.dsytrf_lwork(shifted.shape[0])[0])
    ldu, ipiv, _ = lapack.dsytrf(shifted, lwork=lwork, overwrite_a=True)
    single = ipiv > 0   # rows of a 2x2 block carry the same negative ipiv
    return int(np.count_nonzero(np.diagonal(ldu)[single] < 0.0)
               + np.count_nonzero(~single) // 2)


def verify_variational_characterization(
    result: SpectrumResult, pencil: MixedPencil, *, samples: int = 1000, rng=None
) -> dict:
    """Sample the min-max characterization of every computed eigenvalue.

    For each k, random vectors are projected onto the complement (with
    respect to the bilinear form, realized through the M inner product
    against the eigenvectors with nonzero eigenvalue) of the first k-1
    eigenvectors; every Rayleigh quotient must stay above
    lambda_k - 1e-8 (1 + |lambda_k|), and u_k itself must attain lambda_k.
    The eigenvector quotient is included in the reported sampled minimum.
    This proves the bound for the sampled directions only; it is the
    randomized route that checks ``certify_spectrum`` at small n.

    The mass products of the sample block go through a CSR copy of M (it
    skips the exact zeros of whatever matrix the pencil holds); A_alpha is
    dense and multiplies the block densely.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a_mat = pencil.a_alpha
    mass = pencil.mass.data
    mass_csr = scipy.sparse.csr_array(mass)
    k = result.lambdas.size
    per_k = []
    ok = True
    for j in range(1, k + 1):
        lam = result.lambdas[j - 1]
        tol = 1e-8 * (1.0 + abs(lam))
        z = rng.standard_normal((pencil.n, samples))
        if j > 1:
            u_prev = result.vectors[:, : j - 1]
            active = np.abs(result.lambdas[: j - 1]) != 0.0
            basis = u_prev[:, active]
            if basis.size:
                z = z - basis @ (basis.T @ (mass_csr @ z))
        num = np.einsum("ij,ij->j", z, a_mat @ z)
        den = np.einsum("ij,ij->j", z, mass_csr @ z)
        good = den > 1e-12 * np.max(den)
        quotients = num[good] / den[good]
        u_k = result.vectors[:, j - 1]
        attained = float(u_k @ a_mat @ u_k) / float(u_k @ mass @ u_k)
        sampled_min = float(np.min(quotients)) if quotients.size else attained
        sampled_min = min(sampled_min, attained)
        holds = sampled_min >= lam - tol and abs(attained - lam) <= tol
        ok = ok and holds
        per_k.append(
            {"k": j, "lambda": float(lam), "sampled_min": sampled_min,
             "attained": attained, "holds": bool(holds)}
        )
    return {"op": "variational_characterization", "holds": ok, "per_k": per_k}


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


def sweep_alpha(mesh: Mesh1D, s: float, alphas, k: int) -> SweepTable:
    """Solve the pencil for every coupling in ``alphas`` (ascending or not)."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        raise RequestError("alpha sweep needs at least one value")
    if not np.all(np.isfinite(alphas)):
        raise RequestError("alpha values must be finite")
    base = assemble_pencil(mesh, s, 0.0)
    gammas = np.empty(alphas.size)
    lams = np.empty((alphas.size, k))
    for i, alpha in enumerate(alphas):
        res = solve_spectrum(base.with_alpha(alpha), k)
        gammas[i] = res.gamma
        lams[i] = res.lambdas
    return SweepTable(
        alphas=alphas.copy(), gammas=gammas, lambdas=lams,
        signs=np.sign(lams[:, 0]).astype(int),
    )


def monotone_in_alpha(table: SweepTable) -> bool:
    """Every column of the sweep is nondecreasing in alpha (A_frac is PSD), to 1e-9 relative."""
    lams = table.lambdas[np.argsort(table.alphas)]
    return bool(np.all(np.diff(lams, axis=0) >= -1e-9 * (1.0 + np.abs(lams[1:]))))


def _lambda_1_positive(pencil: MixedPencil) -> bool:
    """Sylvester inertia: lambda_1 > 0 iff A_alpha is positive definite."""
    return _positive_definite(pencil.a_alpha)


def locate_threshold(mesh: Mesh1D, s: float) -> dict:
    """Bisect the sign change of lambda_1(alpha); it must land on -1/C_h.

    Each step tests the sign by one Cholesky attempt of A_alpha (inertia);
    lambda_1 never decreases in alpha (A_frac is PSD), so it changes sign
    once.  The bisection starts from the certified bracket
    -(1 +- THRESHOLD_RTOL)/C_h: when that straddles the sign change, the two
    attempts already prove the flag, and about five more reach
    _BISECTION_RTOL.  Otherwise the same loop starts from [-2/C_h, 0], and
    RequestError is raised only when that fails too.
    ``holds`` is |alpha* + 1/C_h| C_h <= THRESHOLD_RTOL.
    """
    base = assemble_pencil(mesh, s, 0.0)
    c_h = embedding_constant(base)
    brackets = (((-1.0 - THRESHOLD_RTOL) / c_h, (-1.0 + THRESHOLD_RTOL) / c_h),
                (-2.0 / c_h, 0.0))
    for lo, hi in brackets:
        if (not _lambda_1_positive(base.with_alpha(lo))
                and _lambda_1_positive(base.with_alpha(hi))):
            break
    else:
        raise RequestError("no bisection bracket straddles the sign change")
    while hi - lo > _BISECTION_RTOL / c_h:
        mid = 0.5 * (lo + hi)
        if _lambda_1_positive(base.with_alpha(mid)):
            hi = mid
        else:
            lo = mid
    alpha_star = 0.5 * (lo + hi)
    difference = alpha_star + 1.0 / c_h
    rel = abs(difference) * c_h
    return {
        "alpha_star": alpha_star,
        "minus_inv_c": -1.0 / c_h,
        "embedding_constant": c_h,
        "difference": difference,
        "relative_difference": rel,
        "holds": rel <= THRESHOLD_RTOL,
    }


def verify_brezis_inequality(mesh: Mesh1D, s: float, trials: int, *, rng=None) -> dict:
    """Sampled sharpness of u^T A_frac u <= C (u^T M u)^(1-s) (u^T (M+A_loc) u)^s.

    Draws standard normal coefficient vectors, reports the largest ratio,
    and polishes the best sample by local ascent on the log ratio.  The
    maximum is reported, not asserted against any continuum constant;
    across mesh refinement it should stay stable.
    """
    if trials < 1:
        raise RequestError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(0) if rng is None else rng
    pencil = assemble_pencil(mesh, s, 0.0)
    a_frac = pencil.a_frac.data
    mass = pencil.mass.data
    w12 = mass + pencil.a_loc.data

    z = rng.standard_normal((mesh.n, trials))
    num = np.einsum("ij,ij->j", z, a_frac @ z)
    den = (
        np.einsum("ij,ij->j", z, mass @ z) ** (1.0 - s)
        * np.einsum("ij,ij->j", z, w12 @ z) ** s
    )
    ratios = num / den
    best = int(np.argmax(ratios))
    max_ratio = float(ratios[best])

    def neg_log_ratio(u):
        qf = float(u @ a_frac @ u)
        qm = float(u @ mass @ u)
        qw = float(u @ w12 @ u)
        if min(qf, qm, qw) <= 0.0:
            return np.inf, np.zeros_like(u)
        value = -(math.log(qf) - (1.0 - s) * math.log(qm) - s * math.log(qw))
        grad = -(2.0 * (a_frac @ u) / qf
                 - 2.0 * (1.0 - s) * (mass @ u) / qm
                 - 2.0 * s * (w12 @ u) / qw)
        return value, grad

    opt = scipy.optimize.minimize(
        neg_log_ratio, z[:, best], jac=True, method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12},
    )
    if np.isfinite(opt.fun):
        max_ratio = max(max_ratio, math.exp(-float(opt.fun)))
    return {
        "op": "brezis_ratio",
        "s": s,
        "n": mesh.n,
        "trials": trials,
        "max_ratio": max_ratio,
    }
