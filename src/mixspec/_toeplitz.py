"""Kernels on a symmetric Toeplitz matrix T = toeplitz(column), given by its column alone.

A column zero past index 1 (``banded``) is a tridiagonal T: M's, A_loc's,
and A_alpha's at alpha = 0 or n <= 2.  There products take the three-term
stencil, and the two questions of the inertia certificate, ``definite``
and ``count_below``, one Sturm pass, in O(n).  Any other T is multiplied
by FFT, and for the two questions it is split by the reflection
i -> n - 1 - i into two half-size blocks (``_half``), each built dense and
factored by LAPACK (Cholesky and Bunch-Kaufman): backward stable, where
Durbin's ``pivots`` are no inertia count on indefinite matrices, and a
quarter of the flops and memory of factoring T itself.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
import scipy.linalg


def banded(column: np.ndarray) -> bool:
    """True when toeplitz(column) is tridiagonal: the column is zero past index 1."""
    return not np.count_nonzero(column[2:])


def times(column: np.ndarray, z: np.ndarray) -> np.ndarray:
    """toeplitz(column) z, z a vector or columnwise.

    The three-term stencil for a banded column, at the rounding of a dense
    product; otherwise an FFT Toeplitz product, O(n log n) per column of z.
    """
    if not banded(column):
        return scipy.linalg.matmul_toeplitz(column, z, check_finite=False)
    product = column[0] * z
    if z.shape[0] > 1:
        product[1:] += column[1] * z[:-1]
        product[:-1] += column[1] * z[1:]
    return product


def norm_1(column: np.ndarray) -> float:
    """||toeplitz(column)||_1 in O(n).

    Column j of a symmetric Toeplitz matrix holds |c_0|..|c_j| above and
    including the diagonal and |c_1|..|c_(n-1-j)| below it, so with prefix
    sums P its absolute sum is P_j + P_(n-1-j) - |c_0|.  A sum past the
    float range is inf, with no warning.
    """
    with np.errstate(over="ignore"):
        prefix = np.cumsum(np.abs(column))
        return float(np.max(prefix + prefix[::-1]) - abs(column[0]))


def symbol_floor(column: np.ndarray, mass_column: np.ndarray) -> float:
    """A shift just below every eigenvalue of (toeplitz(column), M), or a candidate for one.

    toeplitz(c) has the symbol f_c(t) = c_0 + 2 sum_j c_j cos(j t), and
    u^T toeplitz(c) u is the integral of f_c |u^(t)|^2, so every eigenvalue
    of the pencil lies in the range of f_column/f_M (Grenander and Szegoe
    1958; f_M = h (2 + cos t)/3 > 0).  The range is taken over a 16 n-point
    grid, one ``rfft`` of each column, so its minimum may lie above the true
    one: the returned min - 1e-8 (max - min) is proved below lambda_1 only
    by the Durbin pivots of ``spectral._shift_invert``.  The offset is
    scaled by the range, not by a fixed unit, so that the shift stays within
    the spectrum's own scale on any domain: a shift far outside it leaves
    the eigenvalues of the shifted operator equal to rounding.
    """
    size = 16 * column.size
    with np.errstate(over="ignore", invalid="ignore"):
        symbol = 2.0 * scipy.fft.rfft(column, size).real - column[0]
        mass = 2.0 * scipy.fft.rfft(mass_column, size).real - mass_column[0]
        ratio = symbol / mass
        low = float(np.min(ratio))
        return low - 1e-8 * (float(np.max(ratio)) - low)


def pivots(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Durbin's recursion on T.

    Returns the pivots d of the unpivoted LDL^T of T, the ratios of its
    successive leading principal minors, and the monic predictor a with
    T a = d_(n-1) e_1, so that x = T^-1 e_1 is a / d_(n-1).  Step m solves
    the order-m Yule-Walker system from the order-(m-1) one through the
    reflection coefficient kappa, and the pivot is updated as
    e (1 - kappa)(1 + kappa), which loses no digits as |kappa| nears 1 the
    way e (1 - kappa^2) does.  O(n^2) time and O(n) memory (Golub and Van
    Loan, Matrix Computations, sec. 4.7).  A zero or non-finite pivot makes
    the later ones NaN or infinite; the caller refuses them.
    """
    n = column.size
    found = np.empty(n)
    predictor = np.zeros(n)
    predictor[0] = 1.0
    found[0] = pivot = column[0]
    # numpy scalars, whose division by zero gives inf or NaN where a Python float's raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(1, n):
            kappa = -(column[m:0:-1] @ predictor[:m]) / pivot
            predictor[1:m + 1] += kappa * predictor[m - 1::-1]
            pivot *= (1.0 - kappa) * (1.0 + kappa)
            found[m] = pivot
    return found, predictor


def inverse(pivot: float, predictor: np.ndarray):
    """v -> T^-1 v by the Gohberg-Semencul formula, from ``pivots``' last pivot and a.

    With x = T^-1 e_1 and L(c) the lower-triangular Toeplitz matrix with
    first column c (Gohberg and Semencul 1972),

        T^-1 v = (L(x) L(x)^T - L(Zx~) L(Zx~)^T) v / x_0,
        Zx~ = [0, x_(n-1), ..., x_1],

    and with x = a / pivot it reads
    T^-1 v = (L(a) L(a)^T - L(Za~) L(Za~)^T) v / pivot; a has a unit first
    entry, so neither product leaves the scale of v before the division.
    Each L(c) and L(c)^T is a product of zero-padded real FFTs: L(c)^T v is
    the correlation, the conjugate spectrum of c times that of v.  Six real
    FFTs of length ``next_fast_len(2n - 1)`` per application.
    """
    n = predictor.size
    size = scipy.fft.next_fast_len(2 * n - 1, real=True)
    flipped = np.zeros(n)
    flipped[1:] = predictor[:0:-1]
    first = scipy.fft.rfft(predictor, size)
    second = scipy.fft.rfft(flipped, size)

    def solve(v):
        spectrum = scipy.fft.rfft(v, size)
        head = scipy.fft.irfft(first.conj() * spectrum, size)[:n]
        tail = scipy.fft.irfft(second.conj() * spectrum, size)[:n]
        product = first * scipy.fft.rfft(head, size) - second * scipy.fft.rfft(tail, size)
        return scipy.fft.irfft(product, size)[:n] / pivot

    return solve


def backward_error(column: np.ndarray, mass_column: np.ndarray, lambdas: np.ndarray,
                   vectors: np.ndarray) -> float:
    """Largest normwise backward error of the pairs as eigenpairs of (toeplitz(column), M).

    max_j ||A u_j - lambda_j M u_j|| / ((||A|| + |lambda_j| ||M||) ||u_j||), each
    Toeplitz norm bounded by the absolute sum of its two-sided column; NaN
    when a norm is not finite.  The products are ``times``, O(n log n) per pair.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a_norm = 2.0 * np.sum(np.abs(column)) - abs(column[0])
        m_norm = 2.0 * np.sum(np.abs(mass_column)) - abs(mass_column[0])
        residual = times(column, vectors) - times(mass_column, vectors) * lambdas
        scale = (a_norm + np.abs(lambdas) * m_norm) * np.linalg.norm(vectors, axis=0)
        if not np.isfinite(scale).all():
            return math.nan
        return float(np.max(np.linalg.norm(residual, axis=0) / scale))


def definite(column: np.ndarray) -> bool:
    """Whether T is positive definite (Sylvester inertia).

    A non-finite column never is, though potrf factors some without error.
    A banded column's Sturm pass (``_sturm``) must find no negative pivot
    and a positive last one: a zero pivot before the last makes the next
    negative.  Otherwise T is definite exactly when both blocks of ``_half``
    are: one Cholesky attempt (potrf) of the even block, factored in place,
    then, only if it succeeds, one of the odd block.
    """
    if not np.isfinite(column).all():
        return False
    if banded(column):
        negative, last = _sturm(column)
        return negative == 0 and last > 0.0
    potrf = scipy.linalg.lapack.dpotrf
    # each block is built inside the call that factors it, so one is alive at a time
    return all(potrf(_half(column, even).T, overwrite_a=True, clean=False)[1] == 0
               for even in (True, False))


def count_below(column: np.ndarray) -> int | None:
    """The number of negative eigenvalues of T (Sylvester inertia).

    A non-finite column has no count: None, and nothing is factored.  A
    banded column takes the Sturm pass.  Otherwise the count is the sum of
    the two blocks' counts of ``_half``, each by ``_negative_pivots``.
    """
    if not np.isfinite(column).all():
        return None
    if banded(column):
        return _sturm(column)[0]
    return sum(_negative_pivots(_half(column, even)) for even in (True, False))


def _half(column: np.ndarray, even: bool) -> np.ndarray:
    """The even or the odd block of T under the reflection, a fresh C-ordered array.

    T is centrosymmetric, J T J = T with J the flip, so it is congruent to
    one block on the vectors with u = J u and one on those with u = -J u
    (Cantoni and Butler, Linear Algebra Appl. 13, 1976).  With m = n // 2,
    T_m = toeplitz(column[:m]), H_m[i, j] = column[n - 1 - i - j] and
    x_i = column[m - i], the congruence P = [[I, I], [J, -J]] (n = 2m) or
    [[I, 0, I], [0, 1, 0], [J, 0, -J]] (n = 2m + 1) gives

        P^T T P = 2 diag(E', O),   O = T_m - H_m,
        E' = T_m + H_m (n = 2m),  E' = [[T_m + H_m, x], [x^T, column[0]/2]] (n = 2m + 1),

    so by Sylvester's law the inertia of T is the sum of the blocks'.  The
    even block is E' of size n - m and the odd one O of size m (empty at
    n = 1).  Each entry of T_m +- H_m is one rounded sum, within eps of
    its own size, which P maps back to a perturbation of T of 2-norm at most
    2 eps ||T||_1; halving a normal column[0] is exact.  T_m and H_m are
    strided views of the column, so the block is the only array of its size
    built.
    """
    n = column.size
    m = n // 2
    size = n - m if even else m
    block = np.empty((size, size))
    window = np.lib.stride_tricks.sliding_window_view
    toeplitz = window(np.concatenate((column[m - 1:0:-1], column[:m])), m)[::-1]
    hankel = window(column[n - 1:n - 2 * m:-1], m)
    (np.add if even else np.subtract)(toeplitz, hankel, out=block[:m, :m])
    if size > m:
        block[m, :m] = block[:m, m] = column[m:0:-1]
        block[m, m] = 0.5 * column[0]
    return block


def _negative_pivots(block: np.ndarray) -> int:
    """The number of negative eigenvalues of a symmetric block, factored in place.

    Bunch-Kaufman LDL^T (LAPACK dsytrf, blocked with its queried workspace);
    by Sylvester's law D has the inertia of the block.  A 1x1 block of D
    counts when its pivot is negative.  A 2x2 block [[a, b], [b, c]] is
    taken only when |a c| < alpha^2 b^2, alpha = (1 + sqrt 17)/8, so its
    determinant is negative and it holds exactly one negative eigenvalue.
    """
    lapack = scipy.linalg.lapack
    lwork = int(lapack.dsytrf_lwork(block.shape[0])[0])
    # C-ordered and symmetric, so its transpose is the same matrix in Fortran order
    ldu, ipiv, _ = lapack.dsytrf(block.T, lwork=lwork, overwrite_a=True)
    single = ipiv > 0   # rows of a 2x2 block carry the same negative ipiv
    return int(np.count_nonzero(np.diagonal(ldu)[single] < 0.0)
               + np.count_nonzero(~single) // 2)


def _sturm(column: np.ndarray) -> tuple[int, float]:
    """The negative pivots of a tridiagonal T, counted, and its last pivot, in O(n).

    The pivots q_1 = d, q_i = d - e^2 / q_(i-1) of the unpivoted L D L^T
    have the inertia of T (Sylvester), and the count of negative ones is
    backward stable (Demmel and Kahan 1990; Parlett, The Symmetric
    Eigenvalue Problem, ch. 3).  d and e are scaled by the power of two that
    puts the larger in [1, 2), so that no square or quotient overflows; a
    positive scaling keeps the inertia, and a power of two keeps the bits of
    normal numbers.  An eigenvalue exactly at zero gives a zero pivot,
    which is not counted, as a zero pivot of dsytrf's D is not: both count
    the eigenvalues strictly below zero.  A zero pivot before the last is
    replaced by the smallest normal number: the next pivot is then hugely
    negative, and one of the two is counted, as the exact Sturm sequence
    (whose neighbours of a zero term differ in sign) counts one.
    """
    diagonal = float(column[0])
    off = float(column[1]) if column.size > 1 else 0.0
    unit = math.ldexp(1.0, math.frexp(max(abs(diagonal), abs(off)))[1] - 1)
    diagonal, off = diagonal / unit, off / unit
    square = off * off
    tiny = float(np.finfo(float).tiny)
    pivot = diagonal
    negative = int(pivot < 0.0)
    for _ in range(column.size - 1):
        pivot = diagonal - square / (pivot or tiny)
        if pivot < 0.0:
            negative += 1
    return negative, pivot
