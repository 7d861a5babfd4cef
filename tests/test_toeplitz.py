"""The Toeplitz-column kernels of ``mixspec._toeplitz`` against dense LAPACK answers."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixspec import _toeplitz, assemble_local_stiffness, assemble_mass, assemble_pencil, build_mesh


def _dense(kernel, column):
    """kernel(column) on the dense LAPACK route, whatever the column."""
    with mock.patch.object(_toeplitz, "banded", return_value=False):
        return kernel(column)


def _p1_eigenvalues(n):
    """Closed-form eigenvalues (6/h^2)(1 - cos t_j)/(2 + cos t_j) of (A_loc, M) on (0, 1), ascending."""
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * math.pi / (n + 1)
    return 6.0 * (1.0 - np.cos(t)) / (h * h * (2.0 + np.cos(t)))


class TestBanded:
    @pytest.mark.parametrize("column, banded", [
        ([2.0], True), ([2.0, -1.0], True), ([2.0, -1.0, 0.0, -0.0], True),
        ([2.0, 0.0, 0.0, 0.0], True), ([2.0, -1.0, 1e-300, 0.0], False),
        ([0.5, 0.0, 1.0], False), ([0.5, 0.0, 0.0, 1.0], False)])
    def test_reads_every_entry_past_index_1(self, column, banded):
        # the banded routes read column[0] and column[1] only, so any other
        # nonzero entry must send the column to the FFT and LAPACK routes
        column = np.array(column)
        dense = scipy.linalg.toeplitz(column)
        assert _toeplitz.banded(column) is banded
        z = np.arange(1.0, 2.0 * column.size + 1.0).reshape(column.size, 2)
        np.testing.assert_allclose(_toeplitz.times(column, z), dense @ z, rtol=0, atol=1e-12)
        every = np.linalg.eigvalsh(dense)
        assert _toeplitz.count_below(column) == np.count_nonzero(every < 0.0)
        assert _toeplitz.definite(column) == bool(np.all(every > 0.0))

    @pytest.mark.parametrize("column", [
        [math.inf], [math.inf, 1.0], [math.inf, 0.0, 0.0], [math.nan], [1.0, math.nan],
        [2.0, math.inf, 0.0], [math.inf, 0.5, 0.25], [math.nan, 0.5, 0.25],
        [2.0, 0.5, math.inf], [2.0, -math.inf, 0.25]])
    def test_non_finite_column_is_not_definite(self, column):
        # the Sturm pass carries an infinite diagonal to a positive last pivot,
        # and potrf factors toeplitz([inf, 0.5, 0.25]) and toeplitz([nan, 0.5,
        # 0.25]) without error, so the finiteness test stands before both
        # routes; count_below takes no count of such a column either
        column = np.array(column)
        assert _toeplitz.definite(column) is False
        assert _dense(_toeplitz.definite, column) is False
        assert _toeplitz.count_below(column) is None
        assert _dense(_toeplitz.count_below, column) is None


class TestInertia:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300), j=st.integers(min_value=0, max_value=299),
           where=st.sampled_from(["at", "ulp_above", "ulp_below", "between", "below_all"]))
    @example(n=1, j=0, where="at")
    @example(n=1, j=0, where="ulp_below")
    @example(n=1, j=0, where="between")
    @example(n=1, j=0, where="below_all")
    @example(n=2, j=1, where="at")
    @example(n=2, j=0, where="ulp_above")
    @example(n=2, j=0, where="between")
    @example(n=2, j=1, where="between")
    def test_counts_match_dense(self, n, j, where):
        """The O(n) inertia of A_loc - sigma M against the dense LAPACK factorizations.

        Where no eigenvalue lies within the rounding band of the shift (the
        certificate's margin formula, with the norms of the unshifted forms,
        plus 8 ulps of sigma for the closed form), the count is determined:
        both routes must give it, and definiteness exactly when it is 0.
        At a shift on an eigenvalue or 1 ulp off it, the two routes round
        differently and each may or may not count that eigenvalue (in
        random draws they disagreed about once in 25), so both must lie
        between the counts at the ends of the band.
        """
        mesh = build_mesh(0.0, 1.0, n)
        local, mass = assemble_local_stiffness(mesh).column, assemble_mass(mesh).column
        eigenvalues = _p1_eigenvalues(n)
        j %= n
        lam = eigenvalues[j]
        upper = eigenvalues[j + 1] if j + 1 < n else 2.0 * lam
        sigma = {"at": lam, "ulp_above": np.nextafter(lam, math.inf),
                 "ulp_below": np.nextafter(lam, -math.inf), "between": 0.5 * (lam + upper),
                 "below_all": 0.5 * eigenvalues[0]}[where]
        column = mass * -sigma + local
        assert _toeplitz.banded(column)
        count = _toeplitz.count_below(column)
        definite = _toeplitz.definite(column)
        dense_count = _dense(_toeplitz.count_below, column)
        dense_definite = _dense(_toeplitz.definite, column)

        eps = np.finfo(float).eps
        mass_min = mesh.h * (2.0 + math.cos(n * math.pi / (n + 1))) / 3.0
        band = (n * eps * (_toeplitz.norm_1(local) + sigma * _toeplitz.norm_1(mass))
                / mass_min + 8.0 * eps * sigma)
        low = int(np.count_nonzero(eigenvalues < sigma - band))
        high = int(np.count_nonzero(eigenvalues < sigma + band))
        if where in ("between", "below_all"):
            assert low == high
        if low == high:
            assert count == dense_count == low
            assert definite == dense_definite == (low == 0)
        else:
            assert low <= count <= high and low <= dense_count <= high
            assert not (definite or dense_definite) or low == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=40),
           diagonal=st.sampled_from([0.0, 1e-3, 1.0]))
    @example(seed=0, n=40, diagonal=0.0)
    def test_inertia_count_matches_eigvalsh(self, seed, n, diagonal):
        # a small diagonal forces 2x2 Bunch-Kaufman pivots; n <= 2 takes the Sturm pass
        rng = np.random.default_rng(seed)
        column = rng.standard_normal(n)
        column[0] = diagonal * rng.standard_normal()
        every = np.linalg.eigvalsh(scipy.linalg.toeplitz(column))
        assert _toeplitz.count_below(column) == np.count_nonzero(every < 0.0)
        assert _toeplitz.definite(column) == bool(np.all(every > 0.0))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300), s=st.floats(min_value=0.05, max_value=0.95),
           alpha=st.floats(min_value=-50.0, max_value=50.0), j=st.integers(0, 299),
           where=st.sampled_from(["lower", "upper", "between", "at", "ulp_above", "ulp_below"]))
    @example(n=1, s=0.5, alpha=-3.0, j=0, where="lower")
    @example(n=1, s=0.5, alpha=-3.0, j=0, where="ulp_above")
    @example(n=2, s=0.3, alpha=5.0, j=1, where="between")
    @example(n=2, s=0.3, alpha=5.0, j=1, where="upper")
    @example(n=3, s=0.7, alpha=-30.0, j=1, where="between")
    @example(n=3, s=0.7, alpha=-30.0, j=2, where="upper")
    @example(n=4, s=0.5, alpha=-3.0, j=2, where="between")
    @example(n=300, s=0.9, alpha=-50.0, j=4, where="upper")
    @example(n=299, s=0.2, alpha=8.0, j=0, where="lower")
    def test_split_counts_match_eigvalsh(self, n, s, alpha, j, where):
        """The reflection's two half-size blocks against the eigenvalues of the whole T.

        T = A_alpha - sigma M, sigma at shifts of the certificate's kind
        (lambda_1 and lambda_(j+1) moved out by n eps (||A_alpha||_1 +
        |lambda| ||M||_1) / lambda_min(M)), between two eigenvalues, on one,
        or 1 ulp off it.  An eigenvalue of T within n eps ||T||_1 of zero is
        inside the rounding band, closed, so that a zero T (as at n = 1)
        lies in it: a shift of n eps ||T||_1 / lambda_min(M) moves T's
        eigenvalues by at least that much.  Where no eigenvalue of
        ``eigvalsh`` lies in the band, the split's count equals the dense
        one, and it is definite exactly when the count is 0; inside the band
        both lie between the band's end counts.  n <= 2 is banded, so every
        column is sent to the split through ``_dense``.
        """
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), s, alpha)
        mass = pencil.mass.column
        eigenvalues = scipy.linalg.eigh(scipy.linalg.toeplitz(pencil.column),
                                        scipy.linalg.toeplitz(mass), eigvals_only=True)
        eps = np.finfo(float).eps
        j %= n
        lam = eigenvalues[j]
        upper = eigenvalues[j + 1] if j + 1 < n else lam + abs(lam) + 1.0
        mass_min = pencil.mesh.h * (2.0 + math.cos(n * math.pi / (n + 1))) / 3.0

        def margin(value):
            return (n * eps * (_toeplitz.norm_1(pencil.column) + abs(value) * _toeplitz.norm_1(mass))
                    / mass_min)

        sigma = {"lower": eigenvalues[0] - margin(eigenvalues[0]), "upper": lam + margin(lam),
                 "between": 0.5 * (lam + upper), "at": lam,
                 "ulp_above": np.nextafter(lam, math.inf),
                 "ulp_below": np.nextafter(lam, -math.inf)}[where]
        column = mass * -sigma + pencil.column
        every = np.linalg.eigvalsh(scipy.linalg.toeplitz(column))
        band = n * eps * _toeplitz.norm_1(column)
        low = int(np.count_nonzero(every < -band))
        high = int(np.count_nonzero(every <= band))
        count = _dense(_toeplitz.count_below, column)
        definite = _dense(_toeplitz.definite, column)
        if low == high:
            assert count == low
            assert definite == (low == 0)
        else:
            assert low <= count <= high
            assert not definite or low == 0


class TestNorm1:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300), seed=st.integers(0, 2**32 - 1),
           decay=st.floats(min_value=0.0, max_value=5.0))
    @example(n=2047, seed=0, decay=0.0)
    def test_norm_1_matches_dlange(self, n, seed, decay):
        # each column sum is a recursive sum of n nonnegative terms, within
        # (n - 1) eps relative of the exact sum on either route, so the two
        # agree to 2 n ulps of the norm; the measured gap was at most 0.19 n
        rng = np.random.default_rng(seed)
        column = rng.standard_normal(n) * np.exp(-decay * np.arange(n) / max(n, 1) * 20.0)
        dense = scipy.linalg.lapack.dlange("1", scipy.linalg.toeplitz(column))
        assert abs(_toeplitz.norm_1(column) - dense) <= 2 * n * np.spacing(dense)


class TestDurbin:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300),
           s=st.floats(min_value=0.05, max_value=0.95),
           alpha=st.floats(min_value=-50.0, max_value=50.0),
           below=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, s=0.5, alpha=-3.0, below=0.5, seed=0)
    @example(n=2, s=0.3, alpha=5.0, below=0.5, seed=0)
    @example(n=300, s=0.95, alpha=-50.0, below=0.0, seed=0)
    @example(n=2, s=0.12, alpha=13.0, below=0.53125, seed=5)  # backward error 3.6 eps
    def test_durbin_pivots_and_gohberg_semencul(self, n, s, alpha, below, seed):
        """The structured kernel against the dense LAPACK answers.

        T = A_alpha - sigma M, sigma the symbol floor lowered by ``below``
        times the diagonal ratio |a_0/m_0|: at below = 0 it is the shift of
        the route itself, within 1e-8 of singular.  Durbin's pivots equal
        the squared diagonal of the Cholesky factor within 16 n eps
        relative, and the Gohberg-Semencul product equals LAPACK's positive
        definite solve within 2 n cond(T) eps relative.  Over 2000 random
        draws (a fifth of them with |alpha| in [1e-12, 1]) these read at most
        5.7 n eps and 0.49 n cond(T) eps.

        The normwise backward error is bounded by max(n, 6 log2 N + 4) eps,
        N = next_fast_len(2n - 1) the FFT length.  n eps is the budget of
        the n-term sums of a direct product.  The FFT route rounds each
        entry along a longer path at small n: six transforms of log2 N
        butterfly levels each (v's, the predictor's used twice, two inverse
        and one more forward transform), two spectral products, the
        difference and the division by the pivot.  The second term is the
        larger one only for n <= 42, so the bound is n eps at every n that
        the shift-invert route takes (``SHIFT_INVERT_MIN_N`` and up).  Over
        1500 draws per n the error read at most 2.8 eps at n = 2 (over
        2 eps in 33 of them, 3.6 eps in the example above), 5.5 eps for
        n <= 24 and 0.1 n eps at n = 128.
        """
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), s, alpha)
        mass = pencil.mass.column
        sigma = (_toeplitz.symbol_floor(pencil.column, mass)
                 - below * abs(pencil.column[0] / mass[0]))
        column = mass * -sigma + pencil.column
        dense = scipy.linalg.toeplitz(column)
        try:
            factor = scipy.linalg.cholesky(dense, lower=True)
        except scipy.linalg.LinAlgError:  # the floor is exact at n = 1
            assert n == 1 and below == 0.0
            return
        eps = np.finfo(float).eps
        pivots, predictor = _toeplitz.pivots(column)
        squares = np.diag(factor) ** 2
        assert np.all(np.abs(pivots - squares) <= 16 * n * eps * squares)
        assert predictor[0] == 1.0
        v = np.random.default_rng(seed).standard_normal(n)
        found = _toeplitz.inverse(pivots[-1], predictor)(v)
        exact = scipy.linalg.solve(dense, v, assume_a="pos")
        error = np.linalg.norm(found - exact) / np.linalg.norm(exact)
        assert error <= 2 * n * np.linalg.cond(dense) * eps
        backward = np.linalg.norm(dense @ found - v) / (np.linalg.norm(dense, 1)
                                                        * np.linalg.norm(found))
        size = scipy.fft.next_fast_len(2 * n - 1, real=True)
        assert backward <= max(n, 6 * math.log2(size) + 4) * eps
