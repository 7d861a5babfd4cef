import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mixspec import (
    AccuracyError,
    ParameterError,
    RequestError,
    SweepTable,
    assemble_fractional_stiffness,
    assemble_local_stiffness,
    assemble_mass,
    assemble_pencil,
    build_mesh,
    check_contract,
    couple_from_grams,
    embedding_constant,
    gamma_shift,
    locate_threshold,
    monotone_in_alpha,
    solve_spectrum,
    spectral_s_norm,
    sweep_alpha,
    verify_brezis_inequality,
    verify_variational_characterization,
)
from mixspec import _toeplitz, spectral
from mixspec.cli import main
from mixspec.interpolation import interpolation_gram
from mixspec.spectral import THRESHOLD_RTOL


def _peak_doubles(call) -> float:
    """Peak traced allocation of call(), in doubles above the memory traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 8.0
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def base63():
    return assemble_pencil(build_mesh(0.0, 1.0, 63), 0.5, 0.0)


class TestPencilAssembly:
    def test_alpha_zero_reduction(self):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 6), 0.5, 0.0)
        assert np.array_equal(pencil.a_alpha, pencil.a_loc.data)

    def test_linearity_in_alpha(self):
        base = assemble_pencil(build_mesh(0.0, 1.0, 5), 0.4, 1.0)
        plus, minus = base.with_alpha(1.0), base.with_alpha(-1.0)
        np.testing.assert_allclose(
            plus.a_alpha + minus.a_alpha, 2.0 * base.a_loc.data, atol=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), s=st.floats(0.01, 0.99),
           alpha=st.floats(allow_nan=False, allow_infinity=False))
    @example(n=4, s=0.5, alpha=2.0)
    @example(n=5, s=0.5, alpha=1e308)
    @example(n=300, s=0.9, alpha=-1e306)
    def test_reassembly_consistency(self, n, s, alpha):
        """A_alpha from the columns has the bits of the dense sum, or overflows with it."""
        mesh = build_mesh(0.0, 1.0, n)
        pencil = assemble_pencil(mesh, s, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            again = (assemble_local_stiffness(mesh).data
                     + alpha * assemble_fractional_stiffness(mesh, s).data)
        if np.isfinite(again).all():
            assert np.array_equal(pencil.with_alpha(alpha).a_alpha, again)
        else:
            with pytest.raises(ParameterError):
                pencil.with_alpha(alpha)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_local_forms_are_tridiagonal(self, n):
        mesh = build_mesh(-1.0, 2.5, n)
        h = mesh.h
        for form, diag, off in ((assemble_mass(mesh), 2.0 * h / 3.0, h / 6.0),
                                (assemble_local_stiffness(mesh), 2.0 / h, -1.0 / h)):
            explicit = (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, off), 1)
                        + np.diag(np.full(n - 1, off), -1))
            assert np.array_equal(form.data, explicit) and not form.data.flags.writeable

    def test_spectrum_path_keeps_no_dense_form(self):
        """Solve and contract peak at two transient n x n arrays, in B's build.

        The pencil holds columns only, so B's two half-size blocks, built on
        the first solve, are the one dense state that outlives its reader.
        A dense A_alpha, M or certificate buffer kept for the request would
        add a whole n^2.  No solve, sweep or threshold leaves a dense form on
        the pencil.  Measured at n = 255: 2.01 n^2 doubles at alpha = -3 and
        2 (the dense A_frac and A_frac S while the blocks are built; the
        blocks' eigensolves and the certificate's half-size blocks stay below
        it), 0.10 n^2 at alpha = 0, where nothing n x n is built; the bounds
        add 0.24 and 0.05 n^2.
        """
        n = 255
        for alpha in (-3.0, 0.0, 2.0):
            pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, alpha)
            peak = _peak_doubles(lambda: check_contract(solve_spectrum(pencil, 5), pencil))
            assert peak < (0.15 if alpha == 0.0 else 2.25) * n * n, (alpha, peak / n**2)
            sweep_alpha(pencil, [-30.0, 0.0], 2)
            locate_threshold(pencil)
            for holder in (pencil, pencil.a_loc, pencil.a_frac, pencil.mass):
                assert all(value.size <= n for value in vars(holder).values()
                           if isinstance(value, np.ndarray))


    def test_alpha_zero_contract_builds_nothing_n_by_n(self):
        """At alpha = 0 a solve and its contract stay O(n) in memory.

        Products go through the stencils and the certificate through the
        tridiagonal counts, so the traced peak at n = 1023 was 25.3 n
        doubles (the vectors and their products); one n x n array would be
        1023 n.  The bound is 50 n.
        """
        n = 1023
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0)
        check_contract(solve_spectrum(pencil, 5), pencil)  # first-call caches are not counted
        result = []
        peak = _peak_doubles(lambda: result.append(check_contract(solve_spectrum(pencil, 5), pencil)))
        assert result[0]["holds"] and peak < 50 * n, peak / n

    @pytest.mark.parametrize("alpha", [-3.0, 5.0])
    def test_certificate_factors_half_size_blocks(self, alpha):
        """At alpha != 0 the contract of a shift-invert solve builds no n x n array.

        Its certificate factors the two blocks of the reflection's split, of
        sizes n - n // 2 and n // 2, one at a time.  The traced peak of
        ``check_contract`` alone at n = 1023 was 0.293 n^2 doubles at both
        alphas (the 512 x 512 even block, 0.251 n^2, and dsytrf's
        workspace); a dense T would be 1.07 n^2.  The bound is 0.35 n^2.
        """
        n = 1023
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, alpha)
        result = solve_spectrum(pencil, 5)
        assert result.solver["spectrum"]["route"] == "shift_invert"
        contract = []
        peak = _peak_doubles(lambda: contract.append(check_contract(result, pencil)))
        assert contract[0]["holds"] and peak < 0.35 * n * n, peak / n**2

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        mesh = build_mesh(0.0, 1.0, 4)
        with pytest.raises(ParameterError):
            assemble_pencil(mesh, 0.5, alpha)
        with pytest.raises(ParameterError):
            assemble_pencil(mesh, 0.5, 0.0).with_alpha(alpha)


    @pytest.mark.parametrize("alpha", [1e308, -1e308])
    def test_overflowing_alpha(self, alpha):
        mesh = build_mesh(0.0, 1.0, 5)
        with pytest.raises(ParameterError):
            assemble_pencil(mesh, 0.5, alpha)
        with pytest.raises(ParameterError):
            assemble_pencil(mesh, 0.5, 0.0).with_alpha(alpha)


class TestEmbeddingConstant:
    def test_rayleigh_tightness(self, base63):
        c_h = embedding_constant(base63)
        vals, vecs = scipy.linalg.eigh(base63.a_frac.data, base63.a_loc.data)
        u = vecs[:, -1]
        ratio = float(u @ base63.a_frac.data @ u) / float(u @ base63.a_loc.data @ u)
        assert ratio == pytest.approx(c_h, rel=1e-9)

    def test_dense_oracle_small(self):
        for n in (2, 4, 6):
            pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0)
            c_h = embedding_constant(pencil)
            oracle = np.max(
                np.linalg.eigvals(np.linalg.solve(pencil.a_loc.data, pencil.a_frac.data)).real
            )
            assert c_h == pytest.approx(oracle, rel=1e-10)

    def test_nested_refinement_monotone(self):
        values = []
        for n in (7, 15, 31, 63):
            pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0)
            values.append(embedding_constant(pencil))
        assert np.all(np.diff(values) >= -1e-12)


def _forbidden(*args, **kwargs):
    raise AssertionError("this route must not run")


class TestGammaShift:
    def test_zero_for_nonnegative_alpha(self, base63):
        for alpha in (0.0, 0.3, 1.0, 42.0):
            assert gamma_shift(base63.with_alpha(alpha)) == 0.0

    def test_routes_without_a_cholesky_attempt(self, base63, monkeypatch):
        # alpha >= 0 is a closed form, with no solve; alpha < 0 goes straight to
        # the eigensolve, also where gamma is 0 (-1/(2 C_h) < alpha < 0)
        monkeypatch.setattr(_toeplitz, "definite", _forbidden)
        for alpha, gamma_is_zero in ((-0.01, True), (-50.0, False)):
            gamma, route = gamma_shift(base63.with_alpha(alpha), with_route=True)
            assert (gamma == 0.0) == gamma_is_zero and route["route"] == "dense"
        monkeypatch.setattr(spectral, "_lowest", _forbidden)
        for alpha in (0.0, 1e-300, 5.0):
            assert gamma_shift(base63.with_alpha(alpha), with_route=True) == (
                0.0, {"route": "closed_form", "shift": None, "fallback": None})

    def test_psd_at_threshold(self, base63):
        c_h = embedding_constant(base63)
        pencil = base63.with_alpha(-1.0 / c_h)
        gamma = gamma_shift(pencil)
        shifted = pencil.a_alpha + gamma * base63.mass.data - 0.5 * base63.a_loc.data
        scale = np.max(np.abs(pencil.a_alpha))
        assert np.linalg.eigvalsh(shifted)[0] >= -1e-10 * scale

    def test_bisection_oracle_small(self):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 5), 0.5, -5.0)
        gamma = gamma_shift(pencil)
        mass = pencil.mass.data

        def is_psd(g):
            eigs = np.linalg.eigvalsh(pencil.a_alpha + g * mass - 0.5 * pencil.a_loc.data)
            return eigs[0] >= -1e-13 * np.max(np.abs(pencil.a_alpha))

        lo, hi = 0.0, 1.0
        while not is_psd(hi):
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if is_psd(mid):
                hi = mid
            else:
                lo = mid
        assert gamma == pytest.approx(hi, abs=1e-8 * max(1.0, gamma))


class TestSolveSpectrum:
    def test_single_node_pencil(self):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 1), 0.5, 0.0)
        res = solve_spectrum(pencil, 1)
        assert res.lambdas[0] == pytest.approx(12.0, rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    @pytest.mark.filterwarnings("error")
    def test_eigenvalues_out_of_range(self, alpha):
        # eigenvalues ~1e602 overflow, and so does l/m; refused without a warning
        pencil = assemble_pencil(build_mesh(0.0, 1e-300, 5), 0.5, alpha)
        with pytest.raises(AccuracyError):
            solve_spectrum(pencil, 3)

    def test_request_error(self):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 3), 0.5, 0.0)
        with pytest.raises(RequestError):
            solve_spectrum(pencil, 4)

    def test_rayleigh_lower_bound(self, base63):
        pencil = base63.with_alpha(-2.0)
        res = solve_spectrum(pencil, 1)
        rng = np.random.default_rng(0)
        z = rng.standard_normal((63, 10_000))
        num = np.einsum("ij,ij->j", z, pencil.a_alpha @ z)
        den = np.einsum("ij,ij->j", z, pencil.mass.data @ z)
        assert np.all(num / den >= res.lambdas[0] - 1e-9 * (1 + abs(res.lambdas[0])))

    def test_orthogonality_and_residuals(self, base63):
        pencil = base63.with_alpha(-3.0)
        res = solve_spectrum(pencil, 6)
        v = res.vectors
        np.testing.assert_allclose(v.T @ base63.mass.data @ v, np.eye(6), atol=1e-8)
        b_mat = v.T @ pencil.a_alpha @ v
        off = b_mat - np.diag(np.diag(b_mat))
        assert np.max(np.abs(off)) <= 1e-6 * np.max(np.abs(np.diag(b_mat)))
        assert np.all(res.residuals <= 1e-8 * (1 + np.abs(res.lambdas)))
        assert np.all(np.diff(res.lambdas) >= 0.0)
        assert res.lambdas[0] > -res.gamma

    def test_sign_convention(self, base63):
        res = solve_spectrum(base63, 4)
        for j in range(4):
            col = res.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_gamma_positive_for_strong_negative(self, base63):
        res = solve_spectrum(base63.with_alpha(-1000.0), 2)
        assert res.gamma > 0.0
        assert res.lambdas[0] < 0.0

    def test_clusters_simple_spectrum(self, base63):
        res = solve_spectrum(base63, 5)
        assert res.clusters == [[1], [2], [3], [4], [5]]


def _dst_matrix(n):
    """The orthonormal DST-I as a dense matrix: sqrt(2/(n+1)) sin(i j pi/(n+1))."""
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * math.pi / (n + 1))


class TestSineBasis:
    def test_reduction_against_dense_transform(self):
        n = 40
        pencil = assemble_pencil(build_mesh(0.0, 2.0, n), 0.3, 0.0)
        s_mat = _dst_matrix(n)
        basis = pencil.basis
        mass = np.diag(basis.scale**-2)
        np.testing.assert_allclose(s_mat @ mass @ s_mat, pencil.mass.data, atol=1e-15)
        local = s_mat @ (mass * basis.ratio) @ s_mat
        np.testing.assert_allclose(local, pencil.a_loc.data, atol=1e-12 * n)
        dense_b = basis.scale[:, None] * (s_mat @ pencil.a_frac.data @ s_mat) * basis.scale
        scale = np.max(np.abs(dense_b))
        # the split rests on this: B couples no even sine mode with an odd one
        np.testing.assert_allclose(dense_b[0::2, 1::2], 0.0, rtol=0, atol=1e-13 * scale)
        even, odd = basis.fractional
        np.testing.assert_allclose(even, dense_b[0::2, 0::2], rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(odd, dense_b[1::2, 1::2], rtol=0, atol=1e-13 * scale)

    def test_with_alpha_shares_b(self):
        base = assemble_pencil(build_mesh(0.0, 1.0, 31), 0.5, 0.0)
        coupled = base.with_alpha(-3.0)
        assert coupled.basis is base.basis
        # a coupling and its Cholesky step build nothing in the sine basis
        _toeplitz.definite(coupled.column)
        assert "fractional" not in base.basis.__dict__
        solve_spectrum(coupled, 2)
        blocks = base.basis.fractional
        assert coupled.basis.fractional is blocks
        assert base.with_alpha(7.0).basis.fractional is blocks
        # the even and the odd block, read-only; no full B is kept beside them
        assert [block.shape for block in blocks] == [(16, 16), (15, 15)]
        assert not any(block.flags.writeable for block in blocks)
        assert all(block.base is None for block in blocks)

    @pytest.mark.parametrize("n, k", [(63, 63), (511, 40)])
    def test_alpha_zero_closed_form(self, n, k):
        # E_0 = diag(l/m) exactly, so the P1 eigenvalues come out to rounding
        h = 1.0 / (n + 1)
        res = solve_spectrum(assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0), k)
        theta = np.arange(1, k + 1) * math.pi / (n + 1)
        exact = 12.0 * np.sin(0.5 * theta) ** 2 / (h**2 * (2.0 + np.cos(theta)))
        np.testing.assert_allclose(res.lambdas, exact, rtol=1e-14, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        s=st.floats(min_value=0.01, max_value=0.99),
        alpha=st.one_of(st.floats(min_value=1e-6, max_value=1e3),
                        st.floats(min_value=-1e3, max_value=-1e-6)),
        diagonal=st.sampled_from([1.0, 0.5]),
        data=st.data(),
    )
    @example(n=1, s=0.5, alpha=-3.0, diagonal=1.0, data=None)
    @example(n=160, s=0.87, alpha=-0.3, diagonal=0.5, data=None)
    def test_split_matches_full_dense_solve(self, n, s, alpha, diagonal, data):
        """The two parity blocks against one eigensolve of the full E.

        E = diagonal diag(l/m) + alpha B comes from the dense DST matrix, so
        it carries no parity split.  The values must agree within the
        certificate's margin of the same pencil (gamma's excess at diagonal
        0.5): over 1000 draws of n in 1..200, k in 1..n and |alpha| in
        [1e-6, 1e3] they differed by at most 0.51 margin, at k near n.  C_h
        and C_B must agree within 1e-12 relative: over 800 draws they
        differed by at most 2.6e-13, near s = 1, where the dense transform's
        rounding of B dominates.
        """
        k = n if data is None else data.draw(st.integers(min_value=1, max_value=n))
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), s, alpha)
        basis, s_mat = pencil.basis, _dst_matrix(n)
        dense_b = basis.scale[:, None] * (s_mat @ pencil.a_frac.data @ s_mat) * basis.scale
        full = scipy.linalg.eigh(np.diag(diagonal * basis.ratio) + alpha * dense_b,
                                 eigvals_only=True)[:k]
        column = diagonal * pencil.a_loc.column + alpha * pencil.a_frac.column
        lambdas, vectors, route = spectral._lowest(pencil, k, diagonal, column, vectors=True)
        assert route["route"] == "dense"
        margin = spectral._margin(dataclasses.replace(pencil, column=column), lambdas)
        assert np.all(np.abs(lambdas - full) <= margin)
        mass = pencil.mass.data
        assert np.max(np.abs(vectors.T @ mass @ vectors - np.eye(k))) <= 1e-10
        # the same request gives the same bits, tie order included
        again = spectral._lowest(pencil, k, diagonal, column, vectors=True)
        assert np.array_equal(again[0], lambdas) and np.array_equal(again[1], vectors)
        values = spectral._lowest(pencil, k, diagonal, column, vectors=False)[0]
        assert np.all(np.abs(values - full) <= margin)
        for weight in (basis.weight, (1.0 + basis.ratio) ** (-0.5 * s)):
            top = scipy.linalg.eigh(weight[:, None] * dense_b * weight, eigvals_only=True)[-1]
            assert basis.top(weight) == pytest.approx(top, rel=1e-12, abs=0.0)

    def test_exact_tie_takes_the_even_block_first(self, monkeypatch):
        # blocks with eigenvalue 1 in both: the merged order is even, odd, then 2
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 4), 0.5, -1.0)
        blocks = (np.diag([1.0, 3.0]), np.diag([1.0, 2.0]))
        monkeypatch.setattr(pencil.basis, "coupled",
                            lambda alpha, diagonal: (block.copy() for block in blocks))
        lambdas, vectors, _ = spectral._lowest(pencil, 3, 1.0, pencil.column, vectors=True)
        assert np.array_equal(lambdas, [1.0, 1.0, 2.0])
        # sine modes 1, 2 and 4: indices 0 (even), 1 and 3 (odd)
        expected = pencil.basis.vectors(np.eye(4)[:, [0, 1, 3]])
        assert np.allclose(np.abs(vectors), np.abs(expected), rtol=0, atol=1e-15)
        values = spectral._lowest(pencil, 3, 1.0, pencil.column, vectors=False)[0]
        assert np.array_equal(values, lambdas)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=96),
        s=st.floats(min_value=0.02, max_value=0.98),
        alpha=st.floats(min_value=-50.0, max_value=50.0),
        data=st.data(),
    )
    def test_matches_dense_generalized_solve(self, n, s, alpha, data):
        k = data.draw(st.integers(min_value=1, max_value=min(n, 6)))
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), s, alpha)
        mass = pencil.mass.data
        res = solve_spectrum(pencil, k)
        contract = check_contract(res, pencil)
        assert contract["holds"]
        dense = scipy.linalg.eigh(pencil.a_alpha, mass, eigvals_only=True)[:k]
        margin = contract["variational"]["margin"]
        tol = np.maximum(1e-10 * (1.0 + np.abs(dense)), margin)
        assert np.all(np.abs(res.lambdas - dense) <= tol)
        assert np.max(np.abs(res.vectors.T @ mass @ res.vectors - np.eye(k))) <= 1e-10
        # gamma against the top eigenvalue of the negated excess pencil; where
        # gamma leaves 0 the same rounding margin, for the excess, applies
        excess = pencil.a_alpha - 0.5 * pencil.a_loc.data
        top = scipy.linalg.eigh(-excess, mass, eigvals_only=True)[-1]
        mass_min = pencil.mesh.h * (2.0 + math.cos(n * math.pi / (n + 1))) / 3.0
        excess_margin = n * np.finfo(float).eps * np.linalg.norm(excess, 1) / mass_min
        assert res.gamma == pytest.approx(max(0.0, top), rel=1e-12, abs=excess_margin)


@pytest.fixture
def shift_invert_everywhere(monkeypatch):
    """The shift-invert route at every n and for every k up to n/2."""
    monkeypatch.setattr(spectral, "SHIFT_INVERT_MIN_N", 1)
    monkeypatch.setattr(spectral, "SHIFT_INVERT_K_RATIO", 2)


def _builds_no_b(pencil) -> bool:
    return "fractional" not in vars(pencil.basis)


class TestShiftInvert:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(min_value=8, max_value=300),
           s=st.floats(min_value=0.05, max_value=0.95),
           alpha=st.floats(min_value=-50.0, max_value=50.0).filter(lambda a: a != 0.0),
           data=st.data())
    @example(n=300, s=0.95, alpha=-50.0, data=None)
    def test_matches_dense_generalized_solve(self, shift_invert_everywhere, n, s, alpha, data):
        k = 4 if data is None else data.draw(st.integers(min_value=1, max_value=min(n // 2, 6)))
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), s, alpha)
        res = solve_spectrum(pencil, k)
        assert res.solver["spectrum"]["route"] == "shift_invert"
        assert res.solver["gamma"]["route"] == ("closed_form" if alpha > 0.0 else "shift_invert")
        assert _builds_no_b(pencil)
        contract = check_contract(res, pencil)
        assert contract["holds"]
        mass = pencil.mass.data
        dense = scipy.linalg.eigh(pencil.a_alpha, mass, eigvals_only=True)[:k]
        margin = contract["variational"]["margin"]
        tol = np.maximum(1e-10 * (1.0 + np.abs(dense)), margin)
        assert np.all(np.abs(res.lambdas - dense) <= tol)
        top = scipy.linalg.eigh(0.5 * pencil.a_loc.data - pencil.a_alpha, mass,
                                eigvals_only=True)[-1]
        assert abs(res.gamma - max(0.0, top)) <= max(1e-10 * (1.0 + abs(top)), margin)

    @pytest.mark.parametrize("n, alpha, gamma_route", [
        (spectral.SHIFT_INVERT_MIN_N, -3.0, "shift_invert"),
        (spectral.SHIFT_INVERT_MIN_N, 2.0, "closed_form"),
        (1, 0.0, "closed_form"), (63, 0.0, "closed_form")])
    def test_builds_no_b(self, n, alpha, gamma_route):
        # from the crossover n on, and at alpha = 0 at any n, no solve needs B
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, alpha)
        res = solve_spectrum(pencil, min(n, 5))
        check_contract(res, pencil)
        route = "closed_form" if alpha == 0.0 else "shift_invert"
        assert res.solver["spectrum"]["route"] == route
        assert res.solver["gamma"]["route"] == gamma_route
        assert all(found["fallback"] is None for found in res.solver.values())
        assert _builds_no_b(pencil)

    def test_traced_peak(self, monkeypatch):
        """The shift-invert route peaks at one transient n x n array.

        Measured 1.28 n^2 doubles at n = 255 (alpha = -3 and 2), against
        2.01 n^2 on the dense route: the certificate's shifted matrices are
        built one at a time and dropped, the solve builds none (see
        ``test_solve_holds_no_n_by_n_array``) and no B is built, which would
        add a whole n^2.  The bound is 1.5 n^2, within the dense route's
        2.5 n^2.
        """
        n = 255
        monkeypatch.setattr(spectral, "SHIFT_INVERT_MIN_N", n)
        # the first solve imports scipy.sparse.linalg, whose modules would count
        solve_spectrum(assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, -3.0), 1)
        for alpha in (-3.0, 2.0):
            pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, alpha)
            result = []
            peak = _peak_doubles(lambda: result.append(
                check_contract(solve_spectrum(pencil, 5), pencil)))
            assert result[0]["holds"] and peak < 1.5 * n * n, (alpha, peak / n**2)

    def test_solve_holds_no_n_by_n_array(self):
        """On the shift-invert route the solve alone stays O(n) in memory.

        Durbin's pivots and predictor, the FFT spectra of the
        Gohberg-Semencul operator and ARPACK's Lanczos basis are vectors.
        Measured 58.4 n doubles at n = 1023, for alpha = -3 (gamma on the
        same route) and 2; one n x n array would be 1023 n.  The bound is
        100 n.
        """
        n = 1023
        solve_spectrum(assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, -3.0), 1)  # imports
        for alpha in (-3.0, 2.0):
            pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, alpha)
            result = []
            peak = _peak_doubles(lambda: result.append(solve_spectrum(pencil, 5)))
            assert result[0].solver["spectrum"]["route"] == "shift_invert"
            assert peak < 100 * n, (alpha, peak / n)

    def test_refused_pivot_falls_back(self, shift_invert_everywhere, monkeypatch):
        # no pivot of an n >= 2 matrix with a nonzero off-diagonal reaches its
        # 1-norm, so at PIVOT_RTOL = 1 every positive pivot is refused
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 63), 0.4, -3.0)
        monkeypatch.setattr(spectral, "PIVOT_RTOL", 1.0)
        res = solve_spectrum(pencil, 3)
        for route in res.solver.values():
            assert route["route"] == "dense" and math.isfinite(route["shift"])
            assert route["fallback"].startswith("a Durbin pivot at the shift is below 1 ")
        monkeypatch.setattr(spectral, "SHIFT_INVERT_MIN_N", 10**9)
        assert np.array_equal(res.lambdas, solve_spectrum(pencil, 3).lambdas)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", [[1.0, 1.0, 0.25, 0.0], [0.0, 1.0], [-2.0, 0.5, 0.1]])
    def test_zero_or_negative_pivot_is_refused(self, monkeypatch, column):
        # a zero leading pivot or minor gives NaN pivots, not an exception
        monkeypatch.setattr(_toeplitz, "symbol_floor", lambda column, mass_column: 0.0)
        found, shift, reason = spectral._shift_invert(np.array(column), np.ones(len(column)), 1)
        assert found is None and shift == 0.0
        assert reason.startswith("a Durbin pivot at the shift is below")

    def test_shift_above_lambda_1_falls_back(self, shift_invert_everywhere, monkeypatch):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 63), 0.4, -3.0)
        dense = solve_spectrum(pencil, 3)
        shift = float(dense.lambdas[0]) + 1.0
        monkeypatch.setattr(_toeplitz, "symbol_floor", lambda column, mass_column: shift)
        res = solve_spectrum(pencil, 3)
        for route in res.solver.values():
            assert route["route"] == "dense" and route["shift"] == shift
            assert route["fallback"].startswith("a Durbin pivot at the shift is below")
        monkeypatch.setattr(spectral, "SHIFT_INVERT_MIN_N", 10**9)
        assert np.array_equal(res.lambdas, solve_spectrum(pencil, 3).lambdas)
        assert check_contract(res, pencil)["holds"]

    def test_arpack_no_convergence_falls_back(self, shift_invert_everywhere, monkeypatch):
        import scipy.sparse.linalg

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                          np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 63), 0.4, -3.0)
        res = solve_spectrum(pencil, 3)
        for route in res.solver.values():
            assert route["route"] == "dense" and route["fallback"].startswith("ARPACK: ")
            assert math.isfinite(route["shift"])
        assert check_contract(res, pencil)["holds"]

    def test_rounding_noise_is_not_accepted(self):
        # on (0, 1e200) the eigenvalues are near 1e-199 and the mass entries
        # near 1e197; Lanczos converges on its shifted operator to pairs whose
        # backward error is about 0.3, and the dense route answers instead
        pencil = assemble_pencil(build_mesh(0.0, 1e200, spectral.SHIFT_INVERT_MIN_N), 0.5, 1.0)
        res = solve_spectrum(pencil, 2)
        route = res.solver["spectrum"]
        assert route["route"] == "dense" and route["fallback"].startswith("backward error")
        assert check_contract(res, pencil)["holds"]

    @pytest.mark.parametrize("dropped", range(5))
    def test_missed_copy_of_a_near_double_fails(self, shift_invert_everywhere, dropped):
        # here the lowest eigenvalues come in pairs 1e-8 to 1e-5 apart
        # (relative); Lanczos finds both copies, and a result that missed
        # one copy, as Lanczos can, fails the certificate's inertia count
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 63), 0.3, -305.0)
        res = solve_spectrum(pencil, 6)
        dense = scipy.linalg.eigh(pencil.a_alpha, pencil.mass.data, eigvals_only=True)[:6]
        assert res.solver["spectrum"]["route"] == "shift_invert"
        assert np.min(np.diff(dense) / (1.0 + np.abs(dense[1:]))) < 2e-8
        assert check_contract(res, pencil)["holds"]
        kept = [j for j in range(6) if j != dropped]
        missed = dataclasses.replace(res, lambdas=res.lambdas[kept], vectors=res.vectors[:, kept],
                                     residuals=res.residuals[kept])
        rep = check_contract(missed, pencil)["variational"]
        assert all(row["holds"] for row in rep["per_k"])
        assert rep["below_upper"] == 6 and not rep["holds"]


class TestContinuumBaseline:
    def test_dirichlet_eigenvalues(self):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 255), 0.5, 0.0)
        res = solve_spectrum(pencil, 3)
        for k, tol in ((1, 1e-3), (2, 5e-3), (3, 1e-2)):
            exact = (k * math.pi) ** 2
            assert abs(res.lambdas[k - 1] - exact) <= tol * exact

    def test_discrete_p1_eigenvalues(self):
        n = 255
        h = 1.0 / (n + 1)
        res = solve_spectrum(assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0), 5)
        c = np.cos(np.arange(1, 6) * math.pi * h)
        exact = 6.0 * (1.0 - c) / (h**2 * (2.0 + c))
        np.testing.assert_allclose(res.lambdas, exact, rtol=1e-10)

    def test_resolvent_consistency(self):
        mesh = build_mesh(0.0, 1.0, 32)
        base = assemble_pencil(mesh, 0.5, 0.0)
        c_h = embedding_constant(base)
        for alpha in (-20.0, -1.1 / c_h, 0.0, 5.0):
            pencil = base.with_alpha(alpha)
            res = solve_spectrum(pencil, 5)
            resolvent = np.linalg.solve(
                pencil.a_alpha + res.gamma * base.mass.data, base.mass.data
            )
            mu = np.sort(np.linalg.eigvals(resolvent).real)[::-1][:5]
            np.testing.assert_allclose(
                1.0 / mu - res.gamma, res.lambdas,
                atol=1e-9 * (1 + np.max(np.abs(res.lambdas))),
            )


class TestVariationalCharacterization:
    def test_k1_global_minimum(self, base63):
        pencil = base63.with_alpha(-1.0)
        res = solve_spectrum(pencil, 1)
        rep = verify_variational_characterization(res, pencil)
        row = rep["per_k"][0]
        assert rep["holds"]
        assert abs(row["dense"] - res.lambdas[0]) <= row["delta"]
        assert row["delta"] == pytest.approx(1e-8 * (1 + abs(res.lambdas[0])))

    def test_second_eigenvalue_near_continuum(self):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 511), 0.5, 0.0)
        res = solve_spectrum(pencil, 2)
        rep = verify_variational_characterization(res, pencil)
        assert rep["holds"]
        dense = rep["per_k"][1]["dense"]
        assert abs(dense - 4 * math.pi**2) <= 0.01 * 4 * math.pi**2

    def test_deflation_consistency(self, base63):
        pencil = base63.with_alpha(-2.5)
        res = solve_spectrum(pencil, 4)
        mass = base63.mass.data
        # deflate the first three eigenvectors explicitly and re-solve
        u_prev = res.vectors[:, :3]
        proj = np.eye(63) - u_prev @ (u_prev.T @ mass)
        q, _ = np.linalg.qr(proj @ np.random.default_rng(3).standard_normal((63, 60)))
        a_red = q.T @ pencil.a_alpha @ q
        m_red = q.T @ mass @ q
        lam4 = scipy.linalg.eigh(a_red, m_red, subset_by_index=[0, 0])[0][0]
        assert lam4 == pytest.approx(res.lambdas[3], abs=1e-8 * (1 + abs(res.lambdas[3])))


    def test_raised_eigenvalue_fails(self, base63):
        res = solve_spectrum(base63, 3)
        lambdas = res.lambdas.copy()
        lambdas[1] *= 1.0 + 1e-6
        rep = verify_variational_characterization(dataclasses.replace(res, lambdas=lambdas), base63)
        assert not rep["holds"]
        assert [row["holds"] for row in rep["per_k"]] == [True, False, True]

    def test_top_eigenpair_as_first_fails(self, base63):
        # u_n attains lambda_n, but the dense lowest eigenvalue is lambda_1
        lambdas, vectors = scipy.linalg.eigh(base63.a_alpha, base63.mass.data)
        res = solve_spectrum(base63, 1)
        fake = dataclasses.replace(res, lambdas=lambdas[-1:], vectors=vectors[:, -1:])
        rep = verify_variational_characterization(fake, base63)
        assert not rep["holds"]
        assert rep["per_k"][0]["dense"] == pytest.approx(lambdas[0], rel=1e-10)


class TestSpectrumCertificate:
    def test_raised_eigenvalue_fails(self, base63):
        res = solve_spectrum(base63, 3)
        lambdas = res.lambdas.copy()
        lambdas[1] *= 1.0 + 1e-6
        rep = check_contract(dataclasses.replace(res, lambdas=lambdas), base63)["variational"]
        assert not rep["holds"]
        assert [row["holds"] for row in rep["per_k"]] == [True, False, True]

    def test_top_eigenpair_as_first_fails(self, base63):
        # u_n attains lambda_n, but all n eigenvalues lie below lambda_n + delta
        lambdas, vectors = scipy.linalg.eigh(base63.a_alpha, base63.mass.data)
        res = solve_spectrum(base63, 1)
        fake = dataclasses.replace(res, lambdas=lambdas[-1:], vectors=vectors[:, -1:])
        rep = check_contract(fake, base63)["variational"]
        assert not rep["holds"]
        assert rep["per_k"][0]["holds"]
        assert rep["below_lower"] == 62 and rep["below_upper"] == 63

    @pytest.mark.parametrize("j, counts", [(0, (0, 1)), (1, (1, 2))])
    def test_repeated_eigenpair_fails(self, base63, j, counts):
        # (lambda_j, u_j) twice is attained: with j = 0 only one eigenvalue lies
        # below the upper shift, with j = 1 the count is right but lambda_1 lies below
        res = solve_spectrum(base63, 2)
        fake = dataclasses.replace(res, lambdas=res.lambdas[[j, j]], vectors=res.vectors[:, [j, j]])
        rep = check_contract(fake, base63)["variational"]
        assert not rep["holds"]
        assert (rep["below_lower"], rep["below_upper"]) == counts
        assert all(row["holds"] for row in rep["per_k"])

    @pytest.mark.parametrize("skipped", [0, 1])
    def test_skipped_eigenvalue_fails(self, base63, skipped):
        # three of the first four eigenpairs: every quotient is attained, but an
        # uncomputed eigenvalue lies among them
        pencil = base63.with_alpha(-1.0)
        res = solve_spectrum(pencil, 4)
        kept = [j for j in range(4) if j != skipped]
        fake = dataclasses.replace(res, lambdas=res.lambdas[kept], vectors=res.vectors[:, kept],
                                   residuals=res.residuals[kept])
        dense = verify_variational_characterization(fake, pencil)
        assert not dense["holds"]
        assert [row["holds"] for row in dense["per_k"]] == [skipped == 1, False, False]
        rep = check_contract(fake, pencil)["variational"]
        assert not rep["holds"]
        assert rep["below_lower"] == (1 if skipped == 0 else 0) and rep["below_upper"] == 4
        assert rep["below_tie"] == 3 and rep["computed_below_tie"] == 2

    def test_cluster_straddling_lambda_k(self):
        # at this size the lowest eigenvalues come in pairs; lambda_6 - lambda_5
        # is below the tolerance 1e-8 (1 + |lambda_5|), so 6 lie below the upper
        # shift, and the tie count at lambda_5 - delta_5 finds only lambda_1..lambda_4
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 1023), 0.7, -30.0)
        res = solve_spectrum(pencil, 5)
        rep = check_contract(res, pencil)["variational"]
        assert rep["below_upper"] == 6
        assert rep["below_tie"] == rep["computed_below_tie"] == 4
        assert rep["holds"]

    @pytest.mark.parametrize("n, b, s, alpha, k", [
        (1, 1e100, 0.5, 1e300, 1), (1, 1.0, 0.7, 5.0, 1), (1, 1.0, 0.7, -40.0, 1),
        (2, 1.0, 0.3, -3.0, 2), (63, 1.0, 0.3, -3.0, 5), (511, 1e-10, 0.5, 1.0, 5)])
    def test_margin_cannot_vanish(self, n, b, s, alpha, k):
        # at n = 1 the shifted form A_alpha - lambda_1 M cancels to rounding or
        # to 0, so a margin from its own 1-norm vanishes; the margin from the
        # unshifted forms is positive and, by the triangle inequality, never
        # below n eps ||A_alpha - lambda M||_1 / lambda_min(M)
        pencil = assemble_pencil(build_mesh(0.0, b, n), s, alpha)
        res = solve_spectrum(pencil, k)
        rep = check_contract(res, pencil)["variational"]
        assert rep["holds"] and rep["margin"] > 0.0
        mass_min = pencil.mesh.h * (2.0 + math.cos(n * math.pi / (n + 1))) / 3.0
        for lam in (res.lambdas[0], res.lambdas[-1]):
            shifted = _toeplitz.norm_1(pencil.mass.column * -lam + pencil.column)
            assert rep["margin"] >= n * np.finfo(float).eps * shifted / mass_min

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([31, 63]),
        s=st.floats(min_value=0.05, max_value=0.95),
        alpha=st.floats(min_value=-50.0, max_value=50.0),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_counts_match_eigensolve(self, n, s, alpha, k):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), s, alpha)
        res = solve_spectrum(pencil, k)
        rep = check_contract(res, pencil)["variational"]
        assert rep["holds"]
        every = scipy.linalg.eigh(pencil.a_alpha, pencil.mass.data, eigvals_only=True)
        assert rep["below_upper"] == np.count_nonzero(every < rep["upper_shift"])
        assert rep["below_lower"] == np.count_nonzero(every < rep["lower_shift"]) == 0


class TestTridiagonalCertificate:
    @pytest.mark.parametrize("column, below", [
        ([0.0], 0), ([-0.0], 0), ([1.0, 1.0], 0), ([1.0, -1.0], 0), ([2.0, 1.0], 0),
        ([0.0, 1.0], 1), ([1.0, 1.0, 0.0], 1), ([0.0, 1.0, 0.0, 0.0], 2),
        ([0.0, 1.0, 0.0], 1), ([0.0, 1.0, 0.0, 0.0, 0.0], 2), ([-2.0, 1.0, 0.0], 3),
        ([1e-300, 1e300, 0.0], 1), ([1.5e308, -1e308, 0.0], 0)])
    def test_exact_zero_eigenvalue_is_not_counted(self, column, below):
        # eigenvalues exactly at the shift: a zero pivot, last or interior, and
        # entries near both ends of the float range.  Both routes count the
        # eigenvalues strictly below the shift, and neither is definite
        # unless every eigenvalue is positive
        column = np.array(column)
        definite = bool(np.all(np.linalg.eigvalsh(scipy.linalg.toeplitz(column)) > 0.0))
        assert _toeplitz.banded(column)
        assert _toeplitz.count_below(column) == below
        assert _toeplitz.definite(column) == definite
        with mock.patch.object(_toeplitz, "banded", return_value=False):  # the LAPACK route
            assert _toeplitz.count_below(column) == below
            assert _toeplitz.definite(column) == definite

    @pytest.mark.parametrize("n, alpha", [(1, -7.0), (2, 3.0), (2, -40.0), (63, 0.0), (2047, 0.0)])
    def test_contract_without_dense_factorization(self, n, alpha, monkeypatch):
        # alpha = 0, or n <= 2 at any alpha: every shifted column is zero past
        # index 1, and the certificate counts on its two entries.  The dense
        # route builds its blocks in _half and factors them by LAPACK
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.4, alpha)
        result = solve_spectrum(pencil, min(n, 5))
        monkeypatch.setattr(_toeplitz, "_half", _forbidden)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", _forbidden)
        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", _forbidden)
        assert check_contract(result, pencil)["holds"]


def _rotate_first_two(res):
    # M-orthonormal still, each vector attains its value to 1e-8, but u_1^T A u_2 != 0
    t = 1e-5
    v = res.vectors.copy()
    v[:, :2] = res.vectors[:, :2] @ np.array([[math.cos(t), -math.sin(t)],
                                              [math.sin(t), math.cos(t)]])
    return dataclasses.replace(res, vectors=v)


def _raise_last(res):
    lambdas = res.lambdas.copy()
    lambdas[-1] *= 1.0 + 1e-6
    return dataclasses.replace(res, lambdas=lambdas)


# one mutation of a solve per contract flag, each making that flag alone false
CONTRACT_MUTATIONS = {
    "m_orthonormality_holds": lambda res: dataclasses.replace(
        res, vectors=res.vectors * np.r_[1.0 + 1e-6, np.ones(res.lambdas.size - 1)]),
    "b_orthogonality_holds": _rotate_first_two,
    "residuals_hold": lambda res: dataclasses.replace(res, residuals=np.ones(res.lambdas.size)),
    "lower_bound_holds": lambda res: dataclasses.replace(res, gamma=-float(res.lambdas[0])),
    "variational.holds": _raise_last,
}


def _contract_flags(contract):
    return {**{key: contract[key] for key in spectral.CONTRACT_FLAGS},
            "variational.holds": contract["variational"]["holds"]}


class TestSpectrumContract:
    def test_solve_holds(self, base63):
        contract = check_contract(solve_spectrum(base63, 3), base63)
        assert contract["holds"] is True
        assert all(value is True for value in _contract_flags(contract).values())

    @pytest.mark.parametrize("alpha", [-3.0, 0.0])
    def test_one_product_per_form(self, base63, alpha, monkeypatch):
        # the contract multiplies the eigenvectors by A_alpha and by M once;
        # V^T A V, V^T M V and the certificate's attained quotients share them
        pencil = base63.with_alpha(alpha)
        res = solve_spectrum(pencil, 4)
        calls = {"a_alpha": 0, "mass": 0}
        pencil_times, times = spectral._pencil_times, _toeplitz.times

        def counted_pencil_times(p, z):
            calls["a_alpha"] += 1
            return pencil_times(p, z)

        def counted_times(column, z):
            calls["mass"] += column is pencil.mass.column
            return times(column, z)

        monkeypatch.setattr(spectral, "_pencil_times", counted_pencil_times)
        monkeypatch.setattr(_toeplitz, "times", counted_times)
        assert check_contract(res, pencil)["holds"]
        assert calls == {"a_alpha": 1, "mass": 1}

    def test_lower_bound_is_the_concavity_bound(self, base63):
        # lambda_1 + gamma >= lambda_1^loc / 2 exactly; a gamma that leaves
        # lambda_1 + gamma positive but below that bound fails the flag
        res = solve_spectrum(base63.with_alpha(-20.0), 1)
        assert check_contract(res, base63.with_alpha(-20.0))["lower_bound_holds"]
        t = math.pi / 64
        half_local = 3.0 * (1.0 - math.cos(t)) / (base63.mesh.h**2 * (2.0 + math.cos(t)))
        short = dataclasses.replace(res, gamma=-float(res.lambdas[0]) + 0.5 * half_local)
        contract = check_contract(short, base63.with_alpha(-20.0))
        assert short.lambdas[0] > -short.gamma
        assert contract["lower_bound_holds"] is False

    @pytest.mark.parametrize("flag", sorted(CONTRACT_MUTATIONS))
    def test_mutation_fails_one_flag(self, base63, flag):
        contract = check_contract(CONTRACT_MUTATIONS[flag](solve_spectrum(base63, 3)), base63)
        assert contract["holds"] is False
        flags = _contract_flags(contract)
        assert [key for key, value in flags.items() if value is not True] == [flag]

    @pytest.mark.parametrize("flag", sorted(CONTRACT_MUTATIONS))
    def test_cli_exits_1(self, tmp_path, monkeypatch, flag):
        solve = spectral.solve_spectrum
        monkeypatch.setattr(spectral, "solve_spectrum",
                            lambda pencil, k: CONTRACT_MUTATIONS[flag](solve(pencil, k)))
        assert main(["spectrum", "--n", "63", "--s", "0.5", "--alpha", "0", "--k", "3",
                     "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "spectrum_report.json").read_text())
        assert "holds" not in report
        assert [key for key, value in _contract_flags(report).items() if value is not True] == [flag]


class TestSweepAndThreshold:
    def test_alpha_zero_column(self, base63):
        table = sweep_alpha(base63, [0.0], 3)
        res = solve_spectrum(base63, 3)
        np.testing.assert_allclose(table.lambdas[0], res.lambdas, rtol=1e-12)

    def test_monotone_columns(self, base63):
        alphas = np.linspace(-4.0, 4.0, 9)
        table = sweep_alpha(base63, alphas, 3)
        diffs = np.diff(table.lambdas, axis=0)
        assert np.all(diffs >= -1e-9 * (1 + np.abs(table.lambdas[1:])))

    def test_monotone_helper(self, base63):
        table = sweep_alpha(base63, [3.0, -1.0, 0.0], 2)
        assert monotone_in_alpha(table)
        # the same rows paired with reversed couplings decrease in alpha
        flipped = SweepTable(alphas=-table.alphas, gammas=table.gammas,
                             lambdas=table.lambdas.copy(), signs=table.signs.copy())
        assert not monotone_in_alpha(flipped)

    def test_sign_change_location(self, base63):
        c_h = embedding_constant(base63)
        table = sweep_alpha(base63, [-2.0 / c_h, -0.5 / c_h], 1)
        assert table.signs[0] == -1 and table.signs[1] == 1

    def test_empty_grid(self, base63):
        with pytest.raises(RequestError):
            sweep_alpha(base63, [], 1)

    def test_sweep_keeps_values_only(self):
        """100 solves of all 63 pairs: the sweep keeps no result's vectors.

        Kept results would hold 100 n k doubles of vectors alone.
        """
        n = k = 63
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0)
        alphas = np.linspace(-30.0, 10.0, 100)
        assert _peak_doubles(lambda: sweep_alpha(pencil, alphas, k)) < 20 * n * k

    def test_threshold_identity(self, base63):
        th = locate_threshold(base63)
        assert th["embedding_constant"] == embedding_constant(base63)
        assert th["minus_inv_c"] == -1.0 / th["embedding_constant"]
        # only the coupling of the pencil is replaced
        assert locate_threshold(base63.with_alpha(-7.0)) == th

    def test_threshold_flag(self, base63):
        th = locate_threshold(base63)
        assert th["indefinite_below"] is True and th["definite_above"] is True
        assert th["holds"] is True

    def test_threshold_certified_bracket(self, base63, monkeypatch):
        # exactly two definiteness tests, of A_alpha's column at the two shifts,
        # each a dense Cholesky attempt at n = 63
        tested = []
        definite = _toeplitz.definite

        def recording(column):
            tested.append(np.array(column))
            return definite(column)

        monkeypatch.setattr(_toeplitz, "definite", recording)
        th = locate_threshold(base63)
        c_h = th["embedding_constant"]
        shifts = [(-1.0 - THRESHOLD_RTOL) / c_h, (-1.0 + THRESHOLD_RTOL) / c_h]
        assert len(tested) == 2
        for column, alpha in zip(tested, shifts):
            np.testing.assert_array_equal(column, base63.with_alpha(alpha).column)
            assert not _toeplitz.banded(column)
        assert th["holds"] is True

    def test_threshold_no_bracket(self, base63, monkeypatch):
        # C_h off by 1e-6: A_alpha is already positive definite at the lower
        # shift, so the certified bracket misses the sign change and the flag
        # comes out false, with nothing raised
        c_h = embedding_constant(base63) * (1.0 + 1e-6)
        monkeypatch.setattr(spectral, "embedding_constant", lambda pencil: c_h)
        th = locate_threshold(base63)
        assert th["indefinite_below"] is False and th["definite_above"] is True
        assert th["holds"] is False
        assert th["minus_inv_c"] == -1.0 / c_h

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=127),
        s=st.floats(min_value=0.05, max_value=0.95),
        a=st.floats(min_value=-10.0, max_value=10.0),
        length=st.floats(min_value=1e-2, max_value=1e2),
    )
    def test_threshold_holds_property(self, n, s, a, length):
        th = locate_threshold(assemble_pencil(build_mesh(a, a + length, n), s, 0.0))
        assert th["indefinite_below"] is True and th["definite_above"] is True


@pytest.fixture(scope="module")
def inertia_bases():
    bases = {}
    for n in (31, 63):
        base = assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0)
        bases[n] = (base, embedding_constant(base))
    return bases


class TestCholeskyInertia:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([31, 63]),
        ratio=st.floats(min_value=-50.0, max_value=50.0).filter(lambda r: abs(r - 1.0) >= 1e-6),
    )
    def test_predicate_matches_lambda_1_sign(self, inertia_bases, n, ratio):
        # alpha = -ratio / C_h stays at least 1e-6 relative away from -1/C_h
        base, c_h = inertia_bases[n]
        pencil = base.with_alpha(-ratio / c_h)
        lam1 = solve_spectrum(pencil, 1).lambdas[0]
        assert _toeplitz.definite(pencil.column) == (lam1 > 0.0)


class TestGammaCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([31, 63]),
        draw=st.one_of(
            st.tuples(st.just("wide"), st.floats(min_value=-50.0, max_value=50.0)),
            st.tuples(st.just("edge"), st.floats(min_value=-1e-3, max_value=1e-3)),
        ),
    )
    def test_matches_eigensolve(self, inertia_bases, n, draw):
        # "edge" draws alpha within 1e-3 relative of -1/(2 C_h), where gamma leaves 0
        base, c_h = inertia_bases[n]
        kind, x = draw
        alpha = x if kind == "wide" else -(1.0 + x) / (2.0 * c_h)
        pencil = base.with_alpha(alpha)
        deficit = 0.5 * base.a_loc.data - pencil.a_alpha
        mass = base.mass.data
        top = scipy.linalg.eigh(deficit, mass, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
        scale = float(np.max(np.abs(deficit))) / float(np.max(np.abs(mass)))
        gamma = gamma_shift(pencil)
        if top < -1e-9 * scale:
            assert gamma == 0.0
        else:
            assert gamma == pytest.approx(max(0.0, top), rel=1e-10, abs=1e-10 * scale)


def _brezis_ratios(pencil, u):
    """u^T A_frac u / ((u^T M u)^(1-s) (u^T (M+A_loc) u)^s), one per column of u."""
    def quad(matrix):
        return np.einsum("ij,ij->j", u, matrix @ u)

    mass, s = pencil.mass.data, pencil.s
    return quad(pencil.a_frac.data) / (quad(mass) ** (1 - s) * quad(mass + pencil.a_loc.data) ** s)


def _brezis_bound(s):
    return 2.0 * math.pi / (math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s))


class TestBrezisInequality:
    def test_first_eigenvector_membership(self, base63):
        u = solve_spectrum(base63, 1).vectors
        rep = verify_brezis_inequality(base63)
        assert _brezis_ratios(base63, u)[0] <= rep.lhs * (1 + 1e-12)

    def test_single_mode_hoelder_consistency(self):
        mesh = build_mesh(0.0, 1.0, 31)
        s = 0.5
        mass = assemble_mass(mesh).data
        w12 = mass + assemble_local_stiffness(mesh).data
        a_frac = assemble_fractional_stiffness(mesh, s).data
        couple = couple_from_grams(mass, w12)
        kappa = math.pi / (2 * math.sin(math.pi * s))
        for i in (0, 10, 30):
            v = couple.basis[:, i]
            direct = float(v @ a_frac @ v) / (
                float(v @ mass @ v) ** (1 - s) * float(v @ w12 @ v) ** s
            )
            via_machinery = float(v @ a_frac @ v) / (spectral_s_norm(couple, v, s) ** 2 / kappa)
            assert direct == pytest.approx(via_machinery, rel=1e-10)

    def test_refinement_stability(self):
        constants = []
        for n in (15, 31, 63):
            rep = verify_brezis_inequality(assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0))
            assert rep.holds
            constants.append(rep.lhs)
        assert constants == sorted(constants)
        assert (max(constants) - min(constants)) / min(constants) < 0.2

    def test_report(self):
        pencil = assemble_pencil(build_mesh(-1.0, 2.0, 9), 0.3, -7.0)
        rep = verify_brezis_inequality(pencil)
        assert rep.op == "brezis_constant" and rep.inputs == {"s": 0.3, "n": 9}
        assert rep.rhs == pytest.approx(_brezis_bound(0.3), rel=1e-15)
        assert rep.ratio == rep.lhs / rep.rhs and rep.holds
        assert rep.tolerance == 9 * np.finfo(float).eps
        # only the mesh and s are read, not the coupling
        assert verify_brezis_inequality(pencil.with_alpha(5.0)).lhs == rep.lhs

    @pytest.mark.parametrize("n", [1, 2, 15, 31, 63])
    @pytest.mark.parametrize("s", [0.01, 0.5, 0.99])
    def test_interpolation_gram_identity(self, n, s):
        # the independent route: the interpolation layer's (s, 2) Gram of the
        # couple (M, M + A_loc), over kappa, against the Gagliardo form
        pencil = assemble_pencil(build_mesh(0.0, 1.0, n), s, 0.0)
        mass = pencil.mass.data
        couple = couple_from_grams(mass, mass + pencil.a_loc.data)
        kappa = math.pi / (2.0 * math.sin(math.pi * s))
        gram = interpolation_gram(couple, s) / kappa
        top = scipy.linalg.eigh(pencil.a_frac.data, gram, eigvals_only=True)[-1]
        assert verify_brezis_inequality(pencil).lhs == pytest.approx(top, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.02, 0.98), n=st.integers(1, 15),
           domain=st.sampled_from([(0.0, 1.0), (-1.0, 2.5), (3.0, 3.1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_nested_meshes_and_samples(self, s, n, domain, seed):
        # C_B <= C(s), never falls from n to 2n + 1, and bounds the Brezis ratio
        # of random vectors and of the first eigenvector
        previous = 0.0
        for _ in range(3):
            pencil = assemble_pencil(build_mesh(*domain, n), s, 0.0)
            rep = verify_brezis_inequality(pencil)
            assert rep.holds and rep.lhs <= _brezis_bound(s) * (1 + rep.tolerance)
            assert rep.lhs >= previous * (1 - rep.tolerance)
            u = np.random.default_rng(seed).standard_normal((n, 200))
            u = np.hstack([u, solve_spectrum(pencil, 1).vectors])
            assert np.all(_brezis_ratios(pencil, u) <= rep.lhs * (1 + 1e-12))
            previous, n = rep.lhs, 2 * n + 1
