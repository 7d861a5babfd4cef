import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
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
    certify_spectrum,
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
from mixspec import spectral
from mixspec.cli import main
from mixspec.spectral import THRESHOLD_RTOL, _count_below, _lambda_1_positive


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

    def test_reassembly_consistency(self):
        mesh = build_mesh(0.0, 1.0, 4)
        pencil = assemble_pencil(mesh, 0.5, 2.0)
        again = assemble_local_stiffness(mesh).data + 2.0 * assemble_fractional_stiffness(mesh, 0.5).data
        np.testing.assert_array_equal(pencil.a_alpha, again)


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


class TestGammaShift:
    def test_zero_for_nonnegative_alpha(self, base63):
        for alpha in (0.0, 0.3, 1.0, 42.0):
            assert gamma_shift(base63.with_alpha(alpha)) == 0.0

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
        np.testing.assert_allclose(basis.fractional, dense_b, rtol=0, atol=1e-13 * scale)

    def test_with_alpha_shares_b(self):
        base = assemble_pencil(build_mesh(0.0, 1.0, 31), 0.5, 0.0)
        coupled = base.with_alpha(-3.0)
        assert coupled.basis is base.basis
        # a coupling and its Cholesky step build nothing in the sine basis
        _lambda_1_positive(coupled)
        assert "fractional" not in base.basis.__dict__
        solve_spectrum(coupled, 2)
        b_mat = base.basis.fractional
        assert coupled.basis.fractional is b_mat
        assert base.with_alpha(7.0).basis.fractional is b_mat
        assert not b_mat.flags.writeable

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
        rep = verify_variational_characterization(res, pencil, rng=np.random.default_rng(1))
        assert rep["holds"]
        assert rep["per_k"][0]["sampled_min"] >= res.lambdas[0] - 1e-8 * (1 + abs(res.lambdas[0]))

    def test_second_complement_sampled_minimum(self):
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 511), 0.5, 0.0)
        res = solve_spectrum(pencil, 2)
        rep = verify_variational_characterization(res, pencil, rng=np.random.default_rng(2))
        assert rep["holds"]
        sampled = rep["per_k"][1]["sampled_min"]
        assert abs(sampled - 4 * math.pi**2) <= 0.01 * 4 * math.pi**2

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
        rep = verify_variational_characterization(
            dataclasses.replace(res, lambdas=lambdas), base63, rng=np.random.default_rng(4)
        )
        assert not rep["holds"]
        assert [row["holds"] for row in rep["per_k"]] == [True, False, True]

    def test_top_eigenpair_as_first_fails(self, base63):
        # u_n attains lambda_n, but the sampled quotients fall far below it
        lambdas, vectors = scipy.linalg.eigh(base63.a_alpha, base63.mass.data)
        res = solve_spectrum(base63, 1)
        fake = dataclasses.replace(res, lambdas=lambdas[-1:], vectors=vectors[:, -1:])
        rep = verify_variational_characterization(fake, base63, rng=np.random.default_rng(5))
        row = rep["per_k"][0]
        assert not rep["holds"]
        assert row["attained"] == pytest.approx(lambdas[-1], rel=1e-10)
        assert row["sampled_min"] < lambdas[-1]


class TestSpectrumCertificate:
    def test_raised_eigenvalue_fails(self, base63):
        res = solve_spectrum(base63, 3)
        lambdas = res.lambdas.copy()
        lambdas[1] *= 1.0 + 1e-6
        rep = certify_spectrum(dataclasses.replace(res, lambdas=lambdas), base63)
        assert not rep["holds"]
        assert [row["holds"] for row in rep["per_k"]] == [True, False, True]

    def test_top_eigenpair_as_first_fails(self, base63):
        # u_n attains lambda_n, but all n eigenvalues lie below lambda_n + delta
        lambdas, vectors = scipy.linalg.eigh(base63.a_alpha, base63.mass.data)
        res = solve_spectrum(base63, 1)
        fake = dataclasses.replace(res, lambdas=lambdas[-1:], vectors=vectors[:, -1:])
        rep = certify_spectrum(fake, base63)
        assert not rep["holds"]
        assert rep["per_k"][0]["holds"]
        assert rep["below_lower"] == 62 and rep["below_upper"] == 63

    @pytest.mark.parametrize("j, counts", [(0, (0, 1)), (1, (1, 2))])
    def test_repeated_eigenpair_fails(self, base63, j, counts):
        # (lambda_j, u_j) twice is attained: with j = 0 only one eigenvalue lies
        # below the upper shift, with j = 1 the count is right but lambda_1 lies below
        res = solve_spectrum(base63, 2)
        fake = dataclasses.replace(res, lambdas=res.lambdas[[j, j]], vectors=res.vectors[:, [j, j]])
        rep = certify_spectrum(fake, base63)
        assert not rep["holds"]
        assert (rep["below_lower"], rep["below_upper"]) == counts
        assert all(row["holds"] for row in rep["per_k"])

    @pytest.mark.parametrize("skipped", [0, 1])
    def test_skipped_eigenvalue_fails(self, base63, skipped):
        # three of the first four eigenpairs: every quotient is attained and the
        # sampled check passes, but an uncomputed eigenvalue lies among them
        pencil = base63.with_alpha(-1.0)
        res = solve_spectrum(pencil, 4)
        kept = [j for j in range(4) if j != skipped]
        fake = dataclasses.replace(res, lambdas=res.lambdas[kept], vectors=res.vectors[:, kept])
        sampled = verify_variational_characterization(fake, pencil, rng=np.random.default_rng(6))
        assert sampled["holds"]
        rep = certify_spectrum(fake, pencil)
        assert not rep["holds"]
        assert rep["below_lower"] == (1 if skipped == 0 else 0) and rep["below_upper"] == 4
        assert rep["below_tie"] == 3 and rep["computed_below_tie"] == 2

    def test_cluster_straddling_lambda_k(self):
        # at this size the lowest eigenvalues come in pairs; lambda_6 - lambda_5
        # is below the tolerance 1e-8 (1 + |lambda_5|), so 6 lie below the upper
        # shift, and the tie count at lambda_5 - delta_5 finds only lambda_1..lambda_4
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 1023), 0.7, -30.0)
        res = solve_spectrum(pencil, 5)
        rep = certify_spectrum(res, pencil)
        assert rep["below_upper"] == 6
        assert rep["below_tie"] == rep["computed_below_tie"] == 4
        assert rep["holds"]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=40),
           diagonal=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_inertia_count_matches_eigvalsh(self, seed, n, diagonal):
        # a small diagonal forces 2x2 pivots
        rng = np.random.default_rng(seed)
        sym = rng.standard_normal((n, n))
        sym = sym + sym.T
        np.fill_diagonal(sym, diagonal * rng.standard_normal(n))
        expected = int(np.count_nonzero(np.linalg.eigvalsh(sym) < 0.0))
        assert _count_below(np.asfortranarray(sym)) == expected

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
        rep = certify_spectrum(res, pencil)
        assert rep["holds"]
        every = scipy.linalg.eigh(pencil.a_alpha, pencil.mass.data, eigvals_only=True)
        assert rep["below_upper"] == np.count_nonzero(every < rep["upper_shift"])
        assert rep["below_lower"] == np.count_nonzero(every < rep["lower_shift"]) == 0


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
        table = sweep_alpha(base63.mesh, 0.5, [0.0], 3)
        res = solve_spectrum(base63, 3)
        np.testing.assert_allclose(table.lambdas[0], res.lambdas, rtol=1e-12)

    def test_monotone_columns(self, base63):
        alphas = np.linspace(-4.0, 4.0, 9)
        table = sweep_alpha(base63.mesh, 0.5, alphas, 3)
        diffs = np.diff(table.lambdas, axis=0)
        assert np.all(diffs >= -1e-9 * (1 + np.abs(table.lambdas[1:])))

    def test_monotone_helper(self, base63):
        table = sweep_alpha(base63.mesh, 0.5, [3.0, -1.0, 0.0], 2)
        assert monotone_in_alpha(table)
        # the same rows paired with reversed couplings decrease in alpha
        flipped = SweepTable(alphas=-table.alphas, gammas=table.gammas,
                             lambdas=table.lambdas.copy(), signs=table.signs.copy())
        assert not monotone_in_alpha(flipped)

    def test_sign_change_location(self, base63):
        c_h = embedding_constant(base63)
        table = sweep_alpha(base63.mesh, 0.5, [-2.0 / c_h, -0.5 / c_h], 1)
        assert table.signs[0] == -1 and table.signs[1] == 1

    def test_empty_grid(self, base63):
        with pytest.raises(RequestError):
            sweep_alpha(base63.mesh, 0.5, [], 1)

    def test_threshold_identity(self, base63):
        th = locate_threshold(base63.mesh, 0.5)
        assert abs(th["difference"]) <= 1e-8 / th["embedding_constant"]

    def test_threshold_flag(self, base63):
        th = locate_threshold(base63.mesh, 0.5)
        assert th["holds"] is True
        assert th["relative_difference"] == abs(th["difference"]) * th["embedding_constant"]

    @staticmethod
    def _record_cholesky_steps(monkeypatch):
        tested = []
        positive = spectral._lambda_1_positive

        def recording(pencil):
            tested.append(pencil.alpha)
            return positive(pencil)

        monkeypatch.setattr(spectral, "_lambda_1_positive", recording)
        return tested

    def test_threshold_certified_bracket(self, base63, monkeypatch):
        tested = self._record_cholesky_steps(monkeypatch)
        th = locate_threshold(base63.mesh, 0.5)
        c_h = th["embedding_constant"]
        assert tested[:2] == [(-1.0 - THRESHOLD_RTOL) / c_h, (-1.0 + THRESHOLD_RTOL) / c_h]
        assert len(tested) == 7
        assert th["holds"] is True

    def test_threshold_wide_bracket_fallback(self, base63, monkeypatch):
        # C_h off by 1e-6: the certified bracket misses the sign change, the
        # bisection goes on from [-2/C_h, 0] and the flag comes out false
        expected = locate_threshold(base63.mesh, 0.5)
        c_h = expected["embedding_constant"] * (1.0 + 1e-6)
        monkeypatch.setattr(spectral, "embedding_constant", lambda pencil: c_h)
        tested = self._record_cholesky_steps(monkeypatch)
        th = locate_threshold(base63.mesh, 0.5)
        # the lower end of the certified bracket already has lambda_1 > 0
        assert tested[:3] == [(-1.0 - THRESHOLD_RTOL) / c_h, -2.0 / c_h, 0.0]
        assert th["holds"] is False
        assert th["relative_difference"] == pytest.approx(1e-6, rel=1e-2)
        assert list(th) == list(expected)

    def test_threshold_no_bracket(self, base63, monkeypatch):
        monkeypatch.setattr(spectral, "_lambda_1_positive", lambda pencil: True)
        with pytest.raises(RequestError):
            locate_threshold(base63.mesh, 0.5)


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
        assert _lambda_1_positive(pencil) == (lam1 > 0.0)


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


class TestBrezisInequality:
    def test_first_eigenvector_membership(self):
        mesh = build_mesh(0.0, 1.0, 63)
        pencil = assemble_pencil(mesh, 0.5, 0.0)
        res = solve_spectrum(pencil, 1)
        u = res.vectors[:, 0]
        s = 0.5
        num = float(u @ pencil.a_frac.data @ u)
        den = (
            float(u @ pencil.mass.data @ u) ** (1 - s)
            * float(u @ (pencil.mass.data + pencil.a_loc.data) @ u) ** s
        )
        rep = verify_brezis_inequality(mesh, s, 500, rng=np.random.default_rng(4))
        assert num / den <= rep["max_ratio"] * (1 + 1e-12)

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
        ratios = []
        for n in (15, 31, 63):
            rep = verify_brezis_inequality(
                build_mesh(0.0, 1.0, n), 0.5, 300, rng=np.random.default_rng(5)
            )
            ratios.append(rep["max_ratio"])
        assert (max(ratios) - min(ratios)) / min(ratios) < 0.2

    def test_trials_validation(self):
        with pytest.raises(RequestError):
            verify_brezis_inequality(build_mesh(0.0, 1.0, 7), 0.5, 0)
