import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mixspec import (
    CoupleError,
    DimensionError,
    NormalizationError,
    ParameterError,
    UndefinedRatioError,
    assemble_local_stiffness,
    assemble_mass,
    build_mesh,
    check_inclusion_monotonicity,
    check_interpolation_inequality,
    check_operator_interpolation,
    couple_from_grams,
    interpolation_norm,
    k2_functional,
    k_curve,
    k_functional,
    operator_norm,
    spectral_s_norm,
    symmetry_check,
)
from mixspec.interpolation import (
    KFunctionalCurve,
    k2_functional_samples,
    k_functional_samples,
    stack_couples,
)
from mixspec.reference import k_functional_grid_search, operator_norm_power_iteration


def random_spd(dim, rng, spread=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.exp(rng.uniform(-math.log(spread), math.log(spread), dim))
    return q @ np.diag(vals) @ q.T


def random_couple(dim, rng, spread=10.0):
    return couple_from_grams(random_spd(dim, rng, spread), random_spd(dim, rng, spread))


class TestCoupleConstruction:
    def test_identical_norms(self):
        couple = couple_from_grams(np.eye(3), np.eye(3))
        np.testing.assert_allclose(couple.mu, 1.0, rtol=1e-14)

    def test_already_diagonal(self):
        couple = couple_from_grams(np.eye(2), np.diag([1.0, 4.0]))
        np.testing.assert_allclose(np.sort(couple.mu), [1.0, 4.0], rtol=1e-14)
        np.testing.assert_allclose(np.abs(couple.basis), np.eye(2), atol=1e-14)

    def test_fem_l2_h1_couple(self):
        mesh = build_mesh(0.0, 1.0, 8)
        mass = assemble_mass(mesh).data
        a_loc = assemble_local_stiffness(mesh).data
        couple = couple_from_grams(mass, mass + a_loc)
        # independent route: eigenvalues of M^{-1} A_loc
        pencil_eigs = np.sort(np.linalg.eigvals(np.linalg.solve(mass, a_loc)).real)
        np.testing.assert_allclose(couple.mu, 1.0 + pencil_eigs, rtol=1e-10)

    def test_reconstruction_identities(self):
        rng = np.random.default_rng(5)
        couple = random_couple(6, rng)
        assert couple.residual <= 1e-10
        f = rng.standard_normal(6)
        c = couple.coords(f)
        assert couple.norm_x(f) ** 2 == pytest.approx(np.sum(c**2), rel=1e-12)
        assert couple.norm_y(f) ** 2 == pytest.approx(np.sum(couple.mu * c**2), rel=1e-12)

    def test_invalid_couples(self):
        with pytest.raises(CoupleError):
            couple_from_grams(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(CoupleError):
            couple_from_grams(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(DimensionError):
            couple_from_grams(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("name, indefinite", [
        ("G_Y", np.diag([1.0, -1.0])), ("G_Y", np.diag([1.0, 0.0])),
        ("G_Y", np.array([[1.0, 2.0], [2.0, 1.0]])), ("G_X", np.array([[1.0, 2.0], [2.0, 1.0]])),
    ])
    def test_non_definite_gram(self, name, indefinite):
        # G_X fails the factorization inside the eigensolve; G_Y fails as some mu <= 0
        grams = {"G_X": np.diag([1.0, 4.0]), "G_Y": np.diag([1.0, 4.0]), name: indefinite}
        with pytest.raises(CoupleError, match=f"^{name} is not positive definite$"):
            couple_from_grams(grams["G_X"], grams["G_Y"])


class TestKFunctional:
    def test_zero_element(self):
        couple = couple_from_grams(np.eye(3), np.diag([1.0, 2.0, 3.0]))
        assert k_functional(couple, np.zeros(3), 0.7) == 0.0

    def test_one_dimensional_closed_form(self):
        couple = couple_from_grams(np.array([[1.0]]), np.array([[9.0]]))
        for x in (0.05, 1.0 / 3.0, 0.5, 2.0):
            assert k_functional(couple, [2.0], x) == pytest.approx(
                2.0 * min(1.0, 3.0 * x), abs=1e-12
            )

    def test_x_one_is_sum_norm(self):
        rng = np.random.default_rng(3)
        g_x, g_y = random_spd(3, rng), random_spd(3, rng)
        couple = couple_from_grams(g_x, g_y)
        f = rng.standard_normal(3)
        oracle = k_functional_grid_search(g_x, g_y, f, 1.0)
        assert k_functional(couple, f, 1.0) == pytest.approx(oracle, abs=1e-4)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            g_x, g_y = random_spd(3, rng), random_spd(3, rng)
            couple = couple_from_grams(g_x, g_y)
            f = rng.standard_normal(3)
            x = float(np.exp(rng.uniform(-1.5, 1.5)))
            assert k_functional(couple, f, x) == pytest.approx(
                k_functional_grid_search(g_x, g_y, f, x), abs=1e-3
            )

    def test_parameter_domain(self):
        couple = couple_from_grams(np.eye(2), np.eye(2))
        with pytest.raises(ParameterError):
            k_functional(couple, np.ones(2), 0.0)
        with pytest.raises(ParameterError):
            k_functional(couple, np.ones(2), -1.0)
        with pytest.raises(ParameterError):
            k_functional(couple, np.ones(2), math.nan)


class TestK2Functional:
    def test_zero(self):
        couple = couple_from_grams(np.eye(2), np.eye(2))
        assert k2_functional(couple, np.zeros(2), 1.0) == 0.0

    def test_one_mode_value(self):
        couple = couple_from_grams(np.array([[1.0]]), np.array([[1.0]]))
        assert k2_functional(couple, [1.0], 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_bracketing(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            dim = int(rng.integers(1, 7))
            couple = random_couple(dim, rng)
            f = rng.standard_normal(dim)
            x = float(np.exp(rng.uniform(-5, 5)))
            k = k_functional(couple, f, x)
            k2 = k2_functional(couple, f, x)
            assert k2 <= k * (1 + 1e-12)
            assert k <= math.sqrt(2.0) * k2 * (1 + 1e-12)


class TestSymmetry:
    def test_fixed_point_x_one(self):
        rng = np.random.default_rng(4)
        couple = random_couple(4, rng)
        f = rng.standard_normal(4)
        rep = symmetry_check(couple, f, 1.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(k_functional(couple.swapped(), f, 1.0), rel=1e-12)

    def test_random_couple(self):
        rng = np.random.default_rng(14)
        couple = random_couple(5, rng)
        rep = symmetry_check(couple, rng.standard_normal(5), 3.0)
        assert rep.holds and rep.ratio <= 1e-9

    def test_zero_element(self):
        couple = couple_from_grams(np.eye(3), np.eye(3))
        rep = symmetry_check(couple, np.zeros(3), 2.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0


@st.composite
def lane_cases(draw):
    """Couples of dimension 1 to 8, some diagonal with zeros in f, and three x per lane.

    A diagonal couple's modes are coordinate axes, so a zero in f is an exact
    zero mode coordinate: a dead mode inside a lane, besides the padding.
    The x are far below the frontier, inside it and far above it.
    """
    cases = []
    for _ in range(draw(st.integers(2, 6))):
        dim = draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            couple = couple_from_grams(np.diag(np.exp(rng.uniform(-2.0, 2.0, dim))),
                                       np.diag(np.exp(rng.uniform(-2.0, 2.0, dim))))
            f = rng.standard_normal(dim) * (rng.random(dim) < 0.6)
        else:
            couple = random_couple(dim, rng)
            f = rng.standard_normal(dim)
        c2 = couple.coords(f) ** 2
        live = c2 > 0.0
        x_lo = x_hi = 1.0
        if live.any():
            mu, c2 = couple.mu[live], c2[live]
            x_lo = math.sqrt(np.sum(mu * c2) / np.sum(mu * mu * c2))
            x_hi = math.sqrt(np.sum(c2 / mu) / np.sum(c2))
        cases.append((couple, f, np.array([1e-3 * x_lo, math.sqrt(x_lo * x_hi), 1e3 * x_hi])))
    return cases


class TestLanes:
    """The lane-batched kernel against the single couple, lane by lane."""

    @settings(max_examples=40, deadline=None)
    @given(lane_cases())
    def test_batch_matches_one_lane(self, cases):
        batch = stack_couples([couple for couple, _, _ in cases])
        f = np.zeros(batch.mu.shape)
        for lane, (couple, g, _) in enumerate(cases):
            f[lane, :couple.dim] = g
        xs = np.array([x for _, _, x in cases])
        k = k_functional_samples(batch, f, xs)
        k2 = k2_functional_samples(batch, f, xs)
        reps = [symmetry_check(batch, f, xs[:, j]) for j in range(3)]
        for lane, (couple, g, x) in enumerate(cases):
            np.testing.assert_allclose(k[lane], k_functional_samples(couple, g, x), rtol=1e-12, atol=0)
            np.testing.assert_allclose(k2[lane], k2_functional_samples(couple, g, x), rtol=1e-12, atol=0)
            for j, rep in enumerate(reps):
                one = symmetry_check(couple, g, float(x[j]))
                np.testing.assert_allclose([rep.lhs[lane], rep.rhs[lane]], [one.lhs, one.rhs],
                                           rtol=1e-12, atol=0)
                assert rep.holds[lane] == one.holds

    def test_stacked_grams_match_single_couples(self):
        rng = np.random.default_rng(12)
        g_x = np.array([random_spd(4, rng) for _ in range(5)])
        g_y = np.array([random_spd(4, rng) for _ in range(5)])
        stacked = couple_from_grams(g_x, g_y)
        assert stacked.mu.shape == (5, 4) and stacked.residual.shape == (5,)
        for lane in range(5):
            one = couple_from_grams(g_x[lane], g_y[lane])
            np.testing.assert_array_equal(stacked.mu[lane], one.mu)
            np.testing.assert_array_equal(stacked.basis[lane], one.basis)

    def test_stacked_grams_fail_as_a_whole(self):
        g_x = np.array([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(CoupleError, match="^G_X is not positive definite$"):
            couple_from_grams(g_x, np.array([np.eye(2), np.eye(2)]))
        with pytest.raises(CoupleError, match="^G_Y is not symmetric$"):
            couple_from_grams(np.array([np.eye(2)] * 2),
                              np.array([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]))

    def test_padding_keeps_coordinates_and_k(self):
        rng = np.random.default_rng(6)
        small, large = random_couple(2, rng), random_couple(5, rng)
        batch = stack_couples([small, large])
        f = rng.standard_normal(2)
        padded = np.zeros((2, 5))
        padded[0, :2] = f
        c = batch.coords(padded)[0]
        np.testing.assert_array_equal(c[2:], 0.0)
        assert k_functional(batch, padded, 0.3)[0] == pytest.approx(k_functional(small, f, 0.3),
                                                                   rel=1e-14)


class TestInterpolationNorm:
    def test_zero_element(self):
        couple = couple_from_grams(np.eye(3), np.diag([2.0, 3.0, 4.0]))
        for p in (1.0, 2.0, math.inf):
            assert interpolation_norm(couple, np.zeros(3), 0.5, p, "K") == 0.0

    def test_k2_matches_spectral(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            couple = random_couple(5, rng)
            f = rng.standard_normal(5)
            for s in (0.25, 0.5, 0.75):
                got = interpolation_norm(couple, f, s, 2, "K2")
                assert got == pytest.approx(spectral_s_norm(couple, f, s), rel=1e-5)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_norm_symmetry(self, p):
        rng = np.random.default_rng(15)
        couple = random_couple(5, rng)
        swapped = couple.swapped()
        f = rng.standard_normal(5)
        for s in (0.25, 0.5, 0.75):
            a = interpolation_norm(couple, f, s, p, "K")
            b = interpolation_norm(swapped, f, 1.0 - s, p, "K")
            assert a == pytest.approx(b, rel=1e-6)

    def test_homogeneity(self):
        rng = np.random.default_rng(16)
        couple = random_couple(6, rng)
        f = rng.standard_normal(6)
        for variant in ("K", "K2"):
            base = interpolation_norm(couple, f, 0.3, 2, variant)
            scaled = interpolation_norm(couple, 7.0 * f, 0.3, 2, variant)
            assert scaled == pytest.approx(7.0 * base, rel=1e-12)

    def test_parameter_domain(self):
        couple = couple_from_grams(np.eye(2), np.eye(2))
        with pytest.raises(ParameterError):
            interpolation_norm(couple, np.ones(2), 0.0, 2)
        with pytest.raises(ParameterError):
            interpolation_norm(couple, np.ones(2), 0.5, 0.5)
        with pytest.raises(ParameterError):
            interpolation_norm(couple, np.ones(2), 0.5, math.nan)
        with pytest.raises(ParameterError):
            interpolation_norm(couple, np.ones(2), 0.5, 2, "K3")

    def test_extreme_exponent_corners(self):
        # tiny sp / (1-s)p push the integral mass into the far tails; the
        # saturation-based corrections must still deliver 1e-6 accuracy
        couple = couple_from_grams(np.eye(3), np.diag([1e-8, 1.0, 1e8]))
        f = np.array([1.0, -2.0, 0.5])
        for s, p in ((0.02, 1.0), (0.98, 1.0), (0.02, 7.0)):
            a = interpolation_norm(couple, f, s, p, "K")
            b = interpolation_norm(couple.swapped(), f, 1.0 - s, p, "K")
            assert a == pytest.approx(b, rel=1e-6)
        got = interpolation_norm(couple, f, 0.02, 2, "K2")
        assert got == pytest.approx(spectral_s_norm(couple, f, 0.02), rel=1e-5)

    def test_k_variant_matches_quadrature(self):
        # independent route: K by Brent minimization of the scalarization
        # phi(log w), adaptive quadrature in log x between the corners
        # 1/R(0) and 1/R(inf), and the corner pieces in closed form
        rng = np.random.default_rng(18)
        couple = random_couple(4, rng, spread=30.0)
        f = rng.standard_normal(4)
        mu, c2 = couple.mu, couple.coords(f) ** 2
        norm_x, norm_y = math.sqrt(c2.sum()), math.sqrt((mu * c2).sum())
        x_lo = norm_y / math.sqrt((mu * mu * c2).sum())
        x_hi = math.sqrt((c2 / mu).sum()) / norm_x
        bounds = (-math.log(mu.max()) - 40.0, -math.log(mu.min()) + 40.0)

        def k_ref(x):
            def phi(v):
                q = 1.0 / (1.0 + np.exp(-(v + np.log(mu))))
                g = math.sqrt((c2 * q * q).sum())
                return g + x * math.sqrt((mu * c2 * (1.0 - q) ** 2).sum())

            res = scipy.optimize.minimize_scalar(
                phi, bounds=bounds, method="bounded", options={"xatol": 1e-10}
            )
            return min(res.fun, norm_x, x * norm_y)

        for s in (0.1, 0.5, 0.9):
            for p in (1.0, 2.0, 3.5):
                middle, _ = scipy.integrate.quad(
                    lambda t: (k_ref(math.exp(t)) * math.exp(-s * t)) ** p,
                    math.log(x_lo), math.log(x_hi), epsabs=0.0, epsrel=1e-12, limit=200,
                )
                corners = (norm_y**p * x_lo ** ((1 - s) * p) / ((1 - s) * p)
                           + norm_x**p * x_hi ** (-s * p) / (s * p))
                expected = (middle + corners) ** (1.0 / p)
                got = interpolation_norm(couple, f, s, p, "K")
                assert got == pytest.approx(expected, rel=1e-9)

    def test_sup_norm_two_nearly_tied_peaks(self):
        # K2 x^-s peaks at log x = -2.25 and 0.06, and the coarse grid ranks
        # the lower one first: refining only the grid argmax read 0.8281544,
        # 5.5e-5 below the sup.  The closed form of K2 on a 600 001-point grid
        # in log x bounds the sup from below; the refined norm lay 1.1e-11
        # relative above that grid sup
        mu = np.array([1.0, 213.8840708])
        f = np.array([1.0, 0.43135601])
        s = 0.35007651768093706
        got = interpolation_norm(couple_from_grams(np.eye(2), np.diag(mu)), f, s, math.inf, "K2")
        x = np.exp(np.linspace(-12.0, 12.0, 600_001))
        k2 = np.sqrt(np.sum(f[:, None] ** 2 * x**2 * mu[:, None] / (1.0 + x**2 * mu[:, None]),
                            axis=0))
        grid_sup = float(np.max(k2 * x**-s))
        assert grid_sup <= got <= grid_sup * (1.0 + 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        log_mu=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        p=st.sampled_from([1.0, 2.0, 7.0, math.inf]),
    )
    def test_frontier_norm_identities(self, log_mu, seed, s, p):
        # diagonal couples with mu spread up to 1e8, so the swapped couple is
        # exact and the comparison sees the norm alone
        couple = couple_from_grams(np.eye(len(log_mu)), np.diag(10.0 ** np.array(log_mu)))
        f = np.random.default_rng(seed).standard_normal(len(log_mu))
        a = interpolation_norm(couple, f, s, p, "K")
        b = interpolation_norm(couple.swapped(), f, 1.0 - s, p, "K")
        assert a == pytest.approx(b, rel=1e-9)
        got = interpolation_norm(couple, f, s, 2, "K2")
        assert got == pytest.approx(spectral_s_norm(couple, f, s), rel=1e-8)


class TestFunctionalHomogeneity:
    def test_k_variants_scale_linearly(self):
        rng = np.random.default_rng(77)
        couple = random_couple(5, rng)
        f = rng.standard_normal(5)
        for x in (0.01, 1.0, 30.0):
            assert k_functional(couple, 4.0 * f, x) == pytest.approx(
                4.0 * k_functional(couple, f, x), rel=1e-12
            )
            assert k2_functional(couple, 4.0 * f, x) == pytest.approx(
                4.0 * k2_functional(couple, f, x), rel=1e-12
            )
        assert spectral_s_norm(couple, 4.0 * f, 0.6) == pytest.approx(
            4.0 * spectral_s_norm(couple, f, 0.6), rel=1e-12
        )


class TestSpectralSNorm:
    def test_constant_modes(self):
        couple = couple_from_grams(np.eye(4), np.eye(4))
        f = np.array([1.0, -2.0, 0.5, 3.0])
        for s in (0.2, 0.5, 0.8):
            expected = math.sqrt(math.pi / (2 * math.sin(math.pi * s))) * couple.norm_x(f)
            assert spectral_s_norm(couple, f, s) == pytest.approx(expected, rel=1e-14)

    def test_single_mode_half(self):
        couple = couple_from_grams(np.array([[1.0]]), np.array([[4.0]]))
        assert spectral_s_norm(couple, [1.0], 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_hoelder_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            couple = random_couple(6, rng)
            f = rng.standard_normal(6)
            s = float(rng.uniform(0.05, 0.95))
            prefactor = math.sqrt(math.pi / (2 * math.sin(math.pi * s)))
            bound = prefactor * couple.norm_x(f) ** (1 - s) * couple.norm_y(f) ** s
            assert spectral_s_norm(couple, f, s) <= bound * (1 + 1e-12)


class TestOperatorNorm:
    def test_identity(self):
        rng = np.random.default_rng(31)
        g = random_spd(4, rng)
        assert operator_norm(np.eye(4), g, g) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(32)
        g = random_spd(4, rng)
        assert operator_norm(2.0 * np.eye(4), g, g) == pytest.approx(2.0, rel=1e-12)

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            t_mat = rng.standard_normal((5, 5))
            g_dom, g_cod = random_spd(5, rng), random_spd(5, rng)
            fast = operator_norm(t_mat, g_dom, g_cod)
            slow = operator_norm_power_iteration(t_mat, g_dom, g_cod, seed=trial)
            assert fast == pytest.approx(slow, rel=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            operator_norm(np.ones((3, 2)), np.eye(3), np.eye(3))

    def test_multiple_top_eigenvalue(self):
        # T = 2.5 I: every eigenvalue of the pencil is 6.25, and for this Gram
        # the subset driver of the eigensolve returns none of them
        g = random_spd(5, np.random.default_rng(20))
        g = 0.5 * (g + g.T)
        t_mat = 2.5 * np.eye(5)
        quad = t_mat.T @ g @ t_mat
        quad = 0.5 * (quad + quad.T)
        assert scipy.linalg.eigh(quad, g, subset_by_index=[4, 4])[0].size == 0
        assert operator_norm(t_mat, g, g) == pytest.approx(2.5, rel=1e-12)


class TestOperatorInterpolation:
    def test_tight_identity_case(self):
        rng = np.random.default_rng(41)
        couple = random_couple(5, rng)
        rep = check_operator_interpolation(4.0 * np.eye(5), couple, couple, 0.6, 2, "K2")
        assert rep.holds
        assert rep.lhs == pytest.approx(4.0, rel=1e-10)
        assert rep.rhs == pytest.approx(4.0, rel=1e-10)

    def test_diagonal_operator_formula(self):
        mu0 = np.array([1.0, 4.0, 9.0])
        mu1 = np.array([2.0, 3.0, 16.0])
        gains = np.array([1.5, -0.5, 2.0])
        c0 = couple_from_grams(np.eye(3), np.diag(mu0))
        c1 = couple_from_grams(np.eye(3), np.diag(mu1))
        s = 0.4
        rep = check_operator_interpolation(np.diag(gains), c0, c1, s, 2, "K2")
        expected = np.max(np.abs(gains) * (mu1 / mu0) ** (s / 2.0))
        assert rep.lhs == pytest.approx(expected, rel=1e-10)
        assert rep.holds

    def test_random_sweep_quadratic(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            dim = int(rng.integers(2, 11))
            c0, c1 = random_couple(dim, rng), random_couple(dim, rng)
            t_mat = rng.standard_normal((dim, dim))
            s = float(rng.uniform(0.05, 0.95))
            assert check_operator_interpolation(t_mat, c0, c1, s, 2, "K2").holds

    def test_sampled_path(self):
        rng = np.random.default_rng(43)
        c0, c1 = random_couple(4, rng), random_couple(4, rng)
        t_mat = rng.standard_normal((4, 4))
        rep = check_operator_interpolation(
            t_mat, c0, c1, 0.5, math.inf, "K2", num_directions=400, rng=rng
        )
        assert rep.holds
        rep = check_operator_interpolation(
            t_mat, c0, c1, 0.5, 1, "K", num_directions=100, rng=rng
        )
        assert rep.holds

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(44)
        c0, c1 = random_couple(3, rng), random_couple(4, rng)
        with pytest.raises(DimensionError):
            check_operator_interpolation(np.ones((3, 3)), c0, c1, 0.5, 2, "K2")


class TestInterpolationInequality:
    def test_single_mode_exact_ratio(self):
        couple = couple_from_grams(np.eye(3), np.diag([2.0, 5.0, 11.0]))
        for s in (0.25, 0.5, 0.75):
            rep = check_interpolation_inequality(couple, [0.0, 1.0, 0.0], s, 2, "K2")
            assert rep.ratio == pytest.approx(
                math.sqrt(math.pi / (2 * math.sin(math.pi * s))), rel=1e-5
            )

    def test_random_bounded(self):
        rng = np.random.default_rng(51)
        couple = random_couple(20, rng)
        for _ in range(20):
            rep = check_interpolation_inequality(couple, rng.standard_normal(20), 0.5, 2, "K2")
            assert rep.holds
            assert rep.ratio <= math.sqrt(math.pi / 2) + 1e-9

    def test_k_variant_bounded(self):
        rng = np.random.default_rng(52)
        couple = random_couple(6, rng)
        for p in (1.0, 2.0, math.inf):
            rep = check_interpolation_inequality(couple, rng.standard_normal(6), 0.3, p, "K")
            assert rep.holds

    def test_zero_element(self):
        couple = couple_from_grams(np.eye(2), np.eye(2))
        with pytest.raises(UndefinedRatioError):
            check_interpolation_inequality(couple, np.zeros(2), 0.5, 2)


class TestInclusionMonotonicity:
    def test_constant_modes(self):
        couple = couple_from_grams(np.eye(3), np.eye(3))
        f = np.array([1.0, 2.0, -1.0])
        rep = check_inclusion_monotonicity(couple, f, 0.3, 0.7, 2)
        assert rep.holds
        # with all modes at mu = 1 the two norms differ only by the prefactor
        n1 = interpolation_norm(couple, f, 0.3, 2, "K2")
        n2 = interpolation_norm(couple, f, 0.7, 2, "K2")
        expected = math.sqrt(math.sin(math.pi * 0.7) / math.sin(math.pi * 0.3))
        assert n1 / n2 == pytest.approx(expected, rel=1e-6)

    def test_single_mode(self):
        couple = couple_from_grams(np.array([[1.0]]), np.array([[9.0]]))
        rep = check_inclusion_monotonicity(couple, [1.0], 0.2, 0.8, 2)
        assert rep.holds
        assert 9.0**0.2 < 9.0**0.8

    def test_random_sweep(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            dim = int(rng.integers(1, 8))
            mu = np.exp(rng.uniform(0.0, math.log(100.0), dim))
            couple = couple_from_grams(np.eye(dim), np.diag(mu))
            s1, s2 = np.sort(rng.uniform(0.05, 0.95, 2))
            if s2 - s1 < 1e-6:
                continue
            rep = check_inclusion_monotonicity(couple, rng.standard_normal(dim), s1, s2, 2)
            assert rep.holds

    def test_normalization_error(self):
        couple = couple_from_grams(np.eye(2), np.diag([0.5, 2.0]))
        with pytest.raises(NormalizationError):
            check_inclusion_monotonicity(couple, np.ones(2), 0.3, 0.6, 2)


class TestKCurve:
    def test_curve_invariants(self):
        rng = np.random.default_rng(71)
        couple = random_couple(5, rng)
        f = rng.standard_normal(5)
        xs = np.geomspace(1e-6, 1e6, 64)
        curve = k_curve(couple, f, xs)
        bound = np.minimum(couple.norm_x(f), xs * couple.norm_y(f))
        assert np.all(curve.values <= bound + 1e-10 * np.maximum(bound, 1e-300))

    def test_bad_curve_rejected(self):
        xs = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            KFunctionalCurve(xs=xs, values=np.array([1.0, 0.5, 0.7]), f_ref=np.ones(2))
        with pytest.raises(ParameterError):
            KFunctionalCurve(xs=xs, values=np.array([1.0, 3.0, 9.5]), f_ref=np.ones(2))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(72)
        couple = random_couple(4, rng)
        f = rng.standard_normal(4)
        xs = np.geomspace(0.01, 100.0, 7)
        vals = k_functional_samples(couple, f, xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(k_functional(couple, f, float(x)), rel=1e-12)
