import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from mixspec import (
    DimensionError,
    DiscreteFunction,
    DomainError,
    Kind,
    MeasureError,
    OrderingError,
    ParameterError,
    SizeError,
    assemble_fractional_stiffness,
    assemble_local_stiffness,
    assemble_mass,
    build_mesh,
    check_lebesgue_interpolation,
    gagliardo_seminorm,
    lp_norm,
)
from mixspec.fem import _scaled_column
from mixspec.reference import fractional_matrix_quadrature, gagliardo_form_quadrature


class TestMesh:
    def test_single_node(self):
        mesh = build_mesh(0.0, 1.0, 1)
        assert mesh.h == 0.5
        np.testing.assert_array_equal(mesh.nodes, [0.5])

    def test_three_nodes(self):
        mesh = build_mesh(0.0, 1.0, 3)
        assert mesh.h == 0.25
        np.testing.assert_array_equal(mesh.nodes, [0.25, 0.5, 0.75])

    def test_symmetric_domain(self):
        mesh = build_mesh(-2.0, 2.0, 7)
        assert mesh.h == 0.5
        assert mesh.nodes[3] == 0.0

    def test_nodes_reproducible(self):
        mesh = build_mesh(0.1, 2.7, 13)
        np.testing.assert_array_equal(mesh.nodes, mesh.nodes)

    def test_invalid_domain(self):
        with pytest.raises(DomainError):
            build_mesh(1.0, 1.0, 4)
        with pytest.raises(DomainError):
            build_mesh(2.0, -1.0, 4)
        for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(DomainError):
                build_mesh(a, b, 4)

    def test_overflowing_length(self):
        # both ends finite, but b - a is not
        with pytest.raises(DomainError):
            build_mesh(-1e308, 1e308, 4)

    def test_invalid_size(self):
        with pytest.raises(SizeError):
            build_mesh(0.0, 1.0, 0)


class TestMassAndStiffness:
    def test_mass_single_node(self):
        mesh = build_mesh(0.0, 1.0, 1)
        np.testing.assert_allclose(assemble_mass(mesh).data, [[1.0 / 3.0]], rtol=0, atol=0)

    def test_mass_closed_form(self):
        mesh = build_mesh(0.0, 1.0, 3)
        mat = assemble_mass(mesh).data
        np.testing.assert_allclose(np.diag(mat), 1.0 / 6.0, rtol=0, atol=0)
        np.testing.assert_allclose(np.diag(mat, 1), 1.0 / 24.0, rtol=0, atol=0)

    def test_mass_interior_row_sums(self):
        mesh = build_mesh(0.0, 1.0, 9)
        mat = assemble_mass(mesh).data
        sums = mat.sum(axis=1)[1:-1]
        np.testing.assert_allclose(sums, mesh.h, rtol=1e-15)

    def test_stiffness_single_node(self):
        mesh = build_mesh(0.0, 1.0, 1)
        np.testing.assert_allclose(assemble_local_stiffness(mesh).data, [[4.0]], rtol=0, atol=0)

    def test_stiffness_two_nodes(self):
        mesh = build_mesh(0.0, 1.0, 2)
        np.testing.assert_allclose(
            assemble_local_stiffness(mesh).data, [[6.0, -3.0], [-3.0, 6.0]], rtol=1e-15
        )

    def test_stiffness_interior_row_sums(self):
        mesh = build_mesh(0.0, 1.0, 9)
        sums = assemble_local_stiffness(mesh).data.sum(axis=1)[1:-1]
        np.testing.assert_allclose(sums, 0.0, atol=1e-12)

    def test_positive_definite(self):
        mesh = build_mesh(0.0, 1.0, 12)
        assert np.linalg.eigvalsh(assemble_mass(mesh).data)[0] > 0
        assert np.linalg.eigvalsh(assemble_local_stiffness(mesh).data)[0] > 0


class TestFractionalStiffness:
    def test_toeplitz_exact(self):
        mesh = build_mesh(0.0, 1.0, 12)
        mat = assemble_fractional_stiffness(mesh, 0.5).data
        col = mat[:, 0]
        for d in range(12):
            assert np.all(np.diagonal(mat, d) == col[d])

    def test_symmetric_exact(self):
        mat = assemble_fractional_stiffness(build_mesh(0.0, 1.0, 9), 0.3).data
        assert np.array_equal(mat, mat.T)

    def test_deterministic(self):
        mesh = build_mesh(-1.0, 2.0, 7)
        a = assemble_fractional_stiffness(mesh, 0.7).data
        b = assemble_fractional_stiffness(mesh, 0.7).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_scaling_law(self, s):
        a1 = assemble_fractional_stiffness(build_mesh(0.0, 1.0, 5), s).data
        ac = assemble_fractional_stiffness(build_mesh(0.0, 3.5, 5), s).data
        np.testing.assert_allclose(ac / a1, 3.5 ** (1.0 - 2.0 * s), rtol=1e-10)

    def test_oracle_agreement_small(self):
        mesh = build_mesh(0.0, 1.0, 2)
        fast = assemble_fractional_stiffness(mesh, 0.5).data
        slow = fractional_matrix_quadrature(mesh, 0.5)
        np.testing.assert_allclose(fast, slow, rtol=1e-6)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_positive_semidefinite(self, s):
        for n in (5, 33, 64):
            mat = assemble_fractional_stiffness(build_mesh(0.0, 1.0, n), s).data
            min_eig = np.linalg.eigvalsh(mat)[0]
            assert min_eig >= -1e-10 * np.max(np.abs(mat))

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.7, 0.9])
    @pytest.mark.parametrize("n", [32, 48])
    def test_closed_form_symbol(self, s, n):
        # I_d = -2 Gamma(-2s)/Gamma(4-2s) * delta^4 |d|^(3-2s), delta^4 the fourth
        # central difference; kept to small d and s away from 1/2, where the
        # formula cancels or needs its log limit. The leading entries of a
        # column of any length n must match.
        d = np.arange(17, dtype=float)
        power = lambda x: np.abs(x) ** (3.0 - 2.0 * s)
        delta4 = power(d - 2) - 4 * power(d - 1) + 6 * power(d) - 4 * power(d + 1) + power(d + 2)
        closed = -2.0 * gamma_fn(-2.0 * s) / gamma_fn(4.0 - 2.0 * s) * delta4
        np.testing.assert_allclose(_scaled_column(n, s)[:17], closed, rtol=1e-9)

    # 50-digit arbiter of I_d = Delta^4 |d|^p / (s (1-2s) (2-2s) (3-2s)), p = 3 - 2s.
    # The bound was fixed before the first run: the worst cancellation is at
    # d = 2, where the stencil sum is about 50 times smaller than its terms,
    # so a few ulps per term give ~2.5e-14; 1e-13 leaves a factor 4.
    @pytest.mark.parametrize("s", [1e-8, 1e-4, 0.01, 0.3, 0.5 - 1e-12, 0.5, 0.5 + 1e-7, 0.7,
                                   0.99999, 1.0 - 1e-8])
    def test_column_against_mpmath(self, s):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        sm = mp.mpf(s)
        if s == 0.5:
            # the limit s -> 1/2: (|x|^p - x^2)/(1-2s) -> x^2 log|x|
            f = lambda x: x * x * mp.log(abs(x)) if x else mp.mpf(0)
            den = sm * (2 - 2 * sm) * (3 - 2 * sm)
        else:
            f = lambda x: abs(mp.mpf(x)) ** (3 - 2 * sm)
            den = sm * (1 - 2 * sm) * (2 - 2 * sm) * (3 - 2 * sm)
        col = _scaled_column(4001, s)
        for d in [*range(12), 20, 100, 1000, 4000]:
            exact = (f(d - 2) - 4 * f(d - 1) + 6 * f(d) - 4 * f(d + 1) + f(d + 2)) / den
            assert abs(col[d] - exact) <= 1e-13 * abs(exact), (d, col[d], exact)

    def test_reference_quadrature_near_one(self):
        # at s = 0.95 the innermost bands overflow unless the reference
        # combines the powers of t; its truncated sliver is 2^-37 ~ 7.3e-12
        # of the result (measured 7.7e-12 here), so the bound is 2e-11
        mesh = build_mesh(0.0, 1.0, 12)
        slow = fractional_matrix_quadrature(mesh, 0.95)
        fast = assemble_fractional_stiffness(mesh, 0.95).data
        np.testing.assert_allclose(slow, fast, rtol=2e-11, atol=0)

    # the upper triangles (row by row) of the reference quadrature as its
    # level-by-level loop computed them; (3, 0.95) runs 370 levels, several chunks
    QUADRATURE_PINS = [
        ((4, 0.5), [5.545177444475926, -1.2028442909443193, -0.7338002806950114, -0.2521826017016917,
                    5.545177444475925, -1.2028442909443178, -0.7338002806950115, 5.545177444475926,
                    -1.202844290944322, 5.545177444475928]),
        ((2, 0.75), [14.430035517830927, -5.434445193609028, 14.430035517830937]),
        ((3, 0.25), [3.534622398917083, -0.041557045172927465, -0.44021714722698807,
                     3.5346223989170635, -0.041557045172927354, 3.534622398917083]),
        ((3, 0.05), [8.024590200246399, 1.5448275114603702, -0.30425104500928735,
                     8.024590200246429, 1.5448275114603702, 8.024590200246399]),
        ((3, 0.95), [137.47038980108158, -65.68910087637276, -2.317650224361954,
                     137.47038980108164, -65.68910087637276, 137.4703898010816]),
    ]

    @pytest.mark.parametrize("n, s, pinned", [(n, s, vals) for (n, s), vals in QUADRATURE_PINS])
    def test_reference_quadrature_pinned(self, n, s, pinned):
        got = fractional_matrix_quadrature(build_mesh(0.0, 1.0, n), s)[np.triu_indices(n)]
        pinned = np.array(pinned)
        assert np.all(np.abs(got - pinned) <= 4 * np.finfo(float).eps * np.abs(pinned))

    def test_reference_seminorm_pinned(self):
        # fem_oracle's seminorm draw at seed 0
        u = np.random.default_rng([0, 1]).standard_normal(4)
        got = gagliardo_form_quadrature(build_mesh(0.0, 1.0, 4), u, u, 0.3)
        assert abs(got - 7.618596664896236) <= 4 * np.finfo(float).eps * 7.618596664896236

    def test_parameter_domain(self):
        mesh = build_mesh(0.0, 1.0, 3)
        for s in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ParameterError):
                assemble_fractional_stiffness(mesh, s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b, s", [(0.0, 1.0, 1e-310), (0.0, 1.0, 5e-324),
                                         (0.0, 1e-310, 0.999)])
    def test_overflowing_column_refused(self, a, b, s):
        # entries grow like 1/s and like h^(1-2s); an infinite column is refused, silently
        with pytest.raises(ParameterError):
            assemble_fractional_stiffness(build_mesh(a, b, 3), s)


# s anywhere in (0, 1), with extra weight near 0, 1/2 and 1
ORDERS = st.one_of(
    st.floats(1e-6, 1.0 - 1e-6),
    st.floats(1e-6, 1e-3),
    st.floats(0.5 - 1e-3, 0.5 + 1e-3),
    st.floats(1.0 - 1e-3, 1.0 - 1e-6),
    st.sampled_from([1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6]),
)


class TestFractionalProperties:
    @settings(max_examples=100, deadline=None)
    @given(s=ORDERS, n=st.integers(1, 64), length=st.floats(0.1, 10.0))
    def test_column_structure(self, s, n, length):
        mat = assemble_fractional_stiffness(build_mesh(0.0, 1.0, n), s).data
        assert np.isfinite(mat).all()
        assert np.array_equal(mat, mat.T)
        for d in range(n):
            assert np.all(np.diagonal(mat, d) == mat[0, d])
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * np.max(np.abs(mat))
        # the hats of nodes two or more apart are disjoint: only the
        # negative cross term of the form remains
        assert np.all(mat[0, 2:] < 0.0)
        scaled = assemble_fractional_stiffness(build_mesh(0.0, length, n), s).data
        np.testing.assert_allclose(scaled / mat, length ** (1.0 - 2.0 * s), rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.01, 0.999), n=st.integers(1, 3),
           length=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
    def test_reference_quadrature_on_any_length(self, s, n, length):
        # the singular cells run on the unit cell, so no band overflows on a
        # short interval; up to s = 0.98 the truncated sliver stays far below
        # fem_oracle's 1e-6, past it the depth cap lets it grow
        mesh = build_mesh(0.0, length, n)
        fast = assemble_fractional_stiffness(mesh, s).data  # an infinite column is refused
        slow = fractional_matrix_quadrature(mesh, s)
        assert np.isfinite(fast).all() and np.isfinite(slow).all()
        if s <= 0.98:
            assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) <= 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.01, 0.999) | st.floats(0.99, 0.999), data=st.data())
    def test_reference_form_with_large_slopes(self, s, data):
        # nodal differences up to 1e3: the singular cells scale their slopes
        # into [1, 2) by powers of two, so no product overflows near s = 1
        # (u = (0, 3, -3) at s = 0.999 gave NaN when the slopes went in as
        # they are), and a finite value keeps its bits
        n = data.draw(st.integers(1, 3))
        u = np.array(data.draw(st.lists(st.floats(-500.0, 500.0), min_size=n, max_size=n)))
        mesh = build_mesh(0.0, 1.0, n)
        fast = u @ assemble_fractional_stiffness(mesh, s).data @ u
        slow = gagliardo_form_quadrature(mesh, u, u, s)
        assert math.isfinite(slow)
        if s <= 0.98:
            assert abs(slow - fast) <= 1e-6 * fast

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("s", [0.5, 0.75])
    def test_reference_quadrature_last_cell_offset(self, n, s):
        # on (0, 10^2.0625) the last cell's right end a + h (n + 1) rounds past
        # b, so b - (xl + h) came out negative: a math domain error at s = 0.5,
        # a NaN power at s = 0.75; the offset is 0 there
        mesh = build_mesh(0.0, 10.0 ** 2.0625, n)
        slow = fractional_matrix_quadrature(mesh, s)
        fast = assemble_fractional_stiffness(mesh, s).data
        assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) <= 1e-6

    def test_reference_form_overflow_case(self):
        mesh = build_mesh(0.0, 1.0, 3)
        u = np.array([0.0, 3.0, -3.0])
        slow = gagliardo_form_quadrature(mesh, u, u, 0.999)
        assert math.isfinite(slow) and slow > 0.0
        # power-of-two scaling is exact: 2u gives 4 times the form, bit for bit
        assert gagliardo_form_quadrature(mesh, 2.0 * u, 2.0 * u, 0.999) == 4.0 * slow


class TestGagliardoSeminorm:
    def test_zero_function(self):
        mesh = build_mesh(0.0, 1.0, 4)
        mat = assemble_fractional_stiffness(mesh, 0.4)
        assert gagliardo_seminorm(DiscreteFunction(mesh, np.zeros(4)), mat) == 0.0

    def test_single_hat(self):
        mesh = build_mesh(0.0, 1.0, 4)
        mat = assemble_fractional_stiffness(mesh, 0.4)
        u = DiscreteFunction(mesh, np.array([1.0, 0.0, 0.0, 0.0]))
        assert gagliardo_seminorm(u, mat) == pytest.approx(math.sqrt(mat.data[0, 0]), rel=1e-15)

    def test_against_direct_quadrature(self):
        mesh = build_mesh(0.0, 1.0, 4)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(4)
        mat = assemble_fractional_stiffness(mesh, 0.3)
        fast = gagliardo_seminorm(DiscreteFunction(mesh, coeffs), mat)
        slow = math.sqrt(gagliardo_form_quadrature(mesh, coeffs, coeffs, 0.3))
        assert fast == pytest.approx(slow, rel=1e-5)

    def test_mesh_mismatch(self):
        mat = assemble_fractional_stiffness(build_mesh(0.0, 1.0, 4), 0.5)
        u = DiscreteFunction(build_mesh(0.0, 2.0, 4), np.ones(4))
        with pytest.raises(DimensionError):
            gagliardo_seminorm(u, mat)

    def test_wrong_kind(self):
        mesh = build_mesh(0.0, 1.0, 4)
        with pytest.raises(ParameterError):
            gagliardo_seminorm(DiscreteFunction(mesh, np.ones(4)), assemble_mass(mesh))


class TestDiscreteFunction:
    def test_zero_extension(self):
        mesh = build_mesh(0.0, 1.0, 3)
        u = DiscreteFunction(mesh, np.array([1.0, 2.0, 1.0]))
        assert u(-0.5) == 0.0 and u(1.5) == 0.0 and u(0.0) == 0.0
        assert u(0.5) == 2.0
        assert u(0.375) == pytest.approx(1.5)

    def test_kind_tags(self):
        mesh = build_mesh(0.0, 1.0, 2)
        assert assemble_mass(mesh).kind is Kind.MASS
        assert assemble_local_stiffness(mesh).kind is Kind.LOCAL_STIFFNESS
        frac = assemble_fractional_stiffness(mesh, 0.5)
        assert frac.kind is Kind.FRACTIONAL_STIFFNESS and frac.s == 0.5


class TestLpNorm:
    def test_normalized_constant(self):
        w = np.array([0.2, 0.3, 0.5])
        for p in (1.0, 2.0, 3.5, math.inf):
            assert lp_norm(np.ones(3), w, p) == pytest.approx(1.0, rel=1e-15)

    def test_pythagorean(self):
        assert lp_norm([3.0, 4.0], [1.0, 1.0], 2.0) == pytest.approx(5.0, rel=1e-15)

    def test_sum(self):
        assert lp_norm([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 1.0) == 6.0

    def test_sup(self):
        assert lp_norm([1.0, -7.0, 3.0], [1.0, 1.0, 1.0], math.inf) == 7.0

    def test_errors(self):
        with pytest.raises(ParameterError):
            lp_norm([1.0], [1.0], 0.5)
        with pytest.raises(MeasureError):
            lp_norm([1.0, 1.0], [1.0, -1.0], 2.0)
        with pytest.raises(DimensionError):
            lp_norm([1.0, 1.0], [1.0], 2.0)

    def test_lanes_equal_one_lane_calls(self):
        # numpy squares instead of calling pow for some layouts of an exponent of 2,
        # so 2 is among the exponents, and the lanes are many enough to meet a
        # sample where the two differ in the last bit
        rng = np.random.default_rng(3)
        f = rng.standard_normal((60, 11))
        w = np.exp(rng.uniform(-1, 1, (60, 11)))
        p = np.resize([1.0, 1.5, 2.0, 3.0, 8.0, math.inf], 60)
        got = lp_norm(f, w, p)
        assert got.shape == (60,)
        assert all(got[i] == lp_norm(f[i], w[i], p[i]) for i in range(60))
        assert np.array_equal(lp_norm(f, w, 2.0), [lp_norm(f[i], w[i], 2.0) for i in range(60)])
        with pytest.raises(DimensionError):
            lp_norm(f, w, p[:59])


def _lebesgue_lanes(seed, lanes, size):
    """Random lanes of the Lebesgue check: samples, weights and exponents 1 <= p <= r <= q <= inf."""
    rng = np.random.default_rng(seed)
    f = np.abs(rng.standard_normal((lanes, size))) * (rng.random((lanes, size)) < 0.8)
    w = np.exp(rng.uniform(-2.0, 2.0, (lanes, size)))
    pq = np.sort(np.array([1.0, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf])[rng.integers(0, 7, (lanes, 2))])
    p, q = pq[:, 0], pq[:, 1]
    lo, hi = np.log(np.minimum(p, 64.0)), np.log(np.minimum(q, 64.0))
    r = np.where(p == q, p, np.clip(np.exp(rng.uniform(lo, hi)), p, q))
    return f, w, p, q, r


class TestLebesgueInterpolation:
    def test_constant_equality(self):
        rep = check_lebesgue_interpolation(np.full(5, 2.3), np.full(5, 0.2), 1.0, 4.0, 2.0)
        assert rep.holds and rep.lhs == pytest.approx(rep.rhs, abs=1e-13)

    def test_indicator_equality(self):
        f = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        w = np.array([0.1, 0.25, 0.15, 0.3, 0.2])  # block mass 0.5, total 1
        rep = check_lebesgue_interpolation(f, w, 1.5, 6.0, 3.0)
        assert abs(rep.lhs - rep.rhs) <= 1e-12

    def test_strict_inequality(self):
        rep = check_lebesgue_interpolation([1.0, 10.0], [0.5, 0.5], 1.0, 4.0, 2.0)
        assert rep.holds and rep.lhs < rep.rhs
        # cross-check both sides independently
        s = (1.0 / 2.0 - 1.0 / 4.0) / (1.0 / 1.0 - 1.0 / 4.0)
        assert rep.inputs["s"] == pytest.approx(s, rel=1e-15)
        assert rep.op == "lebesgue_interpolation" and rep.tolerance == 1e-12
        assert rep.ratio == rep.lhs / rep.rhs
        lhs = math.sqrt(0.5 * (1 + 100))
        rhs = (0.5 * (1 + 10**4)) ** ((1 - s) / 4) * (0.5 * 11) ** s
        assert rep.lhs == pytest.approx(lhs, rel=1e-14)
        assert rep.rhs == pytest.approx(rhs, rel=1e-14)

    def test_infinite_q(self):
        rep = check_lebesgue_interpolation([1.0, 2.0, 0.5], [0.3, 0.3, 0.4], 1.0, math.inf, 2.0)
        assert rep.holds and rep.inputs["s"] == pytest.approx(0.5)

    def test_random_sweep(self):
        rng = np.random.default_rng(11)
        exps = [1.0, 1.5, 2.0, 4.0, math.inf]
        for _ in range(200):
            f = np.abs(rng.standard_normal(6))
            w = np.exp(rng.uniform(-1, 1, 6))
            p, q = sorted(rng.choice(exps, 2))
            r = p if p == q else min(q, p + (min(q, 32.0) - p) * rng.uniform())
            assert check_lebesgue_interpolation(f, w, p, q, r).holds

    def test_ordering_error(self):
        with pytest.raises(OrderingError):
            check_lebesgue_interpolation([1.0], [1.0], 2.0, 4.0, 1.5)
        with pytest.raises(OrderingError):
            check_lebesgue_interpolation([1.0], [1.0], 2.0, 4.0, 5.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 12), size=st.integers(1, 11))
    def test_lanes_equal_one_lane_calls(self, seed, lanes, size):
        f, w, p, q, r = _lebesgue_lanes(seed, lanes, size)
        rep = check_lebesgue_interpolation(f, w, p, q, r)
        for i in range(lanes):
            one = check_lebesgue_interpolation(f[i], w[i], p[i], q[i], r[i])
            assert (rep.lhs[i], rep.rhs[i], rep.holds[i]) == (one.lhs, one.rhs, one.holds)
            assert (rep.ratio[i], rep.inputs["s"][i]) == (one.ratio, one.inputs["s"])

    @pytest.mark.parametrize("bad", ["p below 1", "p above r", "weight zero", "weight negative"])
    def test_any_bad_lane_raises(self, bad):
        f, w, p, q, r = _lebesgue_lanes(4, 6, 5)
        p, r, w = p.copy(), r.copy(), w.copy()
        error = {"p below 1": ParameterError, "p above r": OrderingError}.get(bad, MeasureError)
        if bad == "p below 1":
            p[3] = 0.5
        elif bad == "p above r":
            p[3], r[3] = 4.0, 2.0
        else:
            w[3, 2] = 0.0 if bad == "weight zero" else -1.0
        with pytest.raises(error):
            check_lebesgue_interpolation(f, w, p, q, r)
