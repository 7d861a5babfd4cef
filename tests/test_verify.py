import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixspec import build_mesh, exchange, fem, interpolation, spectral, verify


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.integers(1, 10), min_size=1, max_size=16))
def test_stacked_grams_equal_one_matrix_builds(seed, dims):
    """One stacked QR and product per dimension give each Gram's bits and use the generator alike."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    grams = verify._spd_grams([verify._spd_draw(dim, rng) for dim in dims])
    for dim, gram in zip(dims, grams):
        q, _ = np.linalg.qr(ref.standard_normal((dim, dim)))
        vals = np.exp(ref.uniform(-math.log(10.0), math.log(10.0), dim))
        assert np.array_equal(gram, q @ np.diag(vals) @ q.T)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_exponent_draw_is_the_choice_draw():
    # suite_lebesgue draws its two exponents by integers(0, 7, size=2), which
    # numpy's choice(exps, size=2, replace=True) makes inside: same values, same state
    exps = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf]
    for seed in range(100):
        a, b = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
        for _ in range(50):
            assert np.array_equal(a.choice(exps, size=2, replace=True),
                                  np.array(exps)[b.integers(0, 7, size=2)])
            assert a.bit_generator.state == b.bit_generator.state


def _loop_k_samples(rng):
    """The sample part of ``suite_k_functional`` as a case-by-case loop (after its curves)."""
    details = {"samples": 0}
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        couple = interpolation.couple_from_grams(verify._random_spd(dim, rng),
                                                 verify._random_spd(dim, rng))
        f = rng.standard_normal(dim)
        x = float(np.exp(rng.uniform(-6.0, 6.0)))
        k = interpolation.k_functional(couple, f, x)
        k2 = interpolation.k2_functional(couple, f, x)
        if not (k2 <= k * (1 + 1e-9) and k <= math.sqrt(2.0) * k2 * (1 + 1e-9)):
            return details, {"check": "bracketing", "x": x, "K": k, "K2": k2}
        rep = interpolation.symmetry_check(couple, f, x)
        if not rep.holds:
            return details, {"check": "symmetry", "x": x, "discrepancy": rep.ratio}
        details["samples"] += 1
    return details, None


def _skip_curves(rng):
    for _ in range(12):
        dim = int(rng.integers(2, 9))
        verify._random_spd(dim, rng)
        verify._random_spd(dim, rng)
        rng.standard_normal(dim)


def _sample_xs(seed):
    rng = np.random.default_rng([seed, 3])
    _skip_curves(rng)
    xs = []
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        verify._random_spd(dim, rng)
        verify._random_spd(dim, rng)
        rng.standard_normal(dim)
        xs.append(float(np.exp(rng.uniform(-6.0, 6.0))))
    return xs


@pytest.mark.parametrize("check, j", [("bracketing", 17), ("symmetry", 404)])
def test_k_suite_reports_the_first_failing_case(monkeypatch, check, j):
    """A K wrong at case j only: the batch reports what the loop reported."""
    seed = 5
    x_j = _sample_xs(seed)[j]
    # twice K breaks the bracketing at x_j; K(1/x_j) off by half breaks only the symmetry
    target, factor = (x_j, 2.0) if check == "bracketing" else (1.0 / x_j, 1.5)
    kernel = interpolation._k_samples_from_modes

    def wrong_at_case_j(mu, c, xs):
        out = kernel(mu, c, xs)
        return np.where(np.broadcast_to(xs, out.shape) == target, factor * out, out)

    monkeypatch.setattr(interpolation, "_k_samples_from_modes", wrong_at_case_j)
    batched = verify.suite_k_functional(np.random.default_rng([seed, 3]))
    loop_rng = np.random.default_rng([seed, 3])
    _skip_curves(loop_rng)
    details, counterexample = _loop_k_samples(loop_rng)

    assert not batched["passed"]
    assert batched["details"] == {"curves": 12, "samples": j} and details["samples"] == j
    got = batched["counterexample"]
    assert got["check"] == counterexample["check"] == check
    assert got.keys() == counterexample.keys()
    assert got["x"] == counterexample["x"] == x_j
    for key in set(got) - {"check", "x"}:
        assert got[key] == pytest.approx(counterexample[key], rel=1e-9)


def test_k_suite_passes_as_the_loop_does():
    batched = verify.suite_k_functional(np.random.default_rng([0, 3]))
    loop_rng = np.random.default_rng([0, 3])
    _skip_curves(loop_rng)
    assert batched["passed"]
    assert batched["details"] == {"curves": 12, "samples": 1000}
    assert _loop_k_samples(loop_rng) == ({"samples": 1000}, None)


def test_spectrum_suite_alpha0_solve_is_the_base_pencil():
    # the suite reuses its alpha = 0 solve for the reduction check, which is
    # only the same solve while both pencils hold the same A_alpha bits
    base = spectral.assemble_pencil(build_mesh(0.0, 1.0, 63), 0.5, 0.0)
    assert np.array_equal(base.with_alpha(0.0).a_alpha, base.a_alpha)
    assert base.with_alpha(0.0).alpha == base.alpha


def test_spectrum_suite_draws_nothing():
    # every check of the suite is exact, so its result is the same for any seed
    a, b = np.random.default_rng([0, 6]), np.random.default_rng([7, 6])
    state = a.bit_generator.state
    result = verify.suite_spectrum_contract(a)
    assert result["passed"]
    assert result == verify.suite_spectrum_contract(b)
    assert a.bit_generator.state == state


def test_subset_rows_equal_the_full_run():
    # a suite draws by its place in SUITES, not in the chosen list, so a subset
    # run in any order repeats the full run's rows byte for byte
    full = {row["name"]: exchange.dumps_json(row) for row in verify.run_suites(0)["suites"]}
    for names in (["interpolation_norms", "operator_interpolation"],
                  ["operator_interpolation", "interpolation_norms"], ["brezis_stability"]):
        rows = verify.run_suites(0, names)["suites"]
        assert [row["name"] for row in rows] == names
        assert all(exchange.dumps_json(row) == full[row["name"]] for row in rows)


def _lebesgue_cases(seed):
    """The 1000 drawn cases of ``suite_lebesgue``, drawn as a case-by-case loop with ``choice``."""
    rng = np.random.default_rng([seed, 2])
    exps = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf]
    cases = []
    for _ in range(1000):
        size = int(rng.integers(2, 12))
        f = np.abs(rng.standard_normal(size)) * np.exp(rng.uniform(-2, 2))
        w = np.exp(rng.uniform(-2.0, 2.0, size))
        p, q = sorted(rng.choice(exps, size=2, replace=True))
        r = p if p == q else float(np.clip(np.exp(rng.uniform(np.log(p), np.log(min(q, 64.0)))), p, q))
        cases.append((f, w, p, q, r))
    return cases


def _loop_lebesgue(cases):
    """The drawn part of ``suite_lebesgue`` as a case-by-case loop of one-lane checks."""
    for checked, (f, w, p, q, r) in enumerate(cases, 1):
        rep = fem.check_lebesgue_interpolation(f, w, p, q, r)
        if not rep.holds:
            return {"checked": checked}, {"p": p, "q": q, "r": r, "lhs": rep.lhs, "rhs": rep.rhs}
    return {"checked": len(cases)}, None


@pytest.mark.parametrize("wrong", [(23,), (613,), (613, 709)])
def test_lebesgue_suite_reports_the_first_failing_case(monkeypatch, wrong):
    """A checker wrong at the given cases only: the batch reports what the loop reported.

    Case 709 has fewer samples than case 613, so its lane call runs first.
    """
    seed = 5
    cases = _lebesgue_cases(seed)
    j = wrong[0]
    targets = [(cases[i][0], cases[i][4]) for i in wrong]
    assert all(cases[i][2] < cases[i][4] < cases[i][3] for i in wrong)  # only lhs, the r-norm, goes wrong
    lp_norm = fem.lp_norm

    def wrong_at_cases(samples, weights, p):
        out = lp_norm(samples, weights, p)
        rows = np.asarray(samples)
        for f_i, r_i in targets:
            if rows.shape[-1] == f_i.size:
                out = np.where(np.all(rows == f_i, axis=-1) & (np.asarray(p) == r_i), 4.0 * out, out)
        return out

    monkeypatch.setattr(fem, "lp_norm", wrong_at_cases)
    batched = verify.suite_lebesgue(np.random.default_rng([seed, 2]))
    details, counterexample = _loop_lebesgue(cases)

    assert not batched["passed"]
    assert batched["details"] == details == {"checked": j + 1}
    assert batched["counterexample"] == counterexample
    assert counterexample["r"] == cases[j][4] and counterexample["lhs"] > counterexample["rhs"]


def test_lebesgue_suite_passes_as_the_loop_does():
    batched = verify.suite_lebesgue(np.random.default_rng([0, 2]))
    assert batched["passed"] and batched["details"] == {"checked": 1000}
    assert _loop_lebesgue(_lebesgue_cases(0)) == ({"checked": 1000}, None)
