import math

import numpy as np
import pytest

from mixspec import build_mesh, interpolation, spectral, verify


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
