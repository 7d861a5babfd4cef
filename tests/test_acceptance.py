"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is produced by an independent route
(brute-force quadrature, grid search, power iteration, closed forms, or the
continuum Dirichlet eigenvalues), never by the code path under test.
"""

import math
import time

import numpy as np

from mixspec import (
    assemble_fractional_stiffness,
    assemble_pencil,
    build_mesh,
    check_lebesgue_interpolation,
    check_operator_interpolation,
    couple_from_grams,
    embedding_constant,
    gamma_shift,
    interpolation_norm,
    k2_functional,
    k_functional,
    locate_threshold,
    solve_spectrum,
    spectral_s_norm,
    symmetry_check,
    verify_brezis_inequality,
    verify_variational_characterization,
)
from mixspec.cli import main
from mixspec.reference import fractional_matrix_quadrature, k_functional_grid_search


def _announce(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def random_spd(dim, rng, spread=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.exp(rng.uniform(-math.log(spread), math.log(spread), dim))
    return q @ np.diag(vals) @ q.T


def test_fractional_assembly_oracle():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 4, 8):
        for s in (0.25, 0.5, 0.75):
            mesh = build_mesh(0.0, 1.0, n)
            fast = assemble_fractional_stiffness(mesh, s)
            slow = fractional_matrix_quadrature(mesh, s)
            worst = max(worst, float(np.max(np.abs(fast.data - slow) / np.abs(slow))))
            col = fast.data[:, 0]
            for d in range(n):
                assert np.all(np.diagonal(fast.data, d) == col[d]), "Toeplitz violated"
            min_eig = np.linalg.eigvalsh(fast.data)[0]
            assert min_eig >= -1e-10 * np.max(np.abs(fast.data)), "PSD violated"
    elapsed = time.monotonic() - start
    _announce(
        "fractional assembly oracle",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst rel={worst:.3e}, {elapsed:.1f}s",
    )


def test_scaling_law():
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        a_unit = assemble_fractional_stiffness(build_mesh(0.0, 1.0, 6), s).data
        a_two = assemble_fractional_stiffness(build_mesh(0.0, 2.0, 6), s).data
        worst = max(worst, float(np.max(np.abs(a_two / a_unit - 2.0 ** (1 - 2 * s)))))
    _announce("scaling law", worst <= 1e-10, f"worst dev={worst:.3e}")


def test_k_functional_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst_oracle = 0.0
    for _ in range(20):
        g_x, g_y = random_spd(3, rng), random_spd(3, rng)
        couple = couple_from_grams(g_x, g_y)
        f = rng.standard_normal(3)
        x = float(np.exp(rng.uniform(-1.5, 1.5)))
        diff = abs(k_functional(couple, f, x) - k_functional_grid_search(g_x, g_y, f, x))
        worst_oracle = max(worst_oracle, diff)

    worst_bracket = -math.inf
    worst_symmetry = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        couple = couple_from_grams(random_spd(dim, rng), random_spd(dim, rng))
        f = rng.standard_normal(dim)
        x = float(np.exp(rng.uniform(-6.0, 6.0)))
        k = k_functional(couple, f, x)
        k2 = k2_functional(couple, f, x)
        worst_bracket = max(worst_bracket, k2 - k, k - math.sqrt(2.0) * k2)
        worst_symmetry = max(worst_symmetry, symmetry_check(couple, f, x).ratio)
    elapsed = time.monotonic() - start
    ok = worst_oracle <= 1e-3 and worst_bracket <= 1e-9 and worst_symmetry <= 1e-9 and elapsed < 60.0
    _announce(
        "K-functional correctness",
        ok,
        f"oracle={worst_oracle:.2e}, bracket={worst_bracket:.2e}, "
        f"symmetry={worst_symmetry:.2e}, {elapsed:.1f}s",
    )


def test_interpolation_norm_closed_form():
    rng = np.random.default_rng(200)
    worst = 0.0
    for trial in range(100):
        dim = int(rng.integers(2, 9))
        couple = couple_from_grams(random_spd(dim, rng), random_spd(dim, rng))
        f = rng.standard_normal(dim)
        s = (0.25, 0.5, 0.75)[trial % 3]
        got = interpolation_norm(couple, f, s, 2, "K2")
        ref = spectral_s_norm(couple, f, s)
        worst = max(worst, abs(got - ref) / ref)
    _announce("interpolation-norm closed form", worst <= 1e-5, f"worst rel={worst:.3e}")


def test_norm_symmetry():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(4):
        couple = couple_from_grams(random_spd(5, rng), random_spd(5, rng))
        swapped = couple.swapped()
        f = rng.standard_normal(5)
        for s in (0.25, 0.5, 0.75):
            for p in (1.0, 2.0, math.inf):
                a = interpolation_norm(couple, f, s, p, "K")
                b = interpolation_norm(swapped, f, 1.0 - s, p, "K")
                worst = max(worst, abs(a - b) / a)
    _announce("norm symmetry", worst <= 1e-6, f"worst rel={worst:.3e}")


def test_operator_interpolation_bound():
    rng = np.random.default_rng(400)
    worst_ratio = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 11))
        c0 = couple_from_grams(random_spd(dim, rng), random_spd(dim, rng))
        c1 = couple_from_grams(random_spd(dim, rng), random_spd(dim, rng))
        t_mat = rng.standard_normal((dim, dim))
        s = float(rng.uniform(0.05, 0.95))
        rep = check_operator_interpolation(t_mat, c0, c1, s, 2, "K2")
        worst_ratio = max(worst_ratio, rep.ratio)
        assert rep.holds, f"bound violated: ratio={rep.ratio}"
    couple = couple_from_grams(random_spd(6, rng), random_spd(6, rng))
    tight = check_operator_interpolation(2.0 * np.eye(6), couple, couple, 0.45, 2, "K2")
    tight_gap = abs(tight.lhs - tight.rhs) / tight.rhs
    ok = worst_ratio <= 1.0 + 1e-8 and tight_gap <= 1e-10
    _announce(
        "operator interpolation bound", ok,
        f"worst ratio-1={worst_ratio - 1:.2e}, tight gap={tight_gap:.2e}",
    )


def test_lebesgue_interpolation_inequality():
    rng = np.random.default_rng(500)
    exps = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf]
    for _ in range(1000):
        size = int(rng.integers(2, 12))
        f = np.abs(rng.standard_normal(size)) * np.exp(rng.uniform(-2, 2))
        w = np.exp(rng.uniform(-2.0, 2.0, size))
        p, q = sorted(rng.choice(exps, 2))
        r = p if p == q else float(np.clip(
            np.exp(rng.uniform(np.log(p), np.log(min(q, 64.0)))), p, q))
        rep = check_lebesgue_interpolation(f, w, p, q, r)
        assert rep.holds, f"violated at p={p}, q={q}, r={r}"
    w = np.full(5, 0.2)
    const = check_lebesgue_interpolation(np.full(5, 1.3), w, 1.0, 5.0, 2.0)
    gap_const = abs(const.lhs - const.rhs)
    ind = check_lebesgue_interpolation(
        np.array([1.0, 1.0, 0.0, 0.0, 0.0]), w, 1.5, 6.0, 3.0
    )
    gap_ind = abs(ind.lhs - ind.rhs)
    ok = gap_const <= 1e-12 and gap_ind <= 1e-12
    _announce(
        "Lebesgue interpolation inequality", ok,
        f"equality gaps: constant={gap_const:.2e}, indicator={gap_ind:.2e}",
    )


def test_spectral_baseline():
    start = time.monotonic()
    pencil = assemble_pencil(build_mesh(0.0, 1.0, 511), 0.5, 0.0)
    result = solve_spectrum(pencil, 3)
    elapsed = time.monotonic() - start
    rels = [abs(result.lambdas[k] - ((k + 1) * math.pi) ** 2) / ((k + 1) * math.pi) ** 2
            for k in range(3)]
    ok = rels[0] <= 1e-3 and rels[1] <= 5e-3 and rels[2] <= 1e-2 and elapsed < 10.0
    _announce(
        "spectral baseline", ok,
        f"rel errors={[f'{r:.2e}' for r in rels]}, {elapsed:.1f}s",
    )


def test_spectral_solver_contract_suite():
    mesh = build_mesh(0.0, 1.0, 63)
    base = assemble_pencil(mesh, 0.5, 0.0)
    c_h = embedding_constant(base)
    mass = base.mass.data
    for alpha in (-50.0, -1.1 / c_h, -0.5 / c_h, 0.0, 1.0, 10.0):
        pencil = base.with_alpha(alpha)
        res = solve_spectrum(pencil, 5)
        assert np.all(np.diff(res.lambdas) >= 0.0), f"not ascending at alpha={alpha}"
        assert res.lambdas[0] > -res.gamma, f"lower bound failed at alpha={alpha}"
        v = res.vectors
        assert np.max(np.abs(v.T @ mass @ v - np.eye(5))) <= 1e-8
        b_mat = v.T @ pencil.a_alpha @ v
        off = np.max(np.abs(b_mat - np.diag(np.diag(b_mat))))
        assert off <= 1e-6 * np.max(np.abs(np.diag(b_mat)))
        var = verify_variational_characterization(res, pencil)
        assert var["holds"], f"variational check failed at alpha={alpha}"

    mesh32 = build_mesh(0.0, 1.0, 32)
    base32 = assemble_pencil(mesh32, 0.5, 0.0)
    c32 = embedding_constant(base32)
    worst = 0.0
    for alpha in (-50.0, -1.1 / c32, -0.5 / c32, 0.0, 1.0, 10.0):
        pencil = base32.with_alpha(alpha)
        res = solve_spectrum(pencil, 5)
        resolvent = np.linalg.solve(pencil.a_alpha + res.gamma * base32.mass.data,
                                    base32.mass.data)
        mu = np.sort(np.linalg.eigvals(resolvent).real)[::-1][:5]
        worst = max(worst, float(np.max(
            np.abs(1.0 / mu - res.gamma - res.lambdas) / (1.0 + np.abs(res.lambdas))
        )))
    _announce("spectral solver contract suite", worst <= 1e-9, f"resolvent worst={worst:.2e}")


def test_coercivity_threshold():
    mesh = build_mesh(0.0, 1.0, 63)
    certified = [locate_threshold(assemble_pencil(mesh, s, 0.0))["holds"] for s in (0.3, 0.5, 0.7)]
    _announce("coercivity threshold", all(certified),
              f"|a*+1/C|*C <= 1e-8 certified for s = 0.3, 0.5, 0.7: {certified}")


def test_gamma_shift_validity():
    mesh = build_mesh(0.0, 1.0, 63)
    base = assemble_pencil(mesh, 0.5, 0.0)
    c_h = embedding_constant(base)
    worst = 0.0
    for alpha in (-50.0, -10.0, -1.5 / c_h, -1.1 / c_h, -1.0 / c_h, -0.5 / c_h, -0.01):
        pencil = base.with_alpha(alpha)
        gamma = gamma_shift(pencil)
        shifted = pencil.a_alpha + gamma * base.mass.data - 0.5 * base.a_loc.data
        scale = float(np.max(np.abs(pencil.a_alpha)))
        min_eig = float(np.linalg.eigvalsh(shifted)[0])
        worst = min(worst, min_eig / scale) if scale else worst
        assert min_eig >= -1e-10 * scale, f"shift not PSD at alpha={alpha}"
    zeros_exact = all(gamma_shift(base.with_alpha(a)) == 0.0 for a in (0.0, 0.7, 5.0, 300.0))
    _announce(
        "gamma-shift validity", zeros_exact,
        f"worst scaled min eig={worst:.2e}, gamma(alpha>=0)=0 exact={zeros_exact}",
    )


def test_brezis_ratio_stability():
    # C_B bounds the Brezis ratio; it must stay below the continuum constant
    # and rise on the nested meshes 15, 31, 63, 127
    constants = []
    for n in (15, 31, 63, 127):
        rep = verify_brezis_inequality(assemble_pencil(build_mesh(0.0, 1.0, n), 0.5, 0.0))
        assert math.isfinite(rep.lhs) and rep.holds
        constants.append(rep.lhs)
    spread = (max(constants) - min(constants)) / min(constants)
    _announce(
        "Brezis-type ratio stability", spread < 0.2 and constants == sorted(constants),
        f"constants={[f'{c:.4f}' for c in constants]}, spread={spread:.3f}",
    )


def test_end_to_end_verify(tmp_path):
    start = time.monotonic()
    code1 = main(["verify", "--seed", "0", "--out", str(tmp_path / "r1")])
    elapsed = time.monotonic() - start
    code2 = main(["verify", "--seed", "0", "--out", str(tmp_path / "r2")])
    same = ((tmp_path / "r1" / "verify_report.json").read_bytes()
            == (tmp_path / "r2" / "verify_report.json").read_bytes())
    ok = code1 == 0 and code2 == 0 and same and elapsed < 60.0
    _announce(
        "end-to-end verify", ok,
        f"exit={code1}, byte-identical={same}, {elapsed:.1f}s",
    )
