"""Desk-scale invariant suites behind the ``verify`` command.

Every suite re-checks the documented contracts of one area at sizes small
enough to finish in seconds (n <= 64 meshes, couples of dimension <= 10),
drawing all randomness from a seeded generator so reruns are
byte-reproducible.  A loop over drawn cases makes its generator calls first,
in the order a case-by-case loop makes them, and then checks the cases in
batches: the random Grams of one dimension come from one stacked build, and
lane calls take many cases at once.  A suite reports its first
counterexample in draw order and serializes it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import exchange, interpolation, reference, spectral
from . import fem

__all__ = ["SUITES", "run_suites", "check_matrix_file"]


def _result(name, details, counterexample=None):
    return {
        "name": name,
        "passed": counterexample is None,
        "details": details,
        "counterexample": counterexample,
    }


def _spd_draw(dim, rng, spread=10.0):
    """The generator calls of one random SPD Gram: a normal dim x dim matrix, then its eigenvalues."""
    return (rng.standard_normal((dim, dim)),
            np.exp(rng.uniform(-math.log(spread), math.log(spread), dim)))


def _spd_grams(draws):
    """The Grams q diag(vals) q^T of ``_spd_draw`` draws, in draw order.

    The draws of one dimension share one stacked QR and one stacked product.
    Each Gram equals the one-matrix QR and product bit for bit, which
    ``tests/test_verify.py`` holds as a property.
    """
    dims = np.array([vals.size for _, vals in draws])
    grams = [None] * len(draws)
    for dim in np.unique(dims):
        idx = np.flatnonzero(dims == dim)
        q, _ = np.linalg.qr(np.stack([draws[i][0] for i in idx]))
        vals = np.stack([draws[i][1] for i in idx])
        for i, gram in zip(idx, (q * vals[:, None, :]) @ np.swapaxes(q, -1, -2)):
            grams[i] = gram
    return grams


def _random_spd(dim, rng, spread=10.0):
    return _spd_grams([_spd_draw(dim, rng, spread)])[0]


# ----------------------------------------------------------------------------
# fem suites
# ----------------------------------------------------------------------------

def suite_fem_structure(rng):
    name = "fem_structure"
    details = {}
    mesh = fem.build_mesh(0.0, 1.0, 16)
    mass = fem.assemble_mass(mesh).data
    loc = fem.assemble_local_stiffness(mesh).data
    h = mesh.h
    if not (np.allclose(np.diag(mass), 2 * h / 3, rtol=0, atol=0)
            and np.allclose(np.diag(mass, 1), h / 6, rtol=0, atol=0)):
        return _result(name, details, {"check": "mass closed form"})
    if abs(np.sum(mass[8]) - h) > 1e-15:
        return _result(name, details, {"check": "mass interior row sum", "value": float(np.sum(mass[8]))})
    if abs(np.sum(loc[8])) > 1e-12 / h:
        return _result(name, details, {"check": "stiffness interior row sum"})

    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        for n in (7, 31, 64):
            mesh = fem.build_mesh(0.0, 1.0, n)
            mat = fem.assemble_fractional_stiffness(mesh, s)
            again = fem.assemble_fractional_stiffness(mesh, s)
            if not np.array_equal(mat.data, again.data):
                return _result(name, details, {"check": "determinism", "n": n, "s": s})
            failure = _toeplitz_psd_failure(mat.data, n=n, s=s)
            if failure:
                return _result(name, details, failure)
        a1 = fem.assemble_fractional_stiffness(fem.build_mesh(0.0, 1.0, 6), s).data
        a2 = fem.assemble_fractional_stiffness(fem.build_mesh(0.0, 2.0, 6), s).data
        dev = float(np.max(np.abs(a2 / a1 - 2.0 ** (1.0 - 2.0 * s))))
        details[f"scaling_dev_s={s}"] = dev
        if dev > 1e-10:
            return _result(name, details, {"check": "scaling", "s": s, "dev": dev})
    return _result(name, details)


def _toeplitz_psd_failure(data, **where):
    """Counterexample of a fractional stiffness matrix (Toeplitz, PSD to rounding), or None."""
    col = data[:, 0]
    for d in range(data.shape[0]):
        if np.any(np.diagonal(data, d) != col[d]):
            return {"check": "toeplitz", **where, "offset": d}
    min_eig = float(np.linalg.eigvalsh(data)[0])
    if min_eig < -1e-10 * float(np.max(np.abs(data))):
        return {"check": "psd", **where, "min_eig": min_eig}
    return None


def suite_fem_oracle(rng):
    name = "fem_oracle"
    details = {}
    for n, s in ((4, 0.5), (2, 0.75), (3, 0.25)):
        mesh = fem.build_mesh(0.0, 1.0, n)
        fast = fem.assemble_fractional_stiffness(mesh, s).data
        slow = reference.fractional_matrix_quadrature(mesh, s)
        rel = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
        details[f"rel_n={n}_s={s}"] = rel
        if rel > 1e-6:
            return _result(name, details, {"check": "oracle agreement", "n": n, "s": s, "rel": rel})
    mesh = fem.build_mesh(0.0, 1.0, 4)
    u = rng.standard_normal(4)
    mat = fem.assemble_fractional_stiffness(mesh, 0.3)
    fast = fem.gagliardo_seminorm(fem.DiscreteFunction(mesh, u), mat)
    slow = math.sqrt(reference.gagliardo_form_quadrature(mesh, u, u, 0.3))
    rel = abs(fast - slow) / slow
    details["seminorm_rel"] = rel
    if rel > 1e-5:
        return _result(name, details, {"check": "seminorm oracle", "rel": rel})
    return _result(name, details)


def suite_lebesgue(rng):
    name = "lebesgue"
    exps = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf])
    # the cases of one size go through one lane call
    sizes, fs, ws, exponents = [], [], [], []
    for _ in range(1000):
        size = int(rng.integers(2, 12))
        sizes.append(size)
        fs.append(np.abs(rng.standard_normal(size)) * np.exp(rng.uniform(-2, 2)))
        ws.append(np.exp(rng.uniform(-2.0, 2.0, size)))
        # the draw rng.choice(exps, size=2, replace=True) makes, without its overhead
        p, q = sorted(exps[rng.integers(0, 7, size=2)])
        r = p if p == q else float(np.clip(np.exp(rng.uniform(np.log(p), np.log(min(q, 64.0)))), p, q))
        exponents.append((p, q, r))
    sizes, exponents = np.array(sizes), np.array(exponents)
    holds, lhs, rhs = np.empty(len(sizes), dtype=bool), np.empty(len(sizes)), np.empty(len(sizes))
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        rep = fem.check_lebesgue_interpolation(np.stack([fs[i] for i in group]),
                                               np.stack([ws[i] for i in group]), *exponents[group].T)
        holds[group], lhs[group], rhs[group] = rep.holds, rep.lhs, rep.rhs
    if not holds.all():
        i = int(np.flatnonzero(~holds)[0])  # the first failing case in draw order
        p, q, r = exponents[i].tolist()
        return _result(name, {"checked": i + 1},
                       {"p": p, "q": q, "r": r, "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    checked = len(sizes)
    # equality cases: constants on unit mass, indicators of sub-blocks
    w = np.full(4, 0.25)
    rep = fem.check_lebesgue_interpolation(np.full(4, 3.7), w, 1.0, 4.0, 2.0)
    if abs(rep.lhs - rep.rhs) > 1e-12:
        return _result(name, {"checked": checked}, {"case": "constant", "gap": rep.lhs - rep.rhs})
    f = np.array([1.0, 1.0, 0.0, 0.0])
    rep = fem.check_lebesgue_interpolation(f, w, 1.0, 4.0, 2.0)
    if abs(rep.lhs - rep.rhs) > 1e-12:
        return _result(name, {"checked": checked}, {"case": "indicator", "gap": rep.lhs - rep.rhs})
    return _result(name, {"checked": checked})


# ----------------------------------------------------------------------------
# interpolation suites
# ----------------------------------------------------------------------------

def suite_k_functional(rng):
    name = "k_functional"
    details = {"curves": 0, "samples": 0}
    xs_grid = np.geomspace(1e-6, 1e6, 64)
    draws, fs = [], []
    for _ in range(12):
        dim = int(rng.integers(2, 9))
        draws += [_spd_draw(dim, rng), _spd_draw(dim, rng)]
        fs.append(rng.standard_normal(dim))
    grams = _spd_grams(draws)
    for g_x, g_y, f in zip(grams[0::2], grams[1::2], fs):
        couple = interpolation.couple_from_grams(g_x, g_y)
        ks = interpolation.k_functional_samples(couple, f, xs_grid)
        bound = np.minimum(couple.norm_x(f), xs_grid * couple.norm_y(f))
        if np.any(np.diff(ks) < -1e-9 * ks[1:]):
            return _result(name, details, {"check": "K nondecreasing"})
        ratio = ks / xs_grid
        if np.any(np.diff(ratio) > 1e-9 * ratio[:-1]):
            return _result(name, details, {"check": "K/x nonincreasing"})
        if np.any(ks > bound + 1e-10 * np.maximum(bound, 1e-300)):
            return _result(name, details, {"check": "K <= min bound"})
        k2s = interpolation.k2_functional_samples(couple, f, xs_grid)
        if np.any(k2s > ks * (1 + 1e-9)) or np.any(ks > math.sqrt(2.0) * k2s + 1e-9 * np.max(ks)):
            return _result(name, details, {"check": "bracketing on curve"})
        details["curves"] += 1
    # the samples run as the lanes of one couple, grouped by dimension, and
    # lanes[j] is the case on lane j
    cases, draws = [], []
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        draws += [_spd_draw(dim, rng), _spd_draw(dim, rng)]
        cases.append((dim, rng.standard_normal(dim), float(np.exp(rng.uniform(-6.0, 6.0)))))
    grams = _spd_grams(draws)
    dims = np.array([case[0] for case in cases])
    groups = [np.flatnonzero(dims == dim) for dim in np.unique(dims)]
    lanes = np.concatenate(groups)
    couple = interpolation.stack_couples([
        interpolation.couple_from_grams([grams[2 * i] for i in group], [grams[2 * i + 1] for i in group])
        for group in groups])
    f = np.zeros(couple.mu.shape)
    for lane, i in enumerate(lanes):
        f[lane, :dims[i]] = cases[i][1]
    x = np.array([cases[i][2] for i in lanes])
    k = interpolation.k_functional(couple, f, x)
    k2 = interpolation.k2_functional(couple, f, x)
    rep = interpolation.symmetry_check(couple, f, x)
    bracketed = (k2 <= k * (1 + 1e-9)) & (k <= math.sqrt(2.0) * k2 * (1 + 1e-9))
    failed = ~(bracketed & rep.holds)
    if not failed.any():
        details["samples"] = len(cases)
        return _result(name, details)
    # the first failing case, and its first failing check: bracketing, then symmetry
    lane = np.flatnonzero(failed)[np.argmin(lanes[failed])]
    details["samples"] = int(lanes[lane])
    if not bracketed[lane]:
        return _result(name, details, {"check": "bracketing", "x": float(x[lane]),
                                       "K": float(k[lane]), "K2": float(k2[lane])})
    return _result(name, details, {"check": "symmetry", "x": float(x[lane]),
                                   "discrepancy": float(rep.ratio[lane])})


def suite_interpolation_norms(rng):
    name = "interpolation_norms"
    details = {}
    worst_closed = 0.0
    draws, cases = [], []
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        draws += [_spd_draw(dim, rng), _spd_draw(dim, rng)]
        cases.append((rng.standard_normal(dim), float(rng.choice([0.25, 0.5, 0.75]))))
    grams = _spd_grams(draws)
    for g_x, g_y, (f, s) in zip(grams[0::2], grams[1::2], cases):
        couple = interpolation.couple_from_grams(g_x, g_y)
        got = interpolation.interpolation_norm(couple, f, s, 2, "K2")
        ref = interpolation.spectral_s_norm(couple, f, s)
        worst_closed = max(worst_closed, abs(got - ref) / ref)
    details["closed_form_worst_rel"] = worst_closed
    if worst_closed > 1e-5:
        return _result(name, details, {"check": "closed form", "rel": worst_closed})

    # norm symmetry, and the interpolation inequality on the same norms
    worst_sym = worst_ineq = 0.0
    inequality_failure = None
    draws, fs = [], []
    for _ in range(3):
        draws += [_spd_draw(5, rng), _spd_draw(5, rng)]
        fs.append(rng.standard_normal(5))
    grams = _spd_grams(draws)
    for g_x, g_y, f in zip(grams[0::2], grams[1::2], fs):
        couple = interpolation.couple_from_grams(g_x, g_y)
        swapped = couple.swapped()
        for s in (0.25, 0.5, 0.75):
            for p in (1.0, 2.0, math.inf):
                rep = interpolation.check_interpolation_inequality(couple, f, s, p, "K")
                a = rep.lhs
                b = interpolation.interpolation_norm(swapped, f, 1.0 - s, p, "K")
                worst_sym = max(worst_sym, abs(a - b) / max(a, 1e-300))
                worst_ineq = max(worst_ineq, rep.ratio)
                if inequality_failure is None and not rep.holds:
                    inequality_failure = {"check": "interpolation inequality", **rep.inputs,
                                          "ratio": rep.ratio}
    details["symmetry_worst_rel"] = worst_sym
    details["inequality_worst_ratio"] = worst_ineq
    if worst_sym > 1e-6:
        return _result(name, details, {"check": "norm symmetry", "rel": worst_sym})
    if inequality_failure is not None:
        return _result(name, details, inequality_failure)

    couple = interpolation.couple_from_grams(_random_spd(6, rng), _random_spd(6, rng))
    f = rng.standard_normal(6)
    base = interpolation.interpolation_norm(couple, f, 0.4, 2, "K")
    scaled = interpolation.interpolation_norm(couple, 3.0 * f, 0.4, 2, "K")
    hom = abs(scaled - 3.0 * base) / (3.0 * base)
    details["homogeneity_rel"] = hom
    if hom > 1e-12:
        return _result(name, details, {"check": "homogeneity", "rel": hom})

    # sum mu^s c^2 is nondecreasing in s for mu >= 1: 1000 cases, drawn in
    # turn and compared as one array, each padded to 7 modes by mu = 1, c = 0
    mu, c2, orders = np.ones((1000, 7)), np.zeros((1000, 7)), np.empty((1000, 2))
    for i in range(1000):
        dim = int(rng.integers(1, 8))
        mu[i, :dim] = np.exp(rng.uniform(0.0, math.log(100.0), dim))
        c2[i, :dim] = rng.standard_normal(dim) ** 2
        orders[i] = np.sort(rng.uniform(0.05, 0.95, 2))
    low, high = (np.sum(mu ** orders[:, [j]] * c2, axis=1) for j in (0, 1))
    failed = (orders[:, 0] != orders[:, 1]) & (low > high * (1 + 1e-12))
    if failed.any():
        s1, s2 = orders[np.argmax(failed)].tolist()
        return _result(name, details, {"check": "inclusion domination", "s1": s1, "s2": s2})
    couple = interpolation.couple_from_grams(np.eye(4), np.diag([1.0, 4.0, 25.0, 81.0]))
    rep = interpolation.check_inclusion_monotonicity(couple, rng.standard_normal(4), 0.2, 0.8, 2)
    if not rep.holds:
        return _result(name, details, {"check": "inclusion report", "ratio": rep.ratio})
    return _result(name, details)


def suite_operator_interpolation(rng):
    name = "operator_interpolation"
    details = {"cases": 0}
    worst = 0.0
    draws, cases = [], []
    for _ in range(100):
        dim = int(rng.integers(2, 11))
        draws += [_spd_draw(dim, rng) for _ in range(4)]
        cases.append((rng.standard_normal((dim, dim)), float(rng.uniform(0.05, 0.95))))
    grams = _spd_grams(draws)
    for i, (t_mat, s) in enumerate(cases):
        c0 = interpolation.couple_from_grams(grams[4 * i], grams[4 * i + 1])
        c1 = interpolation.couple_from_grams(grams[4 * i + 2], grams[4 * i + 3])
        rep = interpolation.check_operator_interpolation(t_mat, c0, c1, s, 2, "K2")
        worst = max(worst, rep.ratio)
        details["cases"] += 1
        if not rep.holds:
            return _result(name, details, {"check": "power-s bound", "s": s, "ratio": rep.ratio})
    details["worst_ratio"] = worst
    couple = interpolation.couple_from_grams(_random_spd(5, rng), _random_spd(5, rng))
    rep = interpolation.check_operator_interpolation(2.5 * np.eye(5), couple, couple, 0.33, 2, "K2")
    details["tight_ratio_minus_1"] = rep.ratio - 1.0
    if abs(rep.lhs - rep.rhs) > 1e-10 * rep.rhs:
        return _result(name, details, {"check": "tight identity case", "gap": rep.lhs - rep.rhs})
    return _result(name, details)


# ----------------------------------------------------------------------------
# spectral suites
# ----------------------------------------------------------------------------

def suite_spectrum_contract(rng):
    name = "spectrum_contract"
    details = {}
    mesh = fem.build_mesh(0.0, 1.0, 63)
    base = spectral.assemble_pencil(mesh, 0.5, 0.0)
    c_h = spectral.embedding_constant(base)
    details["embedding_constant"] = c_h
    mass = base.mass.data
    for alpha in (-50.0, -1.1 / c_h, -0.5 / c_h, 0.0, 1.0, 10.0):
        pencil = base.with_alpha(alpha)
        res = spectral.solve_spectrum(pencil, 5)
        if alpha == 0.0:
            res0 = res  # A_alpha at alpha = 0 is base.a_alpha, bit for bit
        lam = res.lambdas
        if np.any(np.diff(lam) < -1e-12 * (1.0 + np.abs(lam[1:]))):
            return _result(name, details, {"check": "ascending", "alpha": alpha})
        # the contract of every spectrum request
        contract = spectral.check_contract(res, pencil)
        if not contract["holds"]:
            failed = next((key for key in spectral.CONTRACT_FLAGS if not contract[key]),
                          "variational.holds")
            return _result(name, details, {"check": failed, "alpha": alpha, "contract": contract})
        # stricter than the contract's residual bound by the factor max|M| = 2h/3
        res_bound = 1e-8 * (1.0 + np.abs(lam)) * float(np.max(np.abs(mass)))
        if np.any(res.residuals > res_bound):
            return _result(name, details, {"check": "residuals", "alpha": alpha})
        var = spectral.verify_variational_characterization(res, pencil)
        if not var["holds"]:
            return _result(name, details, {"check": "variational", "alpha": alpha, "per_k": var["per_k"]})
    direct = scipy.linalg.eigh(base.a_loc.data, mass, subset_by_index=[0, 4])[0]
    red = float(np.max(np.abs(res0.lambdas - direct) / np.abs(direct)))
    details["alpha0_reduction_rel"] = red
    if red > 1e-10:
        return _result(name, details, {"check": "alpha=0 reduction", "rel": red})

    grid = np.linspace(-2.0 / c_h, 2.0 / c_h, 9)
    table = spectral.sweep_alpha(base, grid, 3)
    if not spectral.monotone_in_alpha(table):
        return _result(name, details, {"check": "eigenvalue monotonicity in alpha"})
    for alpha, lam1 in zip(table.alphas, table.lambdas[:, 0]):
        margin = alpha + 1.0 / c_h
        if abs(margin) > 1e-7 and np.sign(lam1) != np.sign(margin):
            return _result(name, details, {"check": "sign identity", "alpha": float(alpha),
                                           "lambda_1": float(lam1)})

    mesh32 = fem.build_mesh(0.0, 1.0, 32)
    base32 = spectral.assemble_pencil(mesh32, 0.5, 0.0)
    c32 = spectral.embedding_constant(base32)
    worst = 0.0
    for alpha in (-50.0, -1.1 / c32, 0.0, 10.0):
        pencil = base32.with_alpha(alpha)
        res = spectral.solve_spectrum(pencil, 5)
        resolvent = np.linalg.solve(pencil.a_alpha + res.gamma * base32.mass.data, base32.mass.data)
        mu = np.sort(np.linalg.eigvals(resolvent).real)[::-1][:5]
        err = float(np.max(np.abs(1.0 / mu - res.gamma - res.lambdas) / (1.0 + np.abs(res.lambdas))))
        worst = max(worst, err)
        if err > 1e-9:
            return _result(name, details, {"check": "resolvent", "alpha": alpha, "err": err})
    details["resolvent_worst"] = worst
    return _result(name, details)


def suite_threshold(rng):
    name = "threshold"
    details = {}
    mesh = fem.build_mesh(0.0, 1.0, 63)
    for s in (0.3, 0.5, 0.7):
        th = spectral.locate_threshold(spectral.assemble_pencil(mesh, s, 0.0))
        details[f"embedding_constant_s={s}"] = th["embedding_constant"]
        if not th["holds"]:
            return _result(name, details, {"check": "threshold", "s": s, **th})
    return _result(name, details)


def suite_gamma_shift(rng):
    name = "gamma_shift"
    details = {}
    mesh = fem.build_mesh(0.0, 1.0, 31)
    base = spectral.assemble_pencil(mesh, 0.5, 0.0)
    c_h = spectral.embedding_constant(base)

    def pencil_top(pencil):
        # a dense eigensolve, independent of gamma_shift's closed form and its _lowest
        return float(scipy.linalg.eigh(
            0.5 * base.a_loc.data - pencil.a_alpha, base.mass.data, eigvals_only=True,
            subset_by_index=[mesh.n - 1, mesh.n - 1])[0])

    for alpha in (0.0, 0.5, 1.0, 7.5, 100.0):
        pencil = base.with_alpha(alpha)
        gamma = spectral.gamma_shift(pencil)
        if gamma != 0.0:
            return _result(name, details, {"check": "gamma zero for alpha >= 0",
                                           "alpha": alpha, "gamma": gamma})
        top = pencil_top(pencil)
        if not top < 0.0:
            return _result(name, details, {"check": "pencil maximum negative for alpha >= 0",
                                           "alpha": alpha, "top": top})
    for alpha in (-0.2, -1.0 / c_h, -1.5 / c_h, -10.0, -200.0):
        pencil = base.with_alpha(alpha)
        gamma = spectral.gamma_shift(pencil)
        shifted = pencil.a_alpha + gamma * base.mass.data - 0.5 * base.a_loc.data
        scale = float(np.max(np.abs(shifted))) + float(np.max(np.abs(pencil.a_alpha)))
        min_eig = float(np.linalg.eigvalsh(shifted)[0])
        if min_eig < -1e-10 * scale:
            return _result(name, details, {"check": "shifted PSD", "alpha": alpha,
                                           "min_eig": min_eig, "scale": scale})
        # a gamma > 0 must be minimal: the shifted matrix is singular
        if gamma > 0.0 and abs(min_eig) > 1e-10 * scale:
            return _result(name, details, {"check": "shifted minimal", "alpha": alpha,
                                           "min_eig": min_eig, "scale": scale})
        if gamma == 0.0:
            top = pencil_top(pencil)
            if not top < 0.0:
                return _result(name, details, {"check": "pencil maximum negative for gamma = 0",
                                               "alpha": alpha, "top": top})
        details[f"gamma_alpha={alpha:.4g}"] = gamma
    return _result(name, details)


def suite_brezis_stability(rng):
    # the Brezis constant C_B at s = 1/2 on nested meshes: below C(s), rising
    # (to rounding) from n = 15 to 63, spread at most 0.2; nothing is drawn
    name = "brezis_stability"
    details = {}
    constants = []
    for n in (15, 31, 63):
        rep = spectral.verify_brezis_inequality(
            spectral.assemble_pencil(fem.build_mesh(0.0, 1.0, n), 0.5, 0.0))
        details[f"constant_n={n}"] = rep.lhs
        if not rep.holds:
            return _result(name, details, {"check": "below C(s)", **rep.to_dict()})
        if constants and rep.lhs < constants[-1] * (1.0 - rep.tolerance):
            return _result(name, details, {"check": "nested meshes", "coarser": constants[-1]})
        constants.append(rep.lhs)
    spread = (max(constants) - min(constants)) / min(constants)
    details["spread"] = spread
    if spread > 0.2:
        return _result(name, details, {"check": "refinement stability", "spread": spread})
    return _result(name, details)


# ----------------------------------------------------------------------------
# matrix file checks (structural, used with ``verify --matrix``)
# ----------------------------------------------------------------------------

def check_matrix_file(path):
    """Structural invariants of a matrix exchange file by declared kind, or its parse failure."""
    name = f"matrix_file:{path}"
    try:
        block = exchange.read_matrix(path)
    except exchange.FormatError as exc:
        return _result(name, {}, {"check": "parse", "error": str(exc)})
    data = block.data
    details = {"kind": block.kind, "shape": list(data.shape)}
    if data.shape[0] != data.shape[1]:
        return _result(name, details, {"check": "square"})
    sym = float(np.max(np.abs(data - data.T))) if data.size else 0.0
    if sym > 0.0:
        return _result(name, details, {"check": "symmetry", "max_asymmetry": sym})
    n = data.shape[0]
    if block.kind in ("Mass", "LocalStiffness"):
        off = np.diagonal(data, 1)
        if np.any(np.triu(data, 2)):  # symmetric, so this covers both sides
            return _result(name, details, {"check": "tridiagonal"})
        expected_ratio = 4.0 if block.kind == "Mass" else -2.0
        if n > 1:
            dev = float(np.max(np.abs(np.diag(data) - expected_ratio * off[0])))
            if dev > 1e-12 * float(np.max(np.abs(data))):
                return _result(name, details, {"check": "diag/offdiag ratio", "dev": dev})
    if block.kind == "FractionalStiffness":
        return _result(name, details, _toeplitz_psd_failure(data))
    return _result(name, details)


SUITES = {
    "fem_structure": suite_fem_structure,
    "fem_oracle": suite_fem_oracle,
    "lebesgue": suite_lebesgue,
    "k_functional": suite_k_functional,
    "interpolation_norms": suite_interpolation_norms,
    "operator_interpolation": suite_operator_interpolation,
    "spectrum_contract": suite_spectrum_contract,
    "threshold": suite_threshold,
    "gamma_shift": suite_gamma_shift,
    "brezis_stability": suite_brezis_stability,
}


def run_suites(seed: int, names=None, matrix_files=()) -> dict:
    """Run the requested suites (all by default) plus any matrix-file checks.

    A suite draws from ``default_rng([seed, i])``, i its place in ``SUITES``,
    so a subset run repeats the full run's rows.  The matrix files are read
    first, so an unreadable one fails before any suite runs; their rows come last.
    """
    matrix_rows = [check_matrix_file(path) for path in matrix_files]
    results = [SUITES[name](np.random.default_rng([seed, list(SUITES).index(name)]))
               for name in (names or SUITES)] + matrix_rows
    return {"seed": seed, "suites": results, "all_passed": all(r["passed"] for r in results)}
