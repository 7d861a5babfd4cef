"""Test oracles: slow, independent routes to the K-functional and operator norms.

The K-functional is minimized by zooming grid search over raw
decompositions, and an operator norm comes from power iteration.  Neither
takes the production code's shortcuts (the generalized eigenbasis of a
couple, the exact K-frontier, a dense symmetric eigensolve), so the tests
hold the fast paths against them.  The sup norm's oracle refines every
local maximum of the frontier grid, which the production route prunes.
"""

import math

import numpy as np

from mixspec.interpolation import _STEP, _bracket, _frontier, _solve


def k_functional_grid_search(g_x, g_y, f, x, *, final_step=1e-4, cycles=200):
    """Minimize ||g||_X + x ||f-g||_Y over raw decompositions f = g + h.

    Cyclic coordinate descent where every line minimization is a zooming
    one-dimensional grid search refined down to ``final_step``.  Along one
    coordinate the objective is convex, so the discrete argmin brackets the
    continuous one and the zoom is safe.  The corner decompositions g = 0
    and g = f are also candidates.  Returns an upper bound on the infimum.
    """
    g_x = np.asarray(g_x, dtype=float)
    g_y = np.asarray(g_y, dtype=float)
    f = np.asarray(f, dtype=float)
    dim = f.size

    def objective(gs):
        gs = np.atleast_2d(gs)
        hx = np.einsum("ij,jk,ik->i", gs, g_x, gs)
        hs = f[None, :] - gs
        hy = np.einsum("ij,jk,ik->i", hs, g_y, hs)
        return np.sqrt(np.maximum(hx, 0.0)) + x * np.sqrt(np.maximum(hy, 0.0))

    def line_minimize(center, axis, radius):
        # zooming 1D grid search along one coordinate
        g = center.copy()
        t_mid, r = 0.0, radius
        while True:
            ts = t_mid + np.linspace(-r, r, 41)
            batch = np.repeat(g[None, :], ts.size, axis=0)
            batch[:, axis] = center[axis] + ts
            vals = objective(batch)
            j = int(np.argmin(vals))
            t_mid = ts[j]
            step = ts[1] - ts[0]
            if step <= final_step:
                g[axis] = center[axis] + t_mid
                return g, float(vals[j])
            r = 2.0 * step

    norm_f_x = math.sqrt(float(f @ g_x @ f))
    eig_min = float(np.min(np.linalg.eigvalsh(g_x)))
    radius = 2.0 * norm_f_x / math.sqrt(eig_min) + 1.0

    best_g = 0.5 * f
    best_val = float(objective(best_g)[0])
    for _ in range(cycles):
        improved = False
        for axis in range(dim):
            best_g, val = line_minimize(best_g, axis, radius)
            if val < best_val - 1e-12 * max(best_val, 1.0):
                improved = True
            best_val = min(best_val, val)
        if not improved:
            break
    corner_vals = objective(np.vstack([np.zeros(dim), f]))
    return min(best_val, float(np.min(corner_vals)))


def operator_norm_power_iteration(t_mat, g_dom, g_cod, *, iters=5000, tol=1e-14, seed=0):
    """Largest generalized singular value of T by power iteration.

    Iterates f <- G_dom^{-1} T^T G_cod T f, whose dominant eigenvalue is the
    squared operator norm of T between the G_dom and G_cod inner products.
    """
    t_mat = np.asarray(t_mat, dtype=float)
    g_dom = np.asarray(g_dom, dtype=float)
    g_cod = np.asarray(g_cod, dtype=float)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(t_mat.shape[1])
    f /= math.sqrt(float(f @ g_dom @ f))
    value = 0.0
    for _ in range(iters):
        w = t_mat.T @ (g_cod @ (t_mat @ f))
        new = float(f @ w)
        f = np.linalg.solve(g_dom, w)
        nrm = math.sqrt(float(f @ g_dom @ f))
        if nrm == 0.0:
            return 0.0
        f /= nrm
        if abs(new - value) <= tol * max(abs(new), 1.0):
            value = new
            break
        value = new
    return math.sqrt(max(value, 0.0))


def sup_norm_every_peak(couple, f, s, variant="K"):
    """The (s, inf) norm of f, with every interior local maximum of the grid refined.

    The grid, the profile and the root solves of s - H are the production
    route's (``interpolation._frontier_norms``): the argmax in one solve,
    every other local maximum in a second one over all of them.  Only the
    pruning of peaks that cannot reach the sup is absent, so each rounding
    peak of the corner plateaus takes its full bisection.
    """
    mu = couple.mu
    c2 = couple.coords(f)[:, None] ** 2
    if not np.any(c2 > 0.0):
        return 0.0
    lo, hi = _bracket(np.max(mu), np.min(mu))
    u = np.linspace(lo, hi, int(math.ceil((hi - lo) / _STEP)) + 1)

    def log_profile(g2, h2, u):
        k2_sq = g2 + np.exp(u) * h2
        if variant == "K2":
            return 0.5 * np.log(k2_sq) - 0.5 * s * u
        return np.log(k2_sq) - 0.5 * np.log(g2) - s * (u + 0.5 * np.log(h2 / g2))

    def refined(c2, j):
        def s_minus_h(v):
            g2, h2, d = _frontier(mu[:, None], c2, v)
            h = 1.0 / (1.0 + g2 * np.exp(-v) / h2)
            return s - h, h * (1.0 - h) * (1.0 - 2.0 * d)

        v = _solve(s_minus_h, u[j], u[j - 1], u[j + 1])
        g2, h2, _ = _frontier(mu[:, None], c2, v)
        return log_profile(g2, h2, v)

    g2, h2, _ = _frontier(mu[:, None], c2[:, :, None], u)
    profile = log_profile(g2, h2, u)
    if variant == "K":
        log_nx, log_ny = 0.5 * np.log(np.sum(c2, axis=0)), 0.5 * np.log(mu @ c2)
        edge_lo = log_ny + (1.0 - s) * (log_ny - 0.5 * np.log((mu * mu) @ c2))
        edge_hi = log_nx - s * (0.5 * np.log((1.0 / mu) @ c2) - log_nx)
    else:
        edge_lo, edge_hi = profile[:, 0], profile[:, -1]
    top = np.maximum(np.max(profile, axis=1), np.maximum(edge_lo, edge_hi))
    j = np.clip(np.argmax(profile, axis=1), 1, u.size - 2)
    best = np.maximum(top, refined(c2, j))
    inner = profile[:, 1:-1]
    peaks = (inner > profile[:, :-2]) & (inner >= profile[:, 2:])
    peaks[0, j - 1] = False
    other = np.flatnonzero(peaks[0])
    if other.size:
        best = np.maximum(best, np.max(refined(np.repeat(c2, other.size, axis=1), other + 1)))
    return float(np.exp(best[0]))
