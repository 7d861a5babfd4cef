"""Brute-force reference computations used by verification suites and tests.

These routines deliberately avoid the shortcuts the production code takes:
the fractional form is integrated as an honest two-dimensional integral,
cell pair by cell pair, with graded dyadic refinement toward the kernel
singularity; the K-functional is minimized by zooming grid search over raw
decompositions; operator norms come from power iteration.  They are slow
and exist only to cross-check the fast paths.  The dyadic levels of a cell
pair go through chunked array passes, and their values are added in level
order, so every sum is the one a level-by-level loop forms.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gagliardo_form_quadrature",
    "fractional_entry_quadrature",
    "fractional_matrix_quadrature",
    "k_functional_grid_search",
    "operator_norm_power_iteration",
]

# dyadic levels per array pass of the singular cells
_LEVEL_CHUNK = 64


def _cell_values(mesh, coeffs):
    """Left/right nodal values of a P1 function on every mesh cell."""
    c = np.asarray(coeffs, dtype=float)
    padded = np.concatenate(([0.0], c, [0.0]))
    return padded[:-1], padded[1:]


def _tensor_gauss(fxy, x0, x1, y0, y1, nodes, weights):
    """Tensor Gauss-Legendre approximation of iint fxy over a rectangle.

    The corners may also be arrays of one shape, one rectangle per entry;
    each rectangle then gets the one-rectangle rule's value bit for bit,
    because it keeps its own product with the weights and its own dot.
    """
    x0, x1, y0, y1 = (np.asarray(c, dtype=float)[..., None] for c in (x0, x1, y0, y1))
    xm, xr = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    ym, yr = 0.5 * (y0 + y1), 0.5 * (y1 - y0)
    gx = xm + xr * nodes
    gy = ym + yr * nodes
    vals = fxy(gx[..., :, None], gy[..., None, :])
    out = xr[..., 0] * yr[..., 0] * _dots(weights @ vals, weights)
    return float(out) if out.ndim == 0 else out


def _dots(a, b):
    """a[..., :] . b[..., :] for every leading index, each as numpy's 1-D a @ b forms it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _levels(h, depth):
    """Widths h 2^-l of the dyadic levels l = 0 .. depth - 1, in chunks of _LEVEL_CHUNK.

    Each width is exact (depth stops before subnormals), so a chunk holds the
    bits that halving level by level gives; the chunks bound the arrays of a
    pass at s near 1, where depth reaches about 1021.
    """
    for start in range(0, depth, _LEVEL_CHUNK):
        yield np.ldexp(h, -np.arange(start, min(start + _LEVEL_CHUNK, depth)))


def _add_in_order(total, values):
    """total + values[0] + values[1] + ..., added one at a time in C order."""
    for value in np.ravel(values).tolist():
        total += value
    return total


def gagliardo_form_quadrature(mesh, u_coeffs, v_coeffs, s, *, n_gauss=16, depth=None):
    """iint (u(x)-u(y))(v(x)-v(y)) |x-y|^(-1-2s) dx dy by direct quadrature.

    u and v are piecewise linear on the mesh and vanish outside (a, b).
    The plane splits into the square (a, b)^2, handled cell pair by cell
    pair, and two exterior half-strips where one point leaves the interval,
    which reduce exactly to one-dimensional weighted integrals.

    Cell pairs touching the diagonal are covered by a dyadic sequence of
    bands (squares, for corner contact) shrinking geometrically toward the
    singular set, each integrated with tensor Gauss.  The levels of a cell
    pair are evaluated _LEVEL_CHUNK at a time in one array pass, and their
    values are added in level order, as a level-by-level loop adds them.
    The truncated sliver is about 2^(-depth (2-2s)) of the result, below
    ~1e-11 at the default depth.  The depth is capped where the smallest
    band, h 2^-depth, would stop being a normal float (about 1020 levels for
    h near 1), so past s ~ 0.98 the sliver grows: at n = 3 the result is off
    by 6e-10 at s = 0.985, 7e-7 at s = 0.99 and 9e-4 at s = 0.995.
    """
    a, b, h, n = mesh.a, mesh.b, mesh.h, mesh.n
    if depth is None:
        depth = max(40, math.ceil(37.0 / (2.0 - 2.0 * s)))
    # h >= 2^(e-1) for e = frexp(h)[1], so h 2^-depth >= 2^-1022, the smallest normal
    depth = min(depth, math.frexp(h)[1] + 1021)
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)

    ul, ur = _cell_values(mesh, u_coeffs)
    vl, vr = _cell_values(mesh, v_coeffs)
    su, sv = (ur - ul) / h, (vr - vl) / h
    ncell = n + 1
    lefts = a + h * np.arange(ncell)
    u_active = (ul != 0.0) | (ur != 0.0)
    v_active = (vl != 0.0) | (vr != 0.0)

    def u_at(x):
        m = np.clip(((x - a) / h).astype(int), 0, ncell - 1)
        return ul[m] + su[m] * (x - lefts[m])

    def v_at(x):
        m = np.clip(((x - a) / h).astype(int), 0, ncell - 1)
        return vl[m] + sv[m] * (x - lefts[m])

    def integrand(x, y):
        return (u_at(x) - u_at(y)) * (v_at(x) - v_at(y)) * np.abs(x - y) ** (-1.0 - 2.0 * s)

    total = 0.0
    for m in range(ncell):
        for k in range(m, ncell):
            if not ((u_active[m] or u_active[k]) and (v_active[m] or v_active[k])):
                continue
            factor = 1.0 if k == m else 2.0
            if k == m:
                total += factor * _diagonal_cell(
                    su[m], sv[m], h, s, depth, nodes, weights
                )
            elif k == m + 1:
                total += factor * _corner_cells(
                    (su[m], su[m + 1]), (sv[m], sv[m + 1]), h, s, depth, nodes, weights
                )
            else:
                total += factor * _tensor_gauss(
                    integrand, lefts[m], lefts[m] + h, lefts[k], lefts[k] + h, nodes, weights
                )

    total += _exterior_strips(mesh, ul, su, vl, sv, lefts, s)
    return total


def _diagonal_cell(su, sv, h, s, depth, nodes, weights):
    """Cell x cell integral with the singular diagonal inside.

    Both triangles contribute equally (the integrand is symmetric), so twice
    the upper triangle {y < x} is integrated over dyadic bands
    t = x - y in (h 2^(-l-1), h 2^(-l)], each mapped to a rectangle in
    (t, eta) with y = left + eta (h - t).  Within one cell both functions
    are linear, so the differences are evaluated as slope * t, which stays
    exact long after x and y become indistinguishable as floats; the powers
    of t are combined so that no factor overflows.
    """
    if su == 0.0 or sv == 0.0:
        return 0.0
    nodes01 = 0.5 * (nodes + 1.0)
    w01 = 0.5 * weights
    total = 0.0
    for hi in _levels(h, depth):
        lo = 0.5 * hi
        t = lo[:, None] + (hi - lo)[:, None] * nodes01
        span = h - t
        vals = su * sv * t ** (1.0 - 2.0 * s) * span
        # the eta direction integrates a constant profile to exactly 1
        total = _add_in_order(total, (hi - lo) * _dots(w01, vals))
    return 2.0 * total


def _corner_cells(su_pair, sv_pair, h, s, depth, nodes, weights):
    """Adjacent cell pair sharing one node, where the kernel blows up.

    Local offsets dx = x - corner in [-h, 0] and dy = y - corner in [0, h]
    keep |x - y| = dy - dx exact near the singular corner; continuity of the
    P1 functions makes the differences slope_left*dx - slope_right*dy.
    Quadtree refinement: at every level the quadrant containing the corner
    splits again and the other three quadrants are integrated directly; the
    quadrants of a chunk of levels go through ``_tensor_gauss`` together.
    """
    su_l, su_r = su_pair
    sv_l, sv_r = sv_pair

    def local(dx, dy):
        r = dy - dx
        return (su_l * dx - su_r * dy) / r * ((sv_l * dx - sv_r * dy) / r) * r ** (1.0 - 2.0 * s)

    total = 0.0
    for w in _levels(h, depth):
        half = 0.5 * w
        zero = np.zeros_like(w)
        # per level, the quadrants (-w, -half) x (0, half), (-w, -half) x (half, w)
        # and (-half, 0) x (half, w), as columns
        values = _tensor_gauss(local, np.stack([-w, -w, -half], axis=-1),
                               np.stack([-half, -half, zero], axis=-1),
                               np.stack([zero, half, half], axis=-1),
                               np.stack([half, w, w], axis=-1), nodes, weights)
        total = _add_in_order(total, values)
    return total


def _exterior_strips(mesh, ul, su, vl, sv, lefts, s):
    """Exact contribution of the two half-planes where one variable exits (a, b).

    For y outside (a, b) the integrand collapses to u(x) v(x) K(x - y); the
    inner integral has the closed form dist^(-2s)/(2s), leaving per-cell
    integrals of a quadratic against (x-a)^(-2s) and (b-x)^(-2s), done by
    exact recentered power integration.
    """
    a, b, h = mesh.a, mesh.b, mesh.h
    total = 0.0
    for m in range(mesh.n + 1):
        beta = (
            ul[m] * vl[m],
            ul[m] * sv[m] + vl[m] * su[m],
            su[m] * sv[m],
        )
        xl = lefts[m]
        total += _power_weighted_quadratic(beta, xl - a, h, s)
        # mirror the cell for the (b - x)^(-2s) weight: tau' = b - x
        ur_m = ul[m] + su[m] * h
        vr_m = vl[m] + sv[m] * h
        beta_mirror = (ur_m * vr_m, -(ur_m * sv[m] + vr_m * su[m]), su[m] * sv[m])
        total += _power_weighted_quadratic(beta_mirror, b - (xl + h), h, s)
    return 2.0 * total / (2.0 * s)


def _power_weighted_quadratic(beta, offset, h, s):
    """int_0^h (b0 + b1 tau + b2 tau^2) (offset + tau)^(-2s) dtau, exactly.

    Recenter the quadratic in xi = offset + tau so every term is a plain
    power; powers with zero coefficient are skipped, which covers the
    boundary cells where the integrand vanishes at the singular endpoint.
    """
    b0, b1, b2 = beta
    a0 = b0 - b1 * offset + b2 * offset * offset
    a1 = b1 - 2.0 * b2 * offset
    a2 = b2
    x0, x1 = offset, offset + h
    total = 0.0
    for j, coef in enumerate((a0, a1, a2)):
        if coef == 0.0:
            continue
        e = j + 1.0 - 2.0 * s
        if abs(e) < 1e-14:
            total += coef * math.log(x1 / x0)
        else:
            lo = 0.0 if x0 == 0.0 else x0**e
            total += coef * (x1**e - lo) / e
    return total


def fractional_entry_quadrature(mesh, s, i, j, *, n_gauss=16, depth=None):
    """Single fractional stiffness entry by direct 2D quadrature (0-based i, j)."""
    ei = np.zeros(mesh.n)
    ej = np.zeros(mesh.n)
    ei[i] = 1.0
    ej[j] = 1.0
    return gagliardo_form_quadrature(mesh, ei, ej, s, n_gauss=n_gauss, depth=depth)


def fractional_matrix_quadrature(mesh, s, *, n_gauss=16, depth=None):
    """Full fractional stiffness matrix, entry by entry, by direct quadrature."""
    n = mesh.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            val = fractional_entry_quadrature(mesh, s, i, j, n_gauss=n_gauss, depth=depth)
            out[i, j] = val
            out[j, i] = val
    return out


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
