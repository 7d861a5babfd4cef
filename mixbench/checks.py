"""Correctness checks on the outputs of one request, run after timing.

A request fails if it raised, exited nonzero, or wrote a report with a
contract flag that is false. Two checks do not rely on the package at all:
``spectrum`` at alpha = 0 against the closed-form P1 eigenvalues, and the
``kfunc`` p = 2 K2 norm against the spectral formula, with the modes
computed here by ``scipy.linalg.eigh``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from mixbench import plan

SPECTRUM_FLAGS = ("m_orthonormality_holds", "b_orthogonality_holds", "residuals_hold",
                  "lower_bound_holds")
P1_EIGEN_RTOL = 1e-9
K2_NORM_RTOL = 1e-5


def problems(result: dict) -> list[str]:
    """Why the request failed; empty if it passed every check."""
    if result["error"] is not None:
        return [f"raised {result['error']}"]
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[-300:]}"]
    params = result["params"]
    check = {"spectrum": _spectrum, "sweep": _sweep, "kfunc": _kfunc, "verify": _verify}
    try:
        return check[params["command"]](params, Path(result["out"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def _spectrum(params, out):
    report = json.loads((out / "spectrum_report.json").read_text())
    found = [f"{flag} is false" for flag in SPECTRUM_FLAGS if report[flag] is not True]
    if report["variational"]["holds"] is not True:
        found.append("variational.holds is false")
    if params["alpha"] == 0.0:
        with open(out / "spectrum.csv") as fh:
            lambdas = np.array([float(row["lambda"]) for row in csv.DictReader(fh)])
        expected = p1_laplace_eigenvalues(params["n"], lambdas.size)
        rel = float(np.max(np.abs(lambdas - expected) / np.abs(expected)))
        if rel > P1_EIGEN_RTOL:
            found.append(f"alpha=0 eigenvalues off the closed form by {rel:.3g} relative")
    return found


def _sweep(params, out):
    report = json.loads((out / "sweep_report.json").read_text())
    return [f"{flag} is false" for flag in ("threshold_holds", "monotone_in_alpha")
            if report[flag] is not True]


def _kfunc(params, out):
    report = json.loads((out / "kfunc_report.json").read_text())
    found = []
    if not report["bracketing_max_violation"] <= 0.0:
        found.append("K2 <= K <= sqrt(2) K2 bracketing violated")
    if not all(entry["holds"] is True for entry in report["symmetry"]):
        found.append("K-symmetry check is false")
    if params["couple"] == "l2-h1":
        g_x, g_y = p1_l2_h1_grams(params["dim"])
    else:
        g_x, g_y = plan.read_couple(params["couple_file"])
    f = plan.read_vector(params["f"])
    mu, basis = scipy.linalg.eigh(g_y, g_x)
    c = basis.T @ (g_x @ f)
    by_s = {entry["s"]: entry for entry in report["norms"] if entry["p"] == 2}
    for s in params["s"]:
        expected = math.sqrt(math.pi / (2.0 * math.sin(math.pi * s)) * float(np.sum(mu**s * c**2)))
        entry = by_s.get(s)
        if entry is None:
            found.append(f"no p=2 norm reported for s={s!r}")
            continue
        rel = abs(entry["norm_K2"] - expected) / expected
        if rel > K2_NORM_RTOL:
            found.append(f"K2 (s={s:.4g}, p=2) norm off the spectral formula by {rel:.3g}")
    return found


def _verify(params, out):
    report = json.loads((out / "verify_report.json").read_text())
    return [] if report["all_passed"] is True else ["all_passed is false"]


def p1_laplace_eigenvalues(n: int, k: int) -> np.ndarray:
    """First k eigenvalues of the P1 pencil (stiffness, mass) on (0, 1), n interior nodes."""
    h = 1.0 / (n + 1)
    theta = np.arange(1, k + 1) * math.pi * h
    return 6.0 * (1.0 - np.cos(theta)) / (h * h * (2.0 + np.cos(theta)))


def p1_l2_h1_grams(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices (M, M + K) of L2 and H1 on the P1 space of (0, 1)."""
    h = 1.0 / (n + 1)
    ones = np.ones(n - 1)
    mass = (h / 6.0) * (4.0 * np.eye(n) + np.diag(ones, 1) + np.diag(ones, -1))
    stiff = (1.0 / h) * (2.0 * np.eye(n) - np.diag(ones, 1) - np.diag(ones, -1))
    return mass, mass + stiff
