"""Seeded request plans for the benchmark workloads.

A workload runs in cycles. Every cycle holds the workload's fixed size mix;
the seed draws only the continuous parameters (s, alpha, element vectors,
couple matrices, verify seeds) and the request order, so runs on different
seeds cost about the same. Input files are written here, before the cycle's
clock starts.

Inputs that fail on purpose (s near 1, NaN, malformed flags) are not
generated: a request that fails fast would make its later fix read as a
slowdown. Such inputs belong in the package's tests.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WORKLOADS = ("spectrum", "sweep", "kfunc", "verify")

SPECTRUM_SIZES = (255,) * 4 + (511,) * 3 + (1023,) * 2 + (2047,)
ALPHA_KINDS = ("zero", "positive", "straddle", "negative")
SWEEP_SIZES = (255, 511)
KFUNC_COUPLES = (("l2-h1", 63), ("l2-h1", 255), ("file", 64), ("file", 64))
COUPLE_SPREAD = 1e4


def make_cycle(workload: str, seed: int, cycle: int, input_dir: Path) -> list[dict]:
    """Requests of one cycle, in run order; writes their input files.

    Each request is a dict with an ``id``, the ``argv`` for ``mixspec.cli.main``
    (without ``--out``) and the ``params`` the correctness checks need;
    ``params["size"]`` is the problem dimension where the command has one.
    """
    rng = np.random.default_rng([seed, cycle, WORKLOADS.index(workload)])
    input_dir = Path(input_dir)
    input_dir.mkdir(parents=True, exist_ok=True)
    build = {"spectrum": _spectrum, "sweep": _sweep, "kfunc": _kfunc, "verify": _verify}[workload]
    requests = build(rng, input_dir, f"c{cycle}")
    order = rng.permutation(len(requests))
    return [dict(requests[i], id=f"c{cycle}-{j}") for j, i in enumerate(order)]


def _spectrum(rng, input_dir, tag):
    # alpha kinds rotate over the size-sorted requests, so every size class
    # sees each kind as evenly as the 4:3:2:1 mix allows
    offset = int(rng.integers(len(ALPHA_KINDS)))
    out = []
    for j, n in enumerate(SPECTRUM_SIZES):
        kind = ALPHA_KINDS[(offset + j) % len(ALPHA_KINDS)]
        alpha = _draw_alpha(kind, rng)
        s = float(rng.uniform(0.1, 0.9))
        var_seed = int(rng.integers(2**31))
        argv = ["spectrum", "--n", str(n), "--s", repr(s), "--alpha", repr(alpha),
                "--k", "5", "--seed", str(var_seed)]
        out.append({"argv": argv, "params": {"command": "spectrum", "n": n, "size": n, "s": s,
                                              "alpha": alpha, "alpha_kind": kind, "k": 5}})
    return out


def _draw_alpha(kind, rng) -> float:
    u = float(rng.random())
    if kind == "zero":
        return 0.0
    if kind == "positive":
        return 10.0 * (1.0 - u)          # (0, 10]
    if kind == "straddle":
        return -1.0 + u                  # [-1, 0), around -1/C_h
    return -30.0 + 29.0 * u              # [-30, -1): gamma > 0, lambda_1 < 0


def _sweep(rng, input_dir, tag):
    out = []
    for n in SWEEP_SIZES:
        s = float(rng.uniform(0.2, 0.8))
        argv = ["sweep", "--n", str(n), "--s", repr(s), "--alpha-range", "-30", "10", "13",
                "--k", "3"]
        out.append({"argv": argv, "params": {"command": "sweep", "n": n, "size": n, "s": s}})
    return out


def _kfunc(rng, input_dir, tag):
    # the norm quadrature costs about 1/(s(1-s)) per s, so a free draw in
    # [0.1, 0.9] would change a request's cost twofold from seed to seed;
    # shifting the low and the high s by the same d keeps the sum level
    d = float(rng.uniform(-0.025, 0.025))
    s_values = [0.15 + d, float(rng.uniform(0.4, 0.6)), 0.85 + d]
    s_flag = ",".join(repr(s) for s in s_values)
    out = []
    for j, (couple, dim) in enumerate(KFUNC_COUPLES):
        f_path = input_dir / f"{tag}-{j}-f.txt"
        write_vector(f_path, rng.standard_normal(dim))
        argv = ["kfunc", "--p", "1,2,inf", "--s", s_flag, "--f", str(f_path)]
        params = {"command": "kfunc", "couple": couple, "dim": dim, "size": dim, "s": s_values,
                  "f": str(f_path)}
        if couple == "l2-h1":
            argv += ["--couple", "l2-h1", "--n", str(dim)]
        else:
            couple_path = input_dir / f"{tag}-{j}-couple.txt"
            write_couple(couple_path, random_spd(dim, rng), random_spd(dim, rng))
            argv += ["--couple", str(couple_path)]
            params["couple_file"] = str(couple_path)
        out.append({"argv": argv, "params": params})
    return out


def _verify(rng, input_dir, tag):
    verify_seed = int(rng.integers(2**31))
    return [{"argv": ["verify", "--seed", str(verify_seed)],
             "params": {"command": "verify", "seed": verify_seed}}]


def random_spd(dim: int, rng, spread: float = COUPLE_SPREAD) -> np.ndarray:
    """Symmetric positive definite matrix whose eigenvalues span [1, spread]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.exp(rng.uniform(0.0, math.log(spread), dim))
    vals[0], vals[-1] = 1.0, spread
    g = (q * vals) @ q.T
    return 0.5 * (g + g.T)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_vector(path: Path, values) -> None:
    """Vector exchange file: header ``# n 0 1`` then one value per line."""
    lines = [f"# {len(values)} 0 1"] + [_fmt(v) for v in values]
    Path(path).write_text("\n".join(lines) + "\n")


def write_couple(path: Path, g_x, g_y) -> None:
    """Couple exchange file: two ``Gram`` matrix blocks tagged X and Y."""
    lines = []
    for tag, g in (("X", g_x), ("Y", g_y)):
        rows, cols = g.shape
        lines.append(f"# GRAM {tag}")
        lines.append(f"# {rows} {cols} Gram NA")
        lines += [" ".join(_fmt(v) for v in row) for row in g]
    Path(path).write_text("\n".join(lines) + "\n")


def read_vector(path: Path) -> np.ndarray:
    lines = Path(path).read_text().split("\n")
    n = int(lines[0].split()[1])
    return np.array([float(v) for v in lines[1:1 + n]])


def read_couple(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text().split("\n")
    blocks, pos = [], 0
    for _ in range(2):
        rows = int(lines[pos + 1].split()[1])
        body = lines[pos + 2:pos + 2 + rows]
        blocks.append(np.array([[float(v) for v in row.split()] for row in body]))
        pos += 2 + rows
    return blocks[0], blocks[1]
