"""Batch command-line front end.

Subcommands: ``assemble``, ``spectrum``, ``sweep``, ``kfunc``, ``verify``.
Exit codes: 0 success, 1 verification/runtime failure, 2 parameter error,
64 usage error.  All outputs are deterministic functions of the flags and
the seed; nothing carries timestamps.

Configuration precedence: command-line flags override keys from the
``--config`` file (flat ``key = value`` lines, keys named like the long
flags), which override built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import exchange, interpolation, spectral, verify
from . import fem
from .errors import AccuracyError, MixSpecError, ParameterError, RequestError

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARAMETER = 2
EXIT_USAGE = 64

# the most couplings one sweep solves; every one costs an eigensolve, and a
# larger count is refused before any array of that length is allocated
MAX_SWEEP_COUNT = 10_000

_DEFAULTS = {
    "domain": (0.0, 1.0),
    "n": 31,
    "s": "0.5",
    "k": 5,
    "p": "2",
    "seed": 0,
    "out": ".",
    "format": "csv",
    "couple": "l2-h1",
    "x": None,
    "alpha": None,
    "alpha_range": None,
    "f": None,
    "suites": None,
    "matrix": None,
    "vectors": False,
}


# every negative token float() accepts: exponents, underscores, inf, nan
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:[eE][+-]?{_DIGITS})?$"
    r"|^-(?:inf|infinity|nan)$",
    re.IGNORECASE,
)


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors.

    A token that reads as a negative number is a value, not a flag, so
    ``--alpha -1e-3`` parses like ``--alpha=-1e-3``; stock argparse only
    knows plain decimals such as ``-0.001``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it.

    argparse keeps no state between parses: each one fills a fresh
    namespace, and a usage error leaves by SystemExit.  Building the parser
    takes about 2.5 ms, a tenth of a small spectrum request; the first
    ``main`` call pays it, not the import.
    """
    parser = _Parser(prog="mixspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--domain", nargs=2, type=float, metavar=("A", "B"), default=None)
        p.add_argument("--n", type=int, default=None, help="interior mesh nodes")
        p.add_argument("--s", type=str, default=None, help="fractional order(s) in (0,1)")
        p.add_argument("--alpha", type=float, default=None, help="coupling of the nonlocal part")
        p.add_argument("--alpha-range", nargs=3, type=float, default=None,
                       metavar=("LO", "HI", "COUNT"))
        p.add_argument("--k", type=int, default=None, help="number of eigenpairs")
        p.add_argument("--p", type=str, default=None, help="interpolation exponent(s), e.g. 1,2,inf")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")

    p_assemble = sub.add_parser("assemble", help="write mass/local/fractional matrices")
    add_shared(p_assemble)

    p_spectrum = sub.add_parser("spectrum", help="solve the pencil and verify the contracts")
    add_shared(p_spectrum)
    p_spectrum.add_argument("--vectors", action="store_true", default=None,
                            help="also write one eigenvector file per k")

    p_sweep = sub.add_parser("sweep", help="spectra over an alpha grid plus threshold certificate")
    add_shared(p_sweep)

    p_kfunc = sub.add_parser("kfunc", help="K-functional curve and interpolation norms")
    add_shared(p_kfunc)
    p_kfunc.add_argument("--couple", type=str, default=None,
                         help="'l2-h1' (built from mesh flags) or a couple file path")
    p_kfunc.add_argument("--f", type=str, default=None, help="vector file for the element")
    p_kfunc.add_argument("--x", type=str, default=None, help="extra x sample points, comma separated")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    add_shared(p_verify)
    p_verify.add_argument("--suites", type=str, default=None, help="comma list of suite names")
    p_verify.add_argument("--matrix", action="append", default=None,
                          help="matrix file to check structurally (repeatable)")
    return parser


# ----------------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------------

def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if "\0" in text:  # no value may hold one, and a path holding one is refused by the OS
        raise ParameterError(f"{path}: config file holds a NUL byte")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_CONFIG_PARSERS = {
    "domain": lambda v: tuple(float(t) for t in v.split()),
    "n": int,
    "s": str,
    "alpha": float,
    "alpha_range": lambda v: tuple(float(t) for t in v.split()),
    "k": int,
    "p": str,
    "seed": int,
    "out": str,
    "format": str,
    "couple": str,
    "f": str,
    "x": str,
    "suites": str,
    "vectors": lambda v: {"1": True, "true": True, "yes": True,
                          "0": False, "false": False, "no": False}[v.lower()],
}


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        file_cfg = _read_config(args.config)
        for key, raw in file_cfg.items():
            if key not in _CONFIG_PARSERS:
                raise ParameterError(f"unknown config key {key!r}")
            try:
                cfg[key] = _CONFIG_PARSERS[key](raw)
            except (KeyError, ValueError) as exc:
                raise ParameterError(f"bad config value for {key!r}: {raw!r}") from exc
    for key in _DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = tuple(flag_val) if isinstance(flag_val, list) else flag_val
    cfg["command"] = args.command
    for key, count in (("domain", 2), ("alpha_range", 3)):
        if cfg[key] is not None and len(cfg[key]) != count:
            raise ParameterError(f"{key} takes {count} numbers, got {cfg[key]}")
    if cfg["domain"][0] >= cfg["domain"][1]:
        raise ParameterError(f"domain must satisfy a < b, got {cfg['domain']}")
    if cfg["format"] not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {cfg['format']!r}")
    if cfg["seed"] < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {cfg['seed']}")
    return cfg


def _parse_float_list(text: str, name: str) -> list[float]:
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise ParameterError(f"{name}: {token!r} is not a number") from None
        if math.isnan(value):
            raise ParameterError(f"{name}: NaN is not an admissible value")
        out.append(value)
    if not out:
        raise ParameterError(f"no values given for {name}")
    return out


def _single_s(cfg) -> float:
    values = _parse_float_list(cfg["s"], "--s")
    if len(values) != 1:
        raise ParameterError("this command takes a single --s value")
    s = values[0]
    if not (0.0 < s < 1.0):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    return s


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(path_base: Path, fmt_kind: str, header: list[str], rows: list[list]) -> Path:
    if fmt_kind == "csv":
        path = path_base.with_suffix(".csv")
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        path = path_base.with_suffix(".json")
        exchange.write_json(path, [dict(zip(header, row)) for row in rows])
    return path


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_assemble(cfg) -> int:
    a, b = cfg["domain"]
    mesh = fem.build_mesh(a, b, cfg["n"])
    s = _single_s(cfg)
    out = _outdir(cfg)
    written = []
    for name, matrix in (
        ("mass", fem.assemble_mass(mesh)),
        ("local_stiffness", fem.assemble_local_stiffness(mesh)),
        ("fractional_stiffness", fem.assemble_fractional_stiffness(mesh, s)),
    ):
        path = out / f"{name}.txt"
        exchange.write_matrix(path, matrix)
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_spectrum(cfg) -> int:
    if cfg["alpha"] is None:
        raise ParameterError("spectrum requires --alpha")
    a, b = cfg["domain"]
    mesh = fem.build_mesh(a, b, cfg["n"])
    pencil = spectral.assemble_pencil(mesh, _single_s(cfg), cfg["alpha"])
    result = spectral.solve_spectrum(pencil, cfg["k"])
    out = _outdir(cfg)

    if cfg["format"] == "csv":
        table_path = out / "spectrum.csv"
        exchange.write_spectrum_csv(table_path, result)
    else:
        table_path = out / "spectrum.json"
        exchange.write_json(table_path, [
            {"k": j + 1, "lambda": result.lambdas[j], "residual": result.residuals[j],
             "cluster": int(result.cluster_ids[j])}
            for j in range(result.lambdas.size)
        ])

    contract = spectral.check_contract(result, pencil)
    report = {
        "op": "spectrum",
        "inputs": {"domain": [a, b], "n": mesh.n, "s": _single_s(cfg),
                   "alpha": cfg["alpha"], "k": cfg["k"], "seed": cfg["seed"]},
        "gamma": result.gamma,
        "lambda_1": float(result.lambdas[0]),
        **{key: value for key, value in contract.items() if key != "holds"},
        "clusters": result.clusters,
        "solver": result.solver,
    }
    exchange.write_json(out / "spectrum_report.json", report)
    if cfg.get("vectors"):
        for j in range(result.lambdas.size):
            func = fem.DiscreteFunction(mesh, result.vectors[:, j])
            exchange.write_vector(out / f"eigenvector_{j + 1}.txt", func)
    print(table_path)
    print(out / "spectrum_report.json")
    return EXIT_OK if contract["holds"] else EXIT_FAILURE


def cmd_sweep(cfg) -> int:
    a, b = cfg["domain"]
    mesh = fem.build_mesh(a, b, cfg["n"])
    s = _single_s(cfg)
    if cfg["alpha_range"] is not None:
        lo, hi, count = cfg["alpha_range"]
        if not count.is_integer():
            raise ParameterError(f"alpha range count must be a whole number, got {count}")
        if count > MAX_SWEEP_COUNT:
            raise ParameterError(f"alpha range count {count:g} exceeds {MAX_SWEEP_COUNT}")
        count = int(count)
        if count < 1:
            raise RequestError("alpha range needs a positive count")
        alphas = np.linspace(lo, hi, count)
    elif cfg["alpha"] is not None:
        alphas = np.array([cfg["alpha"]])
    else:
        raise ParameterError("sweep requires --alpha-range or --alpha")
    pencil = spectral.assemble_pencil(mesh, s, 0.0)
    table = spectral.sweep_alpha(pencil, alphas, cfg["k"])
    out = _outdir(cfg)

    if cfg["format"] == "csv":
        table_path = out / "sweep.csv"
        exchange.write_sweep_csv(table_path, table)
    else:
        table_path = out / "sweep.json"
        k = table.lambdas.shape[1]
        exchange.write_json(table_path, [
            {"alpha": table.alphas[i], "gamma": table.gammas[i],
             **{f"lambda_{j + 1}": table.lambdas[i, j] for j in range(k)},
             "sign_lambda_1": int(table.signs[i])}
            for i in range(table.alphas.size)
        ])

    threshold = spectral.locate_threshold(pencil)
    monotone = spectral.monotone_in_alpha(table)
    report = {
        "op": "sweep",
        "inputs": {"domain": [a, b], "n": mesh.n, "s": s, "k": cfg["k"],
                   "alphas": table.alphas},
        "minus_inv_c": threshold["minus_inv_c"],
        "threshold_holds": threshold["holds"],
        "monotone_in_alpha": monotone,
    }
    exchange.write_json(out / "sweep_report.json", report)
    print(table_path)
    print(out / "sweep_report.json")
    return EXIT_OK if (report["threshold_holds"] and monotone) else EXIT_FAILURE


def _kfunc_couple(cfg):
    source = cfg["couple"]
    if source == "l2-h1":
        a, b = cfg["domain"]
        mesh = fem.build_mesh(a, b, cfg["n"])
        mass = fem.assemble_mass(mesh).data
        g_y = mass + fem.assemble_local_stiffness(mesh).data
        return interpolation.couple_from_grams(mass, g_y), f"l2-h1(n={mesh.n})"
    g_x, g_y = exchange.read_couple(source)
    return interpolation.couple_from_grams(g_x, g_y), source


def cmd_kfunc(cfg) -> int:
    couple, label = _kfunc_couple(cfg)
    rng = np.random.default_rng(cfg["seed"])
    if cfg["f"] is not None:
        func = exchange.read_vector(cfg["f"])
        f = np.asarray(func.coeffs)
        if f.size != couple.dim:
            raise ParameterError(
                f"element has dimension {f.size}, couple has {couple.dim}"
            )
    else:
        f = rng.standard_normal(couple.dim)

    xs = np.geomspace(1e-6, 1e6, 64)
    if cfg["x"]:
        extra = np.array(_parse_float_list(cfg["x"], "--x"))
        if np.any(extra <= 0):
            raise ParameterError("--x values must be positive")
        xs = np.unique(np.concatenate([xs, extra]))
    k_vals = interpolation.k_functional_samples(couple, f, xs)
    k2_vals = interpolation.k2_functional_samples(couple, f, xs)
    bound = np.minimum(couple.norm_x(f), xs * couple.norm_y(f))

    out = _outdir(cfg)
    rows = [[exchange.fmt(xs[i]), exchange.fmt(k_vals[i]), exchange.fmt(k2_vals[i]),
             exchange.fmt(bound[i])] for i in range(xs.size)]
    table_path = _write_table(out / "kcurve", cfg["format"], ["x", "K", "K2", "bound"], rows)

    bracket_violation = float(np.max(np.maximum(
        k2_vals - k_vals * (1 + 1e-9),
        k_vals - math.sqrt(2.0) * k2_vals - 1e-9 * np.max(k_vals),
    )))
    sym_reports = [interpolation.symmetry_check(couple, f, x).to_dict()
                   for x in (0.5, 1.0, 3.0)]
    norms = []
    for s in _parse_float_list(cfg["s"], "--s"):
        for p in _parse_float_list(cfg["p"], "--p"):
            entry = {
                "s": s,
                "p": "inf" if p == math.inf else p,
                "norm_K": interpolation.interpolation_norm(couple, f, s, p, "K"),
                "norm_K2": interpolation.interpolation_norm(couple, f, s, p, "K2"),
            }
            if p == 2:
                ref = interpolation.spectral_s_norm(couple, f, s)
                entry["spectral_reference"] = ref
                entry["closed_form_rel_error"] = abs(entry["norm_K2"] - ref) / ref if ref else 0.0
            norms.append(entry)
    report = {
        "op": "kfunc",
        "inputs": {"couple": label, "seed": cfg["seed"], "dim": couple.dim},
        "norm_x": couple.norm_x(f),
        "norm_y": couple.norm_y(f),
        "k_at_1": interpolation.k_functional(couple, f, 1.0),
        "bracketing_max_violation": bracket_violation,
        "symmetry": sym_reports,
        "norms": norms,
    }
    exchange.write_json(out / "kfunc_report.json", report)
    print(table_path)
    print(out / "kfunc_report.json")
    ok = bracket_violation <= 0.0 and all(r["holds"] for r in sym_reports) and all(
        e.get("closed_form_rel_error", 0.0) <= 1e-5 for e in norms
    )
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_verify(cfg) -> int:
    names = None
    if cfg["suites"]:
        names = [t.strip() for t in str(cfg["suites"]).split(",") if t.strip()]
        unknown = [t for t in names if t not in verify.SUITES]
        if unknown:
            raise ParameterError(f"unknown suites: {unknown}; available: {sorted(verify.SUITES)}")
    matrix_files = list(cfg["matrix"] or ())
    report = verify.run_suites(cfg["seed"], names, matrix_files)
    out = _outdir(cfg)
    exchange.write_json(out / "verify_report.json", report)
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"{suite['name']}: {status}")
    print(out / "verify_report.json")
    return EXIT_OK if report["all_passed"] else EXIT_FAILURE


_COMMANDS = {
    "assemble": cmd_assemble,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "kfunc": cmd_kfunc,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
    except MixSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE if isinstance(exc, AccuracyError) else EXIT_PARAMETER
    except OSError as exc:
        print(f"error: {exc.filename or ''}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
