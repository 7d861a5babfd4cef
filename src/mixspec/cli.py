"""Batch command-line front end.

Subcommands: ``assemble``, ``spectrum``, ``sweep``, ``kfunc``, ``verify``;
each takes only the flags its command reads, and any other is a usage error.
Exit codes: 0 success, 1 verification/runtime failure, 2 parameter error,
64 usage error.  All outputs are deterministic functions of the flags and
the seed; nothing carries timestamps.

Configuration precedence: command-line flags override keys from the
``--config`` file, which override built-in defaults.  The file holds flat
``key = value`` lines (``#`` starts a comment).  A key is any long option of
any subcommand except ``--config`` and ``--matrix``, with ``-`` or ``_``
between words, and its value is read as the flag would read it: the numbers
of ``domain`` and ``alpha-range`` are space-separated, and ``vectors`` takes
1/true/yes or 0/false/no in any case.
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


# Every option once, in --help order: the subcommands whose command reads it
# (only they take its flag), its default and its argparse keywords.  A config
# file may set any option but those in _FLAG_ONLY under any subcommand, which
# checks the value and ignores a key it does not read.  A value goes through
# the flag's own type (str if none), token by token when the flag has nargs.
_ALL = ("assemble", "spectrum", "sweep", "kfunc", "verify")
_MESH = ("assemble", "spectrum", "sweep", "kfunc")
_OPTIONS = {
    "domain": (_MESH, (0.0, 1.0), dict(nargs=2, type=float, metavar=("A", "B"))),
    "n": (_MESH, 31, dict(type=int, help="interior mesh nodes")),
    "s": (_MESH, "0.5", dict(help="fractional order(s) in (0,1)")),
    "alpha": (("spectrum", "sweep"), None, dict(type=float, help="coupling of the nonlocal part")),
    "alpha_range": (("sweep",), None, dict(nargs=3, type=float, metavar=("LO", "HI", "COUNT"))),
    "k": (("spectrum", "sweep"), 5, dict(type=int, help="number of eigenpairs")),
    "p": (("kfunc",), "2", dict(help="interpolation exponent(s), e.g. 1,2,inf")),
    "seed": (("spectrum", "kfunc", "verify"), 0, dict(type=int)),
    "out": (_ALL, ".", dict(help="output directory")),
    "format": (("spectrum", "sweep", "kfunc"), "csv", dict(choices=["csv", "json"])),
    "config": (_ALL, None, dict(help="flat key = value config file")),
    "vectors": (("spectrum",), False,
                dict(action="store_true", help="also write one eigenvector file per k")),
    "couple": (("kfunc",), "l2-h1",
               dict(help="'l2-h1' (built from mesh flags) or a couple file path")),
    "f": (("kfunc",), None, dict(help="vector file for the element")),
    "x": (("kfunc",), None, dict(help="extra x sample points, comma separated")),
    "suites": (("verify",), None, dict(help="comma list of suite names")),
    "matrix": (("verify",), None,
               dict(action="append", help="matrix file to check structurally (repeatable)")),
}
# a config file names no further config file, and its one line per key
# cannot repeat --matrix
_FLAG_ONLY = ("config", "matrix")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it.

    argparse keeps no state between parses: each one fills a fresh
    namespace, and a usage error leaves by SystemExit.  Building the parser
    takes about 2.5 ms, a tenth of a small spectrum request; the first
    ``main`` call pays it, not the import.  Every default is None here, so
    that ``_resolve`` can tell a flag given from one left out.
    """
    parser = _Parser(prog="mixspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, help=command.__doc__)
                  for name, command in _COMMANDS.items()}
    for key, (commands, _, kwargs) in _OPTIONS.items():
        for name in commands:
            subparsers[name].add_argument("--" + key.replace("_", "-"), default=None, **kwargs)
    return parser


# ----------------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------------

def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise ParameterError(f"{path}: {exc.strerror}") from exc
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


def _config_value(key: str, raw: str):
    kwargs = _OPTIONS[key][2]
    if kwargs.get("action") == "store_true":
        return {"1": True, "true": True, "yes": True,
                "0": False, "false": False, "no": False}[raw.lower()]
    convert = kwargs.get("type", str)
    if "nargs" in kwargs:
        return tuple(convert(token) for token in raw.split())
    return convert(raw)


def _resolve(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (_, default, _) in _OPTIONS.items()}
    if args.config:
        for key, raw in _read_config(args.config).items():
            if key not in cfg or key in _FLAG_ONLY:
                raise ParameterError(f"unknown config key {key!r}")
            try:
                cfg[key] = _config_value(key, raw)
            except (KeyError, ValueError) as exc:
                raise ParameterError(f"bad config value for {key!r}: {raw!r}") from exc
    for key in cfg:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = tuple(flag_val) if isinstance(flag_val, list) else flag_val
    cfg["command"] = args.command
    for key, (_, _, kwargs) in _OPTIONS.items():
        count = kwargs.get("nargs")
        if count is not None and cfg[key] is not None and len(cfg[key]) != count:
            raise ParameterError(f"{key} takes {count} numbers, got {cfg[key]}")
    if cfg["domain"][0] >= cfg["domain"][1]:
        raise ParameterError(f"domain must satisfy a < b, got {cfg['domain']}")
    for key, (_, _, kwargs) in _OPTIONS.items():
        if "choices" in kwargs and cfg[key] not in kwargs["choices"]:
            raise ParameterError(
                f"{key} must be {' or '.join(kwargs['choices'])}, got {cfg[key]!r}")
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


def _mesh(cfg) -> fem.Mesh1D:
    return fem.build_mesh(*cfg["domain"], cfg["n"])


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(path_base: Path, fmt_kind: str, header: list[str], rows: list[list]) -> Path:
    if fmt_kind == "csv":
        path = path_base.with_suffix(".csv")
        lines = [",".join(header)]
        lines += [",".join(exchange.fmt(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        path = path_base.with_suffix(".json")
        exchange.write_json(path, [dict(zip(header, row)) for row in rows])
    return path


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_assemble(cfg) -> int:
    """write mass/local/fractional matrices"""
    mesh = _mesh(cfg)
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
    """solve the pencil and verify the contracts"""
    if cfg["alpha"] is None:
        raise ParameterError("spectrum requires --alpha")
    mesh = _mesh(cfg)
    s = _single_s(cfg)
    pencil = spectral.assemble_pencil(mesh, s, cfg["alpha"])
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
        "inputs": {"domain": list(cfg["domain"]), "n": mesh.n, "s": s,
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
    """spectra over an alpha grid plus threshold certificate"""
    mesh = _mesh(cfg)
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
        # a non-finite end, or finite ends whose width hi - lo overflows, makes
        # the grid NaN or infinite; no warning is printed, and the error names
        # the cause (sweep_alpha refuses a non-finite end itself)
        with np.errstate(over="ignore", invalid="ignore"):
            alphas = np.linspace(lo, hi, count)
        if math.isfinite(lo) and math.isfinite(hi) and not np.isfinite(alphas).all():
            raise RequestError(f"alpha range overflows: {hi:g} - ({lo:g}) is not finite")
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
        "inputs": {"domain": list(cfg["domain"]), "n": mesh.n, "s": s, "k": cfg["k"],
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
        mesh = _mesh(cfg)
        mass = fem.assemble_mass(mesh).data
        g_y = mass + fem.assemble_local_stiffness(mesh).data
        return interpolation.couple_from_grams(mass, g_y), f"l2-h1(n={mesh.n})"
    g_x, g_y = exchange.read_couple(source)
    return interpolation.couple_from_grams(g_x, g_y), source


def cmd_kfunc(cfg) -> int:
    """K-functional curve and interpolation norms"""
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
                "p": interpolation.p_label(p),
                "norm_K": interpolation.interpolation_norm(couple, f, s, p, "K"),
                "norm_K2": interpolation.interpolation_norm(couple, f, s, p, "K2"),
            }
            if p == 2:
                ref = interpolation.spectral_s_norm(couple, f, s)
                entry["spectral_reference"] = ref
                entry["closed_form_rel_error"] = abs(entry["norm_K2"] - ref) / ref if ref else 0.0
            norms.append(entry)
    # nothing is written before the norms have checked --s and --p
    out = _outdir(cfg)
    rows = np.column_stack([xs, k_vals, k2_vals, bound]).tolist()
    table_path = _write_table(out / "kcurve", cfg["format"], ["x", "K", "K2", "bound"], rows)
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
    """run the invariant suites"""
    names = [t.strip() for t in str(cfg["suites"] or "").split(",") if t.strip()]
    unknown = [t for t in names if t not in verify.SUITES]
    if unknown:
        raise ParameterError(f"unknown suites: {unknown}; available: {sorted(verify.SUITES)}")
    report = verify.run_suites(cfg["seed"], names, cfg["matrix"] or ())
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
    except OSError as exc:  # an output that cannot be written; inputs are parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
