"""Text exchange formats for matrices, vectors, couples, and result tables.

Matrix files: one header line ``# <rows> <cols> <kind> <s-or-NA>`` followed
by whitespace-separated rows with 17 significant digits (lossless float
round trip).  Vector files: header ``# <n> <a> <b>`` then one value per
line.  Couple files: two matrix blocks tagged ``# GRAM X`` / ``# GRAM Y``.
Spectrum tables: CSV ``k,lambda,residual,cluster``; sweep tables: CSV
``alpha,gamma,lambda_1,...,lambda_k,sign_lambda_1``.  JSON output is
canonical (sorted keys) so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MixSpecError, ParameterError
from .fem import DiscreteFunction, OperatorMatrix, build_mesh

__all__ = [
    "FormatError",
    "MatrixFile",
    "fmt",
    "write_matrix",
    "read_matrix",
    "write_vector",
    "read_vector",
    "write_couple",
    "read_couple",
    "write_spectrum_csv",
    "write_sweep_csv",
    "write_json",
]


class FormatError(MixSpecError, ValueError):
    """Raised when an exchange file does not parse or is inconsistent."""


def fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class MatrixFile:
    """Parsed matrix block: raw data plus its declared kind and order."""

    data: np.ndarray
    kind: str
    s: float | None


def _matrix_lines(data: np.ndarray, kind: str, s: float | None) -> list[str]:
    rows, cols = data.shape
    header = f"# {rows} {cols} {kind} {fmt(s) if s is not None else 'NA'}"
    return [header] + [" ".join(fmt(v) for v in row) for row in data]


def write_matrix(path, matrix: OperatorMatrix) -> None:
    lines = _matrix_lines(matrix.data, matrix.kind.value, matrix.s)
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_matrix_block(lines: list[str], start: int, path) -> tuple[MatrixFile, int]:
    if start >= len(lines):
        raise FormatError(f"{path}: missing matrix block")
    header = lines[start].split()
    if len(header) != 5 or header[0] != "#":
        raise FormatError(f"{path}: bad matrix header {lines[start]!r}")
    try:
        rows, cols = int(header[1]), int(header[2])
        kind = header[3]
        s = None if header[4] == "NA" else float(header[4])
    except ValueError as exc:
        raise FormatError(f"{path}: bad matrix header {lines[start]!r}") from exc
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: matrix block must be at least 1 x 1, got {rows} x {cols}")
    if start + rows >= len(lines):
        raise FormatError(f"{path}: truncated matrix block")
    # each row is checked before it is parsed, so a header's counts allocate nothing
    parsed = []
    for i in range(rows):
        parts = lines[start + 1 + i].split()
        if len(parts) != cols:
            raise FormatError(f"{path}: row {i} has {len(parts)} values, expected {cols}")
        try:
            parsed.append(np.array(parts, dtype=float))
        except ValueError as exc:
            raise FormatError(f"{path}: unparseable value in row {i}") from exc
    data = np.stack(parsed)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: matrix block holds non-finite values")
    return MatrixFile(data=data, kind=kind, s=s), start + 1 + rows


def _read_lines(path) -> list[str]:
    """Non-blank lines of a UTF-8 text file; other bytes are a FormatError, no file a ParameterError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise ParameterError(f"{path}: {exc.strerror}") from exc
    return [ln for ln in text.splitlines() if ln.strip()]


def read_matrix(path) -> MatrixFile:
    lines = _read_lines(path)
    block, end = _parse_matrix_block(lines, 0, path)
    if end != len(lines):
        raise FormatError(f"{path}: trailing content after matrix block")
    return block


def write_vector(path, func: DiscreteFunction) -> None:
    mesh = func.mesh
    lines = [f"# {mesh.n} {fmt(mesh.a)} {fmt(mesh.b)}"]
    lines += [fmt(v) for v in func.coeffs]
    Path(path).write_text("\n".join(lines) + "\n")


def read_vector(path) -> DiscreteFunction:
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty vector file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "#":
        raise FormatError(f"{path}: bad vector header {lines[0]!r}")
    try:
        n, a, b = int(header[1]), float(header[2]), float(header[3])
    except ValueError as exc:
        raise FormatError(f"{path}: bad vector header {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise FormatError(f"{path}: expected {n} values, found {len(lines) - 1}")
    try:
        coeffs = np.array([float(v) for v in lines[1:]])
    except ValueError as exc:
        raise FormatError(f"{path}: unparseable vector value") from exc
    return DiscreteFunction(mesh=build_mesh(a, b, n), coeffs=coeffs)


def write_couple(path, g_x, g_y) -> None:
    g_x = np.asarray(g_x, dtype=float)
    g_y = np.asarray(g_y, dtype=float)
    lines = ["# GRAM X"]
    lines += _matrix_lines(g_x, "Gram", None)
    lines.append("# GRAM Y")
    lines += _matrix_lines(g_y, "Gram", None)
    Path(path).write_text("\n".join(lines) + "\n")


def read_couple(path) -> tuple[np.ndarray, np.ndarray]:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "# GRAM X":
        raise FormatError(f"{path}: couple file must start with '# GRAM X'")
    block_x, pos = _parse_matrix_block(lines, 1, path)
    if pos >= len(lines) or lines[pos].strip() != "# GRAM Y":
        raise FormatError(f"{path}: missing '# GRAM Y' tag")
    block_y, pos = _parse_matrix_block(lines, pos + 1, path)
    if pos != len(lines):
        raise FormatError(f"{path}: trailing content after couple blocks")
    return block_x.data, block_y.data


def write_spectrum_csv(path, result) -> None:
    lines = ["k,lambda,residual,cluster"]
    for j, (lam, res, cid) in enumerate(
        zip(result.lambdas, result.residuals, result.cluster_ids), start=1
    ):
        lines.append(f"{j},{fmt(lam)},{fmt(res)},{cid}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(path, table) -> None:
    k = table.lambdas.shape[1]
    header = "alpha,gamma," + ",".join(f"lambda_{j + 1}" for j in range(k)) + ",sign_lambda_1"
    lines = [header]
    for i in range(table.alphas.size):
        row = [fmt(table.alphas[i]), fmt(table.gammas[i])]
        row += [fmt(v) for v in table.lambdas[i]]
        row.append(str(int(table.signs[i])))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def dumps_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj))
