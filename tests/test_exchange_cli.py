import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mixspec import (
    DiscreteFunction,
    assemble_fractional_stiffness,
    assemble_mass,
    assemble_pencil,
    build_mesh,
    embedding_constant,
)
from mixspec import cli, spectral, verify
from mixspec.cli import MAX_SWEEP_COUNT, main
from mixspec.errors import ParameterError
from mixspec.exchange import (
    FormatError,
    read_couple,
    read_matrix,
    read_vector,
    write_couple,
    write_matrix,
    write_vector,
)
from mixspec.verify import check_matrix_file

# a file that is not UTF-8 text: every reader refuses it as malformed input
UNDECODABLE = b"\xff\xfe\x00bad"


class TestMatrixFormat:
    def test_round_trip_exact(self, tmp_path):
        mesh = build_mesh(0.0, 1.0, 5)
        matrix = assemble_fractional_stiffness(mesh, 0.37)
        path = tmp_path / "frac.txt"
        write_matrix(path, matrix)
        block = read_matrix(path)
        assert block.kind == "FractionalStiffness"
        assert block.s == 0.37
        np.testing.assert_array_equal(block.data, matrix.data)

    def test_header_content(self, tmp_path):
        mesh = build_mesh(0.0, 1.0, 3)
        path = tmp_path / "mass.txt"
        write_matrix(path, assemble_mass(mesh))
        first = path.read_text().splitlines()[0]
        assert first == "# 3 3 Mass NA"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n1 2\n")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_wrong_row_length(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# 2 2 Gram NA\n1 0\n0\n")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_truncated_block(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# 3 3 Gram NA\n1 0 0\n0 1 0\n")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_trailing_content(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# 1 1 Gram NA\n1\nextra\n")
        with pytest.raises(FormatError):
            read_matrix(path)

    @pytest.mark.parametrize("text", [
        "# -1 3 Mass NA\n1 2 3\n",
        "# 0 0 FractionalStiffness 0.5\n",
        "# 1 1 Mass NA\nnan\n",
        "# 2 2 Gram NA\n1 inf\ninf 1\n",
        UNDECODABLE,
    ])
    def test_empty_or_non_finite_block(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(FormatError):
            read_matrix(path)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.integers(1, 10**15), cols=st.integers(1, 10**15),
           lines=st.integers(1, 3), width=st.integers(1, 3))
    @example(rows=1, cols=100_000_000_000, lines=1, width=1)
    @example(rows=1, cols=1_000_000, lines=1, width=1)
    def test_header_counts_allocate_nothing(self, tmp_path, rows, cols, lines, width):
        # a header's counts are checked against the rows that follow it before
        # any array is built, so a short body fails without a large allocation
        assume(rows != lines or cols != width)
        path = tmp_path / "bad.txt"
        path.write_text(f"# {rows} {cols} Mass NA\n" + ("1 " * width + "\n") * lines)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestVectorFormat:
    def test_round_trip(self, tmp_path):
        mesh = build_mesh(-1.0, 2.0, 4)
        func = DiscreteFunction(mesh, np.array([0.1, -2.0, 3.5, 1e-17]))
        path = tmp_path / "vec.txt"
        write_vector(path, func)
        back = read_vector(path)
        assert back.mesh.matches(mesh)
        np.testing.assert_array_equal(back.coeffs, func.coeffs)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("# 3 0 1\n1.0\n2.0\n")
        with pytest.raises(FormatError):
            read_vector(path)
        path.write_bytes(UNDECODABLE)
        with pytest.raises(FormatError):
            read_vector(path)


class TestCoupleFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        g_x = a @ a.T + np.eye(3)
        g_y = np.diag([1.0, 2.0, 3.0])
        path = tmp_path / "couple.txt"
        write_couple(path, g_x, g_y)
        rx, ry = read_couple(path)
        np.testing.assert_array_equal(rx, g_x)
        np.testing.assert_array_equal(ry, g_y)

    def test_missing_tag(self, tmp_path):
        path = tmp_path / "couple.txt"
        path.write_text("# 1 1 Gram NA\n1\n")
        with pytest.raises(FormatError):
            read_couple(path)
        path.write_bytes(UNDECODABLE)
        with pytest.raises(FormatError):
            read_couple(path)


class TestCliAssemble:
    def test_writes_three_files_deterministically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["assemble", "--domain", "0", "1", "--n", "8", "--s", "0.5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("mass.txt", "local_stiffness.txt", "fractional_stiffness.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_parameter_error_exit_2(self, tmp_path):
        assert main(["assemble", "--s", "1.5", "--out", str(tmp_path)]) == 2
        assert main(["assemble", "--domain", "1", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", ["1e-310", "5e-324"])
    def test_subnormal_s_exit_2(self, tmp_path, capsys, s):
        # the column would overflow to inf; it is refused before anything is written
        assert main(["assemble", "--n", "3", "--s", s, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Warning" not in err
        assert not (tmp_path / "fractional_stiffness.txt").exists()

    def test_usage_exit_64(self):
        with pytest.raises(SystemExit) as info:
            main(["assemble", "--no-such-flag"])
        assert info.value.code == 64
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 64

    def test_shared_parser_matches_fresh_parsers(self, tmp_path, capsys):
        # one parser serves every call of a process; consecutive calls with
        # different subcommands, a usage error between two of them, write
        # what a freshly built parser writes for each call
        calls = [
            ["spectrum", "--n", "15", "--s", "0.3", "--alpha", "-2", "--k", "3", "--vectors"],
            ["assemble", "--n", "5", "--s", "0.6"],
            ["spectrum", "--n", "7", "--alpha", "--k", "2"],  # --alpha lacks its value
            ["sweep", "--n", "15", "--alpha-range", "-3", "1", "3", "--k", "2", "--format", "json"],
            ["spectrum", "--n", "15", "--alpha", "1", "--k", "2"],
        ]

        def run(out, fresh):
            results = []
            for j, argv in enumerate(calls):
                if fresh:
                    cli._build_parser.cache_clear()
                try:
                    code = main(argv + ["--out", str(out / str(j))])
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out.replace(str(out), "<out>"), captured.err))
            files = {path.relative_to(out): path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()}
            return results, files

        fresh = run(tmp_path / "fresh", True)
        shared = run(tmp_path / "shared", False)
        assert [code for code, _, _ in shared[0]] == [0, 0, 64, 0, 0]
        assert shared == fresh and len(shared[1]) > 5
        assert cli._build_parser() is cli._build_parser()


class TestCliSpectrum:
    def test_baseline_lambda(self, tmp_path):
        code = main(["spectrum", "--n", "127", "--s", "0.5", "--alpha", "0",
                     "--k", "3", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert rows[0] == "k,lambda,residual,cluster"
        lam1 = float(rows[1].split(",")[1])
        assert abs(lam1 - math.pi**2) / math.pi**2 < 1e-3
        report = json.loads((tmp_path / "spectrum_report.json").read_text())
        assert report["variational"]["holds"]

    def test_strongly_negative_alpha(self, tmp_path):
        code = main(["spectrum", "--n", "31", "--s", "0.5", "--alpha", "-1000",
                     "--k", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "spectrum_report.json").read_text())
        assert report["gamma"] > 0.0

    def test_missing_alpha(self, tmp_path):
        assert main(["spectrum", "--n", "7", "--out", str(tmp_path)]) == 2

    def test_non_finite_domain(self, tmp_path, capsys):
        code = main(["spectrum", "--n", "7", "--alpha", "1", "--domain", "0", "inf",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha(self, tmp_path, capsys, alpha):
        code = main(["spectrum", "--n", "7", "--s", "0.5", f"--alpha={alpha}",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["1e308", "-1e308"])
    def test_overflowing_alpha(self, tmp_path, capsys, alpha):
        # alpha is finite but A_loc + alpha*A_frac is not
        code = main(["spectrum", "--n", "5", "--k", "3", f"--alpha={alpha}",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k, alpha", [("2", "-1e307"), ("1", "-1.8e307"), ("1", "-3e307")])
    def test_overflowing_certificate(self, tmp_path, capsys, k, alpha):
        # the margin overflows to inf, so both shifted columns hold NaN: the
        # certificate takes no count of them and fails, and nothing is printed
        code = main(["spectrum", "--n", "5", "--domain", "0", "1e10", "--k", k,
                     f"--alpha={alpha}", "--out", str(tmp_path)])
        assert code == 1 and capsys.readouterr().err == ""
        variational = json.loads((tmp_path / "spectrum_report.json").read_text())["variational"]
        assert variational["holds"] is False and variational["margin"] == math.inf
        assert variational["below_lower"] is None and variational["below_upper"] is None

    @pytest.mark.filterwarnings("error")
    def test_huge_negative_alpha(self, tmp_path, capsys):
        # lambda_1 ~ -6.4e301: the residual norms are taken scaled, and gamma
        # cancels lambda_1 to within the lower bound's tolerance
        code = main(["spectrum", "--n", "3", "--k", "2", "--alpha=-1e300",
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "spectrum_report.json").read_text())
        assert report["lower_bound_holds"] and report["residuals_hold"]

    def test_eigenvalues_out_of_range(self, tmp_path, capsys):
        # on a 1e-300 long interval the eigenvalues (~1e602) overflow, and so
        # does the diagonal l/m of the sine-basis matrix; the solve refuses it
        code = main(["spectrum", "--domain", "0", "1e-300", "--n", "5", "--alpha", "1",
                     "--k", "3", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_json_format(self, tmp_path):
        code = main(["spectrum", "--n", "15", "--s", "0.5", "--alpha", "0", "--k", "2",
                     "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "spectrum.json").read_text())
        assert rows[0]["k"] == 1 and rows[0]["lambda"] > 0
        code = main(["sweep", "--n", "15", "--s", "0.5", "--alpha", "1", "--k", "1",
                     "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert rows[0]["sign_lambda_1"] == 1

    def test_eigenvector_files(self, tmp_path):
        code = main(["spectrum", "--n", "15", "--s", "0.5", "--alpha", "0",
                     "--k", "2", "--vectors", "--out", str(tmp_path)])
        assert code == 0
        func = read_vector(tmp_path / "eigenvector_1.txt")
        assert func.coeffs.size == 15


    @pytest.mark.parametrize("alpha", ["-1e-3", "-1E-3", "-.001", "-1_0e-4", "-1e+0"])
    def test_negative_number_forms(self, tmp_path, alpha):
        # a negative value in any float() spelling is a value, as in --alpha=...
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        args = ["spectrum", "--n", "7", "--s", "0.5", "--k", "2"]
        assert main(args + ["--alpha", alpha, "--out", str(spaced)]) == 0
        assert main(args + [f"--alpha={alpha}", "--out", str(joined)]) == 0
        for name in ("spectrum.csv", "spectrum_report.json"):
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()

    @pytest.mark.parametrize("alpha", ["-inf", "-nan", "-Infinity"])
    def test_negative_non_finite_alpha_exit_2(self, tmp_path, capsys, alpha):
        code = main(["spectrum", "--n", "7", "--alpha", alpha, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 74.5 GiB")])
    def test_memory_error_exit_1(self, tmp_path, capsys, monkeypatch, command, error):
        # an n x n allocation that does not fit is a runtime failure, not a traceback
        def fail(*args):
            raise error

        monkeypatch.setattr(spectral, "assemble_pencil", fail)
        assert main([command, "--n", "7", "--alpha", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert str(error) in err and not list(tmp_path.iterdir())

    def test_certificate_report(self, tmp_path):
        # the variational block holds the inertia counts; --seed feeds nothing
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["spectrum", "--n", "31", "--s", "0.3", "--alpha", "-2", "--k", "3",
                         "--seed", seed, "--out", str(out)]) == 0
            reports.append(json.loads((out / "spectrum_report.json").read_text()))
        var = reports[0]["variational"]
        assert var["holds"] and var["below_lower"] == 0 and var["below_upper"] == 3
        assert var["lower_shift"] < reports[0]["lambda_1"] < var["upper_shift"]
        assert var["margin"] > 0.0
        assert [row["k"] for row in var["per_k"]] == [1, 2, 3]
        assert "sampled_min" not in var["per_k"][0]
        assert reports[0]["inputs"].pop("seed") == 1 and reports[1]["inputs"].pop("seed") == 2
        assert reports[0] == reports[1]

    def test_report_keys(self, tmp_path):
        assert main(["spectrum", "--n", "15", "--alpha", "1", "--k", "2",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "spectrum_report.json").read_text())
        assert set(report) == {
            "op", "inputs", "gamma", "lambda_1", "m_orthonormality_error",
            "m_orthonormality_holds", "b_orthogonality_error", "b_orthogonality_holds",
            "residuals_hold", "lower_bound_holds", "variational", "clusters", "solver",
        }


class TestCliSweep:
    def test_threshold_report(self, tmp_path):
        code = main(["sweep", "--n", "31", "--s", "0.5", "--alpha-range", "-2", "1", "5",
                     "--k", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "sweep_report.json").read_text())
        assert report["threshold_holds"] and report["monotone_in_alpha"]
        pencil = assemble_pencil(build_mesh(0.0, 1.0, 31), 0.5, 0.0)
        assert report["minus_inv_c"] == -1.0 / embedding_constant(pencil)

    def test_report_keys(self, tmp_path):
        assert main(["sweep", "--n", "15", "--alpha-range", "-2", "1", "3", "--k", "2",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "sweep_report.json").read_text())
        assert set(report) == {"op", "inputs", "minus_inv_c", "threshold_holds",
                               "monotone_in_alpha"}

    def test_one_assembly(self, tmp_path, monkeypatch):
        # the solves and the threshold certificate share one pencil and its B
        assembled, built = [], []
        assemble, build = spectral.assemble_pencil, spectral.SineBasis.fractional.func
        monkeypatch.setattr(spectral, "assemble_pencil",
                            lambda *args: assembled.append(args) or assemble(*args))
        fractional = functools.cached_property(lambda basis: built.append(basis) or build(basis))
        fractional.__set_name__(spectral.SineBasis, "fractional")
        monkeypatch.setattr(spectral.SineBasis, "fractional", fractional)
        assert main(["sweep", "--n", "15", "--alpha-range", "-2", "1", "3", "--k", "2",
                     "--out", str(tmp_path)]) == 0
        assert len(assembled) == 1 and len(built) == 1

    def test_single_point_grid(self, tmp_path):
        code = main(["sweep", "--n", "15", "--s", "0.5", "--alpha", "0.5",
                     "--k", "2", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[0].startswith("alpha,gamma,lambda_1")

    @pytest.mark.parametrize("count", ["2.7", "nan", "inf"])
    def test_fractional_count(self, tmp_path, capsys, count):
        code = main(["sweep", "--n", "15", "--s", "0.5", "--alpha-range",
                     "-1", "1", count, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_grid(self, tmp_path):
        assert main(["sweep", "--n", "15", "--s", "0.5", "--alpha-range",
                     "-1", "1", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, count, cause", [
        ("-1e308", "1e308", "3", "alpha range overflows"),
        ("-1e308", "1e308", "1", "alpha range overflows"),
        ("inf", "5", "3", "alpha values must be finite")])
    def test_non_finite_grid(self, tmp_path, capsys, lo, hi, count, cause):
        # finite ends whose width overflows are named as such, not as a non-finite alpha
        code = main(["sweep", "--n", "15", "--s", "0.5", "--alpha-range",
                     lo, hi, count, "--out", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith(f"error: {cause}")

    @pytest.mark.parametrize("source", ["1e30", str(MAX_SWEEP_COUNT + 1), "config"])
    def test_huge_count_refused_before_assembly(self, tmp_path, capsys, monkeypatch, source):
        assembled = []
        monkeypatch.setattr(spectral, "assemble_pencil", lambda *args: assembled.append(args))
        config = tmp_path / "run.cfg"
        config.write_text("alpha_range = 0 1 1e30\n")
        count = (["--config", str(config)] if source == "config"
                 else ["--alpha-range", "0", "1", source])
        assert main(["sweep", "--n", "3", *count, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:") and not assembled

    def test_count_limit_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_COUNT", 3)
        args = ["sweep", "--n", "3", "--k", "1", "--out", str(tmp_path), "--alpha-range", "0", "1"]
        assert main(args + ["3"]) == 0
        assert main(args + ["4"]) == 2

    def test_negative_exponent_range(self, tmp_path):
        plain, exponent = tmp_path / "plain", tmp_path / "exponent"
        args = ["sweep", "--n", "15", "--s", "0.5", "--k", "2"]
        assert main(args + ["--alpha-range", "-10", "1", "3", "--out", str(plain)]) == 0
        assert main(args + ["--alpha-range", "-1e1", "1", "3", "--out", str(exponent)]) == 0
        for name in ("sweep.csv", "sweep_report.json"):
            assert (plain / name).read_bytes() == (exponent / name).read_bytes()


@pytest.mark.filterwarnings("error")
class TestNumericFlagFuzz:
    """Every numeric token reaches the number parser; the exit code contract holds.

    Warnings are errors in every property here: pytest's warning capture
    takes numpy's RuntimeWarning lines out of ``capsys``' stderr, so a
    request that printed them before its one error line would pass unseen.
    """

    NUMBER = st.lists(st.sampled_from(list("0123456789.-+e_") + ["E", "nan", "inf"]),
                      max_size=8).map("".join)
    # a count decides how many spectra the sweep solves, so it is drawn small
    COUNT = st.sampled_from(["1", "2", "3", "0", "-1", "2.5", "1e0", "-1e0", "nan", "-inf"])
    SEED = st.one_of(NUMBER, st.integers(min_value=-2**70, max_value=2**70).map(str))
    # the extreme s and alpha draws of the shift-invert sizes
    S = st.one_of(st.sampled_from([5e-324, 1e-12, 1.0 - 1e-16, 1.0 - 1e-6]), st.floats(0.0, 1.0))
    ALPHA = st.one_of(st.sampled_from([1e300, -1e300, 1e-300, -1e-300, -3.0, 5.0,
                                       math.inf, math.nan]),
                      st.floats(-100.0, 100.0))

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 64)
        assert "Traceback" not in capsys.readouterr().err
        return code

    @staticmethod
    def _seed_exit(seed):
        """0 for a seed that parses as a nonnegative int, 2 for a negative one, else 64."""
        try:
            return 2 if int(seed) < 0 else 0
        except ValueError:
            return 64

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(alpha=NUMBER, a=NUMBER, b=NUMBER, k=COUNT)
    @example(alpha="1", a="0", b="1", k="-1")
    @example(alpha="-1e307", a="0", b="1e10", k="2")  # the certificate's margin overflows
    def test_spectrum(self, tmp_path, capsys, alpha, a, b, k):
        # a value parses the same spaced as in its --alpha=value form
        base = ["spectrum", "--n", "3", "--k", k, "--domain", a, b, "--out", str(tmp_path)]
        assert self._run(base + ["--alpha", alpha], capsys) == self._run(
            base + [f"--alpha={alpha}"], capsys)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lo=NUMBER, hi=NUMBER, count=COUNT, a=NUMBER, k=COUNT)
    @example(lo="-1", hi="1", count="3", a="0", k="-1")
    def test_sweep(self, tmp_path, capsys, lo, hi, count, a, k):
        self._run(["sweep", "--n", "3", "--k", k, "--alpha-range", lo, hi, count,
                   "--domain", a, "1", "--out", str(tmp_path)], capsys)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=SEED)
    @example(seed="-1")
    def test_kfunc_seed(self, tmp_path, capsys, seed):
        code = self._run(["kfunc", "--n", "3", "--seed", seed, "--out", str(tmp_path)], capsys)
        assert code == self._seed_exit(seed)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=SEED)
    @example(seed="-1")
    def test_verify_seed(self, tmp_path, capsys, seed):
        code = self._run(["verify", "--suites", "threshold", "--seed", seed,
                          "--out", str(tmp_path)], capsys)
        assert code == self._seed_exit(seed)

    @staticmethod
    def _check_contract(code, capsys, report_path, holds):
        """Exit 0, 1 or 2 with at most one ``error:`` line, the line present on 2.

        Exit 1 is a failed check, whose report names it (``holds`` of the
        report is false), or a failed eigensolve with one error line.
        """
        lines = capsys.readouterr().err.splitlines()
        assert code in (0, 1, 2)
        assert len(lines) <= 1 and all(line.startswith("error:") for line in lines)
        assert bool(lines) == (code == 2) or code == 1
        if code == 1 and not lines:
            report = json.loads(report_path.read_text())
            assert not holds(report)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(spectral.SHIFT_INVERT_MIN_N, 600), k=st.integers(1, 5), s=S,
           alpha=ALPHA)
    def test_spectrum_shift_invert_sizes(self, tmp_path, capsys, n, k, s, alpha):
        # at these n, k <= 5 takes the shift-invert route or its recorded fallback
        code = main(["spectrum", "--n", str(n), "--k", str(k), "--s", repr(s),
                     f"--alpha={alpha!r}", "--out", str(tmp_path)])
        self._check_contract(code, capsys, tmp_path / "spectrum_report.json",
                             lambda report: all(report[key] for key in spectral.CONTRACT_FLAGS)
                             and report["variational"]["holds"])

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(spectral.SHIFT_INVERT_MIN_N, 600), k=st.integers(1, 5),
           count=st.integers(1, 3), s=S, ends=st.lists(ALPHA, min_size=2, max_size=2))
    @example(n=spectral.SHIFT_INVERT_MIN_N, k=3, count=3, s=0.5, ends=[-30.0, 10.0])
    @example(n=spectral.SHIFT_INVERT_MIN_N, k=1, count=3, s=0.5, ends=[math.inf, 5.0])
    @example(n=spectral.SHIFT_INVERT_MIN_N, k=1, count=3, s=0.5, ends=[-1e300, 1e300])
    @example(n=spectral.SHIFT_INVERT_MIN_N, k=1, count=3, s=0.5, ends=[-1e308, 1e308])
    def test_sweep_shift_invert_sizes(self, tmp_path, capsys, n, k, count, s, ends):
        # every coupling of the sweep takes the shift-invert route or its
        # recorded fallback, and the threshold runs the split inertia tests
        code = main(["sweep", "--n", str(n), "--k", str(k), "--s", repr(s), "--alpha-range",
                     *(repr(end) for end in ends), str(count), "--out", str(tmp_path)])
        self._check_contract(code, capsys, tmp_path / "sweep_report.json",
                             lambda report: report["threshold_holds"]
                             and report["monotone_in_alpha"])

    @staticmethod
    def _at_most_64(token):
        """False only for a token that parses as an int above 64."""
        try:
            return int(token) <= 64
        except ValueError:
            return True

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(s=st.one_of(NUMBER, st.floats(0.0, 1.0).map(repr)),
           n=st.one_of(st.just("3"), st.integers(-3, 64).map(str), NUMBER.filter(_at_most_64)),
           domain=st.one_of(st.just(("0", "1")), st.tuples(NUMBER, NUMBER),
                            st.tuples(st.floats(allow_nan=False).map(repr),
                                      st.floats(allow_nan=False).map(repr))))
    @example(s="0.5", n="-1", domain=("0", "1"))
    @example(s="0.5", n="8", domain=("0", "1e-300"))
    def test_assemble(self, tmp_path, capsys, s, n, domain):
        # the float draws reach s near 0 and 1, subnormal s included.  n stays
        # at most 64: assemble writes three dense n x n text files (about
        # 450 MB at n = 4096), and a huge n asks for an n x n array that
        # cannot be allocated (n = 99999999 wants 71 PiB and exits 1)
        self._run(["assemble", "--n", n, "--s", s, "--domain", *domain,
                   "--out", str(tmp_path)], capsys)


class TestCliKfunc:
    def test_builtin_couple_report(self, tmp_path):
        code = main(["kfunc", "--couple", "l2-h1", "--n", "31", "--s", "0.5",
                     "--p", "2", "--x", "1", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "kfunc_report.json").read_text())
        assert report["norms"][0]["closed_form_rel_error"] <= 1e-5
        assert all(r["holds"] for r in report["symmetry"])
        # the x = 1 row of the curve equals the sum norm K(1, f)
        rows = (tmp_path / "kcurve.csv").read_text().splitlines()[1:]
        row1 = next(r for r in rows if float(r.split(",")[0]) == 1.0)
        assert float(row1.split(",")[1]) == pytest.approx(report["k_at_1"], rel=1e-12)

    def test_zero_element_curve(self, tmp_path):
        mesh = build_mesh(0.0, 1.0, 7)
        vec_path = tmp_path / "zero.txt"
        write_vector(vec_path, DiscreteFunction(mesh, np.zeros(7)))
        code = main(["kfunc", "--couple", "l2-h1", "--n", "7", "--s", "0.5",
                     "--p", "2", "--f", str(vec_path), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "kcurve.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_json_table_holds_numbers(self, tmp_path):
        args = ["kfunc", "--n", "7", "--x", "0.5", "--seed", "1", "--out"]
        assert main(args + [str(tmp_path / "csv")]) == 0
        assert main(args + [str(tmp_path / "json"), "--format", "json"]) == 0
        lines = (tmp_path / "csv" / "kcurve.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        table = json.loads((tmp_path / "json" / "kcurve.json").read_text())
        assert len(table) == len(rows) == 65
        for entry, row in zip(table, rows):
            assert all(type(entry[key]) is float for key in header)
            assert [entry[key] for key in header] == [float(value) for value in row]

    def test_couple_file_source(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        write_couple(tmp_path / "cp.txt", a @ a.T + 4 * np.eye(4), np.diag([1.0, 2, 3, 4]))
        code = main(["kfunc", "--couple", str(tmp_path / "cp.txt"), "--s", "0.25,0.75",
                     "--p", "1,2,inf", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "kfunc_report.json").read_text())
        assert len(report["norms"]) == 6

    def test_non_spd_couple_file(self, tmp_path):
        write_couple(tmp_path / "bad.txt", np.diag([1.0, -1.0]), np.eye(2))
        assert main(["kfunc", "--couple", str(tmp_path / "bad.txt"),
                     "--out", str(tmp_path)]) == 2

    def test_oversized_couple_header_exit_2(self, tmp_path, capsys):
        # the Y block's header asks for a 1 x 1e11 array: 745 GiB, never allocated
        path = tmp_path / "couple.txt"
        path.write_text("# GRAM X\n# 1 1 Gram NA\n1\n# GRAM Y\n# 1 100000000000 Gram NA\n1\n")
        assert main(["kfunc", "--couple", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--couple", "--f"])
    def test_undecodable_file_exit_2(self, tmp_path, capsys, flag):
        path = tmp_path / "bad.bin"
        path.write_bytes(UNDECODABLE)
        assert main(["kfunc", "--n", "3", flag, str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_s_near_one(self, tmp_path):
        code = main(["kfunc", "--n", "31", "--s", "0.999999", "--p", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "kfunc_report.json").read_text())
        assert report["norms"][0]["closed_form_rel_error"] <= 1e-8

    @pytest.mark.parametrize("flag, value", [
        ("--x", "abc"), ("--s", "abc"), ("--p", "nan"), ("--x", "1,nan"),
    ])
    def test_bad_number_exit_2(self, tmp_path, capsys, flag, value):
        code = main(["kfunc", "--n", "3", flag, value, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--p", "0"), ("--p", "2,0.5"), ("--s", "1.5"), ("--s", "0.5,0"), ("--p", "abc"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refused_order_writes_no_curve(self, tmp_path, capsys, flag, value, fmt):
        code = main(["kfunc", "--n", "3", flag, value, "--format", fmt, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tokens=st.lists(
        st.lists(st.sampled_from(list("0123456789.-e,") + ["nan", "inf", "abc"]),
                 max_size=8).map("".join),
        min_size=3, max_size=3,
    ))
    def test_flag_fuzz(self, tmp_path, capsys, tokens):
        s, p, x = tokens
        argv = ["kfunc", "--n", "3", "--s", s, "--p", p, "--x", x, "--out", str(tmp_path)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 64)
        assert "Traceback" not in capsys.readouterr().err


class TestCliVerify:
    def test_subset_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        args = ["verify", "--seed", "7", "--suites", "lebesgue,gamma_shift"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "verify_report.json").read_bytes() == (out2 / "verify_report.json").read_bytes()

    def test_corrupted_matrix_counterexample(self, tmp_path):
        mesh = build_mesh(0.0, 1.0, 6)
        good = tmp_path / "frac.txt"
        write_matrix(good, assemble_fractional_stiffness(mesh, 0.5))
        assert main(["verify", "--suites", "lebesgue", "--matrix", str(good),
                     "--out", str(tmp_path / "ok")]) == 0
        lines = good.read_text().splitlines()
        parts = lines[2].split()
        parts[4] = "3.14"
        bad = tmp_path / "corrupted.txt"
        bad.write_text("\n".join(lines[:2] + [" ".join(parts)] + lines[3:]) + "\n")
        assert main(["verify", "--suites", "lebesgue", "--matrix", str(bad),
                     "--out", str(tmp_path / "bad")]) == 1
        report = json.loads((tmp_path / "bad" / "verify_report.json").read_text())
        failed = [s for s in report["suites"] if not s["passed"]]
        assert len(failed) == 1 and failed[0]["counterexample"] is not None

    def test_fractional_structure_counterexamples(self, tmp_path):
        data = assemble_fractional_stiffness(build_mesh(0.0, 1.0, 6), 0.5).data
        broken = data.copy()
        broken[1, 3] = broken[3, 1] = 3.14
        cases = {"toeplitz.txt": (broken, {"check": "toeplitz", "offset": 2}),
                 "psd.txt": (data - 2.0 * np.max(data) * np.eye(6), None)}
        for name, (matrix, expected) in cases.items():
            lines = ["# 6 6 FractionalStiffness 0.5"]
            lines += [" ".join(repr(float(v)) for v in row) for row in matrix]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
            counterexample = check_matrix_file(tmp_path / name)["counterexample"]
            if expected is None:
                assert set(counterexample) == {"check", "min_eig"}
                assert counterexample["check"] == "psd" and counterexample["min_eig"] < 0.0
            else:
                assert counterexample == expected

    @pytest.mark.parametrize("text", ["# -1 3 Mass NA\n1 2 3\n",
                                      "# 0 0 FractionalStiffness 0.5\n",
                                      "# 1 1 Mass NA\nnan\n", UNDECODABLE,
                                      "# 1 100000000000 Mass NA\n1\n"])
    def test_malformed_matrix_counterexample(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["verify", "--suites", "lebesgue", "--matrix", str(path),
                     "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = [s for s in report["suites"] if not s["passed"]]
        assert len(failed) == 1 and failed[0]["counterexample"]["check"] == "parse"

    def test_matrix_files_read_before_suites(self, tmp_path, monkeypatch):
        # a missing matrix file exits 2 before any suite runs; a malformed one
        # is read first too, and its parse row still comes last
        calls = []

        def suite(rng):
            calls.append("suite")
            return {"name": "lebesgue", "passed": True, "details": {}, "counterexample": None}

        def read_matrix(path):
            calls.append("matrix")
            return read_matrix_file(path)

        read_matrix_file = verify.exchange.read_matrix
        monkeypatch.setitem(verify.SUITES, "lebesgue", suite)
        monkeypatch.setattr(verify.exchange, "read_matrix", read_matrix)
        args = ["verify", "--suites", "lebesgue", "--matrix"]
        assert main(args + [str(tmp_path / "missing.txt"), "--out", str(tmp_path / "a")]) == 2
        assert calls == ["matrix"] and not (tmp_path / "a").exists()
        (tmp_path / "bad.txt").write_text("# 1 1 Mass NA\nnan\n")
        assert main(args + [str(tmp_path / "bad.txt"), "--out", str(tmp_path / "b")]) == 1
        assert calls == ["matrix", "matrix", "suite"]
        rows = json.loads((tmp_path / "b" / "verify_report.json").read_text())["suites"]
        assert [row["counterexample"] and row["counterexample"]["check"] for row in rows] == [
            None, "parse"]

    def test_unknown_suite(self, tmp_path):
        assert main(["verify", "--suites", "nope", "--out", str(tmp_path)]) == 2


class TestFileAccess:
    # the flags that name the input; the last case names it by a config line f = PATH
    @pytest.mark.parametrize("flags", [
        ["kfunc", "--f"], ["kfunc", "--couple"], ["kfunc", "--config"],
        ["verify", "--suites", "fem_structure", "--matrix"], ["kfunc", "--config", "f"]])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, flags, kind):
        # an input that cannot be read is a parameter error, named once
        path = tmp_path / "input.txt"
        if kind == "directory":
            path.mkdir()
        if flags[-1] == "f":
            config = tmp_path / "kfunc.cfg"
            config.write_text(f"f = {path}\n")
            args = [*flags[:-1], str(config)]
        else:
            args = [*flags, str(path)]
        if flags[0] == "kfunc":  # verify takes no mesh flag
            args += ["--n", "3"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert err.count(path.name) == 1 and "Errno" not in err

    @pytest.mark.parametrize("out", ["regular", "regular/sub"])
    def test_unwritable_output_exit_1(self, tmp_path, capsys, out):
        (tmp_path / "regular").write_text("")
        assert main(["spectrum", "--n", "7", "--alpha", "1", "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count(str(tmp_path / out)) == 1


class TestFileContentFuzz:
    """Any bytes in an input file end in an exit code of the contract, never a traceback."""

    ARGV = {
        "config": ["assemble", "--n", "3", "--s", "0.5", "--domain", "0", "1", "--config"],
        "couple": ["kfunc", "--couple"],
        "f": ["kfunc", "--n", "3", "--f"],
        "matrix": ["verify", "--suites", "threshold", "--matrix"],
    }

    @pytest.mark.parametrize("source", sorted(ARGV))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=st.binary(max_size=256))
    @example(content=b"")
    @example(content=b"# 1 1 Gram NA\n1\n")
    @example(content=b"# GRAM X\n# 1 1 Gram NA\n1\n# GRAM Y\n# 1 1 Gram NA\n-1\n")
    def test_exit_code_contract(self, tmp_path, capsys, source, content):
        path = tmp_path / "input"
        path.write_bytes(content)
        try:
            code = main(self.ARGV[source] + [str(path), "--out", str(tmp_path / "out")])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 64)
        assert "Traceback" not in capsys.readouterr().err


def test_cli_import_leaves_out_optimize_and_sparse():
    # a fresh import pays for every scipy submodule it loads
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, mixspec.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.optimize', 'scipy.sparse', 'scipy.sparse.linalg')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


class TestConfigFile:
    def test_precedence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n = 9\ns = 0.5\nout = {0}\ndomain = 0 2\n".format(tmp_path / "cfg_out"))
        # flag --n overrides the config value, config supplies the rest
        assert main(["assemble", "--config", str(config), "--n", "4"]) == 0
        block = read_matrix(tmp_path / "cfg_out" / "mass.txt")
        assert block.data.shape == (4, 4)
        # without the flag the config n wins
        assert main(["assemble", "--config", str(config)]) == 0
        block = read_matrix(tmp_path / "cfg_out" / "mass.txt")
        assert block.data.shape == (9, 9)

    @pytest.mark.parametrize("line", ["alpha_range = -1 1", "domain = 0", "domain = 0 1 2",
                                      UNDECODABLE, b"couple = a\x00b", "vectors = ture",
                                      "vectors = on"])
    def test_value_count(self, tmp_path, capsys, line):
        # each bad value exits 2 with one error line; a misspelt switch is
        # refused, not read as false
        config = tmp_path / "run.cfg"
        config.write_bytes(line if isinstance(line, bytes) else (line + "\n").encode())
        assert main(["sweep", "--n", "7", "--alpha", "1", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value, written", [("TRUE", True), ("yes", True), ("no", False),
                                                ("False", False)])
    def test_vectors_switch(self, tmp_path, value, written):
        config = tmp_path / "run.cfg"
        config.write_text(f"vectors = {value}\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--n", "7", "--alpha=-2", "--k", "2", "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "eigenvector_1.txt").exists() is written

    def test_bad_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n")
        assert main(["assemble", "--config", str(config)]) == 2

    @pytest.mark.parametrize("command", ["assemble", "spectrum", "sweep", "kfunc", "verify"])
    @pytest.mark.parametrize("line", ["matrix = m.txt", "config = other.cfg"])
    def test_flag_only_keys(self, tmp_path, capsys, command, line):
        # --config names no further file, and one line per key cannot repeat --matrix
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown config key {line.split()[0]!r}\n"

    FLOAT = st.one_of(st.floats(allow_nan=False).map(repr), st.integers(-10**6, 10**6).map(str))
    INT = st.integers(-10**6, 10**6).map(str)
    # config text holds no comment, and its value is stripped
    TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#"),
                   max_size=12).map(str.strip)
    SWITCH = st.tuples(st.sampled_from(["1", "true", "yes", "0", "false", "no"]),
                       st.integers(0, 63)).map(
        lambda t: "".join(c.upper() if t[1] >> i & 1 else c for i, c in enumerate(t[0])))
    # every option a config file may set: a subcommand whose flag it is, and its value as text
    SETTABLE = {
        "domain": ("assemble", st.lists(FLOAT, min_size=2, max_size=2).map(" ".join)),
        "n": ("assemble", INT),
        "s": ("assemble", TEXT),
        "alpha": ("spectrum", FLOAT),
        "alpha_range": ("sweep", st.lists(FLOAT, min_size=3, max_size=3).map(" ".join)),
        "k": ("spectrum", INT),
        "p": ("kfunc", TEXT),
        "seed": ("verify", INT),
        "out": ("assemble", TEXT),
        "format": ("sweep", st.sampled_from(["csv", "json"])),
        "vectors": ("spectrum", SWITCH),
        "couple": ("kfunc", TEXT),
        "f": ("kfunc", TEXT),
        "x": ("kfunc", TEXT),
        "suites": ("verify", TEXT),
    }

    def test_settable_keys_are_the_long_options(self):
        # every long option of every subcommand but --config and --matrix
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        flags = {option[2:].replace("-", "_") for sub in commands.values()
                 for option in sub._option_string_actions if option.startswith("--")}
        assert flags - {"help", "config", "matrix"} == set(self.SETTABLE)

    @staticmethod
    def _resolved(argv):
        try:
            cfg = cli._resolve(cli._build_parser().parse_args(argv))
        except ParameterError as exc:
            return str(exc)
        return {key: value for key, value in cfg.items() if key not in ("command", "config")}

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), key=st.sampled_from(sorted(SETTABLE)),
           command=st.sampled_from(["assemble", "spectrum", "sweep", "kfunc", "verify"]))
    def test_config_line_means_its_flag(self, tmp_path, data, key, command):
        """A config line resolves as its flag does, read by any subcommand."""
        flag_command, values = self.SETTABLE[key]
        text = data.draw(values)
        flag = "--" + key.replace("_", "-")
        if key == "vectors":
            flag_args = [flag] if text.lower() in ("1", "true", "yes") else []
        elif key in ("domain", "alpha_range"):
            flag_args = [flag, *text.split()]
        else:
            flag_args = [f"{flag}={text}"]
        config = tmp_path / "run.cfg"
        config.write_text(f"{key.replace('_', data.draw(st.sampled_from('_-')))} = {text}\n")
        assert (self._resolved([command, "--config", str(config)])
                == self._resolved([flag_command, *flag_args]))

    def test_comments_and_blanks(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# a comment\n\nn = 5  # trailing\n")
        assert main(["assemble", "--config", str(config), "--out",
                     str(tmp_path / "o"), "--s", "0.5"]) == 0
        assert read_matrix(tmp_path / "o" / "mass.txt").data.shape == (5, 5)


class TestSubcommandOptions:
    """Each subcommand takes the flags its command reads, and no other."""

    # requests that between them reach every option each command reads
    REQUESTS = {
        "assemble": [["--n", "5"]],
        "spectrum": [["--n", "5", "--alpha", "-2", "--k", "2"]],
        "sweep": [["--n", "5", "--alpha-range", "-3", "1", "3", "--k", "2"],
                  ["--n", "5", "--alpha", "1", "--k", "2"]],
        "kfunc": [["--n", "5", "--x", "0.5,2"]],
        "verify": [["--suites", "fem_structure"]],
    }
    # the eleven flags once shared by every subcommand, and each one's own flags
    SHARED = ("domain", "n", "s", "alpha", "alpha-range", "k", "p", "seed", "out", "format",
              "config")
    OWN = {"assemble": (), "spectrum": ("vectors",), "sweep": (), "kfunc": ("couple", "f", "x"),
           "verify": ("suites", "matrix")}
    REFUSED = [("assemble", flag) for flag in ("alpha", "alpha-range", "k", "p", "seed", "format")]
    REFUSED += [("spectrum", "alpha-range"), ("spectrum", "p"), ("sweep", "p"), ("sweep", "seed")]
    REFUSED += [("kfunc", flag) for flag in ("alpha", "alpha-range", "k")]
    REFUSED += [("verify", flag) for flag in ("domain", "n", "s", "alpha", "alpha-range", "k",
                                              "p", "format")]
    VALUES = {"domain": ["0", "1"], "alpha-range": ["-3", "1", "3"], "format": ["json"],
              "vectors": []}

    @staticmethod
    def _declared(command):
        parser = next(a for a in cli._build_parser()._actions if a.dest == "command")
        return {option[2:] for option in parser.choices[command]._option_string_actions
                if option.startswith("--") and option != "--help"}

    @pytest.mark.parametrize("command", sorted(REQUESTS))
    def test_declared_options_are_read(self, tmp_path, command):
        seen = set()

        class Recorder(dict):
            def __getitem__(self, key):
                seen.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                seen.add(key)
                return super().get(key, default)

        for j, argv in enumerate(self.REQUESTS[command]):
            args = cli._build_parser().parse_args(
                [command, *argv, "--out", str(tmp_path / str(j))])
            assert cli._COMMANDS[command](Recorder(cli._resolve(args))) == 0
        declared = {option.replace("-", "_") for option in self._declared(command)}
        assert seen == declared - {"config"}

    def test_flag_slots(self):
        # 61 when every subcommand took the shared flags, 21 of them unread
        assert len(self.REFUSED) == 21
        assert sum(len(self._declared(command)) for command in self.OWN) == 40

    @pytest.mark.parametrize("command, flag", REFUSED)
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            main([command, f"--{flag}", *self.VALUES.get(flag, ["1"]), "--out", str(out)])
        assert info.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: mixspec")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(OWN))
    def test_prefixes_keep_their_option(self, command):
        # argparse takes a unique prefix of a long option; each prefix the
        # full flag set took names the same option now, or is a usage error
        before = ("help",) + self.SHARED + self.OWN[command]
        for option in before[1:]:
            for end in range(1, len(option) + 1):
                prefix = option[:end]
                matches = [o for o in before if o.startswith(prefix)]
                meant = prefix if prefix in before else matches[0] if len(matches) == 1 else None
                if meant in (None, "help"):
                    continue
                argv = [command, "--" + prefix, *self.VALUES.get(meant, ["1"])]
                try:
                    args = cli._build_parser().parse_args(argv)
                except SystemExit as exc:
                    assert exc.code == 64, argv
                    continue
                given = {key for key, value in vars(args).items()
                         if value is not None and key != "command"}
                assert given == {meant.replace("-", "_")}, argv
