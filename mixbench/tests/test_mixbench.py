"""Self-tests of the benchmark: request plans, self-time arithmetic, failures, tracing."""

import json

import pytest

from mixbench import checks, plan, run, spans, worker


def _normalized(requests, input_dir):
    return [json.dumps(r, sort_keys=True).replace(str(input_dir), "<in>") for r in requests]


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_same_seed_same_requests(workload, tmp_path):
    a = plan.make_cycle(workload, 7, 3, tmp_path / "a")
    b = plan.make_cycle(workload, 7, 3, tmp_path / "b")
    assert _normalized(a, tmp_path / "a") == _normalized(b, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _mix(requests):
    return sorted((r["argv"][0], r["params"].get("couple", ""), r["params"].get("size", 0))
                  for r in requests)


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_other_seed_keeps_size_mix(workload, tmp_path):
    first = plan.make_cycle(workload, 1, 0, tmp_path / "a")
    other = plan.make_cycle(workload, 2, 0, tmp_path / "b")
    assert _mix(first) == _mix(other)
    assert _normalized(first, tmp_path / "a") != _normalized(other, tmp_path / "b")


def test_spectrum_mix_and_alpha_ranges(tmp_path):
    requests = plan.make_cycle("spectrum", 11, 0, tmp_path)
    assert sorted(r["params"]["n"] for r in requests) == sorted(plan.SPECTRUM_SIZES)
    ranges = {"zero": (0.0, 0.0), "positive": (1e-300, 10.0), "straddle": (-1.0, -1e-300),
              "negative": (-30.0, -1.0)}
    for r in requests:
        lo, hi = ranges[r["params"]["alpha_kind"]]
        assert lo <= r["params"]["alpha"] <= hi
        assert 0.1 <= r["params"]["s"] <= 0.9


def test_self_times_of_nested_spans():
    # (name, start, end, parent, request); span 5 overlaps span 4 to check the union
    synthetic = [
        ("cli.main", 0.0, 10.0, None, "r0"),
        ("cli.cmd_spectrum", 1.0, 4.0, 0, "r0"),
        ("fem.assemble_mass", 2.0, 3.0, 1, "r0"),
        ("spectral.solve_spectrum", 5.0, 9.0, 0, "r0"),
        ("spectral.gamma_shift", 6.0, 7.0, 3, "r0"),
        ("spectral.embedding_constant", 6.5, 8.0, 3, "r0"),
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    metrics = spans.layer_metrics(synthetic, requests=2, request_wall_s=10.0)
    assert metrics["cli.main.self_s"] == pytest.approx(1.5)
    assert metrics["spectral.solve_spectrum.calls"] == 0.5
    assert metrics["reference.gagliardo_form_quadrature.calls"] == 0.0
    assert metrics["fem.self_share"] == pytest.approx(0.1)
    assert metrics["spectral.self_share"] == pytest.approx(0.45)
    shares = sum(metrics[f"{layer}.self_share"] for layer in spans.LAYERS)
    assert shares == pytest.approx(1.05)  # the overlap is counted by both siblings
    assert set(metrics) == set(spans.metric_names())


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def _kfunc_request(tmp_path, request_id, vector_dim):
    f_path = tmp_path / f"{request_id}-f.txt"
    plan.write_vector(f_path, [0.5 + 0.01 * i for i in range(vector_dim)])
    argv = ["kfunc", "--couple", "l2-h1", "--n", "15", "--s", "0.5", "--p", "2",
            "--f", str(f_path)]
    params = {"command": "kfunc", "couple": "l2-h1", "dim": 15, "size": 15, "s": [0.5],
              "f": str(f_path)}
    return {"id": request_id, "argv": argv, "params": params}


def test_failed_request_is_counted_and_run_goes_on(cli, tmp_path):
    bad = _kfunc_request(tmp_path, "c0-0", vector_dim=9)   # couple has dimension 15
    good = _kfunc_request(tmp_path, "c0-1", vector_dim=15)
    passes = worker.run_passes(cli, lambda index: [bad, good], 0.0, tmp_path / "out")
    assert [r["code"] for r in passes["plain"]["results"]] == [2, 0]
    result = {"trace": 0, "warmup": [], "passes": passes, "peak_rss_mb": 100.0}
    metrics, outcome = run.summarize(result, setup=[0.5])
    assert outcome["attempted"] == 2
    assert list(outcome["failures"]) == ["plain/c0-0"]
    assert metrics["throughput_rps"]["value"] > 0.0


def test_report_flag_false_is_a_failure(cli, tmp_path):
    request = _kfunc_request(tmp_path, "c0-0", vector_dim=15)
    result = worker.run_request(cli, request, tmp_path / "out")
    assert checks.problems(result) == []
    report_path = tmp_path / "out" / "kfunc_report.json"
    report = json.loads(report_path.read_text())
    report["symmetry"][0]["holds"] = False
    report_path.write_text(json.dumps(report))
    assert checks.problems(result) == ["K-symmetry check is false"]


def test_tracer_catches_from_imports_and_restores(cli, tmp_path):
    import mixspec.fem
    import mixspec.spectral

    original = mixspec.fem.assemble_fractional_stiffness
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer)
    try:
        assert missing == []
        assert mixspec.spectral.assemble_fractional_stiffness is not original
        tracer.request = "r0"
        request = {"id": "r0", "params": {"command": "spectrum"},
                   "argv": ["spectrum", "--n", "15", "--s", "0.5", "--alpha", "-1", "--k", "2"]}
        assert worker.run_request(cli, request, tmp_path / "out")["code"] == 0
    finally:
        restore()
    assert mixspec.spectral.assemble_fractional_stiffness is original
    assert cli._COMMANDS["spectrum"] is cli.cmd_spectrum
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: names[s[3]] for s in tracer.spans if s[3] is not None}
    assert names[0] == "cli.main" and tracer.spans[0][3] is None
    assert parents["cli.cmd_spectrum"] == "cli.main"
    assert parents["fem.assemble_fractional_stiffness"] == "spectral.assemble_pencil"
    assert parents["spectral.gamma_shift"] == "spectral.solve_spectrum"
    assert {s[4] for s in tracer.spans} == {"r0"}
