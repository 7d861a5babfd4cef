"""Run one benchmark measurement of the mixspec command line.

    python3 mixbench/run.py --workload spectrum --seed 1 --seconds 18 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of an untraced run;
with ``--trace 1`` it runs every cycle of requests untraced and traced, and
reports the per-layer metrics of the traced pass plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs go to
``.mixbench/`` in the checkout; request outputs are removed after checking.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# set-up probes run in two halves, before and after the worker, so the
# median spans the run rather than one moment of a drifting machine
SETUP_REPEATS = 6
RUN_LIMIT_S = 160.0
END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup() -> float:
    """Seconds from starting a fresh worker until ``mixspec.cli`` is imported."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mixbench.worker", "--probe"], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker did not start: {err.strip()[-2000:]}")
    return elapsed


def run_worker(args, run_dir: Path, timeout: float) -> dict:
    cmd = [sys.executable, "-m", "mixbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(run_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((run_dir / "result.json").read_text())


def summarize(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """Metrics by name, plus a record of every failed request."""
    from mixbench import checks, spans

    passes = result["passes"]
    labelled = [(f"warmup/{r['id']}", r) for r in result["warmup"]]
    labelled += [(f"{name}/{r['id']}", r) for name, p in passes.items() for r in p["results"]]
    failures = {label: found for label, r in labelled if (found := checks.problems(r))}
    plain = passes["plain"]
    plain_rps = len(plain["results"]) / plain["wall_s"]
    if result["trace"]:
        traced = passes["traced"]
        metrics = dict(traced["layers"])
        metrics["trace.throughput_ratio"] = (len(traced["results"]) / traced["wall_s"]) / plain_rps
        units = {name: _layer_unit(name) for name in metrics}
        expected = set(spans.metric_names()) | {"trace.throughput_ratio"}
        if set(metrics) != expected:
            raise RuntimeError(f"per-layer metrics differ from the list: {sorted(set(metrics) ^ expected)}")
    else:
        metrics = {
            "throughput_rps": plain_rps,
            "latency_p50_s": statistics.median(r["wall_s"] for r in plain["results"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    named = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return named, {"attempted": len(labelled), "failures": failures}


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    from mixbench import worker

    worker.pin_blas_threads()  # before numpy loads in this process
    from mixbench import plan

    parser = argparse.ArgumentParser(prog="mixbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mixspec" / "cli.py").is_file():
        print(f"error: no mixspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = perf_counter()
    run_dir = ROOT / ".mixbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    probes = 0 if args.trace else SETUP_REPEATS // 2
    try:
        setup = [measure_setup() for _ in range(probes)]
        result = run_worker(args, run_dir, RUN_LIMIT_S - (perf_counter() - started))
        setup += [measure_setup() for _ in range(probes)]
        metrics, outcome = summarize(result, setup)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / "out", ignore_errors=True)
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    failed = len(outcome["failures"])
    meta = dict(result["meta"], workload=args.workload, seed=args.seed, trace=args.trace,
                cycles={name: p["cycles"] for name, p in result["passes"].items()},
                requests={name: len(p["results"]) for name, p in result["passes"].items()},
                missing_functions=result["passes"].get("traced", {}).get("missing", []))
    print("meta " + json.dumps(meta, sort_keys=True))
    for request_id, found in outcome["failures"].items():
        print(f"FAILED {request_id}: {'; '.join(found)}")
    print(f"failed_frac {failed / outcome['attempted']:.6g} ratio "
          f"({failed} of {outcome['attempted']} requests, warm-up included)")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_share"))
        print(f"self_share sum {shares:.6g} of traced request wall time")
    (run_dir / "metrics.json").write_text(json.dumps({"meta": meta, "metrics": metrics,
                                                      "failures": outcome["failures"]}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": outcome["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
