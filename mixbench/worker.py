"""Benchmark worker: one process, one client, a closed loop over cli.main.

Started by ``run.py`` as ``python -m mixbench.worker`` from the repository
root. The BLAS thread count is pinned to 1 before numpy loads. With
``--probe`` it only imports ``mixspec.cli`` and prints ``ready``, which
``run.py`` times as the set-up cost of a fresh worker.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

from mixbench import spans

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; takes effect only if called before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """Import ``mixspec.cli`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from mixspec import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"mixspec.cli was imported from {cli.__file__}, not from {src}")
    return cli


def run_request(cli, request: dict, out_dir: Path) -> dict:
    """Call ``cli.main`` once with stdout and stderr captured; never raises.

    A request fails if it raises or exits nonzero; both are recorded and
    the loop goes on.
    """
    argv = list(request["argv"]) + ["--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - one failed request must not stop the run
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    return {"id": request["id"], "argv": argv, "params": request["params"], "out": str(out_dir),
            "code": code, "error": error, "wall_s": wall, "stderr": stderr.getvalue()[-2000:]}


def run_cycle(cli, requests: list, out_dir: Path, tracer=None) -> tuple[list, float]:
    """Run one cycle's requests back to back; returns their results and wall time."""
    results = []
    start = perf_counter()
    for request in requests:
        if tracer is not None:
            tracer.request = request["id"]
        results.append(run_request(cli, request, out_dir / request["id"]))
    return results, perf_counter() - start


def run_passes(cli, make_cycle, seconds: float, out_dir: Path, tracer=None) -> dict:
    """Run whole cycles, at least one, until ``seconds`` per pass have passed.

    ``make_cycle(index)`` writes a cycle's input files before its clock
    starts. With a tracer every cycle runs twice, untraced and traced, in
    alternating order, so both passes see the same requests and the same
    machine state and their throughputs give the tracing overhead.
    """
    names = ("plain", "traced") if tracer is not None else ("plain",)
    passes = {name: {"results": [], "wall_s": 0.0, "cycles": 0} for name in names}
    started = perf_counter()
    index = 0
    while index == 0 or perf_counter() - started < seconds * len(names):
        requests = make_cycle(index)
        for name in names if index % 2 == 0 else names[::-1]:
            restore = None
            if name == "traced":
                restore, passes[name]["missing"] = spans.install(tracer)
            try:
                results, wall = run_cycle(cli, requests, out_dir / name, tracer if restore else None)
            finally:
                if restore is not None:
                    restore()
            passes[name]["results"] += results
            passes[name]["wall_s"] += wall
            passes[name]["cycles"] += 1
        index += 1
    return passes


def metadata() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout's git metadata, if it has any; read, never run git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text[5:]
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mixbench.worker")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--dir")
    args = parser.parse_args(argv)

    pin_blas_threads()
    cli = import_cli()
    if args.probe:
        print("ready", flush=True)
        return 0

    from mixbench import plan  # loads numpy, so only after pinning

    run_dir = Path(args.dir)

    def make_cycle(index):
        return plan.make_cycle(args.workload, args.seed, index, run_dir / "inputs")

    # a fresh worker runs its first large request up to 40 % slower while
    # the allocator grows its heap; one untimed run of the largest request
    # of the first cycle brings it to its steady state. Requests without a
    # problem size (verify's desk-scale suites) show no such slowdown.
    sized = [r for r in make_cycle(0) if "size" in r["params"]]
    warmup = []
    if sized:
        largest = max(sized, key=lambda r: r["params"]["size"])
        warmup.append(run_request(cli, largest, run_dir / "out" / "warmup"))
    tracer = spans.Tracer() if args.trace else None
    passes = run_passes(cli, make_cycle, args.seconds, run_dir / "out", tracer)
    if tracer is not None:
        tracer.write_jsonl(run_dir / "spans.jsonl")
        traced = passes["traced"]
        traced["layers"] = spans.layer_metrics(
            tracer.spans, len(traced["results"]), sum(r["wall_s"] for r in traced["results"]))
        traced["spans"] = len(tracer.spans)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": metadata(), "warmup": warmup, "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
