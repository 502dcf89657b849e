"""bessprofit benchmark: times one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload sweep-j1 --seed 2019 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (see BENCHMARK.json at the root and
perfbench/README.md). The line before it is the full record: environment,
every sample, artifact hashes and failed candidates. The record and the
traced spans are also written to ``perfbench-results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / "perfbench-results"

DEFAULT_SEED = 2019  # bessprofit.fixtures.DEFAULT_SEED; checked after import
SETUP_PROBES = 3  # fresh processes timed for setup_s
MIN_PASSES = 3  # timed passes per run, traced and untraced together
PROBE_TIMEOUT_S = 60
HOST_PROBES = 3  # host-speed loops timed before and after the passes


def _import_program() -> None:
    """Put the checkout's src/ first on the path; fail unless bessprofit loads from it."""
    sys.path.insert(0, str(SRC))
    try:
        import bessprofit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import bessprofit from {SRC}: {exc}")
    if Path(bessprofit.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: bessprofit was imported from {bessprofit.__file__}, not {SRC}")
    from bessprofit.fixtures import DEFAULT_SEED as program_seed

    if program_seed != DEFAULT_SEED:
        raise SystemExit(f"perfbench: fixtures.DEFAULT_SEED is {program_seed}, expected {DEFAULT_SEED}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-j1", "sweep-j2", "tune-noisy", "evaluate-each"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.seed >= 0 and args.seconds > 0):
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def host_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of host speed, recorded
    so that runs made while the host was slower can be told apart."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def _environment() -> dict:
    import numpy
    import scipy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": commit,
    }


def setup_probe(args, work: Path) -> None:
    """What a fresh process pays before its first timed pass: import, inputs, one pass."""
    import workloads as wl

    inputs = wl.make_inputs(args.workload, args.seed, work)
    out = work / "out"
    out.mkdir()
    wl.run_pass(args.workload, inputs, out)


def _time_setup(args) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def measure(args, work: Path) -> tuple[dict, dict]:
    """Warm up, time passes for --seconds, check outputs; returns (result, record)."""
    import tracing
    import workloads as wl

    name = args.workload
    # set-up is an end-to-end metric, so a traced run skips it
    setup_samples = [] if args.trace else _time_setup(args)
    host = [host_loop_s() for _ in range(HOST_PROBES)]
    inputs = wl.make_inputs(name, args.seed, work)
    out = work / "out"
    out.mkdir()

    warm = wl.run_pass(name, inputs, out)
    reference = wl.artifacts(name, inputs, out, warm)
    pairs = wl.candidates(name, inputs)

    failed: set[tuple[int, str, str]] = set()
    plain_wall, plain_cpu, traced_wall, layers, spans = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < MIN_PASSES or time.perf_counter() < deadline:
        tracer = tracing.Tracer() if args.trace and index % 2 else None
        with tracer or contextlib.nullcontext():
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = wl.run_pass(name, inputs, out)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        arts = wl.artifacts(name, inputs, out, result)
        bad = wl.check_pass(name, inputs, result, arts, reference)
        if tracer is None:
            plain_wall.append(wall)
            plain_cpu.append(cpu)
        else:
            bad |= wl.check_dispatches(tracer.spans)
            traced_wall.append(wall)
            layer = tracing.layer_metrics(tracer.spans)
            layer["cli.out_bytes"] = sum(map(len, arts.values())) if name != "tune-noisy" else 0
            layers.append(layer)
            spans.extend(tracer.spans)
        failed |= {(index, *pair) for pair in bad}
        index += 1
    passes = index
    host += [host_loop_s() for _ in range(HOST_PROBES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Run-level checks, made once after the timed passes.
    if name != "tune-noisy":
        other = work / "other"
        other.mkdir()
        variant = "sweep-j2" if name == "sweep-j1" else "sweep-j1"
        codes = wl.run_pass(variant, inputs, other)
        other_arts = wl.artifacts(variant, inputs, other, codes)
        for pair in wl.check_against(name, inputs, reference, other_arts):
            failed |= {(i, *pair) for i in range(passes)}

    attempted = passes * len(pairs)
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {"days": wl.DAYS, "tune_days": wl.TUNE_DAYS, "tune_windows": wl.TUNE_WINDOWS},
        "environment": _environment(),
        "host_loop_s": host,
        "host_loop_median_s": statistics.median(host),
        "candidates_per_pass": len(pairs),
        "samples": {"setup_s": len(setup_samples), "wall_s": len(plain_wall),
                    "traced_wall_s": len(traced_wall)},
        "setup_s": setup_samples,
        "wall_s": plain_wall,
        "cpu_s": plain_cpu,
        "traced_wall_s": traced_wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failed),
        "failed_candidates": sorted({f"{s}/{b}" for _, s, b in failed}),
        "artifacts_sha256": {k: hashlib.sha256(v).hexdigest()
                             for k, v in sorted(reference.items()) if not k.endswith("-dispatch.csv")},
    }
    if args.trace:
        metrics = {key: (statistics.median(layer[key] for layer in layers), _unit(key))
                   for key in layers[0]}
        nit = [layer["lp.highs.nit"] for layer in layers]
        metrics["lp.highs.nit_spread"] = (max(nit) - min(nit), "count")
        metrics["trace.wall_s"] = (statistics.median(traced_wall), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_wall) - statistics.median(plain_wall), "s")
        record["layers"] = layers
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(plain_wall), "s"),
            "cpu_s": (statistics.median(plain_cpu), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": (1.0 - len(failed) / attempted, "fraction"),
        }
    record["failed_share"] = len(failed) / attempted
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["metrics"] = result["metrics"]
    record["spans"] = [[s.id, s.parent, s.name, s.thread, s.start, s.end, s.error, s.counts]
                       for s in spans]
    return result, record


def _unit(key: str) -> str:
    if key.endswith("_ratio") or key == "cli.sweep.parallelism":
        return "fraction"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith(("_s", ".s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_probe:
            setup_probe(args, work)
            return 0
        result, record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("spans", "layers")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
