"""Closed-loop benchmark of certsurf: one process, one job at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The harness imports certsurf from ``src/`` next to this directory and
nothing else.  Each job draws its input from the seeded generator, builds
a cover, exports it as JSONL and re-verifies the export (see
workloads.py); jobs run back to back until ``--seconds`` have passed
(at least one job).  Every job passes the correctness gates or counts as
failed, and any failure makes the command exit 1.

With ``--trace 0`` the end-to-end metrics are printed: medians over the
run's jobs, plus ``setup_s``, the median over several fresh processes of
the time from process start until the system is parsed.  With
``--trace 1`` every job input runs twice, untraced and then traced, and
the per-layer metrics of tracer.py are printed together with the tracing
overhead (traced against untraced job time); the spans are written to
``perfbench/out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, code version, Python and numpy versions and nproc.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

# (name, unit); the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("cover_s", "s"),
    ("certs_per_s", "1/s"),
    ("verify_s", "s"),
    ("cover_size", "count"),
    ("peak_rss_mb", "MB"),
)

TRACE_METRICS = (
    ("trace.overhead_ratio", "ratio"),
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.spans", "count"),
)


def _import_certsurf() -> None:
    """Put the checkout's own source tree first on the path, or exit."""
    package = SRC / "certsurf"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no certsurf source tree at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import certsurf

    if Path(certsurf.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported certsurf from {certsurf.__file__}, not {package}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "certsurf").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _meta(workload: str, seed: int, seconds: float, trace: int, jobs: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": jobs,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(source: str) -> list[float]:
    """Process start to parsed system, once per fresh interpreter."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), str(SRC), source],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip()) - t0)
    return times


def _summary_line(workload: str, name: str, values: list[float], unit: str) -> str:
    return (
        f"{workload:12s} {name:28s} median {statistics.median(values):.6g} {unit}"
        f"  (n={len(values)}, min {min(values):.6g}, max {max(values):.6g})"
    )


def run_workload(wl, seed: int, seconds: float, trace: bool, *, tiny=False, corrupt=None):
    """Run one workload; returns (result, human-readable lines, job count)."""
    from tracer import LAYER_METRICS, Tracer
    from workloads import verify_time

    OUT.mkdir(exist_ok=True)
    export = OUT / f"{wl.name}.{os.getpid()}.jsonl"
    rng = random.Random(seed)
    lines: list[str] = []
    samples: dict[str, list[float]] = {
        "setup_s": [] if trace else measure_setup(wl.system_source),
        "job_s": [], "cover_s": [], "certs_per_s": [], "verify_s": [], "cover_size": [],
    }
    tracer = Tracer() if trace else None
    traced_s: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            inp = wl.make_input(rng, tiny)
            for traced in (False, True) if trace else (False,):
                attempted += 1
                # every job writes a fresh file: truncating the previous
                # export can stall while the filesystem flushes it to disk
                export.unlink(missing_ok=True)
                try:
                    if traced:
                        tracer.install()
                        try:
                            out = tracer.job_span(attempted, wl.job, inp, str(export), corrupt)
                        finally:
                            tracer.uninstall()
                    else:
                        out = wl.job(inp, str(export), corrupt)
                    problems = wl.gates(inp, out)
                except Exception:
                    problems = ["job raised\n" + traceback.format_exc()]
                if problems:
                    failed += 1
                    for p in problems:
                        print(f"{wl.name}: job {attempted} FAILED: {p}", file=sys.stderr)
                    continue
                if traced:
                    traced_s.append(out.job_s)
                else:
                    samples["job_s"].append(out.job_s)
                    samples["cover_s"].append(out.cover_s)
                    samples["certs_per_s"].append(out.size / out.cover_s)
                    samples["verify_s"].append(verify_time(str(export), out.verify_s))
                    samples["cover_size"].append(float(out.size))
            if time.perf_counter() - start >= seconds:
                break
    finally:
        export.unlink(missing_ok=True)

    metrics: dict[str, dict] = {}
    if not trace:
        samples_units = dict(END_TO_END)
        for name, values in samples.items():
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": samples_units[name]}
                lines.append(_summary_line(wl.name, name, values, samples_units[name]))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        lines.append(f"{wl.name:12s} {'peak_rss_mb':28s} {rss:.6g} MB")
    elif traced_s and samples["job_s"]:
        tracer.write(OUT / f"spans-{wl.name}.npz")
        for name, unit, _, fn in LAYER_METRICS:
            metrics[name] = {"value": float(fn(tracer)), "unit": unit}
        traced_med, plain_med = statistics.median(traced_s), statistics.median(samples["job_s"])
        values = (traced_med / plain_med, traced_med, plain_med, tracer.n_spans / tracer.jobs)
        for (name, unit), value in zip(TRACE_METRICS, values):
            metrics[name] = {"value": value, "unit": unit}
        lines.extend(
            f"{wl.name:12s} {name:40s} {m['value']:.6g} {m['unit']}"
            for name, m in metrics.items()
        )
        lines.append(
            f"{wl.name:12s} spans stored {min(tracer.n_spans, tracer.cap)} of"
            f" {tracer.n_spans} (cap {tracer.cap})"
        )
    lines.append(f"{wl.name:12s} jobs attempted {attempted}, failed {failed}"
                 f" (failed_frac {failed / attempted:.6g})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines, len(samples["job_s"])


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None, *, tiny=False, corrupt=None) -> int:
    """Run the benchmark; ``tiny`` and ``corrupt`` serve the self-check."""
    args = _parse_args(argv)
    _import_certsurf()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"error: unknown workload {unknown[0]!r}; choose from"
                         f" {', '.join(WORKLOADS)} or all")
    results = {}
    for name in names:
        result, lines, jobs = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
            tiny=tiny, corrupt=corrupt,
        )
        print("\n".join(lines))
        print(json.dumps({"meta": _meta(name, args.seed, args.seconds, args.trace, jobs)}))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
