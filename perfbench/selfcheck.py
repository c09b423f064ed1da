"""Fast self-check of the benchmark harness (a few seconds).

Usage, from the repository root:

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json, the harness and metric_map.json agree on
every workload and metric name and unit; that a one-job run of every
workload at tiny size prints every end-to-end metric (untraced) and every
per-layer metric (traced) by name with its unit and passes its gates;
that a corrupted export (first patch's ``r`` doubled) is caught, counted
as failed and makes the command exit non-zero; and that the harness
refuses to run without a certsurf source tree.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def _run(argv, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(argv, **kwargs)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1]), err.getvalue()


def check_declarations(bench: dict, workloads: dict) -> None:
    from tracer import LAYER_METRICS

    check(
        set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    check([w["name"] for w in bench["workloads"]] == list(workloads), "workload names")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(e2e == dict(run.END_TO_END), f"end-to-end metrics {e2e}")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    declared = {name: unit for name, unit, _, _ in LAYER_METRICS}
    declared.update(run.TRACE_METRICS)
    check(layer == declared, f"per-layer metrics differ: {set(layer) ^ set(declared)}")
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    for name, _, want, _ in LAYER_METRICS:
        check(better[name] == want, f"{name} better={better[name]}, harness says {want}")

    mapping = json.loads((HERE / "metric_map.json").read_text())
    for name, targets in mapping.items():
        check(name in layer, f"metric_map names unknown layer metric {name}")
        for target in targets:
            metric, _, workload = target.partition("@")
            check(metric in e2e and workload in workloads, f"{name} maps to unknown {target}")
    unmapped = [n for n in layer if not n.startswith("trace.") and not mapping.get(n)]
    check(not unmapped, f"layer metrics without an end-to-end target: {unmapped}")


def check_runs(bench: dict, workloads: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in workloads:
        for trace, expected in (("0", e2e), ("1", layer)):
            argv = ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", trace]
            code, lines, result, err = _run(argv, tiny=True)
            check(code == 0 and result["correct"], f"{name} trace {trace}: {err}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{name} trace {trace} metrics {set(got) ^ set(expected)}")
            text = "\n".join(lines[:-1])
            for metric, unit in expected.items():
                check(
                    any(ln.split()[1:2] == [metric] and unit in ln.split() for ln in lines[:-2]),
                    f"{name} trace {trace}: {metric} [{unit}] not printed",
                )
            meta = json.loads(lines[-2])["meta"]
            for key in ("seed", "git_commit", "python", "numpy", "nproc"):
                check(key in meta, f"meta lacks {key}")
            check("failed_frac" in text, "failed_frac not printed")
        print(f"selfcheck: {name} prints every metric")


def check_corruption() -> None:
    from workloads import double_first_radius

    argv = ["--workload", "sphere_grow", "--seed", "1", "--seconds", "0", "--trace", "0"]
    code, _, result, err = _run(argv, tiny=True, corrupt=double_first_radius)
    check(code != 0, "corrupted export did not make the command exit non-zero")
    check(not result["correct"], "corrupted export reported correct")
    check(result["failed"] == result["attempted"] == 1, f"failure not counted: {result}")
    check("verify_jsonl failed" in err, f"failure not reported by the verify gate: {err}")
    print("selfcheck: corrupted export caught and counted")


def check_refuses_without_source() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sphere_grow",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "harness ran without a certsurf source tree")
    check('"correct"' not in proc.stdout, "harness printed a result without a source tree")
    print("selfcheck: harness refuses to run without src/")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run._import_certsurf()
    from workloads import WORKLOADS

    check_declarations(bench, WORKLOADS)
    print("selfcheck: BENCHMARK.json, harness and metric_map.json agree")
    check_runs(bench, WORKLOADS)
    check_corruption()
    check_refuses_without_source()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
