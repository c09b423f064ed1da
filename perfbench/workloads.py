"""Benchmark workloads: seeded inputs, one job per input, correctness gates.

A job is what a user of ``certsurf approximate --out-json`` (or ``certsurf
graph --out-json``) followed by ``certsurf verify`` does: parse the
system, build a cover (and trim it), export it as JSONL and re-verify the
export.  Jobs call certsurf's public API only.  Each job draws its input
from the run's seeded generator, so one seed always yields the same input
sequence.

The seeded spread of every input is deliberately narrow: cover cost has
cliffs (on a 2-core x86 virtual machine, moving the saddle start by 0.05
turns a 1 s job into an 11 s one, and a fold cap of 7 boxes instead of 6
costs 10 s instead of 0.4 s), so a wide spread would swamp any
regression signal with input luck.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# Calls go through the module objects so the tracer's wrappers, installed
# on certsurf's modules, see them.
from certsurf import exports, graph_cover, surface
from certsurf.intervals import Interval, IntervalBox
from certsurf.system import AnalyticSystem

RESIDUAL_GATE = 1e-9
RHO = 0.125

SADDLE = "0.25*x^2 - 0.125*x*y^2 - z"


@dataclass(frozen=True)
class SurfaceInput:
    source: str
    start: tuple
    r_initial: float
    domain: tuple | None
    cap: int | None  # box cap; None runs to natural termination


@dataclass(frozen=True)
class GraphInput:
    source: str
    base_bounds: tuple
    fiber: tuple


@dataclass
class JobOutput:
    system: object
    cover: object  # SurfaceRun or GraphCover
    report: object  # VerifyReport
    size: int
    job_s: float
    cover_s: float
    verify_s: float


def _source(equation: str) -> str:
    return f"variables = x y z\n{equation} = 0\n"


# -- input generators: (rng, tiny) -> input ----------------------------------


def sphere_input(rng, tiny: bool) -> SurfaceInput:
    """Ellipsoid with semi-axes within 2 % of 1, start at a random direction."""
    coeffs = [1.0 / (1.0 + rng.uniform(-0.02, 0.02)) ** 2 for _ in range(3)]
    eq = " + ".join(f"{c!r}*{v}^2" for c, v in zip(coeffs, "xyz")) + " - 1"
    u = [rng.gauss(0.0, 1.0) for _ in range(3)]
    scale = math.sqrt(sum(c * x * x for c, x in zip(coeffs, u)))
    start = tuple(x / scale for x in u)
    return SurfaceInput(_source(eq), start, 0.125, None, 3 if tiny else 24)


def saddle_input(rng, tiny: bool) -> SurfaceInput:
    """Saddle inside a domain cube, start jittered by up to 0.02 around 0."""
    x0, y0 = rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)
    start = (x0, y0, 0.25 * x0 * x0 - 0.125 * x0 * y0 * y0)
    h = 0.2 if tiny else 0.3
    return SurfaceInput(_source(SADDLE), start, 0.125, ((-h, h),) * 3, None)


def fold_input(rng, tiny: bool) -> SurfaceInput:
    """Parabolic cylinder x = z^2, start within 0.002 of the fold line."""
    t = rng.uniform(-0.002, 0.002)
    y0 = rng.uniform(-0.5, 0.5)
    return SurfaceInput(_source("x - z^2"), (t * t, y0, t), 0.1, None, 3 if tiny else 7)


def graph_input(rng, tiny: bool) -> GraphInput:
    """Saddle graph over a square of half-width 1.5 shifted by up to 0.05."""
    h = 0.5 if tiny else 1.5
    dx, dy = rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
    return GraphInput(_source(SADDLE), ((dx - h, dx + h), (dy - h, dy + h)), (-10.0, 10.0))


# -- jobs --------------------------------------------------------------------


def surface_job(inp: SurfaceInput, export_path: str, corrupt=None) -> JobOutput:
    t_start = time.perf_counter()
    system = AnalyticSystem.from_source(inp.source)
    t0 = time.perf_counter()
    run = surface.certified_surface_approximation(
        system, inp.start, inp.r_initial, RHO, domain=inp.domain, max_boxes=inp.cap
    )
    surface.post_process_trim(run)
    t1 = time.perf_counter()
    exports.write_surface_jsonl(run, export_path)
    if corrupt is not None:
        corrupt(export_path)
    t2 = time.perf_counter()
    report = exports.verify_jsonl(export_path)
    t3 = time.perf_counter()
    return JobOutput(system, run, report, run.live_count(), t3 - t_start, t1 - t0, t3 - t2)


def graph_job(inp: GraphInput, export_path: str, corrupt=None) -> JobOutput:
    t_start = time.perf_counter()
    system = AnalyticSystem.from_source(inp.source)
    t0 = time.perf_counter()
    cover = graph_cover.cover_graph(system, inp.base_bounds, IntervalBox([Interval(*inp.fiber)]), RHO)
    t1 = time.perf_counter()
    exports.write_graph_jsonl(system, cover, export_path)
    if corrupt is not None:
        corrupt(export_path)
    t2 = time.perf_counter()
    report = exports.verify_jsonl(export_path)
    t3 = time.perf_counter()
    return JobOutput(system, cover, report, len(cover.cells), t3 - t_start, t1 - t0, t3 - t2)


# Verifying a surface export takes milliseconds, too short to time once;
# the export is verified again until this much time has been measured.
VERIFY_MIN_S = 0.05


def verify_time(export_path: str, first_s: float) -> float:
    """Median verify time of an export, re-verified until VERIFY_MIN_S."""
    times = [first_s]
    while sum(times) < VERIFY_MIN_S:
        t0 = time.perf_counter()
        exports.verify_jsonl(export_path)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- correctness gates ---------------------------------------------------------


def _residual(system, point) -> float:
    return max(abs(float(v)) for v in system.eval_point(list(point)))


def surface_gates(inp: SurfaceInput, out: JobOutput, expect_natural: bool) -> list[str]:
    run = out.cover
    problems = []
    if not out.report.ok:
        problems.append(f"verify_jsonl failed: {out.report.summary()}")
    if inp.cap is not None and not (run.truncated and run.live_count() == inp.cap):
        problems.append(
            f"capped run ended truncated={run.truncated} with {run.live_count()}"
            f" boxes, expected truncation at {inp.cap}"
        )
    if expect_natural and not run.natural:
        problems.append("run did not end in natural termination")
    worst = max(
        (_residual(out.system, p.frame.center) for _, p in run.live_patches()), default=0.0
    )
    if not worst <= RESIDUAL_GATE:
        problems.append(f"box centre residual {worst:.3e} above {RESIDUAL_GATE}")
    return problems


def graph_gates(inp: GraphInput, out: JobOutput) -> list[str]:
    cover = out.cover
    problems = []
    if not out.report.ok:
        problems.append(f"verify_jsonl failed: {out.report.summary()}")
    for k in range(cover.sheets):
        area = sum(
            (Fraction(1, 1 << (2 * c.depth)) for c in cover.sheet_cells(k)), Fraction(0)
        )
        if area != 1:
            problems.append(f"sheet {k} area fraction is {area}, not 1")
    worst = max(
        (_residual(out.system, c.center + c.fiber_center) for c in cover.cells), default=0.0
    )
    if not worst <= RESIDUAL_GATE:
        problems.append(f"cell centre residual {worst:.3e} above {RESIDUAL_GATE}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    system_source: str  # parsed by the set-up probe
    make_input: object
    job: object
    gates: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sphere_grow",
            _source("x^2 + y^2 + z^2 - 1"),
            sphere_input,
            surface_job,
            lambda inp, out: surface_gates(inp, out, expect_natural=False),
        ),
        Workload(
            "saddle_clip",
            _source(SADDLE),
            saddle_input,
            surface_job,
            lambda inp, out: surface_gates(inp, out, expect_natural=True),
        ),
        Workload(
            "fold_tip",
            _source("x - z^2"),
            fold_input,
            surface_job,
            lambda inp, out: surface_gates(inp, out, expect_natural=False),
        ),
        Workload("graph_sheet", _source(SADDLE), graph_input, graph_job, graph_gates),
    )
}


def double_first_radius(path: str) -> None:
    """Corrupt an export: double ``r`` of its first patch record."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    for rec in rows:
        if rec.get("record") == "patch":
            rec["r"] = 2.0 * rec["r"]
            break
    else:
        raise ValueError(f"{path} holds no patch record")
    with open(path, "w") as fh:
        fh.write("\n".join(json.dumps(rec) for rec in rows) + "\n")
