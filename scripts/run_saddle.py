"""Saddle-like cubic graph surface, capped at 2400 boxes; outputs in out/.

The surface is unbounded, so the run stops at the box cap rather than at
natural termination.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from certsurf.exports import verify_jsonl, write_surface_jsonl, write_surface_obj
from certsurf.surface import certified_surface_approximation
from certsurf.system import AnalyticSystem

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    system = AnalyticSystem.from_source(
        "variables = x y z\n-0.125*x*y^2 + 0.25*x^2 - z = 0\n"
    )
    t0 = time.time()
    run = certified_surface_approximation(
        system, (0.0, 0.0, 0.0), 0.1, 0.125, max_boxes=2400
    )
    elapsed = time.time() - t0
    json_path = OUT / "saddle.jsonl"
    write_surface_jsonl(run, json_path)
    write_surface_obj(run, OUT / "saddle.obj")
    report = verify_jsonl(json_path)
    print(
        f"saddle: {run.live_count()} boxes in {elapsed:.1f}s,"
        f" truncated={run.truncated}, verify={'ok' if report.ok else 'FAILED'}"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
