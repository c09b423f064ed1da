"""Full certified cover of the unit sphere; writes JSONL and OBJ to out/.

Runs to natural termination (no box cap), re-verifies the export, and
prints a one-line summary. Takes a few minutes.
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
        "variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n"
    )
    t0 = time.time()
    run = certified_surface_approximation(system, (0.0, 0.0, 1.0), 0.1, 0.125)
    elapsed = time.time() - t0
    json_path = OUT / "sphere.jsonl"
    write_surface_jsonl(run, json_path)
    write_surface_obj(run, OUT / "sphere.obj")
    report = verify_jsonl(json_path)
    print(
        f"sphere: {run.live_count()} boxes in {elapsed:.1f}s,"
        f" natural={run.natural}, verify={'ok' if report.ok else 'FAILED'}"
    )
    return 0 if report.ok and run.natural else 1


if __name__ == "__main__":
    raise SystemExit(main())
