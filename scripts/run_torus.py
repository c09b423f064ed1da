"""Torus cover, capped at 2400 boxes; writes JSONL and OBJ to out/.

The contraction factor is 7/8, close to the upper end of the admissible
range, to show the test still passes far from the default 1/8.
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
        "variables = x y z\n(sqrt(x^2 + y^2) - 2)^2 + z^2 - 0.64 = 0\n"
    )
    t0 = time.time()
    run = certified_surface_approximation(
        system, (2.8, 0.0, 0.0), 0.1, 0.875, max_boxes=2400
    )
    elapsed = time.time() - t0
    json_path = OUT / "torus.jsonl"
    write_surface_jsonl(run, json_path)
    write_surface_obj(run, OUT / "torus.obj")
    report = verify_jsonl(json_path)
    print(
        f"torus: {run.live_count()} boxes in {elapsed:.1f}s,"
        f" truncated={run.truncated}, verify={'ok' if report.ok else 'FAILED'}"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
