"""Cover serialization: JSONL records, independent re-checking, OBJ meshes.

Every record carries the data needed to re-run its contraction test from
scratch.  Variables and equation sources travel in the header line; each
patch or cell line holds its frame or bounds, radii, and the certificate
numbers that were claimed at build time.  Verification rebuilds the
system from the header, repeats the test, and accepts a record only when
the fresh test passes and still supports every stored claim.  Patches are
re-tested one by one with ``krawczyk_test``; the cells of a graph file are
re-tested in one ``krawczyk_cells`` batch, the test that built them.

Format 2 is the first whose graph cells were built by ``krawczyk_cells``.
Its last-bit ``norm_k`` sits above the scalar kernel's, so a format-1 graph
file would fail its enclosure claims; ``verify`` refuses it with one line
that names the version.  Patch records are the same in both formats.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ATTEMPT_ERRORS
from .expr import to_source
from .graph_cover import sheet_measures
from .intervals import Interval, IntervalBox
from .krawczyk import krawczyk_cells, krawczyk_test
from .system import AnalyticSystem

__all__ = [
    "VerifyReport",
    "read_jsonl",
    "verify_jsonl",
    "write_graph_jsonl",
    "write_surface_jsonl",
    "write_surface_obj",
]

FORMAT_VERSION = 2

# halving a float range more often than this leaves no float between its ends
_MAX_DEPTH = 2100

_CHECK_ERRORS = ATTEMPT_ERRORS + (ValueError, KeyError, TypeError)


def _system_fields(system) -> dict:
    names = list(system.variables)
    return {
        "variables": names,
        "equations": [to_source(e, names) for e in system.equations],
    }


def _cert_fields(cert) -> dict:
    return {
        "norm_k": cert.norm_k,
        "threshold": cert.threshold,
        "margin": cert.margin,
    }


def _write_jsonl(path, header: dict, records) -> None:
    """Write the header and then each record as one JSON line, a line at a time."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, allow_nan=False) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=False) + "\n")


def write_surface_jsonl(run, path) -> int:
    """Write one header line plus one line per live patch; returns the count."""
    patches = run.live_patches()
    header = {
        "record": "header",
        "format_version": FORMAT_VERSION,
        "mode": "surface",
        "count": len(patches),
        "n": run.system.n,
        "d": run.system.d,
        **_system_fields(run.system),
        "rho": run.rho,
        "r_initial": run.r_initial,
        "natural": run.natural,
        "truncated": run.truncated,
        "domain": None
        if run.domain is None
        else [[p.lo, p.hi] for p in run.domain.parts],
    }
    records = (
        {
            "record": "patch",
            "id": pid,
            "center": [float(c) for c in patch.frame.center],
            "frame_v": [[float(x) for x in row] for row in patch.frame.v],
            "frame_u": [[float(x) for x in row] for row in patch.frame.u],
            "r": patch.r,
            "r_fiber": patch.r_fiber,
            "rho": patch.rho,
            "color_tag": "initial" if pid == 0 else "grown",
            "truncated": run.truncated,
            "certificate": _cert_fields(patch.cert),
        }
        for pid, patch in patches
    )
    _write_jsonl(path, header, records)
    return len(patches)


def write_graph_jsonl(system, cover, path) -> int:
    """Write a graph cover as a header line plus one line per cell."""
    header = {
        "record": "header",
        "format_version": FORMAT_VERSION,
        "mode": "graph",
        "count": len(cover.cells),
        "n": system.n,
        "d": system.d,
        **_system_fields(system),
        "rho": cover.rho,
        "sheets": cover.sheets,
        "base_bounds": [[lo, hi] for lo, hi in cover.base_bounds],
    }
    records = (
        {
            "record": "cell",
            "id": k,
            "bounds": [[lo, hi] for lo, hi in cell.bounds],
            "depth": cell.depth,
            "sheet": cell.sheet,
            "fiber_center": [float(y) for y in cell.fiber_center],
            "fiber_radius": cell.fiber_radius,
            "fiber_enclosure": cell.fiber_enclosure,
            "certificate": _cert_fields(cell.cert),
        }
        for k, cell in enumerate(cover.cells)
    )
    _write_jsonl(path, header, records)
    return len(cover.cells)


def read_jsonl(path) -> tuple[dict, list[dict]]:
    """Read a cover file back as (header, records)."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows or rows[0].get("record") != "header":
        raise ValueError(f"{path}: first line is not a header record")
    return rows[0], rows[1:]


@dataclass
class VerifyReport:
    """Outcome of re-checking every record in a cover file."""

    ok: bool
    checked: int
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "all certificates hold" if self.ok else "verification FAILED"
        return f"{status}: {self.checked} records checked, {len(self.failures)} failures"


def _patch_test(system, rho: float, rec: dict):
    """Re-run a patch record's test; returns (result, claimed fiber radius)."""
    v = np.asarray(rec["frame_v"], dtype=float)
    u = np.asarray(rec["frame_u"], dtype=float)
    r = float(rec["r"])
    gsys = system.transform(u, v, shift=[float(c) for c in rec["center"]])
    base = IntervalBox([Interval(-r, r) for _ in range(system.d)])
    return krawczyk_test(gsys, base, [0.0] * system.m, r, rho), float(rec["r_fiber"])


def _cell_inputs(system, rec: dict) -> list[float]:
    """A cell record's test inputs as one row: lo, hi, fiber center, fiber radius, claimed enclosure."""
    bounds = [Interval(lo, hi) for lo, hi in rec["bounds"]]
    y = [float(c) for c in rec["fiber_center"]]
    r2 = float(rec["fiber_radius"])
    if len(bounds) != system.d or len(y) != system.m:
        raise ValueError("base/fiber split does not match the system")
    if not r2 > 0.0:
        raise ValueError(f"fiber radius must be positive, got {r2}")
    return [b.lo for b in bounds] + [b.hi for b in bounds] + y + [r2, float(rec["fiber_enclosure"])]


def _label(rec: dict) -> str:
    return f"{rec['record']} {rec.get('id', '?')}"


def _judge(passed: bool, norm_k: float, claimed: float) -> str | None:
    """Why a re-run test does not support a record's claim, or None when it does."""
    if not passed:
        return "contraction test fails on re-run"
    if not claimed >= norm_k:
        # the stored slab half-width or cell enclosure must cover the proven
        # enclosure of the sheet around the center
        return "stored enclosure is below the proven bound"
    return None


def _dyadic_index(lo: float, hi: float, clo: float, chi: float, depth: int) -> int | None:
    """Position of [clo, chi] among the depth-fold halvings of [lo, hi].

    Each halving splits at ``Interval.midpoint``, as the graph cover does.
    None when [clo, chi] is not one of the 2^depth pieces.
    """
    index = 0
    for _ in range(depth):
        mid = Interval(lo, hi).midpoint()
        if chi <= mid:
            hi, index = mid, 2 * index
        elif clo >= mid:
            lo, index = mid, 2 * index + 1
        else:
            return None
    return index if (lo, hi) == (clo, chi) else None


def _verify_tiling(header: dict, cells: list[dict], d: int) -> list[str]:
    """Check that the cells of each claimed sheet tile ``base_bounds``.

    Every cell must lie inside the base rectangle, name one of the header's
    sheets and be the dyadic cell its depth names; no two cells of a sheet
    may nest, and each sheet's dyadic measure must be exactly 1.  Cells that
    do not nest overlap in measure zero, so measure 1 means they tile.
    """
    sheets = header.get("sheets")
    if type(sheets) is not int or not 1 <= sheets <= len(cells):
        return [f"header claims {sheets!r} sheets for {len(cells)} cells"]
    try:
        base = [(float(lo), float(hi)) for lo, hi in header["base_bounds"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"header base_bounds unreadable ({exc})"]
    if len(base) != d:
        return [f"header base_bounds has {len(base)} ranges, expected {d}"]
    problems: list[str] = []
    labels = []
    # (sheet, depth, per-axis dyadic index) -> cell label; cells of a tiling
    # share most axis ranges, so each axis replay is kept in ``axis_index``
    cells_at: dict[tuple, str] = {}
    axis_index: dict[tuple, int | None] = {}
    for rec in cells:
        label = f"cell {rec.get('id', '?')}"
        try:
            bounds = [(float(lo), float(hi)) for lo, hi in rec["bounds"]]
        except (KeyError, TypeError, ValueError):
            bounds = []
        inside = len(bounds) == d and all(
            blo <= lo < hi <= bhi for (lo, hi), (blo, bhi) in zip(bounds, base)
        )
        if not inside:
            problems.append(f"{label}: bounds do not lie inside base_bounds")
        sheet, depth = rec.get("sheet"), rec.get("depth")
        if type(sheet) is not int or not 0 <= sheet < sheets:
            problems.append(f"{label}: sheet {sheet!r} is not one of {sheets}")
        elif type(depth) is not int or not 0 <= depth <= _MAX_DEPTH:
            problems.append(f"{label}: depth {depth!r} is out of range")
        else:
            labels.append((sheet, depth))
            if not inside:
                continue
            index = []
            for k, ((blo, bhi), (lo, hi)) in enumerate(zip(base, bounds)):
                key = (k, lo, hi, depth)
                if key not in axis_index:
                    axis_index[key] = _dyadic_index(blo, bhi, lo, hi, depth)
                index.append(axis_index[key])
            key = (sheet, depth, tuple(index))
            if None in index:
                problems.append(f"{label}: bounds are not the depth-{depth} cell of base_bounds")
            elif key in cells_at:
                problems.append(f"{label}: repeats {cells_at[key]}")
            else:
                cells_at[key] = label
    # a cell nests inside another when one of its dyadic ancestors is a cell
    ancestors = set()
    for sheet, depth, index in cells_at:
        while depth > 0:
            depth, index = depth - 1, tuple(j >> 1 for j in index)
            if (sheet, depth, index) in ancestors:
                break
            ancestors.add((sheet, depth, index))
    for key, label in cells_at.items():
        if key in ancestors:
            problems.append(f"{label}: holds a smaller cell of sheet {key[0]}")
    for k, measure in enumerate(sheet_measures(labels, sheets, d)):
        if measure != 1:
            problems.append(f"sheet {k} covers {measure} of base_bounds, not all of it")
    return problems


def verify_jsonl(path) -> VerifyReport:
    """Re-run every certificate in a cover file against a rebuilt system.

    Nothing from the stored certificates is trusted: the system is parsed
    back from the header, the contraction test is repeated with the stored
    frame or bounds and the header's rho, and each record must both pass
    afresh and have claimed no more than the fresh run proves.  A graph
    file must also tile its base rectangle once per claimed sheet.  Raises
    for files whose header cannot be read at all; record-level problems
    land in the report, in record order.
    """
    header, records = read_jsonl(path)
    try:
        system = AnalyticSystem.from_equations(header["variables"], header["equations"])
    except KeyError as exc:
        raise ValueError(f"{path}: header is missing field {exc}") from exc
    mode = header.get("mode")
    expected = {"surface": "patch", "graph": "cell"}.get(mode)
    if expected is None:
        raise ValueError(f"{path}: unknown mode {mode!r}")
    version = header.get("format_version")
    if mode == "graph" and version != FORMAT_VERSION:
        return VerifyReport(
            ok=False,
            checked=0,
            failures=[
                f"graph file format_version {version!r} is not {FORMAT_VERSION}:"
                " its cells were certified by an older kernel; export the cover again"
            ],
        )
    failures: list[str] = []
    if header.get("count") != len(records):
        failures.append(
            f"header claims {header.get('count')} records, file has {len(records)}"
        )
    d, m = system.d, system.m
    problems: list[tuple[int, str]] = []  # (record index, failure line)
    # cell records are tested in one batch after the loop: lane k is record lanes[k]
    lanes: list[int] = []
    rows = np.empty((len(records) if mode == "graph" else 0, 2 * d + m + 2))
    rho = None
    for i, rec in enumerate(records):
        if rec.get("record") != expected:
            problems.append((i, f"unexpected record type {rec.get('record')!r}"))
            continue
        label = _label(rec)
        try:
            if not float(rec["certificate"]["margin"]) > 0.0:
                problems.append((i, f"{label}: stored margin is not positive"))
            rho = float(header["rho"])
            if expected == "cell":
                rows[len(lanes)] = _cell_inputs(system, rec)
                lanes.append(i)
                continue
            if float(rec["rho"]) != rho:
                problems.append((i, f"{label}: rho {rec['rho']} differs from the header's {rho}"))
            res, claimed = _patch_test(system, rho, rec)
            outcome = _judge(res.passed, res.norm_k, claimed)
        except _CHECK_ERRORS as exc:
            outcome = f"re-check could not run ({exc})"
        if outcome is not None:
            problems.append((i, f"{label}: {outcome}"))
    if lanes:
        lo, hi, y, r2, claimed = np.split(rows[: len(lanes)], np.cumsum([d, d, m, 1]), axis=1)
        try:
            res = krawczyk_cells(system, (lo, hi), y, r2[:, 0], rho)
            outcomes = map(_judge, res.passed.tolist(), res.norm_k.tolist(), claimed[:, 0].tolist())
        except _CHECK_ERRORS as exc:
            outcomes = [f"re-check could not run ({exc})"] * len(lanes)
        for i, outcome in zip(lanes, outcomes):
            if outcome is not None:
                problems.append((i, f"{_label(records[i])}: {outcome}"))
    # a stable sort keeps each record's lines in the order they were found
    failures.extend(line for _, line in sorted(problems, key=lambda item: item[0]))
    if mode == "graph":
        cells = [rec for rec in records if rec.get("record") == "cell"]
        failures.extend(_verify_tiling(header, cells, system.d))
    return VerifyReport(ok=not failures, checked=len(records), failures=failures)


# ---------------------------------------------------------------------------
# OBJ meshes

# vertex k has sign bits (k>>2, k>>1, k>>0) over the local axes; each face
# lists its quad corners counterclockwise seen from outside for det(V) > 0
_CUBE_FACES = (
    (4, 6, 7, 5),
    (0, 1, 3, 2),
    (2, 3, 7, 6),
    (0, 4, 5, 1),
    (1, 5, 7, 3),
    (0, 2, 6, 4),
)

_MTL_SOURCE = """newmtl seed
Kd 0.85 0.15 0.15
newmtl grown
Kd 0.62 0.62 0.62
"""


def write_surface_obj(run, path) -> int:
    """Write the live uniqueness cubes as an OBJ mesh; returns the box count.

    The starting patch (id 0) is tagged with the ``seed`` material, everything
    else with ``grown``.  A sibling .mtl file provides both materials.
    """
    if run.system.n != 3:
        raise ValueError("OBJ export needs an ambient dimension of 3")
    mtl_path = os.path.splitext(path)[0] + ".mtl"
    with open(mtl_path, "w") as fh:
        fh.write(_MTL_SOURCE)
    lines = [f"mtllib {os.path.basename(mtl_path)}"]
    offset = 0
    for pid, patch in run.live_patches():
        center = np.asarray(patch.frame.center)
        v = patch.frame.v
        mirrored = float(np.linalg.det(v)) < 0.0
        lines.append(f"o patch_{pid}")
        lines.append("usemtl seed" if pid == 0 else "usemtl grown")
        for k in range(8):
            signs = np.array(
                [1.0 if k & bit else -1.0 for bit in (4, 2, 1)]
            )
            corner = center + v @ (signs * patch.r)
            lines.append("v " + " ".join(repr(float(c)) for c in corner))
        for a, b, c, d in _CUBE_FACES:
            tris = ((a, b, c), (a, c, d))
            for t0, t1, t2 in tris:
                if mirrored:
                    t1, t2 = t2, t1
                lines.append(f"f {offset + t0 + 1} {offset + t1 + 1} {offset + t2 + 1}")
        offset += 8
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return offset // 8
