"""Config parsing, JSONL round trips, re-verification, OBJ geometry, CLI exits."""

import json
import time
from fractions import Fraction

import pytest

from certsurf.cli import cli_main
from certsurf.config import RunConfig, parse_config, parse_ratio_down
from certsurf.errors import ConfigError
from certsurf.exports import (
    read_jsonl,
    verify_jsonl,
    write_graph_jsonl,
    write_surface_jsonl,
    write_surface_obj,
)
from certsurf.graph_cover import cover_graph
from certsurf.intervals import Interval, IntervalBox
from certsurf.surface import SurfaceRun, certified_surface_approximation
from certsurf.system import AnalyticSystem

SPHERE_SRC = "variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n"

SPHERE_CFG = """\
# cover of a sphere cap
mode = surface
variables = x y z
equation = x^2 + y^2 + z^2 - 1 = 0
start = 0 0 1
r = 0.1
rho = 1/8
max_boxes = 6
"""


@pytest.fixture(scope="module")
def cap_run():
    sph = AnalyticSystem.from_source(SPHERE_SRC)
    return certified_surface_approximation(
        sph, (0.0, 0.0, 1.0), 0.1, 0.125, max_boxes=8
    )


def _rewrite(src, dst, mutate):
    header, recs = read_jsonl(src)
    mutate(header, recs)
    lines = [json.dumps(header)] + [json.dumps(r) for r in recs]
    dst.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# ratio parsing and config files


def test_ratio_parse_exact_dyadics():
    assert parse_ratio_down("1/8") == 0.125
    assert parse_ratio_down("7/8") == 0.875
    assert parse_ratio_down("0.25") == 0.25


def test_ratio_parse_rounds_toward_zero():
    for text, frac in (("1/3", Fraction(1, 3)), ("2/3", Fraction(2, 3))):
        v = parse_ratio_down(text)
        assert Fraction(v) <= frac
        assert abs(Fraction(v) - frac) < Fraction(1, 10**12)


def test_ratio_parse_rejects_garbage():
    for text in ("eight", "1/0"):
        with pytest.raises(ConfigError):
            parse_ratio_down(text)


def test_parse_config_reads_all_keys():
    cfg = parse_config(SPHERE_CFG + "domain = -2 2 -2 2 -2 2\nout_json = a.jsonl\n")
    assert cfg.mode == "surface"
    assert cfg.variables == ["x", "y", "z"]
    # trailing '= 0' on an equation line is dropped
    assert cfg.equations == ["x^2 + y^2 + z^2 - 1"]
    assert cfg.start == [0.0, 0.0, 1.0]
    assert cfg.r_initial == 0.1
    assert cfg.rho == 0.125
    assert cfg.domain == [(-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)]
    assert cfg.max_boxes == 6
    assert cfg.out_json == "a.jsonl"
    cfg.validate()


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("radius = 0.1\n")


def test_parse_config_rejects_odd_domain():
    with pytest.raises(ConfigError, match="even count"):
        parse_config("domain = 1 2 3\n")


def test_validate_equation_count():
    cfg = parse_config(SPHERE_CFG + "equation = x\n")
    with pytest.raises(ConfigError, match="1 equations"):
        cfg.validate()


def test_validate_rho_range():
    cfg = parse_config(SPHERE_CFG.replace("rho = 1/8", "rho = 3/2"))
    with pytest.raises(ConfigError, match="rho"):
        cfg.validate()


def test_validate_graph_needs_domain():
    cfg = parse_config(SPHERE_CFG.replace("mode = surface", "mode = graph"))
    with pytest.raises(ConfigError, match="domain"):
        cfg.validate()


def test_config_builds_working_system():
    cfg = parse_config(SPHERE_CFG)
    system = cfg.system()
    assert system.n == 3 and system.m == 1
    assert system.eval_point([0.0, 0.0, 1.0])[0] == 0.0


# ---------------------------------------------------------------------------
# JSONL round trips and re-verification


def test_surface_jsonl_round_trip(cap_run, tmp_path):
    path = tmp_path / "cap.jsonl"
    count = write_surface_jsonl(cap_run, path)
    header, recs = read_jsonl(path)
    assert header["mode"] == "surface"
    assert header["count"] == count == len(recs)
    assert header["variables"] == ["x", "y", "z"]
    assert header["truncated"] is True
    ids = [r["id"] for r in recs]
    assert len(set(ids)) == len(ids)
    for rec in recs:
        assert rec["record"] == "patch"
        assert len(rec["center"]) == 3
        assert len(rec["frame_v"]) == 3 and len(rec["frame_v"][0]) == 3
        assert rec["certificate"]["margin"] > 0.0
        assert rec["r_fiber"] <= rec["rho"] * rec["r"] * (1.0 + 1e-15)


def test_empty_run_exports_header_only(tmp_path):
    sph = AnalyticSystem.from_source(SPHERE_SRC)
    run = SurfaceRun(system=sph, rho=0.125, r_initial=0.1)
    path = tmp_path / "empty.jsonl"
    assert write_surface_jsonl(run, path) == 0
    header, recs = read_jsonl(path)
    assert header["count"] == 0
    assert recs == []


def test_verify_accepts_honest_export(cap_run, tmp_path):
    path = tmp_path / "cap.jsonl"
    write_surface_jsonl(cap_run, path)
    report = verify_jsonl(path)
    assert report.ok
    assert report.checked == cap_run.live_count()
    assert report.failures == []


def test_verify_rejects_flipped_margin(cap_run, tmp_path):
    src = tmp_path / "cap.jsonl"
    write_surface_jsonl(cap_run, src)
    bad = tmp_path / "bad.jsonl"

    def flip(header, recs):
        recs[0]["certificate"]["margin"] = -recs[0]["certificate"]["margin"]

    _rewrite(src, bad, flip)
    report = verify_jsonl(bad)
    assert not report.ok
    assert any("margin" in f for f in report.failures)


def test_verify_rejects_tampered_frame(cap_run, tmp_path):
    src = tmp_path / "cap.jsonl"
    write_surface_jsonl(cap_run, src)
    bad = tmp_path / "bad_frame.jsonl"

    def stretch(header, recs):
        recs[0]["frame_v"] = [[2.0 * x for x in row] for row in recs[0]["frame_v"]]

    _rewrite(src, bad, stretch)
    assert not verify_jsonl(bad).ok


def test_verify_rejects_inflated_radius(cap_run, tmp_path):
    src = tmp_path / "cap.jsonl"
    write_surface_jsonl(cap_run, src)
    bad = tmp_path / "bad_r.jsonl"

    def inflate(header, recs):
        recs[0]["r"] = 5.0

    _rewrite(src, bad, inflate)
    report = verify_jsonl(bad)
    assert not report.ok
    assert any("fails on re-run" in f for f in report.failures)


def test_verify_rejects_count_mismatch(cap_run, tmp_path):
    src = tmp_path / "cap.jsonl"
    write_surface_jsonl(cap_run, src)
    bad = tmp_path / "bad_count.jsonl"
    _rewrite(src, bad, lambda header, recs: recs.pop())
    assert not verify_jsonl(bad).ok


def test_graph_jsonl_round_trip_and_verify(tmp_path):
    sph = AnalyticSystem.from_source(SPHERE_SRC)
    cover = cover_graph(
        sph, [(-0.1, 0.1), (-0.1, 0.1)], IntervalBox([Interval(0.5, 1.5)]), 0.125
    )
    path = tmp_path / "graph.jsonl"
    count = write_graph_jsonl(sph, cover, path)
    header, recs = read_jsonl(path)
    assert header["mode"] == "graph"
    assert header["count"] == count == len(recs) == len(cover.cells)
    assert header["sheets"] == 1
    report = verify_jsonl(path)
    assert report.ok and report.checked == count

    bad = tmp_path / "graph_bad.jsonl"

    def flip(header, recs):
        recs[-1]["certificate"]["margin"] = -recs[-1]["certificate"]["margin"]

    _rewrite(path, bad, flip)
    assert not verify_jsonl(bad).ok


SADDLE_SRC = "variables = x y z\n0.25*x^2 - 0.125*x*y^2 - z = 0\n"


@pytest.fixture(scope="module")
def saddle_export(tmp_path_factory):
    """A 52-cell one-sheet graph cover of the saddle over [-0.5, 0.5]^2."""
    saddle = AnalyticSystem.from_source(SADDLE_SRC)
    cover = cover_graph(
        saddle, [(-0.5, 0.5), (-0.5, 0.5)], IntervalBox([Interval(-10.0, 10.0)]), 0.125
    )
    path = tmp_path_factory.mktemp("saddle") / "saddle.jsonl"
    assert write_graph_jsonl(saddle, cover, path) == 52
    return path


def test_verify_rejects_dropped_cells(saddle_export, tmp_path):
    assert verify_jsonl(saddle_export).ok
    bad = tmp_path / "half.jsonl"

    def drop_every_second(header, recs):
        recs[:] = recs[::2]
        header["count"] = len(recs)

    _rewrite(saddle_export, bad, drop_every_second)
    report = verify_jsonl(bad)
    assert not report.ok and report.checked == 26
    assert report.failures == ["sheet 0 covers 1/2 of base_bounds, not all of it"]


def test_verify_rejects_lowered_depth(saddle_export, tmp_path):
    # three deepest cells dropped and a survivor's depth lowered by one keep
    # every sheet measure at 1; the survivor's bounds give the forgery away
    bad = tmp_path / "depth.jsonl"
    forged = []

    def lower(header, recs):
        deep = max(r["depth"] for r in recs)
        deepest = [r for r in recs if r["depth"] == deep]
        for r in deepest[:3]:
            recs.remove(r)
        deepest[3]["depth"] = deep - 1
        forged.append(deepest[3])
        header["count"] = len(recs)

    _rewrite(saddle_export, bad, lower)
    report = verify_jsonl(bad)
    assert report.checked == 49
    cell = forged[0]
    assert report.failures == [
        f"cell {cell['id']}: bounds are not the depth-{cell['depth']} cell of base_bounds"
    ]


def test_verify_rejects_nested_cells(saddle_export, tmp_path):
    # a copy of a depth-3 cell on its lower-left quarter replaces a depth-4
    # cell elsewhere: the measure stays 1 and every certificate re-checks,
    # but the dropped cell leaves a hole
    bad = tmp_path / "nested.jsonl"
    ids = []

    def nest(header, recs):
        outer = next(r for r in recs if r["depth"] == 3)
        quarter = [[lo, Interval(lo, hi).midpoint()] for lo, hi in outer["bounds"]]
        inner = dict(outer, id=len(recs), depth=4, bounds=quarter)
        recs.remove(next(r for r in recs if r["depth"] == 4))
        recs.append(inner)
        ids.append(outer["id"])

    _rewrite(saddle_export, bad, nest)
    report = verify_jsonl(bad)
    assert report.failures == [f"cell {ids[0]}: holds a smaller cell of sheet 0"]


def test_verify_rejects_repeated_cell(saddle_export, tmp_path):
    bad = tmp_path / "repeat.jsonl"

    def repeat(header, recs):
        recs.append(dict(recs[0], id=len(recs)))
        header["count"] = len(recs)

    _rewrite(saddle_export, bad, repeat)
    report = verify_jsonl(bad)
    assert "cell 52: repeats cell 0" in report.failures
    assert not report.ok


def test_verify_reports_record_without_certificate(saddle_export, tmp_path):
    bad = tmp_path / "no_cert.jsonl"
    _rewrite(saddle_export, bad, lambda header, recs: recs[5].pop("certificate"))
    report = verify_jsonl(bad)
    assert report.failures == ["cell 5: re-check could not run ('certificate')"]
    assert cli_main(["verify", str(bad)]) == 2


def test_verify_refuses_format_1_graph_file(saddle_export, tmp_path):
    # format-1 cells were certified by the scalar kernel, whose last-bit
    # norm_k sits below today's: the file is refused as a whole, once
    old = tmp_path / "format1.jsonl"
    _rewrite(saddle_export, old, lambda header, recs: header.update(format_version=1))
    report = verify_jsonl(old)
    assert not report.ok
    assert len(report.failures) == 1
    assert "format_version 1" in report.failures[0]
    assert cli_main(["verify", str(old)]) == 2


def test_verify_accepts_format_1_surface_file(cap_run, tmp_path):
    # patch records and their test did not change between the formats
    src = tmp_path / "cap.jsonl"
    write_surface_jsonl(cap_run, src)
    old = tmp_path / "cap1.jsonl"
    _rewrite(src, old, lambda header, recs: header.update(format_version=1))
    assert verify_jsonl(old).ok
    assert cli_main(["verify", str(old)]) == 0


def test_verify_rejects_cell_outside_base(saddle_export, tmp_path):
    bad = tmp_path / "outside.jsonl"

    def widen(header, recs):
        header["base_bounds"][0] = [-0.25, 0.5]

    _rewrite(saddle_export, bad, widen)
    report = verify_jsonl(bad)
    assert not report.ok
    assert any("inside base_bounds" in f for f in report.failures)


def test_verify_rejects_sheet_count_mismatch(saddle_export, tmp_path):
    bad = tmp_path / "sheets.jsonl"
    _rewrite(saddle_export, bad, lambda header, recs: header.update(sheets=2))
    report = verify_jsonl(bad)
    assert report.failures == ["sheet 1 covers 0 of base_bounds, not all of it"]

    relabel = tmp_path / "relabel.jsonl"
    _rewrite(saddle_export, relabel, lambda header, recs: recs[0].update(sheet=1))
    assert any("sheet 1 is not one of 1" in f for f in verify_jsonl(relabel).failures)


def test_verify_rejects_foreign_rho(tmp_path):
    sph = AnalyticSystem.from_source(SPHERE_SRC)
    run = certified_surface_approximation(sph, (0.0, 0.0, 1.0), 0.1, 0.125, max_boxes=3)
    src = tmp_path / "three.jsonl"
    write_surface_jsonl(run, src)
    assert verify_jsonl(src).ok
    bad = tmp_path / "rho.jsonl"

    def loosen(header, recs):
        recs[1]["rho"] = 0.5

    _rewrite(src, bad, loosen)
    report = verify_jsonl(bad)
    assert not report.ok
    assert any("differs from the header" in f for f in report.failures)


# ---------------------------------------------------------------------------
# OBJ meshes


def test_obj_counts_and_materials(cap_run, tmp_path):
    path = tmp_path / "cap.obj"
    boxes = write_surface_obj(cap_run, path)
    text = path.read_text().splitlines()
    verts = [l for l in text if l.startswith("v ")]
    faces = [l for l in text if l.startswith("f ")]
    assert boxes == cap_run.live_count()
    assert len(verts) == 8 * boxes
    assert len(faces) == 12 * boxes
    assert sum(1 for l in text if l == "usemtl seed") == 1
    assert (tmp_path / "cap.mtl").exists()


def test_obj_boxes_are_watertight(cap_run, tmp_path):
    path = tmp_path / "cap.obj"
    write_surface_obj(cap_run, path)
    tris = []
    for line in path.read_text().splitlines():
        if line.startswith("f "):
            tris.append([int(tok) for tok in line.split()[1:]])
    # per box: 12 triangles over 8 vertices, every undirected edge shared
    # by exactly two triangles
    for start in range(0, len(tris), 12):
        edges = {}
        for tri in tris[start : start + 12]:
            for i in range(3):
                e = frozenset((tri[i], tri[(i + 1) % 3]))
                edges[e] = edges.get(e, 0) + 1
        assert len(edges) == 18
        assert all(cnt == 2 for cnt in edges.values())


def test_obj_requires_ambient_dimension_3(tmp_path):
    quad = AnalyticSystem.from_source(
        "variables = x y z w\nx^2 + y^2 + z^2 + w^2 - 1 = 0\nw = 0\n"
    )
    run = certified_surface_approximation(
        quad, (0.0, 0.0, 1.0, 0.0), 0.1, 0.125, max_boxes=1
    )
    with pytest.raises(ValueError, match="dimension"):
        write_surface_obj(run, tmp_path / "quad.obj")


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_approximate_verify_cycle(tmp_path):
    cfg = tmp_path / "run.cfg"
    out_json = tmp_path / "out.jsonl"
    out_obj = tmp_path / "out.obj"
    cfg.write_text(
        SPHERE_CFG + f"out_json = {out_json}\nout_obj = {out_obj}\n"
    )
    assert cli_main(["approximate", str(cfg)]) == 0
    assert out_json.exists() and out_obj.exists()
    assert (tmp_path / "out.mtl").exists()
    assert cli_main(["verify", str(out_json)]) == 0

    bad = tmp_path / "tampered.jsonl"

    def flip(header, recs):
        recs[2]["certificate"]["margin"] = -abs(recs[2]["certificate"]["margin"])

    _rewrite(out_json, bad, flip)
    assert cli_main(["verify", str(bad)]) == 2


def test_cli_flag_overrides(tmp_path):
    out_json = tmp_path / "flags.jsonl"
    code = cli_main(
        [
            "approximate",
            "--variables",
            "x y z",
            "--equation",
            "x^2 + y^2 + z^2 - 1",
            "--start",
            "0 0 1",
            "--rho",
            "1/8",
            "--max-boxes",
            "3",
            "--out-json",
            str(out_json),
        ]
    )
    assert code == 0
    header, recs = read_jsonl(out_json)
    assert header["count"] == 3
    assert header["truncated"] is True


def test_cli_graph_subcommand(tmp_path, capsys):
    out_json = tmp_path / "graph.jsonl"
    code = cli_main(
        [
            "graph",
            "--variables",
            "x y z",
            "--equation",
            "x^2 + y^2 + z^2 - 1",
            "--domain",
            "-0.1 0.1 -0.1 0.1 0.5 1.5",
            "--rho",
            "1/8",
            "--out-json",
            str(out_json),
        ]
    )
    assert code == 0
    cells = read_jsonl(out_json)[0]["count"]
    first = capsys.readouterr().out.splitlines()[0]
    tests = int(first.split()[-3])
    assert first == f"{cells} certified cells over 1 sheet(s) from {tests} cell tests"
    assert tests >= cells
    assert cli_main(["verify", str(out_json)]) == 0


def test_cli_missing_inputs_exit_3(tmp_path):
    assert cli_main(["approximate", str(tmp_path / "nope.cfg")]) == 3
    assert cli_main(["verify", str(tmp_path / "nope.jsonl")]) == 3


def test_cli_bad_config_exits_3(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("variables = x y z\nstart = 0 0 1\n")  # no equations
    assert cli_main(["approximate", str(cfg)]) == 3


@pytest.mark.parametrize("flag", ["--r", "--rho"])
def test_cli_number_beyond_float_range_exits_3(flag, capsys):
    argv = ["approximate", "--variables", "x y z", "--equation", "x^2 + y^2 + z^2 - 1"]
    assert cli_main(argv + ["--start", "0 0 1", flag, "1e400"]) == 3
    assert "float range" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["r", "rho"])
def test_cli_config_number_beyond_float_range_exits_3(key, tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SPHERE_CFG + f"{key} = -1e400\n")
    assert cli_main(["approximate", str(cfg)]) == 3
    assert "float range" in capsys.readouterr().err


def test_cli_huge_decimal_exponent_exits_3_at_once(capsys):
    # the exact value of this literal would take minutes to build
    argv = ["approximate", "--variables", "x y z", "--equation", "x^2 + y^2 + z^2 - 1"]
    t0 = time.perf_counter()
    assert cli_main(argv + ["--start", "0 0 1", "--r", "1e100000000"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "float range" in capsys.readouterr().err


def test_cli_config_tiny_decimal_exponent_exits_3_at_once(tmp_path, capsys):
    # far below the float range the literal reads as 0, which validation refuses
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SPHERE_CFG + "rho = 1e-100000000\n")
    t0 = time.perf_counter()
    assert cli_main(["approximate", str(cfg)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "rho must lie strictly between 0 and 1" in capsys.readouterr().err


def test_cli_usage_error_exits_3(capsys):
    assert cli_main(["frobnicate"]) == 3
    capsys.readouterr()


def test_cli_graph_certifies_around_a_domain_error(tmp_path):
    # the root cell's Jacobian divides by an enclosure of sqrt(...) reaching 0;
    # that cell fails like any other attempt and is split
    out_json = tmp_path / "sqrt.jsonl"
    code = cli_main(
        [
            "graph",
            "--variables",
            "x y",
            "--equation",
            "y - sqrt(x^2 - x + 1)",
            "--domain",
            "0 1 -10 10",
            "--out-json",
            str(out_json),
        ]
    )
    assert code == 0
    assert cli_main(["verify", str(out_json)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        # every cell at x = 0 divides by sqrt(x) in the Jacobian
        ["graph", "--variables", "x y", "--equation", "y - sqrt(x)", "--domain", "0 1 -10 10"],
        # sqrt of a negative value at the start point
        [
            "approximate",
            "--variables",
            "x y z",
            "--equation",
            "sqrt(x) + y^2 + z^2 - 1",
            "--start",
            "-0.5 0 0",
            "--r",
            "0.1",
            "--rho",
            "1/8",
            "--max-boxes",
            "3",
        ],
        # 0 to a negative power at the start point
        ["approximate", "--variables", "x y z", "--equation", "z - x^(-2)", "--start", "0 0 0"],
        # a power that overflows at the start point
        [
            "approximate",
            "--variables",
            "x y z",
            "--equation",
            "x^3 + y^2 + z^2 - 1",
            "--start",
            "1e110 0 0",
        ],
    ],
    ids=["graph-sqrt-at-zero", "start-sqrt-negative", "start-zero-negative-power", "start-overflow"],
)
def test_cli_domain_errors_exit_2(argv, capsys):
    assert cli_main(argv) == 2
    assert "certification failed" in capsys.readouterr().err


def test_cli_start_overflow_says_the_residual_is_not_finite(capsys):
    argv = [
        "approximate",
        "--variables",
        "x y z",
        "--equation",
        "x^3 + y^2 + z^2 - 1",
        "--start",
        "1e110 0 0",
        "--r",
        "0.1",
        "--rho",
        "1/8",
        "--max-boxes",
        "3",
    ]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "residual at the start point is not finite" in err
    assert "None" not in err
