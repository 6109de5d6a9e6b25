"""Command-line interface: pipelines, outputs, determinism, exit codes."""

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gicgrid.cli import (_CSV_BLOCK, _build_parser, _cells, _json_text, _write_table,
                         plan_from_json, plan_to_json, run)
from gicgrid.data import Periods, load_scenario_file, parse_case, serialize_case
from gicgrid.dcnet import FieldVector, solve_series

from conftest import CASES, bundled, currents, effective, voltages

LOOP = 170.788 / 1.601


@pytest.fixture()
def workdir(tmp_path, b4gic_case):
    case_path = tmp_path / "b4gic.json"
    case_path.write_text(serialize_case(b4gic_case) + "\n")
    ramp = ["t_min,e_mag_vkm,e_dir_deg"]
    for k in range(73):
        t = 5.0 * k
        mag = 3.2 * (t / 180.0 if t <= 180.0 else (360.0 - t) / 180.0)
        ramp.append(f"{t},{mag},90.0")
    scen_path = tmp_path / "ramp.csv"
    scen_path.write_text("\n".join(ramp) + "\n")
    return tmp_path


def _rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# case_sha256=")
    return lines[1], lines[2:]


def test_dc_single_field(workdir):
    out = workdir / "out"
    rc = run(["dc", "--case", str(workdir / "b4gic.json"),
              "--field", "1.0", "--dir", "90", "--out", str(out)])
    assert rc == 0
    header, rows = _rows(out / "gic_branch.csv")
    assert header == "t_min,gmd_branch_id,i_dc_amps,i_eff_amps"
    by_branch = {int(r.split(",")[1]): r.split(",") for r in rows}
    assert abs(float(by_branch[2][2])) == pytest.approx(LOOP, rel=1e-9)
    assert float(by_branch[1][3]) == pytest.approx(LOOP, rel=1e-9)
    assert (out / "gic_bus.csv").exists()


def test_dc_scenario_rows(workdir):
    out = workdir / "out_sweep"
    rc = run(["dc", "--case", str(workdir / "b4gic.json"),
              "--scenario", str(workdir / "ramp.csv"), "--dt", "5",
              "--out", str(out)])
    assert rc == 0
    _, rows = _rows(out / "gic_branch.csv")
    assert len(rows) == 73 * 3  # three gmd branches per time point


def test_dc_sweep_matches_per_point_solves(workdir, b4gic_case):
    """The engine's sweep equals per-point solves and reruns byte-identically."""
    a, b = workdir / "run1", workdir / "run2"
    base = ["dc", "--case", str(workdir / "b4gic.json"),
            "--scenario", str(workdir / "ramp.csv"), "--dt", "5"]
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--out", str(b)]) == 0
    for name in ("gic_bus.csv", "gic_branch.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    scenario = load_scenario_file(str(workdir / "ramp.csv"))
    _, bus_rows = _rows(a / "gic_bus.csv")
    _, branch_rows = _rows(a / "gic_branch.csv")
    times = Periods.over(scenario, 5.0).edges.tolist()
    assert len(bus_rows) == 6 * len(times) and len(branch_rows) == 3 * len(times)
    for k, t in enumerate(times):
        sol = solve_series(b4gic_case, scenario, [t])
        eff, v_of, i_of = effective(b4gic_case, sol), voltages(sol), currents(sol)
        for row in bus_rows[6 * k:6 * (k + 1)]:
            tt, nid, v = row.split(",")
            assert float(tt) == t
            assert float(v) == pytest.approx(v_of[int(nid)], rel=1e-9, abs=1e-9)
        winding_eff = {row.gmd_br_hi: eff[pos] for pos, row in b4gic_case.xfmr_rows()}
        for row in branch_rows[3 * k:3 * (k + 1)]:
            tt, bid, i_dc, i_eff = row.split(",")
            assert float(tt) == t
            assert float(i_dc) == pytest.approx(i_of[int(bid)], rel=1e-9, abs=1e-9)
            assert float(i_eff) == pytest.approx(winding_eff.get(int(bid), 0.0),
                                                 rel=1e-9, abs=1e-9)


def test_overrides_file_reaches_dc(workdir, b4gic_case):
    """--overrides feeds a t_min,gmd_branch_id,volts file into the sweep: the
    override row changes the output, which matches per-point library solves."""
    over = workdir / "over.csv"
    over.write_text("t_min,gmd_branch_id,volts\n0,2,500\n")
    base = ["dc", "--case", str(workdir / "b4gic.json"),
            "--scenario", str(workdir / "ramp.csv"), "--dt", "30"]
    assert run(base + ["--out", str(workdir / "plain")]) == 0
    assert run(base + ["--overrides", str(over), "--out", str(workdir / "over")]) == 0
    meta = (workdir / "over" / "gic_branch.csv").read_text().splitlines()[0]
    assert "overrides_sha256=" in meta
    _, plain = _rows(workdir / "plain" / "gic_branch.csv")
    _, rows = _rows(workdir / "over" / "gic_branch.csv")
    assert rows != plain
    scenario = load_scenario_file(str(workdir / "ramp.csv"), overrides_path=str(over))
    for k, t in enumerate(Periods.over(scenario, 30.0).edges.tolist()):
        i_of = currents(solve_series(b4gic_case, scenario, [t]))
        for row in rows[3 * k:3 * (k + 1)]:
            tt, bid, i_dc, _ = row.split(",")
            assert float(tt) == t
            assert float(i_dc) == pytest.approx(i_of[int(bid)], rel=1e-9, abs=1e-9)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _edit_br_r(case) -> tuple[bytes, bytes]:
    """(original, edited) bytes of a case file: one line's br_r, same length."""
    original = case.read_bytes()
    edited = original.replace(b'"br_r": 1.001', b'"br_r": 1.002')
    assert edited != original and len(edited) == len(original)
    return original, edited


@pytest.mark.parametrize("command,stage,table", [
    (["ac", "--field", "1.0"], "gicgrid.cli.sequential_gic_ac", "ac_bus.csv"),
    (["mitigate", "--scenario", "ramp.csv", "--dt", "30"], "gicgrid.mitigation.solve",
     "plan_branches.csv"),
], ids=["ac", "mitigate"])
def test_header_hashes_the_bytes_analysed(workdir, monkeypatch, command, stage, table):
    """A case file rewritten while the command runs: the header still hashes
    the bytes that were parsed."""
    case = workdir / "b4gic.json"
    original, edited = _edit_br_r(case)
    module, name = stage.rsplit(".", 1)
    inner = getattr(importlib.import_module(module), name)

    def rewrite_then_run(*args, **kwargs):
        case.write_bytes(edited)
        return inner(*args, **kwargs)

    monkeypatch.setattr(stage, rewrite_then_run)
    argv = [command[0], "--case", str(case), "--out", str(workdir / "out")]
    assert run(argv + [str(workdir / a) if a.endswith(".csv") else a for a in command[1:]]) == 0
    assert case.read_bytes() == edited
    meta = (workdir / "out" / table).read_text().splitlines()[0].split()
    assert meta[1] == f"case_sha256={_sha256(original)}"


def test_rewritten_case_is_parsed_again(workdir):
    """In one process, a case file edited in place (same length, mtime restored)
    gives results and a header that follow the new bytes: a parse is
    remembered by the document's text, not its path."""
    case = workdir / "b4gic.json"
    argv = ["dc", "--case", str(case), "--field", "1.0", "--out"]
    assert run(argv + [str(workdir / "a")]) == 0
    original, edited = _edit_br_r(case)
    stat = case.stat()
    case.write_bytes(edited)
    os.utime(case, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert run(argv + [str(workdir / "b")]) == 0
    parse_case.cache_clear()
    assert run(argv + [str(workdir / "c")]) == 0
    a, b, c = ((workdir / d / "gic_branch.csv").read_text().splitlines() for d in "abc")
    assert a[0].split()[1] == f"case_sha256={_sha256(original)}"
    assert b[0].split()[1] == f"case_sha256={_sha256(edited)}"
    assert b[2:] != a[2:]
    assert b == c  # the same as a fresh parse of the edited file


@pytest.mark.parametrize("text,scenario,expect", [
    ("t_min,gmd_branch_id,volts\n0,999,100\n", True, "gmd_branch id 999"),
    (None, True, "No such file"),
    ("t_min,gmd_branch_id,volts\n0,2,100\n", False, "--overrides needs a --scenario"),
])
def test_bad_overrides_file_is_input_error(workdir, capsys, text, scenario, expect):
    over = workdir / "over.csv"
    if text is not None:
        over.write_text(text)
    out = workdir / "never"
    argv = ["dc", "--case", str(workdir / "b4gic.json"), "--overrides", str(over),
            "--out", str(out)]
    argv += ["--scenario", str(workdir / "ramp.csv")] if scenario else ["--field", "1"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and expect in err and "Traceback" not in err
    assert not out.exists()


def test_thermal_row_count(workdir):
    out = workdir / "th"
    rc = run(["thermal", "--case", str(workdir / "b4gic.json"),
              "--scenario", str(workdir / "ramp.csv"), "--dt", "5",
              "--out", str(out)])
    assert rc == 0
    _, rows = _rows(out / "thermal.csv")
    # 72 rows per transformer for the 6 h scenario
    per_branch = {}
    for r in rows:
        per_branch.setdefault(r.split(",")[1], []).append(r)
    assert set(per_branch) == {"1", "3"}
    assert all(len(v) == 72 for v in per_branch.values())


def test_thermal_without_traced_transformer_writes_header_only(workdir, capsys):
    """Transformers that stand for no ac branch (as estimated GSUs) have no
    thermal rows and are not traced: thermal.csv has its two header lines."""
    doc = json.loads((workdir / "b4gic.json").read_text())
    doc["branch_thermal"] = []
    for row in doc["branch_gmd"]:
        row["branch"] = -1
    case = workdir / "cold.json"
    case.write_text(json.dumps(doc))
    out = workdir / "th"
    assert run(["thermal", "--case", str(case), "--scenario", str(workdir / "ramp.csv"),
                "--out", str(out)]) == 0
    lines = (out / "thermal.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("# case_sha256=")
    assert lines[1] == "t_min,branch_id,delta_to_C,eta_hs_C,hotspot_C,limit_C,violation"
    assert "0 transformer(s)" in capsys.readouterr().out


@pytest.mark.parametrize("marked", ["case", "scenario", "overrides"])
@pytest.mark.parametrize("command,tables", [("dc", ["gic_bus.csv", "gic_branch.csv"]),
                                            ("thermal", ["thermal.csv"])])
def test_inputs_with_utf8_bom_write_the_same_tables(workdir, marked, command, tables):
    """A file saved as Excel's "CSV UTF-8" starts with a byte-order mark: each
    input with one writes the tables of the plain file, and the header hashes
    the bytes read, mark included."""
    plain = {"case": workdir / "b4gic.json", "scenario": workdir / "ramp.csv",
             "overrides": workdir / "over.csv"}
    plain["overrides"].write_text("t_min,gmd_branch_id,volts\n0,2,500\n")
    bom = workdir / f"bom_{plain[marked].name}"
    bom.write_bytes(b"\xef\xbb\xbf" + plain[marked].read_bytes())

    def tables_of(files, out):
        argv = [command, "--dt", "30", "--out", str(workdir / out)]
        assert run(argv + [a for k, path in files.items() for a in (f"--{k}", str(path))]) == 0
        return [(workdir / out / t).read_text().splitlines() for t in tables]

    for want, got in zip(tables_of(plain, "plain"), tables_of({**plain, marked: bom}, "bom")):
        assert got[1:] == want[1:] and len(got) > 3
        assert f"{marked}_sha256={_sha256(bom.read_bytes())}" in got[0].split()


def test_plan_with_utf8_bom_verifies_as_the_plain_one(workdir):
    plan = _plan(workdir)
    bom = workdir / "bom_plan.json"
    bom.write_bytes(b"\xef\xbb\xbf" + plan.read_bytes())
    assert _verify(workdir, plan, "--dt", "30") == 0
    want = (workdir / "ver" / "verify.json").read_text()
    assert _verify(workdir, bom, "--dt", "30") == 0
    assert (workdir / "ver" / "verify.json").read_text() == want


def test_runs_share_one_parser(workdir):
    """The argument parser is built once per process, not once per run."""
    argv = ["dc", "--case", str(workdir / "b4gic.json"), "--field", "1", "--out"]
    assert run(argv + [str(workdir / "a")]) == 0
    built = _build_parser.cache_info().misses
    assert run(argv + [str(workdir / "b")]) == 0
    assert run(["thermal", "--case", str(workdir / "b4gic.json"),
                "--scenario", str(workdir / "ramp.csv"), "--out", str(workdir / "c")]) == 0
    assert _build_parser.cache_info().misses == built == 1


def test_ac_subcommand(workdir):
    out = workdir / "ac"
    rc = run(["ac", "--case", str(workdir / "b4gic.json"),
              "--field", "1.0", "--dir", "90", "--out", str(out)])
    assert rc == 0
    _, rows = _rows(out / "qloss.csv")
    vals = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert set(vals) == {1, 3}
    assert all(v > 0 for v in vals.values())


def test_ac_losses_are_at_the_written_voltages(tmp_path, epri21_case):
    """Under a storm that pulls buses to ~0.83 p.u., each written loss is the
    conversion formula at the high-side voltage that ac_bus.csv reports."""
    rc = run(["ac", "--case", os.path.join(CASES, "epri21.json"), "--field", "3.2",
              "--dir", "90", "--out", str(tmp_path)])
    assert rc == 0
    vm = {int(r.split(",")[0]): float(r.split(",")[1]) for r in _rows(tmp_path / "ac_bus.csv")[1]}
    d_q = [float(r.split(",")[1]) for r in _rows(tmp_path / "qloss.csv")[1]]
    eff = effective(epri21_case, solve_series(
        epri21_case, np.array([FieldVector.from_mag_dir(3.2, 90.0)]), [0.0]))
    want = [row.gmd_k * vm[row.hi_bus] * np.sqrt(3.0) * epri21_case.bus(row.hi_bus).base_kv
            * eff.get(pos, 0.0) / (1000.0 * epri21_case.base_mva)
            for pos, row in epri21_case.xfmr_rows() if row.gmd_k is not None and row.gmd_k > 0]
    assert min(vm.values()) < 0.85 and len(d_q) == len(want) > 0
    assert d_q == pytest.approx(want, rel=1e-9)


def test_reversed_tables_give_the_same_rows(tmp_path):
    """The writers order rows by id, not by the case's table order: ``epri21``
    with every table reversed (generators, so, grouped by bus in another
    order) gives the bundled case's ``ac`` and ``dc`` rows, in the same id
    order, with values within 1e-9."""
    with open(os.path.join(CASES, "epri21.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    reversed_case = tmp_path / "reversed.json"
    reversed_case.write_text(json.dumps({k: v[::-1] if isinstance(v, list) else v
                                         for k, v in doc.items()}))
    tables = {"ac": ("ac_bus.csv", "ac_branch.csv", "qloss.csv"),
              "dc": ("gic_bus.csv", "gic_branch.csv")}
    for command, names in tables.items():
        outs = []
        for case in (os.path.join(CASES, "epri21.json"), str(reversed_case)):
            outs.append(tmp_path / f"{command}_{len(outs)}")
            assert run([command, "--case", case, "--field", "3.2", "--out", str(outs[-1])]) == 0
        for name in names:
            (head, want), (got_head, got) = (_rows(out / name) for out in outs)
            assert got_head == head and len(got) == len(want) > 0, name
            for row, ref in zip(got, want):
                row, ref = row.split(","), ref.split(",")
                id_cols = 2 if command == "dc" else 1  # t_min, then the id
                assert row[:id_cols] == ref[:id_cols], name
                assert [float(x) for x in row[id_cols:]] == pytest.approx(
                    [float(x) for x in ref[id_cols:]], abs=1e-9), (name, ref[:id_cols])


def test_mitigate_and_verify_roundtrip(workdir):
    out = workdir / "mit"
    args = ["mitigate", "--case", str(workdir / "b4gic.json"),
            "--scenario", str(workdir / "ramp.csv"), "--dt", "30",
            "--solver", "bb", "--out", str(out)]
    assert run(args) == 0
    plan_doc = json.loads((out / "plan.json").read_text())
    assert plan_doc["status"] == "optimal"
    assert plan_doc["wall_time_s"] == 0.0
    table = (out / "plan_branches.csv").read_text().splitlines()
    assert table[1] == "i,j,ckt,type,z_nom,z,p_ij,I_e"
    assert len(table) == 2 + 3

    rc = run(["verify", "--case", str(workdir / "b4gic.json"),
              "--scenario", str(workdir / "ramp.csv"), "--dt", "30",
              "--plan", str(out / "plan.json"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["ok"] is True


def test_plan_json_roundtrip_and_defaults():
    """Reading a written plan and writing it again gives the same document, ids
    as int keys in memory; a file without wall_time_s or status still loads."""
    doc = json.loads(_b4gic_plan_text())
    del doc["_meta"]
    plan = plan_from_json(doc)
    assert plan_to_json(plan) == doc
    assert all(isinstance(k, int) for k in [*plan.z, *plan.flows, *plan.xfmr_branches])
    bare = plan_from_json({k: v for k, v in doc.items() if k not in ("wall_time_s", "status")})
    assert (bare.wall_time_s, bare.status) == (0.0, "optimal")
    assert bare == plan


def test_mitigate_reruns_byte_identical(workdir):
    a, b = workdir / "m1", workdir / "m2"
    base = ["mitigate", "--case", str(workdir / "b4gic.json"),
            "--scenario", str(workdir / "ramp.csv"), "--dt", "60"]
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--out", str(b)]) == 0
    assert (a / "plan.json").read_bytes() == (b / "plan.json").read_bytes()
    assert (a / "plan_branches.csv").read_bytes() == (b / "plan_branches.csv").read_bytes()


def test_enum_solver_flag(workdir):
    out = workdir / "enum"
    rc = run(["mitigate", "--case", str(workdir / "b4gic.json"),
              "--scenario", str(workdir / "ramp.csv"), "--dt", "60",
              "--solver", "enum", "--out", str(out)])
    assert rc == 0


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["dc", "--case", str(bad), "--field", "1"]) == 2


def test_missing_file_exit_code(tmp_path):
    assert run(["dc", "--case", str(tmp_path / "nope.json"), "--field", "1"]) == 2


# a load of 9 p.u. behind a generator of at most 1 p.u.: no plan serves it
INFEASIBLE_CASE = {
    "base_mva": 100.0,
    "bus": [{"index": 1, "base_kv": 138.0, "bus_type": "slack"},
            {"index": 2, "base_kv": 138.0, "pd": 9.0}],
    "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 1.0}],
    "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 30.0,
                "rating": 10.0, "switchable": True}],
    "gmd_bus": [], "gmd_branch": [], "branch_gmd": [],
    "branch_thermal": [], "bus_gmd": [],
}


def test_analysis_error_exit_code(tmp_path):
    case_path = tmp_path / "infeasible.json"
    case_path.write_text(json.dumps(INFEASIBLE_CASE))
    rc = run(["mitigate", "--case", str(case_path), "--field", "1.0",
              "--dt", "60", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """Every ``gicgrid`` line of README's CLI block exits 0, in order: ``verify``
    reads the plan ``mitigate`` wrote.  The lines run in a temporary directory,
    so ``out/`` lands there, with ``cases/`` read from the repository."""
    root = os.path.dirname(CASES)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```\n")[1]
    lines = [ln.split()[1:] for ln in block.splitlines() if ln.startswith("gicgrid ")]
    assert {argv[0] for argv in lines} == {"dc", "ac", "thermal", "mitigate", "verify"}
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        argv = [os.path.join(root, a) if a.startswith("cases/") else a for a in argv]
        assert run(argv) == 0, argv


def test_shipped_case_files_parse(tmp_path):
    for name in ("b4gic.json", "epri21.json"):
        path = os.path.join(CASES, name)
        assert os.path.exists(path)
        rc = run(["dc", "--case", path, "--field", "1.0",
                  "--out", str(tmp_path / "out_smoke")])
        assert rc == 0


def test_bad_gap_rejected(workdir):
    rc = run(["mitigate", "--case", str(workdir / "b4gic.json"),
              "--field", "1.0", "--gap", "1.5",
              "--out", str(workdir / "never")])
    assert rc == 2


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_time_limit_rejected(workdir, capsys, value):
    out = workdir / "never"
    rc = run(["mitigate", "--case", str(workdir / "b4gic.json"), "--field", "1.0",
              "--time-limit", value, "--out", str(out)])
    assert rc == 2
    assert "--time-limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dc", "ac"])
def test_negative_field_rejected(workdir, capsys, command):
    """--field is a magnitude: a negative one is an input error, not the
    opposite bearing."""
    out = workdir / "never"
    rc = run([command, "--case", str(workdir / "b4gic.json"), "--field", "-1",
              "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "input error: --field must be >= 0\n"
    assert not out.exists()


def test_time_limit_before_any_plan_is_analysis_error(tmp_path, capsys):
    """A time limit the search reaches before its first plan exits 1 and names
    the limit; no plan is written."""
    out = tmp_path / "never"
    rc = run(["mitigate", "--case", os.path.join(CASES, "epri21.json"),
              "--scenario", os.path.join(CASES, "ramp_3p2.csv"), "--dt", "30",
              "--time-limit", "1e-9", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ("analysis error: the time limit stopped the search "
                                       "before it found a switching plan\n")
    assert not out.exists()


@pytest.mark.parametrize("peak", ["1e307", "1e305"])
def test_overflowing_field_is_input_error(workdir, capsys, peak):
    """A field whose induced voltages (1e307) or their big-M sums (1e305)
    overflow is bad input: exit 2, no warning, no output."""
    out = workdir / "overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["mitigate", "--case", str(workdir / "b4gic.json"), "--field", peak,
                  "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: gmd_branch ") and "induced voltage" in err
    assert not out.exists()


def test_shipped_files_are_fixed_points():
    """Parse then serialize gives every byte back: the key order, and every
    float field reads back as written."""
    for name in ("b4gic", "epri21"):
        path = os.path.join(CASES, f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert serialize_case(bundled(name)) + "\n" == text


def test_mitigate_shipped_benchmark(tmp_path):
    case = os.path.join(CASES, "epri21.json")
    scen = os.path.join(CASES, "ramp_3p2.csv")
    out = tmp_path / "plan21"
    rc = run(["mitigate", "--case", case, "--scenario", scen, "--dt", "30",
              "--out", str(out)])
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    opened = sorted(int(k) for k, v in plan["z"].items() if v == 0)
    assert 9 in opened and len(opened) == 2 and opened[0] in (7, 8)
    table = (out / "plan_branches.csv").read_text().splitlines()
    assert len(table) == 2 + 31
    rc = run(["verify", "--case", case, "--scenario", scen, "--dt", "30",
              "--plan", str(out / "plan.json"), "--out", str(out)])
    assert rc == 0


def test_mitigate_at_1e13_names_gic_cap(tmp_path, capsys):
    """At a field of 1e13 V/km the eff_gic rows carry coefficients near 1e13;
    the node LPs still resolve, and the probes name the GIC cap."""
    rc = run(["mitigate", "--case", os.path.join(CASES, "epri21.json"),
              "--field", "1e13", "--dir", "90", "--dt", "30", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("analysis error: no feasible switching plan")
    assert "'all_closed': 'gic_cap'" in err.splitlines()[1]


def _mutated_case(workdir, table, field, value):
    doc = json.loads((workdir / "b4gic.json").read_text())
    doc[table][0][field] = value
    path = workdir / f"bad_{table}_{field}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("table,field,value", [
    ("gmd_branch", "br_r", float("nan")),
    ("gmd_branch", "br_r", float("inf")),
    ("gmd_bus", "g_gnd", float("inf")),
    ("gmd_bus", "g_gnd", float("nan")),
])
def test_non_finite_case_value_is_input_error(workdir, capsys, table, field, value):
    out = workdir / "never"
    case = _mutated_case(workdir, table, field, value)
    rc = run(["dc", "--case", str(case), "--field", "1.0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_scenario_value_is_input_error(workdir, capsys, column):
    lines = (workdir / "ramp.csv").read_text().splitlines()
    parts = lines[10].split(",")
    parts[column] = "nan"
    lines[10] = ",".join(parts)
    scen = workdir / "nan.csv"
    scen.write_text("\n".join(lines) + "\n")
    out = workdir / "never"
    rc = run(["thermal", "--case", str(workdir / "b4gic.json"), "--scenario", str(scen),
              "--dt", "5", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--dt", "nan"), ("--dt", "inf"),
                                        ("--field", "nan"), ("--dir", "inf")])
def test_non_finite_option_is_input_error(workdir, capsys, flag, value):
    out = workdir / "never"
    rc = run(["dc", "--case", str(workdir / "b4gic.json"), "--field", "1.0",
              flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert flag in err and "Traceback" not in err
    assert not out.exists()


def _edited_case(workdir, edit):
    doc = json.loads((workdir / "b4gic.json").read_text())
    edit(doc)
    path = workdir / "edited.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("edit,expect", [
    pytest.param(lambda d: d["branch"][0].__setitem__("b", float("nan")), "'b'", id="branch-b-nan"),
    pytest.param(lambda d: d["branch"][0].__setitem__("b", float("inf")), "'b'", id="branch-b-inf"),
    pytest.param(lambda d: d["bus"][0].__setitem__("base_kv", None), "'base_kv'", id="null-field"),
    pytest.param(lambda d: d["branch"][0].__setitem__("index", None), "'index'", id="null-id"),
    pytest.param(lambda d: d["bus"].__setitem__(0, None), "bus row 0", id="null-row"),
    pytest.param(lambda d: d["gen"].append(None), "gen row 2", id="null-appended-row"),
    pytest.param(lambda d: d.__setitem__("base_mva", 0), "base_mva", id="base-mva-zero"),
    pytest.param(lambda d: d.__setitem__("base_mva", -100.0), "base_mva", id="base-mva-negative"),
    pytest.param(lambda d: d.__setitem__("base_mva", float("nan")), "base_mva", id="base-mva-nan"),
    pytest.param(lambda d: d.__setitem__("base_mva", float("inf")), "base_mva", id="base-mva-inf"),
    pytest.param(lambda d: d.__setitem__("base_mva", None), "base_mva", id="base-mva-null"),
])
def test_bad_case_value_is_input_error(workdir, capsys, edit, expect):
    out = workdir / "never"
    case = _edited_case(workdir, edit)
    rc = run(["ac", "--case", str(case), "--field", "1.0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:") and expect in err and "Traceback" not in err
    assert not out.exists()


def test_header_only_scenario_is_input_error(workdir, capsys):
    scen = workdir / "empty.csv"
    scen.write_text("t_min,e_mag_vkm,e_dir_deg\n")
    out = workdir / "never"
    rc = run(["thermal", "--case", str(workdir / "b4gic.json"), "--scenario", str(scen),
              "--dt", "5", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no data rows" in err and "Traceback" not in err
    assert not out.exists()


def test_thermal_step_beyond_twice_tau_is_input_error(workdir, capsys):
    # b4gic: tau = 71 min, so a 180 min step would run the recursion at zeta < 1
    out = workdir / "never"
    rc = run(["thermal", "--case", str(workdir / "b4gic.json"), "--field", "1",
              "--dt", "180", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:") and "2*tau" in err and "Traceback" not in err
    assert not out.exists()


def test_singular_jacobian_is_analysis_error(workdir, capsys):
    def zero_b(doc):
        for row in doc["branch"]:
            row["b"] = 0.0
    out = workdir / "never"
    rc = run(["ac", "--case", str(_edited_case(workdir, zero_b)), "--field", "1.0",
              "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "singular Jacobian at iteration 1" in err and "Traceback" not in err


def _plan(workdir, dt="30"):
    out = workdir / "plan"
    assert run(["mitigate", "--case", str(workdir / "b4gic.json"),
                "--scenario", str(workdir / "ramp.csv"), "--dt", dt, "--out", str(out)]) == 0
    return out / "plan.json"


def _verify(workdir, plan, *extra):
    return run(["verify", "--case", str(workdir / "b4gic.json"),
                "--scenario", str(workdir / "ramp.csv"), "--plan", str(plan),
                "--out", str(workdir / "ver"), *extra])


@pytest.mark.parametrize("dt", ["15", "60"])
def test_verify_at_other_dt_is_input_error(workdir, capsys, dt):
    plan = _plan(workdir)
    capsys.readouterr()
    rc = _verify(workdir, plan, "--dt", dt)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:") and "period midpoints" in err
    assert "Traceback" not in err


def test_one_sample_scenario_spans_no_period(workdir, capsys):
    """A one-sample scenario spans no period: mitigate and verify (of a
    plan with no periods) both refuse it as bad input, with one message."""
    doc = json.loads(_plan(workdir).read_text())
    doc["times"] = []
    for key in ("gen_p", "flows", "theta", "i_eff", "delta_to", "hotspot"):
        doc[key] = {k: [] for k in doc[key]}
    plan = workdir / "no_periods.json"
    plan.write_text(json.dumps(doc))
    one = workdir / "one.csv"
    one.write_text("t_min,e_mag_vkm,e_dir_deg\n0,1.0,90\n")
    case = ["--case", str(workdir / "b4gic.json"), "--scenario", str(one), "--dt", "30"]
    for args in (["mitigate", *case, "--out", str(workdir / "none")],
                 ["verify", *case, "--plan", str(plan), "--out", str(workdir / "ver")]):
        capsys.readouterr()
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err == "input error: scenario must span at least one period\n"
    assert not (workdir / "none").exists() and not (workdir / "ver").exists()


@pytest.mark.parametrize("key,value", [("flows", float("nan")), ("gen_p", float("nan")),
                                       ("theta", float("inf")), ("hotspot", float("-inf"))])
def test_verify_rejects_non_finite_plan(workdir, capsys, key, value):
    plan = _plan(workdir)
    doc = json.loads(plan.read_text())
    doc[key][min(doc[key])][1] = value
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = _verify(workdir, plan, "--dt", "30")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:") and key in err and "finite" in err
    assert "[ok]" not in capsys.readouterr().out


def _first(doc, key, value):
    """``doc`` with ``value`` at ``key``, or at its lowest id when ``key`` holds an id map."""
    if isinstance(doc[key], dict):
        doc[key][min(doc[key])] = value
    else:
        doc[key] = value
    return doc


@pytest.mark.parametrize("edit,expect", [
    (lambda doc: [], "plan: expected a JSON object"),
    (lambda doc: "plan", "plan: expected a JSON object"),
    (lambda doc: None, "plan: expected a JSON object"),
    (lambda doc: {**doc, "z": [1, 2]}, "plan z: expected an object of ids"),
    (lambda doc: {**doc, "z": 7}, "plan z: expected an object of ids"),
    (lambda doc: _first(doc, "objective", [1.0]), "plan objective: expected a number"),
    (lambda doc: _first(doc, "gap", [[0.0]]), "plan gap: expected a number"),
    (lambda doc: _first(doc, "xfmr_branches", [1]), "plan xfmr_branches: expected integer"),
    (lambda doc: _first(doc, "z", 0.5), "plan z: expected 0 (open) or 1"),
    (lambda doc: {k: v for k, v in doc.items() if k != "z"}, "plan: missing field 'z'"),
])
def test_verify_malformed_plan_is_input_error(workdir, capsys, edit, expect):
    """Valid JSON that is not a plan: not an object, an id map that is not
    one, a list for a number, a fractional switch state, no switch states."""
    plan = _plan(workdir)
    plan.write_text(json.dumps(edit(json.loads(plan.read_text()))))
    capsys.readouterr()
    rc = _verify(workdir, plan, "--dt", "30")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"input error: {expect}")


@pytest.mark.parametrize("branch,state", [("9999", 0), ("11", 1)])
def test_verify_rejects_z_of_a_branch_the_case_cannot_switch(tmp_path, capsys, branch, state):
    """A plan's z names switchable in-service ac branches of the case only:
    epri21 has no branch 9999, and its branch 11 is nominally open, so a plan
    closing it would be judged on two topologies (the dc re-solve closes it,
    the ac checks keep it open)."""
    case, ramp = os.path.join(CASES, "epri21.json"), os.path.join(CASES, "ramp_3p2.csv")
    common = ["--case", case, "--scenario", ramp, "--dt", "30"]
    assert run(["mitigate", *common, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    doc["z"][branch] = state
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run(["verify", *common, "--plan", str(tmp_path / "plan.json"),
              "--out", str(tmp_path / "ver")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"input error: plan z: branch {branch} is not a switchable")
    assert "[ok]" not in captured.out


@pytest.mark.parametrize("command", ["dc", "thermal", "mitigate", "verify"])
def test_field_with_scenario_is_input_error(workdir, capsys, command):
    """--field sets the peak of the built-in ramp; a --scenario file brings its
    own field, so the pair is refused rather than --field ignored."""
    extra = ["--plan", str(_plan(workdir))] if command == "verify" else []
    capsys.readouterr()
    out = workdir / "never"
    rc = run([command, "--case", str(workdir / "b4gic.json"), "--scenario",
              str(workdir / "ramp.csv"), "--field", "1", "--dt", "30", "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "input error: --field applies only without --scenario\n"
    assert not out.exists() and not captured.out


def test_verify_rejects_xfmr_branches_that_disagree_with_the_case(workdir, capsys):
    """A plan's transformer rows name the ac branch of the case's branch_gmd row,
    as its z names the case's switchable branches."""
    plan = _plan(workdir)
    doc = json.loads(plan.read_text())
    row = min(doc["xfmr_branches"])
    doc["xfmr_branches"][row] = 99
    plan.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = _verify(workdir, plan, "--dt", "30")
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"input error: plan xfmr_branches: branch_gmd row {row} is "
                                   "no transformer of ac branch 99")
    assert "[ok]" not in captured.out


def test_transformer_of_a_dead_island_is_left_out_of_the_model(workdir):
    """b4gic plus buses 5 and 6, with no load, generation or slack, joined by the
    in-service transformer branch 4: the switching model leaves the dead island
    out, its transformer with it, and its plan verifies."""
    doc = json.loads((workdir / "b4gic.json").read_text())
    doc["bus"] += [{"index": 5, "base_kv": 765.0, "bus_type": "PQ"},
                   {"index": 6, "base_kv": 22.0, "bus_type": "PQ"}]
    doc["branch"].append({"index": 4, "f_bus": 5, "t_bus": 6, "b": 100.0, "rating": 12.0})
    doc["gmd_bus"] += [{"index": 7, "parent": 5, "g_gnd": 5.0, "name": "dc_sub5"},
                       {"index": 8, "parent": 5, "g_gnd": 0.0, "name": "dc_bus5"}]
    doc["gmd_branch"].append({"index": 4, "f_bus": 8, "t_bus": 7, "parent": 4, "br_r": 0.1,
                              "name": "dc_xf4_hi"})
    doc["branch_gmd"].append({**doc["branch_gmd"][0], "branch": 4, "hi_bus": 5, "lo_bus": 6,
                              "gmd_br_hi": 4})
    doc["branch_thermal"].append({**doc["branch_thermal"][0], "branch": 4})
    doc["bus_gmd"] += [{"bus": 5, "lat": 41.0, "lon": -89.0}, {"bus": 6, "lat": 41.0, "lon": -89.0}]
    case = workdir / "island.json"
    case.write_text(json.dumps(doc))
    common = ["--case", str(case), "--field", "2", "--dt", "30"]
    assert run(["mitigate", *common, "--out", str(workdir / "plan")]) == 0
    plan = workdir / "plan" / "plan.json"
    assert sorted(json.loads(plan.read_text())["xfmr_branches"].values()) == [1, 3]
    assert run(["verify", *common, "--plan", str(plan), "--out", str(workdir / "ver")]) == 0


def test_missing_coordinates_is_input_error(workdir, capsys):
    doc = json.loads((workdir / "b4gic.json").read_text())
    doc["bus_gmd"] = [row for row in doc["bus_gmd"] if row["bus"] != 1]
    (workdir / "b4gic.json").write_text(json.dumps(doc))
    rc = run(["dc", "--case", str(workdir / "b4gic.json"), "--field", "1",
              "--out", str(workdir / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:") and "no bus_gmd coordinates" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
def test_verify_tol_must_be_finite_and_non_negative(workdir, capsys, tol):
    plan = _plan(workdir)
    capsys.readouterr()
    rc = _verify(workdir, plan, "--dt", "30", f"--tol={tol}")
    captured = capsys.readouterr()
    assert rc == 2
    assert "--tol" in captured.err and "[ok]" not in captured.out


# --- every subcommand ends in 0, 1 or 2, never in a traceback --------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
_RAMP = "t_min,e_mag_vkm,e_dir_deg\n" + "\n".join(
    f"{t},{3.2 * min(t, 360 - t) / 180},90" for t in range(0, 361, 30)) + "\n"


@functools.cache
def _b4gic_text() -> str:
    with open(os.path.join(CASES, "b4gic.json"), encoding="utf-8") as fh:
        return fh.read()


@functools.cache
def _b4gic_plan_text() -> str:
    """The plan ``mitigate`` writes for b4gic over _RAMP at --dt 30."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("case.json", _b4gic_text()), ("ramp.csv", _RAMP)):
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["mitigate", "--case", os.path.join(tmp, "case.json"), "--dt", "30",
                        "--scenario", os.path.join(tmp, "ramp.csv"), "--out", tmp]) == 0
        with open(os.path.join(tmp, "plan.json")) as fh:
            return fh.read()


@st.composite
def _malformed(draw, valid):
    """``valid()``'s JSON with one value replaced or one key dropped, or any JSON or text."""
    kind = draw(st.sampled_from(["edit", "edit", "drop", "json", "text"]))
    if kind == "json":
        return json.dumps(draw(_JSON))
    if kind == "text":
        return draw(st.text(max_size=20))
    doc = json.loads(valid())
    key = draw(st.sampled_from(sorted(doc)))
    if kind == "drop":
        del doc[key]
    elif isinstance(doc[key], list) and doc[key] and draw(st.booleans()):
        k = draw(st.integers(0, len(doc[key]) - 1))  # one field of one table row
        if isinstance(doc[key][k], dict):
            doc[key][k][draw(st.sampled_from(sorted(doc[key][k])))] = draw(_JSON)
        else:
            doc[key][k] = draw(_JSON)
    elif isinstance(doc[key], dict) and doc[key] and draw(st.booleans()):
        doc[key][draw(st.sampled_from(sorted(doc[key])))] = draw(_JSON)  # one id of a map
    else:
        doc[key] = draw(_JSON)
    return json.dumps(doc)


_BAD_SCENARIOS = st.one_of(
    st.just("t_min,e_mag_vkm,e_dir_deg\n"),
    st.lists(st.tuples(st.floats(0, 720), st.floats(-10, 10), st.floats())
             | st.tuples(st.text(max_size=3), st.text(max_size=3)), min_size=1, max_size=6)
    .map(lambda rows: "t_min,e_mag_vkm,e_dir_deg\n" + "\n".join(map(
        lambda r: ",".join(map(str, r)), rows))),
    st.text(max_size=30))
_ODD_NUMBERS = st.sampled_from([0.0, -2.0, 1e13, 1e307, float("nan"), float("inf")]) | st.floats()


@st.composite
def _cli_inputs(draw):
    """(command, case, scenario, plan, field, dir, dt, solver) with at most one
    malformed input: the case, the scenario, the plan or the options."""
    fault = draw(st.sampled_from(["none", "case", "scenario", "plan", "plan", "options"]))
    command = "verify" if fault == "plan" else draw(
        st.sampled_from(["dc", "ac", "thermal", "mitigate", "verify"]))
    case = (draw(_malformed(_b4gic_text)) if fault == "case" else
            draw(st.sampled_from([_b4gic_text(), _b4gic_text(), json.dumps(INFEASIBLE_CASE)])))
    scenario = draw(_BAD_SCENARIOS if fault == "scenario"
                    else st.sampled_from([_RAMP, _RAMP, None]))
    plan = draw(_malformed(_b4gic_plan_text)) if fault == "plan" else _b4gic_plan_text()
    if fault == "options":
        field, direction = draw(st.none() | _ODD_NUMBERS), draw(st.none() | _ODD_NUMBERS)
        dt = draw(st.sampled_from([0.0, -30.0, 200.0, float("nan"), float("inf")])
                  | st.floats(20, 90))
    else:  # --field only without a --scenario file: the pair is an input error
        field = draw(st.none() | st.floats(0, 5)) if scenario is None or command == "ac" else None
        direction = draw(st.none() | st.floats(0, 360))
        dt = draw(st.sampled_from([30.0, 30.0, 20.0, 45.0, 60.0]))
    solver = draw(st.sampled_from(["bb", "enum"]))
    return command, case, scenario, plan, field, direction, dt, solver


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cli_inputs())
@example(("mitigate", json.dumps(INFEASIBLE_CASE), None, None, 1.0, None, 60.0, "bb"))
def test_cli_exits_0_1_2_without_traceback(inputs):
    """Any case, scenario and plan file and any --field, --dir and --dt: the
    exit code is 0, 1 (analysis failure, with the probes of an infeasible
    model) or 2 (input error), and nothing escapes ``run`` as a traceback."""
    command, case, scenario, plan, field, direction, dt, solver = inputs
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, f"--dt={dt}", "--out", os.path.join(tmp, "out")]
        files = {"case": case, "scenario": scenario if command != "ac" else None,
                 "plan": plan if command == "verify" else None}
        for name, text in files.items():
            if text is not None:
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv.append(f"--{name}={path}")
        argv += [f"--{k}={v}" for k, v in (("field", field), ("dir", direction)) if v is not None]
        if command == "mitigate":
            argv.append(f"--solver={solver}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("input error: ")
    elif rc == 1 and command == "verify" and not err:
        assert "[VIOLATION]" in out
    elif rc == 1:
        assert err.startswith("analysis error: ")
        if "infeasible" in err.splitlines()[0] or "no feasible" in err.splitlines()[0]:
            assert err.splitlines()[1].startswith("  probes: {")
    else:
        assert not err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# 0.0 and -0.0 share no text, nor do the two smallest subnormals
_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e16]


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, max_size=40)
       | st.lists(_FINITE, max_size=4).flatmap(
           lambda extra: st.lists(st.sampled_from(_POOL + extra), max_size=40)))
@example([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, sys.float_info.max,
          -sys.float_info.max, 1e300, -1e300, 1e-300, -1e-300, 3.0, -7.0, 2.0 ** 53,
          1e16, 123456789012.0, 0.05, 0.25, -0.05, 1234.5])
def test_column_formatter_matches_fstrings(xs):
    """A float column reads as f"{x:.10g}" (every table) or f"{x:.1f}" (plan_branches)."""
    col = np.array(xs, dtype=float)
    assert _cells(col) == [f"{x:.10g}" for x in xs]
    assert _cells(col, ".1f") == [f"{x:.1f}" for x in xs]


_ODD_FLOATS = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                              1e308, -1e308, sys.float_info.max, 0.1, 1e16, 2.0 ** 53])
_NUMBER = st.floats() | _ODD_FLOATS | st.integers() | st.integers(-2**70, 2**70)
_TEXT = st.text(st.sampled_from(list(', "\'\\/\n\t\x00aZ\u00e9\u2603\U0001f600')), max_size=6)
_PLAN_LIKE = st.recursive(
    st.none() | st.booleans() | _NUMBER | _TEXT
    | st.lists(_NUMBER, min_size=1, max_size=8)                # a series of cells
    | st.lists(_NUMBER | st.booleans() | st.none(), max_size=6),  # True is no number cell
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_PLAN_LIKE)
@example({"z": {"7": 0}, "times": [1.25, -0.0, 5e-324, 1e308], "ok": True, "details": [],
          "gap": math.nan, "a, b": {"\"q\"": [math.inf, -math.inf, 3, True, None]}, "e": {}})
def test_json_writer_is_json_dumps(doc):
    """plan.json and verify.json are written as json.dumps(doc, indent=1, sort_keys=True)."""
    assert _json_text(doc) == json.dumps(doc, indent=1, sort_keys=True)


@pytest.mark.parametrize("col", [np.array([True, False]), np.array([1, 2.5], dtype=object),
                                 np.array(["1.5", "2"])], ids=["bool", "object", "str"])
def test_column_formatter_rejects_non_numeric(col):
    """Only int and float columns: a bool would print as 1 where format gave True."""
    with pytest.raises(TypeError):
        _cells(col)


def test_write_table_blocks_match_fstrings(tmp_path):
    """A table longer than one block reads as per-row f-strings, and -0.0 and
    0.0 keep their own text in both blocks."""
    n = _CSV_BLOCK + 1000
    rng = np.random.default_rng(7)
    x = rng.choice([0.0, -0.0, 2.5, -1e-7, 1e16, 5e-324], size=n)
    x[[0, 1, _CSV_BLOCK, _CSV_BLOCK + 1]] = [0.0, -0.0, -0.0, 0.0]
    y = rng.normal(size=n)
    ids = rng.integers(-5, 10**12, size=n)
    flags = (y > 0).astype(int)
    text = [f"r{k % 7}" for k in range(n)]
    name = _write_table(argparse.Namespace(out=str(tmp_path)), "t",
                        {"k": text, "id": ids, "x": x, "y": y, "flag": flags}, "# meta")
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[:2] == ["# meta", "k,id,x,y,flag"]
    assert lines[2:] == [f"{k},{i},{a:.10g},{b:.10g},{f}" for k, i, a, b, f in
                         zip(text, ids.tolist(), x.tolist(), y.tolist(), flags.tolist())]
    for block in (lines[2:2 + _CSV_BLOCK], lines[2 + _CSV_BLOCK:]):
        assert {line.split(",")[2] for line in block} >= {"0", "-0"}


_INT64 = np.iinfo(np.int64)


@st.composite
def _run_columns(draw):
    """A float or int64 column drawn as runs of equal cells, some longer than a block."""
    if draw(st.booleans()):
        values, dtype = st.sampled_from(_POOL) | _FINITE, float
    else:
        values = st.sampled_from([int(_INT64.min), int(_INT64.max), 0, -1])
        values, dtype = values | st.integers(int(_INT64.min), int(_INT64.max)), np.int64
    runs = draw(st.lists(st.tuples(values, st.integers(1, 3) | st.just(_CSV_BLOCK + 1)),
                         max_size=6))
    return np.array([v for v, n in runs for _ in range(n)], dtype=dtype)


def _formatted(col, spec):
    """format(x, spec) of every cell; an int in full, as format(x, "d")."""
    return [format(x, spec if col.dtype.kind == "f" else "d") for x in col.tolist()]


@settings(max_examples=60, deadline=None)
@given(_run_columns(), st.integers(1, 3))
@example(np.array([0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0]), 1)
@example(np.array([-0.0] * (_CSV_BLOCK - 1) + [0.0] * 3 + [-0.0] * 2), 2)
@example(np.full(_CSV_BLOCK + 5, 2.5), 3)
@example(np.array([_INT64.min, _INT64.min, _INT64.max, 0, _INT64.max], dtype=np.int64), 2)
@example(np.array([], dtype=float), 2)
@example(np.array([], dtype=np.int64), 1)
def test_column_formatter_runs_match_format(col, each):
    """A column read by runs of equal cells, whole or a block at a time as the
    table writer slices it, is format(x, spec) of every cell."""
    for spec in (".10g", ".1f"):
        assert _cells(col, spec, each) == [
            text for text in _formatted(col, spec) for _ in range(each)]
    blocks = [text for k in range(0, len(col), _CSV_BLOCK) for text in _cells(col[k:k + _CSV_BLOCK])]
    assert blocks == _formatted(col, ".10g")


def test_column_formatter_ids_and_repeats():
    """Ids print in full, never in .10g's exponent form; ``each`` repeats cells in turn."""
    assert _cells(np.array([12345678901, -3, 0])) == ["12345678901", "-3", "0"]
    assert _cells(np.array([2.5, 7.0]), each=3) == ["2.5"] * 3 + ["7"] * 3


# sha256 of every table the CLI writes on the bundled cases with
# cases/ramp_3p2.csv: a change to the table writer or to a pipeline behind
# it must keep every byte of every artifact
_GOLDEN_RUNS = {
    "dc_epri21": ["dc", "--case", "epri21.json", "--scenario", "ramp_3p2.csv"],
    "dc_b4gic": ["dc", "--case", "b4gic.json", "--scenario", "ramp_3p2.csv"],
    "dc_b4gic_field": ["dc", "--case", "b4gic.json", "--field", "1"],
    "thermal_epri21": ["thermal", "--case", "epri21.json", "--scenario", "ramp_3p2.csv"],
    "thermal_b4gic": ["thermal", "--case", "b4gic.json", "--scenario", "ramp_3p2.csv"],
    "ac_epri21": ["ac", "--case", "epri21.json", "--field", "1"],
    "ac_b4gic": ["ac", "--case", "b4gic.json", "--field", "1"],
    "mitigate_epri21": ["mitigate", "--case", "epri21.json", "--scenario", "ramp_3p2.csv",
                        "--dt", "30"],
    "mitigate_b4gic": ["mitigate", "--case", "b4gic.json", "--scenario", "ramp_3p2.csv",
                       "--dt", "30"],
}

_GOLDEN = {
    "ac_b4gic": {
        "ac_branch.csv": "909eeb9400ac12d749dd32fdcaf96c4a2aaa9cd0f041aeb1b5e172ceae4bd520",
        "ac_bus.csv": "42b7202d95663b9fedc448e36630edfb358b9ad19c2f2673613f024f25ed0d9d",
        "qloss.csv": "fafbb954fe27f9057ae1c049c163e9af08c5f7582b4debfb1f9251d4ffd46365",
    },
    "ac_epri21": {
        "ac_branch.csv": "a2544795fa53dbe31785134daebf1a7be48a3a22e29e8cf79df0cc5f9a11fc1b",
        "ac_bus.csv": "3ca1841a2be0f683df7986a9922e9b983d3d9aa2540b5a2fa2ee19d257af582d",
        "qloss.csv": "bb05137f7624e2bd335f5270f292c82aa480201f5fa1d3140cffc025920ec77b",
    },
    "dc_b4gic": {
        "gic_branch.csv": "ad1fdfd6e37c9281ab199fffe768fd2b192e36def0e9bf84bb8dee4dab0724c9",
        "gic_bus.csv": "a4765aedf0308a5d69f6d51f49638fc66a2dc98fa76eda926e39af2dbbd49428",
    },
    "dc_b4gic_field": {
        "gic_branch.csv": "85ddbb6beab02fc1ddc8893c3d024377985307e3b772ce3f847f4c0559569df7",
        "gic_bus.csv": "16509feff0080fc430a48fe2b6c66ba501060e90fc06670a427f54505bd9676e",
    },
    "dc_epri21": {
        "gic_branch.csv": "c3082ec1c071af152716df75ad15dff8415dc918ab159c3170002c125f84e0c3",
        "gic_bus.csv": "4977461bdcd5c6e7b16174a7bba8a77568ee6920650b813099b9ef6f75879815",
    },
    "mitigate_b4gic": {
        "plan_branches.csv": "b7e848137f96392fb904da9add4d9c02d65fb842514e62fbc1d98f2dd5781822",
    },
    "mitigate_epri21": {
        "plan_branches.csv": "0ba2918367567b8aa7f35bdc566932d6484ce77b6123549b727c6f3269f84ae6",
    },
    "thermal_b4gic": {
        "thermal.csv": "9e484124748a4bceb2917e75a9be644d667845a9ccbbddefcac91d1632d7272d",
    },
    "thermal_epri21": {
        "thermal.csv": "8215909b282e63f936cfd32fbccbe28f66777c795754f50affd58b722fa53dd1",
    },
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS), ids=lambda name: f"{name}-csv")
def test_cli_tables_pinned(name, tmp_path):
    argv = [os.path.join(CASES, a) if a.endswith((".json", ".csv")) else a
            for a in _GOLDEN_RUNS[name]]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in sorted(os.listdir(tmp_path)) if f != "plan.json"}
    assert got == _GOLDEN[name]
