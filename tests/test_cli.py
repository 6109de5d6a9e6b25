"""Command-line interface: pipelines, outputs, determinism, exit codes."""

import json
import os

import pytest

from gicgrid.cli import run
from gicgrid.data import load_scenario_file, serialize_case
from gicgrid.dcnet import FieldVector, assemble, effective_gic, solve_dc

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

    scenario = load_scenario_file(str(workdir / "ramp.csv"), dt=5.0)
    _, bus_rows = _rows(a / "gic_bus.csv")
    _, branch_rows = _rows(a / "gic_branch.csv")
    times = scenario.grid()
    assert len(bus_rows) == 6 * len(times) and len(branch_rows) == 3 * len(times)
    for k, t in enumerate(times):
        sol = solve_dc(assemble(b4gic_case, FieldVector(*scenario.at(t)),
                                overrides=scenario.overrides_at(t)))
        eff = effective_gic(b4gic_case, sol)
        for row in bus_rows[6 * k:6 * (k + 1)]:
            tt, nid, v = row.split(",")
            assert float(tt) == t
            assert float(v) == pytest.approx(sol.node_voltages[int(nid)], rel=1e-9, abs=1e-9)
        winding_eff = {row.gmd_br_hi: eff[pos] for pos, row in b4gic_case.xfmr_rows()}
        for row in branch_rows[3 * k:3 * (k + 1)]:
            tt, bid, i_dc, i_eff = row.split(",")
            assert float(tt) == t
            assert float(i_dc) == pytest.approx(sol.branch_currents[int(bid)], rel=1e-9, abs=1e-9)
            assert float(i_eff) == pytest.approx(winding_eff.get(int(bid), 0.0),
                                                 rel=1e-9, abs=1e-9)


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


def test_ac_subcommand(workdir):
    out = workdir / "ac"
    rc = run(["ac", "--case", str(workdir / "b4gic.json"),
              "--field", "1.0", "--dir", "90", "--out", str(out)])
    assert rc == 0
    _, rows = _rows(out / "qloss.csv")
    vals = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert set(vals) == {1, 3}
    assert all(v > 0 for v in vals.values())


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


def test_analysis_error_exit_code(tmp_path):
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 138.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 138.0, "pd": 9.0}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 1.0}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 30.0,
                    "rating": 10.0, "switchable": True}],
        "gmd_bus": [], "gmd_branch": [], "branch_gmd": [],
        "branch_thermal": [], "bus_gmd": [],
    }
    case_path = tmp_path / "infeasible.json"
    case_path.write_text(json.dumps(doc))
    rc = run(["mitigate", "--case", str(case_path), "--field", "1.0",
              "--dt", "60", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_shipped_case_files_parse(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("b4gic.json", "epri21.json"):
        path = os.path.join(here, "cases", name)
        assert os.path.exists(path)
        rc = run(["dc", "--case", path, "--field", "1.0",
                  "--out", str(tmp_path / "out_smoke")])
        assert rc == 0


def test_json_format_output(workdir):
    out = workdir / "jfmt"
    rc = run(["dc", "--case", str(workdir / "b4gic.json"), "--field", "1.0",
              "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "gic_branch.json").read_text())
    assert doc["columns"] == ["t_min", "gmd_branch_id", "i_dc_amps", "i_eff_amps"]
    assert len(doc["rows"]) == 3
    assert doc["_meta"].startswith("case_sha256=")


def test_bad_gap_rejected(workdir):
    rc = run(["mitigate", "--case", str(workdir / "b4gic.json"),
              "--field", "1.0", "--gap", "1.5",
              "--out", str(workdir / "never")])
    assert rc == 2


def test_shipped_files_match_builders():
    from gicgrid.cases import b4gic as build4, epri21 as build21
    from gicgrid.data import parse_case_file
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert parse_case_file(os.path.join(here, "cases", "b4gic.json")) == build4()
    assert parse_case_file(os.path.join(here, "cases", "epri21.json")) == build21()
    for name, build in (("b4gic", build4), ("epri21", build21)):  # pins the key order too
        with open(os.path.join(here, "cases", f"{name}.json"), encoding="utf-8") as fh:
            assert serialize_case(build()) + "\n" == fh.read()


def test_mitigate_shipped_benchmark(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    case = os.path.join(here, "cases", "epri21.json")
    scen = os.path.join(here, "cases", "ramp_3p2.csv")
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


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
def test_verify_tol_must_be_finite_and_non_negative(workdir, capsys, tol):
    plan = _plan(workdir)
    capsys.readouterr()
    rc = _verify(workdir, plan, "--dt", "30", f"--tol={tol}")
    captured = capsys.readouterr()
    assert rc == 2
    assert "--tol" in captured.err and "[ok]" not in captured.out
