"""Command-line front end.

Subcommands map one-to-one onto the analysis pipelines:

* ``dc``        quasi-dc GIC solve (single field or scenario sweep)
* ``ac``        sequential GIC -> ac power flow at one time point
* ``thermal``   transformer temperature simulation over a scenario
* ``mitigate``  time-extended switching optimization
* ``verify``    independent re-check of a mitigation plan

Outputs are plot-ready CSV/JSON files carrying a reproducibility header
(input hashes and options, never timestamps), so identical inputs give
byte-identical outputs.  Exit codes: 0 success, 1 analysis failure
(non-convergence / infeasible), 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from .coupling import IslandError, PowerFlowError, sequential_gic_ac
from .data import (CaseError, CaseData, FieldScenario, load_scenario_file,
                   make_ramp_scenario, parse_case_file)
from .dcnet import FieldVector, solve_series, winding_ids
from .mitigation import (MitigationInfeasible, MitigationPlan, OtsOptions,
                         build_model, enumerate_solve, solve, verify_plan)
from .thermal import simulate

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _meta_line(args, keys) -> str:
    parts = []
    if getattr(args, "case", None):
        parts.append(f"case_sha256={_sha256_file(args.case)}")
    if getattr(args, "scenario", None):
        parts.append(f"scenario_sha256={_sha256_file(args.scenario)}")
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            parts.append(f"{k}={v}")
    return "# " + " ".join(parts)


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_table(args, name: str, header: str, rows: list[str], meta: str) -> str:
    """Write one tabular artifact as CSV or JSON per --format."""
    if args.format == "json":
        cols = header.split(",")
        doc = {"_meta": meta[2:], "columns": cols,
               "rows": [r.split(",") for r in rows]}
        path = os.path.join(args.out, f"{name}.json")
        _write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    else:
        path = os.path.join(args.out, f"{name}.csv")
        _write(path, "\n".join([meta, header] + rows) + "\n")
    return os.path.basename(path)


def _check_run_config(args) -> None:
    for name in ("dt", "field", "dir"):  # every subcommand has these options
        if getattr(args, name) is not None and not math.isfinite(getattr(args, name)):
            raise CaseError(f"--{name} must be finite")
    if not args.dt > 0:
        raise CaseError("--dt must be positive")
    gap = getattr(args, "gap", None)
    if gap is not None and not 0.0 < gap < 1.0:
        raise CaseError("--gap must lie in (0, 1)")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise CaseError("--tol must be finite and >= 0")


def _load_case(args) -> CaseData:
    return parse_case_file(args.case)


def _scenario_from_args(args, require: bool = False) -> FieldScenario | None:
    if args.scenario:
        return load_scenario_file(args.scenario, dt=args.dt)
    if args.field is not None and require:
        return make_ramp_scenario(args.field, 180.0, 180.0, dt=args.dt,
                                  direction_deg=args.dir)
    if require:
        raise CaseError("a --scenario file or --field peak is required")
    return None


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_dc(args) -> int:
    case = _load_case(args)
    scenario = _scenario_from_args(args)
    meta = _meta_line(args, ("field", "dir", "dt", "format"))

    if scenario is not None:
        times, fields = scenario.grid(args.dt), scenario
    elif args.field is not None:
        times, fields = [0.0], np.array([FieldVector.from_mag_dir(args.field, args.dir)])
    else:
        times, fields = [0.0], None  # stored br_v values drive the solve
    series = solve_series(case, fields, times)

    eff_of = {wid: series.effective[pos].tolist()
              for pos, row in case.xfmr_rows() for wid in winding_ids(row)}
    nodes = sorted(zip(series.node_ids, series.V.T.tolist()))
    branches = [(bid, i_dc, eff_of.get(bid, [0.0] * len(times)))
                for bid, i_dc in sorted(zip(series.branch_ids, series.I.T.tolist()))]
    rows_bus = [f"{_fmt(t)},{nid},{_fmt(v[k])}" for k, t in enumerate(times) for nid, v in nodes]
    rows_br = [f"{_fmt(t)},{bid},{_fmt(i_dc[k])},{_fmt(i_eff[k])}"
               for k, t in enumerate(times) for bid, i_dc, i_eff in branches]
    peak = float(np.max(np.abs(series.I), initial=0.0))
    f1 = _write_table(args, "gic_bus", "t_min,gmd_bus_id,v_dc_volts", rows_bus, meta)
    f2 = _write_table(args, "gic_branch", "t_min,gmd_branch_id,i_dc_amps,i_eff_amps",
                      rows_br, meta)
    print(f"dc: {len(times)} time point(s), peak |I| = {peak:.3f} A; "
          f"wrote {f1}, {f2} to {args.out}")
    return EXIT_OK


def _cmd_ac(args) -> int:
    case = _load_case(args)
    field = None
    if args.field is not None:
        field = FieldVector.from_mag_dir(args.field, args.dir)
    sol, qmap, ac = sequential_gic_ac(case, field)
    meta = _meta_line(args, ("field", "dir", "format"))

    rows = [f"{bid},{_fmt(ac.vm[bid])},{_fmt(math.degrees(ac.va[bid]))}"
            for bid in sorted(ac.vm)]
    _write_table(args, "ac_bus", "bus_id,vm_pu,va_deg", rows, meta)

    rows = [f"{bid},{_fmt(ac.p_from[bid])},{_fmt(ac.q_from[bid])}"
            for bid in sorted(ac.p_from)]
    _write_table(args, "ac_branch", "branch_id,p_from_pu,q_from_pu", rows, meta)

    rows = [f"{qmap[pos].branch},{_fmt(qmap[pos].d_q)}" for pos in sorted(qmap)]
    _write_table(args, "qloss", "branch_id,d_q_pu", rows, meta)

    total_q = sum(ql.d_q for ql in qmap.values())
    print(f"ac: converged in {ac.iterations} iterations "
          f"(mismatch {ac.max_mismatch:.2e} p.u.), GIC reactive loss "
          f"{total_q:.4f} p.u.; wrote ac_bus, ac_branch, qloss to {args.out}")
    return EXIT_OK


def _cmd_thermal(args) -> int:
    case = _load_case(args)
    scenario = _scenario_from_args(args, require=True)
    trace = simulate(case, scenario, dt=args.dt)
    meta = _meta_line(args, ("field", "dir", "dt", "format"))
    rows = []
    worst = 0.0
    for bid in sorted(trace.traces):
        tr = trace.traces[bid]
        worst = max(worst, tr.peak)
        for k in range(1, len(tr.t)):
            rows.append(
                f"{_fmt(float(tr.t[k]))},{bid},{_fmt(float(tr.delta_to[k]))},"
                f"{_fmt(float(tr.eta_hs[k]))},{_fmt(float(tr.hotspot[k]))},"
                f"{_fmt(tr.limit)},{int(tr.hotspot[k] > tr.limit)}")
    name = _write_table(args, "thermal",
                        "t_min,branch_id,delta_to_C,eta_hs_C,hotspot_C,limit_C,violation",
                        rows, meta)
    flag = "VIOLATION" if trace.any_violation() else "ok"
    print(f"thermal: {len(trace.traces)} transformer(s), peak hot-spot "
          f"{worst:.1f} degC [{flag}]; wrote {name}")
    return EXIT_OK


def plan_to_json(plan: MitigationPlan) -> dict:
    # wall_time_s is zeroed in the file so identical inputs give
    # byte-identical outputs; the measured time goes to the console
    return {
        "z": {str(k): v for k, v in plan.z.items()},
        "times": plan.times,
        "dt": plan.dt,
        "gen_p": {str(k): v for k, v in plan.gen_p.items()},
        "flows": {str(k): v for k, v in plan.flows.items()},
        "theta": {str(k): v for k, v in plan.theta.items()},
        "i_eff": {str(k): v for k, v in plan.i_eff.items()},
        "delta_to": {str(k): v for k, v in plan.delta_to.items()},
        "hotspot": {str(k): v for k, v in plan.hotspot.items()},
        "xfmr_branches": {str(k): v for k, v in plan.xfmr_branches.items()},
        "objective": plan.objective,
        "model_objective": plan.model_objective,
        "gap": plan.gap,
        "nodes": plan.nodes,
        "wall_time_s": 0.0,
        "status": plan.status,
    }


def plan_from_json(doc: dict) -> MitigationPlan:
    def imap(d):
        return {int(k): v for k, v in d.items()}

    return MitigationPlan(
        z=imap(doc["z"]), times=doc["times"], dt=doc["dt"],
        gen_p=imap(doc["gen_p"]), flows=imap(doc["flows"]),
        theta=imap(doc["theta"]), i_eff=imap(doc["i_eff"]),
        delta_to=imap(doc["delta_to"]), hotspot=imap(doc["hotspot"]),
        xfmr_branches=imap(doc["xfmr_branches"]),
        objective=doc["objective"], model_objective=doc["model_objective"],
        gap=doc["gap"], nodes=doc["nodes"],
        wall_time_s=doc.get("wall_time_s", 0.0), status=doc.get("status", "optimal"))


def _cmd_mitigate(args) -> int:
    case = _load_case(args)
    scenario = _scenario_from_args(args, require=True)
    options = OtsOptions(dt=args.dt, gap=args.gap)
    model = build_model(case, scenario, options)
    plan = enumerate_solve(model) if args.solver == "enum" else solve(model)

    meta = _meta_line(args, ("field", "dir", "dt", "solver", "gap", "format"))
    doc = plan_to_json(plan)
    doc["_meta"] = meta[2:]
    _write(os.path.join(args.out, "plan.json"),
           json.dumps(doc, indent=1, sort_keys=True) + "\n")
    _write_table(args, "plan_branches", "i,j,ckt,type,z_nom,z,p_ij,I_e",
                 _branch_table(case, scenario, plan), meta)

    opened = [str(b) for b, zv in sorted(plan.z.items()) if zv == 0]
    print(f"mitigate: status {plan.status}, objective {plan.objective:.4f} "
          f"(model {plan.model_objective:.4f}, gap {plan.gap:.2e}), "
          f"{plan.nodes} node(s), {plan.wall_time_s:.2f}s; "
          f"opened: {', '.join(opened) if opened else 'none'}; "
          f"wrote plan.json, plan_branches.csv")
    return EXIT_OK


def _branch_table(case: CaseData, scenario: FieldScenario,
                  plan: MitigationPlan) -> list[str]:
    """Branch-status rows at the field peak: i,j,ckt,type,z_nom,z,p_ij,I_e.

    Flows come from the plan's peak-field period; dc currents are solved
    at the scenario's peak sampled field on the plan's topology.
    """
    def peak(times):
        mags = [math.hypot(*e) for e in scenario.series(times).tolist()]
        return mags.index(max(mags))

    k = peak(plan.times)
    sample_times = [s.t for s in scenario.samples]
    sample_peak = sample_times[peak(sample_times)]
    series = solve_series(case, scenario, [sample_peak], topology=dict(plan.z))
    current = dict(zip(series.branch_ids, series.I[0].tolist()))

    rep_winding = {}
    kind = {}
    for row in case.branch_gmd:
        if row.branch == -1:
            continue
        kind[row.branch] = row.type
        if row.is_xfmr:
            rep_winding[row.branch] = (row.gmd_br_se if row.gmd_br_se != -1
                                       else row.gmd_br_hi)
    line_branch = {}
    for e in case.gmd_branches:
        if e.parent != -1 and kind.get(e.parent) == "line":
            line_branch[e.parent] = e.index

    ckt = case.ckt_numbers()
    rows = []
    for br in sorted(case.ac_branches, key=lambda b: b.index):
        z = plan.z.get(br.index, br.status)
        p = plan.flows.get(br.index, [0.0] * (k + 1))[k] if br.status and z else 0.0
        gid = rep_winding.get(br.index, line_branch.get(br.index))
        i_e = current.get(gid, 0.0) if gid is not None else 0.0
        btype = kind.get(br.index, "line")
        btype = {"xfmr": "xf"}.get(btype, btype)
        rows.append(f"{br.f_bus},{br.t_bus},{ckt[br.index]},{btype},"
                    f"{br.status},{z},{p:.1f},{i_e:.1f}")
    return rows


def _cmd_verify(args) -> int:
    case = _load_case(args)
    scenario = _scenario_from_args(args, require=True)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = plan_from_json(json.load(fh))
    report = verify_plan(case, scenario, plan, OtsOptions(dt=args.dt))
    for cls in sorted(report.violations):
        print(f"  {cls:>14s}: {report.violations[cls]:.3e}")
    ok = report.ok(args.tol)
    if args.out:
        _write(os.path.join(args.out, "verify.json"),
               json.dumps({"violations": report.violations,
                           "details": report.details, "ok": ok},
                          indent=1, sort_keys=True) + "\n")
    print(f"verify: max violation {report.max_violation():.3e} "
          f"[{'ok' if ok else 'VIOLATION'}]")
    return EXIT_OK if ok else EXIT_ANALYSIS


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gicgrid",
                                  description="GIC analysis and mitigation toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, scenario=True, solver=False, plan=False):
        p.add_argument("--case", required=True, help="case JSON document")
        if scenario:
            p.add_argument("--scenario", help="field scenario CSV (t_min,e_mag_vkm,e_dir_deg)")
        p.add_argument("--field", type=float, default=None,
                       help="uniform field magnitude [V/km] (peak of a 3h/3h ramp "
                            "for scenario-driven commands)")
        p.add_argument("--dir", type=float, default=90.0,
                       help="field direction, geographic degrees (0=N, 90=E)")
        p.add_argument("--dt", type=float, default=5.0, help="time step [min]")
        if solver:
            p.add_argument("--solver", choices=("bb", "enum"), default="bb")
            p.add_argument("--gap", type=float, default=1e-4)
        if plan:
            p.add_argument("--plan", required=True, help="plan JSON from mitigate")
            p.add_argument("--tol", type=float, default=1e-5)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("dc", help="quasi-dc GIC solve"))
    common(sub.add_parser("ac", help="sequential GIC -> ac power flow"),
           scenario=False)
    common(sub.add_parser("thermal", help="transformer temperature simulation"))
    common(sub.add_parser("mitigate", help="switching mitigation"), solver=True)
    common(sub.add_parser("verify", help="re-check a mitigation plan"), plan=True)
    return top


_HANDLERS = {"dc": _cmd_dc, "ac": _cmd_ac, "thermal": _cmd_thermal,
             "mitigate": _cmd_mitigate, "verify": _cmd_verify}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_run_config(args)
        return _HANDLERS[args.command](args)
    except (CaseError, FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PowerFlowError, IslandError, MitigationInfeasible,
            ArithmeticError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        if isinstance(exc, MitigationInfeasible) and exc.context:
            print(f"  probes: {exc.context}", file=sys.stderr)
        return EXIT_ANALYSIS


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
