"""Command-line front end.

Subcommands map one-to-one onto the analysis pipelines:

* ``dc``        quasi-dc GIC solve (single field or scenario sweep)
* ``ac``        sequential GIC -> ac power flow at one time point
* ``thermal``   transformer temperature simulation over a scenario
* ``mitigate``  time-extended switching optimization
* ``verify``    independent re-check of a mitigation plan

Outputs are plot-ready CSV tables and a JSON plan, each carrying a
reproducibility header (input hashes and options, never timestamps), so
identical inputs give byte-identical outputs.  Exit codes: 0 success,
1 analysis failure (non-convergence / infeasible), 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .coupling import AcArrays, IslandError, PowerFlowError, sequential_gic_ac
from .data import (CaseError, CaseData, FieldScenario, Periods, load_scenario,
                   make_ramp_scenario, parse_case)
from .dcnet import DcArrays, FieldVector, solve_series
from .thermal import simulate

if TYPE_CHECKING:  # imported where used: dc, ac and thermal never load mitigation
    from .mitigation import MitigationPlan

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2
_CSV_BLOCK = 8192  # rows per block of CSV text


def _read(args, option: str) -> str | None:
    """Text of the input file that ``--<option>`` names, or None when unset.

    The file is read once; the header hashes these same bytes, so it names
    what was analysed even if the file changes while the command runs.
    """
    path = getattr(args, option)
    if not path:
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    args.sha256[option] = hashlib.sha256(data).hexdigest()[:16]
    return data.decode("utf-8-sig")


def _meta_line(args, keys) -> str:
    parts = [f"{option}_sha256={args.sha256[option]}"
             for option in ("case", "scenario", "overrides") if option in args.sha256]
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            parts.append(f"{k}={v}")
    return "# " + " ".join(parts)


def _write(path: str, text) -> None:
    """Write ``text``, a string or an iterable of strings, to ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)``, byte for byte.

    With an indent, ``json.dumps`` runs its pure-Python encoder on every
    value.  Here each non-empty list of plain floats and ints is encoded by
    the C encoder (one line, ", " between cells) and re-indented; every
    other value recurses, and scalars and empty containers go to
    ``json.dumps`` alone."""
    return "".join(_json_chunks(doc, "\n"))


def _json_chunks(value, newline: str):
    inner = newline + " "
    if type(value) is list and value and set(map(type, value)) <= {float, int}:
        yield "[" + inner + json.dumps(value)[1:-1].replace(", ", "," + inner) + newline + "]"
    elif isinstance(value, (list, tuple)) and value:
        for k, v in enumerate(value):
            yield ("[" if k == 0 else ",") + inner
            yield from _json_chunks(v, inner)
        yield newline + "]"
    elif isinstance(value, dict) and value:
        for k, (key, v) in enumerate(sorted(value.items())):
            key = key if isinstance(key, str) else json.dumps(key)
            yield ("{" if k == 0 else ",") + inner + json.dumps(key) + ": "
            yield from _json_chunks(v, inner)
        yield newline + "}"
    else:
        yield json.dumps(value)


def _cells(col: np.ndarray, spec: str = ".10g", each: int = 1) -> list[str]:
    """One column as text: floats by ``spec``, ints (ids, flags) in full by ``%d``;
    with ``each`` > 1 every cell is repeated that many times in turn.

    Each run of equal cells is formatted once, by one C-level ``%`` template
    (the same text as ``format(x, spec)``), and repeated over its run.  Floats
    are compared by bit pattern, so -0.0 and 0.0 keep their own text.  A bool,
    object or string column is a ``TypeError``: ``%d`` would print a bool as 1.
    """
    kind = col.dtype.kind
    if kind not in "iuf":
        raise TypeError(f"a table column holds ints or floats, not {col.dtype}")
    keys = col.view(f"i{col.itemsize}") if kind == "f" else col
    head = np.empty(len(keys), dtype=bool)  # True where a run starts
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    values = col[starts].tolist()
    text = ((f"%{spec}\n" if kind == "f" else "%d\n") * len(values)) % tuple(values)
    runs = np.array(text.split("\n")[:-1], dtype=object)
    return np.repeat(runs, np.diff(starts, append=len(keys)) * each).tolist()


def _write_table(args, name: str, columns: dict, meta: str) -> str:
    """Write columns, {header: column} in order, as ``<name>.csv``; a column is
    an array, formatted by ``_cells``, or a list of text.  The text is made a
    block of rows at a time, never for the whole table: the block's cells go
    into one flat list between pre-placed separators, joined once."""
    cols = list(columns.values())
    width = 2 * len(cols)  # a cell and the separator after it, per column
    row_seps = [None, ","] * (len(cols) - 1) + [None, "\n"]

    def block(start, stop):
        cells = [c[start:stop] if isinstance(c, list) else _cells(c[start:stop]) for c in cols]
        flat = row_seps * len(cells[0])
        for j, column in enumerate(cells):
            flat[2 * j::width] = column
        return "".join(flat)

    chunks = (block(k, k + _CSV_BLOCK) for k in range(0, len(cols[0]), _CSV_BLOCK))
    filename = f"{name}.csv"
    _write(os.path.join(args.out, filename), chain([f"{meta}\n{','.join(columns)}\n"], chunks))
    return filename


def _check_run_config(args) -> None:
    for name in ("dt", "field", "dir"):  # every subcommand has these options
        if getattr(args, name) is not None and not math.isfinite(getattr(args, name)):
            raise CaseError(f"--{name} must be finite")
    if not args.dt > 0:
        raise CaseError("--dt must be positive")
    if args.field is not None and args.field < 0:  # a magnitude; --dir gives the bearing
        raise CaseError("--field must be >= 0")
    gap = getattr(args, "gap", None)
    if gap is not None and not 0.0 < gap < 1.0:
        raise CaseError("--gap must lie in (0, 1)")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise CaseError("--tol must be finite and >= 0")
    time_limit = getattr(args, "time_limit", None)
    if time_limit is not None and not 0.0 < time_limit < math.inf:
        raise CaseError("--time-limit must be finite and positive")


def _scenario_from_args(args, require: bool = False) -> FieldScenario | None:
    if args.overrides and not args.scenario:
        raise CaseError("--overrides needs a --scenario file")
    if args.scenario and args.field is not None:
        raise CaseError("--field applies only without --scenario")
    if args.scenario:
        text = _read(args, "scenario")
        return load_scenario(text, overrides_text=_read(args, "overrides"))
    if args.field is not None and require:
        return make_ramp_scenario(args.field, 180.0, 180.0, dt=args.dt,
                                  direction_deg=args.dir)
    if require:
        raise CaseError("a --scenario file or --field peak is required")
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_dc(args) -> int:
    case = parse_case(_read(args, "case"))
    scenario = _scenario_from_args(args)
    meta = _meta_line(args, ("field", "dir", "dt"))

    if scenario is not None:
        times, fields = Periods.over(scenario, args.dt).edges, scenario
    elif args.field is not None:
        times, fields = [0.0], np.array([FieldVector.from_mag_dir(args.field, args.dir)])
    else:
        times, fields = [0.0], None  # stored br_v values drive the solve
    series = solve_series(case, fields, times)

    # each solved edge reads the effective GIC of the transformer row it is a
    # winding of (the last such row); winding_row -1 picks the zero row
    dc = case.compiled(DcArrays)
    eff = np.vstack([series.effective, np.zeros(len(times))])[
        dc.winding_row[np.isin(dc.branch_ids, series.branch_ids)]]

    def table(name, id_header, ids, **values):  # values: (T, len(ids)); rows by time, then id
        order = np.argsort(ids, kind="stable")
        return _write_table(args, name, {
            "t_min": _cells(np.asarray(times, dtype=float), each=len(order)),
            id_header: _cells(np.asarray(ids)[order]) * len(times),
            **{h: v[:, order].ravel() for h, v in values.items()}}, meta)

    peak = float(np.max(np.abs(series.I), initial=0.0))
    f1 = table("gic_bus", "gmd_bus_id", series.node_ids, v_dc_volts=series.V)
    f2 = table("gic_branch", "gmd_branch_id", series.branch_ids, i_dc_amps=series.I,
               i_eff_amps=eff.reshape(series.I.T.shape).T)
    print(f"dc: {len(times)} time point(s), peak |I| = {peak:.3f} A; "
          f"wrote {f1}, {f2} to {args.out}")
    return EXIT_OK


def _cmd_ac(args) -> int:
    case = parse_case(_read(args, "case"))
    field = None if args.field is None else FieldVector.from_mag_dir(args.field, args.dir)
    _, d_q, ac = sequential_gic_ac(case, field)
    meta = _meta_line(args, ("field", "dir"))

    arrays = case.compiled(AcArrays)  # each table's rows by id
    bus = np.argsort(arrays.bus_ids, kind="stable")
    br = np.argsort(arrays.branch_ids, kind="stable")
    loss = np.argsort(arrays.loss_branch, kind="stable")
    va_deg = np.array([math.degrees(v) for v in ac.va[bus].tolist()])
    _write_table(args, "ac_bus", {"bus_id": np.asarray(arrays.bus_ids)[bus],
                                  "vm_pu": ac.vm[bus], "va_deg": va_deg}, meta)
    _write_table(args, "ac_branch", {"branch_id": arrays.branch_ids[br],
                                     "p_from_pu": ac.p_from[br], "q_from_pu": ac.q_from[br]}, meta)
    _write_table(args, "qloss", {"branch_id": arrays.loss_branch[loss], "d_q_pu": d_q[loss]}, meta)

    total_q = sum(d_q.tolist())
    print(f"ac: converged in {ac.iterations} iterations "
          f"(mismatch {ac.max_mismatch:.2e} p.u.), GIC reactive loss "
          f"{total_q:.4f} p.u.; wrote ac_bus, ac_branch, qloss to {args.out}")
    return EXIT_OK


def _cmd_thermal(args) -> int:
    case = parse_case(_read(args, "case"))
    scenario = _scenario_from_args(args, require=True)
    trace = simulate(case, scenario, times=Periods.over(scenario, args.dt).edges)
    meta = _meta_line(args, ("field", "dir", "dt"))
    order = np.argsort(trace.branch, kind="stable")
    n = len(trace.t) - 1  # rows: by branch id, then by sample after the first
    col = {k: getattr(trace, k)[order, 1:].reshape(-1)
           for k in ("delta_to", "eta_hs", "hotspot", "violations")}
    name = _write_table(args, "thermal", {
        "t_min": _cells(trace.t[1:]) * len(order),
        "branch_id": _cells(trace.branch[order], each=n),
        "delta_to_C": col["delta_to"], "eta_hs_C": col["eta_hs"], "hotspot_C": col["hotspot"],
        "limit_C": _cells(trace.limit[order], each=n),
        "violation": col["violations"].astype(int)}, meta)
    worst = float(np.max(trace.hotspot, initial=0.0))
    flag = "VIOLATION" if trace.any_violation() else "ok"
    print(f"thermal: {len(order)} transformer(s), peak hot-spot "
          f"{worst:.1f} degC [{flag}]; wrote {name}")
    return EXIT_OK


def _id_map(f: dataclasses.Field) -> bool:
    """A plan field keyed by ids: string keys in the file, int keys in memory."""
    return str(f.type).startswith("dict")


def plan_to_json(plan: MitigationPlan) -> dict:
    # wall_time_s is zeroed in the file so identical inputs give
    # byte-identical outputs; the measured time goes to the console
    doc = {f.name: {str(k): v for k, v in getattr(plan, f.name).items()} if _id_map(f)
           else getattr(plan, f.name) for f in dataclasses.fields(plan)}
    doc["wall_time_s"] = 0.0
    return doc


def plan_from_json(doc: dict) -> MitigationPlan:
    from .mitigation import MitigationPlan

    if not isinstance(doc, dict):
        raise CaseError(f"plan: expected a JSON object, got {type(doc).__name__}")

    def value(f):  # a field the file leaves out takes its dataclass default
        if f.name not in doc:
            if f.default is dataclasses.MISSING:
                raise CaseError(f"plan: missing field '{f.name}'")
            return f.default
        v = doc[f.name]
        if not _id_map(f):
            return v
        if not isinstance(v, dict):
            raise CaseError(f"plan {f.name}: expected an object of ids, got {type(v).__name__}")
        return {int(k): x for k, x in v.items()}

    return MitigationPlan(**{f.name: value(f) for f in dataclasses.fields(MitigationPlan)})


def _cmd_mitigate(args) -> int:
    from .mitigation import (MitigationInfeasible, OtsOptions, build_model,
                             enumerate_solve, solve)

    case = parse_case(_read(args, "case"))
    scenario = _scenario_from_args(args, require=True)
    options = OtsOptions(dt=args.dt, gap=args.gap, time_limit=args.time_limit)
    model = build_model(case, scenario, options)
    try:
        plan = enumerate_solve(model) if args.solver == "enum" else solve(model)
    except MitigationInfeasible as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        if exc.context:
            print(f"  probes: {exc.context}", file=sys.stderr)
        return EXIT_ANALYSIS

    meta = _meta_line(args, ("field", "dir", "dt", "solver", "gap", "time_limit"))
    doc = plan_to_json(plan)
    doc["_meta"] = meta[2:]
    _write(os.path.join(args.out, "plan.json"), _json_text(doc) + "\n")
    _write_table(args, "plan_branches", _branch_table(case, scenario, plan), meta)

    opened = [str(b) for b, zv in sorted(plan.z.items()) if zv == 0]
    print(f"mitigate: status {plan.status}, objective {plan.objective:.4f} "
          f"(model {plan.model_objective:.4f}, gap {plan.gap:.2e}), "
          f"{plan.nodes} node(s), {plan.wall_time_s:.2f}s; "
          f"opened: {', '.join(opened) if opened else 'none'}; "
          f"wrote plan.json, plan_branches.csv")
    return EXIT_OK


def _branch_table(case: CaseData, scenario: FieldScenario, plan: MitigationPlan) -> dict:
    """Branch-status columns at the field peak, one row per ac branch by id.

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

    # I_e reads a transformer's series (else high) winding, or a line's (last) dc branch
    rows = [row for row in case.branch_gmd if row.branch != -1]
    kind = {row.branch: {"xfmr": "xf"}.get(row.type, row.type) for row in rows}
    gid = {**{e.parent: e.index for e in case.gmd_branches if kind.get(e.parent) == "line"},
           **{row.branch: row.gmd_br_se if row.gmd_br_se != -1 else row.gmd_br_hi
              for row in rows if row.is_xfmr}}

    ckt = case.ckt_numbers()
    brs = sorted(case.ac_branches, key=lambda b: b.index)
    z = [plan.z.get(br.index, br.status) for br in brs]
    p = [plan.flows.get(br.index, [0.0] * (k + 1))[k] if br.status and zb else 0.0
         for br, zb in zip(brs, z)]
    i_e = [current.get(gid.get(br.index), 0.0) for br in brs]
    return {"i": np.array([br.f_bus for br in brs]), "j": np.array([br.t_bus for br in brs]),
            "ckt": np.array([ckt[br.index] for br in brs]),
            "type": [kind.get(br.index, "line") for br in brs],
            "z_nom": np.array([br.status for br in brs]), "z": np.array(z),
            "p_ij": _cells(np.array(p, dtype=float), ".1f"),
            "I_e": _cells(np.array(i_e, dtype=float), ".1f")}


def _cmd_verify(args) -> int:
    from .mitigation import verify_plan

    case = parse_case(_read(args, "case"))
    scenario = _scenario_from_args(args, require=True)
    with open(args.plan, "r", encoding="utf-8-sig") as fh:
        plan = plan_from_json(json.load(fh))
    report = verify_plan(case, scenario, plan, args.dt)
    for cls in sorted(report.violations):
        print(f"  {cls:>14s}: {report.violations[cls]:.3e}")
    ok = report.ok(args.tol)
    _write(os.path.join(args.out, "verify.json"),
           _json_text({"violations": report.violations, "details": report.details, "ok": ok})
           + "\n")
    print(f"verify: max violation {report.max_violation():.3e} "
          f"[{'ok' if ok else 'VIOLATION'}]")
    return EXIT_OK if ok else EXIT_ANALYSIS


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gicgrid",
                                  description="GIC analysis and mitigation toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, scenario=True, solver=False, plan=False):
        p.add_argument("--case", required=True, help="case JSON document")
        if scenario:
            p.add_argument("--scenario", help="field scenario CSV (t_min,e_mag_vkm,e_dir_deg)")
            p.add_argument("--overrides", help="per-branch voltage overrides CSV "
                                               "(t_min,gmd_branch_id,volts) for --scenario")
        p.add_argument("--field", type=float, default=None,
                       help="uniform field magnitude [V/km] (peak of a 3h/3h ramp "
                            "for scenario-driven commands)")
        p.add_argument("--dir", type=float, default=90.0,
                       help="field direction, geographic degrees (0=N, 90=E)")
        p.add_argument("--dt", type=float, default=5.0, help="time step [min]")
        if solver:
            p.add_argument("--solver", choices=("bb", "enum"), default="bb")
            p.add_argument("--gap", type=float, default=1e-4)
            p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                           help="stop the bb search after this long and write its best "
                                "plan, status timeout (default: no limit)")
        if plan:
            p.add_argument("--plan", required=True, help="plan JSON from mitigate")
            p.add_argument("--tol", type=float, default=1e-5)
        p.add_argument("--out", default="out", help="output directory")

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
    args.sha256 = {}  # input file -> hash of the bytes read, for the output headers
    try:
        _check_run_config(args)
        return _HANDLERS[args.command](args)
    except (CaseError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PowerFlowError, IslandError, ArithmeticError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
