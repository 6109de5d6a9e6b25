"""Output checks.  Each returns a list of problems; an empty list passes.

The checks read only the files the commands wrote and recompute what they
can without the package under test: a sparse nodal solve for the dc
outputs, the power-flow equations for the ac outputs, the top-oil
recursion and recorded unit-field currents for the thermal outputs, and a
recorded enumeration optimum for the mitigation plan.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

EARTH_RADIUS_KM = 6371.0

# Relative tolerance on every compared CSV column, taken against the
# column's largest magnitude.  The CSVs carry 10 significant digits; dense
# and sparse solves of the same system agree to ~1e-12.
COLUMN_RTOL = 1e-6
# Largest power-flow mismatch [p.u.] recomputed from the written voltages.
MISMATCH_TOL = 1e-5
# The B&B guarantees its optimum within the default relative gap.
OBJECTIVE_RTOL = 1e-4


def read_csv(path: str) -> np.ndarray:
    """Float matrix of a written CSV, without its '#' line and header."""
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        width = len(line.split(","))
        return np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, width)


def non_finite(out_dir: str) -> list[str]:
    """Names of written files that hold a NaN or an infinity."""
    bad = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            try:
                ok = bool(np.all(np.isfinite(read_csv(path))))
            except ValueError:      # a text column such as a branch type
                with open(path, encoding="utf-8") as fh:
                    ok = all(_finite_token(x) for ln in fh if not ln.startswith("#")
                             for x in ln.strip().split(","))
        elif name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                ok = _finite_json(json.load(fh, parse_constant=lambda c: math.nan))
        else:
            continue
        if not ok:
            bad.append(f"{name}: NaN or inf in output")
    return bad


def _finite_token(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return True     # a label such as a column name or a branch type


def _finite_json(doc) -> bool:
    if isinstance(doc, dict):
        return all(_finite_json(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_json(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


def _close(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != expected {want.shape}"]
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-9)
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= COLUMN_RTOL * scale:
        return [f"{label}: max deviation {err:.3e} exceeds {COLUMN_RTOL:.0e} x {scale:.3e}"]
    return []


def field_components(mag, bearing_deg):
    """(north, east) components [V/km] of a field given as magnitude and bearing."""
    rad = np.radians(bearing_deg)
    return mag * np.cos(rad), mag * np.sin(rad)


def scenario_field(samples, times) -> tuple[np.ndarray, np.ndarray]:
    """Field components at ``times``, interpolated linearly on the components."""
    t, mag, bearing = (np.asarray(c, dtype=float) for c in zip(*samples))
    north, east = field_components(mag, bearing)
    return np.interp(times, t, north), np.interp(times, t, east)


# ---------------------------------------------------------------------------
# dc: independent nodal solve
# ---------------------------------------------------------------------------

class DcOracle:
    """Unit-field solutions of a case document's dc network.

    Covers what the synthetic grids use: in-service gmd buses and branches,
    uniform-field projection rescaled to ``len_km``, zero induced voltage on
    transformer windings, and gwye-delta effective currents.
    """

    def __init__(self, doc: dict):
        nodes = [b["index"] for b in doc["gmd_bus"]]
        pos = {n: i for i, n in enumerate(nodes)}
        coords = {c["bus"]: (c["lat"], c["lon"]) for c in doc["bus_gmd"]}
        parent = {b["index"]: b["parent"] for b in doc["gmd_bus"]}
        windings = {r["gmd_br_hi"] for r in doc["branch_gmd"] if r["type"] == "xfmr"}
        n, m = len(nodes), len(doc["gmd_branch"])
        f = np.array([pos[e["f_bus"]] for e in doc["gmd_branch"]])
        t = np.array([pos[e["t_bus"]] for e in doc["gmd_branch"]])
        a = np.array([1.0 / e["br_r"] for e in doc["gmd_branch"]])
        length = np.zeros((m, 2))      # (north, east) route displacement [km]
        for k, e in enumerate(doc["gmd_branch"]):
            if e["index"] in windings:
                continue
            p, q = coords[parent[e["f_bus"]]], coords[parent[e["t_bus"]]]
            ln = EARTH_RADIUS_KM * math.radians(q[0] - p[0])
            le = (EARTH_RADIUS_KM * math.radians(q[1] - p[1])
                  * math.cos(math.radians((p[0] + q[0]) / 2.0)))
            norm = math.hypot(ln, le)
            scale = e["len_km"] / norm if e["len_km"] > 0 and norm > 0 else 1.0
            length[k] = (ln * scale, le * scale)
        inc = sp.csr_matrix((np.r_[np.ones(m), -np.ones(m)],
                             (np.r_[f, t], np.r_[np.arange(m), np.arange(m)])), shape=(n, m))
        g_gnd = np.array([b["g_gnd"] for b in doc["gmd_bus"]])
        G = (inc @ sp.diags(a) @ inc.T + sp.diags(g_gnd)).tocsc()
        # a source v on branch f->t drives a*v out of f and into t
        J = -(inc @ sp.diags(a)) @ length
        self.V = spla.splu(G).solve(np.asarray(J))          # [n, 2]
        self.I = a[:, None] * (inc.T @ self.V + length)      # [m, 2]
        self.node_ids = np.array(nodes, dtype=float)
        self.branch_ids = np.array([e["index"] for e in doc["gmd_branch"]], dtype=float)
        self.branch_row = {e["index"]: k for k, e in enumerate(doc["gmd_branch"])}
        self.is_winding = np.array([e["index"] in windings for e in doc["gmd_branch"]])

    def effective(self, winding: int, north: float, east: float) -> float:
        k = self.branch_row[winding]
        return abs(north * self.I[k, 0] + east * self.I[k, 1])


def check_dc(out_dir: str, oracle: DcOracle, samples) -> list[str]:
    """gic_bus.csv / gic_branch.csv against the oracle at every sample time."""
    times = np.array([s[0] for s in samples])
    north, east = scenario_field(samples, times)
    problems = []
    for name, ids, unit in (("gic_bus", oracle.node_ids, oracle.V),
                            ("gic_branch", oracle.branch_ids, oracle.I)):
        got = read_csv(os.path.join(out_dir, f"{name}.csv"))
        order = np.argsort(ids)
        value = north[:, None] * unit[order, 0] + east[:, None] * unit[order, 1]
        if got.shape[0] != value.size:
            problems.append(f"{name}.csv: {got.shape[0]} rows, expected {value.size}")
            continue
        problems += _close(f"{name}.t_min", got[:, 0], np.repeat(times, len(ids)))
        problems += _close(f"{name}.id", got[:, 1], np.tile(ids[order], len(times)))
        problems += _close(f"{name}.value", got[:, 2], value.ravel())
        if name == "gic_branch":    # gwye-delta effective GIC is |I| of the winding
            eff = np.abs(value) * oracle.is_winding[order]
            problems += _close("gic_branch.i_eff_amps", got[:, 3], eff.ravel())
    return problems


# ---------------------------------------------------------------------------
# ac: power-flow equations and reactive losses
# ---------------------------------------------------------------------------

def check_ac(out_dir: str, doc: dict, oracle: DcOracle, mag: float, bearing: float) -> list[str]:
    """Recompute bus injections from ac_bus.csv and the losses from qloss.csv."""
    problems = []
    bus = read_csv(os.path.join(out_dir, "ac_bus.csv"))
    ql = read_csv(os.path.join(out_dir, "qloss.csv"))
    ids = [b["index"] for b in doc["bus"]]
    pos = {b: i for i, b in enumerate(ids)}
    if sorted(bus[:, 0].astype(int).tolist()) != sorted(ids):
        return ["ac_bus.csv: bus ids differ from the case"]
    vm = np.empty(len(ids))
    va = np.empty(len(ids))
    for row in bus:
        vm[pos[int(row[0])]] = row[1]
        va[pos[int(row[0])]] = math.radians(row[2])
    n = len(ids)
    rows, cols, vals = [], [], []
    for br in doc["branch"]:
        if not br["status"]:
            continue
        i, j, y = pos[br["f_bus"]], pos[br["t_bus"]], -1j * br["b"]
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [y, y, -y, -y]
    Y = sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex)
    V = vm * np.exp(1j * va)
    S = V * np.conj(Y @ V)
    p_sched = np.array([-b["pd"] for b in doc["bus"]])
    q_sched = np.array([-b["qd"] for b in doc["bus"]])
    for g in doc["gen"]:
        p_sched[pos[g["bus"]]] += g["pg"]
    xfmr = {r["branch"]: r for r in doc["branch_gmd"] if r["type"] == "xfmr"}
    north, east = field_components(mag, bearing)
    kv = {b["index"]: b["base_kv"] for b in doc["bus"]}
    for branch_id, d_q in ql:
        row = xfmr[int(branch_id)]
        q_sched[pos[row["hi_bus"]]] -= d_q
        i_eff = oracle.effective(row["gmd_br_hi"], north, east)
        # every synthetic step-up transformer's high side is a PV bus, so both
        # passes of the sequential analysis see the same voltage there
        want = (row["gmd_k"] * vm[pos[row["hi_bus"]]] * math.sqrt(3.0) * kv[row["hi_bus"]]
                * i_eff / (1000.0 * doc["base_mva"]))
        if not abs(d_q - want) <= COLUMN_RTOL * max(abs(want), 1e-6):
            problems.append(f"qloss branch {int(branch_id)}: {d_q:.9g} p.u., expected {want:.9g}")
            break
    if len(ql) != len(xfmr):
        problems.append(f"qloss.csv: {len(ql)} rows, expected {len(xfmr)}")
    kinds = [b["bus_type"] for b in doc["bus"]]
    p_mis = max(abs(S.real[i] - p_sched[i]) for i, k in enumerate(kinds) if k != "slack")
    q_mis = max(abs(S.imag[i] - q_sched[i]) for i, k in enumerate(kinds) if k == "PQ")
    if not max(p_mis, q_mis) <= MISMATCH_TOL:
        problems.append(f"ac_bus.csv: power-flow mismatch {max(p_mis, q_mis):.3e} p.u.")
    vg = {g["bus"]: g["vg"] for g in doc["gen"]}
    v_err = max(abs(vm[pos[b]] - v) for b, v in vg.items())
    if not v_err <= MISMATCH_TOL:
        problems.append(f"ac_bus.csv: generator voltage setpoint missed by {v_err:.3e} p.u.")
    return problems


# ---------------------------------------------------------------------------
# thermal: recorded unit-field currents plus the top-oil recursion
# ---------------------------------------------------------------------------

def effective_series(doc: dict, unit_currents: dict, north, east) -> dict[int, np.ndarray]:
    """Effective GIC per transformer ac branch, from unit-field branch currents."""
    kv = {b["index"]: b["base_kv"] for b in doc["bus"]}

    def cur(wid):
        i_n, i_e = unit_currents[str(wid)]
        return north * i_n + east * i_e

    out = {}
    for row in doc["branch_gmd"]:
        if row["type"] != "xfmr":
            continue
        cfg = row["config"]
        if cfg == "gwye-delta":
            eff = cur(row["gmd_br_hi"])
        elif cfg == "gwye-gwye":
            a = row.get("turns_ratio") or kv[row["hi_bus"]] / kv[row["lo_bus"]]
            eff = (a * cur(row["gmd_br_hi"]) + cur(row["gmd_br_lo"])) / a
        elif cfg == "gwye-gwye-auto":
            a = row.get("turns_ratio") or kv[row["hi_bus"]] / kv[row["lo_bus"]] - 1.0
            eff = (a * cur(row["gmd_br_se"]) + cur(row["gmd_br_co"])) / (a + 1.0)
        else:
            eff = 0.0 * north
        out[row["branch"]] = np.abs(eff)
    return out


def check_thermal(out_dir: str, doc: dict, unit_currents: dict, samples, dt: float) -> list[str]:
    """thermal.csv for an unloaded run (loading None) against the recursion."""
    got = read_csv(os.path.join(out_dir, "thermal.csv"))
    t0, t1 = samples[0][0], samples[-1][0]
    grid = t0 + dt * np.arange(int(round((t1 - t0) / dt)) + 1)
    north, east = scenario_field(samples, grid)
    eff = effective_series(doc, unit_currents, north, east)
    limit_of = {r["branch"]: r.get("hotspot_limit") for r in doc["branch_gmd"]}
    blocks = []
    for th in sorted(doc["branch_thermal"], key=lambda r: r["branch"]):
        if not th["xfmr"] or th["branch"] not in eff:
            continue
        zeta = 2.0 * th["to_time_c"] / dt
        # unloaded: steady rise 0 after the initial sample
        delta = np.zeros(len(grid))
        delta[0] = th["to_init"] if th["to_inited"] else 0.0
        for k in range(1, len(grid)):
            du_prev = delta[0] if k == 1 else 0.0
            delta[k] = du_prev / (1.0 + zeta) - (1.0 - zeta) / (1.0 + zeta) * delta[k - 1]
        eta = th["hs_coeff"] * eff[th["branch"]]
        hot = th["temp_amb"] + delta + eta
        limit = limit_of.get(th["branch"]) or th["hs_inst_lim"]
        k = slice(1, None)
        blocks.append(np.column_stack([grid[k], np.full(len(grid) - 1, th["branch"]),
                                       delta[k], eta[k], hot[k],
                                       np.full(len(grid) - 1, limit),
                                       (hot[k] > limit).astype(float)]))
    want = np.vstack(blocks)
    if got.shape != want.shape:
        return [f"thermal.csv: shape {got.shape}, expected {want.shape}"]
    names = ("t_min", "branch_id", "delta_to_C", "eta_hs_C", "hotspot_C", "limit_C")
    problems = []
    for c, name in enumerate(names):
        problems += _close(f"thermal.{name}", got[:, c], want[:, c])
    # a violation flag may differ only where the hot-spot sits on the limit
    flip = (got[:, 6] != want[:, 6]) & (np.abs(want[:, 4] - want[:, 5]) > 1e-6 * want[:, 5])
    if flip.any():
        problems.append(f"thermal.violation: {int(flip.sum())} flag(s) disagree")
    return problems


# ---------------------------------------------------------------------------
# mitigation
# ---------------------------------------------------------------------------

def check_plan(out_dir: str, reference_objective: float) -> list[str]:
    """Status, objective against the enumeration optimum, criterion-6 switching."""
    with open(os.path.join(out_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    problems = []
    if plan["status"] != "optimal":
        problems.append(f"plan status {plan['status']}")
    rel = abs(plan["objective"] - reference_objective) / abs(reference_objective)
    if not rel <= OBJECTIVE_RTOL:
        problems.append(f"objective {plan['objective']!r} differs from the enumeration "
                        f"optimum {reference_objective!r} by {rel:.2e}")
    z = {int(k): v for k, v in plan["z"].items()}
    # acceptance criterion 6: open 4-6 (branch 9) and exactly one 4-5 circuit
    if z.get(9) != 0 or sorted((z.get(7), z.get(8))) != [0, 1] or \
            any(v != 1 for b, v in z.items() if b not in (7, 8, 9)):
        problems.append(f"opened set {sorted(b for b, v in z.items() if v == 0)} "
                        "fails acceptance criterion 6")
    return problems
