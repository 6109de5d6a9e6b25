"""Shared fixtures and randomized network builders."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from gicgrid.data import (ABSENT, AcBranch, BranchGmdData, Bus, BusGmdData,
                          CaseData, FieldSample, FieldScenario, Generator,
                          GmdBranch, GmdBus, ThermalData, parse_case_file,
                          validate_case)
from gicgrid.coupling import AcArrays
from gicgrid.dcnet import solve_series

CASES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "cases")


def bundled(name: str) -> CaseData:
    """The bundled case ``cases/<name>.json``."""
    return parse_case_file(os.path.join(CASES, f"{name}.json"))


def solve_at(case: CaseData, field=None, *, topology=None):
    """``solve_series`` at one time point: a field (e_north, e_east) [V/km],
    or None for the stored br_v values."""
    return solve_series(case, None if field is None else np.array([field]), [0.0],
                        topology=topology)


def voltages(series, k: int = 0) -> dict[int, float]:
    """Node voltages by gmd_bus id at time point ``k``."""
    return dict(zip(series.node_ids, series.V[k].tolist()))


def currents(series, k: int = 0) -> dict[int, float]:
    """Branch currents by gmd_branch id at time point ``k``."""
    return dict(zip(series.branch_ids, series.I[k].tolist()))


def effective(case: CaseData, series, k: int = 0) -> dict[int, float]:
    """Effective GICs by branch_gmd row position at time point ``k``."""
    return dict(zip((pos for pos, _ in case.xfmr_rows()), series.effective[:, k].tolist()))


def by_id(case: CaseData, solution) -> SimpleNamespace:
    """The arrays of an AcSolution of ``case`` as {id: value} maps: ``vm`` and
    ``va`` by bus id, the flows by branch id, ``gen_p`` and ``gen_q`` by
    generator id."""
    ac = case.compiled(AcArrays)
    ids = dict.fromkeys(("vm", "va"), ac.bus_ids)
    ids.update(dict.fromkeys(("p_from", "q_from", "p_to", "q_to"), ac.branch_ids.tolist()))
    ids.update(dict.fromkeys(("gen_p", "gen_q"), ac.gen_ids))
    return SimpleNamespace(**{name: dict(zip(keys, getattr(solution, name).tolist()))
                              for name, keys in ids.items()})


@pytest.fixture(scope="session")
def b4gic_case():
    return bundled("b4gic")


@pytest.fixture(scope="session")
def epri21_case():
    return bundled("epri21")


THERMAL_DEFAULTS = dict(xfmr=1, temp_amb=25.0, hs_inst_lim=280.0,
                        hs_avg_lim=240.0, hs_rated=150.0, to_time_c=71.0,
                        to_rated=75.0, to_init=0.0, to_inited=0, hs_coeff=0.63)


def random_dc_case(rng: np.random.Generator, max_nodes: int = 30) -> CaseData:
    """Random desk-scale dc network wrapped in a minimal valid case.

    A random tree plus extra chords over n dc bus nodes, each bus with
    coordinates in a small geographic box; a random subset of buses gets a
    grounded neutral fed by a gwye-delta winding.  All lines are
    geometry-projected, so uniform-field linearity properties apply.
    """
    n = int(rng.integers(4, max_nodes // 2 + 1))  # ac buses; dc nodes <= 2n
    lat0, lon0 = 35.0, -90.0
    coords = [(lat0 + rng.uniform(-2, 2), lon0 + rng.uniform(-2, 2))
              for _ in range(n)]

    buses = [Bus(index=i + 1, base_kv=345.0,
                 bus_type="slack" if i == 0 else "PQ",
                 pd=0.5 if i != 0 else 0.0)
             for i in range(n)]
    gens = (Generator(index=1, bus=1, pmin=0.0, pmax=100.0, qmin=-50, qmax=50,
                      cost1=10.0, pg=0.5 * (n - 1)),)

    # random connected ac/dc line set: spanning tree + chords
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((i + 1, j + 1))
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((int(i) + 1, int(j) + 1))

    branches = []
    gmd_buses = []
    gmd_branches = []
    branch_gmd = []
    thermal = []
    node_of = {}
    next_gmd = 1
    for b in buses:
        node_of[b.index] = next_gmd
        gmd_buses.append(GmdBus(index=next_gmd, parent=b.index, status=1,
                                g_gnd=0.0, name=f"dc_bus{b.index}"))
        next_gmd += 1

    grounded = rng.choice(n, size=max(2, n // 3), replace=False)
    br_id = 1
    for k in sorted(int(g) for g in grounded):
        bus_id = k + 1
        neutral = next_gmd
        gmd_buses.append(GmdBus(index=neutral, parent=bus_id, status=1,
                                g_gnd=float(rng.uniform(1.0, 10.0)),
                                name=f"dc_sub{bus_id}"))
        next_gmd += 1
        # grounded-wye winding of a GSU at this bus
        ac = AcBranch(index=br_id, f_bus=bus_id, t_bus=1 if bus_id != 1 else 2,
                      b=50.0, rating=50.0)
        # transformer must be its own ac branch; reuse a stub two-bus link
        branches.append(ac)
        gmd_branches.append(GmdBranch(index=br_id, f_bus=node_of[bus_id],
                                      t_bus=neutral, parent=ac.index, status=1,
                                      br_r=float(rng.uniform(0.05, 0.3)),
                                      name=f"wind{br_id}"))
        branch_gmd.append(BranchGmdData(branch=ac.index, hi_bus=bus_id,
                                        lo_bus=1 if bus_id != 1 else 2,
                                        gmd_br_hi=br_id, gmd_br_lo=ABSENT,
                                        gmd_k=1.793, gmd_br_se=ABSENT,
                                        gmd_br_co=ABSENT, baseMVA=100.0,
                                        dispatch=1, type="xfmr",
                                        config="gwye-delta"))
        thermal.append(ThermalData(branch=ac.index, **THERMAL_DEFAULTS))
        br_id += 1

    for f, t in edges:
        ac = AcBranch(index=br_id, f_bus=f, t_bus=t, b=40.0, rating=50.0)
        branches.append(ac)
        gmd_branches.append(GmdBranch(index=br_id, f_bus=node_of[f],
                                      t_bus=node_of[t], parent=ac.index,
                                      status=1,
                                      br_r=float(rng.uniform(0.5, 5.0)),
                                      name=f"line{br_id}"))
        branch_gmd.append(BranchGmdData(branch=ac.index, hi_bus=f, lo_bus=t,
                                        gmd_br_hi=ABSENT, gmd_br_lo=ABSENT,
                                        gmd_k=ABSENT, gmd_br_se=ABSENT,
                                        gmd_br_co=ABSENT, baseMVA=ABSENT,
                                        dispatch=1, type="line", config="none"))
        br_id += 1

    bus_gmd = tuple(BusGmdData(bus=i + 1, lat=coords[i][0], lon=coords[i][1])
                    for i in range(n))
    case = CaseData(base_mva=100.0, buses=tuple(buses), generators=gens,
                    ac_branches=tuple(branches), gmd_buses=tuple(gmd_buses),
                    gmd_branches=tuple(gmd_branches),
                    branch_gmd=tuple(branch_gmd), thermal=tuple(thermal),
                    bus_gmd=bus_gmd)
    validate_case(case)
    return case


def random_ots_case(rng: np.random.Generator):
    """Random toy switching case plus a scenario for oracle cross-checks.

    Small meshed networks (3-5 buses), one cheap and one expensive
    generator, every line switchable, a couple of grounded GSU
    transformers with tight-ish GIC bounds so switching matters.
    Some assignments island load (infeasible): good solver stress.
    """
    n = int(rng.integers(3, 6))
    coords = [(34.0 + rng.uniform(-1.5, 1.5), -88.0 + rng.uniform(-1.5, 1.5))
              for _ in range(n)]
    total_load = 0.0
    buses = []
    for i in range(n):
        pd = float(rng.uniform(0.5, 2.0)) if i not in (0, 1) else 0.0
        total_load += pd
        buses.append(Bus(index=i + 1, base_kv=345.0,
                         bus_type="slack" if i == 0 else "PQ", pd=pd))
    cap1 = total_load * float(rng.uniform(0.55, 0.9))
    gens = (Generator(index=1, bus=1, pmin=0.0, pmax=cap1, qmin=-50, qmax=50,
                      cost1=10.0, cost2=float(rng.choice([0.0, 0.5]))),
            Generator(index=2, bus=2, pmin=0.0, pmax=total_load * 1.5,
                      qmin=-50, qmax=50, cost1=40.0,
                      cost2=float(rng.choice([0.0, 0.5]))))

    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((i + 1, j + 1))
    extra = int(rng.integers(1, 3))
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((int(i) + 1, int(j) + 1))

    branches = []
    gmd_buses = []
    gmd_branches = []
    branch_gmd = []
    thermal = []
    node_of = {}
    nid = 1
    for b in buses:
        node_of[b.index] = nid
        gmd_buses.append(GmdBus(index=nid, parent=b.index, status=1,
                                g_gnd=0.0, name=f"dc_bus{b.index}"))
        nid += 1

    # a grounded GSU at two random buses
    xfmr_buses = sorted(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
    br_id = 1
    for bus_id in xfmr_buses:
        neutral = nid
        gmd_buses.append(GmdBus(index=neutral, parent=bus_id, status=1,
                                g_gnd=5.0, name=f"dc_sub{bus_id}"))
        nid += 1
        other = 1 if bus_id != 1 else 2
        ac = AcBranch(index=br_id, f_bus=bus_id, t_bus=other, b=60.0,
                      rating=total_load * 2 + 1.0, switchable=False)
        branches.append(ac)
        gmd_branches.append(GmdBranch(index=br_id, f_bus=node_of[bus_id],
                                      t_bus=neutral, parent=br_id, status=1,
                                      br_r=0.1, name=f"wind{br_id}"))
        branch_gmd.append(BranchGmdData(
            branch=br_id, hi_bus=bus_id, lo_bus=other, gmd_br_hi=br_id,
            gmd_br_lo=ABSENT, gmd_k=1.793, gmd_br_se=ABSENT, gmd_br_co=ABSENT,
            baseMVA=100.0, dispatch=1, type="xfmr", config="gwye-delta",
            gic_bound=float(rng.uniform(15.0, 120.0))))
        thermal.append(ThermalData(branch=br_id, **THERMAL_DEFAULTS))
        br_id += 1

    for f, t in edges:
        branches.append(AcBranch(index=br_id, f_bus=f, t_bus=t,
                                 b=float(rng.uniform(20, 60)),
                                 rating=float(rng.uniform(0.8, 2.5)) * max(total_load, 1.0),
                                 switchable=True))
        gmd_branches.append(GmdBranch(index=br_id, f_bus=node_of[f],
                                      t_bus=node_of[t], parent=br_id, status=1,
                                      br_r=float(rng.uniform(0.5, 4.0)),
                                      name=f"line{br_id}"))
        branch_gmd.append(BranchGmdData(branch=br_id, hi_bus=f, lo_bus=t,
                                        gmd_br_hi=ABSENT, gmd_br_lo=ABSENT,
                                        gmd_k=ABSENT, gmd_br_se=ABSENT,
                                        gmd_br_co=ABSENT, baseMVA=ABSENT,
                                        dispatch=1, type="line", config="none"))
        br_id += 1

    bus_gmd = tuple(BusGmdData(bus=i + 1, lat=coords[i][0], lon=coords[i][1])
                    for i in range(n))
    case = CaseData(base_mva=100.0, buses=tuple(buses), generators=gens,
                    ac_branches=tuple(branches), gmd_buses=tuple(gmd_buses),
                    gmd_branches=tuple(gmd_branches),
                    branch_gmd=tuple(branch_gmd), thermal=tuple(thermal),
                    bus_gmd=bus_gmd)
    validate_case(case)

    periods = int(rng.integers(2, 13))
    dt = 5.0
    peak = float(rng.uniform(4.0, 14.0))
    samples = []
    for k in range(periods + 1):
        frac = min(k, periods - k) / max(periods / 2.0, 1.0)
        samples.append(FieldSample(t=k * dt, e_mag=peak * frac, e_dir=90.0))
    scenario = FieldScenario(samples=tuple(samples))
    return case, scenario
