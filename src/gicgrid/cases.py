"""Built-in benchmark cases.

``b4gic``: the four-bus demonstration network (two gwye-delta GSUs joined
by a single 765 kV line) with the conventional GMD table values.

``epri21``: the 21-bus GIC benchmark system (two voltage levels, parallel
transmission corridors, conventional and auto-transformers, a series
capacitor and a neutral blocking device), reduced to an 11-bus energized
core by nominal outages, with synthesized operating data (loads, costs,
ratings, susceptances).  DC resistances are entered as per-phase-parallel
equivalents (R_phase/3) and substation grounding as 1/Rg, so solved dc
currents are three-phase totals; induced line voltages are geographic
projections of the field and are unaffected by that lumping.
"""

from __future__ import annotations

import math

from .data import (ABSENT, AcBranch, BranchGmdData, Bus, BusGmdData, CaseData,
                   Generator, GmdBranch, GmdBus, ThermalData, validate_case)
from .dcnet import displacement

__all__ = ["b4gic", "epri21"]

def b4gic() -> CaseData:
    """Four-bus case: gen-GSU-line-GSU-gen with a 170.788 km east-west line."""
    thermal_defaults = dict(xfmr=1, temp_amb=25.0, hs_inst_lim=280.0,
                            hs_avg_lim=240.0, hs_rated=150.0, to_time_c=71.0,
                            to_rated=75.0, to_init=0.0, to_inited=1,
                            hs_coeff=0.63)
    case = CaseData(
        base_mva=100.0,
        buses=(
            Bus(index=1, base_kv=765.0, bus_type="PQ", pd=5.0, qd=1.0),
            Bus(index=2, base_kv=765.0, bus_type="PQ", pd=5.0, qd=1.0),
            Bus(index=3, base_kv=22.0, bus_type="slack"),
            Bus(index=4, base_kv=22.0, bus_type="PV"),
        ),
        generators=(
            Generator(index=1, bus=3, pmin=0.0, pmax=12.0, qmin=-8.0, qmax=8.0,
                      cost0=0.0, cost1=10.0, cost2=0.05, pg=5.0, vg=1.0),
            Generator(index=2, bus=4, pmin=0.0, pmax=12.0, qmin=-8.0, qmax=8.0,
                      cost0=0.0, cost1=12.0, cost2=0.05, pg=5.0, vg=1.0),
        ),
        ac_branches=(
            AcBranch(index=1, f_bus=1, t_bus=3, b=100.0, rating=12.0),
            AcBranch(index=2, f_bus=1, t_bus=2, b=100.0, rating=12.0,
                     switchable=True),
            AcBranch(index=3, f_bus=2, t_bus=4, b=100.0, rating=12.0),
        ),
        gmd_buses=(
            GmdBus(index=1, parent=1, status=1, g_gnd=5.0, name="dc_sub1"),
            GmdBus(index=2, parent=2, status=1, g_gnd=5.0, name="dc_sub2"),
            GmdBus(index=3, parent=1, status=1, g_gnd=0.0, name="dc_bus1"),
            GmdBus(index=4, parent=2, status=1, g_gnd=0.0, name="dc_bus2"),
            GmdBus(index=5, parent=3, status=1, g_gnd=0.0, name="dc_bus3"),
            GmdBus(index=6, parent=4, status=1, g_gnd=0.0, name="dc_bus4"),
        ),
        gmd_branches=(
            GmdBranch(index=1, f_bus=3, t_bus=1, parent=1, status=1, br_r=0.1,
                      br_v=0.0, len_km=0.0, name="dc_xf1_hi"),
            GmdBranch(index=2, f_bus=3, t_bus=4, parent=2, status=1, br_r=1.001,
                      br_v=170.788, len_km=170.788, name="dc_br1"),
            GmdBranch(index=3, f_bus=4, t_bus=2, parent=3, status=1, br_r=0.1,
                      br_v=0.0, len_km=0.0, name="dc_xf2_hi"),
        ),
        branch_gmd=(
            BranchGmdData(branch=1, hi_bus=1, lo_bus=3, gmd_br_hi=1,
                          gmd_br_lo=ABSENT, gmd_k=1.793, gmd_br_se=ABSENT,
                          gmd_br_co=ABSENT, baseMVA=100.0, dispatch=1,
                          type="xfmr", config="gwye-delta"),
            BranchGmdData(branch=2, hi_bus=1, lo_bus=2, gmd_br_hi=ABSENT,
                          gmd_br_lo=ABSENT, gmd_k=float(ABSENT), gmd_br_se=ABSENT,
                          gmd_br_co=ABSENT, baseMVA=float(ABSENT), dispatch=1,
                          type="line", config="none"),
            BranchGmdData(branch=3, hi_bus=2, lo_bus=4, gmd_br_hi=3,
                          gmd_br_lo=ABSENT, gmd_k=1.793, gmd_br_se=ABSENT,
                          gmd_br_co=ABSENT, baseMVA=100.0, dispatch=1,
                          type="xfmr", config="gwye-delta"),
        ),
        thermal=(
            ThermalData(branch=1, **thermal_defaults),
            ThermalData(branch=3, **thermal_defaults),
        ),
        bus_gmd=(
            BusGmdData(bus=1, lat=40.0, lon=-89.0),
            BusGmdData(bus=2, lat=40.0, lon=-87.0),
            BusGmdData(bus=3, lat=40.0, lon=-89.0),
            BusGmdData(bus=4, lat=40.0, lon=-87.0),
        ),
    )
    validate_case(case)
    return case


# substation coordinates of the 21-bus benchmark
_SUBS = {
    1: (33.6135, -87.3737),
    2: (34.3104, -86.3658),
    3: (33.9551, -84.6794),
    4: (33.5479, -86.0746),
    5: (32.7051, -84.6634),
    6: (33.3773, -82.6188),
    7: (34.2522, -82.8363),
    8: (34.1956, -81.0980),
}

_BUS_SUB = {1: 1, 2: 1, 3: 4, 4: 4, 5: 5, 20: 5, 6: 6, 7: 6, 8: 6,
            11: 7, 21: 7, 12: 8, 13: 8, 14: 8, 15: 3, 16: 3, 17: 2,
            18: 2, 19: 2}

_BASE_KV = {1: 18.0, 2: 345.0, 3: 345.0, 4: 500.0, 5: 500.0, 6: 500.0,
            7: 18.0, 8: 18.0, 11: 500.0, 12: 500.0, 13: 18.0, 14: 18.0,
            15: 500.0, 16: 345.0, 17: 345.0, 18: 18.0, 19: 18.0,
            20: 345.0, 21: 500.0}

# ac branches: (id, f, t, kind, z_nom, b, rating, switchable)
_BRANCHES = (
    (1, 1, 2, "xf", 1, 80.0, 9.0, False),
    (2, 2, 3, "line", 1, 100.0, 9.0, True),
    (3, 3, 4, "xf", 1, 95.0, 2.5, False),
    (4, 3, 4, "xf", 1, 95.0, 2.5, False),
    (5, 3, 4, "xf", 1, 105.0, 2.5, False),
    (6, 3, 4, "xf", 1, 105.0, 2.5, False),
    (7, 4, 5, "line", 1, 150.0, 7.0, True),
    (8, 4, 5, "line", 1, 150.0, 7.0, True),
    (9, 4, 6, "line", 1, 80.0, 7.0, True),
    (10, 5, 6, "line", 1, 150.0, 19.5, True),
    (11, 5, 20, "xf", 0, 70.0, 6.0, False),
    (12, 5, 20, "xf", 0, 70.0, 6.0, False),
    (13, 5, 21, "series_cap", 0, 60.0, 6.0, False),
    (14, 6, 7, "xf", 1, 70.0, 9.0, False),
    (15, 6, 8, "xf", 1, 70.0, 9.0, False),
    (16, 6, 11, "line", 1, 150.0, 6.0, True),
    (17, 11, 12, "line", 1, 150.0, 6.0, True),
    (18, 12, 13, "xf", 1, 70.0, 10.0, False),
    (19, 12, 14, "xf", 0, 70.0, 10.0, False),
    (20, 15, 4, "line", 0, 80.0, 6.0, False),
    (21, 15, 6, "line", 0, 80.0, 6.0, False),
    (22, 15, 6, "line", 0, 80.0, 6.0, False),
    (23, 16, 15, "xf", 0, 70.0, 6.0, False),
    (24, 16, 15, "xf", 0, 70.0, 6.0, False),
    (25, 16, 17, "line", 0, 80.0, 6.0, False),
    (26, 16, 20, "line", 0, 80.0, 6.0, False),
    (27, 17, 2, "line", 0, 80.0, 6.0, False),
    (28, 17, 18, "xf", 0, 70.0, 9.0, False),
    (29, 17, 19, "xf", 0, 70.0, 9.0, False),
    (30, 17, 20, "line", 0, 80.0, 6.0, False),
    (31, 21, 11, "line", 0, 80.0, 6.0, False),
)

# neutral nodes: (gmd_bus id, representative ac bus, grounding [S])
# substation 1 carries a neutral blocking device: no ground path
_NEUTRALS = (
    (1, 2, 0.0), (2, 17, 5.0), (3, 15, 5.0), (4, 4, 1.0),
    (5, 5, 10.0), (6, 6, 10.0), (7, 11, 10.0), (8, 12, 10.0),
)

# dc nodes for transmission-level ac buses
_DC_NODE = {2: 9, 3: 10, 4: 11, 5: 12, 6: 13, 11: 14, 12: 15,
            15: 16, 16: 17, 17: 18, 20: 19, 21: 20}

_NEUTRAL_OF_SUB = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8}

# windings: (gmd_branch id, f node, t node, parent branch, R_phase [ohm])
_WINDINGS = (
    (1, 9, 1, 1, 0.1),        # GSU at substation 1 (blocked neutral)
    (2, 11, 4, 3, 0.2),       # gwye-gwye high side
    (3, 10, 4, 3, 0.1),       # gwye-gwye low side
    (4, 11, 4, 4, 0.2),
    (5, 10, 4, 4, 0.1),
    (6, 11, 10, 5, 0.06),     # auto series
    (7, 10, 4, 5, 0.04),      # auto common
    (8, 11, 10, 6, 0.06),
    (9, 10, 4, 6, 0.04),
    (10, 13, 6, 14, 0.15),    # 500 kV GSUs at substation 6
    (11, 13, 6, 15, 0.15),
    (12, 15, 8, 18, 0.1),     # GSU at substation 8
    (13, 12, 5, 11, 0.04),    # out-of-service gwye-gwye pair at substation 5
    (14, 19, 5, 11, 0.06),
    (15, 12, 5, 12, 0.04),
    (16, 19, 5, 12, 0.06),
    (17, 15, 8, 19, 0.1),
    (18, 17, 16, 23, 0.06),   # out-of-service autos at substation 3
    (19, 17, 3, 23, 0.04),
    (20, 17, 16, 24, 0.06),
    (21, 17, 3, 24, 0.04),
    (22, 18, 2, 28, 0.1),     # out-of-service GSUs at substation 2
    (23, 18, 2, 29, 0.1),
)

# lines: (gmd_branch id, f node, t node, parent branch, R_phase [ohm])
_DC_LINES = (
    (24, 9, 10, 2, 3.512),
    (25, 11, 12, 7, 2.345),
    (26, 11, 12, 8, 2.345),
    (27, 11, 13, 9, 4.666),
    (28, 12, 13, 10, 2.975),
    (29, 13, 14, 16, 1.444),
    (30, 14, 15, 17, 2.324),
    (31, 16, 11, 20, 1.986),
    (32, 16, 13, 21, 2.924),
    (33, 16, 13, 22, 2.924),
    (34, 17, 18, 25, 4.665),
    (35, 17, 19, 26, 4.049),
    (36, 18, 9, 27, 3.525),
    (37, 18, 19, 30, 6.940),
    (38, 20, 14, 31, 3.509),
)

# transformers: branch id -> (config, winding gmd_branch ids, gic bound)
_XFMR_CFG = {
    1: ("gwye-delta", {"hi": 1}, None),
    3: ("gwye-gwye", {"hi": 2, "lo": 3}, None),
    4: ("gwye-gwye", {"hi": 4, "lo": 5}, None),
    5: ("gwye-gwye-auto", {"se": 6, "co": 7}, None),
    6: ("gwye-gwye-auto", {"se": 8, "co": 9}, None),
    11: ("gwye-gwye", {"hi": 13, "lo": 14}, None),
    12: ("gwye-gwye", {"hi": 15, "lo": 16}, None),
    14: ("gwye-delta", {"hi": 10}, 25.0),
    15: ("gwye-delta", {"hi": 11}, 25.0),
    18: ("gwye-delta", {"hi": 12}, None),
    19: ("gwye-delta", {"hi": 17}, None),
    23: ("gwye-gwye-auto", {"se": 18, "co": 19}, None),
    24: ("gwye-gwye-auto", {"se": 20, "co": 21}, None),
    28: ("gwye-delta", {"hi": 22}, None),
    29: ("gwye-delta", {"hi": 23}, None),
}

_LOADS = {4: (15.0, 3.0), 5: (12.0, 2.4), 6: (3.0, 0.6)}

# (gen id, bus, pmax, cost1)
_GENS = ((1, 1, 8.3, 10.0), (2, 7, 8.3, 10.5), (3, 8, 8.3, 11.0),
         (4, 13, 6.0, 30.0))


def epri21() -> CaseData:
    """21-bus GIC benchmark with nominal outages and synthesized dispatch data."""
    buses = []
    for bid in sorted(_BASE_KV):
        pd, qd = _LOADS.get(bid, (0.0, 0.0))
        bus_type = "slack" if bid == 1 else ("PV" if bid in (7, 8, 13) else "PQ")
        buses.append(Bus(index=bid, base_kv=_BASE_KV[bid], bus_type=bus_type,
                         pd=pd, qd=qd))

    gens = tuple(
        Generator(index=gid, bus=bid, pmin=0.0, pmax=pmax, qmin=-5.0, qmax=5.0,
                  cost0=0.0, cost1=c1, cost2=0.1,
                  pg=min(pmax, 8.3) if bid != 13 else 5.1, vg=1.0)
        for gid, bid, pmax, c1 in _GENS)

    branches = tuple(
        AcBranch(index=i, f_bus=f, t_bus=t, b=b, rating=rating,
                 angle_max=0.6, angle_big_m=math.pi, switchable=sw, status=z)
        for i, f, t, _, z, b, rating, sw in _BRANCHES)

    gmd_buses = [GmdBus(index=i, parent=bus, status=1, g_gnd=g,
                        name=f"dc_sub{k+1}_neutral")
                 for k, (i, bus, g) in enumerate(_NEUTRALS)]
    for bus, node in sorted(_DC_NODE.items(), key=lambda kv: kv[1]):
        gmd_buses.append(GmdBus(index=node, parent=bus, status=1, g_gnd=0.0,
                                name=f"dc_bus{bus}"))

    coords = {bid: _SUBS[_BUS_SUB[bid]] for bid in _BASE_KV}
    bus_gmd = tuple(BusGmdData(bus=bid, lat=lat, lon=lon)
                    for bid, (lat, lon) in sorted(coords.items()))

    branch_ends = {i: (f, t) for i, f, t, *_ in _BRANCHES}

    gmd_branches = []
    for i, f, t, parent, r_phase in _WINDINGS:
        gmd_branches.append(GmdBranch(index=i, f_bus=f, t_bus=t, parent=parent,
                                      status=1, br_r=r_phase / 3.0, br_v=0.0,
                                      len_km=0.0, name=f"dc_wind_{i}"))
    for i, f, t, parent, r_phase in _DC_LINES:
        fb, tb = branch_ends[parent]
        l_n, l_e = displacement(coords[fb], coords[tb])
        gmd_branches.append(GmdBranch(index=i, f_bus=f, t_bus=t, parent=parent,
                                      status=1, br_r=r_phase / 3.0,
                                      br_v=l_e,  # 1 V/km eastward reference
                                      len_km=math.hypot(l_n, l_e),
                                      name=f"dc_line_{parent}"))
    # series capacitor: carried in the tables, never enters the dc solve set
    gmd_branches.append(GmdBranch(index=39, f_bus=12, t_bus=20, parent=13,
                                  status=1, br_r=1e-3, br_v=0.0, len_km=0.0,
                                  name="dc_series_cap"))

    branch_gmd = []
    for i, f, t, kind, *_ in _BRANCHES:
        hi, lo = (f, t) if _BASE_KV[f] >= _BASE_KV[t] else (t, f)
        if kind == "xfmr" or kind == "xf":
            cfg, winds, bound = _XFMR_CFG[i]
            branch_gmd.append(BranchGmdData(
                branch=i, hi_bus=hi, lo_bus=lo,
                gmd_br_hi=winds.get("hi", ABSENT), gmd_br_lo=winds.get("lo", ABSENT),
                gmd_k=1.793, gmd_br_se=winds.get("se", ABSENT),
                gmd_br_co=winds.get("co", ABSENT), baseMVA=100.0, dispatch=1,
                type="xfmr", config=cfg, gic_bound=bound))
        else:
            branch_gmd.append(BranchGmdData(
                branch=i, hi_bus=hi, lo_bus=lo, gmd_br_hi=ABSENT,
                gmd_br_lo=ABSENT, gmd_k=float(ABSENT), gmd_br_se=ABSENT,
                gmd_br_co=ABSENT, baseMVA=float(ABSENT), dispatch=1,
                type="series_cap" if kind == "series_cap" else "line",
                config="none"))

    thermal = tuple(
        ThermalData(branch=i, xfmr=1, temp_amb=25.0, hs_inst_lim=280.0,
                    hs_avg_lim=240.0, hs_rated=150.0, to_time_c=71.0,
                    to_rated=75.0, to_init=0.0, to_inited=0, hs_coeff=0.63)
        for i in sorted(_XFMR_CFG))

    case = CaseData(base_mva=100.0, buses=tuple(buses), generators=gens,
                    ac_branches=branches, gmd_buses=tuple(gmd_buses),
                    gmd_branches=tuple(gmd_branches),
                    branch_gmd=tuple(branch_gmd), thermal=thermal,
                    bus_gmd=bus_gmd)
    validate_case(case)
    return case
