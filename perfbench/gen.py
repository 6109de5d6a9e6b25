"""Seeded input generators for the benchmark.

Everything here builds plain case JSON documents and scenario CSV text; it does
not import the package under test, so the program only ever sees the
generated files.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_KM = 6371.0

THERMAL_ROW = dict(xfmr=1, temp_amb=25.0, hs_inst_lim=280.0, hs_avg_lim=240.0,
                   hs_rated=150.0, to_time_c=71.0, to_rated=75.0, to_init=0.0,
                   to_inited=0, hs_coeff=0.63)


def _km(a, b):
    """Equirectangular great-circle distance [km] between (lat, lon) points."""
    dn = math.radians(b[0] - a[0])
    de = math.radians(b[1] - a[1]) * math.cos(math.radians((a[0] + b[0]) / 2.0))
    return EARTH_RADIUS_KM * math.hypot(dn, de)


def synthetic_grid(n_buses: int, n_gsu: int, seed: int) -> dict:
    """A 345 kV transmission grid as a case document.

    Buses are scattered over a 6 x 8 degree box.  Each bus joins its nearest
    earlier bus (a geographic tree), and n_buses // 5 chords join buses to
    one of their four nearest neighbours.  ``n_gsu`` buses carry a generator
    (PV) and a grounded gwye-delta step-up transformer with a thermal row;
    the transformer's low side is the bus's tree neighbour, so the ac model
    keeps ``n_buses`` buses while the dc model has ``n_buses + n_gsu``
    nodes.  Loads are light so Newton-Raphson converges from a flat start.
    """
    rng = np.random.default_rng(seed)
    lat = rng.uniform(34.0, 40.0, n_buses)
    lon = rng.uniform(-96.0, -88.0, n_buses)
    coords = list(zip(lat.tolist(), lon.tolist()))
    xy = np.column_stack([np.radians(lat), np.radians(lon) * math.cos(math.radians(37.0))])

    edges = []
    tree_nbr = {}
    for i in range(1, n_buses):
        j = int(np.argmin(np.sum((xy[:i] - xy[i]) ** 2, axis=1)))
        edges.append((i, j))
        tree_nbr.setdefault(i, j)
        tree_nbr.setdefault(j, i)
    adjacent = {frozenset(e) for e in edges}
    chords = 0
    while chords < n_buses // 5:
        u = int(rng.integers(n_buses))
        near = np.argsort(np.sum((xy - xy[u]) ** 2, axis=1))[1:5]
        v = int(near[rng.integers(len(near))])
        if frozenset((u, v)) in adjacent:
            continue
        adjacent.add(frozenset((u, v)))
        edges.append((u, v))
        chords += 1

    gsu = sorted(int(b) for b in rng.choice(np.arange(1, n_buses), n_gsu, replace=False))
    gsu_set = set(gsu)
    buses, gens = [], []
    for i in range(n_buses):
        kind = "slack" if i == 0 else ("PV" if i in gsu_set else "PQ")
        pd = 0.0 if i == 0 else float(rng.uniform(0.01, 0.05))
        buses.append(dict(index=i + 1, base_kv=345.0, bus_type=kind, pd=pd,
                          qd=0.3 * pd, g_shunt=0.0, vmin=0.9, vmax=1.1))
    total_load = sum(b["pd"] for b in buses)
    gens.append(dict(index=1, bus=1, pmin=0.0, pmax=10.0 * total_load, qmin=-1e3,
                     qmax=1e3, cost_0=0.0, cost_1=10.0, cost_2=0.0, pg=0.0, vg=1.0))
    for k, i in enumerate(gsu):
        gens.append(dict(index=k + 2, bus=i + 1, pmin=0.0, pmax=1.0, qmin=-1e3,
                         qmax=1e3, cost_0=0.0, cost_1=20.0, cost_2=0.0,
                         pg=float(rng.uniform(0.02, 0.08)), vg=1.0))

    gmd_bus = [dict(index=i + 1, parent=i + 1, status=1, g_gnd=0.0, name=f"dc_bus{i + 1}")
               for i in range(n_buses)]
    branch, gmd_branch, branch_gmd, thermal = [], [], [], []
    for f, t in edges:
        idx = len(branch) + 1
        length = _km(coords[f], coords[t]) * float(rng.uniform(1.0, 1.2))
        branch.append(dict(index=idx, f_bus=f + 1, t_bus=t + 1,
                           b=1.0 / max(0.0003 * length, 0.002), rating=10.0,
                           angle_max=0.6, angle_big_m=math.pi, switchable=False,
                           status=1))
        gmd_branch.append(dict(index=idx, f_bus=f + 1, t_bus=t + 1, parent=idx,
                               status=1, br_r=max(0.01 * length, 0.05), br_v=0.0,
                               len_km=length, name=f"line{idx}"))
        branch_gmd.append(dict(branch=idx, hi_bus=f + 1, lo_bus=t + 1, gmd_br_hi=-1,
                               gmd_br_lo=-1, gmd_k=-1, gmd_br_se=-1, gmd_br_co=-1,
                               baseMVA=-1, dispatch=1, type="line", config="none"))
    for i in gsu:
        idx = len(branch) + 1
        neutral = len(gmd_bus) + 1
        low = tree_nbr[i]
        gmd_bus.append(dict(index=neutral, parent=i + 1, status=1,
                            g_gnd=float(rng.uniform(2.0, 10.0)), name=f"dc_sub{i + 1}"))
        branch.append(dict(index=idx, f_bus=i + 1, t_bus=low + 1, b=50.0, rating=10.0,
                           angle_max=0.6, angle_big_m=math.pi, switchable=False,
                           status=1))
        gmd_branch.append(dict(index=idx, f_bus=i + 1, t_bus=neutral, parent=idx,
                               status=1, br_r=float(rng.uniform(0.05, 0.3)), br_v=0.0,
                               len_km=0.0, name=f"gsu{idx}"))
        branch_gmd.append(dict(branch=idx, hi_bus=i + 1, lo_bus=low + 1, gmd_br_hi=idx,
                               gmd_br_lo=-1, gmd_k=1.793, gmd_br_se=-1, gmd_br_co=-1,
                               baseMVA=100.0, dispatch=1, type="xfmr",
                               config="gwye-delta"))
        thermal.append(dict(branch=idx, **THERMAL_ROW))

    bus_gmd = [dict(bus=i + 1, lat=c[0], lon=c[1]) for i, c in enumerate(coords)]
    return dict(base_mva=100.0, bus=buses, gen=gens, branch=branch, gmd_bus=gmd_bus,
                gmd_branch=gmd_branch, branch_gmd=branch_gmd, branch_thermal=thermal,
                bus_gmd=bus_gmd)


def storm_samples(seed: int, minutes: int = 1440) -> list[tuple[float, float, float]]:
    """A day-long storm sampled every minute: (t_min, e_mag_vkm, e_dir_deg).

    Quiet field until a sudden commencement in the first six hours, then a
    main phase that peaks at 2-4 V/km and decays over several hours.  The
    magnitude carries multiplicative AR(1) fluctuation and the direction
    turns one to three times a day with its own wander.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(minutes + 1, dtype=float)
    onset = rng.uniform(120.0, 360.0)
    peak = rng.uniform(2.0, 4.0)
    rise = rng.uniform(30.0, 90.0)
    decay = rng.uniform(180.0, 420.0)
    after = t - onset
    envelope = np.where(after < 0.0, 0.0,
                        np.where(after < rise, after / rise, np.exp(-(after - rise) / decay)))
    noise = np.empty_like(t)
    noise[0] = 0.0
    shocks = rng.normal(0.0, 0.15, len(t))
    for k in range(1, len(t)):
        noise[k] = 0.9 * noise[k - 1] + shocks[k]
    mag = (0.05 + peak * envelope) * np.exp(noise)
    turns = rng.uniform(1.0, 3.0)
    wander = np.cumsum(rng.normal(0.0, 2.0, len(t)))
    direction = (rng.uniform(0.0, 360.0) + 360.0 * turns * t / minutes + wander) % 360.0
    return [(float(a), round(float(b), 6), round(float(c), 4))
            for a, b, c in zip(t, mag, direction)]


def sweep_samples(seed: int, points: int = 31) -> list[tuple[float, float, float]]:
    """A rotating field sampled every minute: one full turn over the sweep."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.0, 360.0)
    peak = rng.uniform(1.0, 3.0)
    out = []
    for k in range(points):
        mag = peak * (0.6 + 0.4 * math.sin(math.pi * k / (points - 1)))
        out.append((float(k), round(mag, 6), round((start + 360.0 * k / (points - 1)) % 360.0, 4)))
    return out


def scenario_csv(samples) -> str:
    lines = ["t_min,e_mag_vkm,e_dir_deg"]
    lines += [f"{t:g},{m!r},{d!r}" for t, m, d in samples]
    return "\n".join(lines) + "\n"
