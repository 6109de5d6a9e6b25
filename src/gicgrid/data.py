"""Domain model, case-file parsing/serialization and cross-table validation.

A case document is a single JSON object with top-level arrays named
``bus, gen, branch, gmd_bus, gmd_branch, branch_gmd, branch_thermal,
bus_gmd`` plus a scalar ``base_mva``.  The dc-side tables mirror the
conventional GMD extension tables of matpower-style cases: a separate
quasi-dc network (gmd_bus/gmd_branch), per-transformer winding
configuration data (branch_gmd), transformer thermal data
(branch_thermal) and bus coordinates (bus_gmd).

Absent integer references are encoded as -1 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property, lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "CaseError",
    "CaseStructureError",
    "CaseReferenceError",
    "CaseInvariantError",
    "Bus",
    "Generator",
    "AcBranch",
    "GmdBus",
    "GmdBranch",
    "BranchGmdData",
    "ThermalData",
    "BusGmdData",
    "FieldSample",
    "FieldVector",
    "FieldScenario",
    "Periods",
    "CaseData",
    "ABSENT",
    "component_labels",
    "slack_rule",
    "topology_status",
    "XFMR_CONFIGS",
    "parse_case",
    "parse_case_file",
    "quadratic_cost",
    "dispatch_cost",
    "serialize_case",
    "estimate_missing_gsu",
    "make_ramp_scenario",
    "load_scenario",
    "load_scenario_file",
]

ABSENT = -1

BUS_TYPES = ("PQ", "PV", "slack")
BRANCH_GMD_TYPES = ("xfmr", "line", "series_cap")
XFMR_CONFIGS = ("gwye-gwye", "gwye-delta", "delta-delta", "gwye-gwye-auto")


class CaseError(ValueError):
    """Base class for case-document problems."""


class CaseStructureError(CaseError):
    """Missing table, missing field, or malformed value."""


class CaseReferenceError(CaseError):
    """An id reference does not resolve."""


class CaseInvariantError(CaseError):
    """A row violates a domain invariant."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------
# The row dataclasses are the case schema.  Each field is one file key (its
# name, except the generator costs, see _KEYS), read as the kind of its
# annotation; its default is the file default, and a field without one is
# required.  Keys are written in declaration order.


def _kw(default):
    """Default of a field declared ahead of a required one (keyword-only)."""
    return field(default=default, kw_only=True)


@dataclass(frozen=True)
class Bus:
    index: int
    base_kv: float
    bus_type: str = "PQ"
    pd: float = 0.0           # active load [p.u.]
    qd: float = 0.0           # reactive load [p.u.]
    g_shunt: float = 0.0      # shunt conductance [p.u.]
    vmin: float = 0.9
    vmax: float = 1.1


@dataclass(frozen=True)
class Generator:
    index: int
    bus: int
    pmin: float
    pmax: float
    qmin: float = -1e3
    qmax: float = 1e3
    cost0: float = 0.0        # fixed cost
    cost1: float = 0.0        # linear cost [per p.u.]
    cost2: float = 0.0        # quadratic cost [per p.u.^2], must be >= 0
    pg: float = 0.0           # dispatch setpoint used by fixed-dispatch power flow
    vg: float = 1.0           # voltage setpoint for PV/slack buses

    def cost(self, p: float) -> float:
        """Quadratic dispatch cost at output p [p.u.]."""
        return quadratic_cost(self.cost0, self.cost1, self.cost2, p)


def quadratic_cost(cost0, cost1, cost2, p):
    """cost0 + cost1 p + cost2 p^2: the dispatch cost at output p [p.u.], on
    numbers or on arrays that broadcast."""
    return cost0 + cost1 * p + cost2 * p * p


def dispatch_cost(cost0, cost1, cost2, gen_p) -> float:
    """Total ``quadratic_cost`` of the (generator x period) dispatch ``gen_p``,
    each coefficient an array over the generators, added in sequence:
    generator by generator, each over its periods in turn."""
    cost = quadratic_cost(cost0[:, None], cost1[:, None], cost2[:, None], gen_p)
    return float(np.cumsum(np.r_[0.0, cost.ravel()])[-1])


@dataclass(frozen=True)
class AcBranch:
    index: int
    f_bus: int
    t_bus: int
    b: float                  # series susceptance, p = b * (theta_f - theta_t)
    rating: float             # thermal limit [p.u.]
    angle_max: float = 0.6    # closed-state angle-difference limit [rad]
    angle_big_m: float = math.pi  # open-state angle-difference bound [rad]
    switchable: bool = False
    status: int = 1           # nominal in-service status


@dataclass(frozen=True)
class GmdBus:
    index: int
    parent: int               # ac bus id
    status: int = _kw(1)
    g_gnd: float              # admittance to ground [S]; 0 for non-substation nodes
    name: str = ""


@dataclass(frozen=True)
class GmdBranch:
    index: int
    f_bus: int                # gmd_bus id
    t_bus: int                # gmd_bus id
    parent: int               # ac branch id, or -1 for synthetic GSU windings
    status: int = _kw(1)
    br_r: float               # branch resistance [ohm]
    br_v: float = 0.0         # induced quasi-dc voltage [V]
    len_km: float = 0.0
    name: str = ""

    @property
    def a(self) -> float:
        """DC admittance 1/br_r [S]."""
        return 1.0 / self.br_r


@dataclass(frozen=True)
class BranchGmdData:
    branch: int               # ac branch id, -1 for synthetic GSU rows
    hi_bus: int
    lo_bus: int
    gmd_br_hi: int = _kw(ABSENT)
    gmd_br_lo: int = _kw(ABSENT)
    gmd_k: float = _kw(float(ABSENT))  # reactive-loss scaling factor [p.u.]
    gmd_br_se: int = _kw(ABSENT)
    gmd_br_co: int = _kw(ABSENT)
    baseMVA: float = _kw(float(ABSENT))
    dispatch: int = _kw(1)    # stored, unused
    type: str                 # xfmr | line | series_cap
    config: str = "none"      # winding configuration or "none"
    turns_ratio: float | None = None   # derived from hi/lo base_kv when omitted
    gic_bound: float | None = None     # max allowed effective GIC [A]
    hotspot_limit: float | None = None  # hot-spot cap [degC], defaults to hs_inst_lim

    @property
    def is_xfmr(self) -> bool:
        return self.type == "xfmr"


@dataclass(frozen=True)
class ThermalData:
    branch: int               # ac branch id
    xfmr: int                 # rows with 0 or -1 are not transformers and are skipped
    temp_amb: float           # [degC]
    hs_inst_lim: float        # instantaneous hot-spot limit [degC]
    hs_avg_lim: float = _kw(float(ABSENT))  # 8-hour average limit [degC] (reported only)
    hs_rated: float = _kw(float(ABSENT))    # hot-spot rise at rated power [degC] (stored, unused)
    to_time_c: float          # top-oil time constant [min]
    to_rated: float           # top-oil rise at rated power [degC]
    to_init: float = _kw(0.0)  # initial top-oil rise [degC] when to_inited=1
    to_inited: int = _kw(0)   # 1: use to_init; 0: steady-state initialization
    hs_coeff: float           # hot-spot rise per effective GIC ampere [degC/A]


@dataclass(frozen=True)
class BusGmdData:
    bus: int
    lat: float
    lon: float


@dataclass(frozen=True)
class FieldSample:
    t: float                  # minutes
    e_mag: float              # V/km
    e_dir: float              # geographic bearing, degrees clockwise from north


class FieldVector(NamedTuple):
    """Uniform geoelectric field as north/east components [V/km]."""

    e_north: float
    e_east: float

    @classmethod
    def from_mag_dir(cls, e_mag: float, e_dir_deg: float) -> "FieldVector":
        """Build from magnitude and geographic bearing (clockwise from north)."""
        phi = math.radians(90.0 - e_dir_deg)  # math convention, ccw from east
        return cls(e_mag * math.sin(phi), e_mag * math.cos(phi))


@dataclass(frozen=True)
class FieldScenario:
    """Time series of a spatially uniform geoelectric field.

    ``voltage_overrides`` maps gmd_branch id -> ((t, volts), ...); an
    override takes precedence over the uniform-field projection for that
    branch.  Between samples both field and overrides interpolate
    linearly; outside the sampled range the end values hold.  The step an
    analysis takes over it is the analysis's own (``Periods``).
    """

    samples: tuple[FieldSample, ...]
    voltage_overrides: Mapping[int, tuple[tuple[float, float], ...]] = field(
        default_factory=dict)

    def __post_init__(self):
        if not all(math.isfinite(v) for s in self.samples for v in (s.t, s.e_mag, s.e_dir)):
            raise ValueError("scenario sample times, magnitudes and directions must be finite")
        ts = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("scenario sample times must be strictly increasing")
        if any(s.e_mag < 0 for s in self.samples):
            raise ValueError("field magnitude must be non-negative")

    @property
    def t_start(self) -> float:
        return self.samples[0].t

    @property
    def t_end(self) -> float:
        return self.samples[-1].t

    def series(self, times: Sequence[float]) -> np.ndarray:
        """Interpolated field vectors, shape (len(times), 2): (e_north, e_east) in V/km.

        Interpolation is done on the north/east components so that
        direction changes blend physically.
        """
        ts = [s.t for s in self.samples]
        north, east = zip(*(FieldVector.from_mag_dir(s.e_mag, s.e_dir) for s in self.samples))
        return np.column_stack([np.interp(times, ts, north), np.interp(times, ts, east)])

    def overrides_series(self, times: Sequence[float]) -> dict[int, np.ndarray]:
        """Per-branch induced-voltage overrides [V] interpolated at each time."""
        return {b: np.interp(times, *zip(*series)) for b, series in self.voltage_overrides.items()}


@dataclass(frozen=True)
class Periods:
    """The time axis of an analysis: ``count`` periods of ``dt`` minutes from ``start``.

    ``edges`` are the period boundaries, ``start + k*dt`` (a scenario
    sweep's and a thermal simulation's samples); ``mid`` the period
    midpoints, ``(a + b) / 2`` of each pair of edges (the instants the
    switching model holds); ``samples`` the instants a re-simulation of the
    periods runs at, ``[mid[0] - dt, *mid]``.  Sample 0 is the initial
    state, one step before period 0, and it carries period 0's input, as
    the model's top-oil recursion does; sample k + 1 is period k.
    """

    start: float
    dt: float
    count: int

    @classmethod
    def over(cls, scenario: FieldScenario, dt: float) -> "Periods":
        """The periods of step ``dt`` [min] that tile the scenario's span;
        ValueError unless ``dt`` is positive, finite and divides the span."""
        if not 0.0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        span = scenario.t_end - scenario.t_start
        n = span / dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"dt={dt} does not divide scenario span {span}")
        return cls(scenario.t_start, dt, int(round(n)))

    @property
    def edges(self) -> np.ndarray:
        return self.start + np.arange(self.count + 1, dtype=float) * self.dt

    @property
    def mid(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def samples(self) -> np.ndarray:
        return np.concatenate([self.mid[:1] - self.dt, self.mid])


@dataclass(frozen=True)
class CaseData:
    """Immutable network description; safe to share across concurrent solves."""

    base_mva: float
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    ac_branches: tuple[AcBranch, ...]
    gmd_buses: tuple[GmdBus, ...]
    gmd_branches: tuple[GmdBranch, ...]
    branch_gmd: tuple[BranchGmdData, ...]
    thermal: tuple[ThermalData, ...]
    bus_gmd: tuple[BusGmdData, ...]

    # -- lookup helpers: id -> row maps built once per instance --

    def bus(self, index: int) -> Bus:
        return _by_index(self._rows["bus"], index, "bus")

    def ac_branch(self, index: int) -> AcBranch:
        return _by_index(self._rows["branch"], index, "branch")

    def gmd_bus(self, index: int) -> GmdBus:
        return _by_index(self._rows["gmd_bus"], index, "gmd_bus")

    def gmd_branch(self, index: int) -> GmdBranch:
        return _by_index(self._rows["gmd_branch"], index, "gmd_branch")

    def thermal_for(self, branch: int) -> ThermalData | None:
        return self._rows["thermal"].get(branch)

    def coords_for(self, bus: int) -> BusGmdData | None:
        return self._rows["bus_gmd"].get(bus)

    @cached_property
    def _rows(self) -> dict[str, dict[int, object]]:
        def by(rows, key):  # built in reverse, so the first of repeated ids wins
            return {getattr(r, key): r for r in reversed(rows)}

        return {"bus": by(self.buses, "index"),
                "branch": by(self.ac_branches, "index"),
                "gmd_bus": by(self.gmd_buses, "index"),
                "gmd_branch": by(self.gmd_branches, "index"),
                "thermal": by(self.thermal, "branch"),
                "bus_gmd": by(self.bus_gmd, "bus")}

    def compiled(self, build: Callable[["CaseData"], object]):
        """``build(self)``, made at the first call and kept for the life of this case.

        Each layer builds the arrays it reads from the rows this way, once
        per case (``dcnet.DcArrays``, ``coupling.AcArrays``); the case is
        immutable, so they cannot go stale.  Every caller shares them, so
        their numpy arrays are made read-only.
        """
        if build not in self._compiled:
            built = build(self)
            for value in vars(built).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            self._compiled[build] = built
        return self._compiled[build]

    @cached_property
    def _compiled(self) -> dict:
        return {}

    def xfmr_rows(self) -> list[tuple[int, BranchGmdData]]:
        """(row position, row) for every transformer row in branch_gmd."""
        return [(i, r) for i, r in enumerate(self.branch_gmd) if r.is_xfmr]

    def turns_ratio(self, row: BranchGmdData) -> float:
        """Winding turns ratio for the effective-GIC formulas.

        gwye-gwye (and gwye-delta) use hi/lo voltage ratio; autos use the
        series/common ratio hi/lo - 1.  An explicit turns_ratio field wins.
        """
        if row.turns_ratio is not None:
            return row.turns_ratio
        ratio = self.bus(row.hi_bus).base_kv / self.bus(row.lo_bus).base_kv
        return ratio - 1.0 if row.config == "gwye-gwye-auto" else ratio

    def ckt_numbers(self) -> dict[int, int]:
        """Circuit number per ac branch id among parallel branches (1-based)."""
        seen: dict[tuple[int, int], int] = {}
        out = {}
        for br in sorted(self.ac_branches, key=lambda b: b.index):
            key = (min(br.f_bus, br.t_bus), max(br.f_bus, br.t_bus))
            seen[key] = seen.get(key, 0) + 1
            out[br.index] = seen[key]
        return out


def _by_index(rows: Mapping[int, object], index: int, what: str):
    try:
        return rows[index]
    except KeyError:
        raise CaseReferenceError(f"{what} id {index} does not exist") from None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Row:
    """Typed field access to one case-table or CSV row; errors name the row and field."""

    def __init__(self, table: str, i: int | None, row):
        if not isinstance(row, dict):
            raise CaseStructureError(f"{table} row {i}: must be an object, got {row!r}")
        self.table, self.i, self.row = table, i, row

    def _error(self, problem: str) -> CaseStructureError:
        where = self.table if self.i is None else f"{self.table} row {self.i}"
        return CaseStructureError(f"{where}: {problem}")

    def raw(self, key: str, default=_REQUIRED):
        """Raw value; an absent or null optional field gives ``default``."""
        value = self.row.get(key)
        if value is None and default is not _REQUIRED:
            return default
        if key not in self.row:
            raise self._error(f"missing field '{key}'")
        return value

    def num(self, key: str, default=_REQUIRED, kind: type = float):
        """Field ``key`` as a finite float, or an int when ``kind`` is int.

        The one numeric gate of the input edge: null, text that is not a
        number, NaN, inf and (for ints) fractions raise CaseStructureError.
        """
        value = self.row.get(key)
        if type(value) is kind and value - value == 0:  # already a finite number of that kind
            return value
        value = self.raw(key, default)
        if value is default:
            return None if default is None else kind(default)
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            x = None
        if x is not None and x - x == 0 and (kind is float or x.is_integer()):
            return kind(x)
        if x is None:
            problem = "expected a finite number"
        elif x - x != 0:
            problem = "non-finite value, expected a finite number"
        else:
            problem = "expected an integer"
        raise self._error(f"field '{key}': {problem}, got {value!r}")

    def int(self, key: str, default=_REQUIRED) -> int:
        return self.num(key, default, int)


# case table -> (CaseData attribute, row class), in file order
_SCHEMA = {"bus": ("buses", Bus), "gen": ("generators", Generator),
           "branch": ("ac_branches", AcBranch), "gmd_bus": ("gmd_buses", GmdBus),
           "gmd_branch": ("gmd_branches", GmdBranch),
           "branch_gmd": ("branch_gmd", BranchGmdData),
           "branch_thermal": ("thermal", ThermalData), "bus_gmd": ("bus_gmd", BusGmdData)}
_KEYS = {"cost0": "cost_0", "cost1": "cost_1", "cost2": "cost_2"}  # field -> file key
_READ = {"int": _Row.int, "float": _Row.num, "float | None": _Row.num,
         "str": lambda r, key, default: str(r.raw(key, default)),
         "bool": lambda r, key, default: bool(r.raw(key, default))}


def _fields(cls) -> list[tuple[str, str, Callable, object]]:
    """(name, file key, reader, default) per field of a row class, in declaration order."""
    return [(f.name, _KEYS.get(f.name, f.name), _READ[f.type],
             _REQUIRED if f.default is MISSING else f.default) for f in fields(cls)]


@lru_cache(maxsize=1)
def parse_case(text: str) -> "CaseData":
    """Parse and validate a case document.

    Raises CaseStructureError / CaseReferenceError / CaseInvariantError,
    each naming the offending table and row.

    The last document parsed is remembered by its text: the same text again
    returns the same ``CaseData`` (immutable, so safe to share) without
    decoding or validating it again.  Errors are not remembered.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseStructureError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CaseStructureError("top level must be an object")
    for t in _SCHEMA:
        if t not in doc:
            raise CaseStructureError(f"missing table '{t}'")
        if not isinstance(doc[t], list):
            raise CaseStructureError(f"table '{t}' must be an array")
    if "base_mva" not in doc:
        raise CaseStructureError("missing 'base_mva'")

    tables = {}
    for table, (attr, cls) in _SCHEMA.items():
        rows, spec = [_Row(table, i, r) for i, r in enumerate(doc[table])], _fields(cls)
        if cls is ThermalData:  # non-transformer rows carry -1 sentinels; treated as absent
            rows = [r for r in rows if r.int("xfmr", 0) not in (0, ABSENT)]
        tables[attr] = tuple(cls(**{name: read(r, key, default)
                                    for name, key, read, default in spec}) for r in rows)
    case = CaseData(base_mva=_Row("case", None, doc).num("base_mva"), **tables)
    validate_case(case)
    return case


def parse_case_file(path) -> CaseData:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_case(fh.read())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_case(case: CaseData) -> None:
    if not 0.0 < case.base_mva < math.inf:
        raise CaseInvariantError(f"base_mva must be finite and > 0, got {case.base_mva!r}")
    bus_ids = {b.index for b in case.buses}
    if len(bus_ids) != len(case.buses):
        raise CaseInvariantError("bus: duplicate indices")
    for i, b in enumerate(case.buses):
        if b.base_kv <= 0:
            raise CaseInvariantError(f"bus row {i} (id {b.index}): base_kv must be > 0")
        if b.vmin > b.vmax:
            raise CaseInvariantError(f"bus row {i} (id {b.index}): vmin > vmax")
        if b.bus_type not in BUS_TYPES:
            raise CaseInvariantError(f"bus row {i} (id {b.index}): bad bus_type '{b.bus_type}'")

    if len({g.index for g in case.generators}) != len(case.generators):
        raise CaseInvariantError("gen: duplicate indices")
    for i, g in enumerate(case.generators):
        if g.bus not in bus_ids:
            raise CaseReferenceError(f"gen row {i} (id {g.index}): bus {g.bus} does not exist")
        if g.pmin > g.pmax:
            raise CaseInvariantError(f"gen row {i} (id {g.index}): pmin > pmax")
        if g.cost2 < 0:
            raise CaseInvariantError(f"gen row {i} (id {g.index}): cost_2 must be >= 0 (convex)")

    br_ids = {br.index for br in case.ac_branches}
    if len(br_ids) != len(case.ac_branches):
        raise CaseInvariantError("branch: duplicate indices")
    for i, br in enumerate(case.ac_branches):
        for side in (br.f_bus, br.t_bus):
            if side not in bus_ids:
                raise CaseReferenceError(f"branch row {i} (id {br.index}): bus {side} does not exist")
        if br.rating <= 0:
            raise CaseInvariantError(f"branch row {i} (id {br.index}): rating must be > 0")
        if br.angle_max > br.angle_big_m:
            raise CaseInvariantError(
                f"branch row {i} (id {br.index}): angle_max exceeds angle_big_m")

    _check_slack(case)

    gmd_bus_ids = {b.index for b in case.gmd_buses}
    if len(gmd_bus_ids) != len(case.gmd_buses):
        raise CaseInvariantError("gmd_bus: duplicate indices")
    for i, gb in enumerate(case.gmd_buses):
        if gb.parent not in bus_ids:
            raise CaseReferenceError(f"gmd_bus row {i} (id {gb.index}): parent bus {gb.parent} does not exist")
        if not 0.0 <= gb.g_gnd < math.inf:
            raise CaseInvariantError(f"gmd_bus row {i} (id {gb.index}): g_gnd must be finite and >= 0")

    gmd_br_ids = {b.index for b in case.gmd_branches}
    if len(gmd_br_ids) != len(case.gmd_branches):
        raise CaseInvariantError("gmd_branch: duplicate indices")
    for i, e in enumerate(case.gmd_branches):
        for side in (e.f_bus, e.t_bus):
            if side not in gmd_bus_ids:
                raise CaseReferenceError(
                    f"gmd_branch row {i} (id {e.index}): gmd_bus {side} does not exist")
        if e.parent != ABSENT and e.parent not in br_ids:
            raise CaseReferenceError(
                f"gmd_branch row {i} (id {e.index}): parent branch {e.parent} does not exist")
        if not 0.0 < e.br_r < math.inf:
            raise CaseInvariantError(f"gmd_branch row {i} (id {e.index}): br_r must be finite and > 0")
        if e.len_km < 0:
            raise CaseInvariantError(f"gmd_branch row {i} (id {e.index}): len_km must be >= 0")

    _WINDING_REQS = {
        "gwye-delta": ("gmd_br_hi",),
        "gwye-gwye": ("gmd_br_hi", "gmd_br_lo"),
        "gwye-gwye-auto": ("gmd_br_se", "gmd_br_co"),
        "delta-delta": (),
    }
    seen_branch_rows = set()
    for i, row in enumerate(case.branch_gmd):
        where = f"branch_gmd row {i} (branch {row.branch})"
        if row.branch != ABSENT:
            if row.branch not in br_ids:
                raise CaseReferenceError(f"{where}: branch does not exist")
            if row.branch in seen_branch_rows:
                raise CaseInvariantError(f"{where}: duplicate row for this branch")
            seen_branch_rows.add(row.branch)
        if row.type not in BRANCH_GMD_TYPES:
            raise CaseInvariantError(f"{where}: bad type '{row.type}'")
        if row.is_xfmr != (row.config != "none"):
            raise CaseInvariantError(f"{where}: type=xfmr iff config != none")
        for side in (row.hi_bus, row.lo_bus):
            if side != ABSENT and side not in bus_ids:
                raise CaseReferenceError(f"{where}: bus {side} does not exist")
        if row.is_xfmr:
            if row.config not in XFMR_CONFIGS:
                raise CaseInvariantError(f"{where}: unknown config '{row.config}'")
            for fieldname in _WINDING_REQS[row.config]:
                wid = getattr(row, fieldname)
                if wid == ABSENT:
                    raise CaseInvariantError(
                        f"{where}: config {row.config} requires {fieldname}")
                if wid not in gmd_br_ids:
                    raise CaseReferenceError(f"{where}: {fieldname}={wid} does not exist")
            if row.config in ("gwye-gwye", "gwye-gwye-auto"):
                if case.turns_ratio(row) <= 0:
                    raise CaseInvariantError(f"{where}: turns ratio must be > 0")
        else:
            for fieldname in ("gmd_br_hi", "gmd_br_lo", "gmd_br_se", "gmd_br_co"):
                if getattr(row, fieldname) != ABSENT:
                    raise CaseInvariantError(
                        f"{where}: non-transformer rows must carry -1 in {fieldname}")
        if row.gic_bound is not None and row.gic_bound <= 0:
            raise CaseInvariantError(f"{where}: gic_bound must be > 0")

    seen_thermal = set()
    for i, th in enumerate(case.thermal):
        where = f"branch_thermal row {i} (branch {th.branch})"
        if th.branch not in br_ids:
            raise CaseReferenceError(f"{where}: branch does not exist")
        if th.branch in seen_thermal:
            raise CaseInvariantError(f"{where}: duplicate row for this branch")
        seen_thermal.add(th.branch)
        if th.to_time_c <= 0:
            raise CaseInvariantError(f"{where}: to_time_c must be > 0")
        if th.to_rated <= 0:
            raise CaseInvariantError(f"{where}: to_rated must be > 0")
        if th.hs_inst_lim < th.hs_avg_lim:
            raise CaseInvariantError(f"{where}: hs_inst_lim < hs_avg_lim")
        if th.hs_coeff < 0:
            raise CaseInvariantError(f"{where}: hs_coeff must be >= 0")

    # every real ac transformer carries exactly one thermal row
    for i, row in enumerate(case.branch_gmd):
        if row.is_xfmr and row.branch != ABSENT and row.branch not in seen_thermal:
            raise CaseInvariantError(
                f"branch_gmd row {i}: transformer branch {row.branch} has no branch_thermal row")

    seen_coords = set()
    for i, c in enumerate(case.bus_gmd):
        where = f"bus_gmd row {i} (bus {c.bus})"
        if c.bus not in bus_ids:
            raise CaseReferenceError(f"{where}: bus does not exist")
        if c.bus in seen_coords:
            raise CaseInvariantError(f"{where}: duplicate row for this bus")
        seen_coords.add(c.bus)
        if not -90 <= c.lat <= 90:
            raise CaseInvariantError(f"{where}: lat out of range")
        if not -180 <= c.lon <= 180:
            raise CaseInvariantError(f"{where}: lon out of range")


def component_labels(n: int, f: Sequence[int], t: Sequence[int]) -> np.ndarray:
    """Component label of each node 0..n-1 of the undirected graph of edges
    ``f[k]``-``t[k]``, the components numbered in the order of their first node.

    Hook and jump (Shiloach & Vishkin, 1982): each edge joining two trees
    hooks the larger root under the smaller, then every node jumps to its
    root.  A round merges trees along whole chains of edges, so a long path
    takes a few rounds, not one per hop.  A root ends as the smallest node
    of its component.
    """
    f, t = np.asarray(f, dtype=np.intp), np.asarray(t, dtype=np.intp)
    root = np.arange(n)
    while (cross := root[f] != root[t]).any():
        rf, rt = root[f[cross]], root[t[cross]]
        np.minimum.at(root, np.maximum(rf, rt), np.minimum(rf, rt))
        while not np.array_equal(up := root[root], root):
            root = up
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def slack_rule(ids: Sequence[int], labels: np.ndarray, slack: np.ndarray,
               energize: np.ndarray) -> tuple[np.ndarray, str | None]:
    """The slack rule: an island (``labels``) that holds a load or generator
    (``energize``) has a slack bus, and none has two.  Returns per bus the
    slack count of its island, and the fault, naming bus ids ``ids``, of the
    first island that breaks the rule (in the order of their first bus), or None."""
    count = np.bincount(labels, weights=slack)[labels]
    held = np.bincount(labels, weights=energize)[labels] > 0
    broken = np.flatnonzero((count > 1) | (held & (count == 0)))
    if not broken.size:
        return count, None
    i = broken[0]
    slacks = [ids[j] for j in np.flatnonzero(slack & (labels == labels[i]))]
    return count, (f"bus component containing bus {ids[i]}: "
                   + (f"multiple slack buses {slacks}" if slacks else "no slack bus"))


def topology_status(ids: np.ndarray, nominal: np.ndarray,
                    topology: Mapping[int, int] | None) -> np.ndarray:
    """In-service mask of the ac branches ``ids`` of nominal status ``nominal``:
    ``topology`` (ac branch id -> 1 in service, 0 open) overrides the status of
    every branch it names."""
    on = [k for k, z in (topology or {}).items() if z]
    off = [k for k, z in (topology or {}).items() if not z]
    return (np.asarray(nominal, dtype=bool) & ~np.isin(ids, off)) | np.isin(ids, on)


def _check_slack(case: CaseData) -> None:
    """``slack_rule`` on the islands of the in-service branches."""
    pos = {b.index: i for i, b in enumerate(case.buses)}
    ends = np.array([(pos[br.f_bus], pos[br.t_bus]) for br in case.ac_branches if br.status],
                    dtype=int).reshape(-1, 2)
    gens = {g.bus for g in case.generators}
    _, fault = slack_rule(tuple(pos), component_labels(len(pos), *ends.T),
                          np.array([b.bus_type == "slack" for b in case.buses], dtype=bool),
                          np.array([b.index in gens or b.pd != 0 or b.qd != 0
                                    for b in case.buses], dtype=bool))
    if fault:
        raise CaseInvariantError(fault)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize_case(case: CaseData) -> str:
    """Serialize to the JSON case format; parse(serialize(c)) == c.

    An optional (``float | None``) field that is None is left out.
    """
    doc = {"base_mva": case.base_mva}
    for table, (attr, cls) in _SCHEMA.items():
        spec = _fields(cls)
        doc[table] = [{key: getattr(row, name) for name, key, _, default in spec
                       if default is not None or getattr(row, name) is not None}
                      for row in getattr(case, attr)]
    return json.dumps(doc, indent=1)


# ---------------------------------------------------------------------------
# GSU estimation
# ---------------------------------------------------------------------------

def estimate_missing_gsu(case: CaseData, *, winding_r: float = 0.1,
                         ground_s: float = 5.0, gmd_k: float = 0.0) -> CaseData:
    """Add one synthetic GSU transformer per generator whose bus has none.

    The GSUs are added per generator, not per bus: two such generators on
    one bus get two parallel windings.  Each is modeled as delta-gwye with
    the grounded wye on the network side: one gmd_branch of resistance
    ``winding_r`` from the bus's dc node to the substation neutral, plus a
    gwye-delta branch_gmd row so the winding contributes an effective GIC.
    Synthetic rows carry branch = -1 (they correspond to no ac branch) and
    gmd_k as given (default 0: dc-network effect only).  A dc bus node or
    neutral is created when the case lacks one (neutral grounding
    ``ground_s``).  Original rows are never touched; a no-op when every
    generator bus already has a transformer.
    """
    covered = {b for row in case.branch_gmd if row.is_xfmr for b in (row.hi_bus, row.lo_bus)}
    missing = [g for g in case.generators if g.bus not in covered]
    if not missing:
        return case

    gmd_buses = list(case.gmd_buses)
    gmd_branches = list(case.gmd_branches)
    branch_gmd = list(case.branch_gmd)
    next_bus = max((b.index for b in gmd_buses), default=0) + 1
    next_br = max((e.index for e in gmd_branches), default=0) + 1

    def dc_node(ac_bus: int, grounded: bool) -> int:
        nonlocal next_bus
        for gb in gmd_buses:
            if gb.parent == ac_bus and (gb.g_gnd > 0) == grounded:
                return gb.index
        kind = "sub" if grounded else "bus"
        gb = GmdBus(index=next_bus, parent=ac_bus, g_gnd=ground_s if grounded else 0.0,
                    name=f"dc_{kind}{ac_bus}_est")
        gmd_buses.append(gb)
        next_bus += 1
        return gb.index

    for gen in missing:
        node = dc_node(gen.bus, grounded=False)
        neutral = dc_node(gen.bus, grounded=True)
        winding = GmdBranch(index=next_br, f_bus=node, t_bus=neutral, parent=ABSENT,
                            br_r=winding_r, name=f"gsu_est_gen{gen.index}")
        gmd_branches.append(winding)
        branch_gmd.append(BranchGmdData(
            branch=ABSENT, hi_bus=gen.bus, lo_bus=ABSENT, gmd_br_hi=winding.index,
            gmd_k=gmd_k, baseMVA=case.base_mva, type="xfmr", config="gwye-delta"))
        next_br += 1

    return replace(case, gmd_buses=tuple(gmd_buses),
                   gmd_branches=tuple(gmd_branches),
                   branch_gmd=tuple(branch_gmd))


# ---------------------------------------------------------------------------
# field scenarios
# ---------------------------------------------------------------------------

def make_ramp_scenario(peak: float, rise_min: float, fall_min: float,
                       dt: float = 5.0, direction_deg: float = 90.0) -> FieldScenario:
    """Piecewise-linear up/down field ramp sampled every dt minutes.

    Defaults to an eastward (90 deg geographic) field.  The ramp rises
    linearly 0 -> peak over rise_min, then falls back to 0 over fall_min.
    When dt does not divide rise_min, the peak at rise_min is sampled too.
    """
    if peak < 0:
        raise ValueError("peak must be >= 0")
    n = (rise_min + fall_min) / dt
    if abs(n - round(n)) > 1e-9:
        raise ValueError("dt must divide rise_min + fall_min")
    rise = rise_min / dt
    knot = [rise_min] if abs(rise - round(rise)) > 1e-9 else []  # the grid misses the peak
    samples = []
    for t in sorted([k * dt for k in range(int(round(n)) + 1)] + knot):
        if t <= rise_min:
            mag = peak * (t / rise_min) if rise_min > 0 else peak
        else:
            mag = peak * (1.0 - (t - rise_min) / fall_min) if fall_min > 0 else 0.0
        samples.append(FieldSample(t=t, e_mag=mag, e_dir=direction_deg))
    return FieldScenario(samples=tuple(samples))


_SCENARIO_COLUMNS = ("t_min", "e_mag_vkm", "e_dir_deg")
_OVERRIDE_COLUMNS = ("t_min", "gmd_branch_id", "volts")


def _csv_rows(text: str, columns: tuple[str, ...], label: str):
    """One ``_Row`` per data line of CSV ``text``, whose header must be ``columns``;
    ``label`` names the file in errors."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    header = ",".join(columns)
    if not lines or lines[0].replace(" ", "") != header:
        raise CaseStructureError(f"{label} CSV must start with header {header}")
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise CaseStructureError(f"{label} CSV: bad row '{ln}'")
        yield _Row(f"{label} CSV row '{ln}'", None, dict(zip(columns, parts)))


def load_scenario(text: str, overrides_text: str | None = None) -> FieldScenario:
    """Load a scenario from CSV text with header t_min,e_mag_vkm,e_dir_deg.

    Optional overrides CSV has header t_min,gmd_branch_id,volts.
    """
    samples = [FieldSample(t=r.num("t_min"), e_mag=r.num("e_mag_vkm"), e_dir=r.num("e_dir_deg"))
               for r in _csv_rows(text, _SCENARIO_COLUMNS, "scenario")]
    if not samples:
        raise CaseStructureError("scenario CSV has a header but no data rows")
    overrides: dict[int, list[tuple[float, float]]] = {}
    if overrides_text is not None:
        for r in _csv_rows(overrides_text, _OVERRIDE_COLUMNS, "override"):
            overrides.setdefault(r.int("gmd_branch_id"), []).append(
                (r.num("t_min"), r.num("volts")))
    frozen = {}
    for branch_id, series in overrides.items():
        series = tuple(sorted(series))
        if any(b[0] <= a[0] for a, b in zip(series, series[1:])):
            raise CaseStructureError(
                f"override CSV: duplicate time for gmd_branch {branch_id}")
        frozen[branch_id] = series
    return FieldScenario(samples=tuple(samples), voltage_overrides=frozen)


def load_scenario_file(path, overrides_path=None) -> FieldScenario:
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    otext = None
    if overrides_path is not None:
        with open(overrides_path, "r", encoding="utf-8-sig") as fh:
            otext = fh.read()
    return load_scenario(text, overrides_text=otext)
