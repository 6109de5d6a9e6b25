"""Case document parsing, serialization, validation and GSU estimation."""

import json
import math
import os
from collections import deque
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gicgrid.data import (ABSENT, AcBranch, BranchGmdData, Bus, BusGmdData, CaseData,
                          CaseError, CaseInvariantError, CaseReferenceError,
                          CaseStructureError, FieldSample, FieldScenario, Generator,
                          GmdBranch, GmdBus, Periods, ThermalData, component_labels,
                          estimate_missing_gsu,
                          load_scenario, load_scenario_file, make_ramp_scenario, parse_case,
                          parse_case_file, serialize_case)
from gicgrid import data as data_module
from gicgrid.dcnet import assemble

from conftest import CASES, bundled, random_dc_case


def _doc(case):
    return json.loads(serialize_case(case))


def test_parse_gmd_bus_row(b4gic_case):
    text = serialize_case(b4gic_case)
    case = parse_case(text)
    sub1 = case.gmd_bus(1)
    assert sub1.parent == 1
    assert sub1.status == 1
    assert sub1.g_gnd == 5.0
    assert sub1.name == "dc_sub1"


def test_parse_line_admittance(b4gic_case):
    line = b4gic_case.gmd_branch(2)
    assert line.f_bus == 3 and line.t_bus == 4
    assert line.br_r == 1.001
    assert line.a == pytest.approx(1 / 1.001, rel=1e-12)
    assert line.br_v == 170.788


def test_empty_gmd_tables_is_valid_ac_case():
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 138.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 138.0, "pd": 1.0}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0.0, "pmax": 5.0}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 20.0, "rating": 5.0}],
        "gmd_bus": [], "gmd_branch": [], "branch_gmd": [],
        "branch_thermal": [], "bus_gmd": [],
    }
    case = parse_case(json.dumps(doc))
    assert case.gmd_buses == ()
    sys = assemble(case, True)
    assert sys.conductance().shape == (0, 0)


def test_roundtrip_b4gic(b4gic_case):
    again = parse_case(serialize_case(b4gic_case))
    assert again == b4gic_case
    # the same text, as a new string, gives the same object back; sharing it is
    # safe because the case and every row of its tables are frozen
    assert parse_case(serialize_case(b4gic_case)) is again
    for f in fields(CaseData)[1:]:
        rows = getattr(again, f.name)
        assert type(rows) is tuple and rows
        for row in rows:
            with pytest.raises(FrozenInstanceError):
                setattr(row, fields(row)[0].name, None)
    with pytest.raises(FrozenInstanceError):
        again.base_mva = 1.0


def test_roundtrip_is_fixed_point(b4gic_case):
    once = serialize_case(parse_case(serialize_case(b4gic_case)))
    twice = serialize_case(parse_case(once))
    assert once == twice


@pytest.mark.parametrize("seed", range(8))
def test_roundtrip_random_cases(seed):
    rng = np.random.default_rng(seed)
    case = random_dc_case(rng)
    assert parse_case(serialize_case(case)) == case
    # each optional branch_gmd field set on every other row, None on the rest
    optional = ("turns_ratio", "gic_bound", "hotspot_limit")
    rows = tuple(replace(r, **{name: float(rng.uniform(0.1, 500.0)) if (k + j) % 2 else None
                               for j, name in enumerate(optional)})
                 for k, r in enumerate(case.branch_gmd))
    case = replace(case, branch_gmd=rows)
    for name in optional:
        assert {getattr(r, name) is None for r in rows} == {True, False}
    assert parse_case(serialize_case(case)) == case


def test_required_fields_only_give_documented_defaults():
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 345.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 138.0}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0.0, "pmax": 5.0}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 20.0, "rating": 5.0}],
        "gmd_bus": [{"index": 1, "parent": 1, "g_gnd": 5.0},
                    {"index": 2, "parent": 2, "g_gnd": 0.0}],
        "gmd_branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "parent": 1, "br_r": 2.0}],
        "branch_gmd": [{"branch": 1, "hi_bus": 1, "lo_bus": 2, "type": "line"}],
        "branch_thermal": [{"branch": 1, "xfmr": 1, "temp_amb": 25.0, "hs_inst_lim": 280.0,
                            "to_time_c": 71.0, "to_rated": 75.0, "hs_coeff": 0.63}],
        "bus_gmd": [{"bus": 2, "lat": 40.0, "lon": -89.0}],
    }
    case = parse_case(json.dumps(doc))
    assert case.buses[1] == Bus(index=2, base_kv=138.0, bus_type="PQ", pd=0.0, qd=0.0,
                                g_shunt=0.0, vmin=0.9, vmax=1.1)
    assert case.generators == (Generator(index=1, bus=1, pmin=0.0, pmax=5.0, qmin=-1e3,
                                         qmax=1e3, cost0=0.0, cost1=0.0, cost2=0.0,
                                         pg=0.0, vg=1.0),)
    assert case.ac_branches == (AcBranch(index=1, f_bus=1, t_bus=2, b=20.0, rating=5.0,
                                         angle_max=0.6, angle_big_m=math.pi,
                                         switchable=False, status=1),)
    assert case.gmd_buses[0] == GmdBus(index=1, parent=1, status=1, g_gnd=5.0, name="")
    assert case.gmd_branches == (GmdBranch(index=1, f_bus=1, t_bus=2, parent=1, status=1,
                                           br_r=2.0, br_v=0.0, len_km=0.0, name=""),)
    assert case.branch_gmd == (BranchGmdData(
        branch=1, hi_bus=1, lo_bus=2, gmd_br_hi=-1, gmd_br_lo=-1, gmd_k=-1.0, gmd_br_se=-1,
        gmd_br_co=-1, baseMVA=-1.0, dispatch=1, type="line", config="none",
        turns_ratio=None, gic_bound=None, hotspot_limit=None),)
    assert case.thermal == (ThermalData(
        branch=1, xfmr=1, temp_amb=25.0, hs_inst_lim=280.0, hs_avg_lim=-1.0, hs_rated=-1.0,
        to_time_c=71.0, to_rated=75.0, to_init=0.0, to_inited=0, hs_coeff=0.63),)
    assert case.bus_gmd == (BusGmdData(bus=2, lat=40.0, lon=-89.0),)
    # unset optional fields are left out, so the document round-trips
    assert "turns_ratio" not in _doc(case)["branch_gmd"][0]
    assert parse_case(serialize_case(case)) == case


def test_generator_cost_is_the_quadratic():
    g = Generator(index=1, bus=1, pmin=0.0, pmax=5.0, cost0=3.0, cost1=10.0, cost2=0.5)
    assert g.cost(2.0) == 3.0 + 10.0 * 2.0 + 0.5 * 2.0 * 2.0
    assert g.cost(0.0) == 3.0


_BUNDLED = [_doc(bundled(name)) for name in ("b4gic", "epri21")]
_WRONG = st.one_of(st.text(max_size=4), st.booleans(), st.lists(st.integers(), max_size=2),
                   st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                   st.floats(), st.integers(-10**400, 10**400), st.none())


@st.composite
def mutated_documents(draw):
    """A bundled case document with one to three random mutations."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_BUNDLED))))
    for _ in range(draw(st.integers(1, 3))):
        tables = [t for t, rows in doc.items() if isinstance(rows, list)]
        op = draw(st.sampled_from(("drop_field", "null_field", "wrong_type", "non_object",
                                   "drop_table", "base_mva")))
        if op == "base_mva":
            doc["base_mva"] = draw(_WRONG)
            continue
        if not tables:
            break
        table = draw(st.sampled_from(tables))
        if op == "drop_table":
            del doc[table]
            continue
        rows = doc[table]
        objects = [i for i, r in enumerate(rows) if isinstance(r, dict) and r]
        if op == "non_object" or not objects:
            if rows:
                rows[draw(st.integers(0, len(rows) - 1))] = draw(_WRONG)
            continue
        row = rows[draw(st.sampled_from(objects))]
        key = draw(st.sampled_from(sorted(row)))
        if op == "drop_field":
            del row[key]
        else:
            row[key] = None if op == "null_field" else draw(_WRONG)
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_any_mutated_case_gives_case_or_case_error(doc):
    try:
        case = parse_case(json.dumps(doc))
    except CaseError:
        return
    assert isinstance(case, CaseData)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=12)
# every value the bundled documents give each field, per table, as JSON text so
# that 1 and 1.0 stay apart
_SEEN = {t: {k: sorted({json.dumps(r[k]) for doc in _BUNDLED for r in doc[t] if k in r})
             for k in sorted({k for doc in _BUNDLED for r in doc[t] for k in r})}
         for t, rows in _BUNDLED[0].items() if isinstance(rows, list)}


@st.composite
def case_shaped_documents(draw):
    """An object with the eight case tables, each holding up to four rows; a row
    gives each field of its table a value the bundled cases use or a small int.
    Then up to three rows are damaged: a field dropped, a field or the whole row
    set to any JSON value."""
    doc = {t: draw(st.lists(st.fixed_dictionaries(
        {k: st.sampled_from(v).map(json.loads) | st.integers(-2, 4) for k, v in seen.items()}),
        max_size=4)) for t, seen in _SEEN.items()}
    doc["base_mva"] = draw(st.just(100.0) | _JSON)
    for _ in range(draw(st.integers(0, 3))):
        rows = doc[draw(st.sampled_from(sorted(_SEEN)))]
        if not rows:
            continue
        k = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(("drop", "set", "row")))
        if op == "row" or not isinstance(rows[k], dict) or not rows[k]:
            rows[k] = draw(_JSON)
            continue
        key = draw(st.sampled_from(sorted(rows[k])))
        if op == "drop":
            del rows[k][key]
        else:
            rows[k][key] = draw(_JSON)
    return doc


@settings(max_examples=100, deadline=None)
@given(st.one_of(_JSON, case_shaped_documents()))
def test_any_json_document_gives_case_or_case_error(doc):
    """Arbitrary JSON, or any rows under the eight table keys, parse to a
    ``CaseData`` or raise ``CaseError``; no other exception escapes."""
    try:
        case = parse_case(json.dumps(doc))
    except CaseError:
        return
    assert isinstance(case, CaseData)


@st.composite
def graphs(draw):
    """Distinct node ids in any order and links between them, self-loops and
    repeats included."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), unique=True, max_size=30))
    if not ids:
        return ids, []
    return ids, draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=40))


def _bfs_components(ids, links):
    """Components as a breadth-first search finds them: members in ``ids``
    order, components in the order of their first member."""
    adjacent = {k: [] for k in ids}
    for a, b in links:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, expected = set(), []
    for start in ids:
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), {start}
        while queue:
            for nxt in adjacent[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    members.add(nxt)
                    queue.append(nxt)
        expected.append([k for k in ids if k in members])
    return expected


def _labelled_components(ids, links):
    """``component_labels`` over the positions of ``ids``, as lists of ids per label."""
    pos = {k: i for i, k in enumerate(ids)}
    labels = component_labels(len(ids), [pos[a] for a, _ in links], [pos[b] for _, b in links])
    groups = [[] for _ in range(labels.max() + 1 if len(ids) else 0)]
    for k, label in zip(ids, labels.tolist()):
        groups[label].append(k)
    return groups


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_component_labels_match_breadth_first_search(graph):
    """Labels number the breadth-first components in the order of their first node."""
    assert _labelled_components(*graph) == _bfs_components(*graph)


def _shuffled_path(n=10_000):
    """The path 0-1-...-(n-1), its nodes listed in shuffled order."""
    return np.random.default_rng(7).permutation(n).tolist(), [(k, k + 1) for k in range(n - 1)]


def _grid(side=100):
    """A side x side grid, its nodes listed in shuffled order."""
    ids = range(side * side)
    return (np.random.default_rng(8).permutation(side * side).tolist(),
            [(i, i + 1) for i in ids if (i + 1) % side] + [(i, i + side) for i in ids[:-side]])


def _isolated_and_pairs():
    """Nine pairs among 50 nodes listed in descending order; the rest isolated."""
    ids = list(range(50, 0, -1))
    return ids, [(k, k + 25) for k in range(1, 26, 3)]


@pytest.mark.parametrize("graph", [_shuffled_path, _grid, _isolated_and_pairs],
                         ids=["shuffled_path", "grid_100x100", "isolated_nodes"])
def test_component_labels_on_adversarial_graphs(graph, monkeypatch):
    """Long diameters and isolated nodes label as the breadth-first search does,
    in a number of hook rounds that does not grow with the diameter."""
    rounds = []

    class _CountingMinimum:  # np.minimum, counting the calls of its ``at``: one a round
        def __call__(self, *args):
            return np.minimum(*args)

        def at(self, *args):
            rounds.append(1)
            return np.minimum.at(*args)

    class _Numpy:
        minimum = _CountingMinimum()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(data_module, "np", _Numpy())
    ids, links = graph()
    assert _labelled_components(ids, links) == _bfs_components(ids, links)
    assert len(rounds) <= 20


def test_nontransformer_thermal_row_is_absent(b4gic_case):
    doc = _doc(b4gic_case)
    doc["branch_thermal"].insert(1, {
        "branch": 2, "xfmr": 0, "temp_amb": -1, "hs_inst_lim": -1,
        "hs_avg_lim": -1, "hs_rated": -1, "to_time_c": -1, "to_rated": -1,
        "to_init": -1, "to_inited": -1, "hs_coeff": -1})
    case = parse_case(json.dumps(doc))
    assert case.thermal_for(2) is None
    assert len(case.thermal) == 2


def test_absent_sentinel_thermal_row_is_absent(b4gic_case):
    """xfmr: -1 is the format's "absent" sentinel: the row is skipped like xfmr: 0."""
    doc = _doc(b4gic_case)
    doc["branch_thermal"].insert(1, {
        "branch": 2, "xfmr": -1, "temp_amb": -1, "hs_inst_lim": -1,
        "hs_avg_lim": -1, "hs_rated": -1, "to_time_c": -1, "to_rated": -1,
        "to_init": -1, "to_inited": -1, "hs_coeff": -1})
    case = parse_case(json.dumps(doc))
    assert case.thermal_for(2) is None
    assert case == b4gic_case


def test_missing_table_is_structural_error(b4gic_case):
    doc = _doc(b4gic_case)
    del doc["gmd_bus"]
    text = json.dumps(doc)
    for _ in range(2):  # an error is not remembered: the same text fails again
        with pytest.raises(CaseStructureError, match="gmd_bus"):
            parse_case(text)


def test_missing_field_names_row(b4gic_case):
    doc = _doc(b4gic_case)
    del doc["gmd_branch"][1]["br_r"]
    with pytest.raises(CaseStructureError, match="row 1"):
        parse_case(json.dumps(doc))


def test_dangling_parent_reference(b4gic_case):
    doc = _doc(b4gic_case)
    doc["gmd_bus"][0]["parent"] = 99
    with pytest.raises(CaseReferenceError, match="99"):
        parse_case(json.dumps(doc))


def test_dangling_winding_reference(b4gic_case):
    doc = _doc(b4gic_case)
    doc["branch_gmd"][0]["gmd_br_hi"] = 77
    with pytest.raises(CaseReferenceError, match="77"):
        parse_case(json.dumps(doc))


def test_config_requires_windings(b4gic_case):
    doc = _doc(b4gic_case)
    doc["branch_gmd"][0]["gmd_br_hi"] = -1
    with pytest.raises(CaseInvariantError, match="gwye-delta"):
        parse_case(json.dumps(doc))


def test_type_config_consistency(b4gic_case):
    doc = _doc(b4gic_case)
    doc["branch_gmd"][1]["config"] = "gwye-delta"  # line with a xfmr config
    with pytest.raises(CaseInvariantError, match="xfmr"):
        parse_case(json.dumps(doc))


def test_nontransformer_must_carry_absent_fields(b4gic_case):
    doc = _doc(b4gic_case)
    doc["branch_gmd"][1]["gmd_br_hi"] = 1
    with pytest.raises(CaseInvariantError, match="-1"):
        parse_case(json.dumps(doc))


def test_transformer_needs_thermal_row(b4gic_case):
    doc = _doc(b4gic_case)
    doc["branch_thermal"] = doc["branch_thermal"][:1]
    with pytest.raises(CaseInvariantError, match="branch 3"):
        parse_case(json.dumps(doc))


def test_duplicate_generator_ids_rejected(b4gic_case):
    """Generator ids are unique, as bus, branch, gmd_bus and gmd_branch ids
    are: a plan's dispatch is keyed by them."""
    doc = _doc(b4gic_case)
    doc["gen"][1]["index"] = doc["gen"][0]["index"]
    with pytest.raises(CaseInvariantError, match="^gen: duplicate indices$"):
        parse_case(json.dumps(doc))


def test_vmin_vmax_invariant(b4gic_case):
    doc = _doc(b4gic_case)
    doc["bus"][0]["vmin"] = 1.2
    with pytest.raises(CaseInvariantError, match="vmin"):
        parse_case(json.dumps(doc))


def test_two_slacks_in_component_rejected(b4gic_case):
    doc = _doc(b4gic_case)
    doc["bus"][3]["bus_type"] = "slack"
    with pytest.raises(CaseInvariantError, match="slack"):
        parse_case(json.dumps(doc))


def test_negative_grounding_rejected(b4gic_case):
    doc = _doc(b4gic_case)
    doc["gmd_bus"][0]["g_gnd"] = -1.0
    with pytest.raises(CaseInvariantError, match="g_gnd"):
        parse_case(json.dumps(doc))


def test_all_winding_configs_constructible(b4gic_case):
    """Every supported winding configuration parses and validates."""
    doc = _doc(b4gic_case)
    doc["bus"] += [{"index": 5, "base_kv": 345.0}, {"index": 6, "base_kv": 138.0}]
    doc["branch"] += [
        {"index": 4, "f_bus": 1, "t_bus": 5, "b": 50.0, "rating": 5.0},
        {"index": 5, "f_bus": 5, "t_bus": 6, "b": 50.0, "rating": 5.0},
        {"index": 6, "f_bus": 5, "t_bus": 6, "b": 50.0, "rating": 5.0},
    ]
    doc["gmd_bus"] += [
        {"index": 7, "parent": 5, "status": 1, "g_gnd": 0.0, "name": "dc_bus5"},
        {"index": 8, "parent": 6, "status": 1, "g_gnd": 0.0, "name": "dc_bus6"},
        {"index": 9, "parent": 5, "status": 1, "g_gnd": 4.0, "name": "dc_sub5"},
    ]
    doc["gmd_branch"] += [
        {"index": 4, "f_bus": 3, "t_bus": 9, "parent": 4, "status": 1, "br_r": 0.2},
        {"index": 5, "f_bus": 7, "t_bus": 9, "parent": 4, "status": 1, "br_r": 0.3},
        {"index": 6, "f_bus": 7, "t_bus": 8, "parent": 5, "status": 1, "br_r": 0.1},
        {"index": 7, "f_bus": 8, "t_bus": 9, "parent": 5, "status": 1, "br_r": 0.15},
    ]
    doc["branch_gmd"] += [
        {"branch": 4, "hi_bus": 1, "lo_bus": 5, "gmd_br_hi": 4, "gmd_br_lo": 5,
         "gmd_k": 1.0, "gmd_br_se": -1, "gmd_br_co": -1, "baseMVA": 100,
         "dispatch": 1, "type": "xfmr", "config": "gwye-gwye"},
        {"branch": 5, "hi_bus": 5, "lo_bus": 6, "gmd_br_hi": -1, "gmd_br_lo": -1,
         "gmd_k": 1.0, "gmd_br_se": 6, "gmd_br_co": 7, "baseMVA": 100,
         "dispatch": 1, "type": "xfmr", "config": "gwye-gwye-auto"},
        {"branch": 6, "hi_bus": 5, "lo_bus": 6, "gmd_br_hi": -1, "gmd_br_lo": -1,
         "gmd_k": -1, "gmd_br_se": -1, "gmd_br_co": -1, "baseMVA": 100,
         "dispatch": 1, "type": "xfmr", "config": "delta-delta"},
    ]
    thermal_stub = dict(doc["branch_thermal"][0])
    for br in (4, 5, 6):
        row = dict(thermal_stub)
        row["branch"] = br
        doc["branch_thermal"].append(row)
    case = parse_case(json.dumps(doc))
    configs = {r.config for r in case.branch_gmd if r.is_xfmr}
    assert configs == {"gwye-delta", "gwye-gwye", "delta-delta", "gwye-gwye-auto"}
    assert case.branch_gmd[3].branch == 4 and case.branch_gmd[4].branch == 5
    assert case.turns_ratio(case.branch_gmd[3]) == pytest.approx(765.0 / 345.0)
    assert case.turns_ratio(case.branch_gmd[4]) == pytest.approx(345.0 / 138.0 - 1)


def test_series_cap_never_enters_solve_set(epri21_case):
    sys = assemble(epri21_case, True)
    cap_rows = {r.branch for r in epri21_case.branch_gmd if r.type == "series_cap"}
    assert cap_rows
    solved_parents = set(sys.parent.tolist())
    assert not (cap_rows & solved_parents)


# -- GSU estimation ----------------------------------------------------------

def test_estimate_gsu_noop(b4gic_case):
    assert estimate_missing_gsu(b4gic_case) is b4gic_case


def _case_with_bare_generator():
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 345.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 345.0, "pd": 1.0}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0.0, "pmax": 5.0},
                {"index": 2, "bus": 1, "pmin": 0.0, "pmax": 5.0}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 20.0, "rating": 9.0}],
        "gmd_bus": [
            {"index": 1, "parent": 1, "status": 1, "g_gnd": 0.0, "name": "dc_bus1"},
            {"index": 2, "parent": 2, "status": 1, "g_gnd": 0.0, "name": "dc_bus2"},
            {"index": 3, "parent": 1, "status": 1, "g_gnd": 5.0, "name": "dc_sub1"},
            {"index": 4, "parent": 2, "status": 1, "g_gnd": 5.0, "name": "dc_sub2"},
        ],
        "gmd_branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "parent": 1,
                        "status": 1, "br_r": 2.0, "br_v": 100.0, "len_km": 100.0}],
        "branch_gmd": [{"branch": 1, "hi_bus": 1, "lo_bus": 2, "gmd_k": -1,
                        "type": "line", "config": "none"}],
        "branch_thermal": [], "bus_gmd": [],
    }
    return parse_case(json.dumps(doc))


def test_estimate_gsu_adds_delta_gwye_winding():
    case = _case_with_bare_generator()
    out = estimate_missing_gsu(case, winding_r=0.25)
    new_rows = [r for r in out.branch_gmd if r.branch == ABSENT]
    assert len(new_rows) == 2  # one per generator at bus 1
    for row in new_rows:
        assert row.config == "gwye-delta"
        winding = out.gmd_branch(row.gmd_br_hi)
        assert winding.br_r == 0.25
        assert out.gmd_bus(winding.f_bus).parent == 1
        assert out.gmd_bus(winding.t_bus).g_gnd > 0
    # original rows untouched
    assert out.gmd_branches[:len(case.gmd_branches)] == case.gmd_branches


def test_estimate_gsu_ground_paths_in_assembly():
    case = _case_with_bare_generator()
    out = estimate_missing_gsu(case)
    before = assemble(case)   # stored br_v drives the solve; no coords needed
    after = assemble(out)
    def paths_to_neutral(sys, case_):
        grounded = {b.index for b in case_.gmd_buses if b.g_gnd > 0}
        nodes = {i for i, nid in enumerate(sys.node_ids) if nid in grounded}
        return sum(1 for f, t in zip(sys.f.tolist(), sys.t.tolist()) if f in nodes or t in nodes)
    assert paths_to_neutral(after, out) == paths_to_neutral(before, case) + 2


def test_estimate_gsu_creates_missing_neutral():
    case = _case_with_bare_generator()
    # drop the neutral at bus 1: estimation must create one
    doc = json.loads(serialize_case(case))
    doc["gmd_bus"] = [r for r in doc["gmd_bus"] if r["index"] != 3]
    case = parse_case(json.dumps(doc))
    out = estimate_missing_gsu(case, ground_s=2.5)
    created = [b for b in out.gmd_buses if b.parent == 1 and b.g_gnd > 0]
    assert len(created) == 1 and created[0].g_gnd == 2.5


# -- scenarios ---------------------------------------------------------------

def test_ramp_sample_count():
    sc = make_ramp_scenario(3.2, 180.0, 180.0, dt=5.0)
    assert len(sc.samples) == 73
    assert sc.samples[0].e_mag == 0.0
    assert sc.samples[36].e_mag == pytest.approx(3.2)
    assert sc.samples[-1].e_mag == pytest.approx(0.0)
    assert all(s.e_dir == 90.0 for s in sc.samples)


@pytest.mark.parametrize("dt", [120.0, 72.0, 24.0])
def test_ramp_samples_its_peak_when_dt_misses_the_rise(dt):
    """At a dt that does not divide the rise, the peak is a sample of its own,
    and the sample times stay strictly increasing."""
    sc = make_ramp_scenario(3.2, 180.0, 180.0, dt=dt)
    assert np.hypot(*sc.series([180.0])[0]) == pytest.approx(3.2, rel=1e-12)
    times = [s.t for s in sc.samples]
    assert times[0] == 0.0 and times[-1] == pytest.approx(360.0) and 180.0 in times
    assert len(times) == round(360.0 / dt) + 2


@pytest.mark.parametrize("dt", [5.0, 2.5, 60.0, 180.0])
def test_ramp_at_a_dt_dividing_the_rise_keeps_its_grid(dt):
    sc = make_ramp_scenario(3.2, 180.0, 180.0, dt=dt)
    assert [s.t for s in sc.samples] == [k * dt for k in range(round(360.0 / dt) + 1)]


def test_zero_peak_ramp():
    sc = make_ramp_scenario(0.0, 60.0, 60.0, dt=10.0)
    assert all(s.e_mag == 0.0 for s in sc.samples)


def test_scenario_interpolation_is_componentwise():
    sc = FieldScenario(samples=(FieldSample(0.0, 1.0, 0.0),
                                FieldSample(10.0, 1.0, 90.0)))
    e_n, e_e = sc.series([5.0])[0]
    assert e_n == pytest.approx(0.5)
    assert e_e == pytest.approx(0.5)


def test_scenario_rejects_nonmonotone_times():
    with pytest.raises(ValueError, match="increasing"):
        FieldScenario(samples=(FieldSample(0.0, 1.0, 90.0),
                               FieldSample(0.0, 2.0, 90.0)))


def test_scenario_csv_roundtrip():
    text = "t_min,e_mag_vkm,e_dir_deg\n0,0.0,90\n60,1.5,90\n120,0.0,90\n"
    over = "t_min,gmd_branch_id,volts\n0,2,0\n60,2,250.0\n120,2,0\n"
    sc = load_scenario(text, overrides_text=over)
    assert sc.t_end == 120.0
    assert sc.series([30.0])[0][1] == pytest.approx(0.75)
    assert sc.overrides_series([30.0])[2][0] == pytest.approx(125.0)
    assert Periods.over(sc, 10.0).edges.tolist() == [float(t) for t in range(0, 121, 10)]


def test_case_file_with_utf8_bom_parses_as_the_plain_one(tmp_path):
    plain = os.path.join(CASES, "b4gic.json")
    with open(plain, "rb") as fh:
        raw = fh.read()
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + raw)
    assert parse_case_file(bom) == parse_case_file(plain)


@pytest.mark.parametrize("marked", ["scenario", "overrides"])
def test_scenario_files_with_utf8_bom_load_as_the_plain_ones(tmp_path, marked):
    """A file saved as Excel's "CSV UTF-8" starts with a byte-order mark."""
    texts = {"scenario": "t_min,e_mag_vkm,e_dir_deg\n0,0.0,90\n60,1.5,90\n",
             "overrides": "t_min,gmd_branch_id,volts\n0,2,0\n60,2,250.0\n"}
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes((b"\xef\xbb\xbf" if name == marked else b"") + text.encode())
    got = load_scenario_file(paths["scenario"], overrides_path=paths["overrides"])
    assert got == load_scenario(texts["scenario"], overrides_text=texts["overrides"])


def test_grid_requires_divisibility():
    sc = make_ramp_scenario(1.0, 60.0, 60.0, dt=5.0)
    with pytest.raises(ValueError, match="divide"):
        Periods.over(sc, 7.0)


@pytest.mark.parametrize("dt", [0.0, -5.0, math.inf, math.nan])
def test_periods_require_a_positive_finite_step(dt):
    sc = make_ramp_scenario(1.0, 60.0, 60.0, dt=5.0)
    with pytest.raises(ValueError, match="positive and finite"):
        Periods.over(sc, dt)


_FINITE = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e4, 1e4, **_FINITE), st.floats(1e-3, 1e3, **_FINITE), st.integers(0, 400))
def test_periods_are_the_list_formulas_bit_for_bit(start, dt, count):
    """``edges``, ``mid`` and ``samples`` are the grid, midpoint and re-simulation
    formulas they replace, on Python floats, bit for bit."""
    periods = Periods(start, dt, count)
    edges = [start + k * dt for k in range(count + 1)]
    mid = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    samples = [mid[0] - dt, *mid] if mid else []
    for got, want in ((periods.edges, edges), (periods.mid, mid), (periods.samples, samples)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


def test_periods_over_a_scenario_start_at_its_first_sample():
    sc = FieldScenario(samples=(FieldSample(30.0, 1.0, 90.0), FieldSample(90.0, 1.0, 90.0)))
    periods = Periods.over(sc, 15.0)
    assert periods == Periods(30.0, 15.0, 4)
    assert periods.edges.tolist() == [30.0, 45.0, 60.0, 75.0, 90.0]
    assert periods.mid.tolist() == [37.5, 52.5, 67.5, 82.5]
    assert periods.samples.tolist() == [22.5, 37.5, 52.5, 67.5, 82.5]


def test_override_duplicate_times_rejected():
    text = "t_min,e_mag_vkm,e_dir_deg\n0,0,90\n60,1,90\n"
    over = "t_min,gmd_branch_id,volts\n0,2,0\n0,2,5\n"
    with pytest.raises(CaseStructureError, match="duplicate time"):
        load_scenario(text, overrides_text=over)


@pytest.mark.parametrize("row", ["60,2,nan", "inf,2,5.0"])
def test_override_non_finite_rejected(row):
    text = "t_min,e_mag_vkm,e_dir_deg\n0,0,90\n60,1,90\n"
    over = f"t_min,gmd_branch_id,volts\n0,2,0\n{row}\n"
    with pytest.raises(CaseStructureError, match="non-finite"):
        load_scenario(text, overrides_text=over)
