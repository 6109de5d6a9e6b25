"""Start-up contract: each command loads only the layers it runs.

Every check runs in a fresh interpreter, since this test process has
long since imported every module.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the names ``gicgrid/__init__.py`` bound eagerly before it resolved them on access
EXPORTS = {
    "data": ["ABSENT", "AcBranch", "BranchGmdData", "Bus", "BusGmdData", "CaseData",
             "CaseError", "CaseInvariantError", "CaseReferenceError", "CaseStructureError",
             "FieldSample", "FieldScenario", "Generator", "GmdBranch", "GmdBus", "Periods",
             "ThermalData", "estimate_missing_gsu", "load_scenario", "load_scenario_file",
             "make_ramp_scenario", "parse_case", "parse_case_file", "serialize_case"],
    "dcnet": ["DcSystem", "FieldVector", "assemble"],
    "coupling": ["AcSolution", "PowerFlowError", "ac_power_flow", "qloss", "sequential_gic_ac"],
    "thermal": ["ThermalTrace", "apparent_power", "simulate", "steady_rise"],
    "mitigation": ["MitigationInfeasible", "MitigationPlan", "OtsModel", "OtsOptions",
                   "VerifyReport", "build_model", "enumerate_solve", "solve", "verify_plan"],
    "lp": ["LpProblem", "LpResult", "lp_solve"],
}
DEFERRED = ["scipy.optimize", "gicgrid.mitigation", "gicgrid.lp"]


def _fresh(code: str):
    """Run ``code`` in a new interpreter; it prints one JSON value, returned."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_cli_import_defers_mitigation_and_highs():
    loaded = _fresh("import json, sys, gicgrid.cli\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in DEFERRED if m in loaded] == []
    assert {"gicgrid.data", "gicgrid.dcnet", "gicgrid.coupling", "gicgrid.thermal"} <= set(loaded)


def test_package_names_resolve_to_submodule_attributes():
    got = _fresh(
        "import importlib, json, sys, gicgrid\n"
        f"exports = {EXPORTS!r}\n"
        "bare = sorted(k for k in sys.modules if k.startswith('gicgrid.'))\n"
        "same = {n: getattr(gicgrid, n) is getattr(importlib.import_module('gicgrid.' + m), n)\n"
        "        for m, names in exports.items() for n in names}\n"
        "mods = {m: getattr(gicgrid, m) is sys.modules['gicgrid.' + m]\n"
        "        for m in exports}\n"
        "ns = {}\n"
        "exec('from gicgrid import *', ns)\n"
        "from gicgrid import cli\n"
        "try:\n"
        "    gicgrid.no_such_name\n"
        "    missing = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'bare': bare, 'same': same, 'mods': mods, 'dir': dir(gicgrid),\n"
        "                  'star': sorted(k for k in ns if k != '__builtins__'),\n"
        "                  'cli': cli is sys.modules['gicgrid.cli'], 'missing': missing,\n"
        "                  'version': gicgrid.__version__}))")
    names = [n for ns in EXPORTS.values() for n in ns]
    assert got["bare"] == []  # importing the package loads no layer
    assert [n for n in names if not got["same"][n]] == []
    assert all(got["mods"].values())
    assert set(names) | set(EXPORTS) <= set(got["dir"])
    assert set(names) | set(EXPORTS) <= set(got["star"])
    assert got["cli"] and got["version"] == "0.1.0"
    assert "no_such_name" in got["missing"]


def test_highs_loads_at_first_lp_solve():
    got = _fresh(
        "import json, sys\n"
        "import numpy as np, scipy.sparse as sp\n"
        "from gicgrid.lp import LpProblem, lp_solve\n"
        "prob = LpProblem(c=np.array([1.0, 1.0]), A_ub=sp.csr_matrix([[-1.0, -1.0]]),\n"
        "                 b_ub=np.array([-1.0]), A_eq=sp.csr_matrix((0, 2)), b_eq=np.empty(0),\n"
        "                 lb=np.zeros(2), ub=np.ones(2), lazy=np.array([-1]))\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "res = lp_solve(prob)\n"
        "print(json.dumps([before, 'scipy.optimize' in sys.modules,\n"
        "                  res.status, res.objective]))")
    assert got == [False, True, "optimal", 1.0]
