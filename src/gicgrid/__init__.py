"""Geomagnetically induced currents in power networks: quasi-dc solve,
ac power flow coupling, transformer heating, and time-extended switching
mitigation.

Every public name is imported from its submodule on first access
(PEP 562), so ``import gicgrid`` loads no layer and a command loads only
the layers it runs; HiGHS (scipy.optimize) loads at the first LP solve.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "data": ("ABSENT", "AcBranch", "BranchGmdData", "Bus", "BusGmdData", "CaseData",
             "CaseError", "CaseInvariantError", "CaseReferenceError", "CaseStructureError",
             "FieldSample", "FieldScenario", "Generator", "GmdBranch", "GmdBus", "Periods",
             "ThermalData", "estimate_missing_gsu", "load_scenario", "load_scenario_file",
             "make_ramp_scenario", "parse_case", "parse_case_file", "serialize_case"),
    "dcnet": ("DcSystem", "FieldVector", "assemble"),
    "coupling": ("AcSolution", "PowerFlowError", "ac_power_flow", "qloss", "sequential_gic_ac"),
    "thermal": ("ThermalTrace", "apparent_power", "simulate", "steady_rise"),
    "mitigation": ("MitigationInfeasible", "MitigationPlan", "OtsModel", "OtsOptions",
                   "VerifyReport", "build_model", "enumerate_solve", "solve", "verify_plan"),
    "lp": ("LpProblem", "LpResult", "lp_solve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
