"""Record the reference values the output checks compare against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json:

* ``epri21_unit_currents``: dc current per gmd branch of the bundled
  ``epri21`` case under a 1 V/km northward and a 1 V/km eastward field.
  The dc solve is linear in the field, so these two vectors give every
  current of any uniform-field scenario; the thermal check builds its
  expected effective GICs from them.
* ``mitigate_objective``: the optimum of the ``mitigate_epri21`` model found
  by exhaustive enumeration (``--solver enum``), which the branch-and-bound
  result is checked against.

Run it only when the physics of the program changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gicgrid.data import load_scenario_file, parse_case_file
    from gicgrid.dcnet import FieldVector, assemble, solve_dc
    from gicgrid.mitigation import OtsOptions, build_model, enumerate_solve

    from run import MITIGATE_DT

    case = parse_case_file(os.path.join(ROOT, "cases", "epri21.json"))
    north = solve_dc(assemble(case, FieldVector(1.0, 0.0))).branch_currents
    east = solve_dc(assemble(case, FieldVector(0.0, 1.0))).branch_currents
    # branches outside the solve set (blocked or out of service) carry no current
    currents = {str(e.index): [north.get(e.index, 0.0), east.get(e.index, 0.0)]
                for e in case.gmd_branches}

    scenario = load_scenario_file(os.path.join(ROOT, "cases", "ramp_3p2.csv"), dt=MITIGATE_DT)
    model = build_model(case, scenario, OtsOptions(dt=MITIGATE_DT))
    plan = enumerate_solve(model)

    doc = {"epri21_unit_currents": currents, "mitigate_objective": plan.objective}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
