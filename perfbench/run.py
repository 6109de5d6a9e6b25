"""gicgrid benchmark: CLI commands timed end to end, layers timed by tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client sends the workload's commands one at a
time, in process, through ``gicgrid.cli.run``, until ``--seconds`` have
passed, and checks every command's outputs.  The last line of standard
output is a JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CASES = os.path.join(ROOT, "cases")

MITIGATE_DT = 2.5          # minutes: T = 144 periods on the 6 h ramp
STORM_DT = 0.25            # minutes: 5,761 grid points over the day
GRID_BUSES = 785           # ac buses; dc nodes = GRID_BUSES + GRID_GSUS
GRID_GSUS = 315
AC_FIELD = 1.0             # V/km for the two ac runs
SETUP_REPEATS = 5

# Counts that must repeat exactly from cycle to cycle.
EXACT_COUNTS = ("lp.simplex_iters", "lp.calls", "mitigation.nodes", "mitigation.lp_cols",
                "mitigation.lp_rows_ub", "mitigation.lp_rows_eq", "dcnet.solve_calls",
                "coupling.nr_iterations")

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gicgrid.cli
from gicgrid.data import parse_case_file
parse_case_file(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


class Workload:
    """Inputs made from the seed, the command cycle and its output checks."""

    def __init__(self, seed: int, work: str):
        self.inp = os.path.join(work, "in")
        self.out = os.path.join(work, "out")
        os.makedirs(self.inp)
        os.makedirs(self.out)
        self.case = ""      # the case whose first parse set-up times

    def commands(self) -> list[tuple[str, list[str]]]:
        """(output directory name, argv) per command of one cycle."""
        raise NotImplementedError

    def check(self, name: str) -> list[str]:
        raise NotImplementedError


class MitigateEpri21(Workload):
    """The paper's 21-bus reproduction: mitigate, then verify the plan."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.case = os.path.join(CASES, "epri21.json")
        self.scenario = os.path.join(CASES, "ramp_3p2.csv")
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.objective = json.load(fh)["mitigate_objective"]

    def commands(self):
        common = ["--case", self.case, "--scenario", self.scenario, "--dt", str(MITIGATE_DT)]
        plan = os.path.join(self.out, "mitigate", "plan.json")
        return [("mitigate", ["mitigate", *common, "--out", os.path.join(self.out, "mitigate")]),
                ("verify", ["verify", *common, "--plan", plan,
                            "--out", os.path.join(self.out, "verify")])]

    def check(self, name):
        d = os.path.join(self.out, name)
        if name == "mitigate":
            return checks.check_plan(d, self.objective) + checks.non_finite(d)
        with open(os.path.join(d, "verify.json"), encoding="utf-8") as fh:
            ok = json.load(fh)["ok"]
        return ([] if ok else ["verify.json: ok is false"]) + checks.non_finite(d)


class ThermalStormEpri21(Workload):
    """A day-long storm on epri21 at 15 s steps: many tiny dc solves."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.case = os.path.join(CASES, "epri21.json")
        self.samples = gen.storm_samples(seed)
        self.scenario = os.path.join(self.inp, "storm.csv")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            fh.write(gen.scenario_csv(self.samples))
        with open(self.case, encoding="utf-8") as fh:
            self.doc = json.load(fh)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.unit_currents = json.load(fh)["epri21_unit_currents"]

    def commands(self):
        return [("thermal", ["thermal", "--case", self.case, "--scenario", self.scenario,
                             "--dt", str(STORM_DT), "--out", os.path.join(self.out, "thermal")])]

    def check(self, name):
        d = os.path.join(self.out, name)
        return (checks.check_thermal(d, self.doc, self.unit_currents, self.samples, STORM_DT)
                + checks.non_finite(d))


class Grid1kDcAc(Workload):
    """A synthetic ~1.1k-node grid: a 31-point dc sweep, then ac at two directions."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.doc = gen.synthetic_grid(GRID_BUSES, GRID_GSUS, seed)
        self.case = os.path.join(self.inp, "grid.json")
        with open(self.case, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        self.samples = gen.sweep_samples(seed)
        self.scenario = os.path.join(self.inp, "sweep.csv")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            fh.write(gen.scenario_csv(self.samples))
        first = round(float(np.random.default_rng([seed, 1]).uniform(0.0, 180.0)), 2)
        self.directions = {"ac1": first, "ac2": first + 90.0}
        self.oracle = checks.DcOracle(self.doc)

    def commands(self):
        cmds = [("dc", ["dc", "--case", self.case, "--scenario", self.scenario, "--dt", "1",
                        "--out", os.path.join(self.out, "dc")])]
        for name, bearing in self.directions.items():
            cmds.append((name, ["ac", "--case", self.case, "--field", str(AC_FIELD),
                                "--dir", str(bearing), "--out", os.path.join(self.out, name)]))
        return cmds

    def check(self, name):
        d = os.path.join(self.out, name)
        if name == "dc":
            found = checks.check_dc(d, self.oracle, self.samples)
        else:
            found = checks.check_ac(d, self.doc, self.oracle, AC_FIELD, self.directions[name])
        return found + checks.non_finite(d)


WORKLOADS = {"mitigate_epri21": MitigateEpri21,
             "thermal_storm_epri21": ThermalStormEpri21,
             "grid1k_dc_ac": Grid1kDcAc}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(case: str) -> float:
    """Import plus first parse of the case, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, case],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in process; returns (exit code, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, sink.getvalue()


def checked(workload: Workload, name: str) -> list[str]:
    """The workload's output check; a check that cannot read the outputs fails."""
    try:
        return workload.check(name)
    except Exception as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_cycle(workload: Workload, cli, tracer) -> dict:
    """One pass over the workload's commands, each checked after it returns."""
    latencies, problems = [], []
    out_bytes = failed = 0
    for name, argv in workload.commands():
        gc.collect()        # the previous check's garbage is not the command's
        t0 = time.perf_counter()
        if tracer is not None:
            code, text = tracer.span("cli." + argv[0], invoke, cli, argv)
        else:
            code, text = invoke(cli, argv)
        latencies.append((argv[0], time.perf_counter() - t0))
        found = [f"exit code {code}: {text.strip()[-400:]}"] if code != 0 \
            else checked(workload, name)
        problems += [f"{name}: {p}" for p in found]
        failed += bool(found)
        if not found:
            out_bytes += dir_bytes(os.path.join(workload.out, name))
    return {"latencies": latencies, "total": sum(s for _, s in latencies),
            "bytes": out_bytes, "problems": problems, "failed": failed}


def run_cycles(workload: Workload, seconds: float, trace: bool):
    """Repeat the cycle for ``seconds``: a warm-up cycle, then plain cycles, or
    plain and traced cycles in turn when tracing.  A set-up sample is taken
    after every cycle, so both spread over the same stretch of time.
    Returns (cycles, set-up samples)."""
    from gicgrid import cli

    cycles, setup = [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        if not cycles:
            role = "warmup"
        else:
            role = "traced" if trace and cycles[-1]["role"] == "plain" else "plain"
        if role == "traced":
            tracer.reset()
            tracer.install()
            try:
                cycle = run_cycle(workload, cli, tracer)
            finally:
                tracer.uninstall()
            cycle.update(spans=tracer.spans, counts=dict(tracer.counts),
                         missing=tracer.missing)
        else:
            cycle = run_cycle(workload, cli, None)
        cycle["role"] = role
        cycles.append(cycle)
        setup.append(measure_setup(workload.case))
        roles = {c["role"] for c in cycles}
        if time.perf_counter() - start >= seconds and "plain" in roles \
                and (not trace or "traced" in roles):
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(workload.case))
    return cycles, setup


def tail(values: list[float]) -> dict:
    """Median and the highest percentile that has at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 11:
        out[f"p{100.0 * (n - 10) / n:.1f}"] = xs[n - 11]
    return out


INCLUSIVE = {
    "data.parse_s": {"data.parse_case_file", "data.parse_case", "data.validate_case"},
    "data.scenario_load_s": {"data.load_scenario_file", "data.load_scenario"},
    "data.field_at_s": {"data.field_at"},
    "dcnet.assemble_s": {"dcnet.assemble"},
    "dcnet.solve_s": {"dcnet.solve_dc"},
    "dcnet.effective_s": {"dcnet.effective_gic"},
    "coupling.power_flow_s": {"coupling.ac_power_flow"},
    "coupling.qloss_s": {"coupling.qloss"},
    "thermal.topoil_s": {"thermal.topoil_series"},
    "mitigation.build_model_s": {"mitigation.build_model"},
    "lp.solve_s": {"lp.lp_solve"},
    "lp.highs_s": {"highs.linprog"},
}

COUNT_KEYS = ("data.field_at_calls", "dcnet.assemble_calls", "dcnet.solve_calls",
              "dcnet.nodes", "coupling.power_flow_calls", "coupling.nr_iterations",
              "mitigation.nodes", "mitigation.lp_cols", "mitigation.lp_rows_ub",
              "mitigation.lp_rows_eq", "lp.calls", "lp.optimal", "lp.simplex_iters")


def layer_metrics(cycles: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics averaged over traced cycles, and per-cycle exact counts."""
    traced = [c for c in cycles if c["role"] == "traced"]
    plain = [c for c in cycles if c["role"] == "plain"]
    sums: dict[str, float] = {}
    seen_counts: dict[str, list[int]] = {k: [] for k in EXACT_COUNTS}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for c in traced:
        spans, counts = c["spans"], c["counts"]
        own = tracing.self_times(spans)
        for layer in tracing.LAYERS[:-1]:    # highs time is lp.highs_s
            add(f"{layer}.self_s", sum(t for s, t in zip(spans, own) if s.layer == layer))
        add("thermal.simulate_self_s",
            sum(t for s, t in zip(spans, own) if s.name == "thermal.simulate"))
        add("mitigation.bb_self_s",
            sum(t for s, t in zip(spans, own) if s.name == "mitigation.solve"))
        add("mitigation.verify_self_s",
            sum(t for s, t in zip(spans, own) if s.name == "mitigation.verify_plan"))
        for key, names in INCLUSIVE.items():
            add(key, tracing.inclusive(spans, names))
        add("lp.root_s", tracing.first_descendant_time(spans, "mitigation.solve", "lp.lp_solve"))
        add("cli.bytes_out", c["bytes"])
        add("trace.cycle_s", c["total"])
        for key in COUNT_KEYS:
            add(key, counts.get(key, 0))
        for key in EXACT_COUNTS:
            seen_counts[key].append(counts.get(key, 0))
    n = len(traced)
    metrics = {k: v / n for k, v in sums.items()}
    optimal = metrics.pop("lp.optimal")
    metrics["lp.optimal_share"] = optimal / metrics["lp.calls"] if metrics["lp.calls"] else 0.0
    metrics["trace.untraced_cycle_s"] = statistics.fmean(c["total"] for c in plain)
    metrics["trace.overhead_s"] = metrics["trace.cycle_s"] - metrics["trace.untraced_cycle_s"]
    return metrics, seen_counts


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    threads = {k: os.environ.get(k, "unset (library default)")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": commit}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in (os.path.join(SRC, "gicgrid", "__init__.py"), os.path.join(CASES, "epri21.json")):
        if not os.path.exists(need):
            print(f"perfbench: {os.path.relpath(need, ROOT)} not found; run from the root "
                  "of a gicgrid source checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    import gicgrid
    if os.path.dirname(os.path.abspath(gicgrid.__file__)) != os.path.join(SRC, "gicgrid"):
        print(f"perfbench: imported gicgrid from {gicgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        cycles, setup = run_cycles(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    plain = [c for c in cycles if c["role"] == "plain"]
    per_command: dict[str, list[float]] = {}
    for c in plain:
        for name, s in c["latencies"]:
            per_command.setdefault(f"{name}_s", []).append(s)
    attempted = sum(len(c["latencies"]) for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    problems = [f"cycle {k} {p}" for k, c in enumerate(cycles) for p in c["problems"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "client": "closed loop, 1 client, one command at a time, in process",
        "cycles": {role: sum(c["role"] == role for c in cycles)
                   for role in ("warmup", "plain", "traced")},
        "cycle_s": {**tail([c["total"] for c in plain]),
                    "samples": [c["total"] for c in plain]},
        "command_latency_s": {k: tail(v) for k, v in per_command.items()},
        "setup_s": tail(setup),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "problems": problems[:20],
    }
    if args.trace:
        metrics, seen_counts = layer_metrics(cycles)
        drift = {k: v for k, v in seen_counts.items() if len(set(v)) > 1}
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS[:-1])
        report["accounting_s"] = {"self_times_plus_highs": self_sum + metrics["lp.highs_s"],
                                  "traced_cycle": metrics["trace.cycle_s"]}
        report["untraced_targets"] = next(c["missing"] for c in cycles if c["role"] == "traced")
        report["exact_counts"] = {k: v[0] for k, v in seen_counts.items() if v}
        report["count_drift"] = drift
        units = {k: ("s" if k.endswith("_s") else "B" if k.endswith("bytes_out")
                     else "share" if k.endswith("_share") else "count") for k in metrics}
    else:
        metrics = {"cycle_s": statistics.median(c["total"] for c in plain),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {"cycle_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    print(json.dumps(report, indent=1, default=float))
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for key in sorted(metrics):
        print(f"{key:32s} {metrics[key]:>16.6g} {units[key]}")
    if args.trace and report["count_drift"]:
        print(f"WARNING nondeterministic counts: {report['count_drift']}")
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
