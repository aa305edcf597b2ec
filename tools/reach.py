"""List the functions in ``src/`` that no command, gate or benchmark workload enters.

Run from anywhere, with no arguments:

    python3 tools/reach.py

In a temporary directory, under ``sys.setprofile`` and
``threading.setprofile``, it runs:

* every ``crowdharvest`` command on the default config at small trial
  counts, the file-input forms included (``--config``, ``deploy
  --from-csv``, ``schedule solve --problem``, ``collab --trace``);
* the acceptance gates, ``tests/test_acceptance.py``;
* one pass of each benchmark workload of ``perfbench/workloads.py``: its
  recorded digests are only read, and its output goes to the temporary
  directory and is removed by the workload's own cleanup.

It then prints each function definition in ``src/crowdharvest`` that none
of them entered, one ``file:line qualified.name`` per line, and a count.
Two commands run into the documented failure exits, 3 (infeasible
demand) and 4 (a malformed input file). The tool exits 1 if a command
exits with another code or a gate or a workload op fails, since the list
would then miss what the failed part reaches.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crowdharvest"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave the checkout as it was

SITES_CSV = "x_m,y_m\n100.0,100.0\n2000.0,2000.0\n-5.0,1.0\n"
TRACE_CSV = "slot,arrival_a_j,arrival_b_j,event\n" + "".join(
    f"{k},{a},{b},{k % 3 == 0:d}\n"
    for k, (a, b) in enumerate([(4, 0), (0, 0), (0, 0), (0, 0), (0, 4), (0, 0), (2, 2), (0, 0)])
)
PROBLEM_JSON = (
    '{"slot_count": 3, "slot_duration_s": 1.0, "source_arrivals_j": [1.0, 0.5, 2.0],'
    ' "relay_arrivals_j": [0.5, 1.0, 0.0], "source_gains": [1e-3, 1e-3, 1e-3],'
    ' "relay_gains": [1e-3, 1e-3, 1e-3], "noise_power_w": 1e-9,'
    ' "source_capacity_j": null, "relay_capacity_j": 4.0}'
)
# (arguments, expected exit code); 3 and 4 are the documented failure exits
COMMANDS = [(argv, 0) for argv in [
    ["deploy"],
    ["deploy", "--rat", "femto", "--density", "50"],
    ["deploy", "--from-csv", "sites.csv"],
    ["pathloss"],
    ["pathloss", "--rat", "tv", "--scenario", "los", "--out", "out"],
    ["harvest", "--trials", "50"],
    ["harvest", "--rat", "femto", "--scenario", "los", "--trials", "50"],
    ["sweep", "--target", "harvest", "--trials", "20"],
    ["sweep", "--target", "harvest", "--grid", "1,2,3", "--trials", "5"],
    ["sweep", "--target", "swipt_split"],
    ["sweep", "--target", "swipt_split", "--protocol", "ps"],
    ["sweep", "--target", "schedule_theta"],
    ["sweep", "--target", "collab_xi"],
    ["swipt", "--points", "11"],
    ["swipt", "--protocol", "ps", "--points", "11"],
    ["schedule", "solve"],
    ["schedule", "solve", "--min-time", "20"],
    ["schedule", "solve", "--problem", "problem.json"],
    ["schedule", "mdp"],
    ["schedule", "evaluate", "--trials", "2000"],
    ["collab", "--no-jt-compare"],
    ["collab", "--demo", "--no-jt-compare"],
    ["collab", "--trace", "trace.csv"],
    ["casestudy", "--config", "small.yaml", "--trials", "20", "--workers", "2"],
]] + [
    (["schedule", "solve", "--min-time", "1e6"], 3),  # infeasible demand
    (["collab", "--trace", "sites.csv"], 4),  # wrong header
]


def definitions() -> dict[tuple[str, int, str], tuple[str, int, str]]:
    """Every function definition of the package: (file, first line, name) -> where it is.

    The first line is the one the code object carries: the first
    decorator's line for a decorated function.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    where = (str(path.relative_to(ROOT)), child.lineno, prefix + child.name)
                    found[(str(path), first, child.name)] = where
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def run_commands(failures: list[str]) -> None:
    from crowdharvest import cli, scenario

    Path("sites.csv").write_text(SITES_CSV)
    Path("trace.csv").write_text(TRACE_CSV)
    Path("problem.json").write_text(PROBLEM_JSON)
    config = scenario.load_config(ROOT / "configs" / "london.yaml")
    small = replace(config, case_study=replace(
        config.case_study, scaling_trials=20, nearest_share_draws=200))
    scenario.save_config(small, Path("small.yaml"))
    for argv, expected in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != expected:
            failures.append(f"crowdharvest {' '.join(argv)}: exit {code}, expected {expected}")


def run_gates(failures: list[str]) -> None:
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests" / "test_acceptance.py")])
    if code != 0:
        failures.append(f"acceptance gates: pytest exit {int(code)}")


def run_workloads(failures: list[str]) -> None:
    import workloads

    workloads.WORK_DIR = Path("perfbench-out")
    for name in workloads.DEFAULT_SCALE:
        workload = workloads.setup(name, seed=1)
        outcome = workloads.Outcome()
        try:
            workload.warm_up()
            workload.rep(outcome)
            workload.finish([outcome])
        finally:
            workload.cleanup()
        failures.extend(f"workload {name}: {error}" for error in outcome.errors)


def main() -> int:
    found = definitions()
    entered: set[tuple[str, int, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    failures: list[str] = []
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            run_commands(failures)
            run_gates(failures)
            run_workloads(failures)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(start)
    missed = sorted(where for key, where in found.items() if key not in entered)
    for path, line, name in missed:
        print(f"{path}:{line} {name}")
    print(f"{len(missed)} of {len(found)} function definitions in src/ were never entered")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
