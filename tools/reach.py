"""List the functions in ``src/`` that no command, gate or benchmark workload enters,
and the parameters and dataclass fields that none of them sets.

Run from anywhere, with no arguments:

    python3 tools/reach.py

In a temporary directory, under ``sys.setprofile`` and
``threading.setprofile``, it runs:

* every ``crowdharvest`` command on the default config at small trial
  counts, the file-input forms included (``--config``, ``deploy
  --from-csv``, ``schedule solve --problem``, ``collab --trace``), and
  then every command again with ``--config`` naming a perturbed copy of
  that config, in which every numeric field has moved inside its valid
  range;
* the acceptance gates, ``tests/test_acceptance.py``;
* one pass of each benchmark workload of ``perfbench/workloads.py``: its
  recorded digests are only read, and its output goes to the temporary
  directory and is removed by the workload's own cleanup.

It then prints each function definition in ``src/crowdharvest`` that none
of them entered, one ``file:line qualified.name`` per line, and a count.
After that it prints each defaulted parameter (``file:line
qualified.name(parameter)``) and each dataclass field with a default
(``file:line Class.field``) that every entered call left at its default
value, and a count; the parameters of a function that was never entered
are not listed, since the function already is. A value that a command
reads from the config counts as set, since the perturbed run sets it.
Three commands run into
the documented failure exits, 3 (infeasible demand) and 4 (a malformed
input file, a value out of range). The tool exits 1 if a command exits
with another code or a gate or a workload op fails, since the lists
would then miss what the failed part reaches; a failed gate is printed
with its pytest node id and the first line of its reason.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import pkgutil
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
    ["swipt"],
    ["swipt", "--protocol", "ps"],
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
    (["sweep", "--target", "harvest", "--grid", "nan"], 4),  # a density out of range
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


def defaulted() -> dict:
    """Every defaulted parameter of the package, keyed by the code object a call runs.

    Each value lists ``(parameter, default, (file, line, label))``. A
    dataclass field with a default is a defaulted parameter of the class's
    generated ``__init__``; it is labelled ``Class.field`` at the class's
    line. Any other parameter is labelled ``qualified.name(parameter)`` at
    its function's first line.
    """
    import crowdharvest

    found = {}

    def add(func, owner=None):
        params = [p for p in inspect.signature(func).parameters.values()
                  if p.default is not inspect.Parameter.empty]
        if not params:  # also the methods dataclasses generates without defaults
            return
        code = func.__code__
        if owner is None:
            path, line = code.co_filename, code.co_firstlineno
            labels = [f"{func.__qualname__}({p.name})" for p in params]
        else:
            path, line = inspect.getsourcefile(owner), inspect.getsourcelines(owner)[1]
            labels = [f"{owner.__qualname__}.{p.name}" for p in params]
        rel = str(Path(path).relative_to(ROOT))
        found[code] = [(p.name, p.default, (rel, line, label)) for p, label in zip(params, labels)]

    for info in pkgutil.iter_modules(crowdharvest.__path__):
        module = importlib.import_module(f"crowdharvest.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                add(obj)
            elif inspect.isclass(obj):
                for name, attr in vars(obj).items():
                    func = getattr(attr, "__func__", attr)  # staticmethod, classmethod
                    if inspect.isfunction(func):
                        is_init = name == "__init__" and dataclasses.is_dataclass(obj)
                        add(func, owner=obj if is_init else None)
    return found


def is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except (TypeError, ValueError):  # an array, or a type that does not compare to it
        return False


def numeric_fields(value, path=()):
    """``(path, number)`` of every int or float field in a tree of dataclasses and tuples."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from numeric_fields(getattr(value, field.name), path + (field.name,))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from numeric_fields(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def with_field(value, path, new):
    """``value`` with the field at ``path`` replaced, every level rebuilt and so checked."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, tuple):
        return value[:head] + (with_field(value[head], rest, new),) + value[head + 1:]
    return replace(value, **{head: with_field(getattr(value, head), rest, new)})


def perturbed(config):
    """``config`` with every numeric field moved inside its valid range.

    An int moves by one, a float by 10% (a zero to 0.01), up if the config
    and its document reader accept that, else down; a field that accepts
    neither keeps its value.
    """
    from crowdharvest import scenario
    from crowdharvest.errors import SimulationError

    for path, value in list(numeric_fields(config)):
        if isinstance(value, int):
            moves = [value + 1, value - 1]
        else:
            moves = [value * 1.1, value * 0.9] if value else [0.01]
        for new in moves:
            try:
                candidate = with_field(config, path, new)
                scenario.config_from_dict(scenario.config_to_dict(candidate))
            except SimulationError:
                continue
            config = candidate
            break
    return config


@contextlib.contextmanager
def unprofiled():
    """No profile in this thread, so that the tool's own calls set no parameter."""
    profile = sys.getprofile()
    sys.setprofile(None)
    try:
        yield
    finally:
        sys.setprofile(profile)


def run_commands(failures: list[str]) -> None:
    from crowdharvest import cli, scenario

    Path("sites.csv").write_text(SITES_CSV)
    Path("trace.csv").write_text(TRACE_CSV)
    Path("problem.json").write_text(PROBLEM_JSON)
    config = scenario.load_config(ROOT / "configs" / "london.yaml")
    small = replace(config, case_study=replace(
        config.case_study, scaling_trials=20, nearest_share_draws=200))
    with unprofiled():
        scenario.save_config(small, Path("small.yaml"))
        scenario.save_config(perturbed(small), Path("perturbed.yaml"))
    # every command on the default config, then on the perturbed one
    runs = COMMANDS + [
        ([a if a != "small.yaml" else "perturbed.yaml" for a in argv]
         + ([] if "--config" in argv else ["--config", "perturbed.yaml"]), expected)
        for argv, expected in COMMANDS
    ]
    for argv, expected in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != expected:
            failures.append(f"crowdharvest {' '.join(argv)}: exit {code}, expected {expected}")


class FailedReports:
    """A pytest plugin that keeps each failed report as ``node id: first line of why``.

    A failure outside the test's call (setup, teardown, collection) also names its phase.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        self.keep(report)

    def pytest_collectreport(self, report) -> None:
        self.keep(report)

    def keep(self, report) -> None:
        if not report.failed:
            return
        crash = getattr(report.longrepr, "reprcrash", None)
        reason = crash.message if crash is not None else str(report.longrepr)
        where = report.nodeid if report.when == "call" else f"{report.nodeid} ({report.when})"
        self.lines.append(f"{where}: " + reason.strip().partition("\n")[0])


def run_gates(failures: list[str]) -> None:
    import pytest

    failed = FailedReports()
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests" / "test_acceptance.py")], plugins=[failed])
    failures.extend(f"acceptance gate {line}" for line in failed.lines)
    if code != 0 and not failed.lines:
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
    parameters: dict = {}
    unchecked: dict = {}  # code -> the parameters no call has set yet
    entered: set[tuple[str, int, str]] = set()
    set_somewhere: set[tuple[object, str]] = set()  # only grows, so threads need no lock

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
            checks = unchecked.get(code)
            if checks:
                values = frame.f_locals
                for name, default, _ in checks:
                    if not is_default(values[name], default):
                        set_somewhere.add((code, name))
                left = [c for c in checks if (code, c[0]) not in set_somewhere]
                if left:
                    unchecked[code] = left
                else:
                    unchecked.pop(code, None)

    failures: list[str] = []
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            parameters.update(defaulted())  # imports the package, so after setprofile
            unchecked.update(parameters)
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
    kept = sorted(
        where
        for code, checks in parameters.items()
        if (code.co_filename, code.co_firstlineno, code.co_name) in entered
        for name, _, where in checks
        if (code, name) not in set_somewhere
    )
    for path, line, label in kept:
        print(f"{path}:{line} {label}")
    total = sum(len(checks) for checks in parameters.values())
    print(f"{len(kept)} of {total} defaulted parameters and dataclass fields in src/ "
          "were left at their default by every entered call")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
