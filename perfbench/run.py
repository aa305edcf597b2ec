"""crowdharvest benchmark: one workload per process, timed, checked, optionally traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload casestudy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in a fresh interpreter
    python3 perfbench/run.py --compare A.json B.json      # refuses different workload hashes

A run first starts five fresh interpreters, each of which imports the
package, loads the config, generates the workload's inputs from the seed and
warms up; ``setup_s`` is the median of their wall times, so it holds every
one-off first-call cost. The run then sets the workload up once more in its
own process and repeats full passes of the workload until ``--seconds`` have
elapsed, collecting garbage before each pass so that every pass starts from
the same heap state. ``wall_s``, in the summary, is the fastest pass.

On a shared machine the speed of the host switches between regimes that
last from seconds to minutes, and the same pass takes up to 1.7 times as
long in a slow one; a run that falls wholly into a slow regime reads slow
however long it is. So before every pass, and once after the last, the run
times a fixed calibration mix of interpreter and numpy work that is no part
of the program, and the gated ``wall_ref_s`` is the mean pass scaled by
``REFERENCE_CALIBRATION_S`` over the mean calibration: the mean pass in
seconds of a host on which the calibration takes the reference time. The
calibrations sample the host's speed across the same stretch of time as the
passes, so the host's speed cancels and the program's does not. The raw
fastest and median passes, the mean calibration and the pass count are in
the summary.

With ``--trace 1`` passes alternate between untraced and traced; the traced
passes give the per-layer metrics (medians over the traced passes), and the
difference of the fastest traced and untraced passes is the tracing
overhead. Every op's output is checked; a failed check counts its op as
failed and the run goes on. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A result file
with provenance goes to ``perfbench/out/``; traced runs also write their
spans there.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("casestudy", "crowd-sparse", "schedule", "policy")
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
# About what calibration_s() takes on the 2-CPU Xeon host the benchmark was
# defined on, in its fast regime; it only fixes the unit of wall_ref_s.
REFERENCE_CALIBRATION_S = 0.13


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT", help="compare two result files")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload or --compare is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def require_sources() -> None:
    """The benchmark runs the checkout's own sources, never an installed copy."""
    missing = [p for p in (ROOT / "src" / "crowdharvest" / "__init__.py",
                           ROOT / "configs" / "london.yaml") if not p.is_file()]
    if missing:
        sys.exit(f"benchmark: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
                 "run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def provenance(workload) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crowdharvest").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "config_hash": workload.config_hash,
        "workload": workload.name,
        "seed": workload.seed,
        "scale": workload.scale,
        "workload_hash": workload.definition_hash,
    }


SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workload = workloads.setup(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]) if sys.argv[5] else None)
workload.warm_up()
workload.cleanup()
"""


def cold_setup_s(name: str, seed: int, scale: float | None) -> float:
    """Wall time of a fresh interpreter that imports the package, sets the
    workload up and warms it up: process start to the first timed op."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT / "perfbench"), str(ROOT / "src"),
                    name, str(seed), "" if scale is None else repr(scale)],
                   check=True, timeout=170)
    return time.perf_counter() - start


def calibration_s() -> float:
    """Wall time of a fixed mix of interpreter and numpy work that calls no
    crowdharvest code: a reading of the host's speed at this moment."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    for _ in range(40):  # small tables, so that the calibration adds nothing to peak_rss_mb
        table = {}
        for i in range(5_000):
            table[(i % 997, i)] = float(i)
        sorted(table.items(), key=lambda item: -item[1])
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(800):
        x = np.sqrt(np.abs(np.sin(x) * 1.5 + 0.25))
    matrix = np.eye(64) * 2.0 + 0.01
    for _ in range(100):
        np.linalg.solve(matrix, x[:64])
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale: float | None = None) -> dict:
    require_sources()
    import tracing
    import workloads

    setup_times = [cold_setup_s(name, seed, scale) for _ in range(SETUP_REPEATS)]
    workload = workloads.setup(name, seed, scale)
    workload.warm_up()

    plain, traced, outcomes, passes, calibrations = [], [], [], [], []
    pooled: dict[str, list[float]] = {}
    last_tracer = None
    unwrapped: set[str] = set()
    try:
        run_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - run_start
            done = elapsed >= seconds and plain and (traced or not trace)
            gc.collect()  # every pass starts from the same heap state
            calibrations.append(calibration_s())
            if done:
                break
            trace_this = bool(trace) and len(traced) < len(plain)
            outcome = workloads.Outcome()
            tracer = installed = None
            if trace_this:
                tracer = tracing.Tracer()
                outcome.begin_op = tracer.begin_op
                installed = tracing.Installed(tracer)
                unwrapped.update(installed.missing)
            start = time.perf_counter()
            try:
                workload.rep(outcome)
            finally:
                wall = time.perf_counter() - start
                if installed is not None:
                    installed.remove()
            outcomes.append(outcome)
            if tracer is None:
                plain.append(wall)
                continue
            traced.append(wall)
            values, durations = tracing.layer_values(tracer)
            passes.append(values)
            for layer, spans in durations.items():
                pooled.setdefault(layer, []).extend(spans)
            last_tracer = tracer
        workload.finish(outcomes)
    finally:
        workload.cleanup()

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    known = sum(o.known_failures for o in outcomes)
    wall_s = min(plain)
    certify = [s for o in outcomes for s in o.certify_s]
    summary = {
        "setup_s": statistics.median(setup_times),
        "wall_ref_s": (statistics.fmean(plain) * REFERENCE_CALIBRATION_S
                       / statistics.fmean(calibrations)),
        "wall_s": wall_s,
        "wall_median_s": statistics.median(plain),
        "calibration_s": statistics.fmean(calibrations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": (failed + known) / attempted,
    }
    if outcomes[0].trials:
        summary["trials_per_s"] = outcomes[0].trials / wall_s
    if name == "schedule":
        summary["instances_per_s"] = len(outcomes[0].certify_s) / wall_s
        summary["instance_p50_s"] = statistics.median(certify)
        summary["instance_p90_s"] = tracing.quantile(certify, 90)
        summary["reject_s"] = statistics.median(o.reject_s for o in outcomes)
    if trace:
        metrics = tracing.combine(passes, pooled, min(traced) - wall_s)
        units = {metric: spec[0] for metric, spec in tracing.PER_LAYER.items()}
        tracing.write_spans(last_tracer, OUT / f"spans-{name}.jsonl")
    else:
        metrics = {metric: summary[metric] for metric in END_TO_END}
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]} for metric in units},
        "summary": summary,
        "known_failures": known,
        "errors": sorted({e for o in outcomes for e in o.errors}),
        "unwrapped": sorted(unwrapped),
        "passes": {"untraced_s": plain, "traced_s": traced},
        "setup_repeats_s": setup_times,
        "calibrations_s": calibrations,
        "provenance": provenance(workload),
    }


SUMMARY_UNITS = {"setup_s": "s", "wall_ref_s": "s", "wall_s": "s", "wall_median_s": "s",
                 "calibration_s": "s", "peak_rss_mb": "MB",
                 "failed_share": "ratio", "trials_per_s": "1/s", "instances_per_s": "1/s",
                 "instance_p50_s": "s", "instance_p90_s": "s", "reject_s": "s"}


def report(result: dict, trace: int) -> None:
    prov = result["provenance"]
    print(f"# {prov['workload']} seed={prov['seed']} scale={prov['scale']:g} "
          f"workload_hash={prov['workload_hash']} config_hash={prov['config_hash']}")
    print(f"# cpus={prov['cpu_count']} python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']} commit={prov['git_commit']} source={prov['source_sha256']}")
    passes = result["passes"]
    print(f"# passes: {len(passes['untraced_s'])} untraced, {len(passes['traced_s'])} traced")
    for name, value in result["summary"].items():
        print(f"{name:>16} {value:14.6g} {SUMMARY_UNITS[name]}")
    print(f"{'attempted':>16} {result['attempted']:14d} ops")
    print(f"{'failed':>16} {result['failed']:14d} ops")
    if result["known_failures"]:
        print(f"{'known_failures':>16} {result['known_failures']:14d} ops "
              "(128-bucket policy iteration, DegenerateModelError)")
    if trace:
        for name, metric in result["metrics"].items():
            print(f"{name:>40} {metric['value']:14.6g} {metric['unit']}")
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    for target in result["unwrapped"]:
        print(f"not traced (missing): {target}", file=sys.stderr)


def write_result(result: dict, trace: int) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    prov = result["provenance"]
    path = OUT / f"result-{prov['workload']}-seed{prov['seed']}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"# result written to {path.relative_to(ROOT)}")


def run_all(args) -> dict:
    """Each workload in a fresh interpreter: no heap or GC state carries over,
    and each peak_rss_mb belongs to one workload."""
    require_sources()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"benchmark: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def compare(paths: list[str]) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    ha, hb = a["provenance"]["workload_hash"], b["provenance"]["workload_hash"]
    if ha != hb:
        print(f"refusing to compare: workload hashes differ ({ha} != {hb})", file=sys.stderr)
        return 3
    for name in a["metrics"]:
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        change = f"{(vb - va) / va:+.2%}" if va else "n/a"
        print(f"{name:>40} {va:14.6g} {vb:14.6g} {change:>9} {a['metrics'][name]['unit']}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if args.workload == "all":
        result = run_all(args)
    else:
        full = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(full, args.trace)
        write_result(full, args.trace)
        result = {key: full[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
