"""Traced runs: rebinding wrappers, in-memory spans and per-layer metrics.

The wrappers are installed from outside the package. Each public function
is rebound in every module that calls it, because ``from .geometry import
distances_to_probe`` copies the function into ``harvest``'s namespace:
wrapping only ``geometry.distances_to_probe`` would miss every call that
``aggregate_power`` makes. Methods are rebound on their class.

A span is ``(id, name, start, end, parent, thread, op)``. Each thread keeps
its own stack of open spans. A span that starts on a pool thread with an
empty stack takes as parent the innermost span open on the thread that
started the op, so the trials of a ``workers=2`` sweep hang under that
sweep. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from crowdharvest import collaboration, geometry, harvest, propagation, rng, scenario, scheduling, swipt
from crowdharvest.errors import DegenerateModelError, FitFailureError

# Per-layer metrics: name -> (unit, better, what it should move, where it should not).
PER_LAYER = {
    "rng.substream.calls": ("count", "lower", "trials_per_s on crowd-sparse", "casestudy only a little"),
    "rng.substream.s": ("s", "lower", "trials_per_s on crowd-sparse", "casestudy only a little"),
    "geometry.sample_ppp.calls": ("count", "lower", "wall_ref_s on casestudy", "crowd-sparse"),
    "geometry.sample_ppp.s": ("s", "lower", "wall_ref_s on casestudy", "crowd-sparse"),
    "geometry.sample_clustered.calls": ("count", "lower", "wall_ref_s on casestudy", "crowd-sparse"),
    "geometry.sample_clustered.s": ("s", "lower", "wall_ref_s on casestudy", "crowd-sparse"),
    "geometry.points_sampled": ("count", "lower", "wall_ref_s on casestudy", "crowd-sparse"),
    "geometry.region_contains.s": ("s", "lower", "wall_ref_s on casestudy", "crowd-sparse"),
    "harvest.unique_deployment_share": ("ratio", "higher", "wall_ref_s on casestudy", "crowd-sparse (already 1.0)"),
    "geometry.distances_to_probe.calls": ("count", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "geometry.distances_to_probe.s": ("s", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "geometry.distances_to_probe.points": ("count", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "propagation.pathloss_db.s": ("s", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "propagation.draw_shadowing_db.s": ("s", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "propagation.shadowing_draws": ("count", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "harvest.aggregate_power.calls": ("count", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "harvest.aggregate_power.self_s": ("s", "lower", "trials_per_s on casestudy", "crowd-sparse only a little"),
    "harvest.points_used_share": ("ratio", "higher", "wall_ref_s on casestudy (direct k-nearest draw)", "crowd-sparse (no k-nearest)"),
    "harvest.parallel_efficiency": ("ratio", "higher", "trials_per_s on crowd-sparse (one pool per sweep)", "casestudy (workers=1)"),
    "harvest.upper_bound_sweep.s": ("s", "lower", "wall_ref_s on casestudy", "-"),
    "harvest.nearest_share_study.s": ("s", "lower", "wall_ref_s on casestudy", "-"),
    "scenario.run_case_study.s": ("s", "lower", "wall_ref_s on casestudy", "-"),
    "scenario.emit_report.s": ("s", "lower", "wall_ref_s on casestudy", "-"),
    "scenario.fit_failures": ("count", "lower", "wall_ref_s on casestudy (NaN exponents made visible)", "-"),
    "scheduling.offline_optimal.s": ("s", "lower", "instance_p90_s and instances_per_s on schedule", "policy, casestudy"),
    "scheduling.offline_optimal.p50_s": ("s", "lower", "instance_p90_s and instances_per_s on schedule", "policy, casestudy"),
    "scheduling.offline_optimal.p90_s": ("s", "lower", "instance_p90_s and instances_per_s on schedule", "policy, casestudy"),
    "scheduling.min_relay_time.s": ("s", "lower", "instance_p90_s and instances_per_s on schedule", "policy, casestudy"),
    "scheduling.min_relay_time.p90_s": ("s", "lower", "instance_p90_s and instances_per_s on schedule", "policy, casestudy"),
    "scheduling.brute_force_oracle.s": ("s", "lower", "wall_ref_s on schedule (floor of certification)", "-"),
    "scheduling.oracle_schedules": ("count", "lower", "wall_ref_s on schedule (floor of certification)", "-"),
    "scheduling.validate_schedule.s": ("s", "lower", "wall_ref_s on schedule (floor of certification)", "-"),
    "scheduling.mdp_policy_iteration.s": ("s", "lower", "wall_ref_s and failed_share on policy", "schedule"),
    "scheduling.value_iteration_gain.s": ("s", "lower", "wall_ref_s and failed_share on policy", "schedule"),
    "scheduling.threshold_policy.s": ("s", "lower", "wall_ref_s and failed_share on policy", "schedule"),
    "scheduling.transition_row.calls": ("count", "lower", "wall_ref_s and failed_share on policy", "schedule"),
    "scheduling.policy_iteration_failures": ("count", "lower", "wall_ref_s and failed_share on policy", "schedule"),
    "scheduling.evaluate_policy.s": ("s", "lower", "wall_ref_s on policy", "schedule"),
    "scheduling.evaluate_policy.slots_per_s": ("1/s", "higher", "wall_ref_s on policy", "schedule"),
    "scheduling.simulate_arrivals.s": ("s", "lower", "wall_ref_s on policy", "schedule"),
    "swipt.optimize_split.calls": ("count", "lower", "wall_ref_s on policy (small share)", "casestudy, schedule"),
    "swipt.optimize_split.s": ("s", "lower", "wall_ref_s on policy (small share)", "casestudy, schedule"),
    "swipt.objective_evals": ("count", "lower", "wall_ref_s on policy (small share)", "casestudy, schedule"),
    "collaboration.collab_schedule.calls": ("count", "lower", "wall_ref_s on policy (small share)", "casestudy, schedule"),
    "collaboration.collab_schedule.s": ("s", "lower", "wall_ref_s on policy (small share)", "casestudy, schedule"),
    "collaboration.frames": ("count", "lower", "wall_ref_s on policy (small share)", "casestudy, schedule"),
    "trace.overhead_s": ("s", "lower", "- (traced wall_s minus untraced wall_s)", "-"),
}


class Tracer:
    """Spans and counters of one traced pass; safe to use from pool threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.deployments: set = set()
        self.parallel_sweeps: list[tuple[int, int]] = []  # (span id, workers)
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> None:
        """Start a new op on the calling thread; pool spans attach to its open spans."""
        self.op += 1
        self._op_stack = self._stack()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, hook=None, spans: bool = True):
        """Wrapper recording a span (or only a call count) around ``fn``.

        ``hook(tracer, span_id, args, kwargs, result, error)`` runs after
        each call to record counts that belong to the layer.
        """
        if not spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.add(f"{name}.calls")
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = self._op_stack
                parent = op_stack[-1] if op_stack and op_stack is not stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident(), self.op))
                if hook is not None:
                    hook(self, span_id, args, kwargs, result, error)
        return traced


# ---------------------------------------------------------------------------
# Hooks: counts measured where the work happens.


def _points_hook(tracer, span_id, args, kwargs, result, error):
    if result is not None:
        tracer.add("geometry.points_sampled", result.count)


def _deployment_hook(tracer, span_id, args, kwargs, result, error):
    key = tuple(args) + tuple(sorted(kwargs.items()))
    with tracer._lock:
        tracer.deployments.add(key)
        tracer.counts["geometry.sample_process.calls"] += 1


def _distances_hook(tracer, span_id, args, kwargs, result, error):
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    tracer.add("geometry.distances_to_probe.points", len(xs))


def _shadowing_hook(tracer, span_id, args, kwargs, result, error):
    spec = args[0] if args else kwargs.get("spec")
    if result is not None and spec is not None and spec.enabled and spec.sigma_db != 0.0:
        tracer.add("propagation.shadowing_draws", len(result))


def _aggregate_hook(tracer, span_id, args, kwargs, result, error):
    k = kwargs.get("k_nearest")
    if k is not None:
        deployment = args[1] if len(args) > 1 else kwargs["deployment"]
        tracer.add("harvest.k_nearest_points_used", min(k, deployment.count))
        tracer.add("harvest.k_nearest_points_sampled", deployment.count)


def _sweep_hook(tracer, span_id, args, kwargs, result, error):
    workers = kwargs.get("workers", 1)
    if workers > 1:
        with tracer._lock:
            tracer.parallel_sweeps.append((span_id, workers))


def _fit_hook(tracer, span_id, args, kwargs, result, error):
    if isinstance(error, FitFailureError):
        tracer.add("scenario.fit_failures")


def _oracle_hook(tracer, span_id, args, kwargs, result, error):
    problem = args[0] if args else kwargs["problem"]
    levels = args[1] if len(args) > 1 else kwargs.get("power_levels", 8)
    tracer.add("scheduling.oracle_schedules", (2 * levels + 1) ** problem.slot_count)


def _policy_iteration_hook(tracer, span_id, args, kwargs, result, error):
    if isinstance(error, DegenerateModelError):
        tracer.add("scheduling.policy_iteration_failures")


def _evaluate_hook(tracer, span_id, args, kwargs, result, error):
    if not kwargs.get("exact", False):
        tracer.add("scheduling.evaluate_policy.slots", kwargs.get("horizon", 100_000))


def _collab_hook(tracer, span_id, args, kwargs, result, error):
    if result is not None:
        tracer.add("collaboration.frames", len(result.frames))


# (span name, [(namespace, attribute)], hook, record spans)
TARGETS = [
    ("rng.substream", [(rng, "substream"), (geometry, "substream"), (harvest, "substream"),
                       (scheduling, "substream"), (collaboration, "substream")], None, True),
    ("geometry.sample_ppp", [(geometry, "sample_ppp")], _points_hook, True),
    ("geometry.sample_clustered", [(geometry, "sample_clustered")], _points_hook, True),
    ("geometry.sample_process", [(geometry, "sample_process"), (harvest, "sample_process")],
     _deployment_hook, True),
    ("geometry.region_contains", [(geometry.Region, "contains")], None, True),
    ("geometry.distances_to_probe", [(geometry, "distances_to_probe"),
                                     (harvest, "distances_to_probe")], _distances_hook, True),
    ("propagation.pathloss_db", [(propagation, "pathloss_db"), (harvest, "pathloss_db")], None, True),
    ("propagation.draw_shadowing_db", [(propagation, "draw_shadowing_db"),
                                       (harvest, "draw_shadowing_db")], _shadowing_hook, True),
    ("harvest.aggregate_power", [(harvest, "aggregate_power")], _aggregate_hook, True),
    ("harvest.upper_bound_sweep", [(harvest, "upper_bound_sweep"), (scenario, "upper_bound_sweep")],
     _sweep_hook, True),
    ("harvest.nearest_share_study", [(harvest, "nearest_share_study"),
                                     (scenario, "nearest_share_study")], None, True),
    ("harvest.scaling_exponent", [(scenario, "scaling_exponent")], _fit_hook, True),
    ("scenario.run_case_study", [(scenario, "run_case_study")], None, True),
    ("scenario.emit_report", [(scenario, "emit_report")], None, True),
    ("scheduling.offline_optimal", [(scheduling, "offline_optimal")], None, True),
    ("scheduling.min_relay_time", [(scheduling, "min_relay_time")], None, True),
    ("scheduling.brute_force_oracle", [(scheduling, "brute_force_oracle")], _oracle_hook, True),
    ("scheduling.validate_schedule", [(scheduling, "validate_schedule")], None, True),
    ("scheduling.mdp_policy_iteration", [(scheduling, "mdp_policy_iteration")],
     _policy_iteration_hook, True),
    ("scheduling.value_iteration_gain", [(scheduling, "value_iteration_gain")], None, True),
    ("scheduling.threshold_policy", [(scheduling, "threshold_policy")], None, True),
    ("scheduling.evaluate_policy", [(scheduling, "evaluate_policy")], _evaluate_hook, True),
    ("scheduling.simulate_arrivals", [(scheduling, "simulate_arrivals"),
                                      (collaboration, "simulate_arrivals")], None, True),
    ("scheduling.transition_row", [(scheduling.BatteryMdp, "transition_row")], None, False),
    ("swipt.optimize_split", [(swipt, "optimize_split"), (scheduling, "optimize_split")], None, True),
    ("swipt.ts_throughput", [(swipt, "ts_throughput")], None, False),
    ("swipt.ps_throughput", [(swipt, "ps_throughput")], None, False),
    ("collaboration.collab_schedule", [(collaboration, "collab_schedule")], _collab_hook, True),
]


class Installed:
    """Wrappers bound into the package; ``remove()`` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        for name, places, hook, spans in TARGETS:
            for namespace, attr in places:
                original = namespace.__dict__.get(attr)
                if original is None:
                    # A later refactor may drop an import; its metric then reads 0.
                    self.missing.append(f"{getattr(namespace, '__name__', namespace)}.{attr}")
                    continue
                self.saved.append((namespace, attr, original))
                setattr(namespace, attr, tracer.wrap(name, original, hook, spans))

    def remove(self) -> None:
        for namespace, attr, original in reversed(self.saved):
            setattr(namespace, attr, original)
        self.saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_values(tracer: Tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer values of one pass, and the span durations used for percentiles."""
    total = defaultdict(float)
    calls = Counter()
    durations = defaultdict(list)
    children = defaultdict(list)
    by_id = {}
    for span_id, name, start, end, parent, thread, op in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
        by_id[span_id] = (name, start, end, thread)
        if parent is not None:
            children[parent].append((start, end, thread))
    counts = tracer.counts

    def self_time(name: str) -> float:
        s = 0.0
        for span_id, (n, start, end, thread) in by_id.items():
            if n == name:
                inner = [(a, b) for a, b, _ in children.get(span_id, [])]
                s += (end - start) - _union_length(inner, start, end)
        return s

    busy = capacity = 0.0
    for span_id, workers in tracer.parallel_sweeps:
        name, start, end, thread = by_id[span_id]
        capacity += workers * (end - start)
        busy += sum(b - a for a, b, t in children.get(span_id, []) if t != thread)

    def share(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    values = {
        "rng.substream.calls": calls["rng.substream"],
        "rng.substream.s": total["rng.substream"],
        "geometry.sample_ppp.calls": calls["geometry.sample_ppp"],
        "geometry.sample_ppp.s": total["geometry.sample_ppp"],
        "geometry.sample_clustered.calls": calls["geometry.sample_clustered"],
        "geometry.sample_clustered.s": total["geometry.sample_clustered"],
        "geometry.points_sampled": counts["geometry.points_sampled"],
        "geometry.region_contains.s": total["geometry.region_contains"],
        "harvest.unique_deployment_share": share(len(tracer.deployments),
                                                 counts["geometry.sample_process.calls"]),
        "geometry.distances_to_probe.calls": calls["geometry.distances_to_probe"],
        "geometry.distances_to_probe.s": total["geometry.distances_to_probe"],
        "geometry.distances_to_probe.points": counts["geometry.distances_to_probe.points"],
        "propagation.pathloss_db.s": total["propagation.pathloss_db"],
        "propagation.draw_shadowing_db.s": total["propagation.draw_shadowing_db"],
        "propagation.shadowing_draws": counts["propagation.shadowing_draws"],
        "harvest.aggregate_power.calls": calls["harvest.aggregate_power"],
        "harvest.aggregate_power.self_s": self_time("harvest.aggregate_power"),
        "harvest.points_used_share": share(counts["harvest.k_nearest_points_used"],
                                           counts["harvest.k_nearest_points_sampled"]),
        "harvest.parallel_efficiency": share(busy, capacity),
        "harvest.upper_bound_sweep.s": total["harvest.upper_bound_sweep"],
        "harvest.nearest_share_study.s": total["harvest.nearest_share_study"],
        "scenario.run_case_study.s": total["scenario.run_case_study"],
        "scenario.emit_report.s": total["scenario.emit_report"],
        "scenario.fit_failures": counts["scenario.fit_failures"],
        "scheduling.offline_optimal.s": total["scheduling.offline_optimal"],
        "scheduling.min_relay_time.s": total["scheduling.min_relay_time"],
        "scheduling.brute_force_oracle.s": total["scheduling.brute_force_oracle"],
        "scheduling.oracle_schedules": counts["scheduling.oracle_schedules"],
        "scheduling.validate_schedule.s": total["scheduling.validate_schedule"],
        "scheduling.mdp_policy_iteration.s": total["scheduling.mdp_policy_iteration"],
        "scheduling.value_iteration_gain.s": total["scheduling.value_iteration_gain"],
        "scheduling.threshold_policy.s": total["scheduling.threshold_policy"],
        "scheduling.transition_row.calls": counts["scheduling.transition_row.calls"],
        "scheduling.policy_iteration_failures": counts["scheduling.policy_iteration_failures"],
        "scheduling.evaluate_policy.s": total["scheduling.evaluate_policy"],
        "scheduling.evaluate_policy.slots_per_s": share(counts["scheduling.evaluate_policy.slots"],
                                                        total["scheduling.evaluate_policy"]),
        "scheduling.simulate_arrivals.s": total["scheduling.simulate_arrivals"],
        "swipt.optimize_split.calls": calls["swipt.optimize_split"],
        "swipt.optimize_split.s": total["swipt.optimize_split"],
        "swipt.objective_evals": counts["swipt.ts_throughput.calls"] + counts["swipt.ps_throughput.calls"],
        "collaboration.collab_schedule.calls": calls["collaboration.collab_schedule"],
        "collaboration.collab_schedule.s": total["collaboration.collab_schedule"],
        "collaboration.frames": counts["collaboration.frames"],
    }
    pooled = {name: durations[name] for name in ("scheduling.offline_optimal",
                                                 "scheduling.min_relay_time")}
    return values, pooled


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by Python's exclusive method; 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def combine(passes: list[dict[str, float]], pooled: dict[str, list[float]],
            overhead_s: float) -> dict[str, float]:
    """Median of each per-pass value; percentiles over the pooled span durations."""
    out = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    out["scheduling.offline_optimal.p50_s"] = quantile(pooled["scheduling.offline_optimal"], 50)
    out["scheduling.offline_optimal.p90_s"] = quantile(pooled["scheduling.offline_optimal"], 90)
    out["scheduling.min_relay_time.p90_s"] = quantile(pooled["scheduling.min_relay_time"], 90)
    out["trace.overhead_s"] = overhead_s
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "name", "start", "end", "parent", "thread", "op")
    with path.open("w") as f:
        for span in tracer.spans:
            f.write(json.dumps(dict(zip(keys, span))) + "\n")
