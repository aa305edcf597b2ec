"""Workload definitions: inputs made from a workload seed, one timed pass, checks.

A workload is built in two steps. ``setup(name, seed, scale)`` loads the
scenario config and generates every input from the workload seed; it
returns a :class:`Workload`. ``Workload.rep()`` then runs one full pass of
the workload through crowdharvest's public API and checks its outputs,
returning an :class:`Outcome`. Every library call goes through its module
attribute (``harvest.upper_bound_sweep``, not a name imported from it), so
the traced run's rebinding wrappers see it.

Counts are the issue's full-size counts times the workload's ``scale``;
the structure of each workload (which calls, in which order, on which
model sizes) does not change with the scale.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from crowdharvest import collaboration, harvest, scenario, scheduling, swipt
from crowdharvest.errors import DegenerateModelError, ProblemTooLargeError
from crowdharvest.propagation import ShadowingSpec
from crowdharvest.rng import substream

ROOT = Path(__file__).resolve().parents[1]
CONFIG_PATH = ROOT / "configs" / "london.yaml"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
WORK_DIR = ROOT / "perfbench" / "out"

# Full-size counts from the workload table, and the scale each workload runs
# at so that one pass takes a few seconds on a 2-CPU machine.
DEFAULT_SCALE = {"casestudy": 1 / 20, "crowd-sparse": 1 / 2, "schedule": 1 / 10, "policy": 1 / 5}
CASESTUDY_VARIANTS = 16  # config seeds with recorded artifact digests
ARTIFACTS = ("table1.csv", "sweeps.csv", "report.json")

CRITERION_09_INSTANCES = 100
FIVE_SLOT_INSTANCES = 10
WIDE_LEVELS = 4  # power levels of the 5- and 6-slot ops (8 levels take 8-10 s per op)
REJECT_STATE_BOUND = 5_000  # between the 4th (~1.5k) and 5th (~19k) layer of a 6-slot problem

CROWD_TRIALS = 600
SHARE_DRAWS = 10_000  # criterion-05 size
SHARE_DENSITY = 5.0

DESK_BUCKETS = (16, 32, 64)
VI_BUCKETS = (16, 32)  # value iteration at 64 buckets alone takes 6-7 s, more than a pass holds
THRESHOLD_POINTS = 20
WIDE_BUCKETS = 128
MC_HORIZON = 100_000
FADING_DRAWS = 1000  # criterion-08 size
XI_GRID = np.linspace(0.0, 1.0, 21)


def scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


@dataclass
class Outcome:
    """Result of one pass: ops attempted, ops failed, and workload counters."""

    attempted: int = 0
    failed: int = 0
    known_failures: int = 0
    errors: list[str] = field(default_factory=list)
    trials: int = 0
    certify_s: list[float] = field(default_factory=list)
    reject_s: float = 0.0
    begin_op: Callable[[], None] = lambda: None  # the traced run starts a new op id here

    def op(self, name: str, fn: Callable[[], object], check: Callable[[object], str | None]):
        """Run one op; a raised error or a failed check counts it as failed."""
        self.begin_op()
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None
        problem = check(result)
        if problem:
            self.fail(f"{name}: {problem}")
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


@dataclass
class Workload:
    name: str
    seed: int
    scale: float
    definition: dict
    config_hash: str
    rep: Callable[[Outcome], None]
    warm_up: Callable[[], None]
    finish: Callable[[list[Outcome]], None] = lambda outcomes: None
    cleanup: Callable[[], None] = lambda: None

    @property
    def definition_hash(self) -> str:
        """Hash of what the workload runs: its definition, the config and this file."""
        doc = json.dumps({**self.definition, "config_hash": self.config_hash}, sort_keys=True)
        return hashlib.sha256(doc.encode() + Path(__file__).read_bytes()).hexdigest()[:16]


def setup(name: str, seed: int, scale: float | None = None) -> Workload:
    scale = DEFAULT_SCALE[name] if scale is None else scale
    config = scenario.load_config(CONFIG_PATH)
    makers = {
        "casestudy": _casestudy,
        "crowd-sparse": _crowd_sparse,
        "schedule": _schedule,
        "policy": _policy,
    }
    return makers[name](config, seed, scale)


# ---------------------------------------------------------------------------
# casestudy: the run users wait for, single-threaded.


def casestudy_config(config: scenario.ScenarioConfig, seed: int, scale: float):
    """Scaled case-study config; the workload seed picks one recorded config seed."""
    cs = config.case_study
    return replace(
        config,
        seed=config.seed + seed % CASESTUDY_VARIANTS,
        case_study=replace(
            cs,
            trials=scaled(cs.trials, scale),
            scaling_trials=scaled(cs.scaling_trials, scale),
            nearest_share_draws=scaled(cs.nearest_share_draws, scale),
        ),
    )


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in ARTIFACTS}


def _casestudy(config, seed, scale):
    cfg = casestudy_config(config, seed, scale)
    cs = cfg.case_study
    out_dir = WORK_DIR / f"casestudy-{os.getpid()}"
    recorded = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    key = scenario.config_hash(cfg)
    expected = recorded.get(key)
    per_pass = len(cfg.rats) * 2 * (cs.grid_points * (cs.trials + cs.scaling_trials) + cs.trials)
    trials = per_pass + cs.nearest_share_draws

    def rep(out: Outcome) -> None:
        out.trials = trials
        report = out.op("run_case_study", lambda: scenario.run_case_study(cfg, workers=1),
                        lambda r: None)
        if report is None:
            return

        def check(_paths) -> str | None:
            if expected is None:
                return f"no recorded digests for config {key}"
            got = artifact_digests(out_dir)
            bad = [n for n in ARTIFACTS if got[n] != expected[n]]
            return f"artifacts differ from recorded digests: {bad}" if bad else None

        out.op("emit_report", lambda: scenario.emit_report(report, out_dir), check)

    def warm_up() -> None:
        for rat in cfg.rats:
            profile = scenario.build_rat_profile(rat)
            model = scenario.build_pathloss_model(cfg.nlos, rat.carrier_frequency_hz)
            harvest.upper_bound_sweep(profile, [rat.density_range_per_km2[0]], model, 2,
                                      cfg.seed, region=cfg.region)

    definition = {"workload": "casestudy", "scale": scale, "workers": 1,
                  "case_study": vars(cs), "variants": CASESTUDY_VARIANTS}
    return Workload("casestudy", seed, scale, definition, scenario.config_hash(config), rep,
                    warm_up, cleanup=lambda: shutil.rmtree(out_dir, ignore_errors=True))


# ---------------------------------------------------------------------------
# crowd-sparse: few points per deployment, thread-pool sweeps.


def _crowd_sparse(config, seed, scale):
    nlos_shadow = ShadowingSpec(config.nlos.shadowing_sigma_db, config.nlos.shadowing_sigma_db > 0)
    trials = scaled(CROWD_TRIALS, scale)
    draws = scaled(SHARE_DRAWS, scale)
    grid_points = config.case_study.grid_points
    sweeps = []
    for rat_name in ("macro", "tv"):
        rat = config.rat(rat_name)
        lo, hi = rat.density_range_per_km2
        sweeps.append((
            rat_name,
            scenario.build_rat_profile(rat),
            np.geomspace(lo, hi, grid_points),
            scenario.build_pathloss_model(config.nlos, rat.carrier_frequency_hz),
        ))
    _, macro_profile, _, macro_model = sweeps[0]
    curves: dict[str, list] = {}

    def run_sweep(profile, grid, model, workers):
        return harvest.upper_bound_sweep(profile, grid, model, trials, seed, region=config.region,
                                         shadowing=nlos_shadow, scenario="nlos", workers=workers)

    def run_share():
        return harvest.nearest_share_study(macro_profile, SHARE_DENSITY, macro_model, draws, seed,
                                           region=config.region, shadowing=nlos_shadow)

    def rep(out: Outcome) -> None:
        out.trials = len(sweeps) * grid_points * trials + draws
        for rat_name, profile, grid, model in sweeps:
            curve = out.op(f"upper_bound_sweep[{rat_name}]",
                           lambda: run_sweep(profile, grid, model, 2), lambda c: None)
            curves.setdefault(rat_name, []).append(curve)
        out.op("nearest_share_study", run_share,
               lambda s: None if 0.0 < s[0] <= 1.0 else f"share {s[0]} outside (0, 1]")

    def finish(outcomes: list[Outcome]) -> None:
        """Sweep statistics must be bit-equal to a workers=1 reference."""
        for rat_name, profile, grid, model in sweeps:
            reference = run_sweep(profile, grid, model, 1)
            for curve, outcome in zip(curves.get(rat_name, []), outcomes):
                if curve is not None and curve != reference:
                    outcome.fail(f"upper_bound_sweep[{rat_name}]: workers=2 differs from workers=1")
        curves.clear()

    def warm_up() -> None:
        profile, model = sweeps[0][1], sweeps[0][3]
        harvest.upper_bound_sweep(profile, [1.0], model, 4, seed, region=config.region,
                                  shadowing=nlos_shadow, workers=2)

    definition = {"workload": "crowd-sparse", "scale": scale, "workers": 2, "trials": trials,
                  "rats": ["macro", "tv"], "grid_points": grid_points, "share_draws": draws,
                  "share_density_per_km2": SHARE_DENSITY}
    return Workload("crowd-sparse", seed, scale, definition, scenario.config_hash(config), rep,
                    warm_up, finish)


# ---------------------------------------------------------------------------
# schedule: the two-hop DP against its oracle and validator.


def criterion_09_problem(index: int, seed: int) -> scheduling.ScheduleProblem:
    """Criterion-09 instance ``index`` with its channel gains re-drawn from the workload seed.

    Slot count, arrivals, capacities, receive cost and delay constraint are
    those of the acceptance suite's instance ``index``. They decide which
    DP states merge, so keeping them fixed keeps the cost of a pass steady
    across seeds; the gains change every delivered-bits value.
    """
    suite = substream(index, "accept-problem")
    k = int(suite.integers(2, 5))
    source_arrivals = tuple(suite.uniform(0.0, 2.0, k))
    relay_arrivals = tuple(suite.uniform(0.0, 2.0, k))
    suite.uniform(0.2e-3, 2e-3, 2 * k)  # the suite's gains, replaced below
    caps = (float(suite.choice([2.0, math.inf])), float(suite.choice([2.0, math.inf])))
    rx_cost = float(suite.choice([0.0, 0.1]))
    delay = bool(suite.integers(0, 2))
    gains = substream(seed, "schedule", index)
    return scheduling.ScheduleProblem(
        slot_count=k,
        slot_duration_s=1.0,
        source_arrivals_j=source_arrivals,
        relay_arrivals_j=relay_arrivals,
        source_gains=tuple(gains.uniform(0.2e-3, 2e-3, k)),
        relay_gains=tuple(gains.uniform(0.2e-3, 2e-3, k)),
        noise_power_w=1e-9,
        source_capacity_j=caps[0],
        relay_capacity_j=caps[1],
        rx_energy_cost_j=rx_cost,
        delay_constrained=delay,
    )


def wide_problem(slots: int, seed: int, index: int) -> scheduling.ScheduleProblem:
    """Unbounded-battery instance with fixed arrivals and seed-drawn gains."""
    arrivals = substream(index, "schedule-wide", slots)
    gains = substream(seed, "schedule-wide", slots, index)
    return scheduling.ScheduleProblem(
        slot_count=slots,
        slot_duration_s=1.0,
        source_arrivals_j=tuple(arrivals.uniform(0.0, 2.0, slots)),
        relay_arrivals_j=tuple(arrivals.uniform(0.0, 2.0, slots)),
        source_gains=tuple(gains.uniform(0.2e-3, 2e-3, slots)),
        relay_gains=tuple(gains.uniform(0.2e-3, 2e-3, slots)),
        noise_power_w=1e-9,
    )


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / b if b > 0 else abs(a - b)


def _certify(problem, levels: int, with_min_relay: bool) -> str | None:
    """Solve, oracle-check and validate one instance; return a failure or None."""
    oracle = scheduling.brute_force_oracle(problem, levels)
    optimal = scheduling.offline_optimal(problem, levels)
    scheduling.validate_schedule(problem, oracle)
    scheduling.validate_schedule(problem, optimal)
    gap = _relative_gap(optimal.objective_value, oracle.objective_value)
    if gap > 1e-3:
        return f"DP {optimal.objective_value} vs oracle {oracle.objective_value} (gap {gap:.2e})"
    if with_min_relay and optimal.objective_value > 0:
        quickest = scheduling.min_relay_time(problem, optimal.objective_value, levels)
        scheduling.validate_schedule(problem, quickest)
        if sum(quickest.bits_per_slot) < optimal.objective_value * (1 - 1e-3):
            return "min_relay_time delivers less than the demand"
    return None


def criterion_09_indices(scale: float) -> list[int]:
    """Every (1/scale)-th criterion-09 instance, from an offset whose slot-count mix
    (at scale 1/10: three 2-slot, four 3-slot, three 4-slot) matches the full set's
    31/38/31; the 4-slot instances take most of the time."""
    stride = max(1, round(1 / scale))
    return list(range(7 % stride, CRITERION_09_INSTANCES, stride))


def _schedule(config, seed, scale):
    indices = criterion_09_indices(scale)
    instances = [criterion_09_problem(i, seed) for i in indices]
    five_slot = [wide_problem(5, seed, i) for i in range(scaled(FIVE_SLOT_INSTANCES, scale))]
    six_slot = wide_problem(6, seed, 0)

    def timed_certify(out: Outcome, name: str, problem, levels: int, with_min_relay: bool):
        start = time.perf_counter()
        out.op(name, lambda: _certify(problem, levels, with_min_relay), lambda failure: failure)
        return time.perf_counter() - start

    def reject() -> str | None:
        try:
            scheduling.offline_optimal(six_slot, WIDE_LEVELS, state_bound=REJECT_STATE_BOUND)
        except ProblemTooLargeError:
            return None
        return "6-slot problem was not rejected"

    def rep(out: Outcome) -> None:
        for i, problem in zip(indices, instances):
            out.certify_s.append(timed_certify(out, f"criterion-09[{i}]", problem, 8, True))
        for i, problem in enumerate(five_slot):
            timed_certify(out, f"five-slot[{i}]", problem, WIDE_LEVELS, False)
        start = time.perf_counter()
        out.op("six-slot reject", reject, lambda failure: failure)
        out.reject_s = time.perf_counter() - start

    def warm_up() -> None:
        _certify(criterion_09_problem(2, seed), 8, True)  # a 3-slot instance

    definition = {"workload": "schedule", "scale": scale, "levels": 8,
                  "criterion_09_indices": indices,
                  "five_slot": len(five_slot), "wide_levels": WIDE_LEVELS,
                  "reject_state_bound": REJECT_STATE_BOUND}
    return Workload("schedule", seed, scale, definition, scenario.config_hash(config), rep, warm_up)


# ---------------------------------------------------------------------------
# policy: battery MDP solvers, SWIPT splits and the collaboration frame split.


def desk_mdp(buckets: int, top_spend_j: int = 4) -> scheduling.BatteryMdp:
    return scheduling.BatteryMdp(
        arrivals=scheduling.MarkovArrivals((0.0, 2.0), ((0.8, 0.2), (0.2, 0.8))),
        battery_buckets=buckets,
        bucket_j=1.0,
        spend_levels_j=tuple(float(s) for s in range(top_spend_j + 1)),
        snr_per_joule=2.0,
    )


def mc_tolerance(mdp: scheduling.BatteryMdp, horizon: int) -> float:
    """Five standard errors of a Monte-Carlo gain over ``horizon`` slots.

    Rewards lie in [0, r_max], so their standard deviation is at most
    r_max / 2; the arrival chain's second eigenvalue lam stretches the
    variance of a time average by at most (1 + lam) / (1 - lam).
    """
    r_max = max(mdp.reward(a) for a in range(len(mdp.spend_levels_j)))
    lam = float(np.sort(np.abs(np.linalg.eigvals(mdp.arrivals.matrix)))[-2])
    return 5.0 * (r_max / 2.0) * math.sqrt((1.0 + lam) / (1.0 - lam) / horizon)


def _policy(config, seed, scale):
    models = [desk_mdp(b) for b in DESK_BUCKETS]
    wide = desk_mdp(WIDE_BUCKETS, top_spend_j=8)
    horizon = scaled(MC_HORIZON, scale)
    desk = swipt.LinkState(1e-3, 1e-3, 1e-9, 1.0)
    links = []
    for i in range(scaled(FADING_DRAWS, scale)):
        rng = substream(seed, "fade", i)
        links.append(desk.with_fading(float(rng.exponential()), float(rng.exponential())))
    c = config.collab
    process = scheduling.BernoulliArrivals(c.arrival_prob, c.arrival_energy_j)
    nodes = tuple(collaboration.NodeState(0.0, c.node_capacity_j, process, c.node_gain)
                  for _ in range(2))
    qos = collaboration.QosSpec(c.deadline_slots, c.horizon_slots)
    params = collaboration.CollabParams(xi=c.xi, decode_snr_threshold=c.decode_snr_threshold,
                                        noise_power_w=c.noise_power_w,
                                        frame_duration_s=c.frame_duration_s)

    def rep(out: Outcome) -> None:
        policies = []
        for mdp in models:
            best = out.op(f"mdp_policy_iteration[{mdp.battery_buckets}]",
                          lambda: scheduling.mdp_policy_iteration(mdp), lambda p: None)
            policies.append(best)
            if best is None:
                continue
            if mdp.battery_buckets in VI_BUCKETS:
                out.op(f"value_iteration_gain[{mdp.battery_buckets}]",
                       lambda: scheduling.value_iteration_gain(mdp, span_tol=1e-9),
                       lambda g: None if abs(best.gain - g) < 1e-6
                       else f"|PI - VI| = {abs(best.gain - g):.2e}")
            thetas = np.linspace(0.0, mdp.capacity_j, THRESHOLD_POINTS)
            out.op(f"threshold_policy[{mdp.battery_buckets}]",
                   lambda: [scheduling.threshold_policy(mdp, float(t), spend_j=2.0).gain for t in thetas],
                   lambda gains: None if max(gains) <= best.gain + 1e-9
                   else f"threshold gain {max(gains)} beats PI gain {best.gain}")
        # Known defect: policy iteration goes multichain on this model and
        # raises DegenerateModelError. It is counted apart from the failed
        # ops so the defect stays visible without failing the benchmark; once
        # fixed, the policy must dominate the threshold family.
        out.begin_op()
        out.attempted += 1
        try:
            wide_policy = scheduling.mdp_policy_iteration(wide)
            top = max(scheduling.threshold_policy(wide, float(t), spend_j=2.0).gain
                      for t in np.linspace(0.0, wide.capacity_j, THRESHOLD_POINTS))
        except DegenerateModelError:
            out.known_failures += 1
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            out.fail(f"mdp_policy_iteration[{WIDE_BUCKETS}]: {type(exc).__name__}: {exc}")
        else:
            if wide_policy.gain + 1e-9 < top:
                out.fail(f"mdp_policy_iteration[{WIDE_BUCKETS}]: gain below a threshold policy")
        if policies[0] is not None:
            exact = policies[0].gain
            tol = mc_tolerance(models[0], horizon)
            out.op("evaluate_policy",
                   lambda: scheduling.evaluate_policy(policies[0], horizon=horizon, seed=seed),
                   lambda g: None if abs(g - exact) <= tol
                   else f"Monte-Carlo gain {g} vs exact {exact} (tolerance {tol:.3g})")
        ts_vals, ps_vals = [], []

        def fading_loop():
            for link in links:
                ts_vals.append(swipt.optimize_split("ts", link, tol=1e-6, coarse_points=51)[1])
                ps_vals.append(swipt.optimize_split("ps", link, tol=1e-6, coarse_points=51)[1])
            return float(np.mean(ts_vals)), float(np.mean(ps_vals))

        out.op("optimize_split fading loop", fading_loop,
               lambda m: None if m[1] >= m[0] else f"mean PS {m[1]} below mean TS {m[0]}")
        out.op("optimize_frame_split",
               lambda: collaboration.optimize_frame_split(nodes, qos, params, XI_GRID, seed),
               lambda r: None if r[0] is not None and math.isfinite(r[1]) else f"no split chosen: {r}")

    def warm_up() -> None:
        # The first linear solves of each model size pay a one-off cost that a
        # long-lived process pays once; setup_s, timed in fresh interpreters,
        # holds it.
        for mdp in models:
            scheduling.mdp_policy_iteration(mdp)
            scheduling.threshold_policy(mdp, 2.0, spend_j=2.0)
        scheduling.evaluate_policy(scheduling.threshold_policy(models[0], 2.0), horizon=100, seed=seed)
        swipt.optimize_split("ps", links[0], tol=1e-6, coarse_points=51)
        collaboration.collab_schedule(nodes, qos, params, seed)

    definition = {"workload": "policy", "scale": scale, "desk_buckets": list(DESK_BUCKETS),
                  "vi_buckets": list(VI_BUCKETS),
                  "wide_buckets": WIDE_BUCKETS, "threshold_points": THRESHOLD_POINTS,
                  "mc_horizon": horizon, "fading_draws": len(links), "xi_grid": XI_GRID.tolist()}
    return Workload("policy", seed, scale, definition, scenario.config_hash(config), rep, warm_up)
