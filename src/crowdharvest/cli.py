"""Command-line front end.

Subcommands: deploy, harvest, sweep, swipt, schedule, collab, casestudy,
pathloss. Global flags: --config, --seed, --out; harvest, sweep, schedule
and casestudy also take --trials. Exit codes:
0 success, 2 configuration error, 3 infeasible problem, 4 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _guard, collaboration, geometry, harvest, scenario, scheduling, swipt
from ._documents import read_text, write_csv
from .errors import ConfigError, FitFailureError, InfeasibleDemandError, SimulationError
from .propagation import pathloss_db
from .rng import substream


def _load_config(args: argparse.Namespace) -> scenario.ScenarioConfig:
    cfg = scenario.load_config(args.config) if args.config else scenario.default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _count(text: str) -> int:
    """A count flag's value: an integer of at least 1, checked when the arguments parse."""
    try:
        value = int(text)
        _guard.count(value=value)
    except ValueError as exc:  # InvalidParameterError is a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _grid(text: str) -> np.ndarray:
    """The ``--grid`` value: comma-separated numbers, checked when the arguments parse."""
    try:
        return np.asarray([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out) if args.out else Path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def cmd_deploy(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    rat = cfg.rat(args.rat)
    out = _out_dir(args)
    if args.from_csv:
        deployment, rejects = scenario.ingest_locations_csv(args.from_csv, cfg.region)
        for line in rejects:
            print(line, file=sys.stderr)
        _write(out / f"{rat.name}_deployment.json", geometry.deployment_to_json(deployment))
        print(f"ingested {deployment.count} transmitters "
              f"({deployment.density_per_km2:.4g}/km^2, {len(rejects)} rejected)")
        return 0
    density = args.density if args.density is not None else rat.density_range_per_km2[1]
    deployment = geometry.sample_process(rat.spatial_process, density, cfg.region, cfg.seed)
    _write(out / f"{rat.name}_points.csv", geometry.deployment_to_csv(deployment))
    _write(out / f"{rat.name}_deployment.json", geometry.deployment_to_json(deployment))
    print(f"{deployment.count} transmitters at {density:g}/km^2 (seed {cfg.seed})")
    return 0


def cmd_pathloss(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    model, _ = cfg.channel(cfg.rat(args.rat), args.scenario)
    d_lo = max(args.d_min, model.reference_distance_m)
    grid = np.geomspace(d_lo, args.d_max, args.points)
    text = write_csv(
        ["d_m", "loss_db"], ((f"{d:.6g}", f"{pathloss_db(model, float(d)):.6g}") for d in grid)
    )
    if args.out:
        _write(_out_dir(args) / f"pathloss_{args.rat}_{args.scenario}.csv", text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_harvest(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    rat = cfg.rat(args.rat)
    model, shadowing = cfg.channel(rat, args.scenario)
    density = args.density if args.density is not None else rat.density_range_per_km2[1]
    draws = 1000 if args.trials is None else args.trials
    share, mean_fraction = harvest.nearest_share_study(
        rat, density, model, draws, cfg.seed,
        region=cfg.region, shadowing=shadowing,
    )
    curve = harvest.upper_bound_sweep(
        rat, [density], model, draws, cfg.seed,
        region=cfg.region, shadowing=shadowing, scenario=args.scenario,
    )
    p = curve.points[0]
    print(f"rat={args.rat} scenario={args.scenario} density={density:g}/km^2 draws={draws}")
    print(f"median power {p.median_power_w:.6g} W, mean {p.mean_power_w:.6g} W, "
          f"std {p.std_power_w:.6g} W")
    print(f"median density {p.median_density_w_per_hz:.6g} W/Hz")
    print(f"nearest-node energy share {share:.4f}, mean per-draw fraction {mean_fraction:.4f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    grid = args.grid
    if args.target == "harvest":
        rat = cfg.rat(args.rat)
        model, shadowing = cfg.channel(rat, args.scenario)
        if grid is None:
            lo, hi = rat.density_range_per_km2
            grid = np.geomspace(lo, hi, cfg.case_study.grid_points)
        trials = cfg.case_study.trials if args.trials is None else args.trials
        curve = harvest.upper_bound_sweep(
            rat, grid, model, trials, cfg.seed,
            region=cfg.region, shadowing=shadowing, scenario=args.scenario,
        )
        _write(out / f"sweep_harvest_{args.rat}_{args.scenario}.csv", harvest.sweep_to_csv(curve))
        try:
            slope = f"{harvest.scaling_exponent(curve):.3f}"
        except FitFailureError as exc:  # recorded as run_case_study records it
            slope = f"nan ({exc})"
        print(f"harvest sweep: {grid.size} densities, fitted slope {slope}")
        return 0
    if args.target == "swipt_split":
        if grid is None:
            grid = np.linspace(0.0, 1.0, 101)
        s = cfg.swipt
        rows = swipt.split_sweep(args.protocol, s.link(), grid, s.efficiency, s.mode())
        _write(out / f"sweep_swipt_{args.protocol}.csv", write_csv(
            ["split", "throughput_bps_hz"], ((f"{a:.6g}", f"{v:.10g}") for a, v in rows)
        ))
        best = max(rows, key=lambda r: r[1])
        print(f"swipt split sweep: best {args.protocol} split {best[0]:.4g} "
              f"-> {best[1]:.6g} bits/s/Hz")
        return 0
    if args.target == "schedule_theta":
        mdp = _desk_mdp(cfg)
        if grid is None:
            grid = np.linspace(0.0, mdp.capacity_j, 20)
        rows = [(float(t), scheduling.threshold_policy(mdp, float(t)).gain) for t in grid]
        _write(out / "sweep_schedule_theta.csv", write_csv(
            ["theta_j", "gain_bits_per_slot"], ((f"{t:.6g}", f"{g:.10g}") for t, g in rows)
        ))
        best = max(rows, key=lambda r: r[1])  # the first best theta
        print(f"threshold sweep: best theta {best[0]:.4g} J, gain {best[1]:.6g} bits/slot")
        return 0
    if args.target == "collab_xi":
        nodes, qos, params = _collab_setup(cfg)
        if grid is None:
            grid = np.linspace(0.0, 1.0, 21)
        rows = collaboration._split_objectives(nodes, qos, params, grid, cfg.seed)
        _write(out / "sweep_collab_xi.csv", write_csv(
            ["xi", "objective"], ((f"{xi:.6g}", f"{obj:.10g}") for xi, obj in rows)
        ))
        xi_star, obj = max(rows, key=lambda r: r[1])  # the first best split
        print(f"frame-split sweep: best xi {xi_star:.4g}, objective {obj:.6g}")
        return 0
    raise ConfigError(f"unknown sweep target {args.target!r}")


def cmd_swipt(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    s = cfg.swipt
    split, value = swipt.optimize_split(args.protocol, s.link(), s.efficiency, s.mode())
    name = "alpha" if args.protocol == "ts" else "rho"
    print(f"optimal {args.protocol} split {name}={split:.6g} -> {value:.6g} bits/s/Hz")
    return 0


def _desk_problem(cfg: scenario.ScenarioConfig) -> scheduling.ScheduleProblem:
    sched = cfg.scheduling
    k = sched.slot_count
    rng = substream(cfg.seed, "desk-problem")
    return scheduling.ScheduleProblem(
        slot_count=k,
        slot_duration_s=sched.slot_duration_s,
        source_arrivals_j=tuple(rng.uniform(0.0, 2.0, k)),
        relay_arrivals_j=tuple(rng.uniform(0.0, 2.0, k)),
        source_gains=tuple([sched.source_gain] * k),
        relay_gains=tuple([sched.relay_gain] * k),
        noise_power_w=sched.noise_power_w,
        source_capacity_j=math.inf if sched.source_capacity_j is None else sched.source_capacity_j,
        relay_capacity_j=math.inf if sched.relay_capacity_j is None else sched.relay_capacity_j,
        rx_energy_cost_j=sched.rx_energy_cost_j,
    )


def _desk_mdp(cfg: scenario.ScenarioConfig) -> scheduling.BatteryMdp:
    buckets = cfg.scheduling.battery_buckets
    chain = scheduling.MarkovArrivals(
        states_j=(0.0, 2.0), transitions=((0.8, 0.2), (0.2, 0.8))
    )
    return scheduling.BatteryMdp(
        arrivals=chain,
        battery_buckets=buckets,
        bucket_j=1.0,
        spend_levels_j=(0.0, 1.0, 2.0, 3.0, 4.0),
        snr_per_joule=2.0,
    )


def cmd_schedule(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if args.action == "solve":
        problem = (
            scheduling.ScheduleProblem.from_json(read_text(args.problem))
            if args.problem else _desk_problem(cfg)
        )
        if args.min_time is not None:
            sched = scheduling.min_relay_time(problem, args.min_time, cfg.scheduling.power_levels)
            print(f"min relay slots: {sched.objective_value:g} "
                  f"(delivered {sum(sched.bits_per_slot):.6g} bits)")
        else:
            sched = scheduling.offline_optimal(problem, cfg.scheduling.power_levels)
            print(f"offline optimum: {sched.objective_value:.6g} bits")
        scheduling.validate_schedule(problem, sched)
        _write(out / "schedule.csv", scheduling.schedule_to_csv(sched))
        return 0
    if args.action == "mdp":
        mdp = _desk_mdp(cfg)
        policy = scheduling.mdp_policy_iteration(mdp)
        vi_gain = scheduling.value_iteration_gain(mdp)
        print(f"policy-iteration gain {policy.gain:.8g} bits/slot "
              f"(value iteration {vi_gain:.8g})")
        _write(out / "policy.csv", write_csv(["battery_bucket", "energy_state", "spend_j"], (
            (b, e, f"{mdp.spend_levels_j[policy.action_at(b, e)]:g}")
            for b in range(mdp.battery_buckets)
            for e in range(len(mdp.arrivals.states_j))
        )))
        _write(out / "policy.json", policy.to_json())
        return 0
    if args.action == "evaluate":
        mdp = _desk_mdp(cfg)
        policy = scheduling.mdp_policy_iteration(mdp)
        horizon = 100_000 if args.trials is None else args.trials
        mc = scheduling.evaluate_policy(policy, horizon=horizon, seed=cfg.seed)
        exact = scheduling.evaluate_policy(policy, exact=True)
        print(f"policy gain: exact {exact:.8g}, monte-carlo {mc:.8g} ({horizon} slots)")
        return 0
    raise ConfigError(f"unknown schedule action {args.action!r}")


def _collab_setup(cfg: scenario.ScenarioConfig):
    c = cfg.collab
    process = scheduling.BernoulliArrivals(c.arrival_prob, c.arrival_energy_j)
    nodes = (
        collaboration.NodeState(0.0, c.node_capacity_j, process, c.node_gain),
        collaboration.NodeState(0.0, c.node_capacity_j, process, c.node_gain),
    )
    qos = collaboration.QosSpec(c.deadline_slots, c.horizon_slots)
    params = collaboration.CollabParams(
        xi=c.xi,
        decode_snr_threshold=c.decode_snr_threshold,
        noise_power_w=c.noise_power_w,
        frame_duration_s=c.frame_duration_s,
    )
    return nodes, qos, params


def cmd_collab(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if args.demo:
        nodes, qos, params = collaboration.rescue_demo()
    elif args.trace:
        a, b, _events = collaboration.trace_from_csv(read_text(args.trace))
        base_nodes, qos, params = _collab_setup(cfg)
        nodes = (
            replace(base_nodes[0], arrival_process=scheduling.DeterministicArrivals(tuple(a))),
            replace(base_nodes[1], arrival_process=scheduling.DeterministicArrivals(tuple(b))),
        )
        qos = collaboration.QosSpec(cfg.collab.deadline_slots, len(a))
    else:
        nodes, qos, params = _collab_setup(cfg)
    result = collaboration.collab_schedule(nodes, qos, params, cfg.seed)
    _write(out / "collab_frames.csv", collaboration.frames_to_csv(result))
    print(f"deliveries {result.delivered_count}, violations {result.violations} "
          f"over {qos.horizon} slots (deadline {qos.max_inter_delivery})")
    if args.no_jt_compare:
        no_jt = collaboration.collab_schedule(
            nodes, qos, replace(params, jt_enabled=False), cfg.seed
        )
        print(f"without joint transmission: violations {no_jt.violations}")
    return 0


def cmd_casestudy(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.trials is not None:
        cfg = replace(cfg, case_study=replace(cfg.case_study, trials=args.trials))
    report = scenario.run_case_study(cfg, workers=args.workers)
    out = _out_dir(args)
    paths = scenario.emit_report(report, out)
    for p in paths:
        print(f"wrote {p}")
    print(f"config {report.config_hash} seed {report.seed} runtime {report.runtime_s:.1f}s")
    for row in report.table:
        print(
            f"  {row.rat:6s} table density {row.table_density_per_km2:8.4g}/km^2  "
            f"LoS {row.peak_power_w * 1e6:10.4g} uW  "
            f"({row.peak_power_density_w_per_hz * 1e15:10.4g} fW/Hz)"
        )
    print(f"  nearest-node energy share {report.nearest_share:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdharvest",
        description="RF energy-harvesting relay simulator: deployments, link budgets, "
        "SWIPT optimisation, scheduling, and collaboration.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario YAML (defaults to the bundled scenario)")
    common.add_argument("--seed", type=int, help="override the scenario seed")
    common.add_argument("--out", help="output directory (default ./out)")
    trials = argparse.ArgumentParser(add_help=False)  # for the commands that read it
    trials.add_argument("--trials", type=_count, help="draws (harvest), trials per density "
                        "(sweep, casestudy) or Monte-Carlo slots (schedule evaluate)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deploy", parents=[common], help="sample or ingest a deployment")
    p.add_argument("--rat", default="macro")
    p.add_argument("--density", type=float, help="nodes per km^2 (default: range top)")
    p.add_argument("--from-csv", help="ingest transmitter locations from an x_m,y_m file")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("pathloss", parents=[common], help="loss-vs-distance CSV")
    p.add_argument("--rat", default="macro")
    p.add_argument("--scenario", choices=["los", "nlos"], default="nlos")
    p.add_argument("--d-min", type=float, default=1.0)
    p.add_argument("--d-max", type=float, default=5000.0)
    p.add_argument("--points", type=_count, default=64)
    p.set_defaults(func=cmd_pathloss)

    p = sub.add_parser("harvest", parents=[common, trials],
                       help="aggregate power at random probes")
    p.add_argument("--rat", default="macro")
    p.add_argument("--scenario", choices=["los", "nlos"], default="nlos")
    p.add_argument("--density", type=float)
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("sweep", parents=[common, trials], help="parameter sweeps with CSV output")
    p.add_argument(
        "--target",
        choices=["harvest", "swipt_split", "schedule_theta", "collab_xi"],
        required=True,
    )
    p.add_argument("--rat", default="macro")
    p.add_argument("--scenario", choices=["los", "nlos"], default="los")
    p.add_argument("--protocol", choices=["ts", "ps"], default="ts")
    p.add_argument("--grid", type=_grid, help="comma-separated grid values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("swipt", parents=[common], help="optimise a SWIPT link")
    p.add_argument("--protocol", choices=["ts", "ps"], default="ts")
    p.set_defaults(func=cmd_swipt)

    p = sub.add_parser("schedule", parents=[common, trials],
                       help="offline schedules and MDP policies")
    p.add_argument("action", choices=["solve", "mdp", "evaluate"])
    p.add_argument("--problem", help="schedule problem JSON")
    p.add_argument("--min-time", type=float, help="demand (bits) for minimum relay time")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("collab", parents=[common], help="two-node collaboration runs")
    p.add_argument("--demo", action="store_true", help="run the deterministic rescue scenario")
    p.add_argument("--trace", help="arrival trace CSV (slot,arrival_a_j,arrival_b_j,event)")
    p.add_argument("--no-jt-compare", action="store_true",
                   help="also run with joint transmission disabled")
    p.set_defaults(func=cmd_collab)

    p = sub.add_parser("casestudy", parents=[common, trials], help="full multi-RAT case study")
    p.add_argument("--workers", type=_count, default=1)
    p.set_defaults(func=cmd_casestudy)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDemandError as exc:
        print(f"infeasible: {exc} (max achievable {exc.max_achievable_bits:.6g} bits)",
              file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
