"""Acceptance suite: every release gate runs here at its stated tolerance.

Each test prints one `[acceptance] <name>: PASS` line (visible with
``pytest -s`` or on failure). The case study is executed once per
parallelism degree by a session fixture and shared across the gates
that need it.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from crowdharvest import collaboration as collab
from crowdharvest import geometry, harvest, scenario
from crowdharvest import scheduling as sched
from crowdharvest import swipt
from crowdharvest.propagation import ShadowingSpec
from crowdharvest.rng import substream

TABLE_TARGETS = {
    "macro": (0.21e-6, 11e-15),
    "femto": (0.47e-6, 24e-15),
    "wifi": (0.18e-6, 9e-15),
    "tv": (151e-6, 7550e-15),
}


def report_pass(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS  ({detail})")


@pytest.fixture(scope="session")
def config():
    return scenario.default_config()


@pytest.fixture(scope="session")
def case_study_runs(config, tmp_path_factory):
    """Case study executed with one and two workers, reports emitted."""
    t0 = time.perf_counter()
    report_seq = scenario.run_case_study(config, workers=1)
    seq_runtime = time.perf_counter() - t0
    report_par = scenario.run_case_study(config, workers=2)
    base = tmp_path_factory.mktemp("casestudy")
    out_seq, out_par = base / "seq", base / "par"
    scenario.emit_report(report_seq, out_seq)
    scenario.emit_report(report_par, out_par)
    return report_seq, report_par, out_seq, out_par, seq_runtime


def test_criterion_01_ppp_nearest_distance_law(config):
    # the deployments are successive draws of one substream, each the draw
    # sample_process makes and the crowd kernel scales chunk by chunk
    start = time.perf_counter()
    region = config.region
    rng = substream(config.seed, "ppp")
    probe = (region.width_m / 2.0, region.height_m / 2.0)
    samples = []
    for _ in range(100_000):
        xs, ys = geometry._draw_points(rng, geometry.PoissonProcess(), 5.0, region)
        if xs.size:
            samples.append(geometry.distances_to_probe(region, probe, xs, ys).min())
    ks = kstest(samples, lambda x: geometry.nth_nearest_distance_cdf(x, 1, 5e-6)).statistic
    elapsed = time.perf_counter() - start
    assert ks < 0.02
    assert elapsed < 10.0
    report_pass("ppp nearest-distance law", f"KS={ks:.5f} < 0.02 in {elapsed:.1f}s")


def test_criterion_02_density_scaling_exponents(config):
    start = time.perf_counter()
    macro = config.rat("macro")
    grid = np.geomspace(0.5, 5.0, 5)  # one decade
    slopes = {}
    for name, scen, window in (
        ("los", config.los, (0.9, 1.1)),
        ("nlos", config.nlos, (1.95, 2.35)),
    ):
        model = scenario.build_pathloss_model(scen, macro.carrier_frequency_hz)
        curve = harvest.upper_bound_sweep(
            macro, grid, model, trials=1000, seed=config.seed,
            region=config.region, k_nearest=config.case_study.scaling_k_nearest,
        )
        slope = harvest.scaling_exponent(curve)
        slopes[name] = slope
        assert window[0] <= slope <= window[1], (name, slope)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass(
        "density scaling exponents",
        f"a=2 slope {slopes['los']:.3f} in [0.9,1.1], "
        f"a=4.3 slope {slopes['nlos']:.3f} in [1.95,2.35], {elapsed:.1f}s",
    )


def test_criterion_03_transmit_power_linearity(config):
    macro = config.rat("macro")
    model = scenario.build_pathloss_model(config.los, macro.carrier_frequency_hz)
    grid = np.geomspace(0.5, 5.0, 5)
    base = harvest.upper_bound_sweep(
        macro, grid, model, 100, config.seed, region=config.region
    )
    doubled = harvest.upper_bound_sweep(
        replace(macro, transmit_power_w=macro.transmit_power_w * 2.0),
        grid, model, 100, config.seed, region=config.region,
    )
    for p1, p2 in zip(base.points, doubled.points):
        assert p2.mean_power_w == 2.0 * p1.mean_power_w
        assert p2.median_power_w == 2.0 * p1.median_power_w
        assert p2.std_power_w == 2.0 * p1.std_power_w
        assert p2.mean_density_w_per_hz == 2.0 * p1.mean_density_w_per_hz
    report_pass("transmit-power linearity", "every sweep statistic doubled bit-exactly")


def test_criterion_04_table_reproduction(case_study_runs):
    report, _, _, _, runtime = case_study_runs
    assert runtime < 300.0
    rows = {r.rat: r for r in report.table}
    details = []
    for rat, (power_target, density_target) in TABLE_TARGETS.items():
        row = rows[rat]
        power_ratio = row.peak_power_w / power_target
        density_ratio = row.peak_power_density_w_per_hz / density_target
        assert 0.1 <= power_ratio <= 10.0, (rat, "power", power_ratio)
        assert 0.1 <= density_ratio <= 10.0, (rat, "density", density_ratio)
        details.append(f"{rat} x{power_ratio:.2f}/x{density_ratio:.2f}")
    # cross-RAT ordering: TV far above everything, femto above macro
    assert rows["tv"].peak_power_w > 10.0 * rows["femto"].peak_power_w
    assert rows["tv"].peak_power_w > 10.0 * rows["macro"].peak_power_w
    assert rows["tv"].peak_power_w > 10.0 * rows["wifi"].peak_power_w
    assert rows["femto"].peak_power_w > rows["macro"].peak_power_w
    report_pass(
        "case-study table reproduction",
        f"all 8 values within x10 ({', '.join(details)}); ordering exact; {runtime:.0f}s",
    )


def test_criterion_05_nearest_node_energy_fraction(config):
    macro = config.rat("macro")
    model = scenario.build_pathloss_model(config.nlos, macro.carrier_frequency_hz)
    share, mean_fraction = harvest.nearest_share_study(
        macro, 5.0, model, draws=10_000, seed=config.seed,
        region=config.region,
        shadowing=ShadowingSpec(config.nlos.shadowing_sigma_db),
    )
    assert 0.79 <= share <= 0.99
    report_pass(
        "nearest-node energy fraction",
        f"energy-weighted share {share:.3f} in [0.79, 0.99] "
        f"(per-draw mean {mean_fraction:.3f}, reported for sensitivity)",
    )


def test_criterion_06_convolution_against_monte_carlo():
    start = time.perf_counter()
    u = harvest.EmpiricalPdf.uniform(1e-3)
    conv = harvest.convolve_load_pdfs([u, u, u], 1e-3)
    rng = substream(60_606, "conv")
    sums = rng.random((1_000_000, 3)).sum(axis=1)
    bins = np.linspace(0.0, 3.0, 61)
    empirical, _ = np.histogram(sums, bins=bins)
    empirical = empirical / empirical.sum()
    analytic = np.empty(bins.size - 1)
    for i in range(bins.size - 1):
        sel = (conv.loads >= bins[i] - 1e-12) & (conv.loads <= bins[i + 1] + 1e-12)
        analytic[i] = np.trapezoid(conv.densities[sel], conv.loads[sel])
    analytic /= analytic.sum()
    tv = 0.5 * float(np.abs(analytic - empirical).sum())
    elapsed = time.perf_counter() - start
    assert tv < 0.01
    assert elapsed < 10.0
    report_pass("traffic-load convolution", f"TV distance {tv:.5f} < 0.01 in {elapsed:.1f}s")


def _random_link(seed):
    rng = substream(seed, "accept-link")
    return swipt.LinkState(
        source_relay_gain=float(rng.uniform(1e-4, 1e-2)),
        relay_destination_gain=float(rng.uniform(1e-4, 1e-2)),
        noise_power_w=float(rng.uniform(1e-10, 1e-8)),
        source_power_w=float(rng.uniform(0.1, 2.0)),
    )


def test_criterion_07_swipt_endpoints_and_optimizer():
    desk = swipt.LinkState(1e-3, 1e-3, 1e-9, 1.0)
    assert swipt.ts_throughput(swipt.SwiptConfig(alpha=0.0), desk) == 0.0
    assert swipt.ts_throughput(swipt.SwiptConfig(alpha=1.0), desk) == 0.0
    assert swipt.ps_throughput(swipt.SwiptConfig(rho=0.0), desk) == 0.0
    assert swipt.ps_throughput(swipt.SwiptConfig(rho=1.0), desk) == 0.0

    grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
    worst = 0.0
    for seed in range(100):
        link = _random_link(seed)
        protocol = "ts" if seed % 2 == 0 else "ps"
        _, value = swipt.optimize_split(protocol, link, tol=1e-9)
        ref = max(rate for _, rate in swipt.split_sweep(protocol, link, grid))
        if ref > 0:
            shortfall = max(0.0, (ref - value) / ref)
            worst = max(worst, shortfall)
            assert value >= ref * (1.0 - 1e-6)
    report_pass(
        "swipt endpoints and optimizer",
        f"endpoints exactly 0; worst grid shortfall {worst:.2e} <= 1e-6 over 100 links",
    )


def test_criterion_08_protocol_orderings(tmp_path):
    desk = swipt.LinkState(1e-3, 1e-3, 1e-9, 1.0)
    ts_vals, ps_vals = [], []
    for i in range(1000):
        rng = substream(808, "fade", i)
        link = desk.with_fading(float(rng.exponential()), float(rng.exponential()))
        ts_vals.append(swipt.optimize_split("ts", link, tol=1e-6, coarse_points=51)[1])
        ps_vals.append(swipt.optimize_split("ps", link, tol=1e-6, coarse_points=51)[1])
    mean_ts, mean_ps = float(np.mean(ts_vals)), float(np.mean(ps_vals))
    assert mean_ps >= mean_ts

    def af_mean_rate(protocol, d, draws=60):
        h0 = 1e-3 * (d / 50.0) ** (-3.0)
        vals = []
        for i in range(draws):
            rng = substream(809, "fade", i)
            link = swipt.LinkState(h0, 1e-3, 1e-9, 1.0).with_fading(
                float(rng.exponential()), float(rng.exponential())
            )
            vals.append(
                swipt.optimize_split(
                    protocol, link, mode=swipt.RelayMode.AMPLIFY_FORWARD,
                    tol=1e-6, coarse_points=51,
                )[1]
            )
        return float(np.mean(vals))

    d_grid = np.geomspace(50.0, 2000.0, 40)
    target = 0.05
    range_ts = max((d for d in d_grid if af_mean_rate("ts", d) >= target), default=0.0)
    range_ps = max((d for d in d_grid if af_mean_rate("ps", d) >= target), default=0.0)
    assert range_ts >= range_ps

    archived = {
        "desk_link": {"h": 1e-3, "g": 1e-3, "noise_w": 1e-9, "source_power_w": 1.0},
        "fading": "unit-mean exponential power draws, 1000 throughput / 60 range draws",
        "efficiency": 0.5,
        "throughput_mode": "decode_forward",
        "range_mode": "amplify_forward",
        "range_model": "h = 1e-3 * (d/50m)^-3, target 0.05 bits/s/Hz",
        "seeds": {"throughput": 808, "range": 809},
        "results": {
            "mean_ts": mean_ts,
            "mean_ps": mean_ps,
            "range_ts_m": range_ts,
            "range_ps_m": range_ps,
        },
    }
    (tmp_path / "protocol_ordering_config.json").write_text(
        json.dumps(archived, indent=2) + "\n"
    )
    report_pass(
        "ts/ps orderings",
        f"mean PS {mean_ps:.3f} >= mean TS {mean_ts:.3f}; "
        f"AF range TS {range_ts:.0f}m >= PS {range_ps:.0f}m; config archived",
    )


def _random_schedule_problem(seed):
    rng = substream(seed, "accept-problem")
    k = int(rng.integers(2, 5))
    return sched.ScheduleProblem(
        slot_count=k,
        slot_duration_s=1.0,
        source_arrivals_j=tuple(rng.uniform(0.0, 2.0, k)),
        relay_arrivals_j=tuple(rng.uniform(0.0, 2.0, k)),
        source_gains=tuple(rng.uniform(0.2e-3, 2e-3, k)),
        relay_gains=tuple(rng.uniform(0.2e-3, 2e-3, k)),
        noise_power_w=1e-9,
        source_capacity_j=float(rng.choice([2.0, math.inf])),
        relay_capacity_j=float(rng.choice([2.0, math.inf])),
        rx_energy_cost_j=float(rng.choice([0.0, 0.1])),
        delay_constrained=bool(rng.integers(0, 2)),
    )


def test_criterion_09_scheduling_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        problem = _random_schedule_problem(seed)
        oracle = sched.brute_force_oracle(problem, 8)
        optimal = sched.offline_optimal(problem, 8)
        sched.validate_schedule(problem, oracle)
        sched.validate_schedule(problem, optimal)
        if oracle.objective_value > 0:
            gap = abs(optimal.objective_value - oracle.objective_value) / oracle.objective_value
            worst = max(worst, gap)
            assert gap <= 1e-3
            min_time = sched.min_relay_time(problem, optimal.objective_value, 8)
            sched.validate_schedule(problem, min_time)
            assert sum(min_time.bits_per_slot) >= optimal.objective_value * (1 - 1e-3)
        else:
            assert optimal.objective_value == pytest.approx(0.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass(
        "scheduling oracle equivalence",
        f"100 instances, worst relative gap {worst:.2e} <= 1e-3, "
        f"all causality-validated, {elapsed:.1f}s",
    )


def test_criterion_10_mdp_dominance():
    start = time.perf_counter()
    mdp = sched.BatteryMdp(
        arrivals=sched.MarkovArrivals((0.0, 2.0), ((0.8, 0.2), (0.2, 0.8))),
        battery_buckets=16,
        bucket_j=1.0,
        spend_levels_j=(0.0, 1.0, 2.0, 3.0, 4.0),
        snr_per_joule=2.0,
    )
    best = sched.mdp_policy_iteration(mdp)
    threshold_gains = []
    for theta in np.linspace(0.0, mdp.capacity_j, 20):
        policy = sched.threshold_policy(mdp, float(theta), spend_j=2.0)
        threshold_gains.append(policy.gain)
        assert policy.gain <= best.gain + 1e-9
    vi_gain = sched.value_iteration_gain(mdp, span_tol=1e-9)
    assert abs(best.gain - vi_gain) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_pass(
        "mdp policy dominance",
        f"PI gain {best.gain:.6f} >= best threshold {max(threshold_gains):.6f}; "
        f"|PI - VI| = {abs(best.gain - vi_gain):.2e} < 1e-6; {elapsed:.1f}s",
    )


def test_criterion_11_qos_rescue_scenario():
    nodes, qos, params = collab.rescue_demo()
    with_jt_a = collab.collab_schedule(nodes, qos, params, 0)
    with_jt_b = collab.collab_schedule(nodes, qos, params, 0)
    without = collab.collab_schedule(nodes, qos, replace(params, jt_enabled=False), 0)
    assert with_jt_a == with_jt_b  # deterministic
    assert with_jt_a.violations == 0
    assert without.violations >= 1
    report_pass(
        "qos joint-transmission rescue",
        f"violations 0 with JT, {without.violations} without, deterministic",
    )


def test_criterion_12_end_to_end_determinism(case_study_runs):
    report_seq, report_par, out_seq, out_par, _ = case_study_runs
    assert report_seq.table == report_par.table
    assert report_seq.exponents == report_par.exponents
    for name in ("table1.csv", "sweeps.csv", "report.json"):
        seq_bytes = (out_seq / name).read_bytes()
        par_bytes = (out_par / name).read_bytes()
        assert seq_bytes == par_bytes, f"{name} differs across parallelism degrees"
    report_pass(
        "end-to-end determinism",
        "workers=1 and workers=2 emissions byte-identical for fixed config+seed",
    )
