import csv
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

import crowdharvest
from crowdharvest import cli, collaboration, harvest, scenario, scheduling, swipt
from crowdharvest.cli import main
from crowdharvest.errors import ConfigError


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deploy_writes_points_and_document(tmp_path, capsys):
    code, out, _ = run(
        ["deploy", "--rat", "macro", "--density", "2.0", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    points = (tmp_path / "macro_points.csv").read_text()
    assert points.splitlines()[0] == "x_m,y_m"
    assert (tmp_path / "macro_deployment.json").exists()
    assert "transmitters" in out


def test_deploy_ingests_csv(tmp_path, capsys):
    src = tmp_path / "sites.csv"
    src.write_text("x_m,y_m\n100.0,100.0\n2000.0,2000.0\n-5.0,1.0\n")
    code, out, err = run(
        ["deploy", "--from-csv", str(src), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "ingested 2 transmitters" in out
    assert "rejected" in out
    assert "outside region" in err


def test_schedule_mdp_policy_document(tmp_path, capsys):
    code, _, _ = run(["schedule", "mdp", "--out", str(tmp_path)], capsys)
    assert code == 0
    from crowdharvest.scheduling import Policy

    policy = Policy.from_json((tmp_path / "policy.json").read_text())
    assert policy.gain > 0


def test_pathloss_csv(tmp_path, capsys):
    code, _, _ = run(
        ["pathloss", "--rat", "macro", "--scenario", "nlos", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    text = (tmp_path / "pathloss_macro_nlos.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["d_m", "loss_db"]
    losses = [float(r[1]) for r in rows[1:]]
    assert losses == sorted(losses)


@pytest.mark.parametrize("protocol,line", [
    ("ts", "optimal ts split alpha=0.183668 -> 3.19191 bits/s/Hz"),
    ("ps", "optimal ps split rho=0.9995 -> 4.48397 bits/s/Hz"),
])
def test_swipt_optimize(tmp_path, capsys, protocol, line):
    # the optimum and nothing else: sweep --target swipt_split writes the split CSV
    code, out, _ = run(["swipt", "--protocol", protocol, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out == line + "\n"
    assert not any(tmp_path.iterdir())


def test_swipt_ignores_the_frame_duration(tmp_path, capsys):
    # the throughput does not depend on it; a subnormal one divided by 0 and exited 1
    doc = scenario.config_to_dict(scenario.default_config())
    doc["swipt"]["frame_duration_s"] = 5e-324
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    code, out, err = run(["swipt", "--config", str(config)], capsys)
    assert (code, err) == (0, "")
    assert out == "optimal ts split alpha=0.183668 -> 3.19191 bits/s/Hz\n"


def test_swipt_has_no_points_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["swipt", "--points", "11", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --points 11" in capsys.readouterr().err


def test_pathloss_without_out_writes_csv_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["pathloss", "--points", "5"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d_m", "loss_db"] and len(rows) == 6
    assert not any(tmp_path.iterdir())


def test_seed_overrides_the_config_seed(tmp_path, capsys):
    code, out, _ = run(["deploy", "--seed", "5", "--out", str(tmp_path / "a")], capsys)
    assert code == 0 and "(seed 5)" in out
    run(["deploy", "--out", str(tmp_path / "b")], capsys)
    points = [(tmp_path / d / "macro_points.csv").read_text() for d in ("a", "b")]
    assert points[0] != points[1]


def test_sweep_swipt_endpoints_zero(tmp_path, capsys):
    code, _, _ = run(
        ["sweep", "--target", "swipt_split", "--protocol", "ps", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "sweep_swipt_ps.csv").read_text())))
    assert float(rows[1][1]) == 0.0  # split 0
    assert float(rows[-1][1]) == 0.0  # split 1


def test_sweep_single_point_grid(tmp_path, capsys):
    code, _, _ = run(
        ["sweep", "--target", "swipt_split", "--grid", "0.4", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    rows = (tmp_path / "sweep_swipt_ts.csv").read_text().splitlines()
    assert len(rows) == 2


def test_schedule_solve_csv(tmp_path, capsys):
    code, out, _ = run(["schedule", "solve", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "offline optimum" in out
    lines = (tmp_path / "schedule.csv").read_text().splitlines()
    assert lines[0] == "slot,P_s,P_r,d_s,d_r,bits"


def test_schedule_solve_min_time(tmp_path, capsys):
    code, out, _ = run(["schedule", "solve", "--min-time", "20", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "min relay slots: 1 (delivered 21.3388 bits)" in out
    lines = (tmp_path / "schedule.csv").read_text().splitlines()
    assert lines[0] == "slot,P_s,P_r,d_s,d_r,bits" and len(lines) == 5


def test_schedule_evaluate(tmp_path, capsys):
    code, out, _ = run(["schedule", "evaluate", "--trials", "2000", "--out", str(tmp_path)],
                       capsys)
    assert code == 0
    assert out == "policy gain: exact 1.4851982, monte-carlo 1.5491558 (2000 slots)\n"


def test_sweep_schedule_theta(tmp_path, capsys):
    code, out, _ = run(["sweep", "--target", "schedule_theta", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = (tmp_path / "sweep_schedule_theta.csv").read_text().splitlines()
    assert rows[0] == "theta_j,gain_bits_per_slot" and len(rows) == 21
    assert "threshold sweep: best theta 0 J, gain 1.40886 bits/slot" in out


def test_schedule_infeasible_exit_code(tmp_path, capsys):
    code, _, err = run(
        ["schedule", "solve", "--min-time", "1e9", "--out", str(tmp_path)], capsys
    )
    assert code == 3
    assert "infeasible" in err


def test_schedule_mdp(tmp_path, capsys):
    code, out, _ = run(["schedule", "mdp", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "policy-iteration gain" in out
    assert (tmp_path / "policy.csv").exists()


def test_collab_demo_rescue(tmp_path, capsys):
    code, out, _ = run(
        ["collab", "--demo", "--no-jt-compare", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "violations 0" in out
    assert "without joint transmission: violations 1" in out
    lines = (tmp_path / "collab_frames.csv").read_text().splitlines()
    assert lines[0] == "frame,node,jt,delivered,gap"


def test_collab_on_the_config_nodes(tmp_path, capsys):
    code, out, _ = run(["collab", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "deliveries 14, violations 2 over 48 slots (deadline 4)" in out
    lines = (tmp_path / "collab_frames.csv").read_text().splitlines()
    assert lines[0] == "frame,node,jt,delivered,gap"


def test_casestudy_small_config(tmp_path, capsys):
    doc = scenario.config_to_dict(scenario.default_config())
    doc["case_study"].update(trials=10, scaling_trials=10, nearest_share_draws=10)
    config = tmp_path / "small.yaml"
    config.write_text(yaml.safe_dump(doc))
    out_dir = tmp_path / "out"
    code, out, _ = run(["casestudy", "--config", str(config), "--trials", "5",
                        "--out", str(out_dir)], capsys)
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "report.json", "runmeta.txt", "sweeps.csv", "table1.csv"]
    lines = out.splitlines()
    assert [line.split()[0] for line in lines if "table density" in line] == [
        "macro", "femto", "wifi", "tv"]
    assert lines[-1] == "  nearest-node energy share 0.993"


def test_collab_trace_round_trip(tmp_path, capsys):
    trace = "slot,arrival_a_j,arrival_b_j,event\n0,4.0,0.0,0\n1,0.0,4.0,0\n2,0.0,0.0,1\n"
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(trace)
    code, out, _ = run(
        ["collab", "--trace", str(trace_path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "over 3 slots" in out


@pytest.mark.parametrize("command,edit", [
    (["deploy"], lambda doc: {"seed": 1, "unknown_section": {}}),
    (["schedule", "solve"], lambda doc: {**doc, "scheduling": {"slot_count": "abc"}}),
    (["casestudy"], lambda doc: {**doc, "case_study": {"trials": None}}),
    (["casestudy"], lambda doc: {**doc, "case_study": {"trials": 2.7}}),
])
def test_config_error_exit_code(tmp_path, capsys, command, edit):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(edit(scenario.config_to_dict(scenario.default_config()))))
    code, _, err = run([*command, "--config", str(bad), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("command,edit,match", [
    (["casestudy"], lambda doc: doc["pathloss"]["nlos"].update(exponent=math.nan),
     r"pathloss\.nlos.*exponent"),
    (["casestudy"], lambda doc: doc["pathloss"]["los"].update(shadowing_sigma_db=math.nan),
     r"pathloss\.los.*sigma_db"),
    (["casestudy"], lambda doc: doc["rats"][0].update(bandwidth_hz=math.nan),
     r"rats\[0\].*bandwidth_hz"),
    (["casestudy"], lambda doc: doc["rats"][0].update(transmit_power_w=math.inf),
     r"rats\[0\].*transmit_power_w"),
    (["casestudy"], lambda doc: doc["case_study"].update(nearest_share_rat="macr0"),
     r"case_study.*nearest_share_rat"),
    (["casestudy"], lambda doc: doc["case_study"].update(trials=0), r"case_study.*trials"),
    (["schedule", "solve"], lambda doc: doc["scheduling"].update(source_capacity_j=0.0),
     r"scheduling.*source_capacity_j"),
    (["schedule", "solve"], lambda doc: doc["scheduling"].update(source_capacity_j=-1.0),
     r"scheduling.*source_capacity_j"),
    (["swipt"], lambda doc: doc["swipt"].update(source_power_w=1e308),
     r"^swipt: first-hop SNR"),
], ids=["nan-exponent", "nan-sigma", "nan-bandwidth", "inf-power", "share-rat-typo",
        "zero-trials", "zero-capacity", "negative-capacity", "overflowing-snr"])
def test_bad_config_value_rejected_at_load(tmp_path, capsys, monkeypatch, command, edit, match):
    def reached(*args, **kwargs):
        raise AssertionError("the run started before the config was rejected")

    monkeypatch.setattr(scenario, "crowd_sweep", reached)
    monkeypatch.setattr(scheduling, "offline_optimal", reached)
    doc = scenario.config_to_dict(scenario.default_config())
    edit(doc)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=match):
        scenario.load_config(bad)
    code, _, err = run([*command, "--config", str(bad), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "config error" in err


def assert_rejected_at_parse_time(tmp_path, capsys, monkeypatch, args):
    flag = args[-2]

    def reached(*args, **kwargs):
        raise AssertionError(f"the run started before {flag} was rejected")

    monkeypatch.setattr(harvest, "nearest_share_study", reached)
    monkeypatch.setattr(harvest, "upper_bound_sweep", reached)
    monkeypatch.setattr(scheduling, "mdp_policy_iteration", reached)
    monkeypatch.setattr(scenario, "run_case_study", reached)
    monkeypatch.setattr(cli, "pathloss_db", reached)
    monkeypatch.setattr(swipt, "optimize_split", reached)
    monkeypatch.setattr(swipt, "split_sweep", reached)
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("trials", ["0", "-3", "2.5", "abc"])
@pytest.mark.parametrize("command", [
    ["harvest"], ["sweep", "--target", "harvest"], ["schedule", "evaluate"], ["casestudy"],
], ids=["harvest", "sweep", "schedule-evaluate", "casestudy"])
def test_bad_trials_rejected_at_parse_time(tmp_path, capsys, monkeypatch, command, trials):
    assert_rejected_at_parse_time(tmp_path, capsys, monkeypatch, [*command, "--trials", trials])


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "abc"])
@pytest.mark.parametrize("command", [
    ["pathloss", "--points"], ["casestudy", "--workers"],
], ids=["pathloss-points", "casestudy-workers"])
def test_bad_counts_rejected_at_parse_time(tmp_path, capsys, monkeypatch, command, value):
    assert_rejected_at_parse_time(tmp_path, capsys, monkeypatch, [*command, value])


@pytest.mark.parametrize("target,grid", [
    ("harvest", "a,b"), ("swipt_split", "0.1,,0.2"), ("schedule_theta", ""),
    ("collab_xi", "0.1;0.2"),
])
def test_bad_grid_rejected_at_parse_time(tmp_path, capsys, monkeypatch, target, grid):
    # a grid that does not parse used to end in a ValueError traceback and exit 1
    assert_rejected_at_parse_time(
        tmp_path, capsys, monkeypatch, ["sweep", "--target", target, "--grid", grid]
    )


@pytest.mark.parametrize("target,name", [("harvest", "density_per_km2"),
                                         ("schedule_theta", "theta_j")])
def test_nan_grid_error_shows_the_value_as_python_writes_it(tmp_path, capsys, target, name):
    # the harvest grid reached the check as np.float64 and printed "np.float64(nan)"
    code, _, err = run(["sweep", "--target", target, "--grid", "nan", "--out", str(tmp_path)],
                       capsys)
    assert code == 4
    assert err.strip() == f"error: {name} must be non-negative and finite, got nan"


def test_sweep_collab_xi_simulates_each_split_once(tmp_path, capsys, monkeypatch):
    calls = []
    simulate = collaboration.collab_schedule

    def counted(*args, **kwargs):
        calls.append(args[2].xi)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(collaboration, "collab_schedule", counted)
    code, out, _ = run(["sweep", "--target", "collab_xi", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert len(calls) == 21 and len(set(calls)) == 21
    rows = (tmp_path / "sweep_collab_xi.csv").read_text().splitlines()
    assert rows[0] == "xi,objective" and len(rows) == 22
    assert "frame-split sweep: best xi 0.05, objective 48" in out


def test_sweep_collab_xi_reads_the_given_grid(tmp_path, capsys):
    code, out, _ = run(
        ["sweep", "--target", "collab_xi", "--grid", "0.05,0.5", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    rows = (tmp_path / "sweep_collab_xi.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["xi", "0.05", "0.5"]
    assert "frame-split sweep: best xi 0.05, objective 48" in out


def test_nan_distance_exit_code(capsys):
    # NaN passed the "below the reference distance" check and printed nan rows
    code, out, err = run(["pathloss", "--d-max", "nan", "--points", "3"], capsys)
    assert code == 4
    assert out == ""
    assert "at least the reference distance" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["deploy"], ["pathloss"], ["swipt"], ["collab", "--demo"],
], ids=["deploy", "pathloss", "swipt", "collab"])
def test_trials_rejected_by_commands_that_do_not_read_it(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--trials", "7", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --trials 7" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("capacity,bits", [
    (None, "40.6762"), (0.5, "37.8631"), (math.inf, "40.6762"),
])
def test_configured_source_capacity(tmp_path, capsys, capacity, bits):
    doc = scenario.config_to_dict(scenario.default_config())
    doc["scheduling"]["source_capacity_j"] = capacity
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    code, out, _ = run(["schedule", "solve", "--config", str(config), "--out", str(tmp_path)],
                       capsys)
    assert code == 0
    assert f"offline optimum: {bits} bits" in out


def test_non_finite_trace_exit_code(tmp_path, capsys):
    # a NaN arrival would fill node A's battery and deliver from it
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("slot,arrival_a_j,arrival_b_j,event\n0,nan,2,0\n1,0,0,0\n2,0,0,0\n")
    code, out, err = run(["collab", "--trace", str(trace_path), "--out", str(tmp_path)], capsys)
    assert code == 4
    assert "deliveries" not in out
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["deploy", "--from-csv"],
    ["collab", "--trace"],
    ["schedule", "solve", "--problem"],
])
def test_missing_input_file_exit_code(tmp_path, capsys, command):
    missing = tmp_path / "no_such_file"
    code, _, err = run([*command, str(missing), "--out", str(tmp_path)], capsys)
    assert code == 4
    assert err.count("\n") == 1 and "cannot read" in err and str(missing) in err


@pytest.mark.parametrize("text", [
    '{"slot_count": 2}',
    '{"slot_count": 1, "slot_duration_s": 1.0, "source_arrivals_j": [1.0],'
    ' "relay_arrivals_j": [0.0], "source_gains": [1.0], "relay_gains": [1.0],'
    ' "noise_power_w": 1.0, "slot_durations": 1.0}',
    '{"slot_count": 2.7, "slot_duration_s": 1.0, "source_arrivals_j": [1.0, 1.0],'
    ' "relay_arrivals_j": [0.0, 0.0], "source_gains": [1.0, 1.0], "relay_gains": [1.0, 1.0],'
    ' "noise_power_w": 1.0}',
    '{"slot_count": 1, "slot_duration_s": null, "source_arrivals_j": [1.0],'
    ' "relay_arrivals_j": [0.0], "source_gains": [1.0], "relay_gains": [1.0],'
    ' "noise_power_w": 1.0}',
    '{"slot_count": 1,',
    '{"slot_count": 2, "slot_duration_s": 1.0, "source_arrivals_j": [NaN, 1.0],'
    ' "relay_arrivals_j": [1.0, 1.0], "source_gains": [1e-3, 1e-3], "relay_gains": [1e-3, 1e-3],'
    ' "noise_power_w": 1e-9}',
], ids=["missing-keys", "unknown-key", "fractional-slot-count", "null-float", "not-json",
        "nan-arrival"])
def test_bad_problem_document_exit_code(tmp_path, capsys, text):
    problem = tmp_path / "problem.json"
    problem.write_text(text)
    code, out, err = run(["schedule", "solve", "--problem", str(problem), "--out", str(tmp_path)],
                         capsys)
    assert code == 4
    assert "offline optimum" not in out
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_invalid_workers_exit_code(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exit_info:
        main(["casestudy", "--workers", workers, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --workers: value must be an integer >= 1, got {workers}" in err
    assert "Traceback" not in err


def test_harvest_summary(capsys, tmp_path):
    code, out, _ = run(
        ["harvest", "--rat", "macro", "--density", "2.0", "--trials", "50",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "nearest-node energy share" in out


def test_sweep_harvest_pinned_schema(tmp_path, capsys):
    code, _, _ = run(
        [
            "sweep", "--target", "harvest", "--rat", "macro", "--scenario", "los",
            "--grid", "0.5,1,2,4,5", "--trials", "25", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "sweep_harvest_macro_los.csv").read_text()
    assert text.splitlines()[0] == "lambda_per_km2,mean_power_w,mean_density_w_per_hz,stddev_w"
    assert len(text.splitlines()) == 6


@pytest.mark.parametrize("grid,reason", [
    ("1,2,3", "scaling fit needs at least 4 grid points"),
    ("1,2,3,4", "scaling fit needs a grid spanning at least one decade"),
])
def test_sweep_harvest_failed_fit_prints_nan_and_its_reason(tmp_path, capsys, grid, reason):
    code, out, err = run(
        ["sweep", "--target", "harvest", "--grid", grid, "--trials", "5", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0 and err == ""
    assert f"fitted slope nan ({reason})" in out
    lines = (tmp_path / "sweep_harvest_macro_los.csv").read_text().splitlines()
    assert lines[0] == "lambda_per_km2,mean_power_w,mean_density_w_per_hz,stddev_w"
    assert [line.split(",")[0] for line in lines[1:]] == grid.split(",")


def test_importing_any_module_loads_no_scipy(tmp_path):
    # scipy is a test dependency only; a fresh interpreter (this one has scipy loaded)
    # checks that neither the imports nor the distance law and copula traces load it.
    probe = textwrap.dedent("""
        import importlib, pkgutil, sys
        import crowdharvest
        names = [m.name for m in pkgutil.iter_modules(crowdharvest.__path__)]
        assert "cli" in names, names
        for name in names:
            importlib.import_module(f"crowdharvest.{name}")
        from crowdharvest import cli, collaboration, geometry, scenario
        cli.build_parser()
        scenario.default_config()
        geometry.nth_nearest_distance_cdf(100.0, 2, 1e-5)
        collaboration.correlated_bernoulli_traces(0.4, 1.0, 10.0, 10, 0)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(crowdharvest.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-B", "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(crowdharvest.__path__))
)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry fails only on `from ... import *`, so check each name
    mod = importlib.import_module(f"crowdharvest.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
