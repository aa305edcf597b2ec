import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crowdharvest import cli, geometry, propagation, scenario
from crowdharvest.errors import ConfigError, IngestionError, InvalidParameterError

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def config():
    return scenario.default_config()


@pytest.fixture(scope="module")
def small_config(config):
    # trimmed trial counts so orchestration tests stay fast
    return replace(
        config,
        case_study=replace(
            config.case_study, trials=40, scaling_trials=40, nearest_share_draws=200
        ),
    )


class TestConfig:
    def test_default_validates(self, config):
        assert len(config.rats) == 4
        assert config.region.area_km2 == pytest.approx(60.0)
        assert {r.name for r in config.rats} == {"macro", "femto", "wifi", "tv"}

    def test_default_is_the_bundled_file(self, config):
        assert config == scenario.load_config(REPO_ROOT / "configs" / "london.yaml")

    def test_missing_default_file_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "london.yaml"
        monkeypatch.setattr(scenario, "DEFAULT_CONFIG_PATH", missing)
        with pytest.raises(ConfigError, match=re.escape(str(missing))):
            scenario.default_config()
        assert cli.main(["pathloss", "--out", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_omitted_defaults_sections_take_their_defaults(self, config):
        doc = scenario.config_to_dict(config)
        for section in ("swipt", "scheduling", "collab", "case_study"):
            del doc[section]
        loaded = scenario.config_from_dict(doc)
        assert loaded.swipt == scenario.SwiptDefaults()
        assert loaded.scheduling == scenario.SchedulingDefaults()
        assert loaded.collab == scenario.CollabDefaults()
        assert loaded.case_study == scenario.CaseStudyDefaults()

    def test_round_trip_identity(self, config, tmp_path):
        path = tmp_path / "cfg.yaml"
        scenario.save_config(config, path)
        assert scenario.load_config(path) == config

    def test_unknown_key_rejected_with_path(self, config, tmp_path):
        doc = scenario.config_to_dict(config)
        doc["rats"][0]["bandwidth_hzz"] = 1.0
        path = tmp_path / "bad.yaml"
        import yaml

        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=r"rats\[0\].*bandwidth_hzz"):
            scenario.load_config(path)

    @pytest.mark.parametrize("section,key,value", [
        ("swipt", "efficiency", 1.5),
        ("scheduling", "slot_count", "abc"),
        ("case_study", "trials", None),
        ("case_study", "trials", 2.7),
    ])
    def test_invalid_field_named(self, config, tmp_path, section, key, value):
        doc = scenario.config_to_dict(config)
        doc[section][key] = value
        path = tmp_path / "bad.yaml"
        import yaml

        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=key):
            scenario.load_config(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda doc: doc["rats"][1]["spatial_process"].pop("spread_m"), r"rats\[1\].*spread_m"),
        (lambda doc: doc["rats"][1]["spatial_process"].update(kind="thomas"), r"rats\[1\].*thomas"),
        (lambda doc: doc["rats"][0].pop("spatial_process"), r"rats\[0\].*spatial_process"),
        (lambda doc: doc["rats"][0].update(density_range_per_km2=[1.0]), r"rats\[0\].*density"),
        (lambda doc: doc["rats"][3].update(table_density_per_km2=0.0),
         r"rats\[3\].*table_density_per_km2"),
        (lambda doc: doc["region"].update(guard_margin=1.0), r"region.*guard_margin"),
        (lambda doc: doc["pathloss"]["nlos"].update(anchor="okumura"), r"pathloss\.nlos.*okumura"),
        (lambda doc: doc.update(pathloss=None), "pathloss"),
        (lambda doc: doc.update(rats=None), "rats"),
        (lambda doc: doc.update(seed="7"), "seed"),
    ])
    def test_malformed_section_rejected_with_path(self, config, edit, match):
        doc = scenario.config_to_dict(config)
        edit(doc)
        with pytest.raises(ConfigError, match=match):
            scenario.config_from_dict(doc)

    @pytest.mark.parametrize("edit,path", [
        (lambda doc: doc["rats"][1]["spatial_process"].pop("spread_m"), "rats[1].spatial_process"),
        (lambda doc: doc["rats"][0].update(density_range_per_km2=[1.0]),
         "rats[0].density_range_per_km2"),
        (lambda doc: doc["scheduling"].update(slot_count="abc"), "scheduling.slot_count"),
    ])
    def test_error_names_the_full_key_path(self, config, edit, path):
        doc = scenario.config_to_dict(config)
        edit(doc)
        with pytest.raises(ConfigError) as info:
            scenario.config_from_dict(doc)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("edit,match", [
        (lambda cfg: replace(cfg, rats=()), "rats"),
        (lambda cfg: replace(cfg, case_study=replace(cfg.case_study, nearest_share_rat="x")),
         "nearest_share_rat"),
        (lambda cfg: replace(cfg, pathloss=replace(
            cfg.pathloss, nlos=replace(cfg.nlos, exponent=math.nan))), r"pathloss\.nlos"),
        (lambda cfg: replace(cfg, pathloss=replace(
            cfg.pathloss, los=replace(cfg.los, anchor="okumura"))), "okumura"),
    ], ids=["no-rats", "share-rat-typo", "nan-exponent", "unknown-anchor"])
    def test_cross_section_rules_hold_when_built(self, config, edit, match):
        with pytest.raises(InvalidParameterError, match=match):
            edit(config)

    def test_scaling_k_nearest_below_one_rejected(self, config):
        doc = scenario.config_to_dict(config)
        doc["case_study"]["scaling_k_nearest"] = 0
        with pytest.raises(ConfigError, match="scaling_k_nearest"):
            scenario.config_from_dict(doc)

    def test_missing_seed_rejected(self, config, tmp_path):
        doc = scenario.config_to_dict(config)
        del doc["seed"]
        path = tmp_path / "bad.yaml"
        import yaml

        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="seed"):
            scenario.load_config(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("rats: [unclosed\n")
        with pytest.raises(ConfigError):
            scenario.load_config(path)

    def test_hash_stable_and_sensitive(self, config):
        h1 = scenario.config_hash(config)
        h2 = scenario.config_hash(scenario.default_config())
        assert h1 == h2
        assert scenario.config_hash(replace(config, seed=1)) != h1

    def test_default_hash_pinned(self, config):
        # reports and recorded benchmark digests are keyed by this hash
        assert scenario.config_hash(config) == "9d89df18dbd77f01"

    def test_unknown_rat_lookup(self, config):
        with pytest.raises(ConfigError):
            config.rat("sigfox")


class TestIngest:
    def test_empty_file_with_header(self, config, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x_m,y_m\n")
        dep, report = scenario.ingest_locations_csv(path, config.region)
        assert dep.count == 0
        assert report == []

    def test_density_from_count(self, config, tmp_path):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, config.region.width_m, 300)
        ys = rng.uniform(0, config.region.height_m, 300)
        lines = ["x_m,y_m"] + [f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys)]
        path = tmp_path / "pts.csv"
        path.write_text("\n".join(lines) + "\n")
        dep, _ = scenario.ingest_locations_csv(path, config.region)
        assert dep.count == 300
        assert dep.density_per_km2 == pytest.approx(5.0)

    def test_out_of_region_points_reported(self, config, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x_m,y_m\n10.0,10.0\n-5.0,10.0\n999999.0,1.0\n")
        dep, report = scenario.ingest_locations_csv(path, config.region)
        assert dep.count == 1
        assert len(report) == 2

    def test_malformed_rows_raise_with_line_numbers(self, config, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x_m,y_m\n1.0,2.0\nnot-a-number,3.0\n")
        with pytest.raises(IngestionError) as err:
            scenario.ingest_locations_csv(path, config.region)
        assert err.value.bad_rows[0][0] == 3

    def test_ingested_distances_match_direct_computation(self, config, tmp_path):
        xs = np.array([100.0, 2000.0, 4000.0])
        ys = np.array([100.0, 500.0, 4000.0])
        path = tmp_path / "pts.csv"
        path.write_text("x_m,y_m\n" + "\n".join(f"{x},{y}" for x, y in zip(xs, ys)) + "\n")
        dep, _ = scenario.ingest_locations_csv(path, config.region)
        probe = (0.0, 0.0)
        direct = np.sort(geometry.distances_to_probe(config.region, probe, xs, ys))
        ingested = np.sort(geometry.distances_to_probe(dep.region, probe, dep.xs, dep.ys))
        assert np.allclose(ingested, direct)


@pytest.fixture(scope="module")
def report():
    cfg = replace(
        scenario.default_config(),
        case_study=replace(
            scenario.default_config().case_study,
            trials=40,
            scaling_trials=40,
            nearest_share_draws=200,
        ),
    )
    return scenario.run_case_study(cfg), cfg


class TestCaseStudy:
    def test_table_has_four_rats_two_metrics(self, report):
        rep, _ = report
        text = scenario._table_csv(rep)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 RAT rows
        header = lines[0].split(",")
        assert "peak_power_w" in header and "peak_power_density_w_per_hz" in header

    def test_report_regenerates_bit_identically(self, report, tmp_path):
        rep, cfg = report
        rep2 = scenario.run_case_study(cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        scenario.emit_report(rep, out1)
        scenario.emit_report(rep2, out2)
        for name in ("table1.csv", "sweeps.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_emit_same_report_twice_identical(self, report, tmp_path):
        rep, _ = report
        out1, out2 = tmp_path / "x", tmp_path / "y"
        scenario.emit_report(rep, out1)
        scenario.emit_report(rep, out2)
        for name in ("table1.csv", "sweeps.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_report_embeds_config_hash_and_seed(self, report):
        rep, cfg = report
        assert rep.config_hash == scenario.config_hash(cfg)
        assert rep.seed == cfg.seed
        assert f'"seed": {cfg.seed}' in scenario._report_json(rep)

    def test_tv_flagged_as_winner_extrapolation(self, report):
        rep, _ = report
        flags = {r.rat: r.winner_extrapolated for r in rep.table}
        assert flags["tv"] is True
        assert flags["macro"] is False

    def test_runmeta_records_why_fits_failed(self, report, tmp_path):
        rep, _ = report
        scenario.emit_report(rep, tmp_path)
        lines = (tmp_path / "runmeta.txt").read_text().splitlines()
        recorded = dict(line.split("=", 1) for line in lines if line.startswith("fit_failure."))
        nan = {
            f"fit_failure.{rat}.{scen}"
            for rat, by_scenario in rep.exponents.items()
            for scen, slope in by_scenario.items()
            if math.isnan(slope)
        }
        # TV at the bottom of its range: most deployments are empty
        assert nan and set(recorded) == nan
        assert all(message for message in recorded.values())

    def test_femto_density_projection(self, report):
        # femto density range spans more than 20x; the fitted clustered
        # exponent stays within a 1.3x band of the a/2 law, so a 20-fold
        # densification multiplies harvested power by about 20^(a/2)
        rep, _ = report
        for scen, a in (("los", 2.0), ("nlos", 4.3)):
            slope = rep.exponents["femto"][scen]
            assert 0.7 * a / 2 <= slope <= 1.3 * a / 2


# sha256 of the artifacts of two reduced default configs, recorded with the
# per-curve sweep loop that drew every curve's deployments separately; the
# one-pass sweep must reproduce them byte for byte.
PINNED_ARTIFACTS = {
    (12, 12, 100): {
        "table1.csv": "c9f027a619a8567a108cb30ce431708d1c72d1a6a534ce4e439fb495e2cad060",
        "sweeps.csv": "2d1732930a2dd5c460f3a4c76829e7ce287e259107eeda3ec44998f2edda82d5",
        "report.json": "e0ed155e8cfda5eeedd25d7fdf8a2464dba18037bef10518f6d1dcae680ee5e4",
    },
    (8, 5, 40): {
        "table1.csv": "547248a11b3cd6166218c51fb808a42de908eae50e02875339f664be8d0542d2",
        "sweeps.csv": "381faeebffc9cd2370757217be216b10fcaf767ef27d1f0030d835b0d7f0f90a",
        "report.json": "c91733caaebc26c457f46f0c4122de28845eb2179b7dbb9333926313798c7040",
    },
}


@pytest.mark.parametrize(
    "counts", sorted(PINNED_ARTIFACTS), ids=lambda c: "trials{}-scaling{}-share{}".format(*c)
)
def test_case_study_artifacts_pinned(config, counts, tmp_path):
    trials, scaling_trials, share_draws = counts
    cfg = replace(
        config,
        case_study=replace(
            config.case_study,
            trials=trials,
            scaling_trials=scaling_trials,
            nearest_share_draws=share_draws,
        ),
    )
    scenario.emit_report(scenario.run_case_study(cfg), tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_ARTIFACTS[counts]
    }
    assert digests == PINNED_ARTIFACTS[counts]


def test_build_pathloss_models(config):
    los = scenario.build_pathloss_model(config.los, 2.1e9)
    assert los.exponent == 2.0
    nlos = scenario.build_pathloss_model(config.nlos, 2.1e9)
    assert nlos.exponent == pytest.approx(4.3)


def test_friis_anchor_takes_the_scenario_exponent():
    model = scenario.build_pathloss_model(
        scenario.PathlossScenarioConfig(exponent=2.5, reference_distance_m=2.0), 2.1e9
    )
    assert model.exponent == 2.5
    assert propagation.pathloss_db(model, 2.0) == pytest.approx(
        propagation.friis_reference_loss_db(2.1e9, 2.0), abs=1e-12
    )
    assert propagation.pathloss_db(model, 200.0) - propagation.pathloss_db(model, 20.0) == (
        pytest.approx(25.0, abs=1e-9)
    )
