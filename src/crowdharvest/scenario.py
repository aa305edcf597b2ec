"""Scenario configuration, case-study orchestration, and report emission.

A scenario document (YAML, comment-friendly) pins everything a run
needs: the study region, the radio-technology profiles, both pathloss
scenarios, link and scheduling defaults, seeds, and trial counts. Every
run is reproducible from (config, seed) alone; reports embed the config
hash and the seed, and the deterministic artifacts never contain wall
clocks, so a rerun is byte-identical.

The bundled default, ``configs/london.yaml``, models a 60 km^2
central-London-like area with four technologies: cellular macro
downlink (20 MHz, 40 W, up to 5/km^2), home femto downlink (20 MHz,
1 W, up to 200/km^2, clustered), Wi-Fi (60 MHz, 100 mW, up to
1000/km^2), and TV broadcast (100 MHz, 1 MW, sparse real sites).
Peak-power table rows are evaluated at each technology's representative
deployment density: the range top for the crowd technologies, the
real-site density for TV (about one high-power site per study area;
evaluating TV at the top of its generic density range would model a
dozen megawatt towers inside the window and lands milliwatts, far above
any published field value).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import _guard
from ._documents import dataclass_from_dict, dumps, read_text, write_csv
from .errors import ConfigError, FitFailureError, IngestionError, InvalidParameterError
from .geometry import Deployment, PoissonProcess, Region, _points_from_csv
from .harvest import (
    SWEEP_CSV_HEADER,
    RatProfile,
    SweepCurve,
    SweepView,
    _sweep_cells,
    crowd_sweep,
    nearest_share_study,
    scaling_exponent,
)
from .propagation import (
    PathlossModel,
    ShadowingSpec,
    free_space_model,
    winner_extrapolated,
    winner_urban_nlos_model,
)
from .swipt import LinkState, RelayMode

__all__ = [
    "PathlossScenarioConfig",
    "Pathloss",
    "SwiptDefaults",
    "SchedulingDefaults",
    "CollabDefaults",
    "CaseStudyDefaults",
    "ScenarioConfig",
    "default_config",
    "load_config",
    "save_config",
    "config_hash",
    "ingest_locations_csv",
    "CaseStudyReport",
    "run_case_study",
    "emit_report",
    "build_pathloss_model",
    "build_rat_profile",
]


# ---------------------------------------------------------------------------
# Configuration dataclasses.


@dataclass(frozen=True)
class PathlossScenarioConfig:
    """One propagation scenario: exponent, anchoring, and shadowing."""

    exponent: float
    anchor: str = "friis"  # "friis" or "winner"
    intercept_db: float = 25.0
    frequency_coeff_db: float = 20.0
    shadowing_sigma_db: float = 0.0
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.anchor not in ("friis", "winner"):
            raise InvalidParameterError(f"unknown pathloss anchor {self.anchor!r}")


@dataclass(frozen=True)
class SwiptDefaults:
    frame_duration_s: float = 1.0
    source_relay_gain: float = 1e-3
    relay_destination_gain: float = 1e-3
    source_power_w: float = 1.0
    noise_power_w: float = 1e-9
    ambient_power_at_relay_w: float = 0.0
    ambient_power_at_source_w: float = 0.0
    efficiency: float = 0.5
    relay_mode: str = "df"

    def __post_init__(self) -> None:
        _guard.positive(frame_duration_s=self.frame_duration_s)
        self.link()
        if not 0 < self.efficiency <= 1:
            raise InvalidParameterError(f"efficiency must lie in (0, 1], got {self.efficiency!r}")
        if self.relay_mode not in ("af", "df"):
            raise InvalidParameterError(f"relay_mode must be 'af' or 'df', got {self.relay_mode!r}")

    def link(self) -> LinkState:
        return LinkState(
            source_relay_gain=self.source_relay_gain,
            relay_destination_gain=self.relay_destination_gain,
            noise_power_w=self.noise_power_w,
            source_power_w=self.source_power_w,
            ambient_power_at_relay_w=self.ambient_power_at_relay_w,
            ambient_power_at_source_w=self.ambient_power_at_source_w,
        )

    def mode(self) -> RelayMode:
        return RelayMode.AMPLIFY_FORWARD if self.relay_mode == "af" else RelayMode.DECODE_FORWARD


@dataclass(frozen=True)
class SchedulingDefaults:
    slot_count: int = 4  # the exact solver enumerates states; keep it small
    slot_duration_s: float = 1.0
    power_levels: int = 8
    battery_buckets: int = 16
    noise_power_w: float = 1e-9
    source_gain: float = 1e-3
    relay_gain: float = 1e-3
    source_capacity_j: float | None = None  # None = unbounded
    relay_capacity_j: float | None = None
    rx_energy_cost_j: float = 0.0

    def __post_init__(self) -> None:
        _guard.count(slot_count=self.slot_count, power_levels=self.power_levels)
        _guard.count(minimum=2, battery_buckets=self.battery_buckets)
        _guard.positive(slot_duration_s=self.slot_duration_s, noise_power_w=self.noise_power_w)
        _guard.non_negative(source_gain=self.source_gain, relay_gain=self.relay_gain,
                            rx_energy_cost_j=self.rx_energy_cost_j)
        for name in ("source_capacity_j", "relay_capacity_j"):
            capacity = getattr(self, name)  # None and inf are unbounded
            if capacity is not None and not capacity > 0:
                raise InvalidParameterError(f"{name} must be null or positive, got {capacity!r}")


@dataclass(frozen=True)
class CollabDefaults:
    xi: float = 0.5
    deadline_slots: int = 4
    horizon_slots: int = 48
    decode_snr_threshold: float = 8.0
    noise_power_w: float = 1.0
    frame_duration_s: float = 1.0
    node_capacity_j: float = 10.0
    node_gain: float = 1.0
    arrival_prob: float = 0.3
    arrival_energy_j: float = 2.0
    node_distance_m: float = 120.0

    def __post_init__(self) -> None:
        _guard.unit(xi=self.xi, arrival_prob=self.arrival_prob)
        _guard.count(deadline_slots=self.deadline_slots, horizon_slots=self.horizon_slots)
        _guard.positive(decode_snr_threshold=self.decode_snr_threshold,
                        noise_power_w=self.noise_power_w, frame_duration_s=self.frame_duration_s,
                        node_capacity_j=self.node_capacity_j,
                        arrival_energy_j=self.arrival_energy_j)
        _guard.non_negative(node_gain=self.node_gain, node_distance_m=self.node_distance_m)


@dataclass(frozen=True)
class CaseStudyDefaults:
    grid_points: int = 5
    trials: int = 600
    scaling_trials: int = 600
    scaling_k_nearest: int = 20
    nearest_share_draws: int = 4000
    nearest_share_rat: str = "macro"

    def __post_init__(self) -> None:
        _guard.count(minimum=4, grid_points=self.grid_points)  # scaling fits need 4
        _guard.count(trials=self.trials, scaling_trials=self.scaling_trials,
                     scaling_k_nearest=self.scaling_k_nearest,
                     nearest_share_draws=self.nearest_share_draws)


@dataclass(frozen=True)
class Pathloss:
    """The two propagation scenarios every RAT is evaluated under."""

    los: PathlossScenarioConfig
    nlos: PathlossScenarioConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, laid out as its document; a missing defaults section takes its defaults."""

    seed: int  # required: no implicit entropy
    region: Region
    rats: tuple[RatProfile, ...]
    pathloss: Pathloss
    swipt: SwiptDefaults = SwiptDefaults()
    scheduling: SchedulingDefaults = SchedulingDefaults()
    collab: CollabDefaults = CollabDefaults()
    case_study: CaseStudyDefaults = CaseStudyDefaults()

    def __post_init__(self) -> None:
        """The rules that span sections."""
        if not self.rats:
            raise InvalidParameterError("rats must be a non-empty list of RAT profiles")
        share_rat = self.case_study.nearest_share_rat
        if share_rat not in [rat.name for rat in self.rats]:
            raise InvalidParameterError(f"case_study.nearest_share_rat {share_rat!r} names no RAT")
        for i, rat in enumerate(self.rats):
            for name in ("los", "nlos"):
                try:
                    self.channel(rat, name)
                except InvalidParameterError as exc:
                    raise InvalidParameterError(f"pathloss.{name} for rats[{i}]: {exc}") from exc

    @property
    def los(self) -> PathlossScenarioConfig:
        return self.pathloss.los

    @property
    def nlos(self) -> PathlossScenarioConfig:
        return self.pathloss.nlos

    def rat(self, name: str) -> RatProfile:
        for rat in self.rats:
            if rat.name == name:
                return rat
        raise ConfigError(f"unknown RAT {name!r}; have {[r.name for r in self.rats]}")

    def channel(self, rat: RatProfile, scenario: str) -> tuple[PathlossModel, ShadowingSpec]:
        """Pathloss model and shadowing of ``rat`` under the "los" or "nlos" scenario."""
        scen = {"los": self.los, "nlos": self.nlos}[scenario]
        model = build_pathloss_model(scen, rat.carrier_frequency_hz)
        return model, ShadowingSpec(scen.shadowing_sigma_db, scen.shadowing_sigma_db > 0)


# The bundled scenario, read from the source checkout.
DEFAULT_CONFIG_PATH = Path(__file__).resolve().parents[2] / "configs" / "london.yaml"


def default_config() -> ScenarioConfig:
    """The scenario of ``DEFAULT_CONFIG_PATH``; a missing file raises ``ConfigError``."""
    return load_config(DEFAULT_CONFIG_PATH)


def build_pathloss_model(
    scenario: PathlossScenarioConfig, carrier_frequency_hz: float
) -> PathlossModel:
    if scenario.anchor == "friis":
        model = free_space_model(carrier_frequency_hz, scenario.reference_distance_m)
        return replace(model, exponent=scenario.exponent)
    return winner_urban_nlos_model(
        carrier_frequency_hz,
        slope_db_per_decade=10.0 * scenario.exponent,
        intercept_db=scenario.intercept_db,
        frequency_coeff_db=scenario.frequency_coeff_db,
        reference_distance_m=scenario.reference_distance_m,
    )


def build_rat_profile(rat: RatProfile) -> RatProfile:
    """Return ``rat`` unchanged.

    A scenario's RATs are already the profiles the sweeps take; this
    identity is kept only for the benchmark workloads that call it, and
    nothing in the package does.
    """
    return rat


# ---------------------------------------------------------------------------
# YAML serialisation with strict validation.


def config_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def config_from_dict(doc: dict) -> ScenarioConfig:
    """The config a scenario document describes; any error names its key path."""
    try:
        return dataclass_from_dict(ScenarioConfig, doc)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        doc = yaml.safe_load(read_text(path))
    except IngestionError as exc:
        raise ConfigError(str(exc)) from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return config_from_dict(doc)


def save_config(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=False))


def config_hash(config: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Location ingestion.


def ingest_locations_csv(path: str | Path, region: Region) -> tuple[Deployment, list[str]]:
    """Load transmitter locations from an ``x_m,y_m`` file.

    Returns the deployment (density computed as count over area) plus a
    report of dropped out-of-region points. Malformed rows raise an
    :class:`IngestionError` listing the offending line numbers.
    """
    xs, ys = _points_from_csv(read_text(path))
    inside = region.contains(xs, ys)
    report = [
        f"dropped point {i} at ({xs[i]:.1f}, {ys[i]:.1f}): outside region"
        for i in np.flatnonzero(~inside)
    ]
    xs, ys = xs[inside], ys[inside]
    return Deployment(xs, ys, xs.size / region.area_km2, region, PoissonProcess()), report


# ---------------------------------------------------------------------------
# Case study.


@dataclass(frozen=True)
class TableRow:
    rat: str
    table_density_per_km2: float
    peak_power_w: float  # LoS, median over trials at the table density
    peak_power_density_w_per_hz: float
    nlos_power_w: float
    nlos_power_density_w_per_hz: float
    winner_extrapolated: bool


@dataclass(frozen=True)
class CaseStudyReport:
    table: tuple[TableRow, ...]
    curves: tuple[SweepCurve, ...]
    exponents: dict[str, dict[str, float]]  # rat -> scenario -> fitted slope
    fit_failures: dict[str, dict[str, str]]  # rat -> scenario -> why the slope is NaN
    nearest_share: float
    nearest_mean_fraction: float
    config_hash: str
    seed: int
    runtime_s: float  # excluded from deterministic artifacts


def _density_grid(rat: RatProfile, points: int) -> np.ndarray:
    lo, hi = rat.density_range_per_km2
    return np.geomspace(lo, hi, points)


def run_case_study(config: ScenarioConfig, workers: int = 1) -> CaseStudyReport:
    """Sweep every RAT under both propagation scenarios and tabulate peaks.

    Per technology and scenario this computes a full-crowd curve over the
    density range (curves, Table rows) and a fixed-transmitter-count
    curve used for the density-scaling exponent fit. Table rows report
    the median received power at the technology's table density; the
    trial mean and standard deviation stay available in the sweep rows.

    Each technology takes two sweeps, one over the density grid (LoS and
    NLoS, full crowd and ``scaling_k_nearest``) and one at the table
    density (LoS and NLoS). Within a sweep every curve at (grid index,
    trial) uses the same deployment, probe and shadowing seed, drawn once.
    """
    t0 = time.perf_counter()
    cs = config.case_study
    k = cs.scaling_k_nearest
    rows: list[TableRow] = []
    curves: list[SweepCurve] = []
    exponents: dict[str, dict[str, float]] = {}
    fit_failures: dict[str, dict[str, str]] = {}
    for rat in config.rats:
        table_density = (
            rat.table_density_per_km2
            if rat.table_density_per_km2 is not None
            else rat.density_range_per_km2[1]
        )
        grid_views: list[SweepView] = []
        table_views: list[SweepView] = []
        for scen_name in ("los", "nlos"):
            model, shadowing = config.channel(rat, scen_name)
            grid_views += [
                SweepView(model, cs.trials, shadowing, scenario=scen_name),
                SweepView(model, cs.scaling_trials, shadowing, k, f"{scen_name}_k{k}"),
            ]
            table_views.append(
                SweepView(model, cs.trials, shadowing, scenario=f"{scen_name}_table")
            )
        los, los_scaling, nlos, nlos_scaling = crowd_sweep(
            rat,
            _density_grid(rat, cs.grid_points),
            grid_views,
            config.seed,
            region=config.region,
            workers=workers,
        )
        los_table, nlos_table = crowd_sweep(
            rat,
            [table_density],
            table_views,
            config.seed,
            region=config.region,
            workers=workers,
        )
        curves += [los, nlos]
        exponents[rat.name] = {}
        for scen_name, scaling_curve in (("los", los_scaling), ("nlos", nlos_scaling)):
            try:
                exponents[rat.name][scen_name] = scaling_exponent(scaling_curve)
            except FitFailureError as exc:
                # densities so sparse that typical deployments are empty
                # (TV at the bottom of its range): slope not measurable
                exponents[rat.name][scen_name] = math.nan
                fit_failures.setdefault(rat.name, {})[scen_name] = str(exc)
        los_power = los_table.points[0].median_power_w
        nlos_power = nlos_table.points[0].median_power_w
        rows.append(
            TableRow(
                rat=rat.name,
                table_density_per_km2=float(table_density),
                peak_power_w=los_power,
                peak_power_density_w_per_hz=los_power / rat.bandwidth_hz,
                nlos_power_w=nlos_power,
                nlos_power_density_w_per_hz=nlos_power / rat.bandwidth_hz,
                winner_extrapolated=winner_extrapolated(config.channel(rat, "nlos")[0]),
            )
        )
    share_rat = config.rat(cs.nearest_share_rat)
    nlos_model, nlos_shadowing = config.channel(share_rat, "nlos")
    share, mean_fraction = nearest_share_study(
        share_rat,
        share_rat.density_range_per_km2[1],
        nlos_model,
        cs.nearest_share_draws,
        config.seed,
        region=config.region,
        shadowing=nlos_shadowing,
        workers=workers,
    )
    return CaseStudyReport(
        table=tuple(rows),
        curves=tuple(curves),
        exponents=exponents,
        fit_failures=fit_failures,
        nearest_share=share,
        nearest_mean_fraction=mean_fraction,
        config_hash=config_hash(config),
        seed=config.seed,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Report emission. Deterministic artifacts only; the wall clock goes to a
# sidecar file so reruns stay byte-identical.

TABLE_CSV_HEADER = [
    "rat",
    "table_density_per_km2",
    "peak_power_w",
    "peak_power_density_w_per_hz",
    "nlos_power_w",
    "nlos_power_density_w_per_hz",
]


def _table_csv(report: CaseStudyReport) -> str:
    """Every field of a table row but the last, ``winner_extrapolated``."""
    return write_csv(TABLE_CSV_HEADER, (
        [row.rat] + [f"{getattr(row, key):.10g}" for key in TABLE_CSV_HEADER[1:]]
        for row in report.table
    ))


# sweeps.csv: the RAT and scenario, the sweep schema, then the medians the table uses
SWEEPS_CSV_HEADER = [
    "rat", "scenario", *SWEEP_CSV_HEADER, "median_power_w", "median_density_w_per_hz"
]


def _sweeps_csv(report: CaseStudyReport) -> str:
    return write_csv(SWEEPS_CSV_HEADER, (
        [curve.rat_name, curve.scenario, *_sweep_cells(p),
         f"{p.median_power_w:.10g}", f"{p.median_density_w_per_hz:.10g}"]
        for curve in report.curves
        for p in curve.points
    ))


def _report_json(report: CaseStudyReport) -> str:
    exponents = {
        rat: {scen: (None if math.isnan(v) else v) for scen, v in d.items()}
        for rat, d in report.exponents.items()
    }
    doc = {
        "config_hash": report.config_hash,
        "seed": report.seed,
        "table": [asdict(row) for row in report.table],
        "scaling_exponents": exponents,
        "nearest_node_energy_share": report.nearest_share,
        "nearest_node_mean_fraction": report.nearest_mean_fraction,
    }
    return dumps(doc)


def emit_report(report: CaseStudyReport, out_dir: str | Path) -> list[Path]:
    """Write table1.csv, sweeps.csv, report.json, and a runtime sidecar.

    The first three files are byte-deterministic for a fixed report; the
    sidecar (runmeta.txt) carries the wall clock and, for each scaling
    exponent reported as null, the reason its fit failed
    (``fit_failure.<rat>.<scenario>=<message>``). It is excluded from
    reproducibility comparisons.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in (
        ("table1.csv", _table_csv(report)),
        ("sweeps.csv", _sweeps_csv(report)),
        ("report.json", _report_json(report)),
    ):
        p = out / name
        p.write_text(text)
        paths.append(p)
    failures = "".join(
        f"fit_failure.{rat}.{scen}={message}\n"
        for rat, by_scenario in report.fit_failures.items()
        for scen, message in by_scenario.items()
    )
    (out / "runmeta.txt").write_text(
        f"runtime_s={report.runtime_s:.3f}\nconfig_hash={report.config_hash}\nseed={report.seed}\n"
        + failures
    )
    return paths
