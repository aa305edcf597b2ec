"""Crowd-harvested RF power aggregation across urban deployments.

The central quantity is the total received power at a probe location
from every transmitter of a radio access technology (RAT), optionally
weighted by per-transmitter spectrum utilisation. Received power from a
planar point process is heavy-tailed (the nearest transmitter can be
arbitrarily close), so sweeps report the trial mean, its standard
deviation, and the trial median; the median is the statistic used for
peak-power tables and density-scaling fits because trial means of
heavy-tailed sums do not stabilise at practical trial counts.

Scaling fits additionally hold the number of contributing transmitters
fixed (``k_nearest``): the power-law in density applies to the power
collected from a fixed-size set of nearest transmitters, while letting
the set grow with density folds a logarithmic crowd-size term into the
slope.

Every sweep runs on one engine, :func:`crowd_sweep`. Trial t at grid
index j draws its deployment, probe and shadowing seed from the
substream ``(seed, "sweep", j, t)``, so every curve swept over one grid
with one seed (LoS and NLoS, full crowd and ``k_nearest``) sees the same
deployment, probe and shadowing seed at (j, t). The engine therefore
samples each deployment and measures its probe distances once and
derives every requested curve ("view") from those distances.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import FitFailureError, InvalidParameterError
from .geometry import Deployment, Region, SpatialProcess, distances_to_probe, sample_process
from .propagation import PathlossModel, ShadowingSpec, draw_shadowing_db, pathloss_db
from .rng import substream

__all__ = [
    "RatProfile",
    "FullBuffer",
    "TwoState",
    "EmpiricalPdf",
    "TrafficLoadModel",
    "HarvestReport",
    "SweepPoint",
    "SweepCurve",
    "SweepView",
    "sample_utilization",
    "convolve_load_pdfs",
    "aggregate_power",
    "crowd_sweep",
    "upper_bound_sweep",
    "scaling_exponent",
    "nearest_share_study",
    "SWEEP_CSV_HEADER",
    "sweep_to_csv",
]


@dataclass(frozen=True)
class RatProfile:
    """Radio parameters of one technology (macro, femto, Wi-Fi, TV)."""

    name: str
    bandwidth_hz: float
    transmit_power_w: float
    density_range_per_km2: tuple[float, float]
    spatial_process: SpatialProcess
    carrier_frequency_hz: float
    min_link_distance_m: float = 1.0  # physical floor: mast height / model validity

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise InvalidParameterError("bandwidth must be positive")
        if self.transmit_power_w <= 0:
            raise InvalidParameterError("transmit power must be positive")
        lo, hi = self.density_range_per_km2
        if not (0 < lo <= hi):
            raise InvalidParameterError("density range must be ordered and positive")
        if self.min_link_distance_m <= 0:
            raise InvalidParameterError("minimum link distance must be positive")


# ---------------------------------------------------------------------------
# Traffic load models (spectrum utilisation in [0, 1]).


@dataclass(frozen=True)
class FullBuffer:
    kind: str = field(default="full_buffer", init=False)


@dataclass(frozen=True)
class TwoState:
    on_prob: float
    kind: str = field(default="two_state", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.on_prob <= 1.0:
            raise InvalidParameterError("on probability must lie in [0, 1]")


@dataclass(frozen=True)
class EmpiricalPdf:
    """Tabulated density on a uniform grid; integrates to 1 by trapezoid."""

    loads: np.ndarray
    densities: np.ndarray
    kind: str = field(default="empirical", init=False)

    def __post_init__(self) -> None:
        loads = np.asarray(self.loads, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if loads.ndim != 1 or loads.shape != dens.shape or loads.size < 2:
            raise InvalidParameterError("empirical pdf needs matching 1-D grids")
        if np.any(np.diff(loads) <= 0):
            raise InvalidParameterError("pdf grid must be strictly increasing")
        if np.any(dens < 0):
            raise InvalidParameterError("pdf values must be non-negative")
        total = float(np.trapezoid(dens, loads))
        if abs(total - 1.0) > 1e-6:
            raise InvalidParameterError(f"pdf must integrate to 1, got {total:.8f}")
        loads.flags.writeable = False
        dens.flags.writeable = False
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "densities", dens)

    @staticmethod
    def uniform(grid_step: float = 1e-3) -> "EmpiricalPdf":
        n = int(round(1.0 / grid_step))
        grid = np.linspace(0.0, 1.0, n + 1)
        return EmpiricalPdf(grid, np.ones(n + 1))


TrafficLoadModel = FullBuffer | TwoState | EmpiricalPdf


def sample_utilization(
    model: TrafficLoadModel, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Draw spectrum-utilisation values in [0, 1] from a traffic model."""
    n = 1 if size is None else size
    if isinstance(model, FullBuffer):
        out = np.ones(n)
    elif isinstance(model, TwoState):
        out = (rng.random(n) < model.on_prob).astype(float)
    elif isinstance(model, EmpiricalPdf):
        if model.loads[0] < -1e-12 or model.loads[-1] > 1.0 + 1e-12:
            raise InvalidParameterError("traffic loads must be confined to [0, 1]")
        cdf = np.concatenate(
            [[0.0], np.cumsum((model.densities[1:] + model.densities[:-1]) / 2.0
                              * np.diff(model.loads))]
        )
        cdf /= cdf[-1]
        out = np.interp(rng.random(n), cdf, model.loads)
    else:
        raise InvalidParameterError(f"unknown traffic model {model!r}")
    if size is None:
        return float(out[0])
    return out


def convolve_load_pdfs(pdfs: list[EmpiricalPdf], grid_step: float) -> EmpiricalPdf:
    """Density of the sum of independent loads, as an N-fold convolution.

    Each input must live on the uniform [0, 1] grid with the given step.
    Densities are reduced to per-cell masses (trapezoid), the masses are
    convolved, and the result is read back as a density on [0, N]. Mass
    is conserved exactly, so the output integrates to 1 up to grid
    round-off.
    """
    if not pdfs:
        raise InvalidParameterError("need at least one pdf")
    n = round(1.0 / grid_step)
    if abs(n * grid_step - 1.0) > 1e-9:
        raise InvalidParameterError("grid step must divide 1 evenly")
    cells_list = []
    for pdf in pdfs:
        if pdf.loads.size != n + 1 or abs(pdf.loads[0]) > 1e-12 or abs(pdf.loads[-1] - 1) > 1e-9:
            raise InvalidParameterError("pdfs must share the uniform [0, 1] grid")
        step = np.diff(pdf.loads)
        if np.max(np.abs(step - grid_step)) > 1e-9 * max(1.0, grid_step):
            raise InvalidParameterError("pdfs must share the uniform [0, 1] grid")
        cells_list.append((pdf.densities[1:] + pdf.densities[:-1]) / 2.0 * grid_step)
    if len(cells_list) == 1:
        return pdfs[0]
    masses = cells_list[0]
    for cells in cells_list[1:]:
        masses = np.convolve(masses, cells)
    # Cell j of the convolution covers the sum's mass near (j+1)*step; read
    # the density at interior nodes and pin the support endpoints to zero.
    n_out = masses.size  # == len(pdfs)*n - (len(pdfs)-1)
    total_span = len(pdfs)
    grid = np.linspace(0.0, total_span, len(pdfs) * n + 1)
    density = np.zeros_like(grid)
    density[1 : n_out + 1] = masses / grid_step
    # Mass is conserved exactly, so the trapezoid integral is 1 up to fp noise.
    return EmpiricalPdf(grid, density)


# ---------------------------------------------------------------------------
# Power aggregation.


@dataclass(frozen=True)
class HarvestReport:
    """Received power at one probe from every transmitter of a deployment."""

    total_power_w: float
    power_density_w_per_hz: float
    per_transmitter_w: np.ndarray
    nearest_fraction: float  # share of the strongest single contribution

    def __post_init__(self) -> None:
        arr = np.asarray(self.per_transmitter_w, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "per_transmitter_w", arr)


def _received_power_w(
    d: np.ndarray,
    rat: RatProfile,
    model: PathlossModel,
    shadowing: ShadowingSpec | None,
    seed: int,
    k_nearest: int | None,
) -> np.ndarray:
    """Per-transmitter received power over links of length ``d`` (metres).

    With ``k_nearest`` only that many shortest links contribute. Links
    are floored at the larger of the model reference distance and the
    RAT's physical minimum link distance. Shadowing is drawn from the
    ``(seed, "shadowing")`` substream, spawned only when shadowing is on.
    """
    if k_nearest is not None and k_nearest < d.size:
        d = np.partition(d, k_nearest - 1)[:k_nearest]
    d = np.maximum(d, max(model.reference_distance_m, rat.min_link_distance_m))
    loss_db = pathloss_db(model, d)
    if shadowing is not None and shadowing.active:
        loss_db = loss_db + draw_shadowing_db(shadowing, d.size, substream(seed, "shadowing"))
    return rat.transmit_power_w * np.power(10.0, -loss_db / 10.0)


def aggregate_power(
    probe: tuple[float, float],
    deployment: Deployment,
    rat: RatProfile,
    model: PathlossModel,
    utilization: float | np.ndarray = 1.0,
    *,
    shadowing: ShadowingSpec | None = None,
    seed: int = 0,
    sensitivity_floor_w: float | None = None,
    k_nearest: int | None = None,
) -> HarvestReport:
    """Total and per-transmitter received power at a probe point.

    Link distances are floored at the larger of the model reference
    distance and the RAT's physical minimum link distance. When
    ``k_nearest`` is given only that many nearest transmitters
    contribute. Deterministic for a fixed seed (the seed drives the
    shadowing draws).
    """
    if deployment.count == 0:
        return HarvestReport(0.0, 0.0, np.zeros(0), 0.0)
    d = distances_to_probe(deployment.region, probe, deployment.xs, deployment.ys)
    per_tx = _received_power_w(d, rat, model, shadowing, seed, k_nearest)
    per_tx = per_tx * np.broadcast_to(np.asarray(utilization, dtype=float), per_tx.shape)
    if sensitivity_floor_w is not None:
        per_tx = np.where(per_tx >= sensitivity_floor_w, per_tx, 0.0)
    total = float(per_tx.sum())
    fraction = float(per_tx.max() / total) if total > 0 else 0.0
    return HarvestReport(total, total / rat.bandwidth_hz, per_tx, fraction)


@dataclass(frozen=True)
class SweepPoint:
    density_per_km2: float
    mean_power_w: float
    mean_density_w_per_hz: float
    std_power_w: float
    median_power_w: float
    median_density_w_per_hz: float
    trials: int


@dataclass(frozen=True)
class SweepCurve:
    rat_name: str
    scenario: str
    points: tuple[SweepPoint, ...]

    @property
    def densities(self) -> np.ndarray:
        return np.array([p.density_per_km2 for p in self.points])

    def values(self, statistic: str = "median_power_w") -> np.ndarray:
        return np.array([getattr(p, statistic) for p in self.points])


@dataclass(frozen=True)
class SweepView:
    """One curve of a crowd sweep: how the shared trial deployments are received.

    The view uses the first ``trials`` trials of every grid point; with
    ``k_nearest`` only that many nearest transmitters contribute.
    """

    model: PathlossModel
    trials: int
    shadowing: ShadowingSpec | None = None
    k_nearest: int | None = None
    scenario: str = ""

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameterError("need at least one trial")


def _sweep_point(density: float, totals: np.ndarray, bandwidth_hz: float) -> SweepPoint:
    return SweepPoint(
        density_per_km2=float(density),
        mean_power_w=float(np.mean(totals)),
        mean_density_w_per_hz=float(np.mean(totals) / bandwidth_hz),
        std_power_w=float(np.std(totals)),
        median_power_w=float(np.median(totals)),
        median_density_w_per_hz=float(np.median(totals) / bandwidth_hz),
        trials=totals.size,
    )


def crowd_sweep(
    rat: RatProfile,
    density_grid: list[float] | np.ndarray,
    views: Sequence[SweepView],
    seed: int,
    *,
    region: Region,
    workers: int = 1,
) -> tuple[SweepCurve, ...]:
    """Full-buffer received power versus transmitter density, one curve per view.

    Every transmitter radiates its full power across its whole band.
    Trial t at grid index j draws a deployment, a uniform probe and a
    shadowing seed from the substream ``(seed, "sweep", j, t)`` once,
    measures the probe's distances once, and computes the total received
    power of every view with ``t < view.trials`` from those distances; so
    all views share the deployment, probe and shadowing seed at (j, t).
    Only one trial's points are held per worker. Trials run on one pool
    of ``workers`` threads, and results are bit-identical for any worker
    count.
    """
    grid = np.asarray(density_grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("density grid must be non-empty")
    if not views:
        raise InvalidParameterError("need at least one view")
    trials = max(view.trials for view in views)

    def trial(key: tuple[int, int]) -> list[float]:
        j, t = key
        rng = substream(seed, "sweep", j, t)
        deployment = sample_process(
            rat.spatial_process, grid[j], region, int(rng.integers(0, 2**63 - 1))
        )
        probe = region.sample_probe(rng)
        shadow_seed = int(rng.integers(0, 2**63 - 1))
        if deployment.count == 0:
            return [0.0] * len(views)
        d = distances_to_probe(region, probe, deployment.xs, deployment.ys)
        del deployment  # keep only the distances live while the views are computed
        return [
            float(_received_power_w(d, rat, v.model, v.shadowing, shadow_seed, v.k_nearest).sum())
            if t < v.trials
            else math.nan
            for v in views
        ]

    keys = [(j, t) for j in range(grid.size) for t in range(trials)]
    if workers > 1:
        # One task per worker, each taking every workers-th trial: a future
        # per trial would hold about 1 kB per trial until the sweep ends.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda i: [trial(key) for key in keys[i::workers]], range(workers))
            )
        powers = [parts[n % workers][n // workers] for n in range(len(keys))]
    else:
        powers = [trial(key) for key in keys]
    # (view, grid index, trial); a view never reads the trials it does not use
    table = np.array(powers).T.reshape(len(views), grid.size, trials)
    return tuple(
        SweepCurve(
            rat.name,
            view.scenario,
            tuple(
                _sweep_point(density, table[v, j, : view.trials], rat.bandwidth_hz)
                for j, density in enumerate(grid)
            ),
        )
        for v, view in enumerate(views)
    )


def upper_bound_sweep(
    rat: RatProfile,
    density_grid: list[float] | np.ndarray,
    model: PathlossModel,
    trials: int,
    seed: int,
    *,
    region: Region,
    shadowing: ShadowingSpec | None = None,
    k_nearest: int | None = None,
    scenario: str = "",
    workers: int = 1,
) -> SweepCurve:
    """Full-buffer received power versus transmitter density: one curve.

    The one-view case of :func:`crowd_sweep`. Trial t at grid index j
    uses the deployment, probe and shadowing seed of the substream
    ``(seed, "sweep", j, t)``, the same as every other curve swept with
    that seed over that grid, so results are bit-identical no matter how
    many workers execute them.
    """
    view = SweepView(model, trials, shadowing, k_nearest, scenario)
    return crowd_sweep(rat, density_grid, [view], seed, region=region, workers=workers)[0]


def scaling_exponent(curve: SweepCurve, statistic: str = "median_power_w") -> float:
    """Least-squares slope of log power versus log density.

    Requires at least 4 grid points spanning at least one decade of
    density. On a synthetic exact power law the fit recovers the
    exponent to machine precision.
    """
    lam = curve.densities
    val = curve.values(statistic)
    if lam.size < 4:
        raise FitFailureError("scaling fit needs at least 4 grid points")
    if math.log10(lam.max() / lam.min()) < 1.0 - 1e-9:
        raise FitFailureError("scaling fit needs a grid spanning at least one decade")
    if np.any(val <= 0):
        raise FitFailureError("scaling fit needs positive power values")
    slope, _ = np.polyfit(np.log10(lam), np.log10(val), 1)
    return float(slope)


def nearest_share_study(
    rat: RatProfile,
    density_per_km2: float,
    model: PathlossModel,
    draws: int,
    seed: int,
    *,
    region: Region,
    shadowing: ShadowingSpec | None = None,
) -> tuple[float, float]:
    """Share of crowd-harvested energy supplied by the strongest node.

    Returns ``(energy_share, mean_fraction)`` over independent
    probe/deployment draws: ``energy_share`` is the energy-weighted
    share, the summed strongest-node power over the summed total power,
    which is the fraction of all harvested energy attributable to the
    nearest transmitter; ``mean_fraction`` is the unweighted mean of the
    per-draw share, reported for sensitivity.
    """
    strongest = np.empty(draws)
    totals = np.empty(draws)
    fractions = np.empty(draws)
    for t in range(draws):
        rng = substream(seed, "share", t)
        deployment = sample_process(
            rat.spatial_process, density_per_km2, region, int(rng.integers(0, 2**63 - 1))
        )
        probe = region.sample_probe(rng)
        report = aggregate_power(
            probe,
            deployment,
            rat,
            model,
            1.0,
            shadowing=shadowing,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        totals[t] = report.total_power_w
        strongest[t] = report.nearest_fraction * report.total_power_w
        fractions[t] = report.nearest_fraction
    total_sum = totals.sum()
    share = float(strongest.sum() / total_sum) if total_sum > 0 else 0.0
    return share, float(fractions.mean())


SWEEP_CSV_HEADER = ["lambda_per_km2", "mean_power_w", "mean_density_w_per_hz", "stddev_w"]


def sweep_to_csv(curve: SweepCurve) -> str:
    """Serialise a sweep with the standard four-column schema."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for p in curve.points:
        writer.writerow(
            [
                f"{p.density_per_km2:.10g}",
                f"{p.mean_power_w:.10g}",
                f"{p.mean_density_w_per_hz:.10g}",
                f"{p.std_power_w:.10g}",
            ]
        )
    return buf.getvalue()
