import os
import sys

import numpy as np
import pytest

from crowdharvest import geometry, harvest
from crowdharvest.errors import FitFailureError, InvalidParameterError, SimulationError
from crowdharvest.propagation import (
    ShadowingSpec,
    draw_shadowing_db,
    free_space_model,
    winner_urban_nlos_model,
)
from crowdharvest.rng import substream
from conftest import SMALL_BLOCK, SMALL_CHUNK

REGION = geometry.Region(7745.966692414834, 7745.966692414834)
MACRO = harvest.RatProfile(
    name="macro",
    bandwidth_hz=20e6,
    transmit_power_w=40.0,
    density_range_per_km2=(0.5, 5.0),
    spatial_process=geometry.PoissonProcess(),
    carrier_frequency_hz=2.1e9,
    min_link_distance_m=50.0,
)
LOS = free_space_model(2.1e9)
NLOS = winner_urban_nlos_model(2.1e9)


def make_deployment(xs, ys):
    return geometry.Deployment(
        np.asarray(xs, float), np.asarray(ys, float), len(xs) / REGION.area_km2,
        REGION, geometry.PoissonProcess(),
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bandwidth_hz": 0.0},
        {"transmit_power_w": -1.0},
        {"density_range_per_km2": (5.0, 0.5)},
        {"density_range_per_km2": (0.0, 5.0)},
        {"min_link_distance_m": 0.0},
        {"table_density_per_km2": 0.0},
        {"table_density_per_km2": -1.0},
    ],
)
def test_rat_profile_invariants(kwargs):
    base = dict(
        name="x",
        bandwidth_hz=20e6,
        transmit_power_w=40.0,
        density_range_per_km2=(0.5, 5.0),
        spatial_process=geometry.PoissonProcess(),
        carrier_frequency_hz=2.1e9,
    )
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        harvest.RatProfile(**base)


class TestAggregatePower:
    def test_empty_deployment(self):
        dep = make_deployment([], [])
        report = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS)
        assert report.total_power_w == 0.0
        assert report.nearest_fraction == 0.0

    def test_single_transmitter_full_buffer(self):
        dep = make_deployment([500.0], [500.0])
        report = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS)
        assert report.nearest_fraction == 1.0
        assert report.total_power_w == pytest.approx(report.per_transmitter_w[0])

    def test_totals_are_sums(self):
        dep = make_deployment([100.0, 400.0, 900.0], [0.0, 0.0, 0.0])
        report = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS)
        assert report.total_power_w == pytest.approx(float(report.per_transmitter_w.sum()))
        assert report.power_density_w_per_hz == pytest.approx(
            report.total_power_w / MACRO.bandwidth_hz
        )

    def test_nearest_fraction_bounds(self):
        dep = geometry.sample_ppp(5.0, REGION, 7)
        report = harvest.aggregate_power((100.0, 100.0), dep, MACRO, NLOS)
        assert 1.0 / dep.count <= report.nearest_fraction <= 1.0

    def test_additive_over_disjoint_deployments(self):
        dep_a = make_deployment([100.0, 300.0], [0.0, 0.0])
        dep_b = make_deployment([700.0, 1500.0], [0.0, 0.0])
        both = make_deployment([100.0, 300.0, 700.0, 1500.0], [0.0] * 4)
        probe = (0.0, 0.0)
        t_a = harvest.aggregate_power(probe, dep_a, MACRO, LOS).total_power_w
        t_b = harvest.aggregate_power(probe, dep_b, MACRO, LOS).total_power_w
        t_ab = harvest.aggregate_power(probe, both, MACRO, LOS).total_power_w
        assert t_ab == pytest.approx(t_a + t_b, rel=1e-12)

    def test_distance_floor_applies(self):
        dep = make_deployment([1.0], [0.0])  # closer than the 50 m floor
        at_floor = make_deployment([50.0], [0.0])
        a = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS)
        b = harvest.aggregate_power((0.0, 0.0), at_floor, MACRO, LOS)
        assert a.total_power_w == pytest.approx(b.total_power_w)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"k_nearest": -1}, "k_nearest"),
            ({"k_nearest": 0}, "k_nearest"),
            ({"k_nearest": 2.5}, "k_nearest"),
            ({"k_nearest": True}, "k_nearest"),
            ({"k_nearest": float("nan")}, "k_nearest"),
            ({"k_nearest": "3"}, "k_nearest"),
        ],
    )
    def test_invalid_inputs_rejected_before_any_distance(self, monkeypatch, kwargs, message):
        dep = make_deployment([100.0, 400.0, 900.0], [0.0, 0.0, 0.0])

        def no_distances(*args, **kw):
            raise AssertionError("distances computed before the input check")

        monkeypatch.setattr(harvest, "distances_to_probe", no_distances)
        with pytest.raises(InvalidParameterError, match=message):
            harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS, **kwargs)

    def test_link_power_follows_pathloss_law(self):
        dep = make_deployment([100.0, 3000.0], [0.0, 0.0])
        report = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS)
        near, far = report.per_transmitter_w
        assert near / far == pytest.approx(30.0 ** LOS.exponent, rel=1e-9)

    def test_k_nearest_keeps_only_the_nearest_links(self):
        dep = make_deployment([900.0, 100.0, 400.0], [0.0, 0.0, 0.0])
        full = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS)
        nearest = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS, k_nearest=1)
        assert nearest.total_power_w == full.per_transmitter_w.max()
        assert nearest.nearest_fraction == 1.0
        more = harvest.aggregate_power((0.0, 0.0), dep, MACRO, LOS, k_nearest=5)
        assert more.total_power_w == full.total_power_w


class TestSweep:
    def test_single_point_single_trial_matches_direct_call(self):
        curve = harvest.upper_bound_sweep(
            MACRO, [5.0], LOS, trials=1, seed=21, region=REGION
        )
        rng = substream(21, "sweep", 0, 0)
        dep = geometry.sample_process(
            MACRO.spatial_process, 5.0, REGION, int(rng.integers(0, 2**63 - 1))
        )
        probe = REGION.sample_probe(rng)
        direct = harvest.aggregate_power(
            probe, dep, MACRO, LOS, seed=int(rng.integers(0, 2**63 - 1))
        )
        assert curve.points[0].mean_power_w == pytest.approx(direct.total_power_w, rel=1e-12)

    def test_doubling_power_doubles_every_point(self):
        from dataclasses import replace

        grid = np.geomspace(0.5, 5.0, 4)
        base = harvest.upper_bound_sweep(MACRO, grid, LOS, 40, 3, region=REGION)
        double = harvest.upper_bound_sweep(
            replace(MACRO, transmit_power_w=80.0), grid, LOS, 40, 3, region=REGION
        )
        for p1, p2 in zip(base.points, double.points):
            assert p2.mean_power_w == 2.0 * p1.mean_power_w
            assert p2.median_power_w == 2.0 * p1.median_power_w
            assert p2.std_power_w == 2.0 * p1.std_power_w

    def test_curve_monotone_in_density(self):
        grid = np.geomspace(0.5, 5.0, 5)
        curve = harvest.upper_bound_sweep(MACRO, grid, LOS, 400, 17, region=REGION)
        med = np.array([p.median_power_w for p in curve.points])
        assert np.all(np.diff(med) > 0)

    def test_workers_do_not_change_results(self):
        grid = [1.0, 3.0]
        seq = harvest.upper_bound_sweep(MACRO, grid, LOS, 30, 5, region=REGION, workers=1)
        par = harvest.upper_bound_sweep(MACRO, grid, LOS, 30, 5, region=REGION, workers=4)
        for p1, p2 in zip(seq.points, par.points):
            assert p1 == p2

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            harvest.upper_bound_sweep(MACRO, [], LOS, 10, 0, region=REGION)

    def test_csv_schema(self):
        curve = harvest.upper_bound_sweep(MACRO, [1.0], LOS, 5, 1, region=REGION)
        text = harvest.sweep_to_csv(curve)
        assert text.splitlines()[0] == "lambda_per_km2,mean_power_w,mean_density_w_per_hz,stddev_w"
        assert len(text.splitlines()) == 2


def per_curve_sweep(rat, grid, view, seed, region):
    """Reference: each curve re-draws its trials, one aggregate_power call per trial."""
    points = []
    for j, density in enumerate(np.asarray(grid, dtype=float)):
        totals = np.empty(view.trials)
        for t in range(view.trials):
            rng = substream(seed, "sweep", j, t)
            dep = geometry.sample_process(
                rat.spatial_process, density, region, int(rng.integers(0, 2**63 - 1))
            )
            probe = region.sample_probe(rng)
            totals[t] = harvest.aggregate_power(
                probe,
                dep,
                rat,
                view.model,
                shadowing=view.shadowing,
                seed=int(rng.integers(0, 2**63 - 1)),
                k_nearest=view.k_nearest,
            ).total_power_w
        points.append(
            harvest.SweepPoint(
                float(density),
                float(np.mean(totals)),
                float(np.mean(totals) / rat.bandwidth_hz),
                float(np.std(totals)),
                float(np.median(totals)),
                float(np.median(totals) / rat.bandwidth_hz),
                view.trials,
            )
        )
    return harvest.SweepCurve(rat.name, view.scenario, tuple(points))


TV = harvest.RatProfile(
    name="tv",
    bandwidth_hz=100e6,
    transmit_power_w=1e6,
    density_range_per_km2=(0.01, 0.2),
    spatial_process=geometry.PoissonProcess(),
    carrier_frequency_hz=600e6,
    min_link_distance_m=100.0,
)
FEMTO = harvest.RatProfile(
    name="femto",
    bandwidth_hz=20e6,
    transmit_power_w=1.0,
    density_range_per_km2=(15.0, 200.0),
    spatial_process=geometry.ClusteredProcess(20.0, 10.0, 50.0),
    carrier_frequency_hz=2.1e9,
    min_link_distance_m=5.0,
)
WIFI = harvest.RatProfile(
    name="wifi",
    bandwidth_hz=60e6,
    transmit_power_w=0.1,
    density_range_per_km2=(50.0, 1000.0),
    spatial_process=geometry.PoissonProcess(),
    carrier_frequency_hz=2.4e9,
    min_link_distance_m=2.0,
)
# (rat, grid, region, k_nearest, trials added to the first and third view)
ORACLE_CASES = {
    # about 0.04 transmitters per deployment: nearly every trial is empty
    "empty-tv": (TV, [0.01, 0.02], geometry.Region(2000.0, 2000.0), 20, 0),
    "clustered-guard": (
        FEMTO,
        [15.0, 60.0],
        geometry.Region(3000.0, 2000.0, boundary="guard", guard_margin_m=400.0),
        20,
        0,
    ),
    # about 6 and 12 transmitters per deployment, fewer than k_nearest
    "k-above-count": (MACRO, [1.5, 3.0], geometry.Region(2000.0, 2000.0), 40, 0),
    # 135 trials per grid point: the 270 trials span three blocks of the small kernel
    "block-crossing": (MACRO, [1.5, 3.0], geometry.Region(2000.0, 2000.0), 5, SMALL_BLOCK),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_crowd_sweep_matches_per_curve_reference(case, workers, request):
    rat, grid, region, k, extra = ORACLE_CASES[case]
    if extra:
        request.getfixturevalue("small_kernel")
    los = free_space_model(rat.carrier_frequency_hz)
    nlos = winner_urban_nlos_model(rat.carrier_frequency_hz)
    views = [
        harvest.SweepView(los, 7 + extra, None, scenario="los"),
        harvest.SweepView(los, 5, ShadowingSpec(0.0), k, "los_k"),
        harvest.SweepView(nlos, 6 + extra, ShadowingSpec(8.0), scenario="nlos"),
        harvest.SweepView(nlos, 9, ShadowingSpec(8.0), k, "nlos_k"),
    ]
    curves = harvest.crowd_sweep(rat, grid, views, 29, region=region, workers=workers)
    assert curves == tuple(per_curve_sweep(rat, grid, view, 29, region) for view in views)


@pytest.mark.parametrize("workers", [1, 2])
def test_link_workspace_grows_mid_sweep_and_serves_smaller_chunks(
    monkeypatch, small_kernel, tmp_path, workers
):
    # Wi-Fi on 3 km^2: about 900, 2070 and 450 points per deployment, so the
    # middle grid point straddles SMALL_CHUNK and the last one is smaller; the
    # grid is run twice, so with 2 workers each share sees all three
    region = geometry.Region(2000.0, 1500.0)
    grid, seed = [300.0, 690.0, 150.0] * 2, 31
    nlos = winner_urban_nlos_model(WIFI.carrier_frequency_hz)
    views = [
        harvest.SweepView(free_space_model(WIFI.carrier_frequency_hz), 10, scenario="full"),
        harvest.SweepView(nlos, 10, ShadowingSpec(8.0), 20, "k_shadowed"),
        harvest.SweepView(nlos, 8, ShadowingSpec(8.0), scenario="shadowed"),
        harvest.SweepView(nlos, 10, scenario="unshadowed"),
    ]
    # (process, columns asked for, columns held) per chunk, appended by every
    # process that runs a share, since each share owns its workspace
    record = tmp_path / "widths.txt"
    rows = harvest._LinkWorkspace.rows

    def recording_rows(self, n):
        out = rows(self, n)
        with open(record, "a") as f:
            f.write(f"{os.getpid()} {n} {self._buffer.shape[1]}\n")
        return out

    monkeypatch.setattr(harvest._LinkWorkspace, "rows", recording_rows)
    curves = harvest.crowd_sweep(WIFI, grid, views, seed, region=region, workers=workers)
    monkeypatch.undo()
    by_process = {}
    for line in record.read_text().splitlines():
        pid, n, held = map(int, line.split())
        by_process.setdefault(pid, []).append((n, held))
    assert len(by_process) == workers
    for widths in by_process.values():
        held = [h for _, h in widths]
        assert max(n for n, _ in widths) > SMALL_CHUNK
        assert len(set(held)) > 2  # the buffer grew more than once
        assert any(n < h for n, h in widths[held.index(max(held)):])
    assert curves == tuple(per_curve_sweep(WIFI, grid, view, seed, region) for view in views)


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults with getrusage")
def test_repeated_large_sweeps_take_few_page_faults():
    # about 32k points per deployment: one stage's array is 256 KB, which
    # malloc hands back to the OS when it is freed, so a kernel that
    # allocated an array per stage would fault its pages in again every trial
    import resource

    region = geometry.Region(4000.0, 4000.0)
    nlos = winner_urban_nlos_model(WIFI.carrier_frequency_hz)
    views = [
        harvest.SweepView(free_space_model(WIFI.carrier_frequency_hz), 30),
        harvest.SweepView(nlos, 30, ShadowingSpec(8.0)),
        harvest.SweepView(nlos, 30, None, 20),
    ]
    harvest.crowd_sweep(WIFI, [2000.0], views, 3, region=region)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harvest.crowd_sweep(WIFI, [2000.0], views, 4, region=region)
    per_trial = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30
    # an array per stage takes about 530 faults per trial, the workspace about 20
    assert per_trial < 100


@pytest.mark.parametrize("k", [0, -3])
def test_sweep_view_rejects_k_nearest_below_one(k):
    with pytest.raises(InvalidParameterError, match="k_nearest"):
        harvest.SweepView(LOS, 5, k_nearest=k)


@pytest.mark.parametrize("k", [2.5, True, "3", np.float64(2.0)])
def test_non_integer_k_nearest_rejected_before_any_trial(monkeypatch, k):
    # 2.5 used to fail inside the kernel's partition, and True meant 1
    monkeypatch.setattr(harvest, "substream_columns", no_trials)
    with pytest.raises(InvalidParameterError, match="k_nearest"):
        harvest.SweepView(LOS, 5, k_nearest=k)
    with pytest.raises(InvalidParameterError, match="k_nearest"):
        harvest.upper_bound_sweep(MACRO, [1.0, 2.0], LOS, 5, 3, region=REGION, k_nearest=k)


def test_integer_k_nearest_of_any_integer_type_accepted():
    assert harvest.SweepView(LOS, 5, k_nearest=np.int64(3)).k_nearest == 3


def test_views_compute_only_the_links_they_read(monkeypatch):
    # a short full-crowd view next to a long shadowed k-nearest view: the
    # short view's trials past its count and the links beyond the k nearest
    # are neither received nor shadowed
    region = geometry.Region(2000.0, 2000.0)
    grid, k, seed = [1.5, 3.0], 4, 29
    views = [
        harvest.SweepView(LOS, 3, None, scenario="short"),
        harvest.SweepView(NLOS, 40, ShadowingSpec(8.0), k, "long_k"),
    ]
    received = {"short": 0, "long_k": 0}
    shadow_sizes = []
    received_power, draw_shadowing_db = harvest.received_power, harvest.draw_shadowing_db

    def counting_power(p_tx_w, model, d, shadow_db=None, *, out=None):
        received["short" if model is LOS else "long_k"] += d.size
        return received_power(p_tx_w, model, d, shadow_db, out=out)

    def counting_shadowing(spec, size, rng, *, out=None):
        shadow_sizes.append(size)
        return draw_shadowing_db(spec, size, rng, out=out)

    monkeypatch.setattr(harvest, "received_power", counting_power)
    monkeypatch.setattr(harvest, "draw_shadowing_db", counting_shadowing)
    curves = harvest.crowd_sweep(MACRO, grid, views, seed, region=region)
    monkeypatch.undo()
    counts = np.array(
        [
            [
                geometry.sample_process(
                    MACRO.spatial_process,
                    density,
                    region,
                    int(substream(seed, "sweep", j, t).integers(0, 2**63 - 1)),
                ).count
                for t in range(40)
            ]
            for j, density in enumerate(grid)
        ]
    )
    assert counts.max() > k
    assert received == {"short": counts[:, :3].sum(), "long_k": np.minimum(counts, k).sum()}
    assert max(shadow_sizes) == k and sum(shadow_sizes) == received["long_k"]
    assert curves == tuple(per_curve_sweep(MACRO, grid, view, seed, region) for view in views)


def test_workers_write_disjoint_trials_of_one_shared_mapping():
    # more worker processes than cores, each writing its share of the trial
    # rows into the one shared mapping; share w takes every 4th trial, so all
    # shares meet inside every page and a write lost to a private copy reads 0
    region = geometry.Region(2000.0, 2000.0)
    args = (MACRO, [1.0, 3.0], NLOS, 300, 5)
    par = harvest.upper_bound_sweep(*args, region=region, shadowing=ShadowingSpec(8.0), workers=4)
    assert par == harvest.upper_bound_sweep(*args, region=region, shadowing=ShadowingSpec(8.0))


def test_every_share_computes_trials_of_every_density(monkeypatch, tmp_path):
    # a sweep's trials are grid-major, so shares of consecutive trials would
    # give one process the sparse grid point and the other the dense one
    record = tmp_path / "densities.txt"
    unit_ppp = harvest._unit_ppp

    def recording_unit_ppp(rng, density, region):
        with open(record, "a") as f:
            f.write(f"{os.getpid()} {density}\n")
        return unit_ppp(rng, density, region)

    grid, views = [1.0, 3.0], [harvest.SweepView(NLOS, 40)]
    expected = harvest.crowd_sweep(MACRO, grid, views, 5, region=REGION)
    monkeypatch.setattr(harvest, "_unit_ppp", recording_unit_ppp)
    curves = harvest.crowd_sweep(MACRO, grid, views, 5, region=REGION, workers=2)
    monkeypatch.undo()
    by_process = {}
    for line in record.read_text().splitlines():
        pid, density = line.split()
        by_process.setdefault(int(pid), set()).add(float(density))
    assert len(by_process) == 2
    assert all(len(densities) == 2 for densities in by_process.values())
    assert curves == expected


def per_draw_share(rat, density, model, draws, seed, region, shadowing):
    """Reference: nearest_share_study as one aggregate_power call per draw."""
    strongest = np.empty(draws)
    totals = np.empty(draws)
    fractions = np.empty(draws)
    for t in range(draws):
        rng = substream(seed, "share", t)
        deployment = geometry.sample_process(
            rat.spatial_process, density, region, int(rng.integers(0, 2**63 - 1))
        )
        probe = region.sample_probe(rng)
        report = harvest.aggregate_power(
            probe,
            deployment,
            rat,
            model,
            shadowing=shadowing,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        totals[t] = report.total_power_w
        strongest[t] = report.nearest_fraction * report.total_power_w
        fractions[t] = report.nearest_fraction
    total_sum = totals.sum()
    share = float(strongest.sum() / total_sum) if total_sum > 0 else 0.0
    return share, float(fractions.mean())


SHARE_CASES = {
    # about 300 transmitters per deployment, several deployments per chunk
    "macro-ppp": (MACRO, 5.0, REGION),
    # 0.25 transmitters per deployment: most deployments are empty
    "tv-sparse": (TV, 0.01, geometry.Region(5000.0, 5000.0)),
    "femto-clustered": (FEMTO, 100.0, geometry.Region(2000.0, 2000.0)),
    "femto-guard": (
        FEMTO, 60.0, geometry.Region(3000.0, 2000.0, boundary="guard", guard_margin_m=400.0)
    ),
    # 4,000 transmitters per deployment, more than one small chunk holds
    "wifi-dense": (WIFI, 1000.0, geometry.Region(2000.0, 2000.0)),
}


@pytest.mark.parametrize("shadowing", [ShadowingSpec(8.0), None], ids=["shadowed", "unshadowed"])
@pytest.mark.parametrize("case", sorted(SHARE_CASES))
def test_nearest_share_study_matches_per_draw_reference(small_kernel, case, shadowing):
    rat, density, region = SHARE_CASES[case]
    model = winner_urban_nlos_model(rat.carrier_frequency_hz)
    for draws, seed in ((SMALL_BLOCK - 1, 3), (SMALL_BLOCK + 1, 4)):
        got = harvest.nearest_share_study(
            rat, density, model, draws, seed, region=region, shadowing=shadowing
        )
        assert got == per_draw_share(rat, density, model, draws, seed, region, shadowing)


def test_nearest_share_study_workers_do_not_change_results(small_kernel):
    args = (MACRO, 5.0, NLOS, 2 * SMALL_BLOCK + 1, 11)
    kwargs = dict(region=REGION, shadowing=ShadowingSpec(8.0))
    seq = harvest.nearest_share_study(*args, **kwargs, workers=1)
    assert harvest.nearest_share_study(*args, **kwargs, workers=2) == seq


SHARE_VIEWS = [
    harvest.SweepView(LOS, 1, scenario="los"),
    harvest.SweepView(NLOS, 131, ShadowingSpec(8.0), 5, "nlos_k"),
    harvest.SweepView(NLOS, 100, ShadowingSpec(8.0), scenario="nlos"),
]
# each entry point at a trial count: shares of the trials run in forked processes
SHARE_SPLITS = {
    # 2 trials in all, fewer than most worker counts
    "sweep-2": lambda workers: harvest.crowd_sweep(
        MACRO, [1.5], SHARE_VIEWS[:1] + [harvest.SweepView(NLOS, 2, ShadowingSpec(8.0), 5)],
        7, region=geometry.Region(2000.0, 2000.0), workers=workers,
    ),
    # 2 x 131 trials: no worker count divides them, and shares cross blocks
    "sweep-262": lambda workers: harvest.crowd_sweep(
        MACRO, [1.5, 3.0], SHARE_VIEWS, 7, region=geometry.Region(2000.0, 2000.0),
        workers=workers,
    ),
    "share-3": lambda workers: harvest.nearest_share_study(
        MACRO, 5.0, NLOS, 3, 11, region=REGION, shadowing=ShadowingSpec(8.0), workers=workers
    ),
    "share-257": lambda workers: harvest.nearest_share_study(
        MACRO, 5.0, NLOS, 2 * SMALL_BLOCK + 1, 11, region=REGION, shadowing=ShadowingSpec(8.0),
        workers=workers,
    ),
}


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("split", sorted(SHARE_SPLITS))
def test_shares_do_not_change_results(small_kernel, split, workers):
    assert SHARE_SPLITS[split](workers) == SHARE_SPLITS[split](1)
    with pytest.raises(ChildProcessError):  # every forked share was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("split", ["sweep-262", "share-257"])
def test_shares_run_in_the_calling_process_without_fork(monkeypatch, small_kernel, split):
    expected = SHARE_SPLITS[split](1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert SHARE_SPLITS[split](3) == expected


class ShareFailure(RuntimeError):
    """Raised by a test inside a share of the trials."""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shares run in forked processes")
@pytest.mark.parametrize(
    "failing, expected",
    [
        # a share that only a child runs: its error keeps its type and message
        ("children", ShareFailure("child")),
        # the kernel's own typed error, raised inside a child
        ("children", InvalidParameterError("deployment points must lie inside the region")),
        # every share fails: the calling process's share 0 comes first
        ("all", ShareFailure("parent")),
    ],
    ids=["child-only", "typed-child", "parent-first"],
)
@pytest.mark.parametrize("entry", ["crowd_sweep", "nearest_share_study"])
def test_error_in_a_share_reaches_the_caller(monkeypatch, entry, failing, expected):
    parent = os.getpid()
    contains = geometry.Region.contains

    def patched(self, xs, ys):
        inside = contains(self, xs, ys)
        if failing == "all" or os.getpid() != parent:
            if isinstance(expected, ShareFailure):
                raise ShareFailure("parent" if os.getpid() == parent else "child")
            inside[:] = False  # the kernel raises on points outside the region
        return inside

    monkeypatch.setattr(geometry.Region, "contains", patched)
    with pytest.raises(type(expected)) as raised:
        ENTRIES[entry](3)
    assert type(raised.value) is type(expected) and str(raised.value) == str(expected)
    with pytest.raises(ChildProcessError):  # every forked share was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shares run in forked processes")
def test_a_share_that_dies_unreported_raises(monkeypatch):
    parent = os.getpid()
    contains = geometry.Region.contains

    def dying_contains(self, xs, ys):
        if os.getpid() != parent:
            os._exit(3)
        return contains(self, xs, ys)

    monkeypatch.setattr(geometry.Region, "contains", dying_contains)
    with pytest.raises(SimulationError, match="crowd worker 1 exited with code 3"):
        ENTRIES["crowd_sweep"](2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# The kernel's per-chunk steps against the per-trial code they replaced.


def per_deployment_ppp(rng, density, region):
    """Reference: the PPP draw as it was, each deployment's halves scaled on their own."""
    n = int(rng.poisson(density * region.area_km2))
    unit = rng.random(2 * n)
    unit[:n] *= region.width_m
    unit[n:] *= region.height_m
    return unit[:n], unit[n:]


def share_deployment_stream(seed, t):
    """The deployment substream of share draw t."""
    return substream(int(substream(seed, "share", t).integers(0, 2**63 - 1)), "ppp")


@pytest.mark.parametrize("mean", [0.0, 0.4, 300.0, 3000.0])
def test_unit_ppp_scaled_is_the_per_deployment_draw(mean):
    region = geometry.Region(2000.0, 1500.0)
    density = mean / region.area_km2
    for seed in range(20):
        reference = substream(seed, "ppp")
        want_xs, want_ys = per_deployment_ppp(reference, density, region)
        drawn = substream(seed, "ppp")
        xs, ys = geometry._draw_points(drawn, geometry.PoissonProcess(), density, region)
        unit = substream(seed, "ppp")
        unit_xs, unit_ys = geometry._unit_ppp(unit, density, region)
        unit_xs *= region.width_m
        unit_ys *= region.height_m
        for got in ((xs, ys), (unit_xs, unit_ys)):
            assert got[0].tobytes() == want_xs.tobytes() and got[1].tobytes() == want_ys.tobytes()
        state = reference.bit_generator.state
        assert drawn.bit_generator.state == state and unit.bit_generator.state == state


def test_chunks_scale_unit_points_as_each_deployment_was_scaled(monkeypatch, small_kernel):
    # means of 0.5, 300 and 3,000 points: empty deployments, several deployments
    # per SMALL_CHUNK chunk, and deployments that fill a chunk alone
    region, seed, draws = geometry.Region(2500.0, 1600.0), 13, SMALL_BLOCK + 1
    chunks = []  # (deployments in the chunk, xs, ys) as the distances see them
    distances = harvest.distances_to_probe

    def recording_distances(region, probe, xs, ys, *, out=None):
        chunks.append((np.size(probe[0]) > 1, xs.copy(), ys.copy()))
        return distances(region, probe, xs, ys, out=out)

    monkeypatch.setattr(harvest, "distances_to_probe", recording_distances)
    for density in (0.125, 75.0, 750.0):
        chunks.clear()
        harvest.nearest_share_study(MACRO, density, NLOS, draws, seed, region=region)
        points = [
            per_deployment_ppp(share_deployment_stream(seed, t), density, region)
            for t in range(draws)
        ]
        assert np.concatenate([xs for _, xs, _ in chunks]).tobytes() == np.concatenate(
            [xs for xs, _ in points]).tobytes()
        assert np.concatenate([ys for _, _, ys in chunks]).tobytes() == np.concatenate(
            [ys for _, ys in points]).tobytes()
        several = {many for many, _, _ in chunks}
        if density == 0.125:
            assert min(xs.size for xs, _ in points) == 0
        elif density == 75.0:
            assert True in several
        else:
            assert several == {False}


def chunk_shadowing_reference(rat, grid, view, seed, region):
    """Reference: a view's shadowing, one draw_shadowing_db call per non-empty trial."""
    draws = []
    for j, density in enumerate(grid):
        for t in range(view.trials):
            rng = substream(seed, "sweep", j, t)
            dep = geometry.sample_process(
                rat.spatial_process, density, region, int(rng.integers(0, 2**63 - 1))
            )
            region.sample_probe(rng)
            shadow_seed = int(rng.integers(0, 2**63 - 1))
            n = dep.count if view.k_nearest is None else min(dep.count, view.k_nearest)
            if n:
                stream = substream(shadow_seed, "shadowing")
                draws.append(draw_shadowing_db(view.shadowing, n, stream))
    return np.concatenate(draws)


@pytest.mark.parametrize("full_view", [True, False], ids=["full-and-k", "k-only"])
def test_chunk_shadowing_is_the_per_trial_draw(monkeypatch, small_kernel, full_view):
    # with a full-crowd view every trial draws its whole deployment and sigma
    # scales the chunk's row once; with only a k-nearest view each trial draws
    # and scales its prefix. Workspace rows start at 1e308, which overflows if
    # any entry the chunk did not write is scaled.
    region, grid, seed, trials = geometry.Region(2000.0, 2000.0), [15.0, 60.0], 7, 70
    spec = ShadowingSpec(8.0)
    views = [
        harvest.SweepView(LOS, trials, spec if full_view else None, None, "full"),
        harvest.SweepView(NLOS, trials, spec, 20, "k"),
    ]
    shadows = {"full": [], "k": []}
    per_trial_calls = []
    received_power, draw, rows = (
        harvest.received_power, harvest.draw_shadowing_db, harvest._LinkWorkspace.rows
    )

    def recording_power(p_tx_w, model, d, shadow_db=None, *, out=None):
        if shadow_db is not None:
            shadows["full" if model is LOS else "k"].append(np.array(shadow_db))
        return received_power(p_tx_w, model, d, shadow_db, out=out)

    def counting_draw(spec, size, rng, *, out=None):
        per_trial_calls.append(size)
        return draw(spec, size, rng, out=out)

    def poisoned_rows(self, n):
        out = rows(self, n)
        for row in out:
            row.fill(1e308)
        return out

    monkeypatch.setattr(harvest, "received_power", recording_power)
    monkeypatch.setattr(harvest, "draw_shadowing_db", counting_draw)
    monkeypatch.setattr(harvest._LinkWorkspace, "rows", poisoned_rows)
    with np.errstate(over="raise"):
        harvest.crowd_sweep(MACRO, grid, views, seed, region=region)
    monkeypatch.undo()
    for view in views:
        if view.shadowing is None:
            assert not shadows[view.scenario]
            continue
        want = chunk_shadowing_reference(MACRO, grid, view, seed, region)
        assert np.concatenate(shadows[view.scenario]).tobytes() == want.tobytes()
    # the chunk path makes no draw_shadowing_db call; the prefix path one per trial
    if full_view:
        assert per_trial_calls == []
    else:
        assert sum(per_trial_calls) == sum(s.size for s in shadows["k"])


def per_trial_strongest(rat, density, view, draws, seed, region):
    """Reference: each draw's total and strongest link, the max of its own slice.

    Also returns each draw's link count and whether its strongest link ties.
    """
    totals, maxima = np.zeros(draws), np.zeros(draws)
    links, tied = np.zeros(draws, dtype=int), np.zeros(draws, dtype=bool)
    for t in range(view.trials):
        rng = substream(seed, "share", t)
        deployment = geometry.sample_process(
            rat.spatial_process, density, region, int(rng.integers(0, 2**63 - 1))
        )
        probe = region.sample_probe(rng)
        report = harvest.aggregate_power(
            probe, deployment, rat, view.model, shadowing=view.shadowing,
            seed=int(rng.integers(0, 2**63 - 1)), k_nearest=view.k_nearest,
        )
        power = report.per_transmitter_w
        totals[t] = report.total_power_w
        maxima[t] = power.max() if power.size else 0.0
        links[t] = power.size
        tied[t] = np.count_nonzero(power == maxima[t]) > 1
    return totals, maxima, links, tied


# a floor beyond every link in the region: every link of a draw has one power
FLOORED = harvest.RatProfile("floored", 20e6, 40.0, (0.5, 5.0), geometry.PoissonProcess(),
                             2.1e9, min_link_distance_m=10_000.0)
STRONGEST_CASES = {
    # a mean of one point per deployment: single-link and empty draws
    "single-links": (MACRO, 0.25),
    "ties": (FLOORED, 2.0),
    # several deployments per chunk
    "chunks": (MACRO, 75.0),
}


@pytest.mark.parametrize("case", sorted(STRONGEST_CASES))
def test_strongest_links_are_the_per_slice_maxima(small_kernel, case):
    rat, density = STRONGEST_CASES[case]
    region, seed, draws = geometry.Region(2000.0, 2000.0), 17, SMALL_BLOCK + 3
    views = [
        harvest.SweepView(NLOS, draws, ShadowingSpec(8.0)),
        harvest.SweepView(NLOS, draws, None, 3),
        harvest.SweepView(LOS, SMALL_BLOCK // 2),
    ]
    totals, maxima = harvest._trial_powers(
        rat, region, seed, [density], draws,
        lambda rows: (np.zeros_like(rows), rows, ("share", rows)), views, strongest=True,
    )
    for v, view in enumerate(views):
        want_totals, want_maxima, links, tied = per_trial_strongest(
            rat, density, view, draws, seed, region
        )
        assert totals[:, v].tobytes() == want_totals.tobytes()
        assert maxima[:, v].tobytes() == want_maxima.tobytes()
        if case == "single-links":
            assert (links == 1).any()
        elif case == "ties" and view.shadowing is None:
            assert tied.any()
        else:
            assert (links > 1).any()


@pytest.mark.parametrize("draws", [0, -1, 1.5, True])
def test_invalid_draws_named_before_any_trial(monkeypatch, draws):
    # draws=0 used to raise about SweepView's trials
    monkeypatch.setattr(harvest, "substream_columns", no_trials)
    with pytest.raises(InvalidParameterError, match="draws must be an integer >= 1"):
        harvest.nearest_share_study(MACRO, 5.0, NLOS, draws, 3, region=REGION)


@pytest.mark.parametrize("workers", [-1, 0, 1.5, True, "2"])
@pytest.mark.parametrize("entry", ["crowd_sweep", "upper_bound_sweep", "nearest_share_study"])
def test_invalid_workers_rejected_before_any_trial(monkeypatch, entry, workers):
    # workers=-1 used to compute only the first block of trials, and 0 raised a bare ValueError
    monkeypatch.setattr(harvest, "substream_columns", no_trials)
    with pytest.raises(InvalidParameterError, match="workers"):
        ENTRIES[entry](workers)


def no_trials(*columns):
    raise AssertionError("a trial ran")


# each entry point with a given worker count; its trials start with a substream_columns call
ENTRIES = {
    "crowd_sweep": lambda workers: harvest.crowd_sweep(
        MACRO, [1.0, 2.0], [harvest.SweepView(LOS, 400)], 3, region=REGION, workers=workers
    ),
    "upper_bound_sweep": lambda workers: harvest.upper_bound_sweep(
        MACRO, [1.0, 2.0], LOS, 400, 3, region=REGION, workers=workers
    ),
    "nearest_share_study": lambda workers: harvest.nearest_share_study(
        MACRO, 5.0, NLOS, 400, 3, region=REGION, workers=workers
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_trial_sentinel_fires_for_valid_workers(monkeypatch, entry):
    # the sentinel above is the kernel's first derivation call, so a valid call reaches it
    monkeypatch.setattr(harvest, "substream_columns", no_trials)
    with pytest.raises(AssertionError, match="a trial ran"):
        ENTRIES[entry](1)


class TestScalingExponent:
    def test_exact_power_law(self):
        lam = np.geomspace(1.0, 100.0, 6)
        points = tuple(
            harvest.SweepPoint(d, d**2, d**2 / 1e6, 0.0, d**2, d**2 / 1e6, 1) for d in lam
        )
        curve = harvest.SweepCurve("synthetic", "", points)
        assert harvest.scaling_exponent(curve) == pytest.approx(2.0, abs=1e-9)

    def test_needs_four_points_and_a_decade(self):
        lam = np.array([1.0, 2.0, 3.0])
        points = tuple(harvest.SweepPoint(d, d, d, 0.0, d, d, 1) for d in lam)
        with pytest.raises(FitFailureError):
            harvest.scaling_exponent(harvest.SweepCurve("x", "", points))
        lam = np.array([1.0, 2.0, 3.0, 4.0])
        points = tuple(harvest.SweepPoint(d, d, d, 0.0, d, d, 1) for d in lam)
        with pytest.raises(FitFailureError):
            harvest.scaling_exponent(harvest.SweepCurve("x", "", points))

    def test_los_slope_near_one(self):
        grid = np.geomspace(0.5, 5.0, 5)
        curve = harvest.upper_bound_sweep(
            MACRO, grid, LOS, 300, 31, region=REGION, k_nearest=20
        )
        assert harvest.scaling_exponent(curve) == pytest.approx(1.0, abs=0.1)

    def test_nlos_slope_near_half_exponent(self):
        grid = np.geomspace(0.5, 5.0, 5)
        curve = harvest.upper_bound_sweep(
            MACRO, grid, NLOS, 300, 37, region=REGION, k_nearest=20
        )
        assert harvest.scaling_exponent(curve) == pytest.approx(2.15, abs=0.2)


class TestTrafficModels:
    def test_uniform_empirical_mean(self):
        pdf = harvest.EmpiricalPdf.uniform()
        mean = np.trapezoid(pdf.loads * pdf.densities, pdf.loads)
        assert mean == pytest.approx(0.5, abs=0.01)

    def test_pdf_must_integrate_to_one(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(InvalidParameterError):
            harvest.EmpiricalPdf(grid, np.full(11, 2.0))


class TestConvolution:
    def test_single_pdf_identity(self):
        u = harvest.EmpiricalPdf.uniform(1e-2)
        assert harvest.convolve_load_pdfs([u], 1e-2) is u

    def test_two_uniforms_triangular(self):
        u = harvest.EmpiricalPdf.uniform(1e-3)
        tri = harvest.convolve_load_pdfs([u, u], 1e-3)
        x = tri.loads
        expected = np.where(x <= 1.0, x, 2.0 - x)
        assert np.max(np.abs(tri.densities - expected)) < 1e-3
        peak = np.argmax(tri.densities)
        assert x[peak] == pytest.approx(1.0, abs=2e-3)
        assert tri.densities[peak] == pytest.approx(1.0, abs=1e-3)

    def test_integral_preserved(self):
        u = harvest.EmpiricalPdf.uniform(1e-3)
        conv = harvest.convolve_load_pdfs([u, u, u], 1e-3)
        assert float(np.trapezoid(conv.densities, conv.loads)) == pytest.approx(1.0, abs=1e-4)
        assert conv.loads[-1] == pytest.approx(3.0)

    def test_three_fold_matches_monte_carlo(self):
        u = harvest.EmpiricalPdf.uniform(1e-3)
        conv = harvest.convolve_load_pdfs([u, u, u], 1e-3)
        rng = substream(8, "mc")
        sums = rng.random((1_000_000, 3)).sum(axis=1)
        bins = np.linspace(0.0, 3.0, 61)
        emp, _ = np.histogram(sums, bins=bins)
        emp = emp / emp.sum()
        analytic = np.empty(60)
        for i in range(60):
            sel = (conv.loads >= bins[i] - 1e-12) & (conv.loads <= bins[i + 1] + 1e-12)
            analytic[i] = np.trapezoid(conv.densities[sel], conv.loads[sel])
        analytic /= analytic.sum()
        tv = 0.5 * float(np.abs(analytic - emp).sum())
        assert tv < 0.01

    def test_mismatched_grids_rejected(self):
        u1 = harvest.EmpiricalPdf.uniform(1e-2)
        u2 = harvest.EmpiricalPdf.uniform(2e-2)
        with pytest.raises(InvalidParameterError):
            harvest.convolve_load_pdfs([u1, u2], 1e-2)
        with pytest.raises(InvalidParameterError):
            harvest.convolve_load_pdfs([u1, u1], 3e-3)


def test_nearest_share_study_reports_both_statistics():
    share, mean_fraction = harvest.nearest_share_study(
        MACRO, 5.0, NLOS, 400, 3, region=REGION, shadowing=ShadowingSpec(8.0)
    )
    assert 0.0 < mean_fraction < share <= 1.0
