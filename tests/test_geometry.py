import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from crowdharvest import geometry
from crowdharvest.errors import IngestionError, InvalidParameterError
from crowdharvest.rng import substream
from crowdharvest.scenario import ingest_locations_csv

REGION = geometry.Region(7745.966692414834, 7745.966692414834)  # 60 km^2


def rayleigh_cdf(x, density_per_m2):
    return geometry.nth_nearest_distance_cdf(x, 1, density_per_m2)


def nearest_distances(order, draws, seed):
    """Distance from the centre of REGION to the order-th nearest point of 5/km^2 PPP draws.

    The deployments are successive draws of one substream, each made as
    :func:`geometry.sample_process` makes it; a draw with fewer than
    ``order`` points is left out.
    """
    rng = substream(seed, "ppp")
    probe = (REGION.width_m / 2.0, REGION.height_m / 2.0)
    samples = []
    for _ in range(draws):
        xs, ys = geometry._draw_points(rng, geometry.PoissonProcess(), 5.0, REGION)
        if xs.size >= order:
            d = geometry.distances_to_probe(REGION, probe, xs, ys)
            samples.append(np.partition(d, order - 1)[order - 1])
    return np.array(samples)


@pytest.mark.parametrize("mean", [0.0, 0.3, 9.99, 10.0, 300.0, 5000.0])
@pytest.mark.parametrize(
    "region",
    [geometry.Region(3000.0, 2000.0),
     geometry.Region(3000.0, 2000.0, boundary="guard", guard_margin_m=400.0)],
    ids=["toroidal", "guard"],
)
def test_ppp_draw_is_poisson_then_two_uniforms(mean, region):
    # numpy draws a Poisson mean below 10 by multiplication and from 10 by PTRS
    density = mean / region.area_km2
    rng, reference = substream(5, "ppp-pin"), substream(5, "ppp-pin")
    xs, ys = geometry._draw_points(rng, geometry.PoissonProcess(), density, region)
    n = int(reference.poisson(density * region.area_km2))
    expected_xs = reference.uniform(0.0, region.width_m, n)
    expected_ys = reference.uniform(0.0, region.height_m, n)
    assert xs.tobytes() == expected_xs.tobytes() and ys.tobytes() == expected_ys.tobytes()
    assert xs.dtype == ys.dtype == np.float64 and xs.size == ys.size == n
    assert rng.bit_generator.state == reference.bit_generator.state


class TestRegion:
    def test_area(self):
        assert REGION.area_km2 == pytest.approx(60.0)

    @pytest.mark.parametrize("w,h", [(0, 1), (-1, 1), (1, 0)])
    def test_bad_dimensions(self, w, h):
        with pytest.raises(InvalidParameterError):
            geometry.Region(w, h)

    def test_guard_margin_bounds(self):
        geometry.Region(100, 100, "guard", 49.9)
        with pytest.raises(InvalidParameterError):
            geometry.Region(100, 100, "guard", 50.0)

    def test_guard_probe_bounds(self):
        r = geometry.Region(100, 200, "guard", 10)
        assert r.probe_bounds() == (10, 90, 10, 190)


class TestSamplePpp:
    def test_zero_density_empty(self):
        assert geometry.sample_ppp(0.0, REGION, 1).count == 0

    def test_negative_density_rejected(self):
        with pytest.raises(InvalidParameterError):
            geometry.sample_ppp(-1.0, REGION, 1)

    def test_mean_count_matches_poisson_mean(self):
        # mean count = density * area = 300 for 5/km^2 over 60 km^2
        counts = [geometry.sample_ppp(5.0, REGION, seed).count for seed in range(10_000)]
        assert np.mean(counts) == pytest.approx(300.0, rel=0.02)

    def test_points_inside_region(self):
        dep = geometry.sample_ppp(5.0, REGION, 3)
        assert np.all(REGION.contains(dep.xs, dep.ys))

    def test_deterministic_for_seed(self):
        a = geometry.sample_ppp(5.0, REGION, 42)
        b = geometry.sample_ppp(5.0, REGION, 42)
        c = geometry.sample_ppp(5.0, REGION, 43)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        assert a.count != c.count or not np.array_equal(a.xs, c.xs)

    def test_zero_density_draws_no_points(self):
        xs, ys = geometry._draw_points(substream(0, "ppp"), geometry.PoissonProcess(), 0.0, REGION)
        assert xs.shape == ys.shape == (0,)
        assert geometry.sample_ppp(0.0, REGION, 0).count == 0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_nth_nearest_distance_follows_the_analytic_law(self, order):
        # order 1 is the Rayleigh law
        samples = nearest_distances(order, 20_000, 11)
        law = kstest(samples, lambda x: geometry.nth_nearest_distance_cdf(x, order, 5e-6))
        assert law.statistic < 0.02


class TestSampleClustered:
    SPEC = geometry.ClusteredProcess(20.0, 10.0, 50.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            geometry.ClusteredProcess(0.0, 10.0, 50.0)
        with pytest.raises(InvalidParameterError):
            geometry.ClusteredProcess(20.0, 10.0, 0.0)

    def test_mean_count_is_compound_poisson_mean(self):
        # parent_density * mean_offspring * area = 20 * 10 * 60 = 12000
        counts = [
            geometry.sample_clustered(self.SPEC, REGION, seed).count for seed in range(2_000)
        ]
        assert np.mean(counts) == pytest.approx(12_000.0, rel=0.02)

    def test_large_spread_degenerates_to_ppp(self):
        # spread far beyond the inter-parent spacing washes the cluster
        # structure out: the nearest-distance law approaches the PPP
        # Rayleigh form, while tight clusters stay far from it
        probe = (REGION.width_m / 2, REGION.height_m / 2)

        def ks_for(spread):
            spec = geometry.ClusteredProcess(20.0, 10.0, spread)
            samples = []
            for seed in range(4_000):
                dep = geometry.sample_clustered(spec, REGION, seed)
                if dep.count:
                    d = geometry.distances_to_probe(REGION, probe, dep.xs, dep.ys)
                    samples.append(d.min())
            return kstest(samples, lambda x: rayleigh_cdf(x, 200e-6)).statistic

        wide, tight = ks_for(3_000.0), ks_for(50.0)
        assert wide < 0.03
        assert tight > 5.0 * wide

    @pytest.mark.parametrize("period", [REGION.width_m, 2000.0, 1.0, 0.3])
    def test_offspring_wrap_is_np_mod_byte_for_byte(self, period):
        w = period
        edges = np.array([0.0, -0.0, w, -w, 2 * w, -2 * w, np.nextafter(w, 0),
                          -np.nextafter(w, 0), 1e308, -1e308, 5e-324, -5e-324,
                          2.2e-308, -2.2e-308, -1e-300, math.nan, -math.nan])
        normals = substream(7, "wrap").normal(0.0, 3 * w, 1_000_000)
        for values in (edges, normals):
            with np.errstate(invalid="ignore"):
                want = np.mod(values, w)
            got = values.copy()
            geometry._wrap(got, w)
            assert got.tobytes() == want.tobytes()


class TestNthNearestCdf:
    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            geometry.nth_nearest_distance_cdf(1.0, 0, 1e-6)
        with pytest.raises(InvalidParameterError):
            geometry.nth_nearest_distance_cdf(1.0, 1, 0.0)

    def test_cdf_matches_the_regularised_gamma(self):
        from scipy.special import gammainc

        density = 5e-6
        r = np.concatenate(([0.0], np.geomspace(1.0, 5000.0, 80), [np.inf]))
        for n in range(1, 8):
            expected = gammainc(n, math.pi * density * np.square(r))
            ours = geometry.nth_nearest_distance_cdf(r, n, density)
            assert np.max(np.abs(ours - expected)) < 1e-13
        assert geometry.nth_nearest_distance_cdf(np.inf, 3, density) == 1.0

    @pytest.mark.parametrize("n, x", [
        (1000, 1000.0), (760, 760.0), (745, 745.0), (800, 850.0), (1000, 900.0), (2000, 1900.0),
    ])
    def test_large_orders_match_the_regularised_gamma(self, n, x):
        # e^-x underflows past x = 745: a sum that starts from it read 1.0 or 0.0 here
        from scipy.special import gammainc

        r = math.sqrt(x)
        got = geometry.nth_nearest_distance_cdf(r, n, 1.0 / math.pi)
        assert abs(got - gammainc(n, math.pi * (1.0 / math.pi) * r**2)) < 1e-12

    def test_analytic_value(self):
        # at r = 1, L = 1/pi the Poisson mean is 1: 1 - e^-1, then 1 - 2 e^-1
        assert geometry.nth_nearest_distance_cdf(1.0, 1, 1.0 / math.pi) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15
        )
        assert geometry.nth_nearest_distance_cdf(1.0, 2, 1.0 / math.pi) == pytest.approx(
            1.0 - 2.0 * math.exp(-1.0), abs=1e-15
        )

    def test_first_neighbour_is_rayleigh(self):
        density = 5e-6
        scale = 1.0 / math.sqrt(2.0 * math.pi * density)
        r = np.linspace(0.0, 2000.0, 500)
        rayleigh = 1.0 - np.exp(-np.square(r) / (2.0 * scale**2))
        assert np.max(np.abs(geometry.nth_nearest_distance_cdf(r, 1, density) - rayleigh)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rises_from_zero_to_one(self, n):
        r = np.concatenate(([0.0], np.geomspace(1.0, 5000.0, 200), [np.inf]))
        cdf = geometry.nth_nearest_distance_cdf(r, n, 5e-6)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(cdf >= 0.0) and np.all(np.diff(cdf) >= 0.0)


class TestNearestDistances:
    def test_single_point(self):
        dep = geometry.Deployment(
            np.array([30.0]), np.array([40.0]), 1.0, REGION, geometry.PoissonProcess()
        )
        d = geometry.distances_to_probe(REGION, (0.0, 0.0), dep.xs, dep.ys)
        assert d.min() == pytest.approx(50.0)

    def test_probe_on_transmitter(self):
        dep = geometry.Deployment(
            np.array([10.0, 500.0]), np.array([10.0, 500.0]), 1.0, REGION,
            geometry.PoissonProcess(),
        )
        assert geometry.distances_to_probe(REGION, (10.0, 10.0), dep.xs, dep.ys).min() == 0.0

    def test_toroidal_wrap(self):
        dep = geometry.Deployment(
            np.array([REGION.width_m - 1.0]), np.array([0.0]), 1.0, REGION,
            geometry.PoissonProcess(),
        )
        d = geometry.distances_to_probe(REGION, (1.0, 0.0), dep.xs, dep.ys)
        assert d.min() == pytest.approx(2.0)

    def test_guard_region_uses_euclidean(self):
        region = geometry.Region(1000.0, 1000.0, "guard", 10.0)
        dep = geometry.Deployment(
            np.array([999.0]), np.array([0.0]), 1.0, region, geometry.PoissonProcess()
        )
        d = geometry.distances_to_probe(region, (1.0, 0.0), dep.xs, dep.ys)
        assert d.min() == pytest.approx(998.0)


def test_superposition_of_ppps_is_ppp():
    # union of 2/km^2 and 3/km^2 has the 5/km^2 nearest-distance law
    probe = (REGION.width_m / 2, REGION.height_m / 2)
    samples = []
    for seed in range(20_000):
        a = geometry.sample_ppp(2.0, REGION, seed)
        b = geometry.sample_ppp(3.0, REGION, seed + 1_000_000)
        xs = np.concatenate([a.xs, b.xs])
        ys = np.concatenate([a.ys, b.ys])
        if xs.size:
            d = geometry.distances_to_probe(REGION, probe, xs, ys)
            samples.append(d.min())
    assert kstest(samples, lambda x: rayleigh_cdf(x, 5e-6)).statistic < 0.02


def ingest(tmp_path, text):
    """Read ``text`` back through the ingester that ``deploy --from-csv`` uses."""
    path = tmp_path / "points.csv"
    path.write_text(text)
    return ingest_locations_csv(path, REGION)


class TestSerialisation:
    def test_csv_round_trip(self, tmp_path):
        dep = geometry.sample_ppp(2.0, REGION, 5)
        text = geometry.deployment_to_csv(dep)
        assert text.splitlines()[0] == "x_m,y_m"
        back, report = ingest(tmp_path, text)
        assert report == []
        assert back.count == dep.count
        assert np.allclose(back.xs, dep.xs, atol=1e-6)

    def test_csv_bad_header(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest(tmp_path, "a,b\n1,2\n")

    def test_csv_malformed_rows_reported(self, tmp_path):
        text = "x_m,y_m\n1.0,2.0\nbroken,row,here\n3.0,nan_oops\n"
        with pytest.raises(IngestionError) as err:
            ingest(tmp_path, text)
        assert err.value.bad_rows[0][0] == 3

    def test_json_round_trip(self):
        dep = geometry.sample_clustered(geometry.ClusteredProcess(5.0, 4.0, 30.0), REGION, 9)
        back = geometry.deployment_from_json(geometry.deployment_to_json(dep))
        assert back.count == dep.count
        assert np.allclose(back.xs, dep.xs)
        assert back.region == dep.region
        assert back.process == dep.process

    def test_json_round_trip_guard_region_bit_identical(self):
        region = geometry.Region(3000.0, 2000.0, "guard", 250.0)
        dep = geometry.sample_clustered(geometry.ClusteredProcess(5.0, 4.0, 30.0), region, 9)
        back = geometry.deployment_from_json(geometry.deployment_to_json(dep))
        assert dep.count > 0
        assert np.array_equal(back.xs, dep.xs) and np.array_equal(back.ys, dep.ys)
        assert (back.region, back.process, back.density_per_km2, back.seed) == (
            dep.region, dep.process, dep.density_per_km2, dep.seed
        )

    @pytest.mark.parametrize("part,edit", [
        ("process", lambda d: d.pop("spread_m")),
        ("process", lambda d: d.update(spread=30.0)),
        ("process", lambda d: d.update(kind="thomas")),
        ("process", lambda d: d.update(mean_offspring=None)),
        ("region", lambda d: d.update(guard_margin=10.0)),
        ("region", lambda d: d.pop("width_m")),
        ("region", lambda d: d.update(width_m="wide")),
    ])
    def test_json_malformed_region_or_process_rejected(self, part, edit):
        import json

        dep = geometry.sample_clustered(geometry.ClusteredProcess(5.0, 4.0, 30.0), REGION, 9)
        doc = json.loads(geometry.deployment_to_json(dep))
        edit(doc[part])
        with pytest.raises(InvalidParameterError):
            geometry.deployment_from_json(json.dumps(doc))


@given(
    x=st.floats(0, 7745.0),
    y=st.floats(0, 7745.0),
    shift_x=st.floats(0, 7745.0),
    shift_y=st.floats(0, 7745.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_distances_to_probe_non_negative_and_translation_invariant(x, y, shift_x, shift_y, seed):
    dep = geometry.sample_ppp(2.0, REGION, seed)
    d = geometry.distances_to_probe(REGION, (x, y), dep.xs, dep.ys)
    assert d.shape == (dep.count,)
    assert np.all(d >= 0)
    assert np.all(d <= np.hypot(REGION.width_m / 2, REGION.height_m / 2) + 1e-9)
    # the torus looks the same from every point: moving probe and points together
    w, h = REGION.width_m, REGION.height_m
    moved = geometry.distances_to_probe(
        REGION, ((x + shift_x) % w, (y + shift_y) % h), (dep.xs + shift_x) % w,
        (dep.ys + shift_y) % h,
    )
    assert np.allclose(moved, d, rtol=0.0, atol=1e-6)


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_sampling_is_reproducible(seed):
    a = geometry.sample_ppp(1.0, REGION, seed)
    b = geometry.sample_ppp(1.0, REGION, seed)
    assert np.array_equal(a.xs, b.xs)


@pytest.mark.parametrize("per_point", [False, True])
@pytest.mark.parametrize(
    "region",
    [geometry.Region(2000.0, 1500.0), geometry.Region(2000.0, 1500.0, "guard", 200.0)],
    ids=["toroidal", "guard"],
)
def test_distances_out_match_the_allocating_call_bit_for_bit(region, per_point):
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, region.width_m, 3000)
    ys = rng.uniform(0.0, region.height_m, 3000)
    if per_point:
        probe = (rng.uniform(0.0, region.width_m, 3000), rng.uniform(0.0, region.height_m, 3000))
    else:
        probe = region.sample_probe(rng)
    dx, dy = np.abs(xs - probe[0]), np.abs(ys - probe[1])
    if region.boundary == "toroidal":
        dx, dy = np.minimum(dx, region.width_m - dx), np.minimum(dy, region.height_m - dy)
    coords = xs.copy(), ys.copy()
    expected = geometry.distances_to_probe(region, probe, xs, ys)
    # the allocating call leaves its inputs alone; the out= call uses them as scratch
    assert np.array_equal(expected, np.hypot(dx, dy))
    assert np.array_equal(xs, coords[0]) and np.array_equal(ys, coords[1])
    out = np.full(xs.size, np.nan)
    got = geometry.distances_to_probe(region, probe, *coords, out=out)
    assert got is out and np.array_equal(out, expected)


def test_distances_out_may_not_alias_the_coordinates():
    xs, ys = np.arange(4.0), np.arange(4.0)
    for out in (xs, ys[1:]):
        with pytest.raises(InvalidParameterError, match="share memory"):
            geometry.distances_to_probe(REGION, (0.0, 0.0), xs, ys, out=out)
