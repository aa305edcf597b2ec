import itertools
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdharvest import swipt
from crowdharvest.errors import InvalidParameterError
from crowdharvest.rng import substream

DESK = swipt.LinkState(
    source_relay_gain=1e-3,
    relay_destination_gain=1e-3,
    noise_power_w=1e-9,
    source_power_w=1.0,
)
DF = swipt.RelayMode.DECODE_FORWARD
AF = swipt.RelayMode.AMPLIFY_FORWARD


def random_link(seed, key="link"):
    rng = substream(seed, key)
    return swipt.LinkState(
        source_relay_gain=float(rng.uniform(1e-4, 1e-2)),
        relay_destination_gain=float(rng.uniform(1e-4, 1e-2)),
        noise_power_w=float(rng.uniform(1e-10, 1e-8)),
        source_power_w=float(rng.uniform(0.1, 2.0)),
        ambient_power_at_relay_w=float(rng.uniform(0.0, 1e-4)),
    )


def grid_max(protocol, link, step=1e-4, mode=DF):
    grid = np.arange(0.0, 1.0 + step / 2, step)
    best = 0.0
    for s in grid:
        best = max(best, swipt.throughput(protocol, s, link, 0.5, mode))
    return best


class TestEndpoints:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_ts_zero_at_endpoints(self, alpha):
        assert swipt.throughput("ts", alpha, DESK) == 0.0

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_ps_zero_at_endpoints(self, rho):
        assert swipt.throughput("ps", rho, DESK) == 0.0

    @pytest.mark.parametrize("mode", [DF, AF], ids=["df", "af"])
    def test_ps_closed_form(self, mode):
        # rho = 0.4 of 1 mW received charges the relay for the second half-frame
        gamma1 = 0.6 * 1e-3 / 1e-9
        gamma2 = 0.5 * 0.4 * 1e-3 * 1e-3 / 1e-9
        snr = min(gamma1, gamma2) if mode is DF else gamma1 * gamma2 / (gamma1 + gamma2 + 1.0)
        rate = swipt.throughput("ps", 0.4, DESK, 0.5, mode)
        assert rate == pytest.approx(0.5 * math.log2(1.0 + snr), rel=1e-12)

    def test_hybrid_full_split_zero(self):
        ts = swipt.hybrid_frame("ts", 0.6, 0.4, DESK)
        ps = swipt.hybrid_frame("ps", 0.3, 0.7, DESK)
        assert ts.throughput_bps_hz == 0.0 and ps.throughput_bps_hz == 0.0

    @pytest.mark.parametrize("protocol", ["ts", "ps"])
    def test_invalid_splits_rejected(self, protocol):
        with pytest.raises(InvalidParameterError):
            swipt.throughput(protocol, 1.2, DESK)
        with pytest.raises(InvalidParameterError):
            swipt.hybrid_frame(protocol, 0.7, 0.5, DESK)
        with pytest.raises(InvalidParameterError):
            swipt.throughput(protocol, -0.1, DESK)
        # NaN fails every ordered comparison, so a check like a < 0 lets it through
        with pytest.raises(InvalidParameterError):
            swipt.throughput(protocol, math.nan, DESK)
        for splits in ((math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(InvalidParameterError):
                swipt.hybrid_frame(protocol, *splits, DESK)

    @pytest.mark.parametrize("frame_duration_s", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_frame_duration_rejected(self, frame_duration_s):
        with pytest.raises(InvalidParameterError):
            swipt.hybrid_frame("ts", 0.3, 0.2, DESK, frame_duration_s=frame_duration_s)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(InvalidParameterError):
            swipt.throughput("qs", 0.3, DESK)
        with pytest.raises(InvalidParameterError):
            swipt.hybrid_frame("qs", 0.3, 0.2, DESK)


class TestSnrComposition:
    @given(st.floats(0.0, 1e7), st.floats(0.0, 1e7))
    @settings(max_examples=200, deadline=None)
    def test_af_below_min_below_df(self, g1, g2):
        af = swipt._relay_rate(1.0, g1, g2, cascade=True)
        df = swipt._relay_rate(1.0, g1, g2, cascade=False)
        assert af <= df
        assert df == math.log2(1.0 + min(g1, g2))

    def test_af_finite_where_the_hop_product_overflows(self):
        # first-hop SNR 1e210: the cascade's g1 * g2 overflowed and read NaN
        link = swipt.LinkState(1e200, 1e200, 1e-10, 1.0)
        _, af = swipt.optimize_split("ts", link, mode=AF)
        _, df = swipt.optimize_split("ts", link, mode=DF)
        assert df == pytest.approx(348.80, abs=0.005)
        assert math.isfinite(af) and 0 < af <= df
        sweep = swipt.split_sweep("ps", link, np.linspace(0.0, 1.0, 41), mode=AF)
        assert not any(math.isnan(rate) for _, rate in sweep)

    @pytest.mark.parametrize("g1, g2", [(1e200, 1e200), (1e300, 1e10), (1e10, 1e300), (1e308, 1e308)])
    def test_af_cascade_past_overflow_below_df(self, g1, g2):
        af = swipt._relay_rate(1.0, g1, g2, cascade=True)
        assert math.isfinite(af) and af <= swipt._relay_rate(1.0, g1, g2, cascade=False)

    @pytest.mark.parametrize("mode", ["df", "af", None])
    def test_unknown_mode_rejected(self, mode):
        # anything but a RelayMode used to be composed as amplify-and-forward
        with pytest.raises(InvalidParameterError):
            swipt._cascade(mode)
        with pytest.raises(InvalidParameterError):
            swipt.throughput("ts", 0.3, DESK, mode=mode)


class TestOptimizer:
    def test_zero_gain_link(self):
        link = swipt.LinkState(0.0, 1e-3, 1e-9, 1.0)
        _, value = swipt.optimize_split("ts", link)
        assert value == 0.0

    @pytest.mark.parametrize("mode", [DF, AF], ids=["df", "af"])
    def test_dead_hop_rates_zero(self, mode):
        # the relay power overflowed on a zero relay-destination gain (inf * 0 = NaN),
        # and DF kept the first hop: (0.6426, 182.86)
        _, value = swipt.optimize_split("ts", swipt.LinkState(1.0, 0.0, 1.0, 1e308), mode=mode)
        assert value == 0.0
        # a zero first hop in the cascade of an infinite second read NaN under AF
        link = swipt.LinkState(0.0, 1e300, 1e-9, 1.0, ambient_power_at_relay_w=1e300)
        assert swipt.hybrid_frame("ts", 0.0, 0.5, link, mode=mode).throughput_bps_hz == 0.0

    def test_tolerance_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            swipt.optimize_split("ts", DESK, tol=0.0)

    def test_unknown_protocol(self):
        with pytest.raises(InvalidParameterError):
            swipt.optimize_split("qs", DESK)

    @pytest.mark.parametrize("kwargs", [
        dict(coarse_points=0), dict(coarse_points=-3), dict(coarse_points=1),
        dict(coarse_points=51.0), dict(coarse_points=True),
        dict(tol=math.nan), dict(tol=math.inf), dict(tol=-1e-9),
        dict(eta=-0.5), dict(eta=0.0), dict(eta=2.0), dict(eta=math.nan), dict(mode="df"),
    ])
    @pytest.mark.parametrize("protocol", ["ts", "ps"])
    def test_invalid_search_rejected_before_any_evaluation(self, monkeypatch, protocol, kwargs):
        def no_evaluation(*args):
            raise AssertionError("a throughput was evaluated")

        # every rate evaluation at a split below 1 makes one _relay_rate call;
        # a valid search must reach the hook, or the test would check nothing
        monkeypatch.setattr(swipt, "_relay_rate", no_evaluation)
        with pytest.raises(AssertionError, match="evaluated"):
            swipt.optimize_split(protocol, DESK)
        with pytest.raises(InvalidParameterError):
            swipt.optimize_split(protocol, DESK, **kwargs)
        sweep_kwargs = {k: v for k, v in kwargs.items() if k not in ("tol", "coarse_points")}
        if sweep_kwargs:
            with pytest.raises(InvalidParameterError):
                swipt.split_sweep(protocol, DESK, np.linspace(0.0, 1.0, 5), **sweep_kwargs)

    @pytest.mark.parametrize("grid", [[0.0, 1.5], [-0.1, 0.5], [0.2, math.nan]])
    def test_sweep_rejects_splits_outside_unit_interval(self, grid):
        with pytest.raises(InvalidParameterError):
            swipt.split_sweep("ts", DESK, np.array(grid))

    @pytest.mark.parametrize("field", [
        "source_relay_gain", "relay_destination_gain", "noise_power_w", "source_power_w",
        "ambient_power_at_relay_w", "ambient_power_at_source_w",
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_link_rejected(self, field, bad):
        from dataclasses import replace

        with pytest.raises(InvalidParameterError):
            replace(DESK, **{field: bad})

    @pytest.mark.parametrize("eta", [0.3, 0.5, 1.0])
    def test_ps_df_optimum_equalises_hop_snrs(self, eta):
        # Under DF the first-hop SNR falls and the second-hop SNR rises with
        # rho; they meet at rho* = 1 / (1 + eta g2), where the rate peaks.
        for seed in range(300):
            link = random_link(seed, "accept-link")
            split, value = swipt.optimize_split("ps", link, eta=eta, tol=1e-9)
            rho = 1.0 / (1.0 + eta * link.relay_destination_gain)
            snr = (1.0 - rho) * link.source_power_w * link.source_relay_gain / link.noise_power_w
            expected = 0.5 * math.log2(1.0 + snr)
            assert abs(split - rho) <= 1e-9
            assert abs(value - expected) <= 1e-6 * expected

    @pytest.mark.parametrize("protocol", ["ts", "ps"])
    def test_desk_link_matches_fine_grid(self, protocol):
        _, value = swipt.optimize_split(protocol, DESK, tol=1e-9)
        reference = grid_max(protocol, DESK)
        assert value >= reference * (1.0 - 1e-6)
        assert value <= reference * (1.0 + 1e-4)  # grid under-samples the true peak

    @pytest.mark.parametrize("protocol", ["ts", "ps"])
    def test_matches_fine_grid_on_random_links(self, protocol):
        for seed in range(15):
            link = random_link(seed)
            _, value = swipt.optimize_split(protocol, link, tol=1e-9)
            assert value >= grid_max(protocol, link, 1e-3) * (1.0 - 1e-6)

    def test_monotone_in_source_power(self):
        from dataclasses import replace

        for seed in range(25):
            link = random_link(100 + seed)
            _, low = swipt.optimize_split("ts", link)
            _, high = swipt.optimize_split("ts", replace(link, source_power_w=link.source_power_w * 2))
            assert high > low


class TestOrderings:
    def test_ps_beats_ts_in_mean_throughput(self):
        ts_vals, ps_vals = [], []
        for i in range(300):
            rng = substream(7, "fade", i)
            link = DESK.with_fading(float(rng.exponential()), float(rng.exponential()))
            ts_vals.append(swipt.optimize_split("ts", link, tol=1e-6, coarse_points=51)[1])
            ps_vals.append(swipt.optimize_split("ps", link, tol=1e-6, coarse_points=51)[1])
        assert np.mean(ps_vals) >= np.mean(ts_vals)

    def test_ts_reaches_farther_under_af(self):
        # distance sweep: h falls as d^-3; find the largest d where the
        # fading-averaged optimised throughput still meets the target
        def mean_rate(protocol, d):
            h0 = 1e-3 * (d / 50.0) ** (-3.0)
            vals = []
            for i in range(60):
                rng = substream(9, "fade", i)
                link = swipt.LinkState(h0, 1e-3, 1e-9, 1.0).with_fading(
                    float(rng.exponential()), float(rng.exponential())
                )
                vals.append(
                    swipt.optimize_split(protocol, link, mode=AF, tol=1e-6, coarse_points=51)[1]
                )
            return float(np.mean(vals))

        grid = np.geomspace(50.0, 2000.0, 40)
        range_ts = max((d for d in grid if mean_rate("ts", d) >= 0.05), default=0.0)
        range_ps = max((d for d in grid if mean_rate("ps", d) >= 0.05), default=0.0)
        assert range_ts >= range_ps


@pytest.mark.parametrize("eta", [7.0, 0.0, -0.5, math.nan])
@pytest.mark.parametrize("protocol", ["ts", "ps"])
@pytest.mark.parametrize("rate,splits", [
    (swipt.throughput, (0.3,)), (swipt.hybrid_frame, (0.3, 0.0)),
], ids=["throughput", "hybrid_frame"])
def test_rate_functions_reject_efficiency_outside_unit_interval(rate, splits, protocol, eta):
    with pytest.raises(InvalidParameterError):
        rate(protocol, *splits, DESK, eta=eta)


class TestHybrid:
    # With the second split at 0 a hybrid is its plain protocol, bit for bit.
    # Random links with ambient power and random eta: on DESK alone (P = 1)
    # a second copy of the maths can agree while differing elsewhere. The
    # frame duration scales only the banked energy, so any duration will do.

    @pytest.mark.parametrize("mode", [DF, AF], ids=["df", "af"])
    def test_ts_reduction_exact(self, mode):
        for i in range(200):
            link = random_link(i, "hybrid")
            rng = substream(i, "hybrid-split")
            eta, t, alpha = rng.uniform(0.05, 1.0), rng.uniform(0.2, 3.0), rng.uniform()
            plain = swipt.throughput("ts", alpha, link, eta, mode)
            hybrid = swipt.hybrid_frame("ts", alpha, 0.0, link, eta, mode, t)
            assert hybrid.throughput_bps_hz == plain

    @pytest.mark.parametrize("mode", [DF, AF], ids=["df", "af"])
    def test_ps_reduction_exact(self, mode):
        for i in range(200):
            link = random_link(i, "hybrid")
            rng = substream(i, "hybrid-split")
            eta, t, rho = rng.uniform(0.05, 1.0), rng.uniform(0.2, 3.0), rng.uniform()
            plain = swipt.throughput("ps", rho, link, eta, mode)
            hybrid = swipt.hybrid_frame("ps", rho, 0.0, link, eta, mode, t)
            assert hybrid.throughput_bps_hz == plain

    @pytest.mark.parametrize("protocol", ["ts", "ps"])
    @pytest.mark.parametrize("frame_duration_s", [5e-324, 1e-320, 0.7, 1e300])
    def test_frame_duration_scales_only_the_bank(self, protocol, frame_duration_s):
        # subnormal frames underflowed the rates (the desk link's TS optimum read 2.768
        # for 3.1919 at 1e-320 s) or divided by 0 (5e-324 s)
        from dataclasses import replace

        link = replace(DESK, ambient_power_at_relay_w=1e-4, ambient_power_at_source_w=2.0)
        frame = swipt.hybrid_frame(protocol, 0.2, 0.1, link, frame_duration_s=frame_duration_s)
        unit = swipt.hybrid_frame(protocol, 0.2, 0.1, link)
        assert frame.throughput_bps_hz == unit.throughput_bps_hz
        assert frame.source_banked_j == pytest.approx(unit.source_banked_j * frame_duration_s,
                                                      rel=1e-12, abs=1e-323)

    def test_large_ambient_drives_alpha1_to_zero(self):
        from dataclasses import replace

        link = replace(DESK, ambient_power_at_relay_w=10.0)
        grid = np.linspace(0.0, 1.0, 81)
        best, best_cfg = -1.0, None
        for a1 in grid:
            for a2 in grid:
                if a1 + a2 > 1.0:
                    continue
                v = swipt.hybrid_frame("ts", a1, a2, link).throughput_bps_hz
                if v > best:
                    best, best_cfg = v, (a1, a2)
        assert best_cfg[0] == 0.0

    def test_hybrid_ps_with_ambient_beats_pure_ps(self):
        from dataclasses import replace

        link = replace(DESK, ambient_power_at_relay_w=0.5)
        grid = np.linspace(0.0, 1.0, 101)
        pure = max(swipt.throughput("ps", r, link) for r in grid)
        hybrid = max(
            swipt.hybrid_frame("ps", r1, r2, link).throughput_bps_hz
            for r1 in grid
            for r2 in grid
            if r1 + r2 <= 1.0
        )
        assert hybrid >= pure

    def test_source_bank_reported_separately(self):
        from dataclasses import replace

        link = replace(DESK, ambient_power_at_source_w=2.0)
        frame = swipt.hybrid_frame("ts", 0.2, 0.2, link, eta=0.5)
        # eta * ambient * forwarding subframe = 0.5 * 2.0 * (0.6 / 2)
        assert frame.source_banked_j == pytest.approx(0.3)
        base = swipt.hybrid_frame("ts", 0.2, 0.2, replace(link, ambient_power_at_source_w=0.0))
        assert frame.throughput_bps_hz == base.throughput_bps_hz
        # PS forwards for the second half-frame whatever the splits: 0.5 * 2.0 * (1.0 / 2)
        assert swipt.hybrid_frame("ps", 0.2, 0.2, link).source_banked_j == pytest.approx(0.5)


FIELDS = [
    "source_relay_gain",
    "relay_destination_gain",
    "source_power_w",
    "ambient_power_at_relay_w",
]


@pytest.mark.parametrize("name", FIELDS)
def test_throughput_monotone_in_link_quality(name):
    from dataclasses import replace

    base = swipt.LinkState(1e-3, 1e-3, 1e-9, 1.0, ambient_power_at_relay_w=1e-4)
    lo = swipt.hybrid_frame("ts", 0.3, 0.2, base).throughput_bps_hz
    hi = swipt.hybrid_frame(
        "ts", 0.3, 0.2, replace(base, **{name: getattr(base, name) * 3})
    ).throughput_bps_hz
    assert hi >= lo


@given(st.floats(0.0, 1.0), st.floats(0.1, 1.0))
@settings(max_examples=100, deadline=None)
def test_throughput_non_negative_and_monotone_in_eta(alpha, eta):
    low = swipt.throughput("ts", alpha, DESK, eta=eta * 0.5)
    high = swipt.throughput("ts", alpha, DESK, eta=eta)
    assert 0.0 <= low <= high


# Results recorded from the optimiser that built a validated split config for
# every evaluation; the per-protocol rate kernels must reproduce them bit for
# bit. The "eta0.3" keys were re-recorded when the frame duration left the
# throughput.
PINNED = json.loads(Path(__file__).with_name("swipt_pinned.json").read_text())
MODES = {"df": DF, "af": AF}
SEARCH_SETTINGS = {
    "tol1e-6-grid51": dict(tol=1e-6, coarse_points=51),
    "tol1e-9-grid201": dict(tol=1e-9, coarse_points=201),
    "eta0.3": dict(eta=0.3),
}
SWEEP_SETTINGS = {
    "default": {},
    "eta0.3": dict(eta=0.3),
}
SWEEP_GRID = np.linspace(0.0, 1.0, 41)


def pinned_links(fading=20, random=20):
    links = {}
    for i in range(fading):
        rng = substream(7, "fade", i)
        links[f"fade/{i}"] = DESK.with_fading(float(rng.exponential()), float(rng.exponential()))
    for seed in range(random):
        links[f"random/{seed}"] = random_link(seed)
    return links


def optimize_split_results(protocol, mode, setting):
    return {
        name: list(swipt.optimize_split(protocol, link, mode=MODES[mode], **SEARCH_SETTINGS[setting]))
        for name, link in pinned_links().items()
    }


def split_sweep_results(protocol, mode, setting):
    return {
        name: [list(row) for row in swipt.split_sweep(
            protocol, link, SWEEP_GRID, mode=MODES[mode], **SWEEP_SETTINGS[setting])]
        for name, link in pinned_links(3, 3).items()
    }


def controller_result():
    trace = substream(11, "ambient").uniform(0.0, 1.5, 40)
    result = swipt.combined_mode_controller(trace, pinned_links(2, 0)["fade/1"], 1.0)
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(result).items()}


def pinned_results():
    """Every pinned value, keyed as in ``swipt_pinned.json``."""
    return {
        "optimize_split": {
            f"{p}/{m}/{s}": optimize_split_results(p, m, s)
            for p in ("ts", "ps") for m in MODES for s in SEARCH_SETTINGS
        },
        "split_sweep": {
            f"{p}/{m}/{s}": split_sweep_results(p, m, s)
            for p in ("ts", "ps") for m in MODES for s in SWEEP_SETTINGS
        },
        "combined_mode_controller": controller_result(),
    }


class TestPinned:
    @pytest.mark.parametrize("key", sorted(PINNED["optimize_split"]))
    def test_optimize_split(self, key):
        assert optimize_split_results(*key.split("/")) == PINNED["optimize_split"][key]

    @pytest.mark.parametrize("key", sorted(PINNED["split_sweep"]))
    def test_split_sweep(self, key):
        assert split_sweep_results(*key.split("/")) == PINNED["split_sweep"][key]

    def test_combined_mode_controller(self):
        assert controller_result() == PINNED["combined_mode_controller"]


# The rate closures as they were before each built rate function resolved
# its relay mode once: every evaluation composed the hop SNRs through the
# mode check and the builtin min, then rated them in a second call. The
# kernels must return the same floats. A NaN SNR is a dead hop times an
# infinite one and rates 0, so DF's min keeps a NaN second hop.
def reference_rate(pre_log, snr):
    if pre_log <= 0 or not snr > 0:
        return 0.0
    return pre_log * math.log2(1.0 + snr)


def reference_snr(gamma1, gamma2, mode):
    if mode is DF:
        return min(gamma2, gamma1)
    assert mode is AF
    if gamma1 * gamma2 == math.inf:  # the product overflows: the same ratio, rearranged
        return gamma1 / (1.0 + (gamma1 + 1.0) / gamma2)
    denom = gamma1 + gamma2 + 1.0
    return gamma1 * gamma2 / denom if denom > 0 else 0.0


def reference_ts_rate(link, eta, mode, alpha2=0.0):
    p, h = link.source_power_w, link.source_relay_gain
    g, n = link.relay_destination_gain, link.noise_power_w
    gamma1 = p * h / n
    ambient = eta * alpha2 * link.ambient_power_at_relay_w

    def rate(a):
        info = 1.0 - a - alpha2
        if info <= 0.0:
            return 0.0
        harvested = eta * a * p * h + ambient
        hop_time = info / 2.0
        relay_power = harvested / hop_time
        gamma2 = relay_power * g / n
        return reference_rate(info / 2.0, reference_snr(gamma1, gamma2, mode))

    return rate


def reference_ps_rate(link, eta, mode, rho2=0.0):
    received = link.source_power_w * link.source_relay_gain
    g, n = link.relay_destination_gain, link.noise_power_w
    ambient = eta * rho2 * link.ambient_power_at_relay_w

    def rate(rho):
        info = 1.0 - rho - rho2
        if info <= 0.0:
            return 0.0
        relay_power = eta * rho * received + ambient
        gamma1 = info * received / n
        gamma2 = relay_power * g / n
        return reference_rate(0.5, reference_snr(gamma1, gamma2, mode))

    return rate


def reference_search(rate, tol, coarse_points):
    """``optimize_split``'s search on ``rate`` with a fresh grid and np.argmax."""
    grid = np.linspace(0.0, 1.0, coarse_points).tolist()
    values = [rate(s) for s in grid]
    best_i = int(np.argmax(values))
    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, coarse_points - 1)]
    c = b - swipt._INV_PHI * (b - a)
    d = a + swipt._INV_PHI * (b - a)
    fc, fd = rate(c), rate(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - swipt._INV_PHI * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + swipt._INV_PHI * (b - a)
            fd = rate(d)
    split = (a + b) / 2.0
    value = rate(split)
    return (split, value) if value >= values[best_i] else (grid[best_i], values[best_i])


def same_floats(a, b):
    """Equal as floats, NaN equal to NaN, and 0.0 told from -0.0."""
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


# zero gains and powers, links that only just carry a bit, and gains whose
# products overflow, where AF takes the rearranged cascade; only admitted
# links are drawn (a first-hop SNR that overflows is rejected when built)
powers = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(1e-12, 10.0))
hop_links = st.fixed_dictionaries(dict(
    source_relay_gain=powers,
    relay_destination_gain=powers,
    noise_power_w=st.one_of(st.floats(1e-300, 1e300), st.floats(1e-12, 1e-6)),
    source_power_w=powers,
    ambient_power_at_relay_w=powers,
)).filter(
    lambda kw: kw["source_power_w"] * kw["source_relay_gain"] / kw["noise_power_w"] < math.inf
).map(lambda kw: swipt.LinkState(**kw))
# both endpoints, the smallest splits, points of the searches' coarse grids, anything
splits = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-12, math.nextafter(1.0, 0.0)]),
    st.sampled_from(np.linspace(0.0, 1.0, 51).tolist() + np.linspace(0.0, 1.0, 201).tolist()),
    st.floats(0.0, 1.0),
)
second_splits = st.one_of(st.just(0.0), splits)
DEAD_HOP_SPLITS = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, math.nextafter(1.0, 0.0), 1.0]
RATE_KERNELS = {"ts": (swipt._ts_rate, reference_ts_rate),
                "ps": (swipt._ps_rate, reference_ps_rate)}


class TestRateKernelReference:
    @pytest.mark.parametrize("protocol", RATE_KERNELS)
    @settings(max_examples=400, deadline=None)
    @given(link=hop_links, eta=st.floats(1e-3, 1.0), mode=st.sampled_from([DF, AF]),
           split=splits, second=second_splits)
    def test_rate_matches_the_two_call_closure(self, protocol, link, eta, mode, split, second):
        kernel, reference = RATE_KERNELS[protocol]
        got = kernel(link, eta, mode, second)(split)
        assert same_floats(got, reference(link, eta, mode, second)(split))

    @pytest.mark.parametrize("protocol", RATE_KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(link=hop_links, mode=st.sampled_from([DF, AF]),
           coarse_points=st.sampled_from([2, 3, 51, 201]))
    def test_search_matches_the_reference_search(self, protocol, link, mode, coarse_points):
        got = swipt.optimize_split(protocol, link, mode=mode, tol=1e-6,
                                   coarse_points=coarse_points)
        rate = RATE_KERNELS[protocol][1](link, 0.5, mode)
        assert same_floats(got, reference_search(rate, 1e-6, coarse_points))

    @pytest.mark.parametrize("args", [
        (1e300, 1e300, 1e-300, 1e300),
        (1.0, 0.0, 1e-9, 1e300),  # AF read (0.0, nan): an infinite hop SNR times a zero gain
        (1.0, 1.0, 1e-9, 1e300),  # DF read (0.152..., inf)
    ])
    def test_overflowing_first_hop_snr_is_rejected(self, args):
        with pytest.raises(InvalidParameterError, match="first-hop SNR"):
            swipt.LinkState(*args)

    def test_every_admitted_link_has_a_finite_best_split(self):
        values = [5e-324, 1e-300, 1e-150, 1e-9, 1.0, 1e9, 1e150, 1e300, 1.7e308]
        admitted = 0
        dead = set()
        for h, g, p in itertools.product(values, repeat=3):
            try:
                link = swipt.LinkState(h, g, 1e-9, p)
            except InvalidParameterError:
                assert not p * h / 1e-9 < math.inf
                continue
            admitted += 1
            dead.update([(0.0, g, p), (h, 0.0, p), (h, g, 0.0)])
            for protocol, mode in itertools.product(("ts", "ps"), (DF, AF)):
                split, rate = swipt.optimize_split(protocol, link, mode=mode)
                assert math.isfinite(rate) and 0.0 <= split <= 1.0, (protocol, mode, link)
        assert admitted == 576  # of 729
        # the same links with a zero gain or a zero source power carry nothing at
        # any split
        for h, g, p in sorted(dead):
            link = swipt.LinkState(h, g, 1e-9, p)
            for protocol, mode in itertools.product(("ts", "ps"), (DF, AF)):
                split, rate = swipt.optimize_split(protocol, link, mode=mode)
                assert rate == 0.0 and 0.0 <= split <= 1.0, (protocol, mode, link)
                sweep = swipt.split_sweep(protocol, link, DEAD_HOP_SPLITS, mode=mode)
                assert all(r == 0.0 for _, r in sweep), (protocol, mode, link)
        assert len(dead) == 226  # 81 with h = 0, 64 with g = 0, 81 with p = 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf])),
                    min_size=1, max_size=12))
    def test_first_argmax_is_np_argmax(self, values):
        assert swipt._first_argmax(values) == int(np.argmax(values))

    def test_coarse_grid_is_linspace(self):
        for points in (2, 3, 51, 201):
            assert swipt._coarse_grid(points) == tuple(np.linspace(0.0, 1.0, points).tolist())
            assert swipt._coarse_grid(points) is swipt._coarse_grid(points)


class TestCombinedModeController:
    LINK = swipt.LinkState(1e-3, 1e-3, 1e-9, 1.0)

    def test_abundant_ambient_never_uses_swipt(self):
        trace = np.full(20, 5.0)
        result = swipt.combined_mode_controller(trace, self.LINK, activation_threshold_j=1.0)
        assert all(m == "non_swipt" for m in result.modes)

    def test_zero_ambient_always_swipt(self):
        result = swipt.combined_mode_controller(
            np.zeros(20), self.LINK, activation_threshold_j=0.5
        )
        assert all(m == "swipt" for m in result.modes)
        assert result.total_bits > 0

    def test_outage_recovery_beats_pure_baseline(self):
        trace = np.concatenate([np.full(10, 2.0), np.zeros(10), np.full(10, 2.0)])
        combined = swipt.combined_mode_controller(trace, self.LINK, 1.0)
        baseline = swipt.combined_mode_controller(trace, self.LINK, 1.0, swipt_enabled=False)
        assert combined.total_bits > baseline.total_bits
        # outside the outage both behave identically
        assert combined.bits_per_slot[:10] == baseline.bits_per_slot[:10]

    @pytest.mark.parametrize("kwargs", [
        dict(slot_duration_s=0.0), dict(slot_duration_s=math.nan), dict(eta=5.0),
    ])
    @pytest.mark.parametrize("swipt_enabled", [True, False])
    def test_invalid_slot_or_efficiency_rejected(self, kwargs, swipt_enabled):
        with pytest.raises(InvalidParameterError):
            swipt.combined_mode_controller(
                np.full(3, 2.0), self.LINK, 1.0, swipt_enabled=swipt_enabled, **kwargs
            )

    @pytest.mark.parametrize("swipt_enabled", [True, False])
    def test_unknown_mode_rejected_before_any_slot(self, swipt_enabled):
        # a trace that never activates used to skip the mode check when SWIPT was off
        with pytest.raises(InvalidParameterError):
            swipt.combined_mode_controller(
                np.zeros(3), self.LINK, 1.0, mode="df", swipt_enabled=swipt_enabled
            )

    @pytest.mark.parametrize("mode", [DF, AF], ids=["df", "af"])
    def test_subnormal_slot_is_finite(self, mode):
        # the half-slot underflowed to 0 and the relay power divided by it
        result = swipt.combined_mode_controller(
            np.array([1.0, 1.0]), self.LINK, 0.5, mode=mode, slot_duration_s=5e-324
        )
        # an infinite relay power leaves the first hop, SNR 1e6, to bound the rate
        assert result.modes == ("non_swipt", "non_swipt")
        assert result.bits_per_slot == (0.5 * math.log2(1.0 + 1e6),) * 2
        dead = swipt.combined_mode_controller(
            np.array([1.0]), swipt.LinkState(1e-3, 0.0, 1e-9, 1.0), 0.5, mode=mode,
            slot_duration_s=5e-324,
        )
        assert dead.bits_per_slot == (0.0,)
