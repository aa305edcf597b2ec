import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdharvest import propagation as prop
from crowdharvest.errors import DistanceOutOfRangeError, InvalidParameterError
from crowdharvest.rng import substream


def friis_aperture_power(p_tx_w, frequency_hz, d_m):
    # independent oracle: received power = P (lambda / 4 pi d)^2
    lam = prop.SPEED_OF_LIGHT / frequency_hz
    return p_tx_w * (lam / (4 * math.pi * d_m)) ** 2


class TestPathloss:
    def test_reference_anchor(self):
        model = prop.free_space_model(2.1e9)
        assert prop.pathloss_db(model, 1.0) == pytest.approx(model.reference_loss_db)

    def test_below_reference_rejected(self):
        model = prop.free_space_model(2.1e9)
        with pytest.raises(DistanceOutOfRangeError):
            prop.pathloss_db(model, 0.5)

    @pytest.mark.parametrize("d_m", [math.nan, np.array([10.0, math.nan, 20.0])],
                             ids=["scalar", "array"])
    def test_nan_distance_rejected(self, d_m):
        # NaN compares false both ways, so "d < ref" used to let it through
        model = prop.free_space_model(2.1e9)
        with pytest.raises(DistanceOutOfRangeError, match="at least the reference distance"):
            prop.pathloss_db(model, d_m)

    def test_invalid_models(self):
        with pytest.raises(InvalidParameterError):
            prop.PathlossModel(1.5, 1.0, 30.0, 2.1e9)  # exponent < 2

    def test_free_space_matches_friis_aperture(self):
        # 150 kW isotropic at 20 km, 600 MHz: about 0.6 uW received
        model = prop.free_space_model(600e6)
        power = prop.received_power(150e3, model, 20_000.0)
        oracle = friis_aperture_power(150e3, 600e6, 20_000.0)
        assert power == pytest.approx(oracle, rel=1e-9)
        assert power == pytest.approx(0.593e-6, rel=0.01)

    def test_winner_form_slope(self):
        model = prop.winner_urban_nlos_model(2.1e9)
        assert model.exponent == pytest.approx(4.3)
        l1 = prop.pathloss_db(model, 100.0)
        l2 = prop.pathloss_db(model, 1000.0)
        assert l2 - l1 == pytest.approx(43.0)

    def test_winner_extrapolation_flag(self):
        assert prop.winner_extrapolated(prop.winner_urban_nlos_model(600e6))
        assert not prop.winner_extrapolated(prop.winner_urban_nlos_model(2.1e9))


class TestReceivedPower:
    def test_zero_transmit_power(self):
        model = prop.free_space_model(2.1e9)
        assert prop.received_power(0.0, model, 100.0) == 0.0

    def test_linear_in_transmit_power(self):
        model = prop.free_space_model(2.1e9)
        p1 = prop.received_power(40.0, model, 137.0, shadowing_db=3.0)
        p2 = prop.received_power(80.0, model, 137.0, shadowing_db=3.0)
        assert p2 == 2.0 * p1

    def test_reference_distance_example(self):
        # 40 W with 38 dB reference loss: 40 * 10^-3.8
        model = prop.PathlossModel(2.0, 1.0, 38.0, 2.1e9)
        power = prop.received_power(40.0, model, 1.0)
        assert power == pytest.approx(40.0 * 10 ** (-3.8), rel=1e-12)

    def test_shadowing_adds_to_the_loss(self):
        model = prop.free_space_model(2.1e9)
        d = np.array([10.0, 100.0, 1000.0])
        shadow = np.array([-3.0, 0.0, 8.0])
        power = prop.received_power(40.0, model, d, shadow)
        expected = 40.0 * np.power(10.0, -(prop.pathloss_db(model, d) + shadow) / 10.0)
        assert np.array_equal(power, expected)

    def test_invalid_inputs(self):
        model = prop.free_space_model(2.1e9)
        with pytest.raises(InvalidParameterError):
            prop.received_power(-1.0, model, 100.0)
        with pytest.raises(DistanceOutOfRangeError):
            prop.received_power(1.0, model, 0.5)


def test_shadowing_lognormal_moment():
    # E[10^(-X/10)] = exp((sigma ln10 / 10)^2 / 2) for X ~ N(0, sigma^2)
    sigma = 8.0
    rng = substream(123, "shadow-test")
    draws = prop.draw_shadowing_db(prop.ShadowingSpec(sigma), 1_000_000, rng)
    linear = np.power(10.0, -draws / 10.0)
    expected = math.exp((sigma * math.log(10) / 10.0) ** 2 / 2.0)
    assert np.mean(linear) == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("sigma", [0.5, 8.0])
@pytest.mark.parametrize("size", [0, 1, 1000])
def test_shadowing_into_a_buffer_equals_normal(sigma, size):
    # the crowd kernel draws into a slice of its workspace row; the reference is numpy's normal
    rng, reference = substream(7, "shadow-pin"), substream(7, "shadow-pin")
    row = np.full(size + 5, np.nan)
    out = row[3 : 3 + size]
    got = prop.draw_shadowing_db(prop.ShadowingSpec(sigma), size, rng, out=out)
    expected = reference.normal(0.0, sigma, size)
    assert got is out and got.tobytes() == expected.tobytes()
    assert np.isnan(row[:3]).all() and np.isnan(row[3 + size :]).all()
    assert rng.bit_generator.state == reference.bit_generator.state
    alone = prop.draw_shadowing_db(prop.ShadowingSpec(sigma), size, substream(7, "shadow-pin"))
    assert alone.tobytes() == expected.tobytes()


def test_shadowing_disabled_is_zero():
    rng = substream(1, "x")
    assert np.all(prop.draw_shadowing_db(prop.ShadowingSpec(8.0, enabled=False), 10, rng) == 0)
    assert np.all(prop.draw_shadowing_db(None, 10, rng) == 0)
    out = np.full(4, np.nan)
    assert prop.draw_shadowing_db(None, 4, rng, out=out) is out and np.all(out == 0)
    assert rng.bit_generator.state == substream(1, "x").bit_generator.state


@given(
    d1=st.floats(1.0, 9_999.0),
    d2=st.floats(1.0, 9_999.0),
    winner=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_pathloss_monotone_in_distance(d1, d2, winner):
    if winner:
        model = prop.winner_urban_nlos_model(2.1e9)
    else:
        model = prop.free_space_model(2.1e9)
    lo, hi = sorted((d1, d2))
    assert prop.pathloss_db(model, lo) <= prop.pathloss_db(model, hi) + 1e-12


def reference_pathloss_db(model, d):
    # the loss as one allocating expression
    return model.reference_loss_db + 10.0 * model.exponent * np.log10(
        d / model.reference_distance_m
    )


OUT_MODELS = {
    "free-space": prop.free_space_model(2.4e9),
    "winner": prop.winner_urban_nlos_model(2.4e9, reference_distance_m=2.0),
    "exponent-3.3": prop.PathlossModel(3.3, 1.0, 40.0, 2.4e9),
}


@pytest.mark.parametrize("shadowed", [False, True])
@pytest.mark.parametrize("alias", [False, True])
@pytest.mark.parametrize("name", sorted(OUT_MODELS))
def test_out_matches_the_allocating_calls_bit_for_bit(name, alias, shadowed):
    model = OUT_MODELS[name]
    rng = substream(17, "out", name)
    # the reference distance, a round distance and random ones
    d = np.concatenate([[model.reference_distance_m, 300.0], rng.uniform(2.0, 5000.0, 4000)])
    shadow = prop.draw_shadowing_db(prop.ShadowingSpec(8.0), d.size, rng) if shadowed else None
    loss = prop.pathloss_db(model, d)
    power = prop.received_power(0.1, model, d, shadow)
    assert np.array_equal(loss, reference_pathloss_db(model, d))
    expected = 0.1 * np.power(10.0, -(loss if shadow is None else loss + shadow) / 10.0)
    assert np.array_equal(power, expected)

    out = d.copy() if alias else np.full(d.size, np.nan)
    source = out if alias else d
    got = prop.pathloss_db(model, source, out=out)
    assert got is out and np.array_equal(out, loss)
    out = d.copy() if alias else np.full(d.size, np.nan)
    source = out if alias else d
    got = prop.received_power(0.1, model, source, shadow, out=out)
    assert got is out and np.array_equal(out, power)


def test_scalar_distances_still_give_scalars():
    model = OUT_MODELS["free-space"]
    for d in (1.0, 300.0, 1234.5):
        loss = prop.pathloss_db(model, d)
        assert isinstance(loss, float) and loss == float(reference_pathloss_db(model, np.array(d)))
