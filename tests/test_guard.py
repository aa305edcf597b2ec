"""Every argument range is checked before any work, and NaN is out of every range."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from crowdharvest import _guard
from crowdharvest.collaboration import (
    CollabParams,
    NodeState,
    QosSpec,
    correlated_bernoulli_traces,
    jt_snr,
    traffic_correlation_kernel,
)
from crowdharvest.errors import InvalidParameterError
from crowdharvest.geometry import (
    ClusteredProcess,
    Deployment,
    PoissonProcess,
    Region,
    nth_nearest_distance_cdf,
    sample_ppp,
)
from crowdharvest.harvest import (
    RatProfile,
    SweepView,
    aggregate_power,
    nearest_share_study,
    upper_bound_sweep,
)
from crowdharvest.propagation import (
    ShadowingSpec,
    free_space_model,
    friis_reference_loss_db,
    pathloss_db,
    received_power,
    winner_urban_nlos_model,
)
from crowdharvest.scheduling import (
    BatteryMdp,
    BernoulliArrivals,
    DeterministicArrivals,
    MarkovArrivals,
    ScheduleProblem,
    directional_water_fill,
    mdp_policy_iteration,
    simulate_arrivals,
    value_iteration_gain,
)
from crowdharvest.swipt import LinkState, combined_mode_controller

NAN, INF = math.nan, math.inf
MACRO = RatProfile("macro", 20e6, 40.0, (0.5, 5.0), PoissonProcess(), 2.1e9, 50.0)
REGION = Region(2000.0, 2000.0)
LOS = free_space_model(2.1e9)
CLUSTERED = ClusteredProcess(20.0, 10.0, 50.0)
NODE = NodeState(0.0, 10.0, BernoulliArrivals(0.3, 2.0), 1.0)
PARAMS = CollabParams(0.5, 8.0, 1.0)
DESK = LinkState(1e-3, 1e-3, 1e-9, 1.0)
CHAIN = MarkovArrivals((0.0, 1.0), ((0.5, 0.5), (0.5, 0.5)))
MDP = BatteryMdp(CHAIN, 4, 1.0, (0.0, 1.0), 1.0)

# Each of these was accepted before (most returned or stored NaN or inf), or
# failed only inside numpy with a bare ValueError.
REJECTED = {
    "RatProfile bandwidth_hz nan": lambda: replace(MACRO, bandwidth_hz=NAN),
    "RatProfile transmit_power_w nan": lambda: replace(MACRO, transmit_power_w=NAN),
    "RatProfile carrier_frequency_hz nan": lambda: replace(MACRO, carrier_frequency_hz=NAN),
    "RatProfile min_link_distance_m nan": lambda: replace(MACRO, min_link_distance_m=NAN),
    "RatProfile density range top inf": lambda: replace(MACRO, density_range_per_km2=(0.5, INF)),
    "Region width inf": lambda: Region(INF, 2000.0),
    "ClusteredProcess parent density nan": lambda: replace(CLUSTERED, parent_density_per_km2=NAN),
    "ClusteredProcess spread nan": lambda: replace(CLUSTERED, spread_m=NAN),
    "Deployment density nan": lambda: Deployment(
        np.zeros(0), np.zeros(0), NAN, REGION, PoissonProcess()),
    "PathlossModel reference distance nan": lambda: replace(LOS, reference_distance_m=NAN),
    "PathlossModel exponent nan": lambda: replace(LOS, exponent=NAN),
    "PathlossModel carrier nan": lambda: replace(LOS, carrier_frequency_hz=NAN),
    "PathlossModel reference loss nan": lambda: replace(LOS, reference_loss_db=NAN),
    "pathloss_db distance nan": lambda: pathloss_db(LOS, NAN),
    "ShadowingSpec sigma nan": lambda: ShadowingSpec(NAN),
    "friis_reference_loss_db nan": lambda: friis_reference_loss_db(NAN),
    "received_power nan": lambda: received_power(NAN, LOS, 10.0),
    "jt_snr nan": lambda: jt_snr(NAN, 1.0, 1.0, 1.0, 1.0),
    "jt_snr noise nan": lambda: jt_snr(1.0, 1.0, 1.0, 1.0, NAN),
    "jt_snr overflow": lambda: jt_snr(0.0, 1e150, 1.0, 1.0, 1e-300),
    "traffic_correlation_kernel nan": lambda: traffic_correlation_kernel(NAN),
    "winner_urban_nlos_model frequency -1": lambda: winner_urban_nlos_model(-1.0),
    "NodeState gain nan": lambda: replace(NODE, channel_gain_to_sink=NAN),
    "CollabParams threshold nan": lambda: replace(PARAMS, decode_snr_threshold=NAN),
    "CollabParams noise nan": lambda: replace(PARAMS, noise_power_w=NAN),
    "CollabParams frame duration nan": lambda: replace(PARAMS, frame_duration_s=NAN),
    "QosSpec horizon 2.5": lambda: QosSpec(4, 2.5),
    "directional_water_fill noise nan": lambda: directional_water_fill(
        np.ones(3), np.ones(3), NAN),
    "combined_mode_controller threshold nan": lambda: combined_mode_controller(
        np.ones(3), DESK, NAN),
    "SweepView trials 2.5": lambda: SweepView(LOS, 2.5),
    "sample_ppp density nan": lambda: sample_ppp(NAN, REGION, 0),
    "nth_nearest_distance_cdf density nan": lambda: nth_nearest_distance_cdf(1.0, 1, NAN),
    "nth_nearest_distance_cdf density inf": lambda: nth_nearest_distance_cdf(1.0, 1, INF),
    "nth_nearest_distance_cdf order 2.5": lambda: nth_nearest_distance_cdf(1.0, 2.5, 1e-6),
    "nth_nearest_distance_cdf order True": lambda: nth_nearest_distance_cdf(1.0, True, 1e-6),
    "LinkState noise nan": lambda: replace(DESK, noise_power_w=NAN),
    "LinkState ambient power at relay -1": lambda: replace(DESK, ambient_power_at_relay_w=-1.0),
    "BernoulliArrivals p 1.5": lambda: BernoulliArrivals(1.5, 1.0),
    "simulate_arrivals k -1": lambda: simulate_arrivals(BernoulliArrivals(0.3, 2.0), -1, 0),
    "BatteryMdp bucket nan": lambda: BatteryMdp(CHAIN, 4, NAN, (0.0, 1.0), 1.0),
    "value_iteration_gain span_tol nan": lambda: value_iteration_gain(MDP, span_tol=NAN),
    "value_iteration_gain span_tol -1e-9": lambda: value_iteration_gain(MDP, span_tol=-1e-9),
    "value_iteration_gain span_tol 0": lambda: value_iteration_gain(MDP, span_tol=0.0),
    "value_iteration_gain max_iterations 1.5": lambda: value_iteration_gain(
        MDP, max_iterations=1.5),
    "value_iteration_gain max_iterations 0": lambda: value_iteration_gain(
        MDP, max_iterations=0),
    "mdp_policy_iteration max_iterations 0": lambda: mdp_policy_iteration(
        MDP, max_iterations=0),
    "mdp_policy_iteration max_iterations 1.5": lambda: mdp_policy_iteration(
        MDP, max_iterations=1.5),
    "directional_water_fill slot duration nan": lambda: directional_water_fill(
        np.ones(3), np.ones(3), 1.0, slot_duration_s=NAN),
    "traffic_correlation_kernel correlation distance 0": lambda: traffic_correlation_kernel(
        1.0, 0.0),
    "correlated_bernoulli_traces p 1.5": lambda: correlated_bernoulli_traces(
        1.5, 1.0, 10.0, 100, 0),
    "aggregate_power k_nearest 0": lambda: aggregate_power(
        (0.0, 0.0), sample_ppp(1.0, REGION, 0), MACRO, LOS, k_nearest=0),
    "upper_bound_sweep workers 0": lambda: upper_bound_sweep(
        MACRO, [1.0], LOS, 10, 0, region=REGION, workers=0),
    **{
        f"nearest_share_study draws {draws}": partial(
            nearest_share_study, MACRO, 5.0, LOS, draws, 0, region=REGION)
        for draws in (0, -1, 1.5, True)
    },
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_out_of_range_argument_rejected(call):
    with pytest.raises(InvalidParameterError):
        call()


@pytest.mark.parametrize("check", [_guard.positive, _guard.non_negative, _guard.unit,
                                   _guard.count])
def test_every_rule_names_the_argument_and_fails_nan(check):
    with pytest.raises(InvalidParameterError, match="spread_m.*nan"):
        check(spread_m=NAN)


# each sequence field, built from two elements: (0.0, 1.0) is valid
PROBLEM = dict(slot_count=2, slot_duration_s=1.0, source_arrivals_j=(1.0, 0.5),
               relay_arrivals_j=(0.5, 1.0), source_gains=(1e-3, 1e-3), relay_gains=(1e-3, 1e-3),
               noise_power_w=1e-9)
SEQUENCE_FIELDS = {
    "states_j": lambda v: MarkovArrivals(v, ((0.5, 0.5), (0.5, 0.5))),
    "trace_j": DeterministicArrivals,
    **{name: partial(lambda name, v: ScheduleProblem(**{**PROBLEM, name: v}), name)
       for name in ("source_arrivals_j", "relay_arrivals_j", "source_gains", "relay_gains")},
    "spend_levels_j": lambda v: BatteryMdp(CHAIN, 4, 1.0, v, 1.0),
    "arrivals_j": lambda v: directional_water_fill(np.array(v), np.ones(2), 1.0),
    "ambient_trace_j": lambda v: combined_mode_controller(np.array(v), DESK, 1.0),
}


@pytest.mark.parametrize("bad", [NAN, INF, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("field", SEQUENCE_FIELDS)
def test_sequence_field_names_its_first_bad_element(field, bad):
    SEQUENCE_FIELDS[field]((0.0, 1.0))
    with pytest.raises(InvalidParameterError) as err:
        SEQUENCE_FIELDS[field]((0.0, bad))
    assert str(err.value) == f"{field}[1] must be non-negative and finite, got {bad!r}"


def test_sequence_rule_reports_the_first_bad_element():
    _guard.non_negative_elements(x=(), y=[0, 2.5], z=np.zeros(3))
    with pytest.raises(InvalidParameterError, match=r"^y\[2\] .* got -1\.0$"):
        _guard.non_negative_elements(x=[1.0], y=np.array([0.0, 3.0, -1.0, NAN]))


@pytest.mark.parametrize("check,bad,good", [
    (_guard.positive, [0.0, -1.0, INF], [1e-300, 5.0]),
    (_guard.non_negative, [-1e-300, INF], [0.0, 5.0]),
    (_guard.unit, [-1e-9, 1.0 + 1e-9, INF], [0.0, 0.5, 1.0]),
    (_guard.count, [0, 2.0, True, 2.5], [1, np.int64(7)]),
    (partial(_guard.count, minimum=2), [1], [2]),
])
def test_rule_bounds(check, bad, good):
    for value in bad:
        with pytest.raises(InvalidParameterError):
            check(x=value)
    for value in good:
        check(x=value)


@pytest.mark.parametrize("check,value,shown", [
    (_guard.positive, np.float64(-1.5), "-1.5"),
    (_guard.positive, np.int64(0), "0"),
    (_guard.non_negative, np.float64(NAN), "nan"),
    (_guard.non_negative, np.int64(-3), "-3"),
    (_guard.unit, np.float64(1.5), "1.5"),
    (_guard.unit, np.int64(2), "2"),
    (_guard.count, np.float64(2.0), "2.0"),
    (_guard.count, np.int64(0), "0"),
    (_guard.count, np.bool_(True), "True"),
])
def test_numpy_scalar_is_shown_as_its_python_number(check, value, shown):
    with pytest.raises(InvalidParameterError) as err:
        check(x=value)
    assert str(err.value).endswith(f", got {shown}")
