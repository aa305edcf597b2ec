import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdharvest import collaboration as collab
from crowdharvest.errors import IngestionError, InvalidParameterError
from crowdharvest.scheduling import BernoulliArrivals, DeterministicArrivals

PARAMS = collab.CollabParams(xi=0.5, decode_snr_threshold=8.0, noise_power_w=1.0)


def bernoulli_nodes(p=0.35, energy=2.0, capacity=10.0, gain=1.0):
    proc = BernoulliArrivals(p, energy)
    return (
        collab.NodeState(0.0, capacity, proc, gain),
        collab.NodeState(0.0, capacity, proc, gain),
    )


class TestJtSnr:
    def test_single_node_reduction(self):
        assert collab.jt_snr(4.0, 0.0, 2.0, 1.0, 2.0) == pytest.approx(4.0)

    def test_symmetric_inputs_quadruple(self):
        single = collab.jt_snr(1.0, 0.0, 1.0, 1.0, 1.0)
        joint = collab.jt_snr(1.0, 1.0, 1.0, 1.0, 1.0)
        assert joint == pytest.approx(4.0 * single)

    def test_amplitudes_add(self):
        # (sqrt(1 * 1) + sqrt(4 * 1))^2 / 1: coherent, not power, combining
        assert collab.jt_snr(1.0, 4.0, 1.0, 1.0, 1.0) == pytest.approx(9.0, rel=1e-12)

    def test_zero_noise_rejected(self):
        with pytest.raises(InvalidParameterError):
            collab.jt_snr(1.0, 1.0, 1.0, 1.0, 0.0)

    @given(
        pa=st.floats(0.0, 100.0),
        pb=st.floats(0.0, 100.0),
        ga=st.floats(0.0, 10.0),
        gb=st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_superadditivity(self, pa, pb, ga, gb):
        ab = collab.jt_snr(pa, pb, ga, gb, 1.0)
        ba = collab.jt_snr(pb, pa, gb, ga, 1.0)
        assert ab == pytest.approx(ba, rel=1e-12, abs=1e-12)
        assert ab >= collab.jt_snr(pa, 0.0, ga, gb, 1.0) - 1e-12
        assert ab >= collab.jt_snr(0.0, pb, ga, gb, 1.0) - 1e-12

    @given(pa=st.floats(0.0, 100.0), extra=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_power(self, pa, extra):
        lo = collab.jt_snr(pa, 1.0, 1.0, 1.0, 1.0)
        hi = collab.jt_snr(pa + extra, 1.0, 1.0, 1.0, 1.0)
        assert hi >= lo - 1e-12


class TestCollabSchedule:
    def test_always_energised_never_violates(self):
        nodes = (
            collab.NodeState(0.0, 100.0, DeterministicArrivals((10.0,) * 20), 1.0),
            collab.NodeState(0.0, 100.0, DeterministicArrivals((10.0,) * 20), 1.0),
        )
        easy = replace(PARAMS, decode_snr_threshold=1e-3)
        result = collab.collab_schedule(nodes, collab.QosSpec(4, 20), easy, 1)
        assert result.violations == 0
        assert result.delivered_count == 20

    def test_starved_nodes_violate_every_deadline(self):
        nodes = (
            collab.NodeState(0.0, 10.0, DeterministicArrivals(()), 1.0),
            collab.NodeState(0.0, 10.0, DeterministicArrivals(()), 1.0),
        )
        for horizon, deadline in ((20, 4), (21, 4), (12, 5)):
            result = collab.collab_schedule(
                nodes, collab.QosSpec(deadline, horizon), PARAMS, 1
            )
            assert result.violations == horizon // deadline
            assert result.delivered_count == 0

    def test_rescue_scenario_needs_joint_transmission(self):
        nodes, qos, params = collab.rescue_demo()
        with_jt = collab.collab_schedule(nodes, qos, params, 0)
        without = collab.collab_schedule(nodes, qos, replace(params, jt_enabled=False), 0)
        assert with_jt.violations == 0
        assert without.violations >= 1
        assert any(f.jt_active for f in with_jt.frames)

    def test_jt_never_hurts_on_random_traces(self):
        qos = collab.QosSpec(4, 60)
        for seed in range(40):
            nodes = bernoulli_nodes()
            vj = collab.collab_schedule(nodes, qos, PARAMS, seed).violations
            vn = collab.collab_schedule(
                nodes, qos, replace(PARAMS, jt_enabled=False), seed
            ).violations
            assert vj <= vn

    def test_batteries_stay_within_bounds(self):
        nodes = bernoulli_nodes(p=0.8, energy=4.0, capacity=6.0)
        result = collab.collab_schedule(nodes, collab.QosSpec(3, 200), PARAMS, 12)
        for trace, cap in zip(result.battery_traces, (6.0, 6.0)):
            arr = np.asarray(trace)
            assert np.all(arr >= -1e-12)
            assert np.all(arr <= cap + 1e-12)

    def test_deterministic_for_seed(self):
        nodes = bernoulli_nodes()
        qos = collab.QosSpec(4, 50)
        a = collab.collab_schedule(nodes, qos, PARAMS, 3)
        b = collab.collab_schedule(nodes, qos, PARAMS, 3)
        assert a == b

    def test_no_joint_delivery_on_an_overflowing_snr(self):
        # B's 10 W over a 1e308 gain overflows; scaled by threshold / inf, a
        # joint delivery would spend nothing from either battery
        idle = DeterministicArrivals((0.0,) * 4)
        nodes = (collab.NodeState(10.0, 10.0, idle, 1e-300),
                 collab.NodeState(5.0, 5.0, idle, 1e308))
        with pytest.raises(InvalidParameterError, match="snr must be non-negative and finite"):
            collab.collab_schedule(nodes, collab.QosSpec(1, 4), PARAMS)


class TestOptimizeFrameSplit:
    def test_single_point_grid(self):
        nodes = bernoulli_nodes()
        xi, _ = collab.optimize_frame_split(nodes, collab.QosSpec(4, 30), PARAMS, [0.37], 1)
        assert xi == 0.37

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            collab.optimize_frame_split(bernoulli_nodes(), collab.QosSpec(4, 30), PARAMS, [], 1)

    def test_symmetric_nodes_invariant_under_swap(self):
        nodes = bernoulli_nodes()
        swapped = (nodes[1], nodes[0])
        grid = np.linspace(0.0, 1.0, 6)
        a = collab.optimize_frame_split(nodes, collab.QosSpec(4, 40), PARAMS, grid, 5)
        b = collab.optimize_frame_split(swapped, collab.QosSpec(4, 40), PARAMS, grid, 5)
        assert a == b

    def test_jt_only_delivery_prefers_small_xi(self):
        # threshold reachable only jointly: more collaboration subframe helps
        proc = DeterministicArrivals((2.0,) * 40)
        nodes = (
            collab.NodeState(0.0, 4.0, proc, 1.0),
            collab.NodeState(0.0, 4.0, proc, 1.0),
        )
        hard = replace(PARAMS, decode_snr_threshold=25.0)
        grid = [0.1, 0.9]
        xi, _ = collab.optimize_frame_split(nodes, collab.QosSpec(2, 40), hard, grid, 2)
        assert xi == 0.1


class TestCorrelationKernel:
    def test_zero_distance(self):
        assert collab.traffic_correlation_kernel(0.0) == 1.0

    def test_kernel_at_scale(self):
        assert collab.traffic_correlation_kernel(80.0, 80.0) == pytest.approx(math.exp(-1.0))

    def test_hundred_metres_nearly_independent(self):
        assert collab.traffic_correlation_kernel(100.0, 80.0) < 0.29

    def test_correlated_traces(self):
        a0, b0 = collab.correlated_bernoulli_traces(0.4, 1.0, 0.0, 20_000, 3)
        assert np.array_equal(a0, b0)
        a1, b1 = collab.correlated_bernoulli_traces(0.4, 1.0, 60.0, 20_000, 3)
        a2, b2 = collab.correlated_bernoulli_traces(0.4, 1.0, 400.0, 20_000, 3)
        c1 = np.corrcoef(a1 > 0, b1 > 0)[0, 1]
        c2 = np.corrcoef(a2 > 0, b2 > 0)[0, 1]
        assert c1 > c2
        assert abs(c2) < 0.05


    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_correlated_traces_at_the_endpoints(self, p):
        a, b = collab.correlated_bernoulli_traces(p, 2.0, 60.0, 5_000, 3)
        assert np.all(a == 2.0 * p) and np.all(b == 2.0 * p)


class TestCsv:
    def test_trace_round_trip(self):
        a = np.array([1.0, 0.0, 2.5])
        b = np.array([0.0, 0.5, 0.0])
        ev = np.array([False, True, False])
        text = collab.trace_to_csv(a, b, ev)
        a2, b2, ev2 = collab.trace_from_csv(text)
        assert np.allclose(a, a2) and np.allclose(b, b2) and np.array_equal(ev, ev2)

    def test_trace_bad_header(self):
        with pytest.raises(IngestionError):
            collab.trace_from_csv("nope\n1,2,3,4\n")

    def test_frames_csv_schema(self):
        nodes, qos, params = collab.rescue_demo()
        result = collab.collab_schedule(nodes, qos, params, 0)
        lines = collab.frames_to_csv(result).splitlines()
        assert lines[0] == "frame,node,jt,delivered,gap"
        assert len(lines) == qos.horizon + 1
