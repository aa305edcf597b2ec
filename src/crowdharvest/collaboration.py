"""Two-node collaborative transmission with joint-transmission rescue.

Two harvesting sensors report to a common sink under an inter-delivery
deadline: the gap between consecutive successful deliveries must stay
below D slots. Each frame splits into a conventional subframe, where
one scheduled node may transmit alone, and a collaboration subframe,
where both nodes may beamform the same message together (joint
transmission). Joint transmission is the rescue path: it fires when the
deadline is about to break and neither node could deliver alone.

Energy arrivals at nodes tens of metres apart are correlated; the
exponential kernel with an 80 m correlation distance models that, and a
Gaussian copula turns it into correlated Bernoulli arrival traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _guard
from ._documents import read_csv, write_csv
from .errors import InvalidParameterError
from .rng import substream
from .scheduling import DeterministicArrivals, EnergyArrivalProcess, simulate_arrivals

__all__ = [
    "NodeState",
    "QosSpec",
    "CollabFrame",
    "CollabParams",
    "CollabResult",
    "jt_snr",
    "collab_schedule",
    "optimize_frame_split",
    "traffic_correlation_kernel",
    "correlated_bernoulli_traces",
    "rescue_demo",
    "trace_from_csv",
    "trace_to_csv",
    "frames_to_csv",
]


@dataclass(frozen=True)
class NodeState:
    """One collaborating node: battery, arrivals, and channel to the sink."""

    battery_j: float
    capacity_j: float
    arrival_process: EnergyArrivalProcess
    channel_gain_to_sink: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.battery_j <= self.capacity_j:
            raise InvalidParameterError("battery must lie in [0, capacity]")
        _guard.non_negative(channel_gain_to_sink=self.channel_gain_to_sink)


@dataclass(frozen=True)
class QosSpec:
    """Inter-delivery deadline D over a finite horizon."""

    max_inter_delivery: int
    horizon: int

    def __post_init__(self) -> None:
        _guard.count(max_inter_delivery=self.max_inter_delivery, horizon=self.horizon)


@dataclass(frozen=True)
class CollabFrame:
    xi: float
    scheduled_node: str  # "a", "b", or "none"
    jt_active: bool
    delivered: bool
    gap_after: int


@dataclass(frozen=True)
class CollabParams:
    """Frame structure of the collaborative scheduler."""

    xi: float  # share of the frame given to the conventional subframe
    decode_snr_threshold: float
    noise_power_w: float
    frame_duration_s: float = 1.0
    jt_enabled: bool = True

    def __post_init__(self) -> None:
        _guard.unit(xi=self.xi)
        _guard.positive(decode_snr_threshold=self.decode_snr_threshold,
                        noise_power_w=self.noise_power_w, frame_duration_s=self.frame_duration_s)


@dataclass(frozen=True)
class CollabResult:
    frames: tuple[CollabFrame, ...]
    violations: int
    delivered_count: int
    battery_traces: tuple[tuple[float, ...], tuple[float, ...]] = ((), ())


def jt_snr(
    power_a_w: float,
    power_b_w: float,
    gain_a: float,
    gain_b: float,
    noise_w: float,
) -> float:
    """SNR of a coherent joint transmission from two nodes.

    Ideal distributed beamforming adds amplitudes, so the combined SNR is
    (sqrt(Pa ga) + sqrt(Pb gb))^2 / noise. An SNR that overflows raises:
    :func:`collab_schedule` would scale the nodes' energy by threshold /
    inf and book a joint delivery that spends nothing.
    """
    _guard.positive(noise_w=noise_w)
    _guard.non_negative(power_a_w=power_a_w, power_b_w=power_b_w, gain_a=gain_a, gain_b=gain_b)
    sa = power_a_w * gain_a
    sb = power_b_w * gain_b
    snr = (sa + sb + 2.0 * math.sqrt(sa * sb)) / noise_w
    _guard.non_negative(joint_transmission_snr=snr)
    return snr


def _single_required_energy(gain: float, params: CollabParams) -> float:
    """Energy a lone node needs in subframe 1 to hit the decode threshold."""
    if gain <= 0 or params.xi <= 0:
        return math.inf
    power = params.decode_snr_threshold * params.noise_power_w / gain
    return power * params.xi * params.frame_duration_s


def collab_schedule(
    nodes: tuple[NodeState, NodeState],
    qos: QosSpec,
    params: CollabParams,
    seed: int = 0,
) -> CollabResult:
    """Simulate the two-node collaboration over the QoS horizon.

    Per frame: harvest arrivals (capped at capacity); in subframe 1 the
    node with the fuller battery (A on a tie) is scheduled, and it
    delivers by spending exactly the threshold-meeting energy when it
    can afford it; if the frame is still empty and the deadline would
    otherwise break, both nodes attempt a joint transmission, scaling
    their offered energy down to the minimum that meets the threshold. A
    violation is counted every time the gap since the last delivery
    reaches D, after which the window restarts.
    """
    node_a, node_b = nodes
    arrivals = (
        simulate_arrivals(node_a.arrival_process, qos.horizon, substream(seed, "a").integers(2**63)),
        simulate_arrivals(node_b.arrival_process, qos.horizon, substream(seed, "b").integers(2**63)),
    )
    batteries = [node_a.battery_j, node_b.battery_j]
    capacities = (node_a.capacity_j, node_b.capacity_j)
    gains = (node_a.channel_gain_to_sink, node_b.channel_gain_to_sink)
    names = ("a", "b")
    sub2 = (1.0 - params.xi) * params.frame_duration_s

    frames: list[CollabFrame] = []
    trace_a: list[float] = []
    trace_b: list[float] = []
    violations = 0
    delivered_count = 0
    gap = 0
    for k in range(qos.horizon):
        for i in (0, 1):
            batteries[i] = min(capacities[i], batteries[i] + float(arrivals[i][k]))
        gap += 1
        delivered = False
        scheduled = "none"
        jt_active = False

        pick = 0 if batteries[0] >= batteries[1] else 1
        need = _single_required_energy(gains[pick], params)
        if batteries[pick] >= need:
            batteries[pick] -= need
            delivered = True
            scheduled = names[pick]

        if not delivered and params.jt_enabled and gap >= qos.max_inter_delivery and sub2 > 0:
            powers = [batteries[0] / sub2, batteries[1] / sub2]
            full_snr = jt_snr(powers[0], powers[1], gains[0], gains[1], params.noise_power_w)
            if full_snr >= params.decode_snr_threshold and full_snr > 0:
                scale = params.decode_snr_threshold / full_snr
                batteries[0] -= scale * batteries[0]
                batteries[1] -= scale * batteries[1]
                delivered = True
                jt_active = True

        if delivered:
            delivered_count += 1
            gap = 0
        elif gap >= qos.max_inter_delivery:
            violations += 1
            gap = 0
        frames.append(CollabFrame(params.xi, scheduled, jt_active, delivered, gap))
        trace_a.append(batteries[0])
        trace_b.append(batteries[1])
    return CollabResult(
        tuple(frames), violations, delivered_count, (tuple(trace_a), tuple(trace_b))
    )


def _split_objectives(
    nodes: tuple[NodeState, NodeState],
    qos: QosSpec,
    params: CollabParams,
    grid: np.ndarray,
    seed: int,
) -> list[tuple[float, float]]:
    """(xi, deliveries minus ``horizon`` times violations) at every grid split.

    Every grid point is simulated with common random numbers (the same
    seed, hence the same arrival draws); a violation costs the horizon,
    so any violation outweighs throughput.
    """
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.size == 0:
        raise InvalidParameterError("frame-split grid must be non-empty")
    rows = []
    for xi in grid_arr.tolist():
        result = collab_schedule(nodes, qos, replace(params, xi=xi), seed)
        rows.append((xi, result.delivered_count - float(qos.horizon) * result.violations))
    return rows


def optimize_frame_split(
    nodes: tuple[NodeState, NodeState],
    qos: QosSpec,
    params: CollabParams,
    grid: np.ndarray,
    seed: int = 0,
) -> tuple[float, float]:
    """Pick the frame split maximising deliveries minus ``horizon`` times violations.

    The objective is that of :func:`_split_objectives`; ties go to the
    first split of the grid.
    """
    return max(_split_objectives(nodes, qos, params, grid, seed), key=lambda row: row[1])


def traffic_correlation_kernel(
    distance_m: float, correlation_distance_m: float = 80.0
) -> float:
    """Exponential spatial correlation of traffic (and so of harvest rates)."""
    _guard.non_negative(distance_m=distance_m)
    _guard.positive(correlation_distance_m=correlation_distance_m)
    return math.exp(-distance_m / correlation_distance_m)


def correlated_bernoulli_traces(
    p: float,
    energy_j: float,
    distance_m: float,
    slots: int,
    seed: int,
    correlation_distance_m: float = 80.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Two Bernoulli arrival traces coupled by a Gaussian copula.

    The copula correlation equals the exponential kernel at the node
    spacing, so co-located nodes harvest identically and nodes beyond
    about 100 m are nearly independent.
    """
    _guard.unit(p=p)
    from statistics import NormalDist  # imported here: no command calls this, and it loads decimal

    rho = traffic_correlation_kernel(distance_m, correlation_distance_m)
    rng = substream(seed, "copula")
    z_a = rng.standard_normal(slots)
    z_mix = rng.standard_normal(slots)
    z_b = rho * z_a + math.sqrt(max(0.0, 1.0 - rho * rho)) * z_mix
    # a draw arrives when its normal CDF is below p; inv_cdf rejects p = 0 and p = 1
    threshold = -math.inf if p == 0 else math.inf if p == 1 else NormalDist().inv_cdf(p)
    trace_a = np.where(z_a < threshold, energy_j, 0.0)
    trace_b = np.where(z_b < threshold, energy_j, 0.0)
    return trace_a, trace_b


def rescue_demo() -> tuple[tuple[NodeState, NodeState], QosSpec, CollabParams]:
    """Deterministic two-node scenario where only joint transmission saves QoS.

    Node A is energised early, node B mid-horizon; at the third deadline
    both have half the energy a lone delivery needs, which is enough only
    when combined coherently. With collaboration enabled the run is
    violation-free; without it the third window breaks.
    """
    params = CollabParams(
        xi=0.5,
        decode_snr_threshold=8.0,
        noise_power_w=1.0,
        frame_duration_s=1.0,
    )
    # A lone delivery needs 4 J (power 8 W for 0.5 s at unit gain). The
    # first two deadlines are met alone (A at slot 0, B at slot 4); at the
    # third (slot 8) each node holds 2 J: a lone attempt cannot reach the
    # threshold, the coherent pair reaches twice it.
    trace_a = [4.0, 0, 0, 0, 0, 0, 0, 0, 2.0, 0, 0, 0]
    trace_b = [0, 0, 0, 0, 4.0, 0, 0, 0, 2.0, 0, 0, 0]
    node_a = NodeState(0.0, 10.0, DeterministicArrivals(tuple(trace_a)), 1.0)
    node_b = NodeState(0.0, 10.0, DeterministicArrivals(tuple(trace_b)), 1.0)
    return (node_a, node_b), QosSpec(4, 12), params


TRACE_CSV_HEADER = ["slot", "arrival_a_j", "arrival_b_j", "event"]
FRAMES_CSV_HEADER = ["frame", "node", "jt", "delivered", "gap"]


def trace_to_csv(arrivals_a: np.ndarray, arrivals_b: np.ndarray, events: np.ndarray) -> str:
    return write_csv(TRACE_CSV_HEADER, (
        (k, f"{arrivals_a[k]:.10g}", f"{arrivals_b[k]:.10g}", int(events[k]))
        for k in range(len(arrivals_a))
    ))


def trace_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = read_csv(
        text, TRACE_CSV_HEADER, lambda row: (float(row[1]), float(row[2]), bool(int(row[3])))
    )
    a, b, events = np.asarray(rows, dtype=float).reshape(-1, 3).T.copy()
    return a, b, events.astype(bool)


def frames_to_csv(result: CollabResult) -> str:
    return write_csv(FRAMES_CSV_HEADER, (
        (k, fr.scheduled_node, int(fr.jt_active), int(fr.delivered), fr.gap_after)
        for k, fr in enumerate(result.frames)
    ))
