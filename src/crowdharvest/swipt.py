"""SWIPT relaying throughput: time switching, power splitting, hybrids.

A half-duplex relay harvests energy from the source signal and forwards
the message. Two classic protocols divide the resources:

* time switching (``"ts"``): a fraction ``alpha`` of the frame charges
  the relay, the remaining time carries information, split equally
  between the source-relay and relay-destination hops;
* power splitting (``"ps"``): the first half-frame delivers the signal,
  a fraction ``rho`` of its power is rectified and the rest decoded, the
  second half-frame forwards.

The split is a number in [0, 1], ``alpha`` or ``rho`` by protocol. The
hybrid variants add a second, ambient split (``alpha2`` or ``rho2``)
that harvests ambient RF power at the relay, and credit the ambient
energy the source collects while the relay forwards to the next frame's
budget.

Throughput in bits/s/Hz does not depend on the frame duration T: the
relay spends energy harvested over a share of T during another share of
T, so T cancels from its power, ambient term included (Nasir et al.,
IEEE TWC 2013). Only the banked source energy, in joules, scales with T.

Conventions, all explicit configuration: harvested power is scaled by a
conversion efficiency ``eta``; PS splitting acts on the signal before
receiver noise is added (antenna-noise-dominant receiver);
decode-and-forward composes hop SNRs with a minimum, amplify-and-forward
with the cascade g1*g2/(g1+g2+1).
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import _guard
from .errors import InvalidParameterError

__all__ = [
    "RelayMode",
    "LinkState",
    "HybridFrame",
    "throughput",
    "hybrid_frame",
    "optimize_split",
    "split_sweep",
    "ModeControllerResult",
    "combined_mode_controller",
]


class RelayMode(enum.Enum):
    AMPLIFY_FORWARD = "af"
    DECODE_FORWARD = "df"


@dataclass(frozen=True)
class LinkState:
    """Power gains and powers describing one source-relay-destination link."""

    source_relay_gain: float  # pathloss and fading folded into a power gain
    relay_destination_gain: float
    noise_power_w: float
    source_power_w: float
    ambient_power_at_relay_w: float = 0.0
    ambient_power_at_source_w: float = 0.0

    def __post_init__(self) -> None:
        _guard.positive(noise_power_w=self.noise_power_w)
        _guard.non_negative(**{name: getattr(self, name) for name in (
            "source_relay_gain", "relay_destination_gain", "source_power_w",
            "ambient_power_at_relay_w", "ambient_power_at_source_w",
        )})
        # bounds every rate: DF keeps the smaller hop SNR, and AF's cascade is at most this one
        _guard.non_negative(**{"first-hop SNR": (
            self.source_power_w * self.source_relay_gain / self.noise_power_w)})

    def with_fading(self, h_draw: float, g_draw: float) -> "LinkState":
        return replace(
            self,
            source_relay_gain=self.source_relay_gain * h_draw,
            relay_destination_gain=self.relay_destination_gain * g_draw,
        )


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise InvalidParameterError("eta must lie in (0, 1]")


def _cascade(mode: RelayMode) -> bool:
    """Whether ``mode`` composes hop SNRs by the AF cascade; anything else raises."""
    if mode is RelayMode.DECODE_FORWARD:
        return False
    if mode is not RelayMode.AMPLIFY_FORWARD:
        raise InvalidParameterError(f"mode must be a RelayMode, got {mode!r}")
    return True


def _relay_rate(pre_log: float, gamma1: float, gamma2: float, cascade: bool) -> float:
    """Compose two hop SNRs, then rate them as ``pre_log * log2(1 + snr)``.

    The one definition of both steps. Decode-and-forward keeps the weaker
    hop; amplify-and-forward (``cascade``) takes g1 g2/(g1+g2+1), as
    g1/(1 + (g1+1)/g2) where the product g1 g2 overflows (SNRs past 1e154).
    A non-positive pre-log rates 0, and so does an SNR that is zero or NaN.
    NaN is a dead hop times an infinite one: a relay power that overflowed
    on a zero relay-destination gain, or a zero first hop in the cascade
    of an infinite second; either hop carries nothing, so the relay does
    not. Callers resolve the mode with ``_cascade`` once, so a rate
    evaluation is one call of this function.
    """
    if cascade:
        product = gamma1 * gamma2
        if product == math.inf:
            snr = gamma1 / (1.0 + (gamma1 + 1.0) / gamma2)
        else:
            denom = gamma1 + gamma2 + 1.0
            snr = product / denom if denom > 0 else 0.0
    else:
        snr = gamma1 if gamma1 <= gamma2 else gamma2
    if pre_log <= 0 or not snr > 0:
        return 0.0
    return pre_log * math.log2(1.0 + snr)


def _ts_rate(
    link: LinkState, eta: float, mode: RelayMode, alpha2: float = 0.0,
) -> Callable[[float], float]:
    """The TS throughput of ``link`` as a function of ``alpha``.

    This is the one definition of time switching; ``alpha2`` is the
    hybrid's ambient split, which harvests the relay's ambient power, and
    the information time is what both splits leave. Energies and times
    are per unit frame. The split-independent terms (the relay mode, the
    first-hop SNR and the ambient energy) are resolved once per call of
    ``_ts_rate``; every expression keeps the operation order of the
    per-split formula, so a search that reuses the returned function gets
    the same floats as one ``throughput`` call per split.
    """
    _check_eta(eta)
    cascade = _cascade(mode)
    p, h = link.source_power_w, link.source_relay_gain
    g, n = link.relay_destination_gain, link.noise_power_w
    gamma1 = p * h / n
    ambient = eta * alpha2 * link.ambient_power_at_relay_w

    def rate(a: float) -> float:
        info = 1.0 - a - alpha2
        if info <= 0.0:
            return 0.0
        hop_time = info / 2.0
        relay_power = (eta * a * p * h + ambient) / hop_time
        gamma2 = relay_power * g / n
        return _relay_rate(hop_time, gamma1, gamma2, cascade)

    return rate


def _ps_rate(
    link: LinkState, eta: float, mode: RelayMode, rho2: float = 0.0,
) -> Callable[[float], float]:
    """The PS throughput of ``link`` as a function of ``rho``.

    This is the one definition of power splitting; ``rho2`` is the
    hybrid's ambient split, which harvests the relay's ambient power, and
    the decoder gets what both splits leave. The relay harvests for a
    half-frame and forwards for one, so its power is the harvested power.
    The relay mode, the received power and the ambient power are resolved
    once; as in ``_ts_rate``, every expression keeps its per-split
    operation order.
    """
    _check_eta(eta)
    cascade = _cascade(mode)
    received = link.source_power_w * link.source_relay_gain
    g, n = link.relay_destination_gain, link.noise_power_w
    ambient = eta * rho2 * link.ambient_power_at_relay_w

    def rate(rho: float) -> float:
        info = 1.0 - rho - rho2
        if info <= 0.0:
            return 0.0
        relay_power = eta * rho * received + ambient
        gamma1 = info * received / n
        gamma2 = relay_power * g / n
        return _relay_rate(0.5, gamma1, gamma2, cascade)

    return rate


_RATES = {"ts": _ts_rate, "ps": _ps_rate}


def _rate(
    protocol: str, link: LinkState, eta: float, mode: RelayMode, ambient_split: float = 0.0,
) -> Callable[[float], float]:
    """Check the protocol name, then build its rate as a function of the split."""
    if protocol not in _RATES:
        raise InvalidParameterError(f"unknown protocol {protocol!r}, expected 'ts' or 'ps'")
    return _RATES[protocol](link, eta, mode, ambient_split)


def throughput(
    protocol: str, split: float, link: LinkState, eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
) -> float:
    """Throughput (bits/s/Hz) of ``protocol`` ("ts" or "ps") at ``split``.

    TS charges the relay for ``alpha = split`` of the frame, then splits
    the information time equally between the two hops; the relay spends
    all harvested energy on its half. PS rectifies ``rho = split`` of the
    first half-frame's received power and decodes the rest; the relay
    forwards with that energy in the second half-frame. Zero at both
    endpoints of the split.
    """
    _guard.unit(split=split)
    return _rate(protocol, link, eta, mode)(split)


@dataclass(frozen=True)
class HybridFrame:
    """One-frame outcome of a hybrid protocol.

    ``source_banked_j`` is the ambient energy the source rectifies while
    the relay forwards; it belongs to the next frame's budget and is
    reported separately instead of inflating the current throughput.
    """

    throughput_bps_hz: float
    source_banked_j: float


def hybrid_frame(
    protocol: str, split: float, ambient_split: float, link: LinkState, eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD, frame_duration_s: float = 1.0,
) -> HybridFrame:
    """``protocol`` with an ambient split that harvests ambient RF power at the relay.

    TS gives ``alpha2 = ambient_split`` of the frame to the ambient slot,
    PS ``rho2 = ambient_split`` of the received power to the ambient
    rectifier; ``split + ambient_split`` is at most 1. With
    ``ambient_split = 0`` the throughput is ``throughput``'s. The frame
    duration scales only the banked source energy.
    """
    _guard.unit(split=split, ambient_split=ambient_split)
    _guard.positive(frame_duration_s=frame_duration_s)
    if not split + ambient_split <= 1.0 + 1e-12:
        raise InvalidParameterError("split + ambient_split must be at most 1")
    rate = _rate(protocol, link, eta, mode, ambient_split)(split)
    info = 1.0 - split - ambient_split
    if info <= 0.0:
        banked = 0.0
    elif protocol == "ts":
        banked = eta * link.ambient_power_at_source_w * info * frame_duration_s / 2.0
    else:
        banked = eta * link.ambient_power_at_source_w * (frame_duration_s / 2.0)
    return HybridFrame(rate, banked)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@functools.lru_cache(maxsize=8)
def _coarse_grid(points: int) -> tuple[float, ...]:
    """``points`` evenly spaced splits on [0, 1], built once per grid size."""
    return tuple(np.linspace(0.0, 1.0, points).tolist())


def _first_argmax(values: list[float]) -> int:
    """``np.argmax(values)``: the first NaN if there is one, else the first maximum."""
    total = sum(values)
    if total != total:  # a NaN, or +inf with -inf
        for i, v in enumerate(values):
            if v != v:
                return i
    return values.index(max(values))


def optimize_split(
    protocol: str,
    link: LinkState,
    eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
    tol: float = 1e-9,
    coarse_points: int = 201,
) -> tuple[float, float]:
    """Best split parameter and its throughput for TS or PS.

    Golden-section search refines the best bracket of a coarse grid
    until the interval is below ``tol``; the better of the refined point
    and the raw grid maximum is returned, which guards against any
    multimodality the unimodal assumption misses. Every argument is
    checked before the first evaluation.
    """
    _guard.count(minimum=2, coarse_points=coarse_points)
    _guard.positive(tol=tol)
    rate = _rate(protocol, link, eta, mode)
    grid = _coarse_grid(coarse_points)
    values = [rate(s) for s in grid]
    best_i = _first_argmax(values)
    grid_best_split, grid_best_value = grid[best_i], values[best_i]

    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, coarse_points - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = rate(c)
    fd = rate(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = rate(d)
    split = (a + b) / 2.0
    value = rate(split)
    if value >= grid_best_value:
        return split, value
    return grid_best_split, grid_best_value


def split_sweep(
    protocol: str,
    link: LinkState,
    grid: np.ndarray,
    eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
) -> list[tuple[float, float]]:
    """(split, throughput) pairs for CSV emission."""
    rate = _rate(protocol, link, eta, mode)
    splits = np.asarray(grid, dtype=float)
    if not np.all((splits >= 0.0) & (splits <= 1.0)):
        raise InvalidParameterError("every split of the grid must lie in [0, 1]")
    return [(s, rate(s)) for s in splits.tolist()]


# ---------------------------------------------------------------------------
# Combined operation: ambient (non-SWIPT) harvesting with SWIPT fallback.


@dataclass(frozen=True)
class ModeControllerResult:
    modes: tuple[str, ...]  # "non_swipt" or "swipt" per slot
    bits_per_slot: tuple[float, ...]
    total_bits: float
    bank_trace_j: tuple[float, ...]


def combined_mode_controller(
    ambient_trace_j: np.ndarray,
    swipt_link: LinkState,
    activation_threshold_j: float,
    *,
    eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
    slot_duration_s: float = 1.0,
    swipt_enabled: bool = True,
) -> ModeControllerResult:
    """Per-slot choice between ambient-powered relaying and SWIPT.

    While banked plus incoming ambient energy covers the activation
    threshold the relay runs conventionally on harvested crowd energy
    (source sends the first half-slot, the relay forwards with all
    banked energy in the second). Otherwise the slot falls back to
    source-powered SWIPT at the currently optimal time split, and the
    ambient trickle keeps accumulating. With ``swipt_enabled=False`` the
    fallback slots idle, which is the pure non-SWIPT baseline.
    """
    _check_eta(eta)
    cascade = _cascade(mode)
    _guard.positive(slot_duration_s=slot_duration_s)
    _guard.non_negative(activation_threshold_j=activation_threshold_j)
    trace = np.asarray(ambient_trace_j, dtype=float)
    _guard.non_negative_elements(ambient_trace_j=trace)
    swipt_rate = 0.0
    if swipt_enabled:
        _, swipt_rate = optimize_split("ts", swipt_link, eta, mode)
    gamma1 = swipt_link.source_power_w * swipt_link.source_relay_gain / swipt_link.noise_power_w
    modes: list[str] = []
    bits: list[float] = []
    banks: list[float] = []
    bank = 0.0
    for arrival in trace:
        available = bank + float(arrival)
        if available >= activation_threshold_j and available > 0:
            # over the forwarding half-slot, divided first: a subnormal slot's half is 0
            relay_power = available / slot_duration_s * 2.0
            gamma2 = (
                relay_power * swipt_link.relay_destination_gain / swipt_link.noise_power_w
            )
            slot_bits = _relay_rate(0.5, gamma1, gamma2, cascade)
            bank = 0.0
            modes.append("non_swipt")
        else:
            slot_bits = swipt_rate if swipt_enabled else 0.0
            bank = available
            modes.append("swipt" if swipt_enabled else "idle")
        bits.append(slot_bits)
        banks.append(bank)
    return ModeControllerResult(tuple(modes), tuple(bits), float(sum(bits)), tuple(banks))
