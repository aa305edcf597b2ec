"""SWIPT relaying throughput: time switching, power splitting, hybrids.

A half-duplex relay harvests energy from the source signal and forwards
the message. Two classic protocols divide the resources:

* time switching (TS): a fraction ``alpha`` of the frame charges the
  relay, the remaining time carries information, split equally between
  the source-relay and relay-destination hops;
* power splitting (PS): the first half-frame delivers the signal, a
  fraction ``rho`` of its power is rectified and the rest decoded, the
  second half-frame forwards.

The hybrid variants add a second split (``alpha2`` or ``rho2``) that
harvests ambient RF power at the relay, and credit the ambient energy
the source collects while the relay forwards to the next frame's
budget.

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
    "SwiptConfig",
    "LinkState",
    "HybridFrame",
    "ts_throughput",
    "ps_throughput",
    "hybrid_ts_frame",
    "hybrid_ps_frame",
    "optimize_split",
    "split_sweep",
]


class RelayMode(enum.Enum):
    AMPLIFY_FORWARD = "af"
    DECODE_FORWARD = "df"


@dataclass(frozen=True)
class SwiptConfig:
    """Frame duration plus every split parameter used by the protocols."""

    frame_duration_s: float = 1.0
    alpha: float = 0.0
    rho: float = 0.0
    alpha2: float = 0.0
    rho2: float = 0.0

    def __post_init__(self) -> None:
        _guard.positive(frame_duration_s=self.frame_duration_s)
        _guard.unit(alpha=self.alpha, rho=self.rho, alpha2=self.alpha2, rho2=self.rho2)
        for a, b in (("alpha", "alpha2"), ("rho", "rho2")):
            if not getattr(self, a) + getattr(self, b) <= 1.0 + 1e-12:
                raise InvalidParameterError(f"{a} + {b} must be at most 1")


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
    hop, compared as ``min(gamma1, gamma2)`` compares (``gamma1`` on ties
    and on NaN); amplify-and-forward (``cascade``) takes g1 g2/(g1+g2+1),
    as g1/(1 + (g1+1)/g2) where the product g1 g2 overflows (SNRs past 1e154).
    A non-positive pre-log or SNR rates 0. Callers resolve the mode with
    ``_cascade`` once, so a rate evaluation is one call of this function.
    """
    if cascade:
        product = gamma1 * gamma2
        if product == math.inf:
            snr = gamma1 / (1.0 + (gamma1 + 1.0) / gamma2)
        else:
            denom = gamma1 + gamma2 + 1.0
            snr = product / denom if denom > 0 else 0.0
    else:
        snr = gamma2 if gamma2 < gamma1 else gamma1
    if pre_log <= 0 or snr <= 0:
        return 0.0
    return pre_log * math.log2(1.0 + snr)


def _ts_rate(
    link: LinkState, eta: float, mode: RelayMode, t: float, alpha2: float = 0.0,
) -> Callable[[float], float]:
    """The TS throughput of ``link`` as a function of ``alpha``.

    This is the one definition of time switching; ``alpha2`` is the
    hybrid's second slot, which harvests the relay's ambient power, and
    the information time is what both slots leave. The split-independent
    terms (the relay mode, the first-hop SNR and the ambient energy) are
    resolved once per call of ``_ts_rate``; every expression keeps the
    operation order of the per-split formula, so a search that reuses the
    returned function gets the same floats as one ``ts_throughput`` call
    per split.
    """
    _check_eta(eta)
    cascade = _cascade(mode)
    p, h = link.source_power_w, link.source_relay_gain
    g, n = link.relay_destination_gain, link.noise_power_w
    gamma1 = p * h / n
    ambient = eta * alpha2 * t * link.ambient_power_at_relay_w

    def rate(a: float) -> float:
        info = 1.0 - a - alpha2
        if info <= 0.0:
            return 0.0
        harvested = eta * a * t * p * h + ambient
        hop_time = info * t / 2.0
        relay_power = harvested / hop_time
        gamma2 = relay_power * g / n
        return _relay_rate(info / 2.0, gamma1, gamma2, cascade)

    return rate


def _ps_rate(
    link: LinkState, eta: float, mode: RelayMode, t: float, rho2: float = 0.0,
) -> Callable[[float], float]:
    """The PS throughput of ``link`` as a function of ``rho``.

    This is the one definition of power splitting; ``rho2`` is the
    hybrid's second split, which harvests the relay's ambient power, and
    the decoder gets what both splits leave. The relay mode, the received
    power, the half-frame and the ambient energy are resolved once; as in
    ``_ts_rate``, every expression keeps its per-split operation order.
    """
    _check_eta(eta)
    cascade = _cascade(mode)
    received = link.source_power_w * link.source_relay_gain
    half_frame = t / 2.0
    g, n = link.relay_destination_gain, link.noise_power_w
    ambient = eta * rho2 * link.ambient_power_at_relay_w * half_frame

    def rate(rho: float) -> float:
        info = 1.0 - rho - rho2
        if info <= 0.0:
            return 0.0
        harvested = eta * rho * received * half_frame + ambient
        relay_power = harvested / half_frame
        gamma1 = info * received / n
        gamma2 = relay_power * g / n
        return _relay_rate(0.5, gamma1, gamma2, cascade)

    return rate


_RATES = {"ts": _ts_rate, "ps": _ps_rate}


def ts_throughput(
    cfg: SwiptConfig, link: LinkState, eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
) -> float:
    """Throughput (bits/s/Hz) of time-switched harvest-then-forward relaying.

    The relay charges for ``alpha T``, then the information time is
    split equally between the two hops; the relay spends all harvested
    energy on its half. Zero at both endpoints of ``alpha``.
    """
    return _ts_rate(link, eta, mode, cfg.frame_duration_s)(cfg.alpha)


def ps_throughput(
    cfg: SwiptConfig, link: LinkState, eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
) -> float:
    """Throughput (bits/s/Hz) of power-split relaying.

    First half-frame: a fraction ``rho`` of the received power charges
    the relay while ``1 - rho`` feeds the decoder. Second half-frame:
    the relay forwards with the harvested energy. Zero at both
    endpoints of ``rho``.
    """
    return _ps_rate(link, eta, mode, cfg.frame_duration_s)(cfg.rho)


@dataclass(frozen=True)
class HybridFrame:
    """One-frame outcome of a hybrid protocol.

    ``source_banked_j`` is the ambient energy the source rectifies while
    the relay forwards; it belongs to the next frame's budget and is
    reported separately instead of inflating the current throughput.
    """

    throughput_bps_hz: float
    source_banked_j: float


def hybrid_ts_frame(
    cfg: SwiptConfig, link: LinkState, eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
) -> HybridFrame:
    """TS with a second harvesting slot for ambient RF power at the relay.

    With ``alpha2 = 0`` the throughput is ``ts_throughput``'s.
    """
    t = cfg.frame_duration_s
    throughput = _ts_rate(link, eta, mode, t, cfg.alpha2)(cfg.alpha)
    info = 1.0 - cfg.alpha - cfg.alpha2
    banked = eta * link.ambient_power_at_source_w * info * t / 2.0 if info > 0.0 else 0.0
    return HybridFrame(throughput, banked)


def hybrid_ps_frame(
    cfg: SwiptConfig, link: LinkState, eta: float = 0.5,
    mode: RelayMode = RelayMode.DECODE_FORWARD,
) -> HybridFrame:
    """PS with a second power split for ambient RF harvesting at the relay.

    With ``rho2 = 0`` the throughput is ``ps_throughput``'s.
    """
    t = cfg.frame_duration_s
    throughput = _ps_rate(link, eta, mode, t, cfg.rho2)(cfg.rho)
    info = 1.0 - cfg.rho - cfg.rho2
    banked = eta * link.ambient_power_at_source_w * (t / 2.0) if info > 0.0 else 0.0
    return HybridFrame(throughput, banked)


def _search_rate(
    protocol: str, link: LinkState, eta: float, mode: RelayMode, frame_duration_s: float,
) -> Callable[[float], float]:
    """Check the arguments shared by the split searches, then build the rate."""
    if protocol not in _RATES:
        raise InvalidParameterError(f"unknown protocol {protocol!r}, expected 'ts' or 'ps'")
    _guard.positive(frame_duration_s=frame_duration_s)
    return _RATES[protocol](link, eta, mode, frame_duration_s)


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
    frame_duration_s: float = 1.0,
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
    rate = _search_rate(protocol, link, eta, mode, frame_duration_s)
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
    frame_duration_s: float = 1.0,
) -> list[tuple[float, float]]:
    """(split, throughput) pairs for CSV emission."""
    rate = _search_rate(protocol, link, eta, mode, frame_duration_s)
    splits = np.asarray(grid, dtype=float)
    if not np.all((splits >= 0.0) & (splits <= 1.0)):
        raise InvalidParameterError("every split of the grid must lie in [0, 1]")
    return [(s, rate(s)) for s in splits.tolist()]
