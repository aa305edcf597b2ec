"""Transmission scheduling for a source-relay pair under harvested energy.

Slot semantics shared by every solver, the exhaustive oracle, and the
validator:

* before slot k a node harvests its arrival; the battery is capped at
  its capacity and overflow is discarded, never credited;
* per slot the system takes one action: the source transmits (the relay
  listens, paying the optional receive-energy cost), the relay forwards,
  or everyone stays silent; a node never receives and transmits in the
  same slot;
* transmit powers are quantised as fractions of the current battery,
  ``i / L`` for ``i = 0..L`` with L power levels, so every quantised
  choice is automatically energy-causal;
* one slot carries ``log2(1 + P * gain / noise)`` bits; the relay can
  forward at most what its buffer holds, and the buffer only contains
  bits received in earlier slots (information causality);
* in the delay-constrained mode bits must be forwarded in the slot
  right after reception or they are dropped.

Deterministic tie-breaking everywhere: higher delivered bits, then
lower spent energy, then earlier activity, then the lower action-id tuple.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import _guard
from ._documents import dataclass_from_dict, dumps, loads, write_csv
from .errors import (
    DegenerateModelError,
    InfeasibleDemandError,
    InvalidParameterError,
    ProblemTooLargeError,
)
from .rng import substream
from .swipt import (
    LinkState,
    RelayMode,
    _cascade,
    _check_eta,
    _relay_rate,
    optimize_split,
)

__all__ = [
    "BernoulliArrivals",
    "MarkovArrivals",
    "DeterministicArrivals",
    "EnergyArrivalProcess",
    "simulate_arrivals",
    "ScheduleProblem",
    "Schedule",
    "validate_schedule",
    "offline_optimal",
    "brute_force_oracle",
    "min_relay_time",
    "directional_water_fill",
    "BatteryMdp",
    "Policy",
    "mdp_policy_iteration",
    "value_iteration_gain",
    "threshold_policy",
    "evaluate_policy",
    "combined_mode_controller",
    "ModeControllerResult",
    "SCHEDULE_CSV_HEADER",
    "schedule_to_csv",
]


# ---------------------------------------------------------------------------
# Energy arrival models.


@dataclass(frozen=True)
class BernoulliArrivals:
    """Energy E arrives with probability p per slot, otherwise nothing."""

    p: float
    energy_j: float

    def __post_init__(self) -> None:
        _guard.unit(p=self.p)
        _guard.positive(energy_j=self.energy_j)


@dataclass(frozen=True)
class MarkovArrivals:
    """Finite energy-state chain; each state injects its energy per slot."""

    states_j: tuple[float, ...]
    transitions: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.states_j)
        if n == 0:
            raise InvalidParameterError("need at least one energy state")
        _guard.non_negative_elements(states_j=self.states_j)
        if len(self.transitions) != n or any(len(row) != n for row in self.transitions):
            raise InvalidParameterError("transition matrix must be square")
        for row in self.transitions:
            if not all(p >= 0 for p in row):
                raise InvalidParameterError("transition probabilities must be non-negative")
            if abs(sum(row) - 1.0) > 1e-9:
                raise InvalidParameterError("transition matrix rows must sum to 1")

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.transitions, dtype=float)


@dataclass(frozen=True)
class DeterministicArrivals:
    """Arrival amounts known in advance."""

    trace_j: tuple[float, ...]

    def __post_init__(self) -> None:
        _guard.non_negative_elements(trace_j=self.trace_j)


EnergyArrivalProcess = BernoulliArrivals | MarkovArrivals | DeterministicArrivals


_PATH_CHUNK = 4096


def simulate_arrivals(process: EnergyArrivalProcess, k: int, seed: int) -> np.ndarray:
    """Length-k arrival trace; deterministic traces are truncated or zero-padded."""
    _guard.count(minimum=0, k=k)
    rng = substream(seed, "arrivals")
    if isinstance(process, BernoulliArrivals):
        return np.where(rng.random(k) < process.p, process.energy_j, 0.0)
    if isinstance(process, MarkovArrivals):
        path = np.asarray(_markov_path(process, k, rng), dtype=np.intp)
        return np.asarray(process.states_j, dtype=float)[path]
    if isinstance(process, DeterministicArrivals):
        out = np.zeros(k)
        m = min(k, len(process.trace_j))
        out[:m] = process.trace_j[:m]
        return out
    raise InvalidParameterError(f"unknown arrival process {process!r}")


def _markov_path(process: MarkovArrivals, k: int, rng: np.random.Generator) -> list[int]:
    """Energy-state index of each of k slots, starting in the first state.

    Consumes one uniform draw per slot; state i + 1 is the first state
    whose cumulative transition probability from state i exceeds draw i
    (the last state if none does). Draws are taken a chunk at a time,
    which yields the same numbers as one call for all k. For each chunk,
    one ``searchsorted`` per energy state tabulates the next state of
    every draw from that state, making the comparisons ``bisect_right``
    would; the path then walks the table with one lookup per slot.
    """
    cum = np.cumsum(process.matrix, axis=1)
    last = len(process.states_j) - 1
    path: list[int] = []
    state = 0
    for start in range(0, k, _PATH_CHUNK):
        u = rng.random(min(_PATH_CHUNK, k - start))
        table = [np.minimum(np.searchsorted(row, u, side="right"), last).tolist()
                 for row in cum]
        for i in range(u.size):
            path.append(state)
            state = table[state][i]
    return path


# ---------------------------------------------------------------------------
# Two-hop offline scheduling problem.


@dataclass(frozen=True)
class ScheduleProblem:
    slot_count: int
    slot_duration_s: float
    source_arrivals_j: tuple[float, ...]
    relay_arrivals_j: tuple[float, ...]
    source_gains: tuple[float, ...]
    relay_gains: tuple[float, ...]
    noise_power_w: float
    source_capacity_j: float = math.inf
    relay_capacity_j: float = math.inf
    rx_energy_cost_j: float = 0.0
    delay_constrained: bool = False
    initial_source_j: float = 0.0
    initial_relay_j: float = 0.0

    def __post_init__(self) -> None:
        k = self.slot_count
        _guard.count(slot_count=k)
        for name in ("source_arrivals_j", "relay_arrivals_j", "source_gains", "relay_gains"):
            values = getattr(self, name)
            if len(values) != k:
                raise InvalidParameterError(f"{name} must have length {k}")
            _guard.non_negative_elements(**{name: values})
        _guard.positive(slot_duration_s=self.slot_duration_s, noise_power_w=self.noise_power_w)
        if not (self.source_capacity_j > 0 and self.relay_capacity_j > 0):
            raise InvalidParameterError("battery capacities must be positive (or inf)")
        _guard.non_negative(**{name: getattr(self, name) for name in (
            "rx_energy_cost_j", "initial_source_j", "initial_relay_j")})
        for hop, capacity, initial, arrivals, gains in (
            ("source", self.source_capacity_j, self.initial_source_j, self.source_arrivals_j,
             self.source_gains),
            ("relay", self.relay_capacity_j, self.initial_relay_j, self.relay_arrivals_j,
             self.relay_gains),
        ):
            # a hop's whole battery spent in one slot on its best gain
            power = min(capacity, initial + sum(arrivals)) / self.slot_duration_s
            snr = (power * max(gains)) / self.noise_power_w
            _guard.non_negative(**{f"the {hop} hop's largest SNR": snr})

    # An unbounded battery capacity is written as null.
    _CAPACITIES = ("source_capacity_j", "relay_capacity_j")

    def to_json(self) -> str:
        doc = asdict(self)
        for key in self._CAPACITIES:
            doc[key] = doc[key] if math.isfinite(doc[key]) else None
        return dumps(doc)

    @staticmethod
    def from_json(text: str) -> "ScheduleProblem":
        """Parse :meth:`to_json`; a missing, unknown or mistyped key raises."""
        doc = loads(text)
        if isinstance(doc, dict):
            doc = {
                k: math.inf if v is None and k in ScheduleProblem._CAPACITIES else v
                for k, v in doc.items()
            }
        return dataclass_from_dict(ScheduleProblem, doc)


@dataclass(frozen=True)
class Schedule:
    """Per-slot transmit powers and delivered bits; a node is active where its power is positive."""

    source_powers_w: tuple[float, ...]
    relay_powers_w: tuple[float, ...]
    bits_per_slot: tuple[float, ...]  # bits delivered to the destination per slot
    objective_kind: str = "delivered_bits"  # or "relay_slots"

    def __post_init__(self) -> None:
        if self.objective_kind not in ("delivered_bits", "relay_slots"):
            raise InvalidParameterError(f"unknown objective kind {self.objective_kind!r}")

    @property
    def objective_value(self) -> float:
        """The summed delivered bits, or the count of relay slots, as the kind says."""
        if self.objective_kind == "delivered_bits":
            return sum(self.bits_per_slot)
        return float(sum(p > 0 for p in self.relay_powers_w))


SCHEDULE_CSV_HEADER = ["slot", "P_s", "P_r", "d_s", "d_r", "bits"]


def schedule_to_csv(schedule: Schedule) -> str:
    slots = zip(schedule.source_powers_w, schedule.relay_powers_w, schedule.bits_per_slot)
    return write_csv(SCHEDULE_CSV_HEADER, (
        (k, f"{p_s:.10g}", f"{p_r:.10g}", int(p_s > 0), int(p_r > 0), f"{bits:.10g}")
        for k, (p_s, p_r, bits) in enumerate(slots)
    ))


def _rate_bits(spend_j: float, gain: float, problem: ScheduleProblem) -> float:
    power = spend_j / problem.slot_duration_s
    return math.log2(1.0 + power * gain / problem.noise_power_w)


def validate_schedule(problem: ScheduleProblem, schedule: Schedule, tol: float = 1e-9) -> None:
    """Independent causality audit; raises InvalidParameterError on violation.

    Checks that the schedule has one entry per slot and that every power
    and delivered bit is finite and non-negative. Recomputes the battery
    and buffer trajectories from the raw powers and checks energy
    causality, capacity bounds, half-duplex exclusivity, information
    causality, and the claimed per-slot delivered bits.
    """
    k_slots = problem.slot_count
    per_slot = {name: getattr(schedule, name)
                for name in ("source_powers_w", "relay_powers_w", "bits_per_slot")}
    if any(len(values) != k_slots for values in per_slot.values()):
        raise InvalidParameterError(f"a schedule of this problem has {k_slots} slots")
    _guard.non_negative_elements(**per_slot)
    b_s, b_r = problem.initial_source_j, problem.initial_relay_j
    buffer_bits = 0.0
    for k in range(k_slots):
        b_s = min(problem.source_capacity_j, b_s + problem.source_arrivals_j[k])
        b_r = min(problem.relay_capacity_j, b_r + problem.relay_arrivals_j[k])
        p_s, p_r = schedule.source_powers_w[k], schedule.relay_powers_w[k]
        if p_s > 0 and p_r > 0:
            raise InvalidParameterError(f"slot {k}: source and relay both active")
        spend_s = p_s * problem.slot_duration_s
        spend_r = p_r * problem.slot_duration_s
        if spend_s > b_s + tol:
            raise InvalidParameterError(f"slot {k}: source energy causality violated")
        if spend_r > b_r + tol:
            raise InvalidParameterError(f"slot {k}: relay energy causality violated")
        delivered = schedule.bits_per_slot[k]
        received = 0.0
        if p_s > 0:
            if b_r + tol >= problem.rx_energy_cost_j:
                b_r -= problem.rx_energy_cost_j
                received = _rate_bits(spend_s, problem.source_gains[k], problem)
            if delivered > tol:
                raise InvalidParameterError(f"slot {k}: delivery during a source slot")
        elif p_r > 0:
            capacity_bits = _rate_bits(spend_r, problem.relay_gains[k], problem)
            if delivered > min(buffer_bits, capacity_bits) + tol:
                raise InvalidParameterError(
                    f"slot {k}: information causality violated "
                    f"(delivered {delivered}, buffer {buffer_bits})"
                )
        elif delivered > tol:
            raise InvalidParameterError(f"slot {k}: delivery during an idle slot")
        b_s -= spend_s
        b_r -= spend_r
        if b_s < -tol or b_r < -tol:
            raise InvalidParameterError(f"slot {k}: battery went negative")
        b_s, b_r = max(b_s, 0.0), max(b_r, 0.0)
        if problem.delay_constrained:
            buffer_bits = received
        else:
            buffer_bits = buffer_bits - delivered + received
            buffer_bits = max(buffer_bits, 0.0)


# Leveled state expansion. Actions are encoded 0 = idle, 1..L = source
# fraction i/L, L+1..2L = relay fraction (i-L)/L.

# Candidate rows the DP expands at once. It bounds the DP's working memory,
# and the state bound is checked after every block.
_BLOCK_ROWS = 1 << 20


def _transition(
    problem: ScheduleProblem,
    k: int,
    b_s: np.ndarray,
    b_r: np.ndarray,
    buf: np.ndarray,
    action: np.ndarray,
    power_levels: int,
) -> tuple[np.ndarray, ...]:
    """Slot ``k`` of the two-hop transition, one element per (state, action) cell.

    Returns the next source battery, relay battery and buffer, the
    delivered bits, the spent energy (the transmit spend plus the receive
    cost) and the transmit spend. The DP and ``_replay`` share this
    transition; the oracle and the validator derive it independently. An
    action that spends nothing leaves the slot idle.
    """
    src = (action >= 1) & (action <= power_levels)
    rel = action > power_levels
    frac = (action - power_levels * rel) / power_levels
    bsh = np.minimum(problem.source_capacity_j, b_s + problem.source_arrivals_j[k])
    brh = np.minimum(problem.relay_capacity_j, b_r + problem.relay_arrivals_j[k])
    spend = frac * np.where(src, bsh, brh)
    gain = np.where(src, problem.source_gains[k], problem.relay_gains[k])
    rate = np.log2(1.0 + (spend / problem.slot_duration_s) * gain / problem.noise_power_w)
    rx_ok = src & (spend > 0) & (brh >= problem.rx_energy_cost_j)
    rx = np.where(rx_ok, problem.rx_energy_cost_j, 0.0)
    received = np.where(rx_ok, rate, 0.0)
    delivered = np.where(rel, np.minimum(buf, rate), 0.0)
    return (
        bsh - np.where(src, spend, 0.0),
        brh - np.where(rel, spend, rx),
        received if problem.delay_constrained else buf - delivered + received,
        delivered,
        spend + rx,
        spend,
    )


class _Layer(NamedTuple):
    """The paths the DP stores after a slot, one row each, in action-tuple order.

    Paths are ordered by delivered bits (up, rounded to 12 decimals), spent
    energy (down, rounded), then their activity tuple (active 0 before idle
    1) and their action-id tuple. A child's activity tuple sorts as (dense
    rank of its parent's over the layer, its own symbol), held as ``rank * 2
    + symbol`` while a layer is built. Children come out in (parent row,
    action id) order, so the row index stands for the action-id tuple.
    """

    b_s: np.ndarray  # source battery, exactly as the transition computes it
    b_r: np.ndarray  # relay battery
    buf: np.ndarray  # buffered bits
    bits: np.ndarray
    energy: np.ndarray
    relay_slots: np.ndarray
    activity: np.ndarray  # rank of the activity tuple
    parent: np.ndarray  # row of the extended path in the previous layer
    action: np.ndarray  # action id of this slot

    def take(self, rows: np.ndarray) -> "_Layer":
        return _Layer(*(column[rows] for column in self))


def _path_keys(layer: _Layer, *primary: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``primary`` keys, then the path-order keys, most significant first."""
    return primary + (-np.round(layer.bits, 12), np.round(layer.energy, 12), layer.activity)


def _first_lexmin(*keys: np.ndarray) -> int:
    """The row ``np.lexsort(keys[::-1])[0]`` names, without a sort.

    Keeps the rows that hold each key's minimum in turn, most significant
    key first, and returns the first row left: O(rows) per key. The keys
    must hold no NaN.
    """
    rows = np.flatnonzero(keys[0] == keys[0].min())
    for key in keys[1:]:
        if rows.size == 1:
            break
        values = key[rows]
        rows = rows[values == values.min()]
    return int(rows[0])


def _changed(column: np.ndarray) -> np.ndarray:
    return column[1:] != column[:-1]


def _survivors(layer: _Layer, pareto: bool, state_bound: int, slot: int) -> _Layer:
    """Best path per state, or with ``pareto`` the Pareto set over (bits up,
    relay slots down) per state; rows keep their order in ``layer``. Raises
    :class:`ProblemTooLargeError` naming ``slot`` when ``layer`` holds more
    than ``state_bound`` states, as soon as they are counted.

    Rows are sorted stably by state (and relay count) only. Each group's
    first path in path order is then picked as ``_first_lexmin`` picks one
    row: keep the rows that hold their group's minimum of each path key in
    turn, then the first left, which has the lowest action-id tuple.
    """
    group = (layer.b_s, layer.b_r, layer.buf) + ((layer.relay_slots,) if pareto else ())
    rows = np.lexsort(group[::-1])
    new_state = np.ones(rows.size, dtype=bool)
    new_state[1:] = (_changed(layer.b_s[rows]) | _changed(layer.b_r[rows])
                     | _changed(layer.buf[rows]))
    n_states = int(new_state.sum())
    if n_states > state_bound:  # fail fast, before the path keys are ranked
        raise ProblemTooLargeError(
            f"state space exceeded the bound ({n_states} states > {state_bound}) at slot {slot}"
        )
    new_group = new_state.copy()
    if pareto:
        new_group[1:] |= _changed(layer.relay_slots[rows])
    group_id = np.cumsum(new_group) - 1
    for key in _path_keys(layer):
        if rows.size == group_id[-1] + 1:
            break
        values = key[rows]
        starts = np.flatnonzero(np.concatenate(([True], _changed(group_id))))
        keep = values == np.minimum.reduceat(values, starts)[group_id]
        rows, group_id = rows[keep], group_id[keep]
    rows = rows[np.concatenate(([True], _changed(group_id)))]
    if pareto:  # keep a relay count only if it buys more bits than every smaller one
        state = (np.cumsum(new_state) - 1)[new_group]
        bits, relay_slots = layer.bits[rows], layer.relay_slots[rows]
        best = np.full(n_states, -np.inf)
        keep = np.zeros(rows.size, dtype=bool)
        for count in np.unique(relay_slots):
            at = np.flatnonzero(relay_slots == count)
            at = at[best[state[at]] < bits[at] - 1e-12]
            keep[at] = True
            best[state[at]] = bits[at]
        rows = rows[keep]
    return layer.take(np.sort(rows))


def _children(
    problem: ScheduleProblem, k: int, prev: _Layer, rows: slice, power_levels: int
) -> _Layer:
    """The children of the ``rows`` of ``prev`` at slot ``k``, in (parent row, action id) order.

    The DP expands only the idle action, source actions on a non-empty
    source battery, and relay actions on a non-empty relay battery with
    buffered bits: the others repeat the idle outcome or waste relay
    energy. A harvested battery is non-empty exactly when the battery
    plus its arrival is positive. States stay exact, as ``_replay`` recomputes them.
    """
    source = prev.b_s[rows] + problem.source_arrivals_j[k] > 0
    relay = (prev.b_r[rows] + problem.relay_arrivals_j[k] > 0) & (prev.buf[rows] > 0)
    per_kind = np.stack([np.ones_like(source), source, relay], axis=1)
    parent, action = np.nonzero(np.repeat(per_kind, [1, power_levels, power_levels], axis=1))
    parent += rows.start
    b_s, b_r, buf, delivered, energy, _ = _transition(
        problem, k, prev.b_s[parent], prev.b_r[parent], prev.buf[parent], action, power_levels
    )
    return _Layer(  # summed in place, so a block holds one copy of each column
        b_s, b_r, buf,
        bits=np.add(prev.bits[parent], delivered, out=delivered),
        energy=np.add(prev.energy[parent], energy, out=energy),
        relay_slots=prev.relay_slots[parent] + (action > power_levels),
        activity=prev.activity[parent] * 2 + (action == 0),
        parent=parent,
        action=action,
    )


def _run_dp(problem: ScheduleProblem, power_levels: int, state_bound: int, pareto: bool,
            rank: Callable[[_Layer], tuple[np.ndarray, ...]]) -> list[_Layer]:
    """Forward DP over reachable (source battery, relay battery, buffer).

    Returns the layer before the first slot, the layer after each slot but
    the last, and a one-row layer: the last slot's path of least ``rank``
    keys (the first in action-tuple order among ties), ranked block by block
    and never stored. Per state a layer keeps the best path, or with
    ``pareto`` the Pareto set over (delivered bits up, relay slots down)
    that minimum-relay-time queries need. States are keyed by their exact
    float values; only the path order rounds bits and energy. Parents are
    expanded in blocks of at most ``_BLOCK_ROWS`` candidate rows (an eighth
    of that in the last slot, which keeps one row per block), each
    merged into the layer's survivors (a later block holds later parents,
    so the merge keeps action-tuple order), and the problem is rejected as
    soon as a stored layer holds more than ``state_bound`` states, counted
    when a merge has sorted them and before it ranks their paths; with
    ``pareto`` also when a finished layer stores more values.
    """
    start = np.array([problem.initial_source_j, problem.initial_relay_j, 0.0], dtype=float)
    zero, root = np.zeros(1, dtype=np.int64), np.full(1, -1)
    layers = [_Layer(start[:1], start[1:2], start[2:], np.zeros(1), np.zeros(1),
                     zero, zero, root, root)]
    per_block = max(1, _BLOCK_ROWS // (2 * power_levels + 1))
    last = problem.slot_count - 1
    for k in range(last):
        prev, layer = layers[-1], None
        for lo in range(0, prev.bits.size, per_block):
            block = _children(problem, k, prev, slice(lo, lo + per_block), power_levels)
            if layer is not None:
                block = _Layer(*map(np.concatenate, zip(layer, block)))
            layer = _survivors(block, pareto, state_bound, k)  # fails fast on too many states
        if layer.bits.size > state_bound:  # a state may hold several Pareto values
            raise ProblemTooLargeError(
                f"state space exceeded the bound ({layer.bits.size} values > {state_bound})"
                f" at slot {k}"
            )
        layers.append(layer._replace(activity=np.unique(layer.activity, return_inverse=True)[1]))
    # The last slot merges no blocks, so it expands an eighth of a block at a
    # time: the pick is the same and the working set is an eighth as large.
    per_block = max(1, _BLOCK_ROWS // 8 // (2 * power_levels + 1))
    prev, picks = layers[-1], []  # activity ranks over one stored layer compare across blocks
    for lo in range(0, prev.bits.size, per_block):
        block = _children(problem, last, prev, slice(lo, lo + per_block), power_levels)
        picks.append(block.take([_first_lexmin(*rank(block))]))
        del block  # so that two blocks are never alive at once
    finalists = _Layer(*map(np.concatenate, zip(*picks)))  # one row per block, in block order
    return layers + [finalists.take([_first_lexmin(*rank(finalists))])]


def _action_ids(layers: list[_Layer], row: int) -> list[int]:
    """Action ids of the path ending at ``row`` of the last layer (0 for the DP's pick)."""
    ids = []
    for layer in reversed(layers[1:]):
        ids.append(int(layer.action[row]))
        row = layer.parent[row]
    return ids[::-1]


def _replay(problem: ScheduleProblem, action_ids: list[int], power_levels: int,
            objective_kind: str = "delivered_bits") -> Schedule:
    b_s = np.array([problem.initial_source_j], dtype=float)
    b_r = np.array([problem.initial_relay_j], dtype=float)
    buf = np.zeros(1)
    p_s, p_r, bits = [], [], []
    for k, a in enumerate(action_ids):
        b_s, b_r, buf, delivered, _, spend = _transition(
            problem, k, b_s, b_r, buf, np.array([a]), power_levels
        )
        power = float(spend[0]) / problem.slot_duration_s
        p_s.append(power if a <= power_levels else 0.0)
        p_r.append(power if a > power_levels else 0.0)
        bits.append(float(delivered[0]))
    return Schedule(tuple(p_s), tuple(p_r), tuple(bits), objective_kind)


def offline_optimal(problem: ScheduleProblem, power_levels: int = 8,
                    state_bound: int = 500_000) -> Schedule:
    """Throughput-maximal schedule over quantised battery-fraction powers.

    Dynamic program over reachable (source battery, relay battery,
    buffered bits) states; exact state arithmetic, so the objective
    matches the exhaustive oracle on any instance both can solve. The
    state bound counts the states after every slot but the last.
    """
    _guard.count(power_levels=power_levels, state_bound=state_bound)
    layers = _run_dp(problem, power_levels, state_bound, False, _path_keys)
    return _replay(problem, _action_ids(layers, 0), power_levels)


def brute_force_oracle(
    problem: ScheduleProblem, power_levels: int = 8, max_schedules: int = 2_000_000
) -> Schedule:
    """Exhaustive enumeration of every quantised schedule, by prefix expansion.

    Independent of the DP path: it derives the slot transition and the
    schedule on its own. The one piece of the DP's code it calls is
    ``_first_lexmin``, which picks the best final row and which
    ``test_first_lexmin_is_first_row_of_lexsort`` pins to ``np.lexsort``'s
    first row. After slot ``k`` the arrays hold one row per action prefix
    of ``k + 1`` slots, in ``itertools.product`` order: slot ``k`` extends
    every prefix by each of the n = 2L + 1 action ids, so row
    ``prefix * n + action``, and each prefix's transition is computed once. The best
    final row has the most delivered bits, then the least spent energy
    (both rounded to 12 decimals), then an active slot before an idle one,
    slot by slot, then the lowest row, which orders the action ids: the
    DP's tie-breaking. The schedule is read from each slot's arrays at the
    best row's prefix, row ``best // n^(K-1-k)`` after slot ``k``.

    A call peaks at about 80 bytes per sequence, so the default bound of
    2M sequences (5 slots at 8 levels is 1.42M) admits about 160 MB.
    """
    _guard.count(power_levels=power_levels, max_schedules=max_schedules)
    k_slots = problem.slot_count
    n_actions = 2 * power_levels + 1
    n_seq = n_actions ** k_slots
    if n_seq > max_schedules:
        raise ProblemTooLargeError(f"{n_seq} schedules exceed the oracle bound {max_schedules}")
    act = np.arange(n_actions)
    src = (act >= 1) & (act <= power_levels)
    rel = act > power_levels
    frac = np.where(
        src, act / power_levels, np.where(rel, (act - power_levels) / power_levels, 0.0)
    )
    b_s = np.full(1, float(problem.initial_source_j))
    b_r = np.full(1, float(problem.initial_relay_j))
    buf = np.zeros(1)
    bits = np.zeros(1)
    energy = np.zeros(1)
    slots = []  # per slot and prefix: source spend, relay spend, delivered bits
    dt = problem.slot_duration_s
    for k in range(k_slots):
        # one row per prefix, one column per action id
        b_s = np.minimum(problem.source_capacity_j, b_s + problem.source_arrivals_j[k])[:, None]
        b_r = np.minimum(problem.relay_capacity_j, b_r + problem.relay_arrivals_j[k])[:, None]
        spend_s = np.where(src, frac * b_s, 0.0)
        rx_ok = src & (spend_s > 0) & (b_r >= problem.rx_energy_cost_j)
        spend_r = np.where(rel, frac * b_r, 0.0)
        capacity_bits = np.where(
            spend_r > 0,
            np.log2(1.0 + (spend_r / dt) * problem.relay_gains[k] / problem.noise_power_w),
            0.0,
        )
        delivered = np.minimum(buf[:, None], capacity_bits)
        del capacity_bits
        rx = np.where(rx_ok, problem.rx_energy_cost_j, 0.0)
        bits = (bits[:, None] + delivered).ravel()
        energy = (energy[:, None] + ((spend_s + spend_r) + rx)).ravel()
        slots.append((spend_s.ravel(), spend_r.ravel(), delivered.ravel()))
        if k == k_slots - 1:
            break  # nothing reads the batteries and buffer after the last slot
        received = np.where(
            rx_ok,
            np.log2(1.0 + (spend_s / dt) * problem.source_gains[k] / problem.noise_power_w),
            0.0,
        )
        b_s = (b_s - spend_s).ravel()
        b_r = ((b_r - spend_r) - rx).ravel()
        if problem.delay_constrained:
            buf = received.ravel()
        else:
            buf = ((buf[:, None] - delivered) + received).ravel()
    # a slot-k prefix is shared by n^(K-1-k) consecutive final rows
    shared = [n_actions ** (k_slots - 1 - k) for k in range(k_slots)]
    idle = [np.repeat(~((spend_s > 0) | (spend_r > 0)), n)
            for (spend_s, spend_r, _), n in zip(slots, shared)]
    best = _first_lexmin(-np.round(bits, 12), np.round(energy, 12), *idle)
    p_s, p_r, per_slot = [], [], []
    for (spend_s, spend_r, delivered), n in zip(slots, shared):
        row = best // n
        p_s.append(float(spend_s[row]) / dt)
        p_r.append(float(spend_r[row]) / dt)
        per_slot.append(float(delivered[row]))
    return Schedule(tuple(p_s), tuple(p_r), tuple(per_slot))


def min_relay_time(problem: ScheduleProblem, demand_bits: float, power_levels: int = 8,
                   state_bound: int = 500_000) -> Schedule:
    """Fewest active relay slots that still deliver the demanded bits.

    Infeasible demands raise :class:`InfeasibleDemandError` carrying the
    maximum achievable bits for the instance. The state bound counts the
    Pareto values after every slot but the last.
    """
    _guard.count(power_levels=power_levels, state_bound=state_bound)
    _guard.non_negative(demand_bits=demand_bits)

    def rank(layer: _Layer) -> tuple[np.ndarray, ...]:
        # infeasible paths rank by bits, not relay slots: with none feasible, the pick has the most
        infeasible = layer.bits < demand_bits - 1e-9
        return _path_keys(layer, infeasible, np.where(infeasible, -layer.bits, layer.relay_slots))

    layers = _run_dp(problem, power_levels, state_bound, True, rank)
    max_bits = float(layers[-1].bits[0])
    if max_bits < demand_bits - 1e-9:
        raise InfeasibleDemandError(
            f"demand {demand_bits} bits infeasible; at most {max_bits} achievable",
            max_achievable_bits=max_bits,
        )
    return _replay(problem, _action_ids(layers, 0), power_levels, objective_kind="relay_slots")


# ---------------------------------------------------------------------------
# Directional water-filling (single hop).


def _waterfill_segment(floors: np.ndarray, budget: float) -> np.ndarray:
    """Spend ``budget`` over slots with the given water floors at one level."""
    if budget <= 0:
        return np.zeros_like(floors)
    order = np.sort(floors)
    level = budget / floors.size + order.mean()  # fallback: all slots active
    for m in range(1, floors.size + 1):
        candidate = (budget + order[:m].sum()) / m
        upper = order[m] if m < floors.size else math.inf
        if order[m - 1] - 1e-15 <= candidate <= upper + 1e-15:
            level = candidate
            break
    spend = np.maximum(0.0, level - floors)
    total = spend.sum()
    if total > 0:  # absorb fp residue so prefix accounting stays exact
        spend *= budget / total
    return spend


def directional_water_fill(
    arrivals_j: np.ndarray,
    gains: np.ndarray,
    noise_w: float,
    capacity_j: float = math.inf,
    slot_duration_s: float = 1.0,
) -> np.ndarray:
    """Throughput-optimal single-hop powers with forward-only energy flow.

    Maximises sum log(1 + s_k g_k / (noise dt)) subject to energy
    causality (cumulative spend through k never exceeds cumulative
    arrivals) and a finite battery (deferred energy never exceeds the
    capacity, so spends are floored to pre-empt overflow; a single
    arrival larger than the battery is rejected as unavoidable
    overflow). Classic directional structure: one water level per
    segment, levels step up across boundaries where the battery runs
    empty and step down where it is full.

    Implementation: recursive boundary pinning. Water-fill the whole
    horizon at one level with the full energy budget; while any
    cumulative-spend bound is violated, pin the most violated boundary
    to its bound and recurse on both halves.
    """
    e = np.asarray(arrivals_j, dtype=float)
    g = np.asarray(gains, dtype=float)
    if e.ndim != 1 or e.shape != g.shape or e.size == 0:
        raise InvalidParameterError("arrivals and gains must be matched 1-D arrays")
    _guard.non_negative_elements(arrivals_j=e)
    if not np.all(g > 0):
        raise InvalidParameterError("gains must be positive")
    _guard.positive(noise_w=noise_w, slot_duration_s=slot_duration_s)
    if not capacity_j > 0:
        raise InvalidParameterError("capacity must be positive (or inf)")
    if np.any(e > capacity_j):
        raise InvalidParameterError(
            "an arrival exceeds the battery capacity; unavoidable overflow is out of scope"
        )
    k = e.size
    floors = noise_w * slot_duration_s / g
    cum_e = np.cumsum(e)
    upper = cum_e.copy()  # causality: cum spend through slot i <= cum arrivals
    lower = np.zeros(k)  # overflow pre-emption: defer at most the battery capacity
    if math.isfinite(capacity_j):
        lower[:-1] = np.maximum(0.0, cum_e[1:] - capacity_j)
    total = float(cum_e[-1])  # spending everything is always optimal
    spend = np.zeros(k)
    eps = 1e-12 * max(total, 1.0)

    def solve(lo: int, hi: int, base: float, target: float) -> None:
        seg = _waterfill_segment(floors[lo : hi + 1], target - base)
        if hi > lo:
            cum = base + np.cumsum(seg)[:-1]
            over = cum - upper[lo:hi]
            under = lower[lo:hi] - cum
            worst = max(float(over.max()), float(under.max()))
            if worst > eps:
                if float(over.max()) >= float(under.max()):
                    j = lo + int(np.argmax(over))
                    pin = upper[j]
                else:
                    j = lo + int(np.argmax(under))
                    pin = lower[j]
                solve(lo, j, base, pin)
                solve(j + 1, hi, pin, target)
                return
        spend[lo : hi + 1] = seg

    solve(0, k - 1, 0.0, total)
    return spend / slot_duration_s


# ---------------------------------------------------------------------------
# Finite-battery MDP with Markov energy arrivals.


@dataclass(frozen=True)
class BatteryMdp:
    """Quantised battery, Markov energy chain, discrete spend levels.

    State: (battery bucket after harvesting, current energy state).
    Spend levels and arrival energies must lie within 1e-9 quanta of a
    whole number of ``bucket_j`` quanta; the chain moves by those whole
    numbers (``_quanta``), so it stays exact. Action: spend level,
    feasible when its quanta are at most the bucket. Reward:
    log2(1 + spend * snr_per_joule). Energy beyond the top bucket is
    discarded.
    """

    arrivals: MarkovArrivals
    battery_buckets: int
    bucket_j: float
    spend_levels_j: tuple[float, ...]
    snr_per_joule: float

    def __post_init__(self) -> None:
        _guard.count(minimum=2, battery_buckets=self.battery_buckets)
        _guard.positive(bucket_j=self.bucket_j, snr_per_joule=self.snr_per_joule)
        _guard.non_negative_elements(spend_levels_j=self.spend_levels_j)
        _quanta(self, self.spend_levels_j + self.arrivals.states_j)
        if 0.0 not in self.spend_levels_j:
            raise InvalidParameterError("spend levels must include 0")

    @property
    def capacity_j(self) -> float:
        return (self.battery_buckets - 1) * self.bucket_j

    @property
    def n_states(self) -> int:
        return self.battery_buckets * len(self.arrivals.states_j)

    @cached_property
    def _arrays(self) -> "_MdpArrays":
        """The model's transition arrays, built on first use and shared by every solver."""
        return _MdpArrays.build(self)

    def reward(self, action: int) -> float:
        return math.log2(1.0 + self.spend_levels_j[action] * self.snr_per_joule)


def _quanta(mdp: BatteryMdp, values_j: tuple[float, ...]) -> np.ndarray:
    """Each value as the whole number of battery quanta the transition moves.

    A value more than 1e-9 quanta from a whole number, or one whose quanta
    overflow a float, raises. Counts are capped at ``battery_buckets``,
    which changes no transition a policy can take: a spend of that many
    quanta is never feasible, and an arrival of that many fills the battery.
    """
    units = [v / mdp.bucket_j for v in values_j]
    if not all(math.isfinite(u) for u in units):
        raise InvalidParameterError("spend levels and arrival energies overflow the quantum")
    if any(abs(u - round(u)) > 1e-9 for u in units):
        raise InvalidParameterError(
            "spend levels and arrival energies must be multiples of the quantum"
        )
    return np.array([min(round(u), mdp.battery_buckets) for u in units])


def _feasible_spends(mdp: BatteryMdp) -> np.ndarray:
    """(spend level, battery bucket) mask: a level is feasible from the bucket
    of its whole quanta on, the bucket the transition subtracts it from."""
    return _quanta(mdp, mdp.spend_levels_j)[:, None] <= np.arange(mdp.battery_buckets)


@dataclass(frozen=True)
class Policy:
    """Deterministic stationary policy with its long-run average reward."""

    mdp: BatteryMdp
    actions: np.ndarray  # shape (buckets, n_energy_states) of spend level indices
    gain: float

    def __post_init__(self) -> None:
        mdp = self.mdp
        shape = (mdp.battery_buckets, len(mdp.arrivals.states_j))
        actions = np.asarray(self.actions)
        if (
            actions.shape != shape
            or not np.issubdtype(actions.dtype, np.integer)
            or actions.min() < 0
            or actions.max() >= len(mdp.spend_levels_j)
        ):
            raise InvalidParameterError(f"policy table must be {shape} spend-level indices")
        if not _feasible_spends(mdp)[actions, np.arange(mdp.battery_buckets)[:, None]].all():
            raise InvalidParameterError("policy spends more than its battery bucket holds")

    def action_at(self, battery_bucket: int, energy_state: int) -> int:
        return int(self.actions[battery_bucket, energy_state])

    def to_json(self) -> str:
        doc = asdict(self)
        doc["actions"] = self.actions.tolist()
        return dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Policy":
        """Parse :meth:`to_json`; a missing, unknown or mistyped key raises, naming its path."""
        return dataclass_from_dict(Policy, loads(text))


@dataclass(frozen=True)
class _MdpArrays:
    """Compact transition description of a BatteryMdp, built with numpy.

    States are flat, ``s = battery_bucket * n_energy + energy_state``.
    Action ``a`` in state ``s`` moves to state ``nxt[j, a, s]`` with
    probability ``prob[j, 0, s]``, one entry per next energy state ``j``,
    and earns ``rewards[a]``; ``feasible[a, s]`` marks the actions the
    battery covers. Infeasible actions point at in-range states, so
    gathers need no masking; their values are never chosen. The next
    energy state comes first, so an expectation adds one contiguous
    (action, state) plane per energy state. Every array is read-only:
    a model builds its arrays once (``BatteryMdp._arrays``) and every
    solver shares them.
    """

    nxt: np.ndarray  # (energy states, actions, states) next-state index
    prob: np.ndarray  # (energy states, 1, states)
    rewards: np.ndarray  # (actions,)
    feasible: np.ndarray  # (actions, states) bool

    @staticmethod
    def build(mdp: BatteryMdp) -> "_MdpArrays":
        n_e = len(mdp.arrivals.states_j)
        buckets = np.repeat(np.arange(mdp.battery_buckets), n_e)
        left = buckets - _quanta(mdp, mdp.spend_levels_j)[:, None]
        arrive = _quanta(mdp, mdp.arrivals.states_j)[:, None, None]
        b_next = np.clip(left + arrive, 0, mdp.battery_buckets - 1)
        arrays = _MdpArrays(
            nxt=b_next * n_e + np.arange(n_e)[:, None, None],
            prob=np.tile(mdp.arrivals.matrix.T, mdp.battery_buckets)[:, None, :],
            rewards=np.array([mdp.reward(a) for a in range(len(mdp.spend_levels_j))]),
            feasible=np.repeat(_feasible_spends(mdp), n_e, axis=1),
        )
        for array in vars(arrays).values():
            array.flags.writeable = False
        return arrays

    def expected(self, v: np.ndarray) -> np.ndarray:
        """E[v(next state)] for every (action, state) pair.

        The terms are added in next-energy-state order. Below 8 energy
        states that is also the order of a pairwise sum over them.
        """
        return np.add.reduce(self.prob * v[self.nxt], axis=0)


def _policy_tables(arrays: _MdpArrays, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense closed-loop transition matrix and reward vector of a policy."""
    chosen = np.asarray(actions).ravel()
    states = np.arange(chosen.size)
    p = np.zeros((chosen.size, chosen.size))
    p[states, arrays.nxt[:, chosen, states]] = arrays.prob[:, 0]
    return p, arrays.rewards[chosen]


def _evaluate_average_reward(p: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """Gain and bias of the chain ``p`` with rewards ``r``: h + g*1 = r + P h, h[0] = 0.

    A chain with several closed classes has no single gain, but the solve
    raises :class:`DegenerateModelError` only when the bordered system is
    singular to LU (an exact zero pivot); otherwise it returns a number,
    which need not be the gain of any class.
    """
    n = p.shape[0]
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.eye(n) - p
    a[:n, n] = 1.0
    a[n, 0] = 1.0
    b = np.concatenate([r, [0.0]])
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(
            "average-reward evaluation failed: the chain is not unichain"
        ) from exc
    if not np.all(np.isfinite(x)):
        raise DegenerateModelError("average-reward evaluation produced non-finite values")
    return float(x[n]), x[:n]


def mdp_policy_iteration(mdp: BatteryMdp, max_iterations: int = 1000) -> Policy:
    """Average-reward policy iteration run until the policy is stable."""
    _guard.count(max_iterations=max_iterations)
    arrays = mdp._arrays
    shape = (mdp.battery_buckets, len(mdp.arrivals.states_j))
    states = np.arange(mdp.n_states)
    # myopic start: the first feasible action of highest reward
    actions = np.where(arrays.feasible, arrays.rewards[:, None], -np.inf).argmax(axis=0)
    actions = actions.reshape(shape)
    for _ in range(max_iterations):
        p, r = _policy_tables(arrays, actions)
        gain, bias = _evaluate_average_reward(p, r)
        q = arrays.rewards[:, None] + arrays.expected(bias)
        best_a = actions.ravel()
        best_q = q[best_a, states]
        for a in range(len(q)):  # index order, as a per-state scan would go
            # strict improvement keeps iteration stable
            better = arrays.feasible[a] & (q[a] > best_q + 1e-10)
            best_q = np.where(better, q[a], best_q)
            best_a = np.where(better, a, best_a)
        new_actions = best_a.reshape(shape)
        if np.array_equal(new_actions, actions):
            return Policy(mdp, actions, gain)
        actions = new_actions
    raise DegenerateModelError("policy iteration did not stabilise")


# Sweeps of value iteration between two span checks.
_VI_BLOCK = 48


def value_iteration_gain(
    mdp: BatteryMdp, span_tol: float = 1e-9, max_iterations: int = 200_000
) -> float:
    """Average reward via relative value iteration (independent solver).

    A half-step damping makes the update aperiodic; the gain is the
    midpoint of the Bellman-residual span ``tv - v`` once the span
    collapses below ``span_tol``. Each sweep stores its residual as one
    row of a block; the spans are checked once per block, and the gain
    comes from the first sweep whose span is below the tolerance, as a
    check after every sweep would find it. At most one block of sweeps
    runs past that sweep, and no more than ``max_iterations`` run.
    """
    _guard.positive(span_tol=span_tol)
    _guard.count(max_iterations=max_iterations)
    arrays = mdp._arrays
    rewards = np.where(arrays.feasible, arrays.rewards[:, None], -np.inf)
    v = np.zeros(mdp.n_states)
    diffs = np.empty((_VI_BLOCK, mdp.n_states))
    for start in range(0, max_iterations, _VI_BLOCK):
        block = diffs[: min(_VI_BLOCK, max_iterations - start)]
        for diff in block:
            tv = np.maximum.reduce(rewards + arrays.expected(v), axis=0)
            np.subtract(tv, v, out=diff)
            v *= 0.5
            tv *= 0.5
            v += tv
            v -= v[0]
        hi, lo = block.max(axis=1), block.min(axis=1)
        converged = np.flatnonzero(hi - lo < span_tol)
        if converged.size:
            first = converged[0]
            return float((hi[first] + lo[first]) / 2.0)
    raise DegenerateModelError("value iteration did not converge")


def threshold_policy(
    mdp: BatteryMdp, theta_j: float, spend_j: float | None = None
) -> Policy:
    """Transmit a fixed amount whenever the battery reaches the threshold.

    The spend defaults to one battery quantum; it is truncated to the
    largest feasible level when the battery holds less than the target.
    Levels are compared by the whole quanta the transition spends.
    The returned policy carries its exact long-run gain. A closed loop
    with several closed classes raises :class:`DegenerateModelError` only
    when the average-reward solve is singular, and otherwise carries what
    the solve returns (see ``_evaluate_average_reward``).
    """
    _guard.non_negative(theta_j=theta_j)
    target = mdp.bucket_j if spend_j is None else spend_j
    _guard.positive(spend_j=target)
    units = _quanta(mdp, mdp.spend_levels_j)
    held_j = np.arange(mdp.battery_buckets) * mdp.bucket_j
    wanted = (units > 0) & (units * mdp.bucket_j <= target + 1e-12)
    allowed = _feasible_spends(mdp) & wanted[:, None]
    largest = np.where(allowed, units[:, None], -1).argmax(axis=0)
    transmit = allowed.any(axis=0) & (held_j + 1e-12 >= theta_j)
    chosen = np.where(transmit, largest, mdp.spend_levels_j.index(0.0))
    actions = np.repeat(chosen[:, None], len(mdp.arrivals.states_j), axis=1)
    p, r = _policy_tables(mdp._arrays, actions)
    return Policy(mdp, actions, _evaluate_average_reward(p, r)[0])


def evaluate_policy(
    policy: Policy,
    horizon: int = 100_000,
    seed: int = 0,
    exact: bool = False,
) -> float:
    """Average reward per slot on the policy's own chain, simulated or exact.

    The exact mode solves the closed loop's average-reward equations as
    policy iteration does; a loop with several closed classes raises only
    when that solve is singular (see ``_evaluate_average_reward``).
    Simulation samples the model's own chain, the one every solver reads:
    it starts at bucket 0 in energy state 0, before the first harvest,
    and walks the closed loop's next-state table along the energy-state
    path of ``simulate_arrivals(mdp.arrivals, horizon, seed)``, so energy
    states that share an arrival energy keep their own actions.
    """
    _guard.count(horizon=horizon)
    arrays = policy.mdp._arrays
    chosen = policy.actions.ravel()
    if exact:
        p, r = _policy_tables(arrays, chosen)
        return _evaluate_average_reward(p, r)[0]
    states = np.arange(chosen.size)
    reward = arrays.rewards[chosen].tolist()
    step = arrays.nxt[:, chosen, states].tolist()  # step[next energy state][state]
    # the stream simulate_arrivals draws from, so the trace is the same
    path = _markov_path(policy.mdp.arrivals, horizon, substream(seed, "arrivals"))
    # state 0 (bucket 0, energy state 0) spends nothing, so its step is the first harvest
    state = 0
    total = 0.0
    for e in path:
        state = step[e][state]
        total += reward[state]
    return total / horizon


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
        _, swipt_rate = optimize_split(
            "ts", swipt_link, eta, mode, frame_duration_s=slot_duration_s
        )
    gamma1 = swipt_link.source_power_w * swipt_link.source_relay_gain / swipt_link.noise_power_w
    modes: list[str] = []
    bits: list[float] = []
    banks: list[float] = []
    bank = 0.0
    for arrival in trace:
        available = bank + float(arrival)
        if available >= activation_threshold_j and available > 0:
            relay_power = available / (slot_duration_s / 2.0)
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

