"""Crowd-harvested RF power aggregation across urban deployments.

The central quantity is the total received power at a probe location
from every transmitter of a radio access technology (RAT). Received
power from a planar point process is heavy-tailed (the nearest
transmitter can be arbitrarily close), so sweeps report the trial mean,
its standard deviation, and the trial median; the median is the
statistic used for peak-power tables and density-scaling fits because
trial means of heavy-tailed sums do not stabilise at practical trial
counts.

Scaling fits additionally hold the number of contributing transmitters
fixed (``k_nearest``): the power-law in density applies to the power
collected from a fixed-size set of nearest transmitters, while letting
the set grow with density folds a logarithmic crowd-size term into the
slope.

Every sweep runs on one engine, :func:`crowd_sweep`. Trial t at grid
index j draws its deployment, probe and shadowing seed from the
substream ``(seed, "sweep", j, t)``, so every curve swept over one grid
with one seed (LoS and NLoS, full crowd and ``k_nearest``) sees the same
deployment, probe and shadowing seed at (j, t). The engine therefore
samples each deployment and measures its probe distances once and
derives every requested curve ("view") from those distances. The sweeps
and :func:`nearest_share_study` share one block-wise trial kernel,
:func:`_trial_powers`, which derives the generator states of many trials
at once and computes many small deployments with one set of array
operations, bit-identical to one :func:`aggregate_power` call per trial.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _guard
from ._documents import write_csv
from .errors import FitFailureError, InvalidParameterError, SimulationError
from .geometry import (
    Deployment,
    PoissonProcess,
    Region,
    SpatialProcess,
    _at_density,
    _draw_points,
    _unit_ppp,
    distances_to_probe,
)
from .propagation import PathlossModel, ShadowingSpec, draw_shadowing_db, received_power
from .rng import (
    _mulhi,
    _raw_outputs,
    _reseat,
    _state_words,
    state_dict,
    substream,
    substream_columns,
)

__all__ = [
    "RatProfile",
    "EmpiricalPdf",
    "HarvestReport",
    "SweepPoint",
    "SweepCurve",
    "SweepView",
    "convolve_load_pdfs",
    "aggregate_power",
    "crowd_sweep",
    "upper_bound_sweep",
    "scaling_exponent",
    "nearest_share_study",
    "SWEEP_CSV_HEADER",
    "sweep_to_csv",
]


@dataclass(frozen=True)
class RatProfile:
    """Radio parameters of one technology (macro, femto, Wi-Fi, TV)."""

    name: str
    bandwidth_hz: float
    transmit_power_w: float
    density_range_per_km2: tuple[float, float]
    spatial_process: SpatialProcess
    carrier_frequency_hz: float
    min_link_distance_m: float = 1.0  # physical floor: mast height / model validity
    table_density_per_km2: float | None = None  # peak-power table density; None = range top

    def __post_init__(self) -> None:
        _guard.positive(bandwidth_hz=self.bandwidth_hz, transmit_power_w=self.transmit_power_w,
                        carrier_frequency_hz=self.carrier_frequency_hz,
                        min_link_distance_m=self.min_link_distance_m)
        lo, hi = self.density_range_per_km2
        if not 0 < lo <= hi < math.inf:
            raise InvalidParameterError("density range must be ordered, positive and finite")
        if self.table_density_per_km2 is not None:
            _guard.positive(table_density_per_km2=self.table_density_per_km2)


# ---------------------------------------------------------------------------
# Traffic-load densities (spectrum utilisation in [0, 1]) and their convolution.


@dataclass(frozen=True)
class EmpiricalPdf:
    """Tabulated density on a uniform grid; integrates to 1 by trapezoid."""

    loads: np.ndarray
    densities: np.ndarray

    def __post_init__(self) -> None:
        loads = np.asarray(self.loads, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if loads.ndim != 1 or loads.shape != dens.shape or loads.size < 2:
            raise InvalidParameterError("empirical pdf needs matching 1-D grids")
        if not np.all(np.diff(loads) > 0):
            raise InvalidParameterError("pdf grid must be strictly increasing")
        if not np.all(dens >= 0):
            raise InvalidParameterError("pdf values must be non-negative")
        total = float(np.trapezoid(dens, loads))
        if not abs(total - 1.0) <= 1e-6:
            raise InvalidParameterError(f"pdf must integrate to 1, got {total:.8f}")
        loads.flags.writeable = False
        dens.flags.writeable = False
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "densities", dens)

    @staticmethod
    def uniform(grid_step: float = 1e-3) -> "EmpiricalPdf":
        n = int(round(1.0 / grid_step))
        grid = np.linspace(0.0, 1.0, n + 1)
        return EmpiricalPdf(grid, np.ones(n + 1))


def convolve_load_pdfs(pdfs: list[EmpiricalPdf], grid_step: float) -> EmpiricalPdf:
    """Density of the sum of independent loads, as an N-fold convolution.

    Each input must live on the uniform [0, 1] grid with the given step.
    Densities are reduced to per-cell masses (trapezoid), the masses are
    convolved, and the result is read back as a density on [0, N]. Mass
    is conserved exactly, so the output integrates to 1 up to grid
    round-off.
    """
    if not pdfs:
        raise InvalidParameterError("need at least one pdf")
    n = round(1.0 / grid_step)
    if abs(n * grid_step - 1.0) > 1e-9:
        raise InvalidParameterError("grid step must divide 1 evenly")
    cells_list = []
    for pdf in pdfs:
        if pdf.loads.size != n + 1 or abs(pdf.loads[0]) > 1e-12 or abs(pdf.loads[-1] - 1) > 1e-9:
            raise InvalidParameterError("pdfs must share the uniform [0, 1] grid")
        step = np.diff(pdf.loads)
        if np.max(np.abs(step - grid_step)) > 1e-9 * max(1.0, grid_step):
            raise InvalidParameterError("pdfs must share the uniform [0, 1] grid")
        cells_list.append((pdf.densities[1:] + pdf.densities[:-1]) / 2.0 * grid_step)
    if len(cells_list) == 1:
        return pdfs[0]
    masses = cells_list[0]
    for cells in cells_list[1:]:
        masses = np.convolve(masses, cells)
    # Cell j of the convolution covers the sum's mass near (j+1)*step; read
    # the density at interior nodes and pin the support endpoints to zero.
    n_out = masses.size  # == len(pdfs)*n - (len(pdfs)-1)
    total_span = len(pdfs)
    grid = np.linspace(0.0, total_span, len(pdfs) * n + 1)
    density = np.zeros_like(grid)
    density[1 : n_out + 1] = masses / grid_step
    # Mass is conserved exactly, so the trapezoid integral is 1 up to fp noise.
    return EmpiricalPdf(grid, density)


# ---------------------------------------------------------------------------
# Power aggregation.


@dataclass(frozen=True)
class HarvestReport:
    """Received power at one probe from every transmitter of a deployment."""

    total_power_w: float
    power_density_w_per_hz: float
    per_transmitter_w: np.ndarray
    nearest_fraction: float  # share of the strongest single contribution

    def __post_init__(self) -> None:
        arr = np.asarray(self.per_transmitter_w, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "per_transmitter_w", arr)


def aggregate_power(
    probe: tuple[float, float],
    deployment: Deployment,
    rat: RatProfile,
    model: PathlossModel,
    *,
    shadowing: ShadowingSpec | None = None,
    seed: int = 0,
    k_nearest: int | None = None,
) -> HarvestReport:
    """Total and per-transmitter received power at a probe point.

    This is the per-trial definition that the trial kernel
    (:func:`_trial_powers`) reproduces bit for bit, and the oracle the
    tests compare the kernel against; nothing else in the package calls it.

    Link distances are floored at the larger of the model reference
    distance and the RAT's physical minimum link distance. When
    ``k_nearest`` is given only that many nearest transmitters
    contribute. Deterministic for a fixed seed: shadowing is drawn from
    the ``(seed, "shadowing")`` substream, spawned only when it is on.
    ``k_nearest`` must be an integer of at least 1, checked before any
    distance is computed.
    """
    if k_nearest is not None:
        _guard.count(k_nearest=k_nearest)
    if deployment.count == 0:
        return HarvestReport(0.0, 0.0, np.zeros(0), 0.0)
    d = distances_to_probe(deployment.region, probe, deployment.xs, deployment.ys)
    if k_nearest is not None and k_nearest < d.size:
        d = np.partition(d, k_nearest - 1)[:k_nearest]
    shadow_db = None
    if shadowing is not None and shadowing.active:
        shadow_db = draw_shadowing_db(shadowing, d.size, substream(seed, "shadowing"))
    floor_m = max(model.reference_distance_m, rat.min_link_distance_m)
    per_tx = received_power(rat.transmit_power_w, model, np.maximum(d, floor_m), shadow_db)
    total = float(per_tx.sum())
    fraction = float(per_tx.max() / total) if total > 0 else 0.0
    return HarvestReport(total, total / rat.bandwidth_hz, per_tx, fraction)


@dataclass(frozen=True)
class SweepPoint:
    density_per_km2: float
    mean_power_w: float
    mean_density_w_per_hz: float
    std_power_w: float
    median_power_w: float
    median_density_w_per_hz: float
    trials: int


@dataclass(frozen=True)
class SweepCurve:
    rat_name: str
    scenario: str
    points: tuple[SweepPoint, ...]

    @property
    def densities(self) -> np.ndarray:
        return np.array([p.density_per_km2 for p in self.points])


@dataclass(frozen=True)
class SweepView:
    """One curve of a crowd sweep: how the shared trial deployments are received.

    The view uses the first ``trials`` trials of every grid point; with
    ``k_nearest``, an integer of at least 1, only that many nearest
    transmitters contribute.
    """

    model: PathlossModel
    trials: int
    shadowing: ShadowingSpec | None = None
    k_nearest: int | None = None
    scenario: str = ""

    def __post_init__(self) -> None:
        _guard.count(trials=self.trials)
        if self.k_nearest is not None:
            _guard.count(k_nearest=self.k_nearest)


def _sweep_point(density: float, totals: np.ndarray, bandwidth_hz: float) -> SweepPoint:
    mean, median = np.mean(totals), np.median(totals)
    return SweepPoint(
        density_per_km2=float(density),
        mean_power_w=float(mean),
        mean_density_w_per_hz=float(mean / bandwidth_hz),
        std_power_w=float(np.std(totals)),
        median_power_w=float(median),
        median_density_w_per_hz=float(median / bandwidth_hz),
        trials=totals.size,
    )


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenation that does not copy a single part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


_TRIAL_BLOCK = 512  # trials whose substream states are derived together
_SEED_BOUND = 2**63 - 1  # a trial's seeds are integers(0, _SEED_BOUND)
_CHUNK_POINTS = 2**13  # points whose distances and powers are computed together


class _LinkWorkspace:
    """A kernel call's three float64 rows: link distances, link power and shadowing.

    A trial's shadowing draws sit in the third row at the trial's offset in
    the chunk, beside its distances in the first. The rows are reused for
    every chunk of a kernel call (a forked share grows its own copy) and
    grow to the largest chunk seen; the old buffer is freed first.
    """

    def __init__(self) -> None:
        self._buffer = np.empty((3, 0))

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first ``n`` columns of the distance, power and shadowing rows."""
        if self._buffer.shape[1] < n:
            del self._buffer
            self._buffer = np.empty((3, n))
        return self._buffer[0, :n], self._buffer[1, :n], self._buffer[2, :n]


def _lemire_rejected(low: np.ndarray) -> np.ndarray:
    """Where numpy redraws ``integers(0, _SEED_BOUND)``, given the low words of raw * bound.

    Lemire's method rejects a low word below ``2**64 mod bound``, which is 2
    here: probability 2**-62.
    """
    return low < (2**64 - _SEED_BOUND) % _SEED_BOUND


def _trial_draws(
    gen: np.random.Generator, region: Region, states
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deployment seed, probe x, probe y and shadowing seed of every trial state.

    A trial's generator draws ``integers(0, 2**63 - 1)``, then
    ``region.sample_probe``, then ``integers(0, 2**63 - 1)``, one raw output
    each; these are computed from the states' first four raw outputs as
    numpy computes them. A seed is the high word of ``raw * bound``
    (Lemire), a uniform is ``x0 + (x1 - x0) * ((raw >> 11) * 2**-53)``. A
    row whose low word numpy would reject, and the first row, which checks
    the formulas against numpy, are drawn by ``gen`` re-pointed to their
    state; a mismatch raises :class:`SimulationError`.
    """
    raw = _raw_outputs(states, 4)
    bound = np.uint64(_SEED_BOUND)
    seeds = _mulhi(raw[:, [0, 3]], bound)
    x0, x1, y0, y1 = region.probe_bounds()
    unit = (raw[:, 1:3] >> 11) * 2.0**-53
    xs, ys = x0 + (x1 - x0) * unit[:, 0], y0 + (y1 - y0) * unit[:, 1]
    redraw = _lemire_rejected(raw[:, [0, 3]] * bound).any(axis=1)
    for i in [0, *np.flatnonzero(redraw).tolist()]:
        gen.bit_generator.state = state_dict(*(c[i] for c in states))
        drawn = (
            int(gen.integers(0, _SEED_BOUND)),
            *region.sample_probe(gen),
            int(gen.integers(0, _SEED_BOUND)),
        )
        if not redraw[i] and drawn != (int(seeds[i, 0]), xs[i], ys[i], int(seeds[i, 1])):
            raise SimulationError(
                "trial seeds and probe computed from raw outputs differ from the generator's; "
                "numpy's integers or uniform has changed"
            )
        seeds[i], xs[i], ys[i] = drawn[::3], drawn[1], drawn[2]
    return seeds[:, 0], xs, ys, seeds[:, 1]


def _run_shares(run_share: Callable[[int], None], shares: int) -> None:
    """Call ``run_share(w)`` for every share ``w`` < ``shares``, each but share 0 in a forked child.

    The calling process runs share 0 and then waits for every child, also
    when its own share raised. A child leaves through ``os._exit``; one
    that raised sends its exception back pickled through a pipe, so it
    keeps its type and message. Errors are raised in share order: the
    calling process's own first, then the first failed child's. A child
    that dies without reporting raises :class:`SimulationError`. Without
    ``os.fork`` every share runs in the calling process.
    """
    if not hasattr(os, "fork"):
        for w in range(shares):
            run_share(w)
        return
    children = []  # (pid, read end of the child's error pipe), in share order
    try:
        for w in range(1, shares):
            read_fd, write_fd = os.pipe()
            reader, writer = open(read_fd, "rb"), open(write_fd, "wb")
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    reader.close()
                    try:
                        run_share(w)
                        status = 0
                    except BaseException as error:
                        with writer:  # nothing is written if the error cannot be pickled
                            writer.write(pickle.dumps(error))
                finally:
                    os._exit(status)
            writer.close()
            children.append((pid, reader))
        run_share(0)
    finally:
        reports = []
        for pid, reader in children:
            with reader:
                error = reader.read()  # to the end before waiting: a large error fills the pipe
            reports.append((error, os.waitpid(pid, 0)[1]))
    for w, (error, status) in enumerate(reports, 1):
        if error:
            raise pickle.loads(error)
        if status:
            raise SimulationError(
                f"crowd worker {w} exited with code {os.waitstatus_to_exitcode(status)}"
            )


def _trial_powers(
    rat: RatProfile,
    region: Region,
    seed: int,
    densities: Sequence[float],
    trials: int,
    trial_key: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, tuple]],
    views: Sequence[SweepView],
    workers: int = 1,
    *,
    strongest: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Total (and, with ``strongest``, strongest) received power per view and trial.

    ``trial_key(rows)`` maps a uint64 column of trial indices to the
    columns ``(j, t, path)``; each element of ``path`` is a scalar or a
    column. Trial r draws a deployment seed, a uniform probe and a
    shadowing seed from ``substream(seed, *path[r])``.
    Its deployment is what ``sample_process(rat.spatial_process,
    densities[j], region, deployment seed)`` samples, and a shadowed view
    draws from ``substream(shadowing seed, "shadowing")`` as
    :func:`aggregate_power` does. View v reads the trials with
    ``t < v.trials``. Both arrays are (trial, view); an empty deployment,
    or a trial the view does not read, reads 0.

    Trials run in blocks of ``_TRIAL_BLOCK``: each block derives its trial
    states with one :func:`substream_columns` call, computes their seeds
    and probes from raw outputs (:func:`_trial_draws`), derives the
    deployment and shadowing states with one call each, and re-points the
    call's one generator to draw the deployments and the shadowing, through
    the call's one state dict (``_reseat``).
    Distances and powers are computed on at most ``_CHUNK_POINTS``
    points at a time (or one larger deployment), while every trial's sum
    and ``k_nearest`` partition is taken on that trial's own slice, so
    values are bit-identical to the per-trial computation and do not
    depend on the block or chunk size. The steps that are elementwise or
    exact run once per chunk instead of once per trial: a PPP deployment
    is drawn as :func:`_unit_ppp`'s unit coordinates, and the chunk's x
    and y are scaled by the width and height at once (in place when the
    chunk holds one deployment), as :func:`_draw_points` scales each
    deployment; the strongest links of a view are one
    ``np.maximum.reduceat`` over its trials' segments, which are never
    empty. A trial's shadowing stream is drawn as far as its longest
    reading view needs; a ``k_nearest`` view reads the stream's first
    draws.

    ``workers``, an integer of at least 1, deals the trials to ``n =
    min(workers, trials)`` shares: share w is ``range(w, trials, n)``, run
    in slices of ``_TRIAL_BLOCK``, so every share gets every grid point's
    trials. The calling process runs share 0 and a forked process, which
    copies the call's generator, dict and workspace, each other one
    (:func:`_run_shares`); every share writes its own trial rows of the
    two arrays, which live in one anonymous shared mapping. A trial's draws
    come from its own keyed substreams, so results do not depend on ``workers``.

    The link arithmetic allocates no array of the chunk's size for a view
    that reads every link of the chunk. The call's
    :class:`_LinkWorkspace` holds three rows, sized to the largest chunk
    seen. A chunk's distances go into the first row, with the chunk's
    coordinates as scratch. Views are taken one shadowing spec at a time:
    each trial's draws for the spec go into the third row at the trial's
    offset in the chunk (``draw_shadowing_db``'s ``out``), so a view that
    reads every link of every trial in the chunk uses the row as it is,
    and a view that reads a prefix (``k_nearest``, or fewer trials) gathers
    its trials' first draws. When every trial of the chunk draws its whole
    deployment for the spec (as when a full-crowd view reads them all),
    each trial makes only ``draw_shadowing_db``'s standard-normal draw and
    its multiply by sigma runs once over the chunk's row; otherwise each
    trial calls ``draw_shadowing_db``, and no entry the chunk did not write
    is scaled. Each view's links, partitioned in place for
    ``k_nearest``, floored and turned into link power with
    :func:`received_power`'s ``out``, go into the second row. Every element
    sees the operations of the allocating calls in their order, so the
    values are the same bits.
    """
    _guard.count(workers=workers)
    processes = [_at_density(rat.spatial_process, density) for density in densities]
    specs = [v.shadowing if v.shadowing is not None and v.shadowing.active else None for v in views]
    shadow_trials = max((v.trials for v, spec in zip(views, specs) if spec), default=0)
    views_by_spec: dict[ShadowingSpec | None, list[int]] = {}
    for v, spec in enumerate(specs):
        views_by_spec.setdefault(spec, []).append(v)
    # zero-filled and shared with forked shares, which write their own trial rows
    results = np.frombuffer(mmap.mmap(-1, (1 + strongest) * trials * len(views) * 8))
    results = results.reshape(1 + strongest, trials, len(views))
    totals, maxima = results[0], results[1] if strongest else None

    gen = np.random.default_rng(0)  # re-pointed to each substream's state
    seat = state_dict(0, 0, 0, 0)  # the one dict that re-points gen
    workspace = _LinkWorkspace()

    def run_chunk(chunk, probes, shadow_states) -> None:
        """Compute the (row, t, count, xs, ys) deployments of ``chunk`` and empty it."""
        rows, ts, counts, xs, ys = zip(*chunk)
        chunk.clear()
        xs, ys = _joined(xs), _joined(ys)
        if ppp:  # unit coordinates, scaled here once per chunk (in place for one deployment)
            xs *= region.width_m
            ys *= region.height_m
        if not np.all(region.contains(xs, ys)):
            raise InvalidParameterError("deployment points must lie inside the region")
        if len(rows) == 1:
            probe = probes[rows[0]]
        else:
            probe = tuple(np.repeat([probes[r][i] for r in rows], counts) for i in (0, 1))
        d, power_row, shadow_row = workspace.rows(xs.size)
        distances_to_probe(region, probe, xs, ys, out=d)  # xs and ys become scratch
        del xs, ys, probe
        starts = list(accumulate(counts[:-1], initial=0))
        # links[v][i]: how many links view v reads in the chunk's i-th trial
        links = [
            [
                (0 if t >= view.trials else n if view.k_nearest is None else min(n, view.k_nearest))
                for t, n in zip(ts, counts)
            ]
            for view in views
        ]
        for spec, group in views_by_spec.items():
            if spec:
                # each trial's draws, as many as its longest reading view needs, at its offset
                lengths = [max(col) for col in zip(*(links[v] for v in group))]
                # if every trial draws its whole deployment, the row is all written, so
                # draw_shadowing_db's multiply by sigma runs once, after the per-trial draws
                whole = lengths == list(counts)
                for r, lo, m in zip(rows, starts, lengths):
                    if m:
                        _reseat(gen, seat, *shadow_states[r])
                        if whole:
                            gen.standard_normal(m, out=shadow_row[lo : lo + m])
                        else:
                            draw_shadowing_db(spec, m, gen, out=shadow_row[lo : lo + m])
                if whole:
                    shadow_row[: d.size] *= spec.sigma_db
            for v in group:
                view = views[v]
                used = [i for i, m in enumerate(links[v]) if m]
                if not used:
                    continue
                view_d = d
                shadow_db = shadow_row[: d.size] if spec else None
                if view.k_nearest is not None or len(used) < len(rows):
                    # every used trial's links, its k nearest partitioned in place
                    a = 0
                    for i in used:
                        lo, n = starts[i], counts[i]
                        power_row[a : a + n] = d[lo : lo + n]
                        if links[v][i] < n:
                            power_row[a : a + n].partition(links[v][i] - 1)
                        a += links[v][i]
                    view_d = power_row[:a]
                    if spec:
                        shadow_db = _joined(
                            [shadow_row[starts[i] : starts[i] + links[v][i]] for i in used]
                        )
                power = power_row[: view_d.size]
                floor_m = max(view.model.reference_distance_m, rat.min_link_distance_m)
                np.maximum(view_d, floor_m, out=power)
                received_power(rat.transmit_power_w, view.model, power, shadow_db, out=power)
                del shadow_db
                # each used trial's segment of power, in order and never empty
                segments = list(accumulate([links[v][i] for i in used], initial=0))
                used_rows = [rows[i] for i in used]
                totals[used_rows, v] = [power[a:b].sum() for a, b in zip(segments, segments[1:])]
                if strongest:
                    maxima[used_rows, v] = np.maximum.reduceat(power, segments[:-1])

    kind = rat.spatial_process.kind  # the deployment substream label, as in sample_process
    ppp = isinstance(rat.spatial_process, PoissonProcess)

    def run_block(block: range) -> None:
        rows = np.arange(block.start, block.stop, block.step, dtype=np.uint64)
        js, ts, path = trial_key(rows)
        deployment_seeds, probe_x, probe_y, shadow_seeds = _trial_draws(
            gen, region, substream_columns(seed, *path)
        )
        probes = dict(zip(block, zip(probe_x.tolist(), probe_y.tolist())))
        shadowed = ts < shadow_trials  # some shadowed view reads these trials
        shadow_states = dict(zip(
            rows[shadowed].tolist(),
            _state_words(substream_columns(shadow_seeds[shadowed], "shadowing")),
        ))
        deployment_states = _state_words(substream_columns(deployment_seeds, kind))
        # a chunk holds at most _CHUNK_POINTS points or one larger deployment,
        # which is computed alone and before the next deployment is drawn
        chunk, points = [], 0
        for r, j, t, state in zip(block, js.tolist(), ts.tolist(), deployment_states):
            _reseat(gen, seat, *state)
            if ppp:
                xs, ys = _unit_ppp(gen, processes[j][1], region)
            else:
                xs, ys = _draw_points(gen, *processes[j], region)
            n = xs.size
            if not n:
                continue
            if chunk and points + n > _CHUNK_POINTS:
                run_chunk(chunk, probes, shadow_states)
                points = 0
            chunk.append((r, t, n, xs, ys))
            points += n
            del xs, ys
            if points >= _CHUNK_POINTS:
                run_chunk(chunk, probes, shadow_states)
                points = 0
        if chunk:
            run_chunk(chunk, probes, shadow_states)

    shares = min(workers, trials)

    def run_share(w: int) -> None:
        share = range(w, trials, shares)
        for start in range(0, len(share), _TRIAL_BLOCK):
            run_block(share[start : start + _TRIAL_BLOCK])

    _run_shares(run_share, shares)
    return totals, maxima


def crowd_sweep(
    rat: RatProfile,
    density_grid: list[float] | np.ndarray,
    views: Sequence[SweepView],
    seed: int,
    *,
    region: Region,
    workers: int = 1,
) -> tuple[SweepCurve, ...]:
    """Full-buffer received power versus transmitter density, one curve per view.

    Every transmitter radiates its full power across its whole band.
    Trial t at grid index j draws a deployment, a uniform probe and a
    shadowing seed from the substream ``(seed, "sweep", j, t)`` once,
    measures the probe's distances once, and computes the total received
    power of every view from those distances; so all views share the
    deployment, probe and shadowing seed at (j, t), and a view reads its
    first ``view.trials`` trials. Share w of ``workers`` takes every
    ``workers``-th trial from trial w; share 0 runs in the calling process
    and each other one in a forked process (see :func:`_trial_powers`),
    and results are bit-identical for any worker count.
    """
    grid = np.asarray(density_grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("density grid must be non-empty")
    if not views:
        raise InvalidParameterError("need at least one view")
    trials = max(view.trials for view in views)

    def sweep_key(rows):
        j, t = divmod(rows, trials)
        return j, t, ("sweep", j, t)

    totals, _ = _trial_powers(
        rat,
        region,
        seed,
        grid,
        grid.size * trials,
        sweep_key,
        views,
        workers,
    )
    # (grid index, trial, view); a view's trials past view.trials read 0
    table = totals.reshape(grid.size, trials, len(views))
    return tuple(
        SweepCurve(
            rat.name,
            view.scenario,
            tuple(
                _sweep_point(density, table[j, : view.trials, v], rat.bandwidth_hz)
                for j, density in enumerate(grid)
            ),
        )
        for v, view in enumerate(views)
    )


def upper_bound_sweep(
    rat: RatProfile,
    density_grid: list[float] | np.ndarray,
    model: PathlossModel,
    trials: int,
    seed: int,
    *,
    region: Region,
    shadowing: ShadowingSpec | None = None,
    k_nearest: int | None = None,
    scenario: str = "",
    workers: int = 1,
) -> SweepCurve:
    """Full-buffer received power versus transmitter density: one curve.

    The one-view case of :func:`crowd_sweep`. Trial t at grid index j
    uses the deployment, probe and shadowing seed of the substream
    ``(seed, "sweep", j, t)``, the same as every other curve swept with
    that seed over that grid, so results are bit-identical no matter how
    many workers execute them.
    """
    view = SweepView(model, trials, shadowing, k_nearest, scenario)
    return crowd_sweep(rat, density_grid, [view], seed, region=region, workers=workers)[0]


def scaling_exponent(curve: SweepCurve) -> float:
    """Least-squares slope of log median power versus log density.

    Requires at least 4 grid points spanning at least one decade of
    density. On a synthetic exact power law the fit recovers the
    exponent to machine precision.
    """
    lam = curve.densities
    val = np.array([p.median_power_w for p in curve.points])
    if lam.size < 4:
        raise FitFailureError("scaling fit needs at least 4 grid points")
    if math.log10(lam.max() / lam.min()) < 1.0 - 1e-9:
        raise FitFailureError("scaling fit needs a grid spanning at least one decade")
    if np.any(val <= 0):
        raise FitFailureError("scaling fit needs positive power values")
    slope, _ = np.polyfit(np.log10(lam), np.log10(val), 1)
    return float(slope)


def nearest_share_study(
    rat: RatProfile,
    density_per_km2: float,
    model: PathlossModel,
    draws: int,
    seed: int,
    *,
    region: Region,
    shadowing: ShadowingSpec | None = None,
    workers: int = 1,
) -> tuple[float, float]:
    """Share of crowd-harvested energy supplied by the strongest node.

    Returns ``(energy_share, mean_fraction)`` over independent
    probe/deployment draws: ``energy_share`` is the energy-weighted
    share, the summed strongest-node power over the summed total power,
    which is the fraction of all harvested energy attributable to the
    nearest transmitter; ``mean_fraction`` is the unweighted mean of the
    per-draw share, reported for sensitivity. Share w of ``workers`` takes
    every ``workers``-th draw from draw w; share 0 runs in the calling
    process and each other one in a forked process (see
    :func:`_trial_powers`); results are bit-identical for any worker count.
    """
    _guard.count(draws=draws)
    view = SweepView(model, draws, shadowing)
    totals, maxima = _trial_powers(
        rat,
        region,
        seed,
        [density_per_km2],
        draws,
        lambda rows: (np.zeros_like(rows), rows, ("share", rows)),
        [view],
        workers,
        strongest=True,
    )
    totals, maxima = totals[:, 0], maxima[:, 0]
    # the strongest-node term as aggregate_power reports it: fraction * total
    fractions = np.divide(maxima, totals, out=np.zeros(draws), where=totals > 0)
    strongest = fractions * totals
    total_sum = totals.sum()
    share = float(strongest.sum() / total_sum) if total_sum > 0 else 0.0
    return share, float(fractions.mean())


SWEEP_CSV_HEADER = ["lambda_per_km2", "mean_power_w", "mean_density_w_per_hz", "stddev_w"]


def _sweep_cells(p: SweepPoint) -> list[str]:
    """A sweep point's cells under ``SWEEP_CSV_HEADER``."""
    return [
        f"{v:.10g}"
        for v in (p.density_per_km2, p.mean_power_w, p.mean_density_w_per_hz, p.std_power_w)
    ]


def sweep_to_csv(curve: SweepCurve) -> str:
    """Serialise a sweep with the standard four-column schema."""
    return write_csv(SWEEP_CSV_HEADER, map(_sweep_cells, curve.points))
