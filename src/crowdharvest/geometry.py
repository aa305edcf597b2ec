"""Spatial deployments of RF transmitters and nearest-distance statistics.

Transmitter positions are sampled on a rectangular region either as a
homogeneous Poisson point process or as a Thomas cluster process
(Poisson parents, Poisson-many Gaussian-displaced offspring). Distances
are measured either on the torus (default, keeps the statistics
stationary right up to the border) or as plain Euclidean distances with
an optional guard margin for probe placement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _guard
from ._documents import dataclass_from_dict, dumps, loads, read_csv, write_csv
from .errors import InvalidParameterError
from .rng import substream

__all__ = [
    "Region",
    "PoissonProcess",
    "ClusteredProcess",
    "Deployment",
    "sample_ppp",
    "sample_clustered",
    "sample_process",
    "nth_nearest_distance_cdf",
    "distances_to_probe",
    "deployment_to_csv",
    "deployment_to_json",
    "deployment_from_json",
]

M2_PER_KM2 = 1e6


@dataclass(frozen=True)
class Region:
    """Rectangular study area, e.g. the 60 km^2 central-London window."""

    width_m: float
    height_m: float
    boundary: str = "toroidal"  # "toroidal" or "guard"
    guard_margin_m: float = 0.0

    def __post_init__(self) -> None:
        _guard.positive(width_m=self.width_m, height_m=self.height_m)
        if self.boundary not in ("toroidal", "guard"):
            raise InvalidParameterError(f"unknown boundary mode {self.boundary!r}")
        if self.boundary == "guard":
            if not 0 <= self.guard_margin_m < min(self.width_m, self.height_m) / 2:
                raise InvalidParameterError(
                    "guard margin must lie in [0, min(width, height)/2)"
                )

    @property
    def area_m2(self) -> float:
        return self.width_m * self.height_m

    @property
    def area_km2(self) -> float:
        return self.area_m2 / M2_PER_KM2

    def probe_bounds(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) where probes may be placed."""
        if self.boundary == "guard":
            m = self.guard_margin_m
            return m, self.width_m - m, m, self.height_m - m
        return 0.0, self.width_m, 0.0, self.height_m

    def sample_probe(self, rng: np.random.Generator) -> tuple[float, float]:
        x0, x1, y0, y1 = self.probe_bounds()
        return float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1))

    def contains(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (xs >= 0) & (xs <= self.width_m) & (ys >= 0) & (ys <= self.height_m)


@dataclass(frozen=True)
class PoissonProcess:
    """Homogeneous PPP; density is supplied at sampling time."""

    kind: str = field(default="ppp", init=False)


@dataclass(frozen=True)
class ClusteredProcess:
    """Thomas cluster process: PPP parents, Gaussian-scattered offspring."""

    parent_density_per_km2: float
    mean_offspring: float
    spread_m: float
    kind: str = field(default="clustered", init=False)

    def __post_init__(self) -> None:
        _guard.positive(parent_density_per_km2=self.parent_density_per_km2,
                        mean_offspring=self.mean_offspring, spread_m=self.spread_m)

    @property
    def density_per_km2(self) -> float:
        return self.parent_density_per_km2 * self.mean_offspring


SpatialProcess = PoissonProcess | ClusteredProcess


@dataclass(frozen=True)
class Deployment:
    """A realisation of transmitter positions inside a region."""

    xs: np.ndarray
    ys: np.ndarray
    density_per_km2: float
    region: Region
    process: SpatialProcess
    seed: int | None = None

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise InvalidParameterError("xs and ys must be 1-D arrays of equal length")
        _guard.non_negative(density_per_km2=self.density_per_km2)
        if xs.size and not np.all(self.region.contains(xs, ys)):
            raise InvalidParameterError("deployment points must lie inside the region")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def count(self) -> int:
        return int(self.xs.size)


def _at_density(
    process: SpatialProcess, density_per_km2: float
) -> tuple[SpatialProcess, float]:
    """``process`` rescaled as :func:`sample_process` does, and the density it samples at.

    The target density is checked here, once per sweep, and not on every draw.
    """
    _guard.non_negative(density_per_km2=density_per_km2)
    if isinstance(process, PoissonProcess):
        return process, density_per_km2
    scale = density_per_km2 / process.density_per_km2
    spec = ClusteredProcess(
        parent_density_per_km2=process.parent_density_per_km2 * scale,
        mean_offspring=process.mean_offspring,
        spread_m=process.spread_m,
    )
    return spec, spec.density_per_km2


def _wrap(values: np.ndarray, period: float) -> None:
    """Replace ``values`` by ``np.mod(values, period)``, byte for byte, in place.

    ``period`` is positive and finite. ``np.mod`` is ``fmod`` plus the
    period where that is negative, with a zero result made +0.0; the
    last ``+= 0.0`` turns fmod's -0.0 into that +0.0. Spelt out, it
    avoids ``np.mod``'s slower per-element loop.
    """
    np.fmod(values, period, out=values)
    np.add(values, period, out=values, where=values < 0)
    values += 0.0


def _unit_ppp(
    rng: np.random.Generator, density_per_km2: float, region: Region
) -> tuple[np.ndarray, np.ndarray]:
    """A PPP's coordinates before scaling: the two halves of one ``rng.random(2 * n)`` call.

    ``n`` is the Poisson point count of the region at the density. The
    halves are views of one array, x first; :func:`_draw_points` scales
    them in place, and the crowd kernel scales a chunk of them at once.
    """
    n = int(rng.poisson(density_per_km2 * region.area_km2))
    unit = rng.random(2 * n)
    return unit[:n], unit[n:]


def _draw_points(
    rng: np.random.Generator, process: SpatialProcess, density_per_km2: float, region: Region
) -> tuple[np.ndarray, np.ndarray]:
    """Point draw of a process and density from :func:`_at_density`.

    ``rng`` is the deployment seed's substream labelled with the process's
    ``kind``. A PPP's coordinates are :func:`_unit_ppp`'s halves scaled by
    the width and the height: numpy's ``uniform(0.0, w, n)`` is
    ``0.0 + w * random``, so this is ``uniform(0.0, width, n)`` then
    ``uniform(0.0, height, n)`` bit for bit, and leaves the generator in the
    same state.
    """
    if isinstance(process, PoissonProcess):
        xs, ys = _unit_ppp(rng, density_per_km2, region)
        xs *= region.width_m
        ys *= region.height_m
        return xs, ys
    if region.boundary == "toroidal":
        pad = 0.0
    else:
        pad = 4.0 * process.spread_m
    w = region.width_m + 2 * pad
    h = region.height_m + 2 * pad
    lam_parent = process.parent_density_per_km2 / M2_PER_KM2
    n_parents = int(rng.poisson(lam_parent * w * h))
    pxs = rng.uniform(-pad, region.width_m + pad, n_parents)
    pys = rng.uniform(-pad, region.height_m + pad, n_parents)
    n_children = rng.poisson(process.mean_offspring, n_parents)
    total = int(n_children.sum())
    xs = np.repeat(pxs, n_children) + rng.normal(0.0, process.spread_m, total)
    ys = np.repeat(pys, n_children) + rng.normal(0.0, process.spread_m, total)
    if region.boundary == "toroidal":
        _wrap(xs, region.width_m)
        _wrap(ys, region.height_m)
    else:
        keep = region.contains(xs, ys)
        xs, ys = xs[keep], ys[keep]
    return xs, ys


def sample_ppp(density_per_km2: float, region: Region, seed: int) -> Deployment:
    """Sample a homogeneous PPP with the given density (nodes per km^2)."""
    return sample_process(PoissonProcess(), density_per_km2, region, seed)


def sample_clustered(spec: ClusteredProcess, region: Region, seed: int) -> Deployment:
    """Sample a Thomas cluster process.

    Under toroidal boundaries the offspring wrap around, which keeps the
    process stationary on the torus. Under a guard boundary the parents
    are drawn on an enlarged window (4 spreads of margin) and offspring
    falling outside the region are dropped, so interior statistics are
    unbiased by the border.
    """
    # rescaling to the process's own density returns an equal process
    return sample_process(spec, spec.density_per_km2, region, seed)


def sample_process(
    process: SpatialProcess, density_per_km2: float, region: Region, seed: int
) -> Deployment:
    """Sample whichever process is configured, rescaled to a target density.

    Clustered processes are rescaled through the parent density so the
    per-cluster structure (mean offspring, spread) is preserved.
    """
    process, density_per_km2 = _at_density(process, density_per_km2)
    xs, ys = _draw_points(substream(seed, process.kind), process, density_per_km2, region)
    return Deployment(xs, ys, density_per_km2, region, process, seed)


def nth_nearest_distance_cdf(
    r: float | np.ndarray, n: int, density_per_m2: float
) -> float | np.ndarray:
    """CDF of the distance to the n-th nearest point of a planar PPP of density L.

    It is the regularised Gamma P(n, x): the chance that a Poisson count of
    mean x = pi L r^2 reaches n, 1 - e^(-x) sum_{k<n} x^k / k!. The n = 1
    case is the Rayleigh law of scale 1/sqrt(2 pi L). Each sum starts from
    its largest term, exp(k log x - x - lgamma(k + 1)), so no term under-
    or overflows while it matters (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 1-2). From x = n on, the lower sum runs
    down from k = n - 1; below x = n, where 1 minus that sum cancels, the
    CDF is the upper sum e^(-x) sum_{k>=n} x^k / k!, run up from k = n.
    Each is summed until a term no longer moves it.
    """
    _guard.count(n=n)
    _guard.positive(density_per_m2=density_per_m2)
    x = math.pi * density_per_m2 * np.square(np.asarray(r, dtype=float))
    out = np.where(x == math.inf, 1.0, math.nan)
    for lower in (True, False):
        part = (n <= x) & (x < math.inf) if lower else x < n
        xs = x[part]
        top = n - 1 if lower else n
        with np.errstate(divide="ignore"):  # at x = 0 the upper sum starts from exp(-inf) = 0
            term = np.exp(top * np.log(xs) - xs - math.lgamma(top + 1))
        total = term.copy()
        for k in range(top, 0, -1) if lower else itertools.count(top + 1):
            term = term * k / xs if lower else term * xs / k
            total += term
            if not np.any(term > 1e-17 * total):
                break
        out[part] = 1.0 - total if lower else total
    if out.ndim == 0:
        return float(out)
    return out


def distances_to_probe(
    region: Region,
    probe: tuple[float, float],
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Distances from a probe point to all positions, honouring the boundary.

    With ``out`` nothing is allocated: the distances are written into
    ``out``, which must not share memory with ``xs`` or ``ys``, and ``xs``
    and ``ys`` are overwritten with the per-axis offsets. The values are
    the same either way.
    """
    if out is not None and (np.may_share_memory(out, xs) or np.may_share_memory(out, ys)):
        raise InvalidParameterError("out must not share memory with the coordinates")
    sx, sy = (None, None) if out is None else (xs, ys)
    dx = np.abs(np.subtract(xs, probe[0], out=sx), out=sx)
    dy = np.abs(np.subtract(ys, probe[1], out=sy), out=sy)
    if region.boundary == "toroidal":
        dx = np.minimum(dx, np.subtract(region.width_m, dx, out=out), out=sx)
        dy = np.minimum(dy, np.subtract(region.height_m, dy, out=out), out=sy)
    return np.hypot(dx, dy, out=out)


# ---------------------------------------------------------------------------
# Serialisation: point CSV (x_m,y_m) and a JSON document for full deployments.

CSV_HEADER = ["x_m", "y_m"]


def deployment_to_csv(deployment: Deployment) -> str:
    return write_csv(
        CSV_HEADER, ((f"{x:.6f}", f"{y:.6f}") for x, y in zip(deployment.xs, deployment.ys))
    )


def _points_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an ``x_m,y_m`` document into coordinate arrays, checking no region."""
    points = read_csv(text, CSV_HEADER, lambda row: (float(row[0]), float(row[1])))
    xs, ys = np.asarray(points, dtype=float).reshape(-1, 2).T.copy()
    return xs, ys


@dataclass(frozen=True)
class _DeploymentDoc:
    """The layout of :func:`deployment_to_json`."""

    region: Region
    process: SpatialProcess
    density_per_km2: float
    points: tuple[tuple[float, float], ...]
    seed: int | None = None


def deployment_to_json(deployment: Deployment) -> str:
    points = tuple((float(x), float(y)) for x, y in zip(deployment.xs, deployment.ys))
    return dumps(asdict(_DeploymentDoc(
        deployment.region, deployment.process, deployment.density_per_km2, points, deployment.seed
    )))


def deployment_from_json(text: str) -> Deployment:
    """Parse :func:`deployment_to_json`; a missing, unknown or malformed key raises."""
    doc = dataclass_from_dict(_DeploymentDoc, loads(text))
    pts = np.asarray(doc.points, dtype=float).reshape(-1, 2)
    return Deployment(
        pts[:, 0].copy(), pts[:, 1].copy(), doc.density_per_km2, doc.region, doc.process, doc.seed
    )
