"""Link loss and received power under urban pathloss models.

Two model families cover the study scenarios:

* free-space single slope (exponent 2) anchored to the Friis loss at a
  1 m reference distance, used for line-of-sight upper bounds;
* a WINNER-style urban single slope ``loss = A log10(d) + B + C log10(f/5 GHz)``
  (A=43 gives exponent 4.3, urban non-line-of-sight).

The WINNER family is specified for 2-6 GHz carriers; applying it
outside that range (TV broadcast) is an extrapolation and is flagged so
reports can note it. Lognormal shadowing is expressed in dB and drawn
independently per link per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _guard
from .errors import DistanceOutOfRangeError, InvalidParameterError

__all__ = [
    "SPEED_OF_LIGHT",
    "WINNER_RANGE_HZ",
    "PathlossModel",
    "ShadowingSpec",
    "friis_reference_loss_db",
    "free_space_model",
    "winner_urban_nlos_model",
    "pathloss_db",
    "received_power",
    "draw_shadowing_db",
    "winner_extrapolated",
]

SPEED_OF_LIGHT = 299_792_458.0
WINNER_RANGE_HZ = (2e9, 6e9)


@dataclass(frozen=True)
class PathlossModel:
    """Single-slope distance-loss law anchored at a reference distance."""

    exponent: float
    reference_distance_m: float
    reference_loss_db: float
    carrier_frequency_hz: float

    def __post_init__(self) -> None:
        _guard.positive(reference_distance_m=self.reference_distance_m,
                        carrier_frequency_hz=self.carrier_frequency_hz)
        if not 2 <= self.exponent < math.inf:
            raise InvalidParameterError(f"exponent must be at least 2, got {self.exponent!r}")
        if not math.isfinite(self.reference_loss_db):
            raise InvalidParameterError(f"reference loss {self.reference_loss_db} dB is not finite")


@dataclass(frozen=True)
class ShadowingSpec:
    """Lognormal shadowing expressed as a dB standard deviation."""

    sigma_db: float = 0.0
    enabled: bool = True

    def __post_init__(self) -> None:
        _guard.non_negative(sigma_db=self.sigma_db)

    @property
    def active(self) -> bool:
        """True when draws are random: enabled with a non-zero sigma."""
        return self.enabled and self.sigma_db != 0.0


def friis_reference_loss_db(frequency_hz: float, distance_m: float = 1.0) -> float:
    """Free-space loss at a reference distance, 20 log10(4 pi d f / c)."""
    _guard.positive(frequency_hz=frequency_hz, distance_m=distance_m)
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


def free_space_model(frequency_hz: float, reference_distance_m: float = 1.0) -> PathlossModel:
    """Exponent-2 single slope anchored to the Friis loss at the reference."""
    return PathlossModel(
        exponent=2.0,
        reference_distance_m=reference_distance_m,
        reference_loss_db=friis_reference_loss_db(frequency_hz, reference_distance_m),
        carrier_frequency_hz=frequency_hz,
    )


def winner_urban_nlos_model(
    frequency_hz: float,
    slope_db_per_decade: float = 43.0,
    intercept_db: float = 25.0,
    frequency_coeff_db: float = 20.0,
    reference_distance_m: float = 1.0,
) -> PathlossModel:
    """Urban NLoS single slope, A log10(d) + B + C log10(f / 5 GHz).

    Defaults A=43, B=25, C=20 give exponent 4.3. Valid for 2-6 GHz
    carriers; outside that band the same form is applied with the
    frequency correction and callers should flag the extrapolation.
    """
    _guard.positive(frequency_hz=frequency_hz, reference_distance_m=reference_distance_m)
    ref_loss = (
        intercept_db
        + frequency_coeff_db * math.log10(frequency_hz / 5e9)
        + slope_db_per_decade * math.log10(reference_distance_m)
    )
    return PathlossModel(
        exponent=slope_db_per_decade / 10.0,
        reference_distance_m=reference_distance_m,
        reference_loss_db=ref_loss,
        carrier_frequency_hz=frequency_hz,
    )


def winner_extrapolated(model: PathlossModel) -> bool:
    """True when the carrier lies outside the WINNER 2-6 GHz validity band."""
    lo, hi = WINNER_RANGE_HZ
    return not (lo <= model.carrier_frequency_hz <= hi)


def pathloss_db(
    model: PathlossModel, d_m: float | np.ndarray, *, out: np.ndarray | None = None
) -> float | np.ndarray:
    """Loss in dB at distance ``d_m``; continuous and non-decreasing in d.

    With ``out`` the loss is written into ``out`` and nothing of the size of
    ``d_m`` is allocated; ``out`` may be ``d_m`` itself.
    """
    d = np.asarray(d_m, dtype=float)
    if not np.all(d >= model.reference_distance_m):  # NaN fails too
        raise DistanceOutOfRangeError(
            f"distance must be at least the reference distance {model.reference_distance_m} m"
        )
    if out is None:
        out = np.empty_like(d)
    # out = ref_loss + 10 exponent log10(d / ref), one element-wise step at a time
    np.divide(d, model.reference_distance_m, out=out)
    np.log10(out, out=out)
    np.multiply(10.0 * model.exponent, out, out=out)
    np.add(model.reference_loss_db, out, out=out)
    return float(out) if out.ndim == 0 else out


def received_power(
    p_tx_w: float,
    model: PathlossModel,
    d_m: float | np.ndarray,
    shadowing_db: float | np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
) -> float | np.ndarray:
    """Received power (W) over links of length ``d_m``: P_tx * 10^(-(loss + shadowing)/10).

    ``shadowing_db`` adds one draw per link. This is the one definition of
    link power; the crowd-harvest kernel calls it on floored distances.
    With ``out`` the power is written into ``out`` and nothing of the size
    of ``d_m`` is allocated; ``out`` may be ``d_m`` itself.
    """
    _guard.non_negative(p_tx_w=p_tx_w)
    loss_db = pathloss_db(model, d_m, out=out)
    if shadowing_db is not None:
        loss_db = np.add(loss_db, shadowing_db, out=out)
    exponent = np.divide(np.negative(loss_db, out=out), 10.0, out=out)
    return np.multiply(p_tx_w, np.power(10.0, exponent, out=out), out=out)


def draw_shadowing_db(
    spec: ShadowingSpec | None,
    size: int,
    rng: np.random.Generator,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link shadowing draws in dB; zeros when disabled or unspecified.

    The draws are standard normals scaled by sigma in place. That equals
    ``rng.normal(0.0, sigma, size)`` value for value (numpy adds the 0.0
    mean, which can only turn a -0.0 draw into 0.0) and leaves the
    generator in the same state. With ``out`` (float64, ``size`` elements)
    they are written into ``out`` and nothing is allocated.
    """
    if out is None:
        out = np.empty(size)
    if spec is None or not spec.active:
        out.fill(0.0)
        return out
    rng.standard_normal(size, out=out)
    out *= spec.sigma_db
    return out
