"""Geographic coordinates, footprints, and the Equal Earth projection.

Footprints are axis-aligned lon/lat rectangles (north-up imagery); the
patch grid of a feature map is geo-referenced through normalized local
coordinates in [-1, 1]^2, with u increasing eastward and v northward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeoPoint",
    "GeoFootprint",
    "LocalCoord",
    "OutOfFootprintError",
    "to_local",
    "from_local",
    "patch_center",
    "equal_earth",
    "equal_earth_rescaled",
    "EQUAL_EARTH_X_MAX",
    "EQUAL_EARTH_Y_MAX",
]

TWO_PI = 2.0 * math.pi

# Equal Earth polynomial coefficients (standard published values).
_A1 = 1.340264
_A2 = -0.081106
_A3 = 0.000893
_A4 = 0.003796
_SQRT3_2 = math.sqrt(3.0) / 2.0


class OutOfFootprintError(ValueError):
    pass


@dataclass(frozen=True)
class GeoPoint:
    """Longitude/latitude in radians; longitude canonicalized into [-pi, pi)."""

    lon: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise ValueError("non-finite coordinate")
        if not -math.pi <= self.lon < math.pi:  # wrap only when needed, keeping in-range values exact
            object.__setattr__(self, "lon", (self.lon + math.pi) % TWO_PI - math.pi)
        if not -math.pi / 2 <= self.lat <= math.pi / 2:
            raise ValueError(f"latitude out of range: {self.lat}")


@dataclass(frozen=True)
class GeoFootprint:
    """Axis-aligned geographic rectangle; antimeridian crossing rejected."""

    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float

    def __post_init__(self):
        vals = (self.lon_min, self.lon_max, self.lat_min, self.lat_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("non-finite footprint bound")
        if not self.lon_min < self.lon_max:
            raise ValueError("footprint requires lon_min < lon_max")
        if not self.lat_min < self.lat_max:
            raise ValueError("footprint requires lat_min < lat_max")
        if self.lon_min < -math.pi or self.lon_max > math.pi:
            raise ValueError("footprint crosses the antimeridian")

    def contains(self, p: GeoPoint) -> bool:
        return self.lon_min <= p.lon <= self.lon_max and self.lat_min <= p.lat <= self.lat_max


@dataclass(frozen=True)
class LocalCoord:
    """Dimensionless footprint-local coordinate; in-footprint means |u|,|v| <= 1."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("non-finite local coordinate")


def to_local(fp: GeoFootprint, p: GeoPoint) -> LocalCoord:
    """Affine map of an in-footprint point into [-1, 1]^2 (boundary inclusive)."""
    if not fp.contains(p):
        raise OutOfFootprintError(f"point (lon={p.lon}, lat={p.lat}) outside footprint {fp}")
    u = 2.0 * (p.lon - fp.lon_min) / (fp.lon_max - fp.lon_min) - 1.0
    v = 2.0 * (p.lat - fp.lat_min) / (fp.lat_max - fp.lat_min) - 1.0
    return LocalCoord(u, v)


def from_local(fp: GeoFootprint, c: LocalCoord) -> GeoPoint:
    """Inverse of to_local."""
    lon = fp.lon_min + (c.u + 1.0) / 2.0 * (fp.lon_max - fp.lon_min)
    lat = fp.lat_min + (c.v + 1.0) / 2.0 * (fp.lat_max - fp.lat_min)
    return GeoPoint(lon, lat)


def patch_center(P: int, a: int, b: int) -> LocalCoord:
    """Center of grid cell (a, b) in local coordinates; row 0 is northernmost."""
    if not (0 <= a < P and 0 <= b < P):
        raise IndexError(f"patch index ({a}, {b}) out of range for grid size {P}")
    u = -1.0 + (2 * b + 1) / P
    v = 1.0 - (2 * a + 1) / P
    return LocalCoord(u, v)


def _equal_earth_xy(lon, lat):
    """Equal Earth (x, y) of radian lon/lat floats or arrays, lon in [-pi, pi)."""
    theta = np.arcsin(_SQRT3_2 * np.sin(lat))
    t2 = theta * theta
    t6 = t2 * t2 * t2
    y = theta * (_A1 + _A2 * t2 + _A3 * t6 + _A4 * t6 * t2)
    dy = _A1 + 3 * _A2 * t2 + 7 * _A3 * t6 + 9 * _A4 * t6 * t2
    x = (2.0 * math.sqrt(3.0) / 3.0) * lon * np.cos(theta) / dy
    return x, y


def equal_earth(p: GeoPoint) -> tuple:
    """Forward Equal Earth projection (x, y)."""
    x, y = _equal_earth_xy(p.lon, p.lat)
    return float(x), float(y)


def _projection_extrema() -> tuple:
    # x is maximal on the equator at lon = pi; y at the pole.
    x_max, _ = equal_earth(GeoPoint(math.pi * (1 - 1e-15), 0.0))
    _, y_max = equal_earth(GeoPoint(0.0, math.pi / 2))
    return x_max, y_max


EQUAL_EARTH_X_MAX, EQUAL_EARTH_Y_MAX = _projection_extrema()


def equal_earth_rescaled(p: GeoPoint) -> tuple:
    """Equal Earth projection rescaled into [-1, 1]^2 by the global extrema."""
    x, y = equal_earth(p)
    return x / EQUAL_EARTH_X_MAX, y / EQUAL_EARTH_Y_MAX


def equal_earth_rescaled_batch(lonlat: np.ndarray) -> np.ndarray:
    """Vectorized equal_earth_rescaled over an (n, 2) lon/lat array."""
    lon = lonlat[:, 0]
    outside = (lon < -math.pi) | (lon >= math.pi)
    if np.any(outside):
        lon = np.where(outside, (lon + math.pi) % TWO_PI - math.pi, lon)
    x, y = _equal_earth_xy(lon, lonlat[:, 1])
    return np.stack([x / EQUAL_EARTH_X_MAX, y / EQUAL_EARTH_Y_MAX], axis=1)
