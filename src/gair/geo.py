"""Geographic coordinates, footprints, and the Equal Earth projection.

Footprints are axis-aligned lon/lat rectangles (north-up imagery); the
patch grid of a feature map is geo-referenced through normalized local
coordinates in [-1, 1]^2, with u increasing eastward and v northward.

This module owns the footprint geometry every other module uses: the
containment test (`inside`), the map into local coordinates (`local_uv`)
and back (`local_lonlat`), the footprint centre, the patch-cell centres and
the patch-centre hull that interpolation clamps to. Each is one expression
over floats or numpy arrays, so a scalar and a batched caller compute the
same bits; `to_local` and `GeoFootprint.contains` are their scalar forms.
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
    "inside",
    "local_uv",
    "local_lonlat",
    "footprint_center",
    "cell_centers",
    "interpolation_hull",
    "equal_earth",
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
        if self.lat_min < -math.pi / 2 or self.lat_max > math.pi / 2:
            raise ValueError("footprint extends past a pole")

    @property
    def bounds(self) -> tuple:
        """(lon_min, lon_max, lat_min, lat_max), the order records store."""
        return self.lon_min, self.lon_max, self.lat_min, self.lat_max

    def contains(self, p: GeoPoint) -> bool:
        return bool(inside(p.lon, p.lat, *self.bounds))


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
    return LocalCoord(*local_uv(p.lon, p.lat, *fp.bounds))


# The footprint facts below take a footprint as its four bounds in record
# order, `*fp.bounds` for one GeoFootprint or `*table.T` for an (n, 4) array
# of them; points and bounds are floats or arrays and broadcast elementwise.


def inside(lon, lat, lon_min, lon_max, lat_min, lat_max):
    """Whether (lon, lat) lies in the footprint, boundary included; False for NaN."""
    return (lon_min <= lon) & (lon <= lon_max) & (lat_min <= lat) & (lat <= lat_max)


def local_uv(lon, lat, lon_min, lon_max, lat_min, lat_max) -> tuple:
    """(u, v): the affine map of the footprint onto [-1, 1]^2. Unchecked;
    a point outside the footprint maps outside the square."""
    return 2.0 * (lon - lon_min) / (lon_max - lon_min) - 1.0, 2.0 * (lat - lat_min) / (lat_max - lat_min) - 1.0


def local_lonlat(u, v, lon_min, lon_max, lat_min, lat_max) -> tuple:
    """(lon, lat) of local coordinates (u, v): the inverse of `local_uv`."""
    return lon_min + (u + 1.0) / 2.0 * (lon_max - lon_min), lat_min + (v + 1.0) / 2.0 * (lat_max - lat_min)


def footprint_center(lon_min, lon_max, lat_min, lat_max) -> tuple:
    """(lon, lat) of the footprint's centre."""
    return (lon_min + lon_max) / 2, (lat_min + lat_max) / 2


def cell_centers(P: int, rows, cols) -> tuple:
    """Local (u, v) of the centres of cells (rows, cols) of a P x P patch
    grid; row 0 is northernmost, column 0 westernmost. Indices are not
    checked."""
    return -1.0 + (2 * cols + 1) / P, 1.0 - (2 * rows + 1) / P


def interpolation_hull(P: int) -> float:
    """Half-width of the hull of a P x P grid's patch centres in local
    coordinates: the outermost centres sit at +-(1 - 1/P)."""
    return 1.0 - 1.0 / P


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


def equal_earth_rescaled_batch(lonlat: np.ndarray) -> np.ndarray:
    """Equal Earth projection of an (n, 2) lon/lat array, rescaled into
    [-1, 1]^2 by the global extrema EQUAL_EARTH_X_MAX and EQUAL_EARTH_Y_MAX."""
    lon = lonlat[:, 0]
    outside = (lon < -math.pi) | (lon >= math.pi)
    if np.any(outside):
        lon = np.where(outside, (lon + math.pi) % TWO_PI - math.pi, lon)
    x, y = _equal_earth_xy(lon, lonlat[:, 1])
    return np.stack([x / EQUAL_EARTH_X_MAX, y / EQUAL_EARTH_Y_MAX], axis=1)
