import math

import numpy as np
import pytest

from gair.geo import (
    EQUAL_EARTH_X_MAX,
    EQUAL_EARTH_Y_MAX,
    GeoFootprint,
    GeoPoint,
    OutOfFootprintError,
    equal_earth,
    equal_earth_rescaled,
    equal_earth_rescaled_batch,
    from_local,
    patch_center,
    to_local,
)


class TestGeoPoint:
    def test_longitude_canonicalized(self):
        p = GeoPoint(math.pi + 0.5, 0.1)
        assert -math.pi <= p.lon < math.pi
        assert abs(p.lon - (0.5 - math.pi)) < 1e-12

    def test_wraparound_identity(self):
        a = GeoPoint(0.3, 0.2)
        b = GeoPoint(0.3 + 2 * math.pi, 0.2)
        assert abs(a.lon - b.lon) < 1e-12

    def test_latitude_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)


class TestGeoFootprint:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            GeoFootprint(0.1, 0.1, 0.0, 0.1)

    def test_antimeridian_crossing_rejected(self):
        with pytest.raises(ValueError, match="antimeridian"):
            GeoFootprint(3.0, 3.5, 0.0, 0.1)


class TestToLocal:
    def fp(self):
        return GeoFootprint(0.0, 0.02, 0.0, 0.02)

    def test_center(self):
        c = to_local(self.fp(), GeoPoint(0.01, 0.01))
        assert abs(c.u) < 1e-15 and abs(c.v) < 1e-15

    def test_sw_corner(self):
        c = to_local(self.fp(), GeoPoint(0.0, 0.0))
        assert c.u == -1.0 and c.v == -1.0

    def test_affine_point(self):
        c = to_local(self.fp(), GeoPoint(0.015, 0.005))
        assert abs(c.u - 0.5) < 1e-12 and abs(c.v + 0.5) < 1e-12

    def test_outside_raises_with_coordinate(self):
        with pytest.raises(OutOfFootprintError, match="0.03"):
            to_local(self.fp(), GeoPoint(0.03, 0.01))

    def test_roundtrip_random_points(self):
        rng = np.random.default_rng(0)
        fp = GeoFootprint(0.1, 0.35, -0.2, 0.05)
        for _ in range(10_000):
            p = GeoPoint(rng.uniform(0.1, 0.35), rng.uniform(-0.2, 0.05))
            q = from_local(fp, to_local(fp, p))
            assert abs(q.lon - p.lon) < 1e-12 and abs(q.lat - p.lat) < 1e-12


class TestPatchCenter:
    def test_quadrant_center(self):
        c = patch_center(2, 0, 0)
        assert (c.u, c.v) == (-0.5, 0.5)

    def test_single_cell(self):
        c = patch_center(1, 0, 0)
        assert (c.u, c.v) == (0.0, 0.0)

    def test_direct_formula(self):
        c = patch_center(4, 3, 1)
        assert abs(c.u + 0.25) < 1e-15 and abs(c.v + 0.75) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            patch_center(4, 4, 0)

    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_centers_equispaced_and_interior(self, P):
        us = [patch_center(P, 0, b).u for b in range(P)]
        vs = [patch_center(P, a, 0).v for a in range(P)]
        for seq in (us, vs[::-1]):
            assert all(-1 < x < 1 for x in seq)
            diffs = np.diff(seq)
            assert np.allclose(diffs, 2.0 / P, atol=1e-15)


class TestEqualEarth:
    def test_origin_fixed_point(self):
        assert equal_earth(GeoPoint(0.0, 0.0)) == (0.0, 0.0)

    def test_equator_maps_to_axis(self):
        for lon in (-2.0, -0.5, 1.0, 3.0):
            _, y = equal_earth(GeoPoint(lon, 0.0))
            assert y == 0.0

    def test_reference_value(self):
        x, y = equal_earth(GeoPoint(math.pi / 2, 0.0))
        expected = (2 * math.sqrt(3) / 3) * (math.pi / 2) / 1.340264
        assert abs(x - expected) < 1e-12
        assert abs(x - 1.3533) < 1e-4
        assert y == 0.0

    def test_odd_symmetries(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lon = rng.uniform(-3, 3)
            lat = rng.uniform(-1.5, 1.5)
            x1, y1 = equal_earth(GeoPoint(lon, lat))
            x2, _ = equal_earth(GeoPoint(-lon, lat))
            _, y3 = equal_earth(GeoPoint(lon, -lat))
            assert abs(x1 + x2) < 1e-12
            assert abs(y1 + y3) < 1e-12

    def test_injective_on_grid(self):
        lons = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 40)
        lats = np.linspace(-math.pi / 2, math.pi / 2, 20)
        pts = np.array([equal_earth(GeoPoint(lo, la)) for lo in lons for la in lats])
        # nearest-pair separation must be strictly positive
        from scipy.spatial import cKDTree

        d, _ = cKDTree(pts).query(pts, k=2)
        assert d[:, 1].min() > 1e-6

    def test_rescaled_batch_matches_reference_values(self):
        """The vectorized path the location encoder runs, against the
        published values: x = (2 sqrt(3) / 3) lon / A1 on the equator (1.3533
        at lon = pi / 2), extrema 2.7066 and 1.3173 (aspect 2.05:1), and a
        longitude outside [-pi, pi) wrapped first."""
        pts = np.array([[math.pi / 2, 0.0], [0.0, math.pi / 2], [-math.pi, 0.0], [0.0, -math.pi / 2],
                        [3 * math.pi / 2, 0.0], [0.0, 0.0]])
        q = equal_earth_rescaled_batch(pts)
        x = q[:, 0] * EQUAL_EARTH_X_MAX
        assert abs(x[0] - (2 * math.sqrt(3) / 3) * (math.pi / 2) / 1.340264) < 1e-12 and abs(x[0] - 1.3533) < 1e-4
        assert np.allclose(q, [[0.5, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-0.5, 0.0], [0.0, 0.0]], rtol=0, atol=1e-12)
        assert abs(EQUAL_EARTH_X_MAX / EQUAL_EARTH_Y_MAX - 2.05) < 5e-3
        rng = np.random.default_rng(2)
        lonlat = np.stack([rng.uniform(-math.pi, math.pi, 200), rng.uniform(-math.pi / 2, math.pi / 2, 200)], axis=1)
        scalar = np.array([equal_earth_rescaled(GeoPoint(lon, lat)) for lon, lat in lonlat])
        assert np.allclose(equal_earth_rescaled_batch(lonlat), scalar, rtol=0, atol=1e-15)

    def test_rescale_extrema(self):
        assert abs(EQUAL_EARTH_X_MAX - 2.7066) < 1e-3
        assert abs(EQUAL_EARTH_Y_MAX - 1.3173) < 1e-3
        x, y = equal_earth_rescaled(GeoPoint(0.0, math.pi / 2))
        assert abs(y - 1.0) < 1e-12 and abs(x) < 1e-12
