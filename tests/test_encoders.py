import hashlib
import math
import os
import sys
import threading

import numpy as np
import pytest

from gair.encoders import (
    EncoderConfig,
    ImageEncoder,
    LocationEncoder,
    LocEncoderConfig,
    rff_features,
)
from gair.evalkit import heatmap_loc
from gair.geo import GeoPoint, equal_earth_rescaled_batch
from gair.tensor import grad_check

SMALL = dict(channels=1, image_size=8, patch_size=4, dim=8, depth=1, heads=2, ff_width=8)


def small_encoder(seed=0, dtype=np.float64, **overrides):
    cfg = EncoderConfig(**{**SMALL, **overrides})
    return ImageEncoder(cfg, np.random.default_rng(seed), prefix="enc", dtype=dtype)


class TestConfig:
    def test_indivisible_patch_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(image_size=30, patch_size=4)

    @pytest.mark.parametrize("kw", [{"dim": 0}, {"dim": -4}, {"channels": 0}, {"patch_size": 0}, {"heads": 0},
                                    {"depth": 0}, {"ff_width": 0}, {"image_size": 0}])
    def test_nonpositive_size_rejected(self, kw):
        with pytest.raises(ValueError, match="must be positive"):
            EncoderConfig(**kw)

    @pytest.mark.parametrize("kw", [{"freqs": 0}, {"hidden": 0}, {"dim": 0}, {"sigma": 0.0}, {"sigma": -1.0}])
    def test_nonpositive_location_config_rejected(self, kw):
        with pytest.raises(ValueError, match="must be positive"):
            LocEncoderConfig(**kw)

    def test_grid_and_tokens(self):
        cfg = EncoderConfig(image_size=32, patch_size=4)
        assert cfg.grid == 8 and cfg.tokens == 64


class TestPatchify:
    def test_raster_order(self):
        enc = small_encoder()
        img = np.arange(64, dtype=np.float64).reshape(1, 1, 8, 8)
        patches = enc.patchify(img)
        assert patches.shape == (1, 4, 16)
        # token 0 is the northwest patch, pixels in row-major order
        assert np.array_equal(patches[0, 0], img[0, 0, :4, :4].reshape(-1))
        # token 1 is the patch one step east
        assert np.array_equal(patches[0, 1], img[0, 0, :4, 4:].reshape(-1))
        # token 2 starts the second patch row
        assert np.array_equal(patches[0, 2], img[0, 0, 4:, :4].reshape(-1))

    def test_channel_major_features(self):
        enc = small_encoder(channels=2, image_size=4, patch_size=4, dim=8)
        img = np.random.default_rng(0).normal(size=(1, 2, 4, 4))
        patches = enc.patchify(img)
        assert np.array_equal(patches[0, 0, :16], img[0, 0].reshape(-1))
        assert np.array_equal(patches[0, 0, 16:], img[0, 1].reshape(-1))

    def test_wrong_shape_rejected(self):
        enc = small_encoder()
        with pytest.raises(ValueError):
            enc.patchify(np.zeros((1, 3, 8, 8)))


class TestImageEncoder:
    @pytest.mark.parametrize("H,ps", [(16, 4), (32, 4), (16, 8), (64, 8)])
    def test_shape_contract(self, H, ps):
        enc = small_encoder(image_size=H, patch_size=ps, dtype=np.float32)
        imgs = np.random.default_rng(1).normal(size=(3, 1, H, H)).astype(np.float32)
        g = H // ps
        fm = enc.encode_feature_maps(imgs)
        assert fm.values.shape == (3, g, g, 8)
        pooled = enc.encode_pooled(imgs)
        assert pooled.values.shape == (3, 8)

    def test_pooled_rows_unit_norm(self):
        enc = small_encoder(seed=4)
        imgs = np.random.default_rng(2).normal(size=(5, 1, 8, 8))
        pooled = enc.encode_pooled(imgs).values
        assert np.allclose(np.linalg.norm(pooled, axis=1), 1.0, atol=1e-10)

    def test_bias_only_feature_maps(self):
        # with every weight zeroed the projection bias is broadcast to all cells
        enc = small_encoder()
        for name, t in enc.params.items():
            t.values = np.zeros_like(t.values)
        bias = np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.0, -1.0, 2.0])
        enc.params["enc.proj.bias"].values = bias.copy()
        fm = enc.encode_feature_maps(np.random.default_rng(3).normal(size=(2, 1, 8, 8)))
        assert np.allclose(fm.values, np.broadcast_to(bias, (2, 2, 2, 8)), atol=1e-12)

    def test_determinism(self):
        enc = small_encoder(seed=6)
        imgs = np.random.default_rng(4).normal(size=(2, 1, 8, 8))
        a = enc.encode_feature_maps(imgs).values
        b = enc.encode_feature_maps(imgs).values
        assert np.array_equal(a, b)

    def test_rotation_equivariance_with_permuted_params(self):
        """A 180-degree image rotation, mirrored by permuting the positional
        embedding and the patch-embedding pixel rows, flips the feature grid."""
        enc1 = small_encoder(seed=7)
        enc2 = small_encoder(seed=7)
        c = enc1.config
        ps = c.patch_size
        # within-patch pixel rotation as a permutation of patch-feature indices
        pix = np.arange(c.channels * ps * ps).reshape(c.channels, ps, ps)
        perm = pix[:, ::-1, ::-1].reshape(-1)
        enc2.params["enc.patch.weight"].values = enc1.params["enc.patch.weight"].values[perm]
        enc2.params["enc.pos"].values = enc1.params["enc.pos"].values[::-1].copy()

        imgs = np.random.default_rng(5).normal(size=(2, 1, 8, 8))
        fm1 = enc1.encode_feature_maps(imgs).values
        fm2 = enc2.encode_feature_maps(imgs[:, :, ::-1, ::-1].copy()).values
        assert np.allclose(fm2, fm1[:, ::-1, ::-1], atol=1e-10)

    def test_gradients_through_pooled_embedding(self):
        enc = small_encoder(seed=8)
        imgs = np.random.default_rng(6).normal(size=(2, 1, 8, 8))
        names = sorted(enc.params)
        tensors = [enc.params[n] for n in names]

        def loss(*_):
            return enc.encode_pooled(imgs).sum()

        report = grad_check(loss, tensors, tolerance=1e-4, op_name="encode_pooled")
        assert report.passed, report.max_relative_error


class TestRFF:
    def test_zero_matrix_gives_constant_features(self):
        B = np.zeros((5, 2))
        out = rff_features(B, np.array([[0.3, 0.1], [-1.0, 0.7]]))
        assert np.array_equal(out, np.tile([1.0] * 5 + [0.0] * 5, (2, 1)))

    def test_feature_range_and_shape(self):
        rng = np.random.default_rng(0)
        B = rng.normal(0, 10, (16, 2))
        out = rff_features(B, rng.uniform(-1, 1, size=(100, 2)))
        assert out.shape == (100, 32)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_longitude_wrap_invariance(self):
        rng = np.random.default_rng(1)
        B = rng.normal(0, 3, (8, 2))
        pts = rng.uniform(-2, 2, size=(20, 2)) * [1.0, 0.7]
        wrapped = pts + [2 * math.pi, 0.0]
        assert np.allclose(rff_features(B, pts), rff_features(B, wrapped), atol=1e-9)

    def test_single_point_accepted(self):
        out = rff_features(np.ones((2, 2)), np.array([0.1, 0.2]))
        assert out.shape == (1, 4)

    @staticmethod
    def reference(B, lonlat, dtype):
        """The float64 formula over the whole batch, rounded once to dtype."""
        q = equal_earth_rescaled_batch(np.atleast_2d(lonlat))
        phase = 2.0 * math.pi * q @ B.T
        return np.concatenate([np.cos(phase), np.sin(phase)], axis=1).astype(dtype)

    @staticmethod
    def points(n, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([rng.uniform(-3.2, 3.2, n), rng.uniform(-1.5, 1.5, n)], axis=1)

    # 257 and 513 end in a one-row remainder after whole blocks of 256.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513, 10_000])
    def test_equals_reference_bit_for_bit(self, n, dtype):
        B = LocationEncoder(LocEncoderConfig(), np.random.default_rng(3)).B
        lonlat = self.points(n)
        out = rff_features(B, lonlat, dtype)
        expected = self.reference(B, lonlat, dtype)
        assert out.dtype == dtype and out.shape == expected.shape == (n, 512)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_independent_of_usable_cores(self, monkeypatch, cpus):
        # Four blocks; three cores give three threads, interleaved as often
        # as the interpreter allows.
        B = LocationEncoder(LocEncoderConfig(), np.random.default_rng(4)).B
        lonlat = self.points(4 * 256 - 5, seed=1)
        expected = rff_features(B, lonlat, np.float32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = rff_features(B, lonlat, np.float32)
        finally:
            sys.setswitchinterval(interval)
        assert out.tobytes() == expected.tobytes()

    def test_encode_leaves_no_thread_running(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        loc = LocationEncoder(LocEncoderConfig(), np.random.default_rng(5))
        before = threading.active_count()
        loc.encode(self.points(10_000))
        assert threading.active_count() == before

    def test_heatmap_loc_digest(self):
        # sha256 of the float32 values, recorded before the features were
        # computed in blocks on threads.
        loc = LocationEncoder(LocEncoderConfig(), np.random.default_rng(11))
        sv = loc.encode(np.array([[0.3002, 0.5997]])).values[0]
        grid = heatmap_loc(sv, loc, GeoPoint(0.3, 0.6), 1e-5, 100, 100)
        assert grid.values.dtype == np.float32 and grid.argmax_cell() == (79, 70)
        assert hashlib.sha256(grid.values.tobytes()).hexdigest() == (
            "73ffb26850c35d79d60acd9b5e10436bb5b29e056cd19b5ad6d51bcde922d6a3")

    @pytest.mark.parametrize("lonlat", [[[0.1, 0.5, 99.0]], [0.1, 0.5, 0.2], [[[0.1, 0.5]]], [], 0.1],
                             ids=["three-columns", "three-values", "3-d", "empty", "scalar"])
    def test_malformed_shape_raises(self, lonlat):
        with pytest.raises(ValueError, match="shaped"):
            rff_features(np.ones((2, 2)), lonlat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_location_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            rff_features(np.ones((2, 2)), [[0.1, 0.5], [0.2, bad]])


class TestLocationEncoder:
    def cfg(self):
        return LocEncoderConfig(freqs=8, sigma=2.0, hidden=16, dim=8)

    def test_unit_norm_output(self):
        enc = LocationEncoder(self.cfg(), np.random.default_rng(0), dtype=np.float64)
        out = enc.encode(np.random.default_rng(1).uniform(-1, 1, size=(10, 2))).values
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-10)

    def test_fourier_matrix_is_frozen(self):
        enc = LocationEncoder(self.cfg(), np.random.default_rng(0))
        assert not any("B" == n.split(".")[-1] for n in enc.params)
        assert set(enc.params) == {"loc.mlp.w1", "loc.mlp.b1", "loc.mlp.w2", "loc.mlp.b2"}

    def test_same_seed_same_matrix(self):
        a = LocationEncoder(self.cfg(), np.random.default_rng(5))
        b = LocationEncoder(self.cfg(), np.random.default_rng(5))
        assert np.array_equal(a.B, b.B)

    def test_gradients(self):
        enc = LocationEncoder(self.cfg(), np.random.default_rng(3), dtype=np.float64)
        lonlat = np.random.default_rng(4).uniform(-1, 1, size=(3, 2))
        tensors = [enc.params[n] for n in sorted(enc.params)]

        def loss(*_):
            return enc.encode(lonlat).sum()

        assert grad_check(loss, tensors, tolerance=1e-4).passed

    def test_multiscale_rows_are_geometric_between_the_bounds(self):
        cfg = LocEncoderConfig(freqs=64, sigma=1000.0, sigma_min=100.0, hidden=16, dim=8)
        enc = LocationEncoder(cfg, np.random.default_rng(6))
        draws = np.random.default_rng(6).normal(0.0, 1.0, (cfg.freqs, 2))  # B's unit-scale draws
        scales = enc.B / draws
        assert np.allclose(scales[:, 0], scales[:, 1], rtol=1e-12)
        row_scale = scales[:, 0]
        assert math.isclose(row_scale[0], 100.0, rel_tol=1e-12) and math.isclose(row_scale[-1], 1000.0, rel_tol=1e-12)
        ratios = row_scale[1:] / row_scale[:-1]
        assert np.allclose(ratios, 10.0 ** (1.0 / (cfg.freqs - 1)), rtol=1e-12)

    def test_single_scale_when_sigma_min_is_unset(self):
        cfg = LocEncoderConfig(freqs=16, sigma=1000.0, hidden=16, dim=8)
        enc = LocationEncoder(cfg, np.random.default_rng(6))
        assert np.allclose(enc.B, 1000.0 * np.random.default_rng(6).normal(0.0, 1.0, (cfg.freqs, 2)), rtol=1e-12)
