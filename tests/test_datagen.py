import dataclasses
import hashlib
import json
import math
import os
import struct
import sys

import numpy as np
import pytest

from gair import datagen
from gair.datagen import (
    _BLOCK,
    BLOB_MAGIC,
    DataConfig,
    _record_dtype,
    _sv_bases,
    build_world,
    field_gradient,
    gen_triple,
    generate_records,
    make_batch,
    read_dataset,
    sample_field,
    write_dataset,
)
from gair.errors import FormatError
from gair.geo import GeoPoint, OutOfFootprintError, to_local

DEG = math.pi / 180.0


def small_cfg(**kw):
    return DataConfig(**{"count": 20, "seed": 7, **kw})


class TestWorldField:
    def test_field_matches_direct_sum(self):
        world = build_world(small_cfg())
        rng = np.random.default_rng(0)
        region = world.config.region()
        for _ in range(50):
            lon = rng.uniform(region.lon_min, region.lon_max)
            lat = rng.uniform(region.lat_min, region.lat_max)
            expected = 0.0
            for a, f, ph in zip(world.amplitudes, world.frequencies, world.phases):
                expected += a * math.sin(2 * math.pi * (f[0] * lon / DEG + f[1] * lat / DEG) + ph)
            assert abs(sample_field(world, GeoPoint(lon, lat)) - expected) < 1e-12

    def test_gradient_matches_finite_differences(self):
        world = build_world(small_cfg())
        p = GeoPoint(8.4 * DEG, 47.6 * DEG)
        gx, gy = field_gradient(world, p)
        h = 1e-7
        fd_x = (sample_field(world, GeoPoint(p.lon + h * DEG, p.lat)) - sample_field(world, GeoPoint(p.lon - h * DEG, p.lat))) / (2 * h)
        fd_y = (sample_field(world, GeoPoint(p.lon, p.lat + h * DEG)) - sample_field(world, GeoPoint(p.lon, p.lat - h * DEG))) / (2 * h)
        assert abs(gx - fd_x) < 1e-4 and abs(gy - fd_y) < 1e-4

    def test_out_of_region_rejected(self):
        world = build_world(small_cfg())
        with pytest.raises(ValueError):
            sample_field(world, GeoPoint(0.0, 0.0))

    def test_world_depends_only_on_seed(self):
        a = build_world(small_cfg(count=10))
        b = build_world(small_cfg(count=999))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(a.frequencies, b.frequencies)


class TestGenTriple:
    def test_record_independent_of_generation_order(self):
        world = build_world(small_cfg())
        direct = gen_triple(world, 5)
        after_others = gen_triple(world, 5)
        gen_triple(world, 0)
        again = gen_triple(world, 5)
        for a, b in ((direct, after_others), (direct, again)):
            assert np.array_equal(a.rs, b.rs) and np.array_equal(a.sv, b.sv)
            assert a.lon == b.lon and a.lat == b.lat

    def test_shapes_and_dtypes(self):
        cfg = small_cfg()
        r = gen_triple(build_world(cfg), 0)
        assert r.rs.shape == (cfg.temporal_variants, cfg.rs_channels, cfg.rs_size, cfg.rs_size)
        assert r.sv.shape == (1, cfg.sv_size, cfg.sv_size)
        assert r.rs.dtype == np.float32 and r.sv.dtype == np.float32

    def test_labels_derive_from_field_at_loc(self):
        world = build_world(small_cfg())
        for i in range(10):
            r = gen_triple(world, i)
            f = sample_field(world, GeoPoint(r.lon, r.lat))
            assert r.label_reg == pytest.approx(f, abs=1e-12)
            assert r.label_class == int(f > 0)

    def test_loc_inside_interpolation_hull(self):
        cfg = small_cfg(count=200)
        for r in generate_records(cfg):
            assert r.footprint.contains(GeoPoint(r.lon, r.lat))
            local = to_local(r.footprint, GeoPoint(r.lon, r.lat))
            hull = 1.0 - cfg.inr_hull_margin
            assert abs(local.u) <= hull and abs(local.v) <= hull

    def test_rs_channel0_tracks_field(self):
        cfg = small_cfg()
        world = build_world(cfg)
        r = gen_triple(world, 3)
        fp = r.footprint
        h = cfg.rs_size
        lats = fp.lat_max - (np.arange(h) + 0.5) / h * (fp.lat_max - fp.lat_min)
        lons = fp.lon_min + (np.arange(h) + 0.5) / h * (fp.lon_max - fp.lon_min)
        truth = np.array([[sample_field(world, GeoPoint(lo, la)) for lo in lons] for la in lats])
        resid = r.rs[0, 0] - truth
        assert np.abs(resid).mean() < 4 * math.hypot(cfg.sigma_rs, cfg.sigma_temporal)
        # last channel is pure noise, uncorrelated with the field
        assert abs(np.corrcoef(r.rs[0, -1].reshape(-1), truth.reshape(-1))[0, 1]) < 0.3

    def test_planted_signal_recoverable_from_sv(self):
        # least squares against the known rendering bases must recover F(loc)
        cfg = small_cfg(count=500)
        recs = generate_records(cfg)
        bases = _sv_bases(cfg.sv_size).reshape(3, -1).T
        est, truth = [], []
        for r in recs:
            coef, *_ = np.linalg.lstsq(bases, r.sv.reshape(-1), rcond=None)
            est.append(coef[0])
            truth.append(r.label_reg)
        corr = np.corrcoef(est, truth)[0, 1]
        assert corr > 0.95
        sign_acc = np.mean((np.array(est) > 0) == (np.array(truth) > 0))
        assert sign_acc > 0.9

    def test_label_balance(self):
        recs = generate_records(small_cfg(count=500))
        frac = np.mean([r.label_class for r in recs])
        assert 0.3 < frac < 0.7


class TestDataConfig:
    @pytest.mark.parametrize("edit", [
        {"region_lat0_deg": 89.5},  # past the north pole
        {"region_lat0_deg": -90.5},  # past the south pole
        {"region_lon0_deg": 179.5},  # across the antimeridian
        {"region_lon0_deg": float("nan")},
    ], ids=["north-pole", "south-pole", "antimeridian", "nan"])
    def test_unusable_region_rejected(self, edit):
        with pytest.raises(ValueError):
            small_cfg(**edit)

    def test_region_reaching_pole_and_antimeridian_accepted(self):
        region = small_cfg(region_lon0_deg=179.0, region_lat0_deg=89.0).region()
        assert region.lon_max == pytest.approx(math.pi) and region.lat_max == pytest.approx(math.pi / 2)


def _same_record(a, b) -> bool:
    return (a.rs.tobytes() == b.rs.tobytes() and a.sv.tobytes() == b.sv.tobytes() and a.footprint == b.footprint
            and (a.lon, a.lat, a.label_class, a.label_reg) == (b.lon, b.lat, b.label_class, b.label_reg))


class TestGenerateRecords:
    # Two full blocks and a partial one, at small odd sizes.
    CFG = dict(count=2 * _BLOCK + 3, seed=5, rs_size=5, sv_size=3, temporal_variants=2)

    def test_equals_one_record_at_a_time(self):
        cfg = small_cfg(**self.CFG)
        world = build_world(cfg)
        recs = generate_records(cfg)
        assert len(recs) == cfg.count
        assert all(_same_record(r, gen_triple(world, i)) for i, r in enumerate(recs))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_independent_of_usable_cores(self, monkeypatch, cpus):
        # Three cores give three threads, one per block; a short switch
        # interval interleaves them as often as the interpreter allows.
        cfg = small_cfg(**self.CFG)
        expected = generate_records(cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            recs = generate_records(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert all(_same_record(a, b) for a, b in zip(recs, expected, strict=True))

    def test_records_are_views_of_one_table(self, tmp_path):
        # Generated and loaded records alike are the rows of one table of
        # the record layout data.blob stores.
        cfg = small_cfg(**self.CFG)
        recs = generate_records(cfg)
        loaded, _ = read_dataset(write_dataset(recs, tmp_path, cfg))
        for records in (recs, loaded):
            table = records[0].rs.base
            assert table.dtype == _record_dtype(cfg) and table.shape == (cfg.count,)
            for i, r in enumerate(records):
                assert r.rs.base is table and r.sv.base is table
                assert np.shares_memory(r.rs, table[i]) and np.shares_memory(r.sv, table[i])
                assert not np.shares_memory(r.rs, table[i - 1]) and r.rs.flags.c_contiguous
                assert (r.lon, r.lat, r.label_reg) == (table["lon"][i], table["lat"][i], table["label_reg"][i])


class TestPinnedBytes:
    """sha256 of data.blob, recorded before generation ran in blocks on
    threads: block size, core count and vectorization must not move a byte."""

    @pytest.mark.parametrize("kw, digest", [
        (dict(count=40, seed=7), "4ce9ea9880cfdece119edc262730cc70c85ccc7464ef04cacc17a7feb6c3d7d1"),
        (dict(count=9, seed=3, rs_channels=1, rs_size=7, sv_size=5, temporal_variants=2),
         "4ea1387802f1a0f01d99c41823715f3a9a38ca68f1d08c24be55af3a8654e4a2"),
        # One record past a block of 16.
        (dict(count=17, seed=11, rs_channels=2, rs_size=9, sv_size=7, temporal_variants=3),
         "6b75ff984ac04a7ffb2783dc913188663ad428b23ef806174e7ebe84445ba5c8"),
        # Fewer records than a block.
        (dict(count=5, seed=5, rs_channels=4, rs_size=11, sv_size=9, temporal_variants=1, modes=3, inr_hull_margin=0.3),
         "cb35259e65f7d498b241a52bd72cb26eecb8bf8ba43294b437c5fc2a1378598f"),
        (dict(count=33, seed=0, rs_size=3, sv_size=1, region_deg=0.5, footprint_deg=0.1, region_lon0_deg=-120.0,
              region_lat0_deg=-33.0), "7afc6279df1fb1f08c8b695fecf64f9d74021478551e17ae1650f37108f66e58"),
    ], ids=["default-40", "1-channel", "2-channels-block-plus-one", "4-channels-below-block", "3-pixels"])
    def test_blob_digest(self, tmp_path, kw, digest):
        cfg = DataConfig(**kw)
        write_dataset(generate_records(cfg), tmp_path, cfg)
        assert hashlib.sha256((tmp_path / "data.blob").read_bytes()).hexdigest() == digest


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = small_cfg()
        recs = generate_records(cfg)
        manifest_path = write_dataset(recs, tmp_path / "ds", cfg)
        loaded, manifest = read_dataset(manifest_path)
        assert manifest["count"] == len(recs)
        for a, b in zip(recs, loaded):
            assert np.array_equal(a.rs, b.rs)
            assert np.array_equal(a.sv, b.sv)
            assert (a.lon, a.lat, a.label_class, a.label_reg) == (b.lon, b.lat, b.label_class, b.label_reg)
            assert a.footprint == b.footprint

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = small_cfg()
        recs = generate_records(cfg)
        write_dataset(recs, tmp_path / "a", cfg)
        write_dataset(recs, tmp_path / "b", cfg)
        assert (tmp_path / "a" / "data.blob").read_bytes() == (tmp_path / "b" / "data.blob").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

    def test_offsets_match_recomputation(self, tmp_path):
        cfg = small_cfg()
        recs = generate_records(cfg)
        loaded, _ = read_dataset(write_dataset(recs, tmp_path / "ds", cfg))
        record_size = recs[0].rs.size * 4 + recs[0].sv.size * 4 + 16 + 16 + 32
        assert _record_dtype(cfg).itemsize == record_size
        starts = [r.rs.__array_interface__["data"][0] for r in loaded]
        assert np.all(np.diff(starts) == record_size)
        assert (tmp_path / "ds" / "data.blob").stat().st_size == len(BLOB_MAGIC) + len(recs) * record_size

    @pytest.mark.parametrize("edit", [
        lambda r: dataclasses.replace(r, lon=r.lon + 1e-9),
        lambda r: dataclasses.replace(r, label_class=1 - r.label_class),
        lambda r: dataclasses.replace(r, rs=r.rs + 1.0),
        lambda r: dataclasses.replace(r, sv=-r.sv),
    ], ids=["lon", "label_class", "rs", "sv"])
    def test_replaced_record_is_written_with_its_edit(self, tmp_path, edit):
        cfg = small_cfg()
        recs = generate_records(cfg)
        unedited = recs[2].rs.base[2].tobytes()
        recs[3] = edit(recs[3])
        write_dataset(recs, tmp_path, cfg)
        table = np.fromfile(tmp_path / "data.blob", dtype=_record_dtype(cfg), offset=len(BLOB_MAGIC))
        r = recs[3]
        assert table[3]["rs"].tobytes() == r.rs.tobytes() and table[3]["sv"].tobytes() == r.sv.tobytes()
        assert (table[3]["lon"], table[3]["lat"], table[3]["label_class"]) == (r.lon, r.lat, r.label_class)
        assert table[2].tobytes() == unedited

    def test_scalar_assigned_in_place_is_written(self, tmp_path):
        cfg = small_cfg()
        recs = generate_records(cfg)
        recs[5].label_reg = 0.25
        write_dataset(recs, tmp_path, cfg)
        table = np.fromfile(tmp_path / "data.blob", dtype=_record_dtype(cfg), offset=len(BLOB_MAGIC))
        assert table[5]["label_reg"] == 0.25

    def test_bad_magic_rejected(self, tmp_path):
        cfg = small_cfg()
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        blob = tmp_path / "ds" / "data.blob"
        data = bytearray(blob.read_bytes())
        data[:8] = b"XXXXXXXX"
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_dataset(manifest_path)

    def test_truncated_blob_rejected(self, tmp_path):
        cfg = small_cfg()
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        blob = tmp_path / "ds" / "data.blob"
        blob.write_bytes(blob.read_bytes()[:-100])
        with pytest.raises(FormatError, match="truncated"):
            read_dataset(manifest_path)

    def test_unreadable_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_wrong_version_rejected(self, tmp_path):
        cfg = small_cfg()
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        manifest = json.loads(open(manifest_path).read())
        manifest["version"] = 99
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(FormatError, match="version"):
            read_dataset(manifest_path)

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(count="20"),
        lambda m: m.update(count=0),
        lambda m: m.update(count=19),
        lambda m: m.update(count=21),
        lambda m: m.update(config=[1]),
        lambda m: m["config"].pop("sv_size"),
        lambda m: m["config"].update(bogus=1),
        lambda m: m["config"].update(rs_size=0),
        lambda m: m["config"].update(rs_size=32.0),
        lambda m: m["config"].update(temporal_variants="4"),
        lambda m: m["config"].update(region_lat0_deg=89.5),
        lambda m: m.update(rng="mt19937"),
        lambda m: m.pop("rng"),
    ], ids=["count-str", "count-zero", "count-short", "count-long", "config-list", "config-missing-key",
            "config-unknown-key", "config-rejected-value", "config-float-size", "config-str-size",
            "config-region-past-pole", "rng-other", "rng-missing"])
    def test_malformed_manifest_is_format_error(self, tmp_path, edit):
        cfg = small_cfg()
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        manifest = json.loads(open(manifest_path).read())
        edit(manifest)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(FormatError):
            read_dataset(manifest_path)

    def test_stored_layout_keys_are_ignored(self, tmp_path):
        # Manifests written before the layout was derived from the config
        # also stored it; the reader ignores those keys, whatever they hold.
        cfg = small_cfg()
        recs = generate_records(cfg)
        manifest_path = write_dataset(recs, tmp_path / "ds", cfg)
        manifest = json.loads(open(manifest_path).read())
        assert sorted(manifest) == ["config", "count", "rng", "version"]
        manifest.update(blob="other.blob", blob_size=1, offsets=[-5, "x"], rs_shape=[1], sv_shape="x", record_layout=None)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        loaded, _ = read_dataset(manifest_path)
        assert len(loaded) == len(recs)
        assert all(np.array_equal(a.rs, b.rs) and a.footprint == b.footprint for a, b in zip(recs, loaded))

    def test_loaded_fields_are_python_scalars_and_writable_arrays(self, tmp_path):
        cfg = small_cfg()
        loaded, _ = read_dataset(write_dataset(generate_records(cfg), tmp_path / "ds", cfg))
        r = loaded[3]
        assert type(r.lon) is float and type(r.label_reg) is float and type(r.label_class) is int
        assert type(r.footprint.lon_min) is float
        assert r.rs.flags.writeable and r.sv.flags.writeable

    def test_invalid_footprint_is_format_error(self, tmp_path):
        cfg = small_cfg()
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        blob = tmp_path / "ds" / "data.blob"
        data = bytearray(blob.read_bytes())
        stride = _record_dtype(cfg).itemsize
        start = len(BLOB_MAGIC) + 2 * stride
        fp_at = start + stride - 32  # lon_min is the first footprint bound
        data[fp_at : fp_at + 8] = struct.pack("<d", 10.0)  # lon_min > lon_max
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"record 2.*at byte offset {start}"):
            read_dataset(manifest_path)

    def test_footprint_past_the_pole_is_format_error(self, tmp_path):
        cfg = small_cfg(count=12)
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        blob = tmp_path / "ds" / "data.blob"
        data = bytearray(blob.read_bytes())
        table = np.frombuffer(data, dtype=_record_dtype(cfg), offset=len(BLOB_MAGIC))
        table["footprint"][0, 2:] = [1.60, 1.62]  # lat_max past pi / 2, with the location inside it
        table["lat"][0] = 1.61
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"record 0: footprint extends past a pole.*at byte offset {len(BLOB_MAGIC)}"):
            read_dataset(manifest_path)

    @pytest.mark.parametrize("field, value", [("lon", math.nan), ("lat", math.inf), ("lat", -math.inf), ("lon", "past_edge")],
                             ids=["nan-lon", "inf-lat", "minus-inf-lat", "lon-outside-footprint"])
    def test_location_outside_footprint_is_format_error(self, tmp_path, field, value):
        cfg = small_cfg()
        recs = generate_records(cfg)
        manifest_path = write_dataset(recs, tmp_path / "ds", cfg)
        if value == "past_edge":  # just east of the footprint, still inside the region
            value = recs[4].footprint.lon_max + 1e-6
        blob = tmp_path / "ds" / "data.blob"
        data = bytearray(blob.read_bytes())
        dtype = _record_dtype(cfg)
        start = len(BLOB_MAGIC) + 4 * dtype.itemsize
        at = start + dtype.fields[field][1]
        data[at : at + 8] = struct.pack("<d", value)
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"record 4: location .* outside its footprint.*at byte offset {start}"):
            read_dataset(manifest_path)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_class_other_than_0_or_1_is_format_error(self, tmp_path, label):
        cfg = small_cfg()
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        blob = tmp_path / "ds" / "data.blob"
        data = bytearray(blob.read_bytes())
        dtype = _record_dtype(cfg)
        start = len(BLOB_MAGIC) + 5 * dtype.itemsize
        at = start + dtype.fields["label_class"][1]
        data[at : at + 8] = struct.pack("<q", label)
        blob.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"record 5: label_class {label} is not 0 or 1.*at byte offset {start}"):
            read_dataset(manifest_path)

    def test_failed_blob_write_leaves_no_manifest(self, tmp_path, monkeypatch, full_disk):
        cfg = small_cfg()
        recs = generate_records(cfg)
        write_dataset(recs, tmp_path / "ds", cfg)
        blob_before = (tmp_path / "ds" / "data.blob").read_bytes()

        full_disk(datagen)
        with pytest.raises(OSError, match="no space"):
            write_dataset(recs[:5], tmp_path / "ds", cfg)
        monkeypatch.undo()
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == ["data.blob"]
        assert (tmp_path / "ds" / "data.blob").read_bytes() == blob_before
        with pytest.raises(FormatError, match="unreadable manifest"):
            read_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("blob", ["missing", "directory"])
    def test_unopenable_blob_is_format_error(self, tmp_path, blob):
        cfg = small_cfg()
        manifest_path = write_dataset(generate_records(cfg), tmp_path / "ds", cfg)
        os.remove(tmp_path / "ds" / "data.blob")
        if blob == "directory":
            os.mkdir(tmp_path / "ds" / "data.blob")
        with pytest.raises(FormatError, match="unreadable blob"):
            read_dataset(manifest_path)

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset([], tmp_path / "ds", small_cfg())


def _make_batch_per_sample(records, indices, rng, augment=True):
    """make_batch as one loop per sample through GeoPoint and to_local, the
    reference its array operations must equal bit for bit."""
    rs_list, sv_list, lonlat, uv, lc, lr, flips = [], [], [], [], [], [], []
    for idx in indices:
        if not 0 <= idx < len(records):
            raise IndexError(f"record index {idx} out of range")
        r = records[idx]
        t = rng.integers(r.rs.shape[0]) if augment else 0
        rs = r.rs[t]
        sv = r.sv
        local = to_local(r.footprint, GeoPoint(r.lon, r.lat))
        u, v = local.u, local.v
        flip = bool(augment and rng.random() < 0.5)
        if flip:
            rs = rs[:, :, ::-1]
            u = -u
        rs_list.append(np.ascontiguousarray(rs))
        sv_list.append(np.ascontiguousarray(sv))
        lonlat.append((r.lon, r.lat))
        uv.append((u, v))
        lc.append(r.label_class)
        lr.append(r.label_reg)
        flips.append(flip)
    return dict(rs=np.stack(rs_list), sv=np.stack(sv_list), lonlat=np.array(lonlat), local_uv=np.array(uv),
                label_class=np.array(lc), label_reg=np.array(lr), flipped=np.array(flips))


class TestMakeBatch:
    @pytest.mark.parametrize("augment", [True, False])
    @pytest.mark.parametrize("variants", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_equals_per_sample_loop(self, tmp_path, augment, variants, seed):
        cfg = small_cfg(count=24, seed=seed, rs_size=7, temporal_variants=variants)
        recs = generate_records(cfg)
        loaded, _ = read_dataset(write_dataset(recs, tmp_path, cfg))
        indices = np.random.default_rng(seed).permutation(len(recs))[:16].tolist() + [3, 3]
        for records in (recs, loaded):
            got = make_batch(records, indices, np.random.default_rng(seed), augment=augment)
            want = _make_batch_per_sample(records, indices, np.random.default_rng(seed), augment=augment)
            assert augment == bool(want["flipped"].any())
            for name, expected in want.items():
                value = getattr(got, name)
                assert value.dtype == expected.dtype and value.shape == expected.shape, name
                assert value.tobytes() == expected.tobytes(), name
                assert (value.flags.c_contiguous, value.flags.f_contiguous) == (expected.flags.c_contiguous,
                                                                                expected.flags.f_contiguous), name

    @pytest.mark.parametrize("edit", [
        lambda r: dict(lon=r.footprint.lon_max + 1e-6),
        lambda r: dict(lat=r.footprint.lat_min - 1e-6),
        lambda r: dict(lon=math.nan),
    ], ids=["east-of-footprint", "south-of-footprint", "nan-lon"])
    def test_location_outside_footprint_raises(self, edit):
        recs = generate_records(small_cfg())
        recs[1] = dataclasses.replace(recs[1], **edit(recs[1]))
        make_batch(recs, [0, 2], np.random.default_rng(0))
        with pytest.raises(OutOfFootprintError):
            make_batch(recs, [0, 1, 2], np.random.default_rng(0))

    def test_no_augment_is_deterministic(self):
        recs = generate_records(small_cfg())
        a = make_batch(recs, [0, 3, 5], np.random.default_rng(0), augment=False)
        b = make_batch(recs, [0, 3, 5], np.random.default_rng(99), augment=False)
        assert np.array_equal(a.rs, b.rs) and np.array_equal(a.local_uv, b.local_uv)
        assert not a.flipped.any()
        # unaugmented batches use the first temporal variant
        assert np.array_equal(a.rs[0], recs[0].rs[0])

    def test_local_uv_matches_geometry(self):
        recs = generate_records(small_cfg())
        b = make_batch(recs, [1, 2], np.random.default_rng(0), augment=False)
        for i, idx in enumerate([1, 2]):
            r = recs[idx]
            local = to_local(r.footprint, GeoPoint(r.lon, r.lat))
            assert b.local_uv[i, 0] == local.u and b.local_uv[i, 1] == local.v

    def test_flip_is_column_reversal_with_negated_u(self):
        recs = generate_records(small_cfg())
        rng = np.random.default_rng(1)
        # draw until we see both flipped and unflipped samples
        batch = make_batch(recs, list(range(16)), rng, augment=True)
        assert batch.flipped.any() and not batch.flipped.all()
        for i in range(16):
            r = recs[i]
            local = to_local(r.footprint, GeoPoint(r.lon, r.lat))
            if batch.flipped[i]:
                # the overhead chip is one of the variants, column-reversed
                assert (r.rs[:, :, :, ::-1] == batch.rs[i]).all(axis=(1, 2, 3)).any()
                assert batch.local_uv[i, 0] == -local.u
            else:
                assert (r.rs == batch.rs[i]).all(axis=(1, 2, 3)).any()
                assert batch.local_uv[i, 0] == local.u
            # the ground pattern is a signed rendering; it is never mirrored
            assert np.array_equal(batch.sv[i], r.sv)
            assert batch.local_uv[i, 1] == local.v

    def test_flip_preserves_geographic_sampling(self):
        # bilinear reads of the RS grid at the sample's location agree
        # between the flipped and unflipped presentation of each record
        recs = generate_records(small_cfg())
        rng = np.random.default_rng(2)
        batch = make_batch(recs, list(range(16)), rng, augment=True)

        def read_grid(img, u, v):
            h = img.shape[-1]
            x = (u + 1) / 2 * h - 0.5
            y = (1 - v) / 2 * h - 0.5
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            tx, ty = x - x0, y - y0
            x0, y0 = np.clip(x0, 0, h - 2), np.clip(y0, 0, h - 2)
            patch = img[0, y0 : y0 + 2, x0 : x0 + 2].astype(np.float64)
            return (
                patch[0, 0] * (1 - tx) * (1 - ty)
                + patch[0, 1] * tx * (1 - ty)
                + patch[1, 0] * (1 - tx) * ty
                + patch[1, 1] * tx * ty
            )

        for i in range(16):
            r = recs[i]
            local = to_local(r.footprint, GeoPoint(r.lon, r.lat))
            t = np.where((r.rs == batch.rs[i]).all(axis=(1, 2, 3)) | (r.rs[:, :, :, ::-1] == batch.rs[i]).all(axis=(1, 2, 3)))[0][0]
            ref = read_grid(r.rs[t], local.u, local.v)
            got = read_grid(batch.rs[i], batch.local_uv[i, 0], batch.local_uv[i, 1])
            assert got == pytest.approx(ref, abs=1e-5)

    def test_bad_index_rejected(self):
        recs = generate_records(small_cfg())
        with pytest.raises(IndexError):
            make_batch(recs, [100], np.random.default_rng(0))
