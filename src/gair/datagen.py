"""Synthetic geo-paired triples with a planted cross-modal signal.

A smooth random Fourier field over a region is the shared ground truth:
remote-sensing chips sample it on a pixel grid, street-view patterns render
its value and gradient at one in-footprint location, and probe labels are
derived from it. Everything is a pure function of (seed, config) via
counter-based Philox streams, so generation order and parallelism cannot
change the output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import FormatError, _replacing, require_keys
from .geo import GeoFootprint, GeoPoint, to_local

__all__ = [
    "DataConfig",
    "WorldModel",
    "TripleRecord",
    "TripleBatch",
    "build_world",
    "sample_field",
    "field_gradient",
    "gen_triple",
    "generate_records",
    "write_dataset",
    "read_dataset",
    "make_batch",
]

BLOB_MAGIC = b"GARBLOB1"
MANIFEST_VERSION = 1
RNG_ALGORITHM = "philox4x64"

_DEG = math.pi / 180.0

# Stream ids for the counter-based split of the master seed.
_STREAM_WORLD = 0
_STREAM_RECORD_BASE = 1_000_000


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(stream_id))))


@dataclass
class DataConfig:
    seed: int = 7
    count: int = 2000
    region_deg: float = 1.0  # square region side, degrees
    region_lon0_deg: float = 8.0  # SW corner
    region_lat0_deg: float = 47.0
    footprint_deg: float = 0.02
    rs_channels: int = 3
    rs_size: int = 32
    sv_size: int = 16
    temporal_variants: int = 4
    modes: int = 12
    sigma_rs: float = 0.1
    sigma_sv: float = 0.2
    sigma_temporal: float = 0.05
    inr_hull_margin: float = 0.125  # half-patch margin fraction (1/P)

    def __post_init__(self):
        # np.gradient needs rs_size >= 2; a Philox key needs seed >= 0.
        lows = {"seed": 0, "count": 1, "rs_channels": 1, "rs_size": 2, "sv_size": 1, "temporal_variants": 1, "modes": 1}
        for name, low in lows.items():
            if not isinstance(getattr(self, name), int) or getattr(self, name) < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {getattr(self, name)!r}")
        if not 0 < self.footprint_deg <= self.region_deg < math.inf:
            raise ValueError("need 0 < footprint_deg <= region_deg < inf")
        if not (0 <= self.inr_hull_margin < 1 and all(s >= 0 for s in (self.sigma_rs, self.sigma_sv, self.sigma_temporal))):
            raise ValueError("need 0 <= inr_hull_margin < 1 and sigma_rs, sigma_sv, sigma_temporal >= 0")

    def region(self) -> GeoFootprint:
        lon0 = self.region_lon0_deg * _DEG
        lat0 = self.region_lat0_deg * _DEG
        side = self.region_deg * _DEG
        return GeoFootprint(lon0, lon0 + side, lat0, lat0 + side)


@dataclass
class WorldModel:
    """Smooth scalar field F(lon, lat) = sum_k a_k sin(2 pi f_k . x_deg + phi_k)."""

    config: DataConfig
    amplitudes: np.ndarray  # (K,)
    frequencies: np.ndarray  # (K, 2), cycles per degree
    phases: np.ndarray  # (K,)


def build_world(config: DataConfig) -> WorldModel:
    rng = _stream(config.seed, _STREAM_WORLD)
    k = config.modes
    amps = rng.uniform(0.4, 1.0, k) / math.sqrt(k) * 3.0
    freqs = rng.uniform(1.0, 6.0, (k, 2)) * rng.choice([-1.0, 1.0], (k, 2))
    phases = rng.uniform(0.0, 2.0 * math.pi, k)
    return WorldModel(config=config, amplitudes=amps, frequencies=freqs, phases=phases)


def _field_grid(world: WorldModel, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """F evaluated elementwise on broadcastable lon/lat arrays (radians)."""
    lon_d = np.asarray(lon) / _DEG
    lat_d = np.asarray(lat) / _DEG
    out = np.zeros(np.broadcast(lon_d, lat_d).shape)
    for a, f, ph in zip(world.amplitudes, world.frequencies, world.phases):
        out = out + a * np.sin(2.0 * math.pi * (f[0] * lon_d + f[1] * lat_d) + ph)
    return out


def sample_field(world: WorldModel, p: GeoPoint) -> float:
    if not world.config.region().contains(p):
        raise ValueError(f"point ({p.lon}, {p.lat}) outside the world region")
    return float(_field_grid(world, np.array(p.lon), np.array(p.lat)))


def field_gradient(world: WorldModel, p: GeoPoint) -> tuple:
    """(dF/dlon_deg, dF/dlat_deg) at p."""
    lon_d, lat_d = p.lon / _DEG, p.lat / _DEG
    gx = gy = 0.0
    for a, f, ph in zip(world.amplitudes, world.frequencies, world.phases):
        c = a * 2.0 * math.pi * math.cos(2.0 * math.pi * (f[0] * lon_d + f[1] * lat_d) + ph)
        gx += c * f[0]
        gy += c * f[1]
    return gx, gy


@dataclass
class TripleRecord:
    rs: np.ndarray  # (T, C, H, W) float32, row 0 northernmost
    sv: np.ndarray  # (1, h, w) float32
    lon: float
    lat: float
    label_class: int
    label_reg: float
    footprint: GeoFootprint


def _sv_bases(size: int) -> np.ndarray:
    """Three fixed orthogonal-ish rendering patterns (3, size, size).

    All three are full-period sinusoids, so they average to zero over any
    coarse sub-block: a linear readout of blockwise means carries none of
    the planted signal, and an encoder has to learn a real spatial filter.
    """
    yy, xx = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size), indexing="ij")
    b0 = np.sin(math.pi * xx) * np.sin(math.pi * yy)
    b1 = np.sin(math.pi * xx)
    b2 = np.sin(math.pi * yy)
    return np.stack([b0, b1, b2])


def render_sv(world: WorldModel, p: GeoPoint, rng: np.random.Generator) -> np.ndarray:
    """Deterministic rendering of (F, grad F) at p into a noisy pattern.

    Each of the three signals is divided by its own field-wide standard
    deviation (a closed form of the mode coefficients), so the value and the
    two gradient components enter the pattern with equal strength.
    """
    cfg = world.config
    f_val = sample_field(world, p)
    gx, gy = field_gradient(world, p)
    a, f = world.amplitudes, world.frequencies
    std_f = math.sqrt(np.sum(a**2) / 2.0)
    std_gx = 2.0 * math.pi * math.sqrt(np.sum((a * f[:, 0]) ** 2) / 2.0)
    std_gy = 2.0 * math.pi * math.sqrt(np.sum((a * f[:, 1]) ** 2) / 2.0)
    b = _sv_bases(cfg.sv_size)
    pattern = (f_val / std_f) * b[0] + (gx / std_gx) * b[1] + (gy / std_gy) * b[2]
    pattern = pattern + cfg.sigma_sv * rng.standard_normal((cfg.sv_size, cfg.sv_size))
    return pattern[None, :, :].astype(np.float32)


def gen_triple(world: WorldModel, index: int) -> TripleRecord:
    """Generate record `index` from its own counter-derived stream."""
    cfg = world.config
    rng = _stream(cfg.seed, _STREAM_RECORD_BASE + index)
    region = cfg.region()
    side = cfg.footprint_deg * _DEG
    lon_min = rng.uniform(region.lon_min, region.lon_max - side)
    lat_min = rng.uniform(region.lat_min, region.lat_max - side)
    fp = GeoFootprint(lon_min, lon_min + side, lat_min, lat_min + side)

    h = cfg.rs_size
    # Pixel-center grid, row 0 northernmost.
    lats = fp.lat_max - (np.arange(h) + 0.5) / h * (fp.lat_max - fp.lat_min)
    lons = fp.lon_min + (np.arange(h) + 0.5) / h * (fp.lon_max - fp.lon_min)
    lon_g, lat_g = np.meshgrid(lons, lats)
    f_grid = _field_grid(world, lon_g, lat_g)
    # Cheap finite-difference gradient magnitude as a second signal channel.
    gmag = np.hypot(*np.gradient(f_grid))
    gmag = gmag / (np.mean(np.abs(gmag)) + 1e-9)

    base = np.zeros((cfg.rs_channels, h, h))
    base[0] = f_grid
    if cfg.rs_channels > 1:
        base[1] = gmag
    variants = []
    for _ in range(cfg.temporal_variants):
        v = base + cfg.sigma_temporal * rng.standard_normal(base.shape)
        v[0] += cfg.sigma_rs * rng.standard_normal((h, h))
        if cfg.rs_channels > 2:
            v[-1] = rng.standard_normal((h, h))  # pure-noise channel
        variants.append(v)
    rs = np.stack(variants).astype(np.float32)

    # Street-view location: uniform inside the footprint's INR-valid hull.
    m = cfg.inr_hull_margin
    u = rng.uniform(-(1 - m), 1 - m)
    v = rng.uniform(-(1 - m), 1 - m)
    lon = fp.lon_min + (u + 1) / 2 * (fp.lon_max - fp.lon_min)
    lat = fp.lat_min + (v + 1) / 2 * (fp.lat_max - fp.lat_min)
    p = GeoPoint(lon, lat)
    sv = render_sv(world, p, rng)
    f_loc = sample_field(world, p)
    return TripleRecord(
        rs=rs,
        sv=sv,
        lon=p.lon,
        lat=p.lat,
        label_class=int(f_loc > 0),
        label_reg=float(f_loc),
        footprint=fp,
    )


def generate_records(config: DataConfig) -> list:
    world = build_world(config)
    return [gen_triple(world, i) for i in range(config.count)]


# -- persistence ---------------------------------------------------------------


def _record_dtype(cfg: DataConfig) -> np.dtype:
    """One data.blob record: packed little-endian, its size fixed by the config."""
    t, c, h, s = cfg.temporal_variants, cfg.rs_channels, cfg.rs_size, cfg.sv_size
    return np.dtype([("rs", "<f4", (t, c, h, h)), ("sv", "<f4", (1, s, s)), ("lon", "<f8"), ("lat", "<f8"),
                     ("label_class", "<i8"), ("label_reg", "<f8"), ("footprint", "<f8", (4,))])


def write_dataset(records: list, out_dir, config: DataConfig) -> str:
    """Write data.blob (BLOB_MAGIC, one `_record_dtype` row per record), then
    manifest.json, under out_dir; returns the manifest path. The old manifest
    goes first, so an interrupted write never leaves one beside another blob."""
    if not records:
        raise ValueError("refusing to write an empty dataset")
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    row = np.zeros((), _record_dtype(config))
    with _replacing(os.path.join(out_dir, "data.blob")) as tmp, open(tmp, "wb") as fh:
        fh.write(BLOB_MAGIC)
        for r in records:
            fp = r.footprint
            row[()] = (r.rs, r.sv, r.lon, r.lat, r.label_class, r.label_reg, (fp.lon_min, fp.lon_max, fp.lat_min, fp.lat_max))
            fh.write(row)
    manifest = {"version": MANIFEST_VERSION, "count": len(records), "rng": RNG_ALGORITHM, "config": asdict(config)}
    with _replacing(manifest_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


def read_dataset(path) -> tuple:
    """Load (records, manifest) from a manifest path or dataset directory;
    every record's `rs` and `sv` are views of one table read from data.blob."""
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"unreadable manifest {path}: {exc}") from None
    require_keys(manifest, ("version", "count", "config"), "manifest")
    if manifest["version"] != MANIFEST_VERSION:
        raise FormatError(f"unsupported dataset version {manifest['version']!r}")
    count = manifest["count"]
    if not isinstance(count, int) or count < 1:
        raise FormatError(f"manifest count must be a positive integer, not {count!r}")
    require_keys(manifest["config"], [f.name for f in fields(DataConfig)], "manifest config")
    try:
        dtype = _record_dtype(DataConfig(**manifest["config"]))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed manifest config: {exc}") from None
    expected = len(BLOB_MAGIC) + count * dtype.itemsize
    with open(os.path.join(os.path.dirname(path), "data.blob"), "rb") as fh:
        if fh.read(len(BLOB_MAGIC)) != BLOB_MAGIC:
            raise FormatError("bad blob magic", offset=0)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FormatError(f"blob truncated or overlong: expected {expected} bytes, found {size}", offset=min(size, expected))
        table = np.fromfile(fh, dtype=dtype, count=count)
    columns = zip(table["rs"], table["sv"], table["lon"].tolist(), table["lat"].tolist(),
                  table["label_class"].tolist(), table["label_reg"].tolist(), table["footprint"].tolist())
    records = []
    for i, (rs, sv, lon, lat, label_class, label_reg, bounds) in enumerate(columns):
        offset = len(BLOB_MAGIC) + i * dtype.itemsize
        try:
            footprint = GeoFootprint(*bounds)
        except ValueError as exc:
            raise FormatError(f"record {i}: {exc}", offset=offset) from None
        # The generator places every location inside its footprint; the
        # comparisons are False for NaN, so a NaN location is rejected too.
        if not (footprint.lon_min <= lon <= footprint.lon_max and footprint.lat_min <= lat <= footprint.lat_max):
            raise FormatError(f"record {i}: location ({lon}, {lat}) lies outside its footprint", offset=offset)
        records.append(TripleRecord(rs, sv, lon, lat, label_class, label_reg, footprint))
    return records, manifest


# -- batching ------------------------------------------------------------------


@dataclass
class TripleBatch:
    rs: np.ndarray  # (N, C, H, W) float32, one temporal variant per sample
    sv: np.ndarray  # (N, 1, h, w) float32
    lonlat: np.ndarray  # (N, 2) float64, radians
    local_uv: np.ndarray  # (N, 2) float64, flip-consistent local coordinates
    label_class: np.ndarray  # (N,)
    label_reg: np.ndarray  # (N,)
    flipped: np.ndarray  # (N,) bool


def make_batch(records: list, indices, rng: np.random.Generator, augment: bool = True) -> TripleBatch:
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
        # Horizontal flip applies to the overhead image only (columns plus a
        # negated query u), which reads the same field values. The ground
        # pattern is a fixed signed rendering: mirroring it would change the
        # encoded values, not just the viewpoint, so it stays as is.
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
    return TripleBatch(
        rs=np.stack(rs_list),
        sv=np.stack(sv_list),
        lonlat=np.array(lonlat),
        local_uv=np.array(uv),
        label_class=np.array(lc),
        label_reg=np.array(lr),
        flipped=np.array(flips),
    )
