"""Synthetic geo-paired triples with a planted cross-modal signal.

A smooth random Fourier field over a region is the shared ground truth:
remote-sensing chips sample it on a pixel grid, street-view patterns render
its value and gradient at one in-footprint location, and probe labels are
derived from it. Everything is a pure function of (seed, config): each
record draws from its own counter-based Philox stream (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011), so generation
order and parallelism cannot change the output.

Records live in one `_record_dtype` table from generation to disk, the
layout data.blob stores. `generate_records` fills the table in blocks of
`_BLOCK` records: a short loop per record makes that record's draws from
its own stream, and the field, gradient and rendering math runs over the
whole block at once, writing every column of the block's rows. The blocks
run in index order on one thread per usable core, each writing a disjoint
slice of the table; numpy releases the GIL in the normal draws and in
`sin`, where most of the time goes. `gen_triple` runs the same block code
on a one-row table. `_records` turns a generated or loaded table into
`TripleRecord`s whose `rs` and `sv` are views of its rows.

On disk, data.blob is `BLOB_MAGIC` followed by the table's packed
little-endian rows, and manifest.json holds only `version`, `count`, `rng`
and `config`; `read_dataset` accepts only the `philox4x64` rng.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import FormatError, _replacing, check_number_fields, require_keys
from .geo import GeoFootprint, GeoPoint, OutOfFootprintError, inside, local_lonlat, local_uv
from .parallel import for_each_block

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

# Stream ids for the counter-based split of a seed: `_stream(seed, id)`.
# The world (data seed), the model's initial weights (model seed) and the
# probe (probe seed) all use id 0, so when two of those seeds are equal
# their streams are one stream, and the model's first draws reuse the
# world's bits. Moving a stream would change the weights it draws.
_STREAM_WORLD = 0
_STREAM_MODEL_INIT = 0
_STREAM_PROBE = 0
_STREAM_RECORD_BASE = 1_000_000  # + record index
_STREAM_EPOCH_BASE = 2_000_000  # + epoch: the epoch's permutation
_STREAM_AUGMENT_BASE = 3_000_000  # + step: the step's augmentation draws

# Records per vectorized block, the unit of work of generate_records' threads.
_BLOCK = 16


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
        check_number_fields(self)
        # np.gradient needs rs_size >= 2; a Philox key needs seed >= 0.
        lows = {"seed": 0, "count": 1, "rs_channels": 1, "rs_size": 2, "sv_size": 1, "temporal_variants": 1, "modes": 1}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {getattr(self, name)!r}")
        if not 0 < self.footprint_deg <= self.region_deg < math.inf:
            raise ValueError("need 0 < footprint_deg <= region_deg < inf")
        if not (0 <= self.inr_hull_margin < 1 and all(0 <= s < math.inf for s in (self.sigma_rs, self.sigma_sv, self.sigma_temporal))):
            raise ValueError("need 0 <= inr_hull_margin < 1 and finite sigma_rs, sigma_sv, sigma_temporal >= 0")
        self.region()  # raises ValueError for a region past a pole or across the antimeridian

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
    term = np.empty_like(out)
    for a, f, ph in zip(world.amplitudes, world.frequencies, world.phases):
        # out += a * sin(2 pi (f . x) + ph) in place, rounding as that expression does.
        np.add(f[0] * lon_d, f[1] * lat_d, out=term)
        term *= 2.0 * math.pi
        term += ph
        np.sin(term, out=term)
        term *= a
        out += term
    return out


def sample_field(world: WorldModel, p: GeoPoint) -> float:
    if not world.config.region().contains(p):
        raise ValueError(f"point ({p.lon}, {p.lat}) outside the world region")
    return float(_field_grid(world, np.array(p.lon), np.array(p.lat)))


def _gradient_grid(world: WorldModel, lon: np.ndarray, lat: np.ndarray) -> tuple:
    """(dF/dlon_deg, dF/dlat_deg) evaluated elementwise on broadcastable
    lon/lat arrays (radians), summing the modes in order."""
    lon_d = np.asarray(lon) / _DEG
    lat_d = np.asarray(lat) / _DEG
    gx = gy = 0.0
    for a, f, ph in zip(world.amplitudes, world.frequencies, world.phases):
        c = a * 2.0 * math.pi * np.cos(2.0 * math.pi * (f[0] * lon_d + f[1] * lat_d) + ph)
        gx += c * f[0]
        gy += c * f[1]
    return gx, gy


def field_gradient(world: WorldModel, p: GeoPoint) -> tuple:
    """(dF/dlon_deg, dF/dlat_deg) at p."""
    gx, gy = _gradient_grid(world, np.array(p.lon), np.array(p.lat))
    return float(gx), float(gy)


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


def _sv_rendering(world: WorldModel) -> tuple:
    """The SV bases and the field-wide standard deviations of F, dF/dlon_deg
    and dF/dlat_deg (closed forms of the mode coefficients).

    An SV pattern renders (F, grad F) at its location as the bases weighted
    by each signal over its own deviation, so the value and the two gradient
    components enter the pattern with equal strength.
    """
    a, f = world.amplitudes, world.frequencies
    stds = (
        math.sqrt(np.sum(a**2) / 2.0),
        2.0 * math.pi * math.sqrt(np.sum((a * f[:, 0]) ** 2) / 2.0),
        2.0 * math.pi * math.sqrt(np.sum((a * f[:, 1]) ** 2) / 2.0),
    )
    return _sv_bases(world.config.sv_size), stds


def _record_dtype(cfg: DataConfig) -> np.dtype:
    """One record, in memory and in data.blob: packed little-endian, its size
    fixed by the config. Generated and loaded records are rows of one table
    of this dtype."""
    t, c, h, s = cfg.temporal_variants, cfg.rs_channels, cfg.rs_size, cfg.sv_size
    return np.dtype([("rs", "<f4", (t, c, h, h)), ("sv", "<f4", (1, s, s)), ("lon", "<f8"), ("lat", "<f8"),
                     ("label_class", "<i8"), ("label_reg", "<f8"), ("footprint", "<f8", (4,))])


def _fill_block(world: WorldModel, rendering: tuple, start: int, rows: np.ndarray) -> None:
    """Generate records start, start + 1, ... into every column of `rows`,
    a slice of a `_record_dtype` table.

    Each record draws from its own stream, in a fixed order: the footprint's
    corner, every temporal variant's normals in one call (the same values as
    one call per variant, as a stream's draws are sequential), the location,
    the SV noise. The rest runs over the whole block at once, with the same
    elementwise arithmetic as for one record.
    """
    cfg = world.config
    n, t, c, h, s = len(rows), cfg.temporal_variants, cfg.rs_channels, cfg.rs_size, cfg.sv_size
    region = cfg.region()
    side = cfg.footprint_deg * _DEG
    m = cfg.inr_hull_margin
    # Per variant: temporal noise on every channel, sensor noise on channel 0,
    # and, with more than two channels, the pure-noise last channel.
    noise = np.empty((n, t, c + 1 + (c > 2), h, h))
    sv_noise = np.empty((n, s, s))
    corner = np.empty((n, 2))
    uv = np.empty((n, 2))
    for k in range(n):
        rng = _stream(cfg.seed, _STREAM_RECORD_BASE + start + k)
        corner[k] = rng.uniform(region.lon_min, region.lon_max - side), rng.uniform(region.lat_min, region.lat_max - side)
        rng.standard_normal(out=noise[k])
        uv[k] = rng.uniform(-(1 - m), 1 - m, 2)
        rng.standard_normal(out=sv_noise[k])

    lon_min, lat_min = corner[:, 0], corner[:, 1]
    lon_max, lat_max = lon_min + side, lat_min + side
    dlon, dlat = lon_max - lon_min, lat_max - lat_min
    # Pixel-center grid, row 0 northernmost.
    frac = (np.arange(h) + 0.5) / h
    lats = lat_max[:, None] - frac * dlat[:, None]
    lons = lon_min[:, None] + frac * dlon[:, None]
    f_grid = _field_grid(world, lons[:, None, :], lats[:, :, None])
    # Cheap finite-difference gradient magnitude as a second signal channel.
    gmag = np.hypot(*np.gradient(f_grid, axis=(1, 2)))
    gmag /= (np.abs(gmag).reshape(n, h * h).mean(axis=1) + 1e-9)[:, None, None]

    base = np.zeros((n, c, h, h))
    base[:, 0] = f_grid
    if c > 1:
        base[:, 1] = gmag
    # base + sigma_temporal * noise, computed in the noise buffer.
    variants = noise[:, :, :c]
    variants *= cfg.sigma_temporal
    variants += base[:, None]
    sensor = noise[:, :, c]
    sensor *= cfg.sigma_rs
    variants[:, :, 0] += sensor
    if c > 2:
        variants[:, :, -1] = noise[:, :, c + 1]
    rows["rs"] = variants

    # Street-view location: uniform inside the footprint's INR-valid hull.
    lon, lat = local_lonlat(uv[:, 0], uv[:, 1], lon_min, lon_max, lat_min, lat_max)
    f_loc = _field_grid(world, lon, lat)
    bases, stds = rendering
    signals = np.column_stack([f_loc, *_gradient_grid(world, lon, lat)]) / stds
    pattern = signals[:, 0, None, None] * bases[0] + signals[:, 1, None, None] * bases[1] + signals[:, 2, None, None] * bases[2]
    rows["sv"][:, 0] = pattern + cfg.sigma_sv * sv_noise
    rows["lon"], rows["lat"] = lon, lat
    rows["label_class"], rows["label_reg"] = f_loc > 0, f_loc
    rows["footprint"] = np.column_stack([lon_min, lon_max, lat_min, lat_max])


def _records(table: np.ndarray) -> list:
    """The TripleRecords of a `_record_dtype` table; each record's `rs` and
    `sv` are views of its row. A footprint that GeoFootprint rejects, a
    location outside its footprint, or a `label_class` other than 0 or 1
    raises FormatError at the row's offset in data.blob."""
    columns = zip(table["rs"], table["sv"], table["lon"].tolist(), table["lat"].tolist(),
                  table["label_class"].tolist(), table["label_reg"].tolist(), table["footprint"].tolist())
    # The generator places every location inside its footprint; `inside` is
    # False for NaN, so a NaN location is rejected too.
    located = inside(table["lon"], table["lat"], *table["footprint"].T)
    records = []
    for i, (rs, sv, lon, lat, label_class, label_reg, bounds) in enumerate(columns):
        offset = len(BLOB_MAGIC) + i * table.itemsize
        try:
            footprint = GeoFootprint(*bounds)
        except ValueError as exc:
            raise FormatError(f"record {i}: {exc}", offset=offset) from None
        if not located[i]:
            raise FormatError(f"record {i}: location ({lon}, {lat}) lies outside its footprint", offset=offset)
        if label_class not in (0, 1):
            raise FormatError(f"record {i}: label_class {label_class} is not 0 or 1", offset=offset)
        records.append(TripleRecord(rs, sv, lon, lat, label_class, label_reg, footprint))
    return records


def gen_triple(world: WorldModel, index: int) -> TripleRecord:
    """Generate record `index` from its own counter-derived stream; it equals
    record `index` of `generate_records(world.config)`."""
    table = np.empty(1, _record_dtype(world.config))
    _fill_block(world, _sv_rendering(world), index, table)
    return _records(table)[0]


def generate_records(config: DataConfig) -> list:
    """Records 0 .. count - 1, in order, as the rows of one `_record_dtype`
    table. Blocks of `_BLOCK` records run on one thread per usable core, each
    filling its own slice of the table."""
    world = build_world(config)
    rendering = _sv_rendering(world)
    table = np.empty(config.count, _record_dtype(config))
    for_each_block(lambda start: _fill_block(world, rendering, start, table[start : start + _BLOCK]),
                   range(0, config.count, _BLOCK))
    return _records(table)


# -- persistence ---------------------------------------------------------------


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
            row[()] = (r.rs, r.sv, r.lon, r.lat, r.label_class, r.label_reg, r.footprint.bounds)
            fh.write(row)
    manifest = {"version": MANIFEST_VERSION, "count": len(records), "rng": RNG_ALGORITHM, "config": asdict(config)}
    with _replacing(manifest_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


def read_dataset(path) -> tuple:
    """Load (records, manifest) from a manifest path or dataset directory;
    the records are the rows of one `_record_dtype` table read from data.blob."""
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"unreadable manifest {path}: {exc}") from None
    require_keys(manifest, ("version", "count", "rng", "config"), "manifest")
    if manifest["version"] != MANIFEST_VERSION:
        raise FormatError(f"unsupported dataset version {manifest['version']!r}")
    if manifest["rng"] != RNG_ALGORITHM:
        raise FormatError(f"unsupported dataset rng {manifest['rng']!r}, expected {RNG_ALGORITHM!r}")
    count = manifest["count"]
    if type(count) is not int or count < 1:
        raise FormatError(f"manifest count must be a positive integer, not {count!r}")
    require_keys(manifest["config"], [f.name for f in fields(DataConfig)], "manifest config")
    try:
        dtype = _record_dtype(DataConfig(**manifest["config"]))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed manifest config: {exc}") from None
    expected = len(BLOB_MAGIC) + count * dtype.itemsize
    try:
        with open(os.path.join(os.path.dirname(path), "data.blob"), "rb") as fh:
            if fh.read(len(BLOB_MAGIC)) != BLOB_MAGIC:
                raise FormatError("bad blob magic", offset=0)
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise FormatError(f"blob truncated or overlong: expected {expected} bytes, found {size}", offset=min(size, expected))
            table = np.fromfile(fh, dtype=dtype, count=count)
    except OSError as exc:
        raise FormatError(f"unreadable blob: {exc}") from None
    return _records(table), manifest


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
    picked, variants, flips = [], [], []
    for idx in indices:
        if not 0 <= idx < len(records):
            raise IndexError(f"record index {idx} out of range")
        r = records[idx]
        # Each sample draws its temporal variant, then its flip.
        variants.append(r.rs[rng.integers(r.rs.shape[0]) if augment else 0])
        flips.append(bool(augment and rng.random() < 0.5))
        picked.append(r)
    lonlat = np.array([(r.lon, r.lat) for r in picked])
    lon, lat = lonlat.T
    footprints = np.array([r.footprint.bounds for r in picked])
    outside = ~inside(lon, lat, *footprints.T)
    if outside.any():
        k = int(outside.argmax())
        raise OutOfFootprintError(f"point (lon={lon[k]}, lat={lat[k]}) outside footprint {picked[k].footprint}")
    u, v = local_uv(lon, lat, *footprints.T)
    # Horizontal flip applies to the overhead image only (columns plus a
    # negated query u), which reads the same field values. The ground
    # pattern is a fixed signed rendering: mirroring it would change the
    # encoded values, not just the viewpoint, so it stays as is.
    flipped = np.array(flips)
    rs = np.stack(variants)
    rs[flipped] = rs[flipped, :, :, ::-1]
    return TripleBatch(
        rs=rs,
        sv=np.stack([r.sv for r in picked]),
        lonlat=lonlat,
        local_uv=np.column_stack([np.where(flipped, -u, u), v]),
        label_class=np.array([r.label_class for r in picked]),
        label_reg=np.array([r.label_reg for r in picked]),
        flipped=flipped,
    )
